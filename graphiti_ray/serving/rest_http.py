"""REST service parity: the reference's FastAPI graph service re-expressed
over the same ``GraphitiFacade`` that backs the MCP transports.

Route surface (reference ``server/graph_service/routers/``):

ingest.py:17-141
- ``POST /messages``               → 202; per-message episodes queued and
                                     drained by a background worker (the
                                     AsyncWorker analogue), episode_body
                                     = ``role(role_type): content``
                                     (sources/messages.format_message)
- ``POST /entity-node``            → 201; node upsert
- ``DELETE /entity-edge/{uuid}``   → 200
- ``DELETE /group/{group_id}``     → 200
- ``DELETE /episode/{uuid}``       → 200
- ``POST /clear``                  → 200; wipe + (index DDL is a no-op
                                     here — BM25 sidecars rebuild lazily)

retrieve.py:39-113
- ``POST /search``                 → 200 {facts: [...]}
- ``POST /search-nodes``           → 200 {nodes: [...], message}
- ``GET /entity-edge/{uuid}``      → 200
- ``GET /episodes/{group_id}?last_n=N`` → 200 [episodes]
- ``POST /get-memory``             → 200 {facts} over the composed
                                     ``role_type(role): content`` query

graph_admin_routes.py
- ``GET /get-all-groups``          → 200 {groups: [...]}
- ``GET /healthcheck``             → 200 {status}

serving metrics (no reference twin)
- ``GET /metrics``                 → 200 {"<METHOD> <route>": {requests,
                                     errors, p50_ms, p99_ms}}; an error is
                                     a response of status 400 or above

Transport is the stdlib ``ThreadingHTTPServer`` (no FastAPI in this
environment); JSON in/out. Ingestion matches the reference's shape: POST
/messages returns immediately and a single worker thread drains the
facade queue sequentially (per-group order preserved by
``process_pending``), so clients poll ``GET /episodes`` or
``/healthcheck`` for convergence — exactly the reference's eventual-
consistency contract.

Run: ``python -m graphiti_ray.serving.rest_http --root /path/to/kg_root
[--host 127.0.0.1] [--port 8809]``
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from graphiti_ray.serving.mcp_facade import GraphitiFacade
from graphiti_ray.serving.metrics import RequestMetrics
from graphiti_ray.sources.messages import format_message

_EDGE_RE = re.compile(r"^/entity-edge/([^/]+)$")
_GROUP_RE = re.compile(r"^/group/([^/]+)$")
_EPISODE_RE = re.compile(r"^/episode/([^/]+)$")
_EPISODES_RE = re.compile(r"^/episodes/([^/]+)$")


def _result(message: str, success: bool = True) -> dict:
    return {"message": message, "success": success}  # DTO Result shape


class RestServer:
    """One facade, one ingest worker, a JSON route table."""

    def __init__(self, facade: GraphitiFacade, host: str = "127.0.0.1", port: int = 0):
        self.facade = facade
        self.metrics = RequestMetrics()
        self._lock = threading.Lock()  # serializes queue + process_pending
        self._wake = threading.Event()
        self._stop = False
        self._worker = threading.Thread(target=self._drain_loop, daemon=True)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):  # quiet test runs
                pass

            def _send(self, code: int, payload) -> None:
                # recorded before the client can see the reply, so a
                # later GET /metrics always counts this request
                outer.metrics.record(
                    f"{self.command} {self.route}",
                    time.perf_counter() - self._t0,
                    error=code >= 400,
                )
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _body(self) -> dict:
                n = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(n) if n else b"{}"
                try:
                    return json.loads(raw or b"{}")
                except json.JSONDecodeError:
                    return {}

            def _route(self, fn) -> None:
                # the metrics key: the route template the dispatch matched
                # (set by its branch), so the key set stays bounded
                # whatever paths clients send
                self._t0 = time.perf_counter()
                self.route = "(no route)"
                try:
                    fn(self)
                except Exception as e:  # route errors → JSON 500, keep-alive safe
                    import traceback

                    self._send(
                        500,
                        {"error": f"{type(e).__name__}: {e}",
                         "trace": traceback.format_exc()},
                    )

            def do_GET(self):  # noqa: N802
                self._route(outer._get)

            def do_POST(self):  # noqa: N802
                self._route(outer._post)

            def do_DELETE(self):  # noqa: N802
                self._route(outer._delete)

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.port = self.httpd.server_address[1]

    # -- ingest worker (the AsyncWorker analogue) ---------------------------

    def _drain_loop(self) -> None:
        while not self._stop:
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            with self._lock:
                if self.facade._pending:
                    self.facade.process_pending()

    # -- routes -------------------------------------------------------------

    def _get(self, h) -> None:
        from urllib.parse import parse_qs

        u = urlparse(h.path)
        if u.path == "/healthcheck":
            h.route = u.path
            h._send(200, self.facade.get_status())
            return
        if u.path == "/metrics":
            h.route = u.path
            h._send(200, self.metrics.snapshot())
            return
        if u.path == "/get-all-groups":
            h.route = u.path
            h._send(200, self.facade.get_groups())
            return
        m = _EDGE_RE.match(u.path)
        if m:
            h.route = "/entity-edge/{uuid}"
            out = self.facade.get_entity_edge(m.group(1))
            h._send(404 if "error" in out else 200, out)
            return
        m = _EPISODES_RE.match(u.path)
        if m:
            h.route = "/episodes/{group_id}"
            last_n = int(parse_qs(u.query).get("last_n", ["10"])[0])
            out = self.facade.get_episodes(group_id=m.group(1), last_n=last_n)
            h._send(200 if isinstance(out, list) else 404, out)
            return
        h._send(404, {"error": f"no route {u.path}"})

    def _post(self, h) -> None:
        body = h._body()
        if h.path == "/messages":
            h.route = h.path
            group = body.get("group_id")
            msgs = body.get("messages") or []
            with self._lock:
                for m in msgs:
                    self.facade.add_episode(
                        name=m.get("name") or m.get("uuid") or "message",
                        episode_body=format_message(
                            m.get("role") or "",
                            m.get("role_type") or "",
                            m.get("content") or "",
                        ),
                        group_id=group,
                        source="message",
                        source_description=m.get("source_description") or "",
                        uuid=m.get("uuid"),
                    )
            self._wake.set()
            h._send(202, _result("Messages added to processing queue"))
            return
        if h.path == "/entity-node":
            h.route = h.path
            with self._lock:
                out = self.facade.save_entity_node(
                    name=body.get("name") or "",
                    group_id=body.get("group_id"),
                    uuid=body.get("uuid"),
                    summary=body.get("summary") or "",
                )
            h._send(400 if "error" in out else 201, out)
            return
        if h.path == "/clear":
            h.route = h.path
            with self._lock:
                self.facade.clear_graph()
            h._send(200, _result("Graph cleared"))
            return
        if h.path == "/search":
            h.route = h.path
            out = self.facade.search_facts(
                query=body.get("query") or "",
                group_ids=body.get("group_ids"),
                max_facts=int(body.get("max_facts") or 10),
            )
            h._send(400 if "error" in out else 200, out)
            return
        if h.path == "/search-nodes":
            h.route = h.path
            out = self.facade.search_nodes(
                query=body.get("query") or "",
                group_ids=body.get("group_ids"),
                max_nodes=int(body.get("max_nodes") or 10),
            )
            h._send(400 if "error" in out else 200, out)
            return
        if h.path == "/get-memory":
            h.route = h.path
            combined = "".join(
                f"{m.get('role_type') or ''}({m.get('role') or ''}): "
                f"{m.get('content') or ''}\n"
                for m in body.get("messages") or []
            )
            gid = body.get("group_id")
            out = self.facade.search_facts(
                query=combined,
                group_ids=[gid] if gid else None,
                max_facts=int(body.get("max_facts") or 10),
            )
            h._send(
                400 if "error" in out else 200,
                out if "error" in out else {"facts": out["facts"]},
            )
            return
        h._send(404, {"error": f"no route {h.path}"})

    def _delete(self, h) -> None:
        m = _EDGE_RE.match(h.path)
        if m:
            h.route = "/entity-edge/{uuid}"
            with self._lock:
                out = self.facade.delete_entity_edge(m.group(1))
            h._send(
                404 if "error" in out else 200,
                _result(out.get("message", out.get("error", "")), "error" not in out),
            )
            return
        m = _GROUP_RE.match(h.path)
        if m:
            h.route = "/group/{group_id}"
            with self._lock:
                self.facade.delete_group(m.group(1))
            h._send(200, _result("Group deleted"))
            return
        m = _EPISODE_RE.match(h.path)
        if m:
            h.route = "/episode/{uuid}"
            with self._lock:
                out = self.facade.delete_episode(m.group(1))
            h._send(
                404 if "error" in out else 200,
                _result(out.get("message", out.get("error", "")), "error" not in out),
            )
            return
        h._send(404, {"error": f"no route {h.path}"})

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._worker.start()
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def flush(self) -> None:
        """Synchronously drain the ingest queue (tests / shutdown)."""
        with self._lock:
            if self.facade._pending:
                self.facade.process_pending()

    def shutdown(self) -> None:
        self._stop = True
        self._wake.set()
        self.httpd.shutdown()
        self.httpd.server_close()


def main(argv: list[str] | None = None) -> None:
    import argparse

    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8809)
    args = p.parse_args(argv)
    srv = RestServer(GraphitiFacade(args.root), args.host, args.port)
    srv.start()
    print(f"graphiti-ray REST service on http://{args.host}:{srv.port}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        srv.shutdown()


if __name__ == "__main__":
    main()
