"""S4 transport #2: MCP over SSE/HTTP (the reference's default deploy
shape, mcp_server/graphiti_mcp_server.py:1098-1116 with
``transport='sse'``).

Same JSON-RPC dispatch as the stdio transport (``mcp_stdio.MCPStdioServer
.handle`` — one seam, two transports); this module only adds the wire
protocol FastMCP's SSE mode speaks, on the stdlib ``http.server``:

- ``GET /sse``                 → a ``text/event-stream`` whose first frame
                                 is an ``endpoint`` event naming the
                                 session's POST URI; JSON-RPC responses
                                 then flow back as ``message`` events;
- ``POST /messages?session_id=…`` → one JSON-RPC request/notification per
                                 body; replies ``202 Accepted``
                                 immediately (responses travel on the
                                 SSE stream, per the MCP SSE transport);
- ``GET /metrics``             → JSON ``{key: {requests, errors, p50_ms,
                                 p99_ms}}`` per tool (``tools/call:<name>``)
                                 or other JSON-RPC method; an error is a
                                 JSON-RPC error or a tool result with
                                 ``isError``.

Run:  python -m graphiti_ray.serving.mcp_http --root /path/to/kg_root \
          [--host 127.0.0.1] [--port 8808]

Serving is localhost-process-local (one Ray driver behind the façade);
scale-out is N independent server processes behind a load balancer, each
owning its checkpoint root — the same shape as the reference's one
FastMCP process per graph.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
import uuid as _uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from graphiti_ray.serving.metrics import RequestMetrics
from graphiti_ray.serving.mcp_stdio import PARSE_ERROR, MCPStdioServer, _rpc_error

_SESSION_GONE = object()  # sentinel a closed session drains


def _rpc_failed(resp: dict | None) -> bool:
    return resp is not None and (
        "error" in resp or bool(resp.get("result", {}).get("isError"))
    )


class _Session:
    """One SSE client: a response queue the POST side feeds."""

    def __init__(self, session_id: str):
        self.session_id = session_id
        self.out: queue.Queue = queue.Queue()


class MCPHttpServer:
    """SSE/HTTP MCP server over one façade. Sessions are in-process
    (id → queue); each SSE connection drives its own JSON-RPC handler so
    per-session lifecycle state (initialize) stays isolated."""

    def __init__(self, facade, host: str = "127.0.0.1", port: int = 0):
        self.facade = facade
        self.sessions: dict[str, _Session] = {}
        self.handlers: dict[str, MCPStdioServer] = {}
        self.metrics = RequestMetrics()
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # stderr, not stdout
                print(f"mcp_http: {fmt % args}", file=sys.stderr)

            # -- SSE stream ------------------------------------------------
            def do_GET(self):
                path = urlparse(self.path).path
                if path == "/metrics":
                    body = json.dumps(outer.metrics.snapshot()).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                if path != "/sse":
                    self.send_error(404)
                    return
                sess = outer._open_session()
                try:
                    self.send_response(200)
                    self.send_header("Content-Type", "text/event-stream")
                    self.send_header("Cache-Control", "no-cache")
                    # SSE is an unbounded stream — no Content-Length
                    self.send_header("Connection", "close")
                    self.end_headers()
                    endpoint = f"/messages?session_id={sess.session_id}"
                    self._sse("endpoint", endpoint)
                    while True:
                        item = sess.out.get()
                        if item is _SESSION_GONE:
                            break
                        self._sse("message", json.dumps(item, default=str))
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away
                finally:
                    outer._close_session(sess.session_id)

            def _sse(self, event: str, data: str):
                frame = f"event: {event}\ndata: {data}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()

            # -- JSON-RPC ingress -------------------------------------------
            def do_POST(self):
                url = urlparse(self.path)
                if url.path != "/messages":
                    self.send_error(404)
                    return
                sid = (parse_qs(url.query).get("session_id") or [None])[0]
                sess = outer.sessions.get(sid)
                if sess is None:
                    self.send_error(404, "unknown session_id")
                    return
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length)
                t0 = time.perf_counter()
                try:
                    msg = json.loads(body)
                except json.JSONDecodeError as exc:
                    key = "(unknown method)"
                    resp = _rpc_error(None, PARSE_ERROR, f"parse error: {exc}")
                else:
                    key, resp = outer.handlers[sid].dispatch(msg)
                outer.metrics.record(
                    key, time.perf_counter() - t0, error=_rpc_failed(resp)
                )
                if resp is not None:
                    sess.out.put(resp)
                # per the MCP SSE transport the HTTP reply is just an ack;
                # the JSON-RPC response travels on the event stream
                payload = b"Accepted"
                self.send_response(202)
                self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True

    # -- session registry ------------------------------------------------------

    def _open_session(self) -> _Session:
        sid = _uuid.uuid4().hex
        sess = _Session(sid)
        with self._lock:
            self.sessions[sid] = sess
            self.handlers[sid] = MCPStdioServer(self.facade)
        return sess

    def _close_session(self, sid: str) -> None:
        with self._lock:
            sess = self.sessions.pop(sid, None)
            self.handlers.pop(sid, None)
        if sess is not None:
            sess.out.put(_SESSION_GONE)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        with self._lock:
            sids = list(self.sessions)
        for sid in sids:
            self._close_session(sid)
        self.httpd.shutdown()
        self.httpd.server_close()


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="graphiti-ray MCP SSE/HTTP server")
    ap.add_argument("--root", required=True, help="checkpointed KG root dir")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8808)
    ap.add_argument(
        "--embeddings", action=argparse.BooleanOptionalAction, default=True
    )
    args = ap.parse_args(argv)

    from graphiti_ray.serving.mcp_facade import GraphitiFacade

    facade = GraphitiFacade(args.root, embeddings=args.embeddings)
    server = MCPHttpServer(facade, host=args.host, port=args.port)
    host, port = server.address
    print(f"graphiti-ray MCP server on http://{host}:{port}/sse", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
