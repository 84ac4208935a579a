"""S4 transport: an MCP stdio server (newline-delimited JSON-RPC 2.0).

The reference serves its tools through FastMCP with ``transport='stdio'``
by default (mcp_server/graphiti_mcp_server.py:1098-1116). This module is
that transport without an SDK dependency: JSON-RPC 2.0 messages, one per
line, over stdin/stdout — the MCP basic lifecycle (``initialize`` →
``notifications/initialized`` → ``tools/list`` / ``tools/call`` … until
EOF). Together with ``mcp_facade.GraphitiFacade`` (the tool surface) this
makes S4 an actually-connectable server: any MCP client that can spawn a
subprocess can drive the KG.

Run:  python -m graphiti_ray.serving.mcp_stdio --root /path/to/kg_root

Protocol notes (kept to the spec's REQUIRED subset):
- requests carry ``id``; notifications don't and get no response;
- tool RESULTS travel in ``result.content`` with ``isError`` — only
  protocol-level failures (parse error, unknown method, invalid params)
  use the JSON-RPC ``error`` member;
- logging goes to stderr (stdout is reserved for protocol frames).
"""

from __future__ import annotations

import json
import sys
from typing import Any, TextIO

PROTOCOL_VERSION = "2025-03-26"
SERVER_INFO = {"name": "graphiti-ray", "version": "0.1.0"}

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602


def _rpc_result(msg_id: Any, result: dict) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, "result": result}


def _rpc_error(msg_id: Any, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, "error": {"code": code, "message": message}}


class MCPStdioServer:
    """One façade, one client, newline-delimited JSON-RPC frames."""

    def __init__(self, facade):
        self.facade = facade
        self.initialized = False

    # -- dispatch ------------------------------------------------------------

    def handle(self, msg: dict) -> dict | None:
        """One decoded message → one response dict, or None for
        notifications (which must not be answered)."""
        return self.dispatch(msg)[1]

    def dispatch(self, msg: dict) -> tuple[str, dict | None]:
        """``handle`` plus the metrics key of the branch that answered:
        the method, ``tools/call:<tool>`` for a served tool, and one
        shared key for anything else, so the key set stays bounded."""
        unknown = "(unknown method)"
        if not isinstance(msg, dict) or msg.get("jsonrpc") != "2.0":
            return unknown, _rpc_error(None, INVALID_REQUEST, "not a JSON-RPC 2.0 message")
        method = msg.get("method")
        msg_id = msg.get("id")

        # notifications (no id) are NEVER answered — checked before any
        # method dispatch so even an id-less 'initialize' stays silent
        # (JSON-RPC 2.0 forbids responding with id:null to a notification)
        if "id" not in msg:
            if method == "notifications/initialized":
                # tracked for observability; requests arriving before the
                # client's initialized notification are tolerated (lenient
                # server), so the flag gates nothing
                self.initialized = True
                return method, None
            return unknown, None

        if method == "initialize":
            self.initialized = False
            return method, _rpc_result(
                msg_id,
                {
                    "protocolVersion": PROTOCOL_VERSION,
                    "capabilities": {"tools": {"listChanged": False}},
                    "serverInfo": SERVER_INFO,
                },
            )
        if method == "ping":
            return method, _rpc_result(msg_id, {})
        if method == "tools/list":
            tools = [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "inputSchema": spec.input_schema,
                }
                for spec in self.facade.list_tools()
            ]
            return method, _rpc_result(msg_id, {"tools": tools})
        if method == "tools/call":
            params = msg.get("params") or {}
            name = params.get("name") if isinstance(params, dict) else None
            if not name:
                return "tools/call:(unknown)", _rpc_error(
                    msg_id, INVALID_PARAMS, "missing tool name"
                )
            served = any(spec.name == name for spec in self.facade.list_tools())
            try:
                out = self.facade.call_tool(name, params.get("arguments") or {})
            except Exception as exc:  # tool errors are RESULTS, not rpc errors
                out = {"error": f"{type(exc).__name__}: {exc}"}
            is_error = isinstance(out, dict) and "error" in out
            return f"tools/call:{name if served else '(unknown)'}", _rpc_result(
                msg_id,
                {
                    "content": [
                        {"type": "text", "text": json.dumps(out, default=str)}
                    ],
                    "isError": bool(is_error),
                },
            )
        return unknown, _rpc_error(msg_id, METHOD_NOT_FOUND, f"unknown method: {method}")

    # -- transport -------------------------------------------------------------

    def serve(self, inp: TextIO = None, out: TextIO = None) -> None:
        """Read newline-delimited frames until EOF. Every malformed line
        gets a parse-error response; the loop never dies on bad input."""
        inp = inp if inp is not None else sys.stdin
        out = out if out is not None else sys.stdout
        for line in inp:
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError as exc:
                resp = _rpc_error(None, PARSE_ERROR, f"parse error: {exc}")
            else:
                resp = self.handle(msg)
            if resp is not None:
                out.write(json.dumps(resp, default=str) + "\n")
                out.flush()


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="graphiti-ray MCP stdio server")
    ap.add_argument("--root", required=True, help="checkpointed KG root dir")
    ap.add_argument(
        "--embeddings",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="embed served episodes (must match how the KG root was built)",
    )
    args = ap.parse_args(argv)

    from graphiti_ray.serving.mcp_facade import GraphitiFacade

    facade = GraphitiFacade(args.root, embeddings=args.embeddings)
    print(f"graphiti-ray MCP server on stdio, root={args.root}", file=sys.stderr)
    MCPStdioServer(facade).serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
