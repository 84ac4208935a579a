"""S4 MCP-shaped serving façade: tool surface, queued episode processing,
getters/deletes, protocol dispatch (graphiti_mcp_server.py:653-1092 parity,
minus the network transport this environment cannot host)."""

import pytest

from graphiti_ray.serving.mcp_facade import GraphitiFacade, episode_to_page
from tests.test_boilerplate import SF


@pytest.fixture(scope="module")
def kg_root(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mcp_kg"))
    from graphiti_ray.pipelines.kg import run_kg

    # run_kg's default embeddings, which the facade's default matches
    run_kg(SF, root)
    return root


def test_episode_page_roundtrips_byte_identical():
    from graphiti_ray.functions.text import extract_text_from_html
    from graphiti_ray.stages.extract import DEFAULT_RUN_TS

    row = episode_to_page(
        "meeting notes", "Alice met Bob.\n  Extra   spaces  here. ",
        "mcp.example.com", DEFAULT_RUN_TS,
    )
    assert extract_text_from_html(row["html"]) == row["text"]


def test_tool_surface_matches_reference(kg_root):
    f = GraphitiFacade(kg_root)
    names = {t.name for t in f.list_tools()}
    assert names == {
        "add_episode", "search_nodes", "search_facts", "delete_entity_edge",
        "delete_episode", "get_entity_edge", "get_episodes", "clear_graph",
        "get_status",
    }


def test_status_search_and_getters(kg_root):
    f = GraphitiFacade(kg_root)
    status = f.call_tool("get_status")
    assert status["status"] == "ok" and status["tables"]["edges"] > 0

    facts = f.call_tool("search_facts", {"query": "Alice Smith works at"})
    assert facts["facts"], facts
    top = facts["facts"][0]
    assert {"uuid", "source_node_uuid", "target_node_uuid", "fact"} <= set(top)

    nodes = f.call_tool("search_nodes", {"query": "Alice Smith"})
    assert any(n["name"] == "Alice Smith" for n in nodes["nodes"])

    edge = f.call_tool("get_entity_edge", {"uuid": top["uuid"]})
    assert edge["uuid"] == top["uuid"] and "fact_embedding" not in edge

    eps = f.call_tool("get_episodes", {"last_n": 3})
    assert len(eps) == 3


def test_protocol_dispatch_validation(kg_root):
    f = GraphitiFacade(kg_root)
    assert "error" in f.call_tool("no_such_tool")
    assert "missing required" in f.call_tool("search_facts")["error"]
    assert "unknown argument" in f.call_tool(
        "get_status", {"bogus": 1}
    )["error"]


def test_add_episode_queue_then_process(kg_root, ray_session):
    f = GraphitiFacade(kg_root)
    n_before = f.get_status()["tables"]["episodes"]
    r = f.call_tool(
        "add_episode",
        {"name": "note1", "episode_body": "Grace Wilson works at Initech LLC."},
    )
    assert "queued" in r["message"]
    assert f.get_status()["pending_episodes"] == 1
    assert "processed 1" in f.process_pending()["message"]
    assert f.get_status()["tables"]["episodes"] == n_before + 1
    eps = f.get_episodes(group_id="mcp.example.com", last_n=5)
    assert any(e["name"].startswith("https://mcp.example.com/mcp/") for e in eps)
    # idempotent: re-queue the same episode → upsert appends nothing
    f.add_episode("note1", "Grace Wilson works at Initech LLC.")
    f.process_pending()
    assert f.get_status()["tables"]["episodes"] == n_before + 1


def test_delete_edge_and_episode_cascade(kg_root, ray_session):
    f = GraphitiFacade(kg_root)
    facts = f.search_facts("located in", max_facts=1)["facts"]
    uuid = facts[0]["uuid"]
    assert "deleted" in f.call_tool("delete_entity_edge", {"uuid": uuid})["message"]
    assert "not found" in f.get_entity_edge(uuid)["error"]

    eps = f.get_episodes(last_n=1)
    n_eps = f.get_status()["tables"]["episodes"]
    assert "deleted" in f.call_tool("delete_episode", {"uuid": eps[0]["uuid"]})["message"]
    assert f.get_status()["tables"]["episodes"] == n_eps - 1


def test_stdio_server_lifecycle_and_tools(kg_root):
    """MCP stdio transport: initialize → initialized → tools/list →
    tools/call, tool errors as isError results, protocol errors as
    JSON-RPC errors, notifications unanswered."""
    import json

    from graphiti_ray.serving.mcp_stdio import MCPStdioServer

    srv = MCPStdioServer(GraphitiFacade(kg_root))

    r = srv.handle({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                    "params": {"protocolVersion": "2025-03-26"}})
    assert r["result"]["serverInfo"]["name"] == "graphiti-ray"
    assert "tools" in r["result"]["capabilities"]

    assert srv.handle({"jsonrpc": "2.0",
                       "method": "notifications/initialized"}) is None
    assert srv.initialized

    r = srv.handle({"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
    names = {t["name"] for t in r["result"]["tools"]}
    assert "add_episode" in names and "search_facts" in names
    assert all("inputSchema" in t for t in r["result"]["tools"])

    r = srv.handle({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                    "params": {"name": "get_status"}})
    assert r["result"]["isError"] is False
    status = json.loads(r["result"]["content"][0]["text"])
    assert status["tables"]["edges"] > 0

    r = srv.handle({"jsonrpc": "2.0", "id": 4, "method": "tools/call",
                    "params": {"name": "search_facts",
                               "arguments": {"query": "works at"}}})
    facts = json.loads(r["result"]["content"][0]["text"])["facts"]
    assert facts and "source_node_uuid" in facts[0]

    # tool-level failure → isError result, NOT a JSON-RPC error
    r = srv.handle({"jsonrpc": "2.0", "id": 5, "method": "tools/call",
                    "params": {"name": "no_such_tool"}})
    assert r["result"]["isError"] is True and "error" not in r

    # protocol-level failures → JSON-RPC errors
    assert srv.handle({"jsonrpc": "2.0", "id": 6,
                       "method": "bogus/method"})["error"]["code"] == -32601
    assert srv.handle({"jsonrpc": "2.0", "id": 7, "method": "tools/call",
                       "params": {}})["error"]["code"] == -32602
    assert srv.handle({"not": "jsonrpc"})["error"]["code"] == -32600

    # ping round-trip
    assert srv.handle({"jsonrpc": "2.0", "id": 8, "method": "ping"})["result"] == {}


def test_stdio_serve_loop_survives_garbage(kg_root):
    """serve(): newline framing, parse-error recovery, EOF shutdown."""
    import io
    import json

    from graphiti_ray.serving.mcp_stdio import MCPStdioServer

    frames = "\n".join([
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                    "params": {}}),
        json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"}),
        "{this is not json",
        "",
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
    ]) + "\n"
    out = io.StringIO()
    MCPStdioServer(GraphitiFacade(kg_root)).serve(io.StringIO(frames), out)
    lines = [json.loads(x) for x in out.getvalue().splitlines()]
    # 3 responses: initialize, parse error, tools/list (notification silent)
    assert len(lines) == 3
    assert lines[0]["id"] == 1 and "result" in lines[0]
    assert lines[1]["error"]["code"] == -32700
    assert lines[2]["id"] == 2 and len(lines[2]["result"]["tools"]) == 9


def test_stdio_server_subprocess_roundtrip(tmp_path):
    """The real thing: spawn the module as a subprocess and speak MCP to
    it over pipes (empty root — queue/status tools need no Ray session)."""
    import json
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "graphiti_ray.serving.mcp_stdio",
         "--root", str(tmp_path / "kg")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    try:
        frames = [
            {"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}},
            {"jsonrpc": "2.0", "method": "notifications/initialized"},
            {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
             "params": {"name": "add_episode",
                        "arguments": {"name": "n1", "episode_body": "Bob."}}},
            {"jsonrpc": "2.0", "id": 3, "method": "tools/call",
             "params": {"name": "get_status"}},
        ]
        payload = "".join(json.dumps(f) + "\n" for f in frames)
        stdout, _ = proc.communicate(payload, timeout=180)
        lines = [json.loads(x) for x in stdout.splitlines()]
        assert lines[0]["id"] == 1
        assert lines[0]["result"]["protocolVersion"]
        queued = json.loads(lines[1]["result"]["content"][0]["text"])
        assert "queued" in queued["message"]
        status = json.loads(lines[2]["result"]["content"][0]["text"])
        assert status["pending_episodes"] == 1 and status["status"] == "empty"
        assert proc.wait(timeout=30) == 0  # clean EOF shutdown
    finally:
        proc.kill()


def test_stdio_notifications_are_never_answered(kg_root):
    """JSON-RPC 2.0: any id-less message — even 'initialize' — must get
    no response (an id:null reply would be a protocol violation)."""
    from graphiti_ray.serving.mcp_stdio import MCPStdioServer

    srv = MCPStdioServer(GraphitiFacade(kg_root))
    assert srv.handle({"jsonrpc": "2.0", "method": "initialize",
                       "params": {}}) is None
    assert srv.handle({"jsonrpc": "2.0", "method": "tools/list"}) is None
    assert srv.handle({"jsonrpc": "2.0",
                       "method": "some/unknown_notification"}) is None


def test_http_sse_transport_roundtrip(kg_root):
    """SSE/HTTP transport (serving/mcp_http.py — the reference's default
    deploy shape): GET /sse yields the session endpoint event, JSON-RPC
    POSTs are acked 202 and their responses arrive on the event stream;
    initialize → tools/list → tools/call round-trips end to end."""
    import http.client
    import json
    import threading

    from graphiti_ray.serving.mcp_http import MCPHttpServer

    srv = MCPHttpServer(GraphitiFacade(kg_root), port=0)
    host, port = srv.address
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        sse = http.client.HTTPConnection(host, port, timeout=30)
        sse.request("GET", "/sse")
        stream = sse.getresponse()
        assert stream.status == 200
        assert stream.getheader("Content-Type") == "text/event-stream"

        def read_event():
            event, data = None, []
            while True:
                line = stream.fp.readline().decode("utf-8").rstrip("\n")
                if line == "" and (event or data):
                    return event, "\n".join(data)
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    data.append(line[len("data: "):])

        event, endpoint = read_event()
        assert event == "endpoint" and endpoint.startswith("/messages?session_id=")

        def post(msg):
            c = http.client.HTTPConnection(host, port, timeout=30)
            c.request(
                "POST", endpoint, body=json.dumps(msg),
                headers={"Content-Type": "application/json"},
            )
            r = c.getresponse()
            assert r.status == 202
            r.read()
            c.close()

        post({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}})
        event, data = read_event()
        init = json.loads(data)
        assert event == "message" and init["id"] == 1
        assert init["result"]["serverInfo"]["name"] == "graphiti-ray"

        # notification: acked but never answered on the stream
        post({"jsonrpc": "2.0", "method": "notifications/initialized"})

        post({"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
        event, data = read_event()
        tools = json.loads(data)
        assert tools["id"] == 2  # the notification produced no frame
        names = {tool["name"] for tool in tools["result"]["tools"]}
        assert "get_status" in names

        post({
            "jsonrpc": "2.0", "id": 3, "method": "tools/call",
            "params": {"name": "get_status", "arguments": {}},
        })
        event, data = read_event()
        call = json.loads(data)
        assert call["id"] == 3 and call["result"]["isError"] is False
        payload = json.loads(call["result"]["content"][0]["text"])
        assert payload.get("status") == "ok"

        # unknown session → 404
        c = http.client.HTTPConnection(host, port, timeout=30)
        c.request("POST", "/messages?session_id=nope", body="{}")
        assert c.getresponse().status == 404
        c.close()
        sse.close()
    finally:
        srv.shutdown()


def test_http_metrics_per_tool(tmp_path):
    """GET /metrics on the SSE server: per tool and per JSON-RPC method,
    requests, errors (rpc errors and isError results) and latency."""
    import http.client
    import json
    import threading

    from graphiti_ray.serving.mcp_http import MCPHttpServer

    srv = MCPHttpServer(GraphitiFacade(str(tmp_path / "empty")), port=0)
    host, port = srv.address
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        sse = http.client.HTTPConnection(host, port, timeout=30)
        sse.request("GET", "/sse")
        stream = sse.getresponse()
        stream.fp.readline()  # event: endpoint
        endpoint = stream.fp.readline().decode("utf-8").strip()[len("data: "):]

        def post(body):
            c = http.client.HTTPConnection(host, port, timeout=30)
            c.request("POST", endpoint, body=body)
            assert c.getresponse().status == 202
            c.close()

        def call(i, name):
            return json.dumps({
                "jsonrpc": "2.0", "id": i, "method": "tools/call",
                "params": {"name": name, "arguments": {}},
            })

        post(call(1, "get_status"))
        post(call(2, "get_status"))
        post(call(3, "no_such_tool"))
        post(json.dumps({"jsonrpc": "2.0", "id": 4, "method": "tools/list"}))
        post("{not json")
        # unhashable names from the client still get a 202 and count as
        # errors under the shared keys
        post(json.dumps({"jsonrpc": "2.0", "id": 5, "method": []}))
        post(call(6, {}))
        post(call(7, {"x": 1}))
        post(json.dumps({"jsonrpc": "2.0", "id": 8, "method": "tools/call", "params": [1]}))
        c = http.client.HTTPConnection(host, port, timeout=30)
        c.request("GET", "/metrics")
        r = c.getresponse()
        assert r.status == 200
        m = json.loads(r.read())
        c.close()
        sse.close()
    finally:
        srv.shutdown()
    assert set(m) == {
        "tools/call:get_status", "tools/call:(unknown)", "tools/list", "(unknown method)",
    }
    assert (m["tools/call:get_status"]["requests"], m["tools/call:get_status"]["errors"]) == (2, 0)
    # an isError result, two missing names and one unknown dict name
    assert (m["tools/call:(unknown)"]["requests"], m["tools/call:(unknown)"]["errors"]) == (4, 4)
    assert m["tools/list"]["errors"] == 0
    # the parse error and the list-valued method
    assert (m["(unknown method)"]["requests"], m["(unknown method)"]["errors"]) == (2, 2)
    assert all(0 <= v["p50_ms"] <= v["p99_ms"] for v in m.values())


def _copy(kg_root, tmp_path) -> str:
    import shutil

    root = str(tmp_path / "kg")
    shutil.copytree(kg_root, root)
    return root


def test_default_facade_ingest_then_search_facts(kg_root, ray_session, tmp_path):
    """The default facade writes what run_kg wrote (fact embeddings), so a
    search right after an ingest reads one edges schema and finds the
    new fact."""
    f = GraphitiFacade(_copy(kg_root, tmp_path))
    f.add_episode("ingest", "Ivy Moss works at Umbrella Corp.", group_id="ingest.example.com")
    assert "processed 1" in f.process_pending()["message"]
    facts = f.search_facts("Ivy Moss works at Umbrella Corp.", group_ids=["ingest.example.com"])
    assert "Ivy Moss works at Umbrella Corp." in {x["fact"] for x in facts["facts"]}


def test_process_pending_writes_one_file_per_group(kg_root, ray_session, tmp_path):
    from graphiti_ray.state.checkpoint import table_files

    root = _copy(kg_root, tmp_path)
    f = GraphitiFacade(root)
    before = len(table_files(root, "episodes"))
    for k in range(4):
        f.add_episode(f"e{k}", f"Person{k} Lee likes Chess.", group_id="one.example.com")
    assert "processed 4" in f.process_pending()["message"]
    assert len(table_files(root, "episodes")) == before + 1


def test_process_pending_into_small_graph_starts_three_executions(
    kg_root, ray_session, tmp_path, monkeypatch, count_executions
):
    """Into a graph within the in-process bounds, process_pending renders,
    extracts and links in this process: the only Ray Data executions are
    the fetches of split_extracted's two views and of canonical_map, which
    stay Datasets because their rows are counted."""
    f = GraphitiFacade(_copy(kg_root, tmp_path))
    for k, person in enumerate(["Ada Park", "Ben Cho", "Cy Diaz"]):
        f.add_episode(f"e{k}", f"{person} works at Hooli Corp.", group_id="few.example.com")
    calls = count_executions(monkeypatch)
    assert "processed 3" in f.process_pending()["message"]
    assert len(calls) <= 3
    facts = f.search_facts("Ben Cho works at Hooli Corp.", group_ids=["few.example.com"])
    assert "Ben Cho works at Hooli Corp." in {x["fact"] for x in facts["facts"]}


def test_add_pages_rejects_mismatched_embeddings(kg_root, ray_session, tmp_path):
    from graphiti_ray.state.checkpoint import table_files

    root = _copy(kg_root, tmp_path)
    files = table_files(root, "edges")
    f = GraphitiFacade(root, embeddings=False)
    f.add_episode("x", "Jan Roe likes Golf.")
    with pytest.raises(ValueError, match="fact_embedding"):
        f.process_pending()
    assert table_files(root, "edges") == files  # nothing was written


def test_search_runs_no_shuffle(kg_root, ray_session, tmp_path, monkeypatch):
    """search_facts / search_nodes never sort or group a Dataset."""
    import ray.data as rd

    def boom(*a, **k):
        raise AssertionError("shuffle on the search path")

    f = GraphitiFacade(_copy(kg_root, tmp_path))
    monkeypatch.setattr(rd.Dataset, "sort", boom)
    monkeypatch.setattr(rd.Dataset, "groupby", boom)
    assert f.search_facts("Alice Smith works at")["facts"]
    assert any(n["name"] == "Alice Smith" for n in f.search_nodes("Alice Smith")["nodes"])


def test_small_table_search_runs_no_ray_data(
    kg_root, ray_session, tmp_path, monkeypatch, count_executions
):
    """A table within ops.SMALL_SORT_ROWS/BYTES is searched in this process."""
    f = GraphitiFacade(_copy(kg_root, tmp_path))
    calls = count_executions(monkeypatch)
    assert f.search_facts("Alice Smith works at")["facts"]
    assert any(n["name"] == "Alice Smith" for n in f.search_nodes("Alice Smith")["nodes"])
    assert calls == []


def test_search_above_bound_matches_in_process(
    kg_root, ray_session, tmp_path, monkeypatch, count_executions
):
    """With either bound at 0 every table counts as large: the Dataset
    path runs, and returns what the in-process path returns, after each
    of three ingest cycles."""
    from graphiti_ray.stages import ops

    f = GraphitiFacade(_copy(kg_root, tmp_path))
    group = "cycles.example.com"
    for k, (person, org) in enumerate(
        [("Ada Park", "Hooli Corp."), ("Ben Cho", "Vandelay Inc."), ("Cy Diaz", "Soylent Corp.")]
    ):
        fact = f"{person} works at {org}"
        f.add_episode(f"cycle{k}", fact, group_id=group)
        assert "processed 1" in f.process_pending()["message"]

        def searches(_fact=fact, _person=person):
            return (
                f.search_facts(_fact, group_ids=[group]),
                f.search_nodes(_person, group_ids=[group]),
                f.search_facts(_fact),
            )

        small = searches()
        for bound in ("SMALL_SORT_BYTES", "SMALL_SORT_ROWS"):
            with monkeypatch.context() as m:
                m.setattr(ops, bound, 0)
                calls = count_executions(m)
                large = searches()
            assert calls  # the Dataset path ran
            assert large == small
        assert fact in {x["fact"] for x in small[0]["facts"]}
        assert person in {n["name"] for n in small[1]["nodes"]}
