"""REST service parity (server/graph_service/routers/{ingest,retrieve}.py):
real-socket round-trips over the stdlib transport — ingest via POST
/messages converges to the same edges table the facade builds directly
(the batch twin), retrieval/admin routes return the reference DTO shapes.
"""

import json
import time
import urllib.request

import pytest

from graphiti_ray.serving.mcp_facade import GraphitiFacade
from graphiti_ray.serving.rest_http import RestServer


def _req(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    r = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(r, timeout=60) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read() or b"{}")


MESSAGES = [
    {
        "name": "m1",
        "role": "Grace Wilson",
        "role_type": "user",
        "content": "Grace Wilson works at Initech LLC.",
    },
    {
        "name": "m2",
        "role": "Henry Moore",
        "role_type": "assistant",
        "content": "Henry Moore likes Painting.",
    },
]
GROUP = "rest.example.com"


@pytest.fixture(scope="module")
def rest(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("rest_kg"))
    srv = RestServer(GraphitiFacade(root, embeddings=False))
    srv.start()
    yield srv
    srv.shutdown()


def test_messages_ingest_converges_to_batch_twin(
    rest, ray_session, tmp_path_factory
):
    code, out = _req(
        rest.port, "POST", "/messages",
        {"group_id": GROUP, "messages": MESSAGES},
    )
    assert code == 202 and out["success"]

    # the background worker drains the queue — poll the healthcheck
    # (the reference's eventual-consistency contract)
    for _ in range(300):
        _, status = _req(rest.port, "GET", "/healthcheck")
        if (
            status.get("pending_episodes") == 0
            and status.get("tables", {}).get("episodes", 0) == 2
        ):
            break
        time.sleep(0.2)
    else:
        pytest.fail(f"ingest did not converge: {status}")

    # batch twin: the same messages through the facade directly
    from graphiti_ray.sources.messages import format_message

    twin_root = str(tmp_path_factory.mktemp("rest_twin"))
    twin = GraphitiFacade(twin_root, embeddings=False)
    for m in MESSAGES:
        twin.add_episode(
            name=m["name"],
            episode_body=format_message(m["role"], m["role_type"], m["content"]),
            group_id=GROUP,
            source="message",
        )
    twin.process_pending()

    from graphiti_ray.state.checkpoint import read_table

    cols = ["uuid", "group_id", "subj_canonical", "pred", "obj_canonical", "fact"]
    got = (
        read_table(rest.facade.out_root, "edges")
        .select_columns(cols)
        .to_pandas()
        .sort_values("uuid")
        .reset_index(drop=True)
    )
    want = (
        read_table(twin_root, "edges")
        .select_columns(cols)
        .to_pandas()
        .sort_values("uuid")
        .reset_index(drop=True)
    )
    assert len(got) > 0 and got.equals(want)


def test_retrieve_routes_shapes(rest, ray_session):
    code, facts = _req(
        rest.port, "POST", "/search",
        {"query": "Grace Wilson works at", "group_ids": [GROUP]},
    )
    assert code == 200 and facts["facts"]
    top = facts["facts"][0]
    assert {"uuid", "source_node_uuid", "target_node_uuid", "fact"} <= set(top)

    code, edge = _req(rest.port, "GET", f"/entity-edge/{top['uuid']}")
    assert code == 200 and edge["uuid"] == top["uuid"]
    code, _ = _req(rest.port, "GET", "/entity-edge/nope")
    assert code == 404

    code, nodes = _req(
        rest.port, "POST", "/search-nodes", {"query": "Grace Wilson"}
    )
    assert code == 200 and any(n["name"] == "Grace Wilson" for n in nodes["nodes"])

    code, eps = _req(rest.port, "GET", f"/episodes/{GROUP}?last_n=1")
    assert code == 200 and len(eps) == 1

    code, mem = _req(
        rest.port, "POST", "/get-memory",
        {
            "group_id": GROUP,
            "messages": [
                {"role": "u", "role_type": "user", "content": "works at Initech"}
            ],
        },
    )
    assert code == 200 and mem["facts"]


def test_admin_and_mutation_routes(rest, ray_session):
    code, node = _req(
        rest.port, "POST", "/entity-node",
        {"group_id": GROUP, "name": "Zed Corp", "summary": "a company"},
    )
    assert code == 201 and node["name"] == "Zed Corp"
    code, groups = _req(rest.port, "GET", "/get-all-groups")
    assert code == 200 and GROUP in groups["groups"]

    _, facts = _req(rest.port, "POST", "/search", {"query": "likes Painting"})
    uuid = facts["facts"][0]["uuid"]
    code, out = _req(rest.port, "DELETE", f"/entity-edge/{uuid}")
    assert code == 200 and out["success"]
    code, _ = _req(rest.port, "GET", f"/entity-edge/{uuid}")
    assert code == 404

    _, eps = _req(rest.port, "GET", f"/episodes/{GROUP}?last_n=1")
    code, out = _req(rest.port, "DELETE", f"/episode/{eps[0]['uuid']}")
    assert code == 200 and out["success"]

    code, _ = _req(rest.port, "DELETE", f"/group/{GROUP}")
    assert code == 200
    _, status = _req(rest.port, "GET", "/healthcheck")
    # group wiped: no episodes left in the partition
    _, eps = _req(rest.port, "GET", f"/episodes/{GROUP}?last_n=5")
    assert eps == []

    code, out = _req(rest.port, "POST", "/clear")
    assert code == 200 and out["success"]
    _, status = _req(rest.port, "GET", "/healthcheck")
    assert status["status"] == "empty"


def test_metrics_route_counts_requests_errors_latency(tmp_path):
    """GET /metrics: per route template, requests, errors (status >= 400)
    and p50 <= p99 latency; unmatched paths share one key."""
    srv = RestServer(GraphitiFacade(str(tmp_path / "empty")))
    srv.start()
    try:
        for _ in range(3):
            assert _req(srv.port, "GET", "/healthcheck")[0] == 200
        for uuid in ("a1", "b2"):
            assert _req(srv.port, "GET", f"/entity-edge/{uuid}")[0] == 404
        assert _req(srv.port, "GET", "/no/such/path")[0] == 404
        code, m = _req(srv.port, "GET", "/metrics")
    finally:
        srv.shutdown()
    assert code == 200
    assert set(m) == {"GET /healthcheck", "GET /entity-edge/{uuid}", "GET (no route)"}
    assert (m["GET /healthcheck"]["requests"], m["GET /healthcheck"]["errors"]) == (3, 0)
    assert (m["GET /entity-edge/{uuid}"]["requests"], m["GET /entity-edge/{uuid}"]["errors"]) == (2, 2)
    assert m["GET (no route)"]["errors"] == 1
    assert all(0 <= v["p50_ms"] <= v["p99_ms"] for v in m.values())
