"""Hub-skew end-to-end build + the hash-join linking fallback path."""

from datetime import datetime, timedelta

import pandas as pd
import pytest

import ray.data as rd

from graphiti_ray.pipelines.kg import build_kg
from tests.test_pipeline_e2e import _pages_table

T0 = datetime(2024, 1, 1)


def _skewed_pages(n_hub=60, n_other=10):
    """One hub host carries 85% of pages (FIXTURES F4 'hub entity' shape),
    with a hot entity mentioned on every hub page."""
    rows = []
    people = ["Alice Smith", "Bob Jones", "Carol White"]
    for i in range(n_hub):
        p = people[i % 3]
        rows.append(
            (
                f"{p} works at Hub Corp.\nHub Corp is located in Paris.",
                "hub",
                T0 + timedelta(hours=i),
            )
        )
    for i in range(n_other):
        rows.append(
            (f"Eve Davis likes Frank Miller.", f"tail{i}", T0 + timedelta(hours=i))
        )
    return rd.from_arrow(_pages_table(rows))


def test_hub_skew_build_correct(ray_session):
    tables = build_kg(_skewed_pages(), nlp_concurrency=(1, 2), embeddings=False)
    edges = tables["edges"].to_pandas()
    hub = edges[edges.group_id == "hub.example.com"]
    # hot entity Hub Corp: 3 WORKS_AT edges (one per person) + 1 LOCATED_IN
    assert (hub.pred == "WORKS_AT").sum() == 3
    assert (hub.pred == "LOCATED_IN").sum() == 1
    located = hub[hub.pred == "LOCATED_IN"].iloc[0]
    assert located.episode_count == 60  # provenance union across all hub pages
    # tail groups each produce their one LIKES edge, uninvalidated
    tails = edges[edges.group_id.str.startswith("tail")]
    assert len(tails) == 10
    assert tails.invalid_at.isna().all()


def test_hash_join_fallback_equals_broadcast(ray_session, monkeypatch):
    """Force the web-scale hash-join linking path (BROADCAST_LIMIT=0 via
    module constant) and check it produces the same edges as broadcast."""
    import graphiti_ray.pipelines.kg as kgmod

    pages = _pages_table(
        [
            ("Alice Smith works at Acme Corp.", "g1", T0),
            ("Alice likes Bob Jones.", "g1", T0 + timedelta(days=1)),
            ("Acme Corp is located in Paris.", "g2", T0),
        ]
    )
    t_b = build_kg(rd.from_arrow(pages), nlp_concurrency=(1, 2), embeddings=False)
    edges_b = t_b["edges"].to_pandas()
    mentions_b = t_b["mentions"].to_pandas()

    monkeypatch.setattr(kgmod, "BROADCAST_LIMIT", -1)
    t_j = build_kg(
        rd.from_arrow(pages), num_partitions=2, nlp_concurrency=(1, 2), embeddings=False
    )
    edges_j = t_j["edges"].to_pandas()
    mentions_j = t_j["mentions"].to_pandas()

    cols = ["uuid", "subj_canonical", "pred", "obj_canonical", "valid_at", "invalid_at", "episode_count"]
    a = edges_b[cols].sort_values("uuid").reset_index(drop=True)
    b = edges_j[cols].sort_values("uuid").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert sorted(mentions_b.uuid) == sorted(mentions_j.uuid)


def test_lazy_top_level_api():
    import graphiti_ray as gr

    assert callable(gr.build_kg)
    assert callable(gr.read_pages)
    assert gr.KGSearcher is not None
    with pytest.raises(AttributeError):
        gr.nope


def test_safe_join_empty_sides(ray_session):
    """A 0-row join input crashes ray 2.49's hash shuffle (schema
    broadcast rides the first non-empty block); safe_join now
    synthesizes the result from schemas instead, per join type."""
    import pyarrow as pa
    import ray.data as rd_

    from graphiti_ray.stages.link import safe_join

    full = rd_.from_arrow(
        pa.table({"k": ["a", "b"], "v": pa.array([1, 2], pa.int64())})
    )
    empty = rd_.from_arrow(
        pa.table({"k": pa.array([], pa.string()), "w": pa.array([], pa.int64())})
    )

    inner = safe_join(full, empty, join_type="inner", num_partitions=2, on=("k",))
    assert inner.count() == 0
    assert set(inner.schema().names) == {"k", "v", "w"}

    anti = safe_join(full, empty, join_type="left_anti", num_partitions=2, on=("k",))
    rows = sorted(anti.take_all(), key=lambda r: r["k"])
    assert [r["k"] for r in rows] == ["a", "b"]

    outer = safe_join(full, empty, join_type="left_outer", num_partitions=2, on=("k",))
    orows = sorted(outer.take_all(), key=lambda r: r["k"])
    assert [r["w"] for r in orows] == [None, None]

    inner2 = safe_join(empty, full, join_type="inner", num_partitions=2, on=("k",))
    assert inner2.count() == 0
    assert set(inner2.schema().names) == {"k", "v", "w"}


SF = "/root/testdata/sf0.001"


def _by_key(df: pd.DataFrame, key: list[str]) -> pd.DataFrame:
    """Rows sorted by ``key``; list/array cells as tuples so frames compare."""
    df = df.copy()
    for c in df.columns:
        if df[c].map(lambda v: hasattr(v, "__len__") and not isinstance(v, str)).any():
            df[c] = df[c].map(lambda v: tuple(v) if v is not None else None)
    return df.sort_values(key).reset_index(drop=True)


@pytest.mark.parametrize(
    "node_summaries, broadcast_limit",
    [(False, None), (True, -1)],
    ids=["default", "summaries_hash_join"],
)
def test_run_kg_equals_build_kg(
    ray_session, tmp_path, monkeypatch, node_summaries, broadcast_limit
):
    """Both drivers run the one stage chain, so the checkpointed tables equal
    the in-memory ones — on the broadcast path, and on the hash-join
    fallback with the node-summary rewrite."""
    import graphiti_ray.pipelines.kg as kgmod
    from graphiti_ray.sources.pages import pages_dataset
    from graphiti_ray.state.checkpoint import read_table_pandas

    if broadcast_limit is not None:
        monkeypatch.setattr(kgmod, "BROADCAST_LIMIT", broadcast_limit)
    kw = dict(num_partitions=2, nlp_concurrency=(1, 2), node_summaries=node_summaries)
    root = str(tmp_path / "kg")
    metrics = kgmod.run_kg(SF, root, **kw)
    assert [m["table"] for m in metrics][:6] == [
        "episodes", "extracted", "canonical_map", "nodes", "mention_edges", "edges"
    ]
    assert [m for m in metrics if m.get("summarized")] == (
        [{"table": "nodes", "summarized": True}] if node_summaries else []
    )
    built = build_kg(pages_dataset(SF), **kw)
    for table, name, key in (
        ("episodes", "episodes", ["uuid"]),
        ("canonical_map", "canonical_map", ["group_id", "name"]),
        ("nodes", "nodes", ["uuid"]),
        ("mention_edges", "mentions", ["uuid"]),
        ("edges", "edges", ["uuid"]),
    ):
        got = _by_key(read_table_pandas(root, table), key)
        want = _by_key(built[name].to_pandas(), key)
        assert len(got) > 0, table
        pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=table)


def test_mention_partials_schema_has_no_metadata(ray_session):
    """A schema carrying pandas' metadata dict is unhashable, so Ray's schema
    dedup in canonical_map's sort logs "Failed to hash the schemas"."""
    import pyarrow as pa
    import ray

    from graphiti_ray.stages.link import mention_partials

    mentions = rd.from_arrow(
        pa.table(
            {
                "group_id": ["g", "g", "h"],
                "name": ["Alice", "Alice", "Bob"],
                "label_hint": ["Person", "Person", "Person"],
            }
        )
    )
    blocks = ray.get(mention_partials(mentions).materialize().to_arrow_refs())
    assert blocks
    assert all(b.schema.metadata is None for b in blocks)
