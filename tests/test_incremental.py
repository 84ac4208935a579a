"""Incremental ingestion: group-granular updates with temporal re-sweep."""

from datetime import datetime

import pandas as pd
import pytest

import ray.data as rd

from graphiti_ray.pipelines.incremental import add_pages
from graphiti_ray.pipelines.kg import run_kg
from graphiti_ray.state.checkpoint import read_table, table_rows
from tests.test_pipeline_e2e import _pages_table

T = [datetime(2024, 1, d + 1) for d in range(10)]


@pytest.fixture()
def kg_root(ray_session, tmp_path):
    """Initial KG: g1 has a LIKES fact; g2 is an unrelated group."""
    root = str(tmp_path / "kg")
    import graphiti_ray.pipelines.kg as kgmod
    from graphiti_ray.sources import pages as pages_mod

    pages = rd.from_arrow(
        _pages_table(
            [
                ("Alice Smith likes Bob Jones.", "g1", T[0]),
                ("Carol White works at Globex Inc.", "g2", T[1]),
            ]
        )
    )
    # run_kg reads from sf_dir; write pages through the episodes stage manually
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write

    checkpointed_write(episodes_dataset(pages), root, "episodes", {})
    run_kg("unused", root)  # episodes checkpoint present → resumes after it
    return root


def test_add_contradicting_page_retro_invalidates(ray_session, kg_root):
    edges0 = read_table(kg_root, "edges").to_pandas()
    likes0 = edges0[edges0.pred == "LIKES"].iloc[0]
    assert pd.isna(likes0.invalid_at)
    g2_edges_before = edges0[edges0.group_id == "g2.example.com"]

    stats = add_pages(
        kg_root,
        rd.from_arrow(_pages_table([("Alice dislikes Bob Jones.", "g1", T[3])], start=10)),
    )
    assert stats["affected_groups"] == ["g1.example.com"]

    edges1 = read_table(kg_root, "edges").to_pandas()
    likes1 = edges1[edges1.pred == "LIKES"].iloc[0]
    dislikes = edges1[edges1.pred == "DISLIKES"].iloc[0]
    # the new DISLIKES retro-invalidates the stored LIKES edge
    assert likes1.invalid_at == T[3]
    assert pd.isna(dislikes.invalid_at)
    # untouched group's edges unchanged
    g2_after = edges1[edges1.group_id == "g2.example.com"]
    pd.testing.assert_frame_equal(
        g2_edges_before.reset_index(drop=True).drop(columns=["fact_embedding"]),
        g2_after.reset_index(drop=True).drop(columns=["fact_embedding"]),
        check_dtype=False,  # us/ns timestamp unit may differ across round-trips
    )


def test_add_alias_page_merges_entity(ray_session, kg_root):
    nodes0 = read_table(kg_root, "nodes").to_pandas()
    n_alice0 = (nodes0.name == "Alice Smith").sum()
    assert n_alice0 == 1

    add_pages(
        kg_root,
        rd.from_arrow(_pages_table([("A. Smith works at Acme Corp.", "g1", T[4])], start=20)),
    )
    nodes1 = read_table(kg_root, "nodes").to_pandas()
    # the alias resolves into the existing entity; Acme Corp appears new
    assert (nodes1.name == "Alice Smith").sum() == 1
    assert "A. Smith" not in set(nodes1.name)
    assert "Acme Corp" in set(nodes1.name)
    # episodes table is append-only
    assert table_rows(kg_root, "episodes") == 3


def test_duplicate_fact_append_merges_provenance(ray_session, kg_root):
    add_pages(
        kg_root,
        rd.from_arrow(_pages_table([("Alice Smith likes Bob Jones.", "g1", T[5])], start=30)),
    )
    edges = read_table(kg_root, "edges").to_pandas()
    likes = edges[edges.pred == "LIKES"].iloc[0]
    assert likes.episode_count == 2  # original + appended assertion
    assert likes.valid_at == T[0]  # earliest assertion kept


def test_add_pages_rerun_is_idempotent(ray_session, kg_root):
    """Re-running the same increment (same page uuids) appends nothing and
    leaves every table unchanged — the MERGE-upsert semantics."""
    inc = lambda: rd.from_arrow(
        _pages_table([("Alice dislikes Bob Jones.", "g1", T[3])], start=10)
    )
    s1 = add_pages(kg_root, inc())
    eps_rows = table_rows(kg_root, "episodes")
    edges1 = read_table(kg_root, "edges").to_pandas()

    s2 = add_pages(kg_root, inc())
    assert s1["episodes_added"] >= 1
    assert s2["episodes_added"] == 0
    assert table_rows(kg_root, "episodes") == eps_rows
    edges2 = read_table(kg_root, "edges").to_pandas()
    cols = ["uuid", "valid_at", "invalid_at", "episode_count"]
    pd.testing.assert_frame_equal(
        edges1[cols].sort_values("uuid").reset_index(drop=True),
        edges2[cols].sort_values("uuid").reset_index(drop=True),
    )


def test_incremental_communities_bridge(ray_session, tmp_path):
    """A new page whose fact bridges two entities must update the affected
    group's community membership (graphiti.py:464-471 parity), leaving the
    untouched group's communities verbatim."""
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write

    root = str(tmp_path / "kgc")
    pages = rd.from_arrow(
        _pages_table(
            [
                ("Alice Smith likes Bob Jones.", "g1", T[0]),
                ("Dave Brown works at Initech.", "g1", T[1]),
                ("Carol White works at Globex Inc.", "g2", T[2]),
            ]
        )
    )
    checkpointed_write(episodes_dataset(pages), root, "episodes", {})
    run_kg("unused", root, communities=True)

    comm0 = read_table(root, "communities").to_pandas()
    ce0 = read_table(root, "community_edges").to_pandas()
    n_g1_before = (comm0.group_id == "g1.example.com").sum()
    g2_before = ce0[ce0.group_id == "g2.example.com"].sort_values("uuid")
    assert n_g1_before >= 2  # Alice/Bob cluster and Dave/Initech cluster

    # bridging fact: Bob works at Initech → the two g1 clusters connect
    add_pages(
        root,
        rd.from_arrow(_pages_table([("Bob Jones works at Initech.", "g1", T[5])], start=40)),
    )
    comm1 = read_table(root, "communities").to_pandas()
    ce1 = read_table(root, "community_edges").to_pandas()
    n_g1_after = (comm1.group_id == "g1.example.com").sum()
    assert n_g1_after < n_g1_before  # clusters merged
    # g1's membership structure actually changed (the bridge reassigned
    # entities across communities; exact shape is LPA-dependent)
    def membership(ce):
        sub = ce[ce.group_id == "g1.example.com"]
        return set(zip(sub["community_uuid"], sub["entity_uuid"]))

    assert membership(ce1) != membership(ce0)
    # untouched group's membership rows byte-identical
    g2_after = ce1[ce1.group_id == "g2.example.com"].sort_values("uuid")
    pd.testing.assert_frame_equal(
        g2_before.reset_index(drop=True), g2_after.reset_index(drop=True)
    )


def test_ingest_directory_queue(ray_session, kg_root, tmp_path):
    """S3 batch equivalent: files are the queue; processed files skip on
    replay; a new file processes alone."""
    import pyarrow.parquet as pq

    from graphiti_ray.pipelines.incremental import ingest_directory
    from graphiti_ray.state.checkpoint import read_table

    incoming = tmp_path / "incoming"
    incoming.mkdir()
    pq.write_table(
        _pages_table([("Dave Brown works at Initech Inc.", "g1", T[5])], start=30),
        str(incoming / "batch_001.parquet"),
    )
    pq.write_table(
        _pages_table([("Erin Green likes Dave Brown.", "g1", T[6])], start=40),
        str(incoming / "batch_002.parquet"),
    )

    r1 = ingest_directory(kg_root, str(incoming))
    assert [x["file"] for x in r1] == ["batch_001.parquet", "batch_002.parquet"]
    assert all(x.get("episodes_added") == 1 for x in r1)
    edges = read_table(kg_root, "edges").to_pandas()
    assert (edges.pred == "LIKES").sum() >= 1
    assert "Dave Brown" in set(edges.subj_canonical)

    # replay: everything skips, tables unchanged
    n_eps0 = read_table(kg_root, "episodes").count()
    r2 = ingest_directory(kg_root, str(incoming))
    assert all(x.get("skipped") for x in r2)
    assert read_table(kg_root, "episodes").count() == n_eps0

    # a third file arrives → only it processes
    pq.write_table(
        _pages_table([("Frank Black works at Initech Inc.", "g1", T[7])], start=50),
        str(incoming / "batch_003.parquet"),
    )
    r3 = ingest_directory(kg_root, str(incoming))
    assert [x["file"] for x in r3 if not x.get("skipped")] == ["batch_003.parquet"]


def test_add_pages_keeps_untouched_groups_nodes(ray_session, tmp_path):
    """An ingest into g1 leaves g2's summarized node rows as they were,
    and g1's node rows equal a fresh recompute from the new canonical map."""
    from graphiti_ray.pipelines.incremental import nodes_from_canonical, with_embedding
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write

    root = str(tmp_path / "kg")
    pages = _pages_table(
        [("Alice Smith likes Bob Jones.", "g1", T[0]), ("Carol White works at Globex Inc.", "g2", T[1])]
    )
    checkpointed_write(episodes_dataset(rd.from_arrow(pages)), root, "episodes", {})
    run_kg("unused", root, node_summaries=True)

    def group_rows(ds, group):
        df = ds.to_pandas()
        df = df[df.group_id == group].sort_values("uuid").reset_index(drop=True)
        df["name_embedding"] = df["name_embedding"].map(tuple)
        return df[sorted(df.columns)]

    g2_before = group_rows(read_table(root, "nodes"), "g2.example.com")
    # the digests this test guards: facts, not the template summary
    assert g2_before["summary"].str.contains("Globex").all()

    add_pages(
        root,
        rd.from_arrow(_pages_table([("A. Smith works at Acme Corp.", "g1", T[4])], start=20)),
    )
    nodes = read_table(root, "nodes")
    pd.testing.assert_frame_equal(
        group_rows(nodes, "g2.example.com"), g2_before, check_dtype=False
    )
    canon = read_table(root, "canonical_map").filter(expr="group_id == 'g1.example.com'")
    fresh = with_embedding(nodes_from_canonical(canon), "name", "name_embedding")
    pd.testing.assert_frame_equal(
        group_rows(nodes, "g1.example.com"),
        group_rows(fresh, "g1.example.com"),
        check_dtype=False,
    )
