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
def tier(request, monkeypatch, force_dataset_tier):
    """The table tier ``add_pages`` runs on: "in_process" by default (the
    fixture graphs are within the bounds), or "dataset" when a test
    parametrizes it so."""
    name = getattr(request, "param", "in_process")
    if name == "dataset":
        force_dataset_tier(monkeypatch)
    return name


BOTH_TIERS = pytest.mark.parametrize("tier", ["in_process", "dataset"], indirect=True)


@pytest.fixture()
def kg_root(ray_session, tier, tmp_path):
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


def _build(root, rows, **kw):
    """run_kg over the pages ``rows`` (see ``_pages_table``) into ``root``."""
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write

    pages = rd.from_arrow(_pages_table(rows))
    checkpointed_write(episodes_dataset(pages), root, "episodes", {})
    run_kg("unused", root, **kw)


def _table(root, name):
    """(schema without metadata, rows as sorted hashable tuples): a table
    compared by key and order-insensitively."""
    from graphiti_ray.state.checkpoint import read_table_arrow

    def frozen(v):
        return tuple(frozen(x) for x in v) if isinstance(v, list) else v

    t = read_table_arrow(root, name)
    rows = [
        tuple((k, frozen(v)) for k, v in sorted(r.items())) for r in t.to_pylist()
    ]
    return t.schema.remove_metadata(), sorted(rows, key=repr)


GROUP_TABLES = ["episodes", "extracted", "canonical_map", "nodes", "mention_edges", "edges"]

CYCLES = [
    [("Alice dislikes Bob Jones.", "g1", T[3])],
    [("Erin Green works at Hooli Corp.", "g3", T[4])],
    # a rerun of the first cycle's page (nothing new for g1) beside new g2 and g1 facts
    [
        ("Alice dislikes Bob Jones.", "g1", T[3]),
        ("Carol White likes Dave Brown.", "g2", T[5]),
        ("Bob Jones works at Initech.", "g1", T[6]),
    ],
]


@pytest.mark.parametrize("kind", ["node_summaries", "communities"])
def test_ingest_tiers_agree(ray_session, tmp_path, monkeypatch, force_dataset_tier, kind):
    """Three ingest cycles leave identical tables on the in-process tier
    and on the Dataset tier (every in-process bound at 0)."""
    import shutil

    base = str(tmp_path / "base")
    _build(
        base,
        [
            ("Alice Smith likes Bob Jones.", "g1", T[0]),
            ("Dave Brown works at Initech.", "g1", T[1]),
            ("Carol White works at Globex Inc.", "g2", T[2]),
        ],
        **{kind: True},
    )
    roots = {t: str(tmp_path / t) for t in ("in_process", "dataset")}
    for root in roots.values():
        shutil.copytree(base, root)
    tables = GROUP_TABLES + (["communities", "community_edges"] if kind == "communities" else [])
    for k, rows in enumerate(CYCLES):
        pages = lambda: rd.from_arrow(_pages_table(rows, start=100 * (k + 1)))  # noqa: E731
        small = add_pages(roots["in_process"], pages())
        with monkeypatch.context() as m:
            force_dataset_tier(m)
            large = add_pages(roots["dataset"], pages())
        assert small == large
    for name in tables:
        assert _table(roots["in_process"], name) == _table(roots["dataset"], name), name


@BOTH_TIERS
def test_build_then_ingest_equals_rebuild(ray_session, tier, tmp_path):
    """run_kg over pages A, then add_pages with pages B, leaves every group
    table equal to run_kg over A and B together."""
    a = [
        ("Alice Smith likes Bob Jones.", "g1", T[0]),
        ("Carol White works at Globex Inc.", "g2", T[1]),
    ]
    b = [
        ("Alice dislikes Bob Jones.", "g1", T[3]),
        ("A. Smith works at Acme Corp.", "g1", T[4]),
        ("Erin Green works at Hooli Corp.", "g3", T[5]),
    ]
    built = str(tmp_path / "built")
    _build(built, a)
    add_pages(built, rd.from_arrow(_pages_table(b, start=len(a))))
    rebuilt = str(tmp_path / "rebuilt")
    _build(rebuilt, a + b)
    for name in GROUP_TABLES:
        assert _table(built, name) == _table(rebuilt, name), name


def _parquet_files(root):
    """Path → (inode, mtime) of every parquet file under ``root``."""
    import os

    out = {}
    for d, _dirs, names in os.walk(root):
        for n in names:
            if n.endswith(".parquet"):
                st = os.stat(os.path.join(d, n))
                out[os.path.join(d, n)] = (st.st_ino, st.st_mtime_ns)
    return out


def test_small_tier_ingest_cost_is_the_delta(ray_session, tmp_path, monkeypatch, count_executions):
    """On the in-process tier an ingest writes one parquet file per table it
    touches, and starts as many Ray Data executions into a 12-group graph
    as into a 2-group one."""
    import os

    page = [("Alice dislikes Bob Jones.", "g1", T[3])]
    counts, written = {}, {}
    for n_groups in (2, 12):
        root = str(tmp_path / f"kg{n_groups}")
        _build(
            root,
            [("Alice Smith likes Bob Jones.", "g1", T[0])]
            + [(f"Carol White works at Globex {k}.", f"g{k}", T[1]) for k in range(2, n_groups + 1)],
        )
        before = _parquet_files(root)
        with monkeypatch.context() as m:
            calls = count_executions(m)
            add_pages(root, rd.from_arrow(_pages_table(page, start=100)))
        counts[n_groups] = len(calls)
        written[n_groups] = sorted(
            os.path.relpath(os.path.dirname(p), root)
            for p, st in _parquet_files(root).items()
            if before.get(p) != st
        )
    assert counts[2] == counts[12]
    assert written[2] == written[12] == sorted(GROUP_TABLES)


@BOTH_TIERS
def test_pages_table_and_page_file_ingest_alike(ray_session, tier, tmp_path):
    """The same pages given to add_pages as a pa.Table (rendered and
    extracted in this process) and read by ingest_directory from a parquet
    file (Ray's extraction) leave equal group tables."""
    import shutil

    import pyarrow.parquet as pq

    from graphiti_ray.pipelines.incremental import ingest_directory

    base = str(tmp_path / "base")
    _build(base, [("Alice Smith likes Bob Jones.", "g1", T[0]), ("Carol White works at Globex Inc.", "g2", T[1])])
    rows = [
        ("Alice dislikes Bob Jones.\nAlice works at Acme Corp.", "g1", T[3]),
        ("Erin Green works at Hooli Corp.", "g3", T[4]),
    ]
    incoming = tmp_path / "incoming"
    incoming.mkdir()
    pq.write_table(_pages_table(rows, start=10), str(incoming / "batch_001.parquet"))
    roots = {k: str(tmp_path / k) for k in ("table", "file")}
    for root in roots.values():
        shutil.copytree(base, root)
    stats = add_pages(roots["table"], _pages_table(rows, start=10))
    [logged] = ingest_directory(roots["file"], str(incoming))
    assert logged == {"file": "batch_001.parquet", **stats}
    assert stats["episodes_added"] == 2
    for name in GROUP_TABLES:
        assert _table(roots["table"], name) == _table(roots["file"], name), name


def test_replaced_tables_name_themselves_in_manifest(ray_session, tmp_path):
    """replace_table writes the table's own name, not its temp directory's,
    into MANIFEST.json and its metrics: the nodes table a summarized build
    rewrites, and each table add_pages swaps."""
    import json
    import os

    import pyarrow as pa

    from graphiti_ray.state.checkpoint import MANIFEST, replace_table

    def manifest_table(name):
        with open(os.path.join(root, name, MANIFEST)) as f:
            return json.load(f)["table"]

    root = str(tmp_path / "kg")
    _build(root, [("Alice Smith likes Bob Jones.", "g1", T[0])], node_summaries=True)
    assert manifest_table("nodes") == "nodes"
    add_pages(root, _pages_table([("Alice dislikes Bob Jones.", "g1", T[3])], start=10))
    for name in ("canonical_map", "nodes", "mention_edges", "edges"):
        assert manifest_table(name) == name
    assert replace_table(root, "scratch", pa.table({"x": [1]}))["table"] == "scratch"
    assert manifest_table("scratch") == "scratch"


@BOTH_TIERS
def test_page_naming_no_entity_keeps_table_schemas(ray_session, tier, tmp_path):
    """A page that names no entity, ingested into a new group, leaves
    every group table's schema as it was (the kernels' empty outputs
    carry their own columns on both tiers), and a later ingest into that
    group adds its facts."""
    root = str(tmp_path / "kg")
    _build(root, [("Alice Smith likes Bob Jones.", "g1", T[0])])
    before = {name: _table(root, name)[0] for name in GROUP_TABLES}
    stats = add_pages(root, _pages_table([("nothing to see here.", "g5", T[3])], start=10))
    assert stats == {"episodes_added": 1, "affected_groups": ["g5.example.com"]}
    assert {name: _table(root, name)[0] for name in GROUP_TABLES} == before
    add_pages(root, _pages_table([("Carol White likes Dave Brown.", "g5", T[4])], start=20))
    edges = read_table(root, "edges").to_pandas()
    assert set(edges[edges.group_id == "g5.example.com"].subj_canonical) == {"Carol White"}


def test_chain_calls_the_kernels_of_its_pipeline(ray_session, tmp_path, monkeypatch):
    """``_kg_chain`` looks each kernel up on the calling pipeline's module:
    a wrapper on ``incremental.canonical_map`` runs in add_pages, and one
    on ``kg.canonical_map`` runs in run_kg but not in add_pages. The
    benchmark's traced build and ingest wrap the kernels there."""
    import graphiti_ray.pipelines.incremental as incmod
    import graphiti_ray.pipelines.kg as kgmod

    calls = []
    for mod in (kgmod, incmod):
        def counted(*a, _mod=mod.__name__, _orig=mod.canonical_map, **k):
            calls.append(_mod)
            return _orig(*a, **k)

        monkeypatch.setattr(mod, "canonical_map", counted)
    root = str(tmp_path / "kg")
    _build(root, [("Alice Smith likes Bob Jones.", "g1", T[0])])
    assert calls == [kgmod.__name__]
    add_pages(root, _pages_table([("Alice dislikes Bob Jones.", "g1", T[3])], start=10))
    assert calls == [kgmod.__name__, incmod.__name__]


@BOTH_TIERS
def test_ingest_hash_join_fallback_equals_broadcast(ray_session, tier, tmp_path, monkeypatch):
    """Above ``BROADCAST_LIMIT`` canonical rows add_pages links by the
    hash join, as run_kg does, and leaves the same group tables as the
    broadcast."""
    import shutil

    import graphiti_ray.pipelines.incremental as incmod

    base = str(tmp_path / "base")
    _build(base, [("Alice Smith likes Bob Jones.", "g1", T[0]), ("Carol White works at Globex Inc.", "g2", T[1])])
    roots = {k: str(tmp_path / k) for k in ("broadcast", "join")}
    for root in roots.values():
        shutil.copytree(base, root)
    rows = [("Alice dislikes Bob Jones.", "g1", T[3]), ("A. Smith works at Acme Corp.", "g1", T[4])]
    add_pages(roots["broadcast"], _pages_table(rows, start=10))
    monkeypatch.setattr(incmod, "BROADCAST_LIMIT", -1)
    add_pages(roots["join"], _pages_table(rows, start=10))
    for name in GROUP_TABLES:
        assert _table(roots["broadcast"], name) == _table(roots["join"], name), name
