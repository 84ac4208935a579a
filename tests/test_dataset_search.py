"""Dataset-mode search parity with the pandas KGSearcher + the
actor-pool cross-encoder stage (ST3/ST4). Every parity case also runs
over ``pa.Table`` inputs (the in-process tier: the same passes over one
block, no Ray Data execution)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from graphiti_ray.pipelines.dataset_search import KGDatasetSearcher, _query_stats
from graphiti_ray.pipelines.search import (
    COMBINED_HYBRID_SEARCH_CROSS_ENCODER,
    COMBINED_HYBRID_SEARCH_MMR,
    COMBINED_HYBRID_SEARCH_RRF,
    EDGE_HYBRID_SEARCH_EPISODE_MENTIONS,
    EDGE_HYBRID_SEARCH_NODE_DISTANCE,
    EDGE_HYBRID_SEARCH_RRF,
    NODE_HYBRID_SEARCH_NODE_DISTANCE,
    KGSearcher,
    MethodConfig,
    SearchConfig,
    build_bm25_index,
    cross_encoder_rerank,
    default_cross_encoder,
)

QUERY = "Alice Smith works at"


@pytest.fixture(scope="module")
def kg_tables(ray_session):
    from graphiti_ray.pipelines.kg import build_kg
    from graphiti_ray.sources.pages import pages_dataset

    tables = build_kg(pages_dataset("/root/testdata/sf0.001"), embeddings=True)
    # materialize so both searchers see identical inputs
    return {k: v.materialize() for k, v in tables.items()}


@pytest.fixture(scope="module")
def blocky(kg_tables):
    """The same tables sorted by group and cut into 8 blocks, so most
    blocks hold no row of any one group."""
    return {
        k: v.sort("group_id").repartition(8).materialize() if k != "mentions" else v
        for k, v in kg_tables.items()
    }


@pytest.fixture(scope="module")
def arrow_tables(kg_tables):
    """The same tables as one ``pa.Table`` each."""
    import ray

    return {k: pa.concat_tables(ray.get(v.to_arrow_refs())) for k, v in kg_tables.items()}


@pytest.fixture(scope="module")
def group(kg_tables):
    """The group of the top unscoped hit (deterministic)."""
    top = KGSearcher.from_tables(kg_tables).search(QUERY, COMBINED_HYBRID_SEARCH_RRF)
    return top.edges["group_id"].iloc[0]


def _assert_same(a, b, kinds=("edges", "nodes", "episodes")):
    for kind in kinds:
        pa_df, ds_df = getattr(a, kind), getattr(b, kind)
        assert list(pa_df.get("uuid", [])) == list(ds_df.get("uuid", [])), kind


def _blocks(ds):
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _with_arrow(name: str, cases: dict):
    """Parametrize ``name`` over ``cases`` and ``arrow`` over (False, True):
    each case once over Datasets (its id) and once over ``pa.Table``
    inputs (its id + "-arrow")."""
    return pytest.mark.parametrize(
        f"{name},arrow",
        [
            pytest.param(v, arrow, id=k + ("-arrow" if arrow else ""))
            for arrow in (False, True)
            for k, v in cases.items()
        ],
    )


CONFIGS = _with_arrow(
    "config",
    {
        "rrf": COMBINED_HYBRID_SEARCH_RRF,
        "cross_encoder": COMBINED_HYBRID_SEARCH_CROSS_ENCODER,
        "episode_mentions": EDGE_HYBRID_SEARCH_EPISODE_MENTIONS,
        "mmr": COMBINED_HYBRID_SEARCH_MMR,
    },
)


@CONFIGS
def test_dataset_search_matches_pandas(ray_session, kg_tables, arrow_tables, config, arrow):
    a = KGSearcher.from_tables(kg_tables).search(QUERY, config)
    b = KGDatasetSearcher(arrow_tables if arrow else kg_tables).search(QUERY, config)
    _assert_same(a, b)


@CONFIGS
@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "group"])
def test_dataset_search_blocks_match_pandas(
    ray_session, kg_tables, blocky, arrow_tables, group, config, arrow, scoped
):
    """Parity on 8 blocks, most without a row of the searched group, and
    on one table."""
    groups = [group] if scoped else None
    a = KGSearcher.from_tables(kg_tables).search(QUERY, config, group_ids=groups)
    b = KGDatasetSearcher(arrow_tables if arrow else blocky).search(
        QUERY, config, group_ids=groups
    )
    _assert_same(a, b)
    if scoped:
        assert len(b.edges) and set(b.edges["group_id"]) == {group}


def test_dataset_search_filter_matches_pandas(ray_session, kg_tables, blocky, arrow_tables):
    from graphiti_ray.pipelines.search import DateFilter, SearchFilters

    edges = kg_tables["edges"].to_pandas()
    flt = SearchFilters(
        edge_types=sorted(set(edges["pred"]))[:3],
        valid_at=[[DateFilter(edges["valid_at"].median(), ">=")]],
    )
    a = KGSearcher.from_tables(kg_tables).search(
        QUERY, COMBINED_HYBRID_SEARCH_RRF, search_filter=flt
    )
    for tables in (blocky, arrow_tables):
        b = KGDatasetSearcher(tables).search(
            QUERY, COMBINED_HYBRID_SEARCH_RRF, search_filter=flt
        )
        _assert_same(a, b)
        assert len(b.edges) and set(b.edges["pred"]) <= set(flt.edge_types)


def test_blocky_tables_have_blocks_without_the_group(blocky, group):
    blocks = _blocks(blocky["edges"])
    assert len(blocks) >= 7
    assert any(group not in set(t.column("group_id").to_pylist()) for t in blocks)


@_with_arrow(
    "config",
    {"edges": EDGE_HYBRID_SEARCH_NODE_DISTANCE, "nodes": NODE_HYBRID_SEARCH_NODE_DISTANCE},
)
def test_dataset_search_node_distance(
    ray_session, kg_tables, blocky, arrow_tables, group, config, arrow
):
    a0 = KGSearcher.from_tables(kg_tables).search(
        QUERY, COMBINED_HYBRID_SEARCH_RRF, group_ids=[group]
    )
    center = a0.edges["subj_uuid"].iloc[0]
    a = KGSearcher.from_tables(kg_tables).search(QUERY, config, center_node_uuid=center)
    b = KGDatasetSearcher(arrow_tables if arrow else blocky).search(
        QUERY, config, center_node_uuid=center
    )
    _assert_same(a, b)


def test_dataset_search_bfs_matches_pandas(ray_session, kg_tables, arrow_tables, group):
    """BFS: edges touching the origin node, in table order."""
    a0 = KGSearcher.from_tables(kg_tables).search(
        QUERY, COMBINED_HYBRID_SEARCH_RRF, group_ids=[group]
    )
    origin = [a0.edges["subj_uuid"].iloc[0]]
    cfg = SearchConfig(
        edge_config=MethodConfig(methods=["bfs"], bfs_origin_uuids=origin),
        node_config=None,
        episode_config=None,
    )
    a = KGSearcher.from_tables(kg_tables).search(QUERY, cfg)
    assert len(a.edges)
    for tables in (kg_tables, arrow_tables):
        _assert_same(a, KGDatasetSearcher(tables).search(QUERY, cfg), kinds=("edges",))


def test_dataset_search_zero_hits(ray_session, kg_tables, blocky, arrow_tables):
    # episodes search is BM25-only: a query no text contains finds nothing
    a = KGSearcher.from_tables(kg_tables).search("xyzzyq qqvvz", COMBINED_HYBRID_SEARCH_RRF)
    for tables in (blocky, arrow_tables):
        b = KGDatasetSearcher(tables).search("xyzzyq qqvvz", COMBINED_HYBRID_SEARCH_RRF)
        _assert_same(a, b)
        assert b.episodes.empty and "content" in b.episodes.columns
        # an unknown group finds nothing by any method
        b = KGDatasetSearcher(tables).search(
            QUERY, COMBINED_HYBRID_SEARCH_RRF, group_ids=["no.such"]
        )
        assert b.edges.empty and list(b.edges.columns) == blocky["edges"].schema().names


def _tie_table(n=12, dim=64):
    """``n`` edges with the same fact and embedding (equal scores under
    every method), uuids in scrambled order."""
    uuids = [f"e{i:02d}" for i in np.random.default_rng(0).permutation(n)]
    vec = np.ones(dim) / np.sqrt(dim)
    return pa.table(
        {
            "uuid": uuids,
            "group_id": ["g"] * n,
            "fact": ["alpha beta"] * n,
            "fact_embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(np.tile(vec, n), pa.float64()), dim
            ),
        }
    )


def test_exact_score_ties_break_by_uuid(ray_session):
    t = _tie_table()
    ds = rd.from_arrow([t.slice(i, 3) for i in range(0, len(t), 3)])
    cfg = SearchConfig(edge_config=MethodConfig(), node_config=None, episode_config=None, limit=3)
    a = KGSearcher(pd.DataFrame(), t.to_pandas(), pd.DataFrame()).search("alpha", cfg)
    for edges in (ds, t):
        b = KGDatasetSearcher({"edges": edges}).search("alpha", cfg)
        assert list(b.edges["uuid"]) == ["e00", "e01", "e02"] == list(a.edges["uuid"])


def test_query_stats_equal_build_bm25_index(ray_session):
    t = _tie_table()
    t = t.set_column(2, "fact", pa.array(["Alpha beta, alpha!", "beta gamma", None] * 4))
    ds = rd.from_arrow([t.slice(i, 5) for i in range(0, len(t), 5)])
    terms = ["alpha", "beta", "delta", "alpha"]
    want = build_bm25_index(ds.select_columns(["fact"]), "fact").subset(terms)
    for data in (ds, t):
        got = _query_stats(data, "fact", terms)
        assert (got.n, got.avg_len, got.df) == (want.n, want.avg_len, want.df)


def test_dataset_search_group_scoped(ray_session, kg_tables, arrow_tables, group):
    a = KGSearcher.from_tables(kg_tables).search(
        QUERY, EDGE_HYBRID_SEARCH_RRF, group_ids=[group]
    )
    for tables in (kg_tables, arrow_tables):
        b = KGDatasetSearcher(tables).search(
            QUERY, EDGE_HYBRID_SEARCH_RRF, group_ids=[group]
        )
        assert list(a.edges["uuid"]) == list(b.edges["uuid"])
        assert set(b.edges["group_id"]) <= {group}


def test_cross_encoder_stage_actor_pool(ray_session, kg_tables):
    """The dataset-mode reranker stage: actor pool scores, sort, limit —
    must agree with the driver-side kernel on the same rows."""
    edges = kg_tables["edges"]
    query = "works at Initech"
    top = cross_encoder_rerank(edges, query, "fact", limit=5).to_pandas()
    assert len(top) == 5
    # oracle: score every fact with the same deterministic model
    df = edges.to_pandas()
    scores = default_cross_encoder(query, df["fact"].tolist())
    want = (
        pd.DataFrame({"uuid": df["uuid"], "s": scores})
        .sort_values(["s", "uuid"], ascending=[False, True])
        .head(5)["uuid"]
        .tolist()
    )
    assert top["uuid"].tolist() == want
    assert list(top["ce_score"]) == sorted(top["ce_score"], reverse=True)
