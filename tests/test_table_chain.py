"""The ingest kernels' ``pa.Table`` path. Given a table, each kernel runs
its block function once in the calling process and returns a table
(``split_extracted`` and ``canonical_map`` return Datasets, whose rows
are counted); it must give the same rows as its Dataset path, here run
with every in-process bound at 0 so the distributed sorts run."""

from datetime import datetime

import pyarrow as pa
import pytest

import ray.data as rd

from graphiti_ray.stages.embed import with_embedding
from graphiti_ray.stages.extract import episodes_dataset
from graphiti_ray.stages.link import (
    apply_canonical_broadcast,
    canon_lookup_ref,
    canonical_map,
    mention_edges_broadcast,
    nodes_from_canonical,
)
from graphiti_ray.stages.nlp import extracted_dataset, split_extracted
from graphiti_ray.stages.temporal import (
    episodes_to_list,
    invalidation_sweep_scalable,
    merged_edges,
)
from graphiti_ray.state.checkpoint import fetch_table
from tests.test_pipeline_e2e import _pages_table

RUN_TS = datetime(2024, 2, 1)
T = [datetime(2024, 1, d + 1) for d in range(20)]

# a hot group (g1 holds most pages, with employer changes the sweep
# invalidates), a cold one, and an episode whose two aliases ("Alice
# Smith", "Alice") resolve to one entity: one mention uuid, twice
ALIAS = "Alice Smith likes Bob Jones.\nAlice likes Carol White."
PAGES = (
    [(f"Person{chr(65 + k)} Lee works at Acme Corp.", "g1", T[k]) for k in range(6)]
    + [("Alice Smith works at Acme Corp.", "g1", T[6]), ("Alice Smith works at Globex Inc.", "g1", T[8])]
    + [(ALIAS, "g1", T[9]), ("Dave Brown works at Initech.", "g2", T[2])]
)

# (output, kernel over (input, lookup ref), input)
KERNELS = [
    ("episodes", lambda x, lut: episodes_dataset(x, run_ts=RUN_TS), "pages"),
    ("extracted", lambda x, lut: extracted_dataset(x), "episodes"),
    ("mentions", lambda x, lut: split_extracted(x)[0], "extracted"),
    ("triples", lambda x, lut: split_extracted(x)[1], "extracted"),
    ("canonical_map", lambda x, lut: canonical_map(x), "mentions"),
    ("nodes", lambda x, lut: nodes_from_canonical(x), "canonical_map"),
    ("nodes_embedded", lambda x, lut: with_embedding(x, "name", "name_embedding"), "nodes"),
    ("mention_edges", mention_edges_broadcast, "mentions"),
    ("resolved", apply_canonical_broadcast, "triples"),
    ("merged", lambda x, lut: merged_edges(x, RUN_TS), "resolved"),
    ("swept", lambda x, lut: invalidation_sweep_scalable(x, RUN_TS), "merged"),
    ("edges", lambda x, lut: episodes_to_list(x), "swept"),
]
COUNTED = {"mentions", "triples", "canonical_map"}


def _rows(t: pa.Table) -> list:
    """Rows as sorted hashable tuples (order-insensitive compare)."""

    def frozen(v):
        return tuple(frozen(x) for x in v) if isinstance(v, list) else v

    return sorted(
        (tuple((k, frozen(v)) for k, v in sorted(r.items())) for r in t.to_pylist()), key=repr
    )


def _run(pages, table: bool) -> dict:
    """Every kernel's output over ``pages``, as tables."""
    out, lut = {"pages": pages}, None
    for name, kernel, source in KERNELS:
        got = kernel(out[source], lut)
        if table:
            assert isinstance(got, rd.Dataset if name in COUNTED else pa.Table), name
        out[name] = fetch_table(got) if table and name in COUNTED else got
        if name == "canonical_map":
            lut = canon_lookup_ref(out[name])
    return {k: v if table else fetch_table(v.materialize()) for k, v in out.items() if k != "pages"}


@pytest.fixture(scope="module")
def outputs(ray_session, force_dataset_tier):
    """(table path's outputs, Dataset path's outputs with the bounds at 0)."""
    pages = _pages_table(PAGES)
    tables = _run(pages, table=True)
    with pytest.MonkeyPatch.context() as m:
        force_dataset_tier(m)
        datasets = _run(rd.from_arrow(pages).repartition(3), table=False)
    return tables, datasets


@pytest.mark.parametrize("name", [k[0] for k in KERNELS])
def test_table_path_gives_the_dataset_rows(outputs, name):
    tables, datasets = outputs
    assert tables[name].num_rows
    assert _rows(tables[name]) == _rows(datasets[name])


def test_fixture_covers_hot_group_and_alias_episode(outputs):
    """The inputs hold what the parity above is meant to cover."""
    import pyarrow.compute as pc

    tables, _ = outputs
    eps = tables["episodes"]
    assert pc.sum(pc.equal(eps["group_id"], "g1.example.com")).as_py() > eps.num_rows // 2
    assert pc.any(pc.is_valid(tables["edges"]["invalid_at"])).as_py()
    alias_ep = eps.filter(pc.equal(eps["content"], ALIAS))["uuid"][0]
    mentions = tables["mentions"].filter(pc.equal(tables["mentions"]["episode_uuid"], alias_ep))
    canon = {
        (r["group_id"], r["name"]): r["entity_uuid"] for r in tables["canonical_map"].to_pylist()
    }
    alice = [r for r in mentions.to_pylist() if r["name"] in ("Alice Smith", "Alice")]
    assert len({r["name"] for r in alice}) == 2
    assert len({canon[(r["group_id"], r["name"])] for r in alice}) == 1
    edges = tables["mention_edges"]
    assert edges.num_rows == len(set(edges["uuid"].to_pylist()))


def test_table_path_on_empty_input(outputs, ray_session):
    """Each kernel over no rows gives no rows on both paths."""
    tables, _ = outputs
    tables = {"pages": _pages_table(PAGES), **tables}
    lut = canon_lookup_ref(tables["canonical_map"])
    for name, kernel, source in KERNELS:
        empty = tables[source].slice(0, 0)
        got = kernel(empty, lut)
        assert (fetch_table(got) if name in COUNTED else got).num_rows == 0, name
        assert kernel(rd.from_arrow(empty), lut).count() == 0, name
