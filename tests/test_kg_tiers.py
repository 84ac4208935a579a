"""run_kg's two tiers. A table within ``ops.SMALL_SORT_ROWS`` rows and
``ops.SMALL_SORT_BYTES`` bytes is sorted, merged and swept as one Arrow
table in the calling process and written by pyarrow as one parquet file;
with both bounds at 0 every stage takes Ray's distributed sorts and
parquet writers. Both must build the same graph."""

import hashlib
import json
import os

import pytest

from graphiti_ray.pipelines.kg import run_kg
from tests.test_boilerplate import SF  # the sf0.001 fixture directory
from tests.test_incremental import GROUP_TABLES, _table


@pytest.fixture(scope="module")
def builds(ray_session, tmp_path_factory, count_executions, force_dataset_tier):
    """×1 builds of the sf0.001 pages with embeddings and node summaries:
    two with the default bounds, one with both bounds at 0. Each entry is
    (root, run_kg's metrics, Ray Data executions started). The builds run
    with Ray's default unordered block delivery, not the session's
    ``preserve_order``."""
    from ray.data import DataContext

    out = {}
    for label in ("small", "small_again", "bounds_0"):
        root = str(tmp_path_factory.mktemp(label))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(DataContext.get_current().execution_options, "preserve_order", False)
            if label == "bounds_0":
                force_dataset_tier(m)
            calls = count_executions(m)
            metrics = run_kg(SF, root, embeddings=True, node_summaries=True)
        out[label] = (root, metrics, len(calls))
    return out


def _parquet(root, name):
    d = os.path.join(root, name)
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def test_tiers_build_the_same_tables(builds):
    small, bounds_0 = builds["small"][0], builds["bounds_0"][0]
    for name in GROUP_TABLES:
        assert _table(small, name) == _table(bounds_0, name), name


def test_small_build_writes_one_file_per_table(builds):
    """Within the bounds each table is one pyarrow file, and the build
    starts fewer Ray Data executions than with the bounds at 0."""
    root, _, executions = builds["small"]
    assert {name: len(_parquet(root, name)) for name in GROUP_TABLES} == dict.fromkeys(
        GROUP_TABLES, 1
    )
    assert len(_parquet(builds["bounds_0"][0], "edges")) > 1
    assert executions < builds["bounds_0"][2]


def test_small_build_is_byte_reproducible(builds):
    """The tables the in-process tier sorts come out byte-identical from
    two builds of the same input."""

    def digest(root, name):
        return [hashlib.sha256(open(f, "rb").read()).hexdigest() for f in _parquet(root, name)]

    for name in ("canonical_map", "nodes", "edges"):
        assert digest(builds["small"][0], name) == digest(builds["small_again"][0], name), name


@pytest.mark.parametrize("build", ["small", "bounds_0"])
def test_manifest_wall_is_the_stage_wall(builds, build):
    """MANIFEST.json's ``wall_sec`` is the stage wall run_kg returns
    (compute + sink); ``sink_sec`` is the write alone."""
    root, metrics, _ = builds[build]
    last = {m["table"]: m for m in metrics}  # nodes: the summary rewrite
    for m in last.values():
        if "wall_sec" not in m:
            continue  # a rewrite reports no wall to run_kg's caller
        with open(os.path.join(root, m["table"], "MANIFEST.json")) as f:
            manifest = json.load(f)
        assert manifest["wall_sec"] == round(m["wall_sec"], 3), m["table"]
        assert manifest["sink_sec"] == round(m["sink_sec"], 3), m["table"]
        assert 0 <= m["sink_sec"] <= m["wall_sec"], m["table"]
