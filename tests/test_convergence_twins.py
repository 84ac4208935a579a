"""Registry checks. Every query has exactly one oracle twin, and the
convergence-twin equivalences, moved out of the oracle registry
(round-5 verdict task 8): the incremental-split and file-queue ingest
paths must produce the SAME edges table as the batch build. The batch
twin (``kg_edges``) stays SQL-pinned in the driver registry; these
pytest rows pin the other two paths to it by value."""

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def entry():
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    return e


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    # episodes is list-typed — normalize for comparison
    if "episodes" in df.columns:
        df["episodes"] = df["episodes"].map(lambda v: tuple(v))
    return (
        df.sort_values("uuid").reset_index(drop=True)
        if "uuid" in df.columns
        else df
    )


SF = "/root/testdata/sf0.001"


def test_every_query_has_an_oracle_and_every_oracle_a_query(entry):
    """The oracle gate loops over queries() only: an oracle left behind
    by a deletion is never run, and a query without one is counted as
    neither OK nor FAIL. Both sets must be the same."""
    qs, oracles = set(entry.queries()), set(entry.oracle_sql())
    assert sorted(qs - oracles) == []  # queries without an oracle
    assert sorted(oracles - qs) == []  # oracles without a query


def test_incremental_split_converges_to_batch(ray_session, entry):
    batch = _frame(entry._q_kg_edges(SF))
    incr = _frame(entry._q_kg_edges_incremental(SF))
    cols = sorted(set(batch.columns) & set(incr.columns))
    assert len(batch) > 0
    pd.testing.assert_frame_equal(batch[cols], incr[cols])


def test_ingest_queue_converges_to_batch(ray_session, entry):
    batch = _frame(entry._q_kg_edges(SF))
    queue = _frame(entry._q_kg_edges_ingest_queue(SF))
    cols = sorted(set(batch.columns) & set(queue.columns))
    assert len(batch) > 0
    pd.testing.assert_frame_equal(batch[cols], queue[cols])
