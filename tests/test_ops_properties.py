"""Randomized equivalence tests for the block-boundary primitives
(distinct_by_key / sorted_lead / sorted_lag_list) against pandas reference
implementations, across adversarial block layouts."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

import ray.data as rd

from graphiti_ray.stages.ops import (
    distinct_by_key,
    distinct_by_key_contiguous,
    sorted_lag_list,
    sorted_lead,
)

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["p1", "p2", "p3"]),  # partition
        st.integers(0, 30),  # order/value (may repeat → tie handling)
    ),
    min_size=1,
    max_size=25,
)


class _sort_path:
    """Pin the sort-based operators' tier: rows=0 forces the DISTRIBUTED
    sort (boundary-exchange machinery) for any non-empty input (-1 for an
    empty one too), a huge value forces the in-process tier. Context
    manager, hypothesis-safe."""

    def __init__(self, rows: int):
        self.rows = rows

    def __enter__(self):
        import graphiti_ray.stages.ops as ops_mod

        self._mod, self._old = ops_mod, ops_mod.SMALL_SORT_ROWS
        ops_mod.SMALL_SORT_ROWS = self.rows
        return self

    def __exit__(self, *exc):
        self._mod.SMALL_SORT_ROWS = self._old
        return False


_force_distributed_sort = lambda: _sort_path(0)  # noqa: E731


@pytest.fixture(autouse=True, scope="module")
def _distributed_boundary_machinery():
    """These property tests exist to stress the distributed boundary
    exchange; the driver-local small-sort fast path would collapse every
    small input to one block and bypass the very carry logic under test.
    Forced off for the module; tests that want the fast path pin it with
    ``_sort_path(10**9)``."""
    import graphiti_ray.stages.ops as ops_mod

    old = ops_mod.SMALL_SORT_ROWS
    ops_mod.SMALL_SORT_ROWS = 0
    yield
    ops_mod.SMALL_SORT_ROWS = old


@given(rows_strategy, st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_sorted_lead_matches_pandas(ray_session, rows, nblocks):
    # duplicate (part, value) pairs ALLOWED — equal-value runs may straddle
    # block boundaries (regression for the one-row boundary exchange)
    df = pd.DataFrame(rows, columns=["p", "v"])
    df["uuid"] = [f"u{i}" for i in range(len(df))]
    ds = rd.from_pandas(df).repartition(nblocks)
    out = sorted_lead(
        ds, ["p"], ["v", "uuid"], "v", out_col="nxt",
        out_type=__import__("pyarrow").int64(),
    ).to_pandas()
    # strict lead: the smallest strictly-greater value in the partition
    want = {}
    for p, grp in df.groupby("p"):
        vals = sorted(grp["v"].unique())
        for i, v in enumerate(vals):
            want[(p, v)] = vals[i + 1] if i + 1 < len(vals) else None
    assert len(out) == len(df)
    for r in out.itertuples(index=False):
        w = want[(r.p, r.v)]
        if w is None:
            assert pd.isna(r.nxt), (r.p, r.v)
        else:
            assert r.nxt == w, (r.p, r.v)


def test_sorted_lead_straddling_run_blocks(ray_session):
    """Deterministic regression: an equal-value run spanning 3 blocks whose
    strictly-greater successor lives 2 blocks later must still get a lead.
    Drives the block-level kernels directly so the block layout is exact."""
    import pyarrow as pa
    import ray

    from graphiti_ray.stages.ops import (
        _block_run_info,
        _lead_block,
        _resolve_boundary_lead,
    )

    def blk(pairs):
        return pa.table(
            {"p": [p for p, _ in pairs], "v": pa.array([v for _, v in pairs], pa.int64())}
        )

    blocks = [
        blk([("a", 1), ("a", 5), ("a", 5)]),   # trailing run (a,5)...
        blk([("a", 5), ("a", 5)]),             # ...entirely (a,5)...
        blk([("a", 5), ("a", 9), ("b", 2)]),   # ...ends here; lead must be 9
        blk([("b", 2), ("c", 4)]),             # (b,2) run ends at partition change
    ]
    infos = ray.get(
        [_block_run_info.remote(b, ["p"], "v") for b in blocks]
    )
    leads = [_resolve_boundary_lead(i, infos) for i in range(len(blocks))]
    assert leads == [9, 9, None, None]
    out = ray.get(
        [
            _lead_block.remote(b, ["p"], "v", "nxt", pa.int64(), leads[i])
            for i, b in enumerate(blocks)
        ]
    )
    got = [t.column("nxt").to_pylist() for t in out]
    assert got == [[5, 9, 9], [9, 9], [9, None, None], [None, None]]


@given(rows_strategy, st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_sorted_lag_list_matches_pandas(ray_session, rows, nblocks, k):
    df = pd.DataFrame(sorted(set(rows)), columns=["p", "v"])
    df["val"] = [f"x{i}" for i in range(len(df))]
    ds = rd.from_pandas(df).repartition(nblocks)
    out = sorted_lag_list(
        ds, ["p"], ["v"], "val", k=k, out_col="prev"
    ).to_pandas()
    ref = df.sort_values(["p", "v"])
    want = {}
    for p, grp in ref.groupby("p"):
        vals = list(grp["val"])
        for i, (v, val) in enumerate(zip(grp["v"], vals)):
            want[(p, v)] = vals[max(0, i - k) : i]
    got = {(r.p, r.v): list(r.prev) for r in out.itertuples(index=False)}
    assert got == want


@given(
    st.lists(st.integers(0, 15), min_size=1, max_size=40), st.integers(1, 7)
)
@settings(max_examples=10, deadline=None)
def test_distinct_by_key_matches_pandas(ray_session, keys, nblocks):
    df = pd.DataFrame({"k": [f"k{x:02d}" for x in keys]})
    df["payload"] = df["k"] + "!"
    ds = rd.from_pandas(df).repartition(nblocks)
    out = distinct_by_key(ds, "k").to_pandas()
    assert sorted(out.k) == sorted(df.k.drop_duplicates())
    assert (out.payload == out.k + "!").all()


@given(
    st.lists(
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 9),
)
@settings(max_examples=15, deadline=None)
def test_distinct_contiguous_matches_pandas(ray_session, runs, nblocks):
    # precondition of the kernel: equal keys only within one contiguous run
    # (keys prefixed by run id); repartition splits runs across blocks at
    # arbitrary points — the boundary-fix path must still be exact
    rows = []
    for ri, ks in enumerate(runs):
        for k in ks:
            rows.append((f"r{ri:02d}", f"r{ri:02d}-k{k}"))
    df = pd.DataFrame(rows, columns=["run", "k"])
    df["payload"] = df.k + "!"
    ds = rd.from_pandas(df).repartition(nblocks)
    out = distinct_by_key_contiguous(ds, "k", "run").to_pandas()
    assert sorted(out.k) == sorted(df.k.drop_duplicates())
    assert (out.payload == out.k + "!").all()


def test_distinct_contiguous_run_spans_three_blocks(ray_session):
    import pyarrow as pa
    import ray

    # run B spans three blocks (middle block is ENTIRELY run B), with a
    # duplicate key in its first and last fragment — the straddler must be
    # found by boundary counting alone, without assuming block order
    t1 = pa.table({"run": ["A", "B", "B"], "k": ["a1", "b1", "b2"]})
    t2 = pa.table({"run": ["B", "B"], "k": ["b3", "b1"]})
    t3 = pa.table({"run": ["B", "C"], "k": ["b2", "c1"]})
    ds = rd.from_arrow_refs([ray.put(t) for t in (t1, t2, t3)])
    out = distinct_by_key_contiguous(ds, "k", "run").to_pandas()
    assert sorted(out.k) == ["a1", "b1", "b2", "b3", "c1"]


def test_distinct_contiguous_empty_and_single_block(ray_session):
    import pyarrow as pa
    import ray

    empty = pa.table({"run": pa.array([], pa.string()), "k": pa.array([], pa.string())})
    assert distinct_by_key_contiguous(
        rd.from_arrow_refs([ray.put(empty)]), "k", "run"
    ).count() == 0
    one = pa.table({"run": ["A", "A", "A"], "k": ["x", "y", "x"]})
    out = distinct_by_key_contiguous(
        rd.from_arrow_refs([ray.put(one)]), "k", "run"
    ).to_pandas()
    assert sorted(out.k) == ["x", "y"]


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 20)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 9),
)
@settings(max_examples=12, deadline=None)
def test_sorted_run_map_complete_runs(ray_session, rows, nblocks):
    """Every key run arrives at exactly one kernel invocation, complete and
    in (key, order) order — across adversarial block splits."""
    import numpy as np
    import pyarrow as pa

    from graphiti_ray.stages.ops import sorted_run_map

    df = pd.DataFrame(rows, columns=["k", "v"])
    ds = rd.from_pandas(df).repartition(nblocks)

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.string()), "vs": pa.array([], pa.string())}
            )
        k = np.array(tbl.column("k").to_pylist())
        v = tbl.column("v").to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            [[0], np.nonzero(k[1:] != k[:-1])[0] + 1, [len(k)]]
        )
        return pa.table(
            {
                "k": pa.array([k[s] for s in starts[:-1]], pa.string()),
                "vs": pa.array(
                    [
                        ",".join(map(str, sorted(v[s:e])))
                        for s, e in zip(starts[:-1], starts[1:])
                    ],
                    pa.string(),
                ),
            }
        )

    out = sorted_run_map(ds, ["k"], kernel, order_cols=["v"]).to_pandas()
    want = {
        k: ",".join(map(str, sorted(g["v"]))) for k, g in df.groupby("k")
    }
    got = dict(zip(out["k"], out["vs"]))
    assert got == want
    assert len(out) == len(want)  # each run exactly once


asof_strategy = st.tuples(
    st.lists(  # left rows: (key, ts)
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 50)),
        min_size=1,
        max_size=20,
    ),
    st.lists(  # right rows: (key, ts, value) — unique (key, ts) enforced below
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 50),
            st.integers(100, 999),
        ),
        min_size=0,
        max_size=20,
        unique_by=lambda r: (r[0], r[1]),
    ),
)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.integers(0, 20),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 5),
)
@settings(max_examples=15, deadline=None)
def test_sorted_prefix_sum_matches_pandas(ray_session, rows, nblocks):
    import pyarrow as pa

    from graphiti_ray.stages.ops import sorted_prefix_sum

    df = pd.DataFrame(rows, columns=["k", "o", "d"])
    df["rid"] = range(len(df))  # total order: (k, o, rid) is unique
    ds = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(df["k"]),
                "o": pa.array(df["o"], pa.int64()),
                "d": pa.array(df["d"], pa.int64()),
                "rid": pa.array(df["rid"], pa.int64()),
            }
        )
    ).repartition(nblocks)
    out = (
        sorted_prefix_sum(ds, by=["k"], order_cols=["o", "rid"], delta_col="d",
                          out_col="ps")
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    ref = df.sort_values(["k", "o", "rid"], kind="mergesort")
    ref["ps"] = ref.groupby("k")["d"].cumsum()
    ref = ref.sort_values("rid").reset_index(drop=True)
    assert out["ps"].tolist() == ref["ps"].tolist()


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 30)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 5),
    st.integers(1, 4),
)
@settings(max_examples=12, deadline=None)
def test_top_k_per_group_matches_pandas(ray_session, rows, nblocks, k):
    import pyarrow as pa

    from graphiti_ray.stages.ops import top_k_per_group

    df = pd.DataFrame(rows, columns=["g", "v"])
    df["rid"] = range(len(df))  # unique order tie-break
    ds = rd.from_arrow(
        pa.table(
            {
                "g": pa.array(df["g"]),
                "v": pa.array(df["v"], pa.int64()),
                "rid": pa.array(df["rid"], pa.int64()),
            }
        )
    ).repartition(nblocks)
    out = (
        top_k_per_group(ds, keys=["g"], order_cols=["v", "rid"], k=k)
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    ref = df.sort_values(["g", "v", "rid"], kind="mergesort")
    ref["rank"] = ref.groupby("g").cumcount() + 1
    ref = ref[ref["rank"] <= k].reset_index(drop=True)
    assert out[["g", "v", "rid", "rank"]].values.tolist() == ref[
        ["g", "v", "rid", "rank"]
    ].values.tolist()


def test_sorted_run_map_carry_overflow_raises_or_truncates(
    ray_session, monkeypatch
):
    """A run continuing past carry_cap beyond its starting block must RAISE
    by default (silent row loss was the old behavior) and only truncate on
    explicit opt-in."""
    import pyarrow as pa
    import pytest

    import ray.data as rd

    import graphiti_ray.stages.ops as ops
    from graphiti_ray.stages.ops import sorted_run_map

    # the sort right-sizing would coalesce these 201 tiny rows into one
    # block (no boundaries → no carry); pin the width so the overflow
    # protocol is actually exercised
    monkeypatch.setattr(ops, "_SORT_BLOCK_ROWS", 4)

    # one giant key run spread over many tiny blocks + one small run
    rows = [{"k": "hot", "v": i} for i in range(200)] + [{"k": "z", "v": 0}]
    ds = rd.from_items(rows).repartition(20)

    def count_rows(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        starts = _table_run_starts(tbl, ["k"])
        return pa.table(
            {
                "k": tbl.column("k").take(pa.array(starts[:-1], pa.int64())),
                "n": pa.array((starts[1:] - starts[:-1]).tolist(), pa.int64()),
            }
        )

    # order_cols make the sort key distinct per row, so the range sort
    # actually splits the hot run across blocks (equal-key-only sorts
    # collapse duplicates into one partition)
    with pytest.raises(Exception) as ei:
        sorted_run_map(ds, ["k"], count_rows, order_cols=["v"], carry_cap=5).take_all()
    assert "carry_cap" in str(ei.value)

    out = sorted_run_map(
        ds, ["k"], count_rows, order_cols=["v"], carry_cap=5,
        on_carry_overflow="truncate",
    ).to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got["z"] == 1 and got["hot"] < 200  # truncation is opt-in

    # a generous cap processes the hot run completely
    full = sorted_run_map(
        ds, ["k"], count_rows, order_cols=["v"], carry_cap=10_000
    ).to_pandas()
    assert dict(zip(full["k"], full["n"])) == {"hot": 200, "z": 1}


def test_salted_aggregate_matches_plain_groupby(ray_session):
    """Two-phase salted aggregation is exact for associative aggregates:
    a heavily skewed key (one hub holding 80% of rows) must produce the
    same sums/counts/mins/maxes as a plain single-shuffle groupby."""
    import numpy as np
    import ray.data as rd_
    from ray.data.aggregate import Count, Max, Min, Sum

    from graphiti_ray.stages.ops import salted_aggregate

    rng = np.random.RandomState(3)
    rows = [
        {
            "k": "hub" if i % 5 else f"tail{i % 37}",
            "v": int(rng.randint(0, 1000)),
            "rid": i,
        }
        for i in range(4000)
    ]
    ds = rd_.from_items(rows).repartition(8)
    got = (
        salted_aggregate(
            ds,
            ["k"],
            {
                "n": ("v", "count"),
                "total": ("v", "sum"),
                "lo": ("v", "min"),
                "hi": ("v", "max"),
            },
            salt_buckets=8,
            salt_source="rid",
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    want = (
        rd_.from_items(rows)
        .groupby("k")
        .aggregate(
            Count(alias_name="n"),
            Sum("v", alias_name="total"),
            Min("v", alias_name="lo"),
            Max("v", alias_name="hi"),
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert list(got.index) == list(want.index)
    for c in ("n", "total", "lo", "hi"):
        assert (got[c].astype("int64") == want[c].astype("int64")).all(), c


def test_hll_estimate_within_expected_error(ray_session):
    """HLL registers are deterministic across runs and the estimate lands
    within ~3 standard errors (1.04/sqrt(4096) ≈ 1.6%) of the exact
    distinct count on a duplicated-value stream."""
    import ray.data as rd_

    from graphiti_ray.stages.sketch import hll_estimate, hll_registers

    n_distinct = 12345
    rows = [{"v": i % n_distinct} for i in range(30000)]
    regs = hll_registers(rd_.from_items(rows).repartition(6), "v").to_pandas()
    est = hll_estimate(regs)
    assert abs(est - n_distinct) / n_distinct < 0.05, est
    regs2 = hll_registers(rd_.from_items(rows), "v").to_pandas()
    a = regs.sort_values("bucket").reset_index(drop=True)
    b = regs2.sort_values("bucket").reset_index(drop=True)
    assert a.equals(b)  # partitioning-independent registers


def test_cms_never_underestimates_and_is_tight_for_heavy_hitters(ray_session):
    """CMS point estimates are ≥ the true count for every value (min over
    rows of pure over-counts) and exact for a dominant heavy hitter when
    the sketch is far from saturated."""
    from collections import Counter

    import ray.data as rd_

    from graphiti_ray.stages.sketch import cms_estimate, cms_registers

    values = (["the"] * 3000) + [f"tok{i % 200}" for i in range(2000)]
    truth = Counter(values)
    regs = cms_registers(
        rd_.from_items([{"v": v} for v in values]).repartition(5), "v"
    ).to_pandas()
    for v in ("the", "tok0", "tok199", "absent-token"):
        est = cms_estimate(regs, v)
        assert est >= truth.get(v, 0), v
    # 201 distinct values in 4x2048 counters → collisions are unlikely to
    # hit the SAME bucket in all 4 rows: the heavy hitter reads back exact
    assert cms_estimate(regs, "the") == 3000


def test_bloom_no_false_negatives_bounded_false_positives(ray_session):
    """Every inserted value probes True; the false-positive rate on
    absent values stays near the (1-e^{-kn/m})^k analytic bound."""
    import ray.data as rd_

    from graphiti_ray.stages.sketch import bloom_bits, bloom_contains

    inserted = [f"member{i}" for i in range(2000)]
    bits = set(
        r["bit"]
        for r in bloom_bits(
            rd_.from_items([{"v": v} for v in inserted]).repartition(4), "v"
        ).take_all()
    )
    assert all(bloom_contains(bits, v) for v in inserted)  # no false negs
    probes = [f"absent{i}" for i in range(4000)]
    fp = sum(bloom_contains(bits, v) for v in probes) / len(probes)
    # k=4, n=2000, m=32768 → (1 - e^{-kn/m})^4 ≈ 0.23%; allow 4x slack
    assert fp < 0.01, fp


def test_salted_aggregate_count_skips_nulls_and_rejects_string_salt(ray_session):
    """count(col) semantics: nulls in the counted column don't count;
    count(*) via in_col=None does; a non-integer salt_source fails loudly
    at the argument, not as an opaque numpy error."""
    import pytest as _pytest
    import ray.data as rd_

    from graphiti_ray.stages.ops import salted_aggregate

    rows = [
        {"k": "a", "v": 1, "rid": 0},
        {"k": "a", "v": None, "rid": 1},
        {"k": "a", "v": 3, "rid": 2},
        {"k": "b", "v": None, "rid": 3},
    ]
    out = (
        salted_aggregate(
            rd_.from_items(rows),
            ["k"],
            {"n_v": ("v", "count"), "n_all": (None, "count")},
            salt_buckets=4,
        )
        .to_pandas()
        .set_index("k")
    )
    assert out.loc["a"].n_v == 2 and out.loc["a"].n_all == 3
    assert out.loc["b"].n_v == 0 and out.loc["b"].n_all == 1

    with _pytest.raises((TypeError, Exception)) as exc:
        salted_aggregate(
            rd_.from_items(rows), ["k"], {"n": (None, "count")},
            salt_source="k",
        ).to_pandas()
    assert "integer column" in str(exc.value)


def test_sketches_merge_associatively(ray_session):
    """The property that makes every sketch shuffle-safe: registers built
    from A ∪ B equal the pointwise merge (max / sum / union) of registers
    built from A and B separately — so partial aggregation over any
    partitioning is exact."""
    import pandas as pd
    import ray.data as rd_

    from graphiti_ray.stages.sketch import bloom_bits, cms_registers, hll_registers

    a_rows = [{"v": f"a{i % 300}"} for i in range(600)]
    b_rows = [{"v": f"b{i % 200}"} for i in range(400)]

    def hll(rows):
        return (
            hll_registers(rd_.from_items(rows), "v")
            .to_pandas()
            .set_index("bucket")["max_rank"]
        )

    ha, hb, hu = hll(a_rows), hll(b_rows), hll(a_rows + b_rows)
    merged = pd.concat([ha, hb]).groupby(level=0).max()
    assert merged.sort_index().equals(hu.sort_index())

    def cms(rows):
        return (
            cms_registers(rd_.from_items(rows), "v")
            .to_pandas()
            .set_index(["sketch_row", "bucket"])["n"]
        )

    ca, cb, cu = cms(a_rows), cms(b_rows), cms(a_rows + b_rows)
    merged = pd.concat([ca, cb]).groupby(level=[0, 1]).sum()
    assert merged.sort_index().equals(cu.sort_index())

    def bloom(rows):
        return set(
            r["bit"] for r in bloom_bits(rd_.from_items(rows), "v").take_all()
        )

    assert bloom(a_rows) | bloom(b_rows) == bloom(a_rows + b_rows)


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=40),
    st.integers(1, 6),
)
@settings(max_examples=15, deadline=None)
def test_annotate_run_lengths_matches_counter(ray_session, keys, nblocks):
    """Global key frequency via the sort + boundary-exchange kernel must
    equal a plain Counter, for runs straddling any number of blocks."""
    from collections import Counter

    from graphiti_ray.stages.ops import annotate_run_lengths

    df = pd.DataFrame({"k": keys, "rid": range(len(keys))})
    want = Counter(keys)
    for rows_cap in (0, 10**9):  # distributed path AND driver fast path
        ds = rd.from_pandas(df).repartition(nblocks)
        with _sort_path(rows_cap):
            out = annotate_run_lengths(ds, ["k"], out_col="df").to_pandas()
        assert len(out) == len(keys)
        for r in out.itertuples(index=False):
            assert r.df == want[r.k], (rows_cap, r.k, r.df, want[r.k])


def test_annotate_run_lengths_hot_key_spanning_all_blocks(ray_session):
    """A key occupying every block (the stopword-gram case) accumulates the
    full chain of carries from both directions."""
    from graphiti_ray.stages.ops import annotate_run_lengths

    df = pd.DataFrame({"k": [7] * 500 + [1, 2, 3], "rid": range(503)})
    ds = rd.from_pandas(df.sample(frac=1, random_state=0)).repartition(8)
    with _force_distributed_sort():
        out = annotate_run_lengths(ds, ["k"], out_col="df").to_pandas()
    assert (out.loc[out.k == 7, "df"] == 500).all()
    assert (out.loc[out.k != 7, "df"] == 1).all()


def test_small_sort_fast_path_matches_distributed(ray_session):
    """The driver-local small-sort tier must be result-identical to the
    distributed sort for every primitive built on _sort_coalesced."""
    import pyarrow as pa

    from graphiti_ray.stages.ops import annotate_run_lengths, distinct_by_key

    df = pd.DataFrame(
        {
            "k": [i % 7 for i in range(300)],
            "v": [i % 13 for i in range(300)],
            "rid": range(300),
        }
    )

    def run(rows_cap):
        ds = rd.from_pandas(df).repartition(9)
        with _sort_path(rows_cap):
            lead = sorted_lead(
                ds, ["k"], ["v", "rid"], "v", out_col="nxt", out_type=pa.int64()
            ).to_pandas()
            dk = distinct_by_key(
                rd.from_pandas(df).repartition(9), "k", order_cols=["rid"]
            ).to_pandas()
            rl = annotate_run_lengths(
                rd.from_pandas(df).repartition(9), ["k"], out_col="df"
            ).to_pandas()
        key = ["k", "v", "rid"]
        return (
            lead.sort_values(key).reset_index(drop=True),
            dk.sort_values("k").reset_index(drop=True),
            rl.sort_values(key).reset_index(drop=True),
        )

    fast, dist = run(10**9), run(0)
    for f, d in zip(fast, dist):
        pd.testing.assert_frame_equal(f[sorted(f.columns)], d[sorted(d.columns)])


def _run_stats():
    """sorted_run_map kernel (a closure, so Ray workers need not import
    this module): each row's 1-based rank in its complete key run and the
    run's length."""

    def kernel(tbl):
        import pyarrow as pa

        from graphiti_ray.stages.ops import _table_run_starts

        starts = _table_run_starts(tbl, ["k"])
        lens = np.diff(starts)
        ranks = np.arange(tbl.num_rows) - np.repeat(starts[:-1], lens) + 1
        return tbl.append_column("rank", pa.array(ranks, pa.int64())).append_column(
            "n", pa.array(np.repeat(lens, lens), pa.int64())
        )

    return kernel


def _tier_table(n=240, key_type=None):
    """A hot key holding two thirds of the rows, cold keys, null keys and
    a repeating ``v``, so equal-value runs straddle blocks. ``k`` is int64,
    or the same values as strings when ``key_type`` is ``pa.string()``."""
    import pyarrow as pa

    key_type = key_type or pa.int64()
    rng = np.random.default_rng(3)
    keys = [7] * (n * 2 // 3) + [1, 2, 3] * (n // 12) + [None] * (n // 12)
    if pa.types.is_string(key_type):
        keys = [None if k is None else str(k) for k in keys]
    t = pa.table(
        {
            "k": pa.array(keys, key_type),
            "v": pa.array(rng.integers(0, 9, n), pa.int64()),
            "rid": pa.array(range(n), pa.int64()),
        }
    )
    return t.take(rng.permutation(n))


def _both_tiers(run, nblocks, t):
    """``run(ds)`` on the in-process tier and on the distributed path."""
    out = []
    for rows_cap in (10**9, 0):
        with _sort_path(rows_cap):
            res = run(rd.from_arrow(t).repartition(nblocks)).to_pandas()
        out.append(res.sort_values("rid").reset_index(drop=True))
    return out


@pytest.mark.parametrize("nblocks", range(1, 9))
def test_sorted_run_map_and_lead_tiers_agree(ray_session, nblocks):
    """On 1-8 blocks (inputs that newly take the in-process tier) the
    one-table kernels equal the distributed boundary exchange: a hot key
    spanning blocks, null keys (int64 and string: Ray's range sort cannot
    compare None with str, so ``_range_sort`` flags string nulls), repeated
    values."""
    import pyarrow as pa

    from graphiti_ray.stages.ops import sorted_run_map

    for key_type, hot in ((pa.int64(), 7), (pa.string(), "7")):
        t = _tier_table(key_type=key_type)
        small, dist = _both_tiers(
            lambda ds: sorted_run_map(ds, ["k"], _run_stats(), order_cols=["rid"]), nblocks, t
        )
        pd.testing.assert_frame_equal(small, dist)
        keys = t["k"].to_pandas()
        assert small.loc[small.k == hot, "n"].eq((keys == hot).sum()).all()
        assert small.loc[small.k.isna(), "n"].eq(keys.isna().sum()).all()

        small, dist = _both_tiers(
            lambda ds: sorted_lead(
                ds, ["k"], ["v", "rid"], "v", out_col="nxt", out_type=pa.int64()
            ),
            nblocks,
            t,
        )
        pd.testing.assert_frame_equal(small, dist)


def test_sorted_run_map_and_lead_empty_input(ray_session):
    """An empty input gives an empty output on both tiers (a negative row
    bound forces the distributed path even for 0 rows), with the kernel's
    columns when the input's blocks carry its columns. Ray's repartition
    of an empty table leaves blocks without columns, so that input can
    only come back empty."""
    import pyarrow as pa

    from graphiti_ray.stages.ops import sorted_run_map

    t = _tier_table().slice(0, 0)
    for rows_cap in (10**9, -1):
        with _sort_path(rows_cap):
            for ds, with_columns in (
                (rd.from_arrow(t).repartition(3), False),
                (rd.from_arrow([t, t, t]), True),
            ):
                runs = sorted_run_map(ds, ["k"], _run_stats(), order_cols=["rid"])
                lead = sorted_lead(ds, ["k"], ["v", "rid"], "v", out_col="nxt", out_type=pa.int64())
                assert runs.count() == lead.count() == 0
                if with_columns:
                    assert runs.schema().names == ["k", "v", "rid", "rank", "n"]
                    assert lead.schema().names == ["k", "v", "rid", "nxt"]


def test_hll_registers_by_group_matches_per_group_sketch(ray_session):
    """Grouped registers equal an independent single-group sketch per key
    (partitioning-independent), and the per-group estimates land within
    the expected HLL error of exact distinct counts."""
    import ray.data as rd_

    from graphiti_ray.stages.sketch import (
        hll_estimate,
        hll_registers,
        hll_registers_by,
    )

    rows = [
        {"g": f"g{i % 3}", "v": (i * 7) % (800 * (1 + i % 3))}
        for i in range(12000)
    ]
    got = (
        hll_registers_by(rd_.from_items(rows).repartition(5), "v", "g")
        .to_pandas()
        .sort_values(["g", "bucket"])
        .reset_index(drop=True)
    )
    import pandas as pd

    df = pd.DataFrame(rows)
    for g, grp in df.groupby("g"):
        solo = (
            hll_registers(rd_.from_items(grp.to_dict("records")), "v")
            .to_pandas()
            .sort_values("bucket")
            .reset_index(drop=True)
        )
        sub = (
            got[got.g == g][["bucket", "max_rank"]]
            .sort_values("bucket")
            .reset_index(drop=True)
        )
        assert sub.equals(solo), g
        exact = grp.v.nunique()
        assert abs(hll_estimate(sub) - exact) / exact < 0.05, g


def test_jl_projection_preserves_distances_and_is_deterministic(ray_session):
    """±1 JL projection: deterministic signs, exact integer output, and
    pairwise distances preserved in expectation (within loose JL bounds
    for 16 dims) after the 1/sqrt(k) rescale."""
    import numpy as np
    import ray.data as rd_

    from graphiti_ray.stages.embed import jl_project, jl_sign, jl_sign_matrix

    assert jl_sign(0, 0) in (-1, 1) and jl_sign(0, 0) == jl_sign(0, 0)
    m = jl_sign_matrix(16, 64)
    assert set(np.unique(m)) == {-1, 1}

    rng = np.random.default_rng(5)
    vecs = rng.normal(0, 1, (40, 64))
    rows = [
        {"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)
    ]
    out = jl_project(rd_.from_items(rows).repartition(4)).to_pandas()
    assert len(out) == 40 * 16
    # reshape long → (n, k), undo the lattice, rescale by 1/sqrt(k)
    proj = (
        out.sort_values(["vec_id", "j"]).proj.to_numpy().reshape(40, 16)
        / 1e6
        / np.sqrt(16)
    )
    q = np.floor(vecs * 1e6) / 1e6
    d_in = np.linalg.norm(q[:20] - q[20:], axis=1)
    d_out = np.linalg.norm(proj[:20] - proj[20:], axis=1)
    ratio = d_out / d_in
    assert 0.5 < ratio.mean() < 1.5
    assert (ratio > 0.3).all() and (ratio < 2.0).all()


def test_set_ops_distinct_semantics(ray_session):
    """INTERSECT/EXCEPT are DISTINCT set ops: duplicates collapse, and
    the two results partition side A's distinct keys."""
    import ray.data as rd_

    from graphiti_ray.stages.ops import dataset_except, dataset_intersect

    a = rd_.from_items([{"k": x} for x in [1, 1, 2, 3, 5, 5, 8]]).repartition(3)
    b = rd_.from_items([{"k": x} for x in [2, 2, 3, 13]]).repartition(2)
    inter = sorted(r["k"] for r in dataset_intersect(a, b, ["k"]).take_all())
    exc = sorted(r["k"] for r in dataset_except(a, b, ["k"]).take_all())
    assert inter == [2, 3]
    assert exc == [1, 5, 8]
    assert sorted(inter + exc) == [1, 2, 3, 5, 8]  # partition of distinct(a)


def test_window_rank_total_order_and_sizes(ray_session):
    import numpy as np
    import ray.data as rd_

    from graphiti_ray.stages.ops import window_rank

    rng = np.random.default_rng(9)
    rows = [
        {"id": i, "g": int(i % 3), "v": int(rng.integers(0, 5))}
        for i in range(200)
    ]
    out = window_rank(
        rd_.from_items(rows).repartition(4), keys=["g"], order_cols=["v", "id"]
    ).to_pandas()
    assert len(out) == 200
    for g, grp in out.groupby("g"):
        # ranks are a permutation of 1..n_g and n is constant
        assert sorted(grp["rank"]) == list(range(1, len(grp) + 1))
        assert (grp.n == len(grp)).all()
        # rank order respects (v, id)
        s = grp.sort_values("rank")
        assert (s[["v", "id"]].values == s.sort_values(["v", "id"])[["v", "id"]].values).all()


def test_rollup_counts_levels_consistent(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import ROLLUP_ALL, rollup_counts

    rows = [
        {"a": x, "b": y, "v": i + 1}
        for i, (x, y) in enumerate(
            [("p", "u"), ("p", "u"), ("p", "w"), ("q", "u"), ("q", "w")]
        )
    ]
    out = rollup_counts(
        rd_.from_items(rows).repartition(3), ["a", "b"], sum_col="v"
    ).to_pandas()
    total = out[(out.a == ROLLUP_ALL) & (out.b == ROLLUP_ALL)]
    assert total.n.tolist() == [5] and total.sum_v.tolist() == [15]
    lvl_a = out[(out.a != ROLLUP_ALL) & (out.b == ROLLUP_ALL)].set_index("a")
    assert lvl_a.n.to_dict() == {"p": 3, "q": 2}
    assert lvl_a.sum_v.to_dict() == {"p": 6, "q": 9}
    leaf = out[(out.a != ROLLUP_ALL) & (out.b != ROLLUP_ALL)]
    # leaves sum to each parent level
    assert leaf.n.sum() == 5 and leaf.sum_v.sum() == 15
    assert len(out) == 4 + 2 + 1


def test_content_checksum_order_independent_and_sensitive(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import content_checksum

    rows = [{"id": i, "s": f"v{i}"} for i in range(500)]

    def ck(rs, parts):
        df = content_checksum(
            rd_.from_items(rs).repartition(parts), ["id", "s"]
        ).to_pandas()
        assert df.n_rows[0] == len(rs)
        return (int(df.sum_hi[0]), int(df.sum_lo[0]))

    base = ck(rows, 1)
    assert ck(list(reversed(rows)), 7) == base  # order/partitioning invariant
    mutated = [dict(r) for r in rows]
    mutated[250]["s"] = "vX"
    assert ck(mutated, 3) != base  # single-cell sensitivity


def test_dataset_diff_classifies_all_three(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import dataset_diff

    a = rd_.from_items(
        [{"k": 1, "v": "x"}, {"k": 2, "v": "y"}, {"k": 3, "v": "z"}]
    ).repartition(2)
    b = rd_.from_items(
        [{"k": 2, "v": "y"}, {"k": 3, "v": "Z"}, {"k": 4, "v": "w"}]
    )
    out = dataset_diff(a, b, ["k"], ["v"]).to_pandas()
    got = dict(zip(out.k, out.status))
    assert got == {1: "removed", 3: "changed", 4: "added"}  # k=2 unchanged → absent


def test_epoch_shuffle_is_permutation_and_epoch_dependent(ray_session):
    import ray.data as rd_

    from graphiti_ray.pipelines.corpus import epoch_shuffle_positions

    rows = [{"doc_id": i} for i in range(400)]
    p1 = (
        epoch_shuffle_positions(rd_.from_items(rows).repartition(5), epoch=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert sorted(p1.pos) == list(range(400))  # a true permutation
    p1b = epoch_shuffle_positions(rd_.from_items(rows), epoch=1).to_pandas().sort_values("doc_id")
    assert (p1.pos.to_numpy() == p1b.pos.to_numpy()).all()  # partition-invariant
    p2 = epoch_shuffle_positions(rd_.from_items(rows), epoch=2).to_pandas().sort_values("doc_id")
    assert (p1.pos.to_numpy() != p2.pos.to_numpy()).any()  # epochs differ


def test_group_centroids_exact_moments(ray_session):
    import numpy as np
    import ray.data as rd_

    from graphiti_ray.stages.embed import group_centroids

    rng = np.random.default_rng(4)
    rows = [
        {"lang": ["en", "fr"][i % 2], "embedding": rng.normal(0, 1, 8).tolist()}
        for i in range(100)
    ]
    out = group_centroids(
        rd_.from_items(rows).repartition(4), group_col="lang"
    ).to_pandas()
    assert len(out) == 2 * 8
    import pandas as pd

    for lang in ("en", "fr"):
        mats = np.array([r["embedding"] for r in rows if r["lang"] == lang])
        want = np.floor(mats * 1e6).astype(np.int64).sum(axis=0)
        sub = out[out.lang == lang].sort_values("j")
        assert (sub.sum_q.to_numpy() == want).all()
        assert (sub.n == len(mats)).all()
        # derived float centroid tracks the true mean
        cent = sub.sum_q.to_numpy() / (len(mats) * 1e6)
        assert np.abs(cent - mats.mean(axis=0)).max() < 1e-5


def test_bloom_semi_join_no_false_negatives(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.sketch import bloom_semi_join

    build = rd_.from_items([{"k": f"key{i}"} for i in range(0, 1000, 3)])
    probe = rd_.from_items([{"k": f"key{i}"} for i in range(1000)]).repartition(4)
    out = set(r["k"] for r in bloom_semi_join(probe, build, "k").take_all())
    members = {f"key{i}" for i in range(0, 1000, 3)}
    assert members <= out  # every true member survives
    # FP rate bounded: (1 - e^(-kn/m))^k ≈ 0.0002 for n=334, m=32768, k=4
    fps = len(out - members)
    assert fps <= 20


def test_pivot_counts_grid_and_other_bucket(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import pivot_counts

    rows = (
        [{"g": "x", "c": "a"}] * 3
        + [{"g": "x", "c": "b"}] * 2
        + [{"g": "y", "c": "a"}]
        + [{"g": "y", "c": "zzz"}] * 4  # outside the category set
    )
    out = (
        pivot_counts(rd_.from_items(rows).repartition(3), "g", "c", ["a", "b"])
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert out.columns.tolist() == ["g", "a", "b", "_other"]
    assert out.values.tolist() == [["x", 3, 2, 0], ["y", 1, 0, 4]]


def test_window_ntile_remainder_semantics(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import window_ntile

    # 10 rows, 4 tiles → sizes 3,3,2,2 (remainder to the first buckets)
    rows = [{"id": i, "g": "a", "v": i} for i in range(10)]
    out = (
        window_ntile(
            rd_.from_items(rows).repartition(3), ["g"], ["v", "id"], 4
        )
        .to_pandas()
        .sort_values("rank")
    )
    assert out.tile.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]


def test_melt_inverts_pivot(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import melt, pivot_counts

    rows = [{"g": ["x", "y"][i % 2], "c": ["a", "b", "q"][i % 3]} for i in range(60)]
    wide = pivot_counts(rd_.from_items(rows).repartition(3), "g", "c", ["a", "b"])
    long = melt(wide, ["g"], ["a", "b", "_other"]).to_pandas()
    # every original row is accounted for exactly once in the long form
    assert long.value.sum() == 60
    from collections import Counter

    want = Counter((r["g"], r["c"] if r["c"] in ("a", "b") else "_other") for r in rows)
    got = {(r.g, r.variable): r.value for r in long.itertuples() if r.value > 0}
    assert got == dict(want)


def test_cube_adds_the_missing_grouping_set(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import ROLLUP_ALL, rollup_counts

    rows = [
        {"a": x, "b": y, "v": 1}
        for x, y in [("p", "u"), ("p", "w"), ("q", "u")]
    ]
    cube = rollup_counts(
        rd_.from_items(rows).repartition(2), ["a", "b"], sum_col="v", cube=True
    ).to_pandas()
    # the (·, b) level exists only under CUBE
    by_b = cube[(cube.a == ROLLUP_ALL) & (cube.b != ROLLUP_ALL)].set_index("b")
    assert by_b.n.to_dict() == {"u": 2, "w": 1}
    assert len(cube) == 3 + 2 + 2 + 1  # leaves + by-a + by-b + total
    roll = rollup_counts(rd_.from_items(rows), ["a", "b"], sum_col="v").to_pandas()
    assert len(roll) == 3 + 2 + 1  # no (·, b) level


def test_neighbor_feature_sum_matches_numpy(ray_session):
    import numpy as np
    import ray.data as rd_

    from graphiti_ray.stages.embed import neighbor_feature_sum

    rng = np.random.default_rng(13)
    vecs = rng.normal(0, 1, (12, 4))
    feats = rd_.from_items(
        [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
    ).repartition(3)
    pairs = [(0, 1), (1, 2), (3, 7), (0, 5)]
    edges = rd_.from_items([{"a": a, "b": b} for a, b in pairs])
    out = neighbor_feature_sum(edges, feats).to_pandas()

    q = np.floor(vecs * 1e6).astype(np.int64)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for node, nbrs in adj.items():
        sub = out[out.vec_id == node].sort_values("j")
        assert (sub.n_nbrs == len(nbrs)).all()
        assert (sub.sum_q.to_numpy() == q[nbrs].sum(axis=0)).all()
    assert set(out.vec_id) == set(adj)  # isolated nodes absent


def test_zorder_codes_interleave_and_locality(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import zorder_codes

    rows = [{"id": i, "x": x, "y": y}
            for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 5)])]
    out = (
        zorder_codes(rd_.from_items(rows).repartition(2), "x", "y", ["id"])
        .to_pandas()
        .sort_values("id")
    )
    # hand-interleaved references: z(1,0)=1, z(0,1)=2, z(1,1)=3,
    # z(2,2)=12, z(3,5)=39 (x even bits, y odd bits)
    assert out.z.tolist() == [0, 1, 2, 3, 12, 39]
    import pytest as _pt

    with _pt.raises(Exception):
        zorder_codes(rd_.from_items([{"id": 0, "x": -1, "y": 0}]), "x", "y", ["id"]).to_pandas()


def test_cms_registers_by_group_matches_solo(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.sketch import cms_registers, cms_registers_by

    rows = [
        {"g": ["a", "b"][i % 2], "v": f"tok{i % 30}"} for i in range(2000)
    ]
    got = (
        cms_registers_by(rd_.from_items(rows).repartition(4), "v", "g")
        .to_pandas()
        .sort_values(["g", "sketch_row", "bucket"])
        .reset_index(drop=True)
    )
    import pandas as pd

    df = pd.DataFrame(rows)
    for g, grp in df.groupby("g"):
        solo = (
            cms_registers(rd_.from_items(grp.to_dict("records")), "v")
            .to_pandas()
            .sort_values(["sketch_row", "bucket"])
            .reset_index(drop=True)
        )
        sub = (
            got[got.g == g][["sketch_row", "bucket", "n"]]
            .sort_values(["sketch_row", "bucket"])
            .reset_index(drop=True)
        )
        assert sub.equals(solo), g


def test_profile_table_with_nulls(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import profile_table

    rows = [
        {"k": 5, "s": "b"},
        {"k": 100, "s": None},
        {"k": 9, "s": "a"},
        {"k": None, "s": "a"},
    ]
    out = (
        profile_table(rd_.from_items(rows).repartition(2), ["k", "s"])
        .to_pandas()
        .set_index("column")
    )
    assert out.loc["k"].to_dict() == {
        "n": 4, "n_null": 1, "n_distinct": 3, "min_s": "5", "max_s": "100",
    }  # NULL excluded from distinct; native order: 100 > 9
    assert out.loc["s"].to_dict() == {
        "n": 4, "n_null": 1, "n_distinct": 2, "min_s": "a", "max_s": "b",
    }


def test_skyline_2d_dominance(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.ops import skyline_2d

    rows = [
        {"id": 0, "x": 10, "y": 1},
        {"id": 1, "x": 5, "y": 5},
        {"id": 2, "x": 1, "y": 10},
        {"id": 3, "x": 4, "y": 4},   # dominated by (5,5)
        {"id": 4, "x": 10, "y": 1},  # duplicate point — also on the front
        {"id": 5, "x": 10, "y": 0},  # same x, lower y → dominated
    ]
    out = skyline_2d(
        rd_.from_items(rows).repartition(3), "x", "y", ["id"]
    ).to_pandas()
    assert set(out.id) == {0, 1, 2, 4}


def test_kll_exact_at_full_capacity(ray_session):
    """Capacity >= n: the sketch is lossless, quantiles equal the exact
    order statistic under the integer-ceiling rank rule, independent of
    block layout."""
    import ray.data as rd

    from graphiti_ray.stages.sketch import kll_quantiles

    rng = np.random.RandomState(3)
    vals = rng.randint(0, 10_000, size=5_000).astype(np.int64)
    ds = rd.from_items([{"v": int(v)} for v in vals]).repartition(13)
    out = kll_quantiles(ds, "v", capacity=1 << 14).to_pandas()
    s = np.sort(vals)
    n = len(s)
    for _, row in out.iterrows():
        r = max(1, (row.q6 * n + 999_999) // 1_000_000)
        assert row.value == s[r - 1]
        assert row.n == n


def test_kll_compacted_rank_error_bounded(ray_session):
    """Compacted mode (capacity << n): every reported quantile's true
    rank error stays within a few percent of n, regardless of how the
    input is partitioned (merge-order independence of the BOUND, not of
    the exact answer)."""
    import ray.data as rd

    from graphiti_ray.stages.sketch import kll_quantiles

    rng = np.random.RandomState(11)
    vals = rng.randint(0, 1_000_000, size=20_000).astype(np.int64)
    s = np.sort(vals)
    n = len(s)
    for parts in (4, 17):
        ds = rd.from_items([{"v": int(v)} for v in vals]).repartition(parts)
        out = kll_quantiles(ds, "v", capacity=256).to_pandas()
        assert (out.n == n).all()  # compaction preserves total weight
        for _, row in out.iterrows():
            true_rank = np.searchsorted(s, row.value, side="right")
            target = max(1, (row.q6 * n + 999_999) // 1_000_000)
            assert abs(true_rank - target) <= 0.08 * n, (
                row.q6,
                true_rank,
                target,
            )


def test_kll_merge_weight_and_order_invariants():
    """Driver-level merge properties: total weight is preserved exactly
    through compaction, and merging [a, b] vs [b, a] yields sketches of
    identical total weight and size bound."""
    from graphiti_ray.stages.sketch import _kll_add, _kll_merge

    rng = np.random.RandomState(5)
    a = [np.empty(0, np.int64)]
    b = [np.empty(0, np.int64)]
    va = rng.randint(0, 1000, 3_000)
    vb = rng.randint(0, 1000, 2_000)
    a = _kll_add(a, va, 128)
    b = _kll_add(b, vb, 128)

    def total_weight(levels):
        return sum(len(buf) * (1 << i) for i, buf in enumerate(levels))

    assert total_weight(a) == 3_000
    assert total_weight(b) == 2_000
    ab = _kll_merge([x.copy() for x in a], [x.copy() for x in b], 128)
    ba = _kll_merge([x.copy() for x in b], [x.copy() for x in a], 128)
    assert total_weight(ab) == total_weight(ba) == 5_000
    assert sum(len(x) for x in ab) <= 128 + 1


def test_kll_by_group_matches_solo(ray_session):
    """Grouped KLL == running the solo sketch per group slice."""
    import numpy as np
    import ray.data as rd_

    from graphiti_ray.stages.sketch import kll_quantiles, kll_quantiles_by

    rng = np.random.default_rng(7)
    rows = [
        {"g": ["a", "b", "c"][i % 3], "v": int(rng.integers(0, 10_000))}
        for i in range(900)
    ]
    ds = rd_.from_items(rows).repartition(5)
    grouped = {
        (r["g"], r["q6"]): (r["value"], r["n"])
        for r in kll_quantiles_by(ds, "v", "g").take_all()
    }
    for g in "abc":
        solo = kll_quantiles(
            rd_.from_items([r for r in rows if r["g"] == g])
        , "v")
        for r in solo.take_all():
            assert grouped[(g, r["q6"])] == (r["value"], r["n"])


def test_misra_gries_exact_at_capacity_and_error_bound(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd_

    from graphiti_ray.stages.sketch import _mg_shrink, mg_aggregate

    rng = np.random.default_rng(11)
    # zipf-ish stream over 40 items
    items = [f"t{int(i)}" for i in (rng.zipf(1.5, size=4000) % 40)]
    ds = rd_.from_arrow(
        pa.table({"token": pa.array(items, pa.string())})
    ).repartition(7)
    exact = {}
    for t in items:
        exact[t] = exact.get(t, 0) + 1
    # full capacity -> exact
    full = mg_aggregate(ds, "token", capacity=1000)
    assert full == exact
    # compacted -> undercount bounded by N/(cap+1)
    cap = 8
    sk = mg_aggregate(ds, "token", capacity=cap)
    assert len(sk) <= cap
    bound = len(items) / (cap + 1)
    for t, est in sk.items():
        assert 0 < est <= exact[t]
        assert exact[t] - est <= bound
    # shrink decrement rule: drops non-positives, keeps order of heavies
    c = {"a": 10, "b": 5, "c": 1}
    assert _mg_shrink(dict(c), 2) == {"a": 9, "b": 4}
