"""Unit tests: the T1 contradiction kernel — verbatim reference semantics
(edge_operations.py:364-394) over the FIXTURES.md F3 scenarios."""

from datetime import datetime

import pandas as pd

from graphiti_ray.stages.temporal import _sweep_frame, resolve_edge_contradictions

T1 = datetime(2024, 1, 1)
T2 = datetime(2024, 2, 1)
T3 = datetime(2024, 3, 1)
NOW = datetime(2024, 7, 1)


def test_kernel_supersede():
    old = {"uuid": "e1", "valid_at": T1, "invalid_at": None}
    new = {"uuid": "e2", "valid_at": T2, "invalid_at": None}
    out = resolve_edge_contradictions(new, [old], NOW)
    assert out == [old]
    assert old["invalid_at"] == T2 and old["expired_at"] == NOW


def test_kernel_disjoint_skipped():
    # e.invalid_at <= r.valid_at → provably disjoint, untouched
    old = {"uuid": "e1", "valid_at": T1, "invalid_at": T2}
    new = {"uuid": "e2", "valid_at": T2, "invalid_at": None}
    assert resolve_edge_contradictions(new, [old], NOW) == []
    assert old["invalid_at"] == T2 and "expired_at" not in old
    # r.invalid_at <= e.valid_at → also disjoint
    old2 = {"uuid": "e3", "valid_at": T3, "invalid_at": None}
    new2 = {"uuid": "e4", "valid_at": T1, "invalid_at": T3}
    assert resolve_edge_contradictions(new2, [old2], NOW) == []


def test_kernel_newer_candidate_not_invalidated():
    newer = {"uuid": "e1", "valid_at": T3, "invalid_at": None}
    new = {"uuid": "e2", "valid_at": T2, "invalid_at": None}
    assert resolve_edge_contradictions(new, [newer], NOW) == []


def _sweep(rows, mode):
    df = pd.DataFrame(rows, columns=["uuid", "pred", "obj_uuid", "valid_at"])
    df["inval_mode"] = mode
    out = _sweep_frame(df, NOW)
    return out.set_index("uuid")


def test_sweep_pair_likes_dislikes():
    out = _sweep(
        [("a", "LIKES", "o", T1), ("b", "DISLIKES", "o", T2)], "pair"
    )
    assert out.loc["a", "invalid_at"] == T2
    assert out.loc["a", "expired_at"] == pd.Timestamp(NOW)
    assert pd.isna(out.loc["b", "invalid_at"])


def test_sweep_pair_same_pred_no_contradiction():
    out = _sweep([("a", "LIKES", "o", T1), ("b", "LIKES", "o", T2)], "pair")
    assert pd.isna(out.loc["a", "invalid_at"])


def test_sweep_subj_mode_new_object_supersedes():
    out = _sweep(
        [
            ("a", "WORKS_AT", "acme", T1),
            ("b", "WORKS_AT", "globex", T2),
            ("c", "WORKS_AT", "initech", T3),
        ],
        "subj",
    )
    assert out.loc["a", "invalid_at"] == T2
    assert out.loc["b", "invalid_at"] == T3
    assert pd.isna(out.loc["c", "invalid_at"])


def test_sweep_out_of_order_input_same_result():
    rows = [("b", "DISLIKES", "o", T2), ("a", "LIKES", "o", T1)]
    out = _sweep(rows, "pair")
    assert out.loc["a", "invalid_at"] == T2
    assert pd.isna(out.loc["b", "invalid_at"])


def test_sweep_equal_timestamps_never_invalidate():
    # strict kernel semantics (edge_operations.py:385): equal valid_at facts
    # do not invalidate each other, regardless of uuid order
    out = _sweep([("b", "DISLIKES", "o", T1), ("a", "LIKES", "o", T1)], "pair")
    assert pd.isna(out.loc["a", "invalid_at"])
    assert pd.isna(out.loc["b", "invalid_at"])


def test_sweep_equal_then_later_still_invalidates():
    out = _sweep(
        [("a", "DISLIKES", "o", T1), ("b", "LIKES", "o", T1), ("c", "LIKES", "o", T2)],
        "pair",
    )
    # a (DISLIKES@T1) is invalidated by the strictly later LIKES@T2,
    # skipping the equal-time LIKES@T1
    assert out.loc["a", "invalid_at"] == T2
    assert pd.isna(out.loc["b", "invalid_at"]) and pd.isna(out.loc["c", "invalid_at"])


def test_coalesce_intervals_islands(ray_session):
    from datetime import datetime

    import ray.data as rd_

    from graphiti_ray.stages.temporal import coalesce_intervals

    T = lambda d: datetime(2024, 1, d)  # noqa: E731
    rows = [
        # key k1: [1,3) + [2,5) overlap -> island [1,5); [5,7) TOUCHES -> merges;
        # [9, None) separate open island
        {"k": "k1", "valid_at": T(1), "invalid_at": T(3)},
        {"k": "k1", "valid_at": T(2), "invalid_at": T(5)},
        {"k": "k1", "valid_at": T(5), "invalid_at": T(7)},
        {"k": "k1", "valid_at": T(9), "invalid_at": None},
        # key k2: earlier OPEN interval swallows everything after it
        {"k": "k2", "valid_at": T(1), "invalid_at": None},
        {"k": "k2", "valid_at": T(4), "invalid_at": T(6)},
    ]
    out = (
        coalesce_intervals(rd_.from_items(rows), key_cols=["k"])
        .to_pandas()
        .sort_values(["k", "valid_from"])
        .reset_index(drop=True)
    )
    recs = [
        (r.k, r.valid_from.day, None if pd.isna(r.valid_to) else r.valid_to.day, r.n_edges)
        for r in out.itertuples()
    ]
    assert recs == [
        ("k1", 1, 7, 3),
        ("k1", 9, None, 1),
        ("k2", 1, None, 2),
    ]


def test_arrow_combiner_matches_pandas_witness(ray_session):
    """The Arrow-native merged_edges combiner (sort + run detection +
    binary_join) must agree with the pandas `_combine_partial` witness on
    winner rows and per-key episode sets — including duplicate
    (key, episode) assertions and ties on valid_at."""
    from datetime import datetime, timedelta

    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from graphiti_ray.stages.temporal import (
        EDGE_KEY,
        _combine_partial,
        merged_edges,
    )

    T0 = datetime(2024, 1, 1)
    rows = []
    for i, (g, s, p, o, ep, dt) in enumerate(
        [
            ("g1", "a", "WORKS_AT", "x", "ep2", 2),
            ("g1", "a", "WORKS_AT", "x", "ep1", 1),
            ("g1", "a", "WORKS_AT", "x", "ep1", 1),   # dup (key, episode)
            ("g1", "a", "WORKS_AT", "x", "ep3", 1),   # tie on valid_at
            ("g1", "b", "LIKES", "y", "ep9", 5),
            ("g2", "a", "WORKS_AT", "x", "ep4", 0),
        ]
    ):
        rows.append(
            {
                "uuid": f"u{i}",
                "group_id": g,
                "subj_uuid": s,
                "pred": p,
                "obj_uuid": o,
                "subj_canonical": s.upper(),
                "obj_canonical": o.upper(),
                "fact": f"fact {i}",
                "valid_at": T0 + timedelta(hours=dt),
                "episode_uuid": ep,
            }
        )
    out = (
        merged_edges(rd.from_items(rows))
        .to_pandas()
        .sort_values(EDGE_KEY)
        .reset_index(drop=True)
    )
    # the pandas witness, finalized by hand: winner = min (valid_at,
    # episode); episodes = sorted distinct union
    w = _combine_partial(pd.DataFrame(rows))
    w = (
        w.sort_values(["valid_at", "first_episode"], kind="mergesort")
        .groupby(EDGE_KEY, sort=True, as_index=False)
        .agg(
            fact=("fact", "first"),
            valid_at=("valid_at", "first"),
            episodes=("episodes", lambda s: sorted(set(",".join(s).split(",")))),
        )
    )
    assert len(out) == len(w) == 3
    for got, want in zip(out.itertuples(), w.itertuples()):
        assert got.fact == want.fact and got.valid_at == want.valid_at
        # merged_edges carries provenance as the ','-joined internal string
        # (episodes_to_list splits it in the final schema)
        assert sorted(got.episodes.split(",")) == want.episodes


def test_allen_census_hand(ray_session):
    """Five intervals on one (g,s,o) key: equals, meets×3, during_i×2,
    overlaps×2, before_i, during — all 10 unordered pairs classified,
    open interval takes the sentinel end."""
    from datetime import datetime

    import ray.data as rd_

    from graphiti_ray.stages.temporal import allen_census

    def ts(m):
        return datetime(2024, 1, 1, 0, m)

    rows = [
        ("a", ts(0), ts(10)),
        ("b", ts(0), ts(10)),
        ("c", ts(10), ts(20)),
        ("d", ts(2), ts(5)),
        ("e", ts(5), None),
    ]
    edges = rd_.from_items(
        [
            {
                "group_id": "g",
                "subj_uuid": "s",
                "obj_uuid": "o",
                "uuid": u,
                "valid_at": s,
                "invalid_at": e,
            }
            for u, s, e in rows
        ]
    )
    got = {
        r["relation"]: r["n_pairs"] for r in allen_census(edges).take_all()
    }
    assert got == {
        "equals": 1,
        "meets": 3,
        "during_i": 2,
        "overlaps": 2,
        "before_i": 1,
        "during": 1,
    }


def test_allen_census_random_vs_bruteforce(ray_session):
    """60 random intervals across 3 keys vs a pure-Python brute-force
    classifier with the same ordered rule chain — and exhaustiveness:
    no pair may fall to 'other' when every interval has s < e."""
    import random
    from datetime import datetime, timedelta

    import ray.data as rd_

    from graphiti_ray.stages.temporal import allen_census

    rng = random.Random(7)
    base = datetime(2024, 1, 1)
    items, recs = [], []
    for i in range(60):
        key = f"k{i % 3}"
        s = rng.randrange(0, 50)
        e = s + rng.randrange(1, 20)
        open_iv = rng.random() < 0.2
        items.append(
            {
                "group_id": "g",
                "subj_uuid": key,
                "obj_uuid": "o",
                "uuid": f"u{i:03d}",
                "valid_at": base + timedelta(hours=s),
                "invalid_at": None if open_iv else base + timedelta(hours=e),
            }
        )
        recs.append((key, f"u{i:03d}", s, 10**6 if open_iv else e))

    def classify(s1, e1, s2, e2):
        rules = [
            (s1 == s2 and e1 == e2, "equals"),
            (e1 < s2, "before"),
            (e2 < s1, "before_i"),
            (e1 == s2, "meets"),
            (e2 == s1, "meets_i"),
            (s1 < s2 < e1 < e2, "overlaps"),
            (s2 < s1 < e2 < e1, "overlaps_i"),
            (s1 == s2 and e1 < e2, "starts"),
            (s1 == s2 and e2 < e1, "starts_i"),
            (s2 < s1 and e1 < e2, "during"),
            (s1 < s2 and e2 < e1, "during_i"),
            (e1 == e2 and s2 < s1, "finishes"),
            (e1 == e2 and s1 < s2, "finishes_i"),
        ]
        for cond, name in rules:
            if cond:
                return name
        return "other"

    from collections import Counter

    want: Counter = Counter()
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            (ka, ua, sa, ea), (kb, ub, sb, eb) = recs[i], recs[j]
            if ka != kb:
                continue
            if ua > ub:
                sa, ea, sb, eb = sb, eb, sa, ea
            want[classify(sa, ea, sb, eb)] += 1
    assert "other" not in want  # the 13 relations are exhaustive for s<e

    got = {
        r["relation"]: r["n_pairs"]
        for r in allen_census(rd_.from_items(items)).take_all()
    }
    assert got == dict(want)


def test_allen_census_null_start_matches_sql_case(ray_session):
    """A null valid_at makes the SQL CASE twin's comparisons on it NULL:
    (s1 null, e1 = e2 = sentinel) falls to 'other', while (s1 null,
    e1 < s2) is still 'before'. Runs the oracle's own CASE chain in DuckDB
    over the same pairs and compares it with allen_census."""
    import os
    import sys
    from datetime import datetime

    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd_

    from graphiti_ray.stages.temporal import allen_census

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    sentinel = datetime(9999, 12, 31)
    rows = [  # (subj, uuid, valid_at, invalid_at); u1 < u2 per key
        ("s", "u1", None, None),
        ("s", "u2", datetime(2024, 1, 1), None),
        ("t", "u3", None, datetime(2020, 1, 1)),
        ("t", "u4", datetime(2021, 1, 1), None),
    ]
    subj, uuid, valid_at, invalid_at = zip(*rows)
    edges = rd_.from_arrow(  # typed columns: an all-null block is not null-typed
        pa.table(
            {
                "group_id": ["g"] * len(rows),
                "subj_uuid": list(subj),
                "obj_uuid": ["o"] * len(rows),
                "uuid": list(uuid),
                "valid_at": pa.array(valid_at, pa.timestamp("us")),
                "invalid_at": pa.array(invalid_at, pa.timestamp("us")),
            }
        )
    )
    got = {r["relation"]: r["n_pairs"] for r in allen_census(edges).take_all()}

    pr = pd.DataFrame(  # noqa: F841 (read by DuckDB by name)
        [
            {"s1": a[2], "e1": a[3] or sentinel, "s2": b[2], "e2": b[3] or sentinel}
            for a, b in (rows[0:2], rows[2:4])
        ]
    ).astype("datetime64[us]")
    sql = e.oracle_sql()["kg_allen_census"]
    tail = sql[sql.index("cls AS (") :]
    want = dict(duckdb.sql(f"WITH {tail}").fetchall())
    assert want == {"other": 1, "before": 1}
    assert got == want


def test_invalidation_report_consistent_with_sweep(ray_session):
    """Every edge the sweep invalidated appears in the report with the
    SAME invalid_at (plain lead == strict lead holds on merged edges:
    (valid_at, uuid) is unique within an invalidation partition), and
    each invalidator is a real edge uuid."""
    from graphiti_ray.pipelines.kg import build_kg
    from graphiti_ray.sources.pages import pages_dataset
    from graphiti_ray.stages.temporal import invalidation_report

    tables = build_kg(
        pages_dataset("/root/testdata/sf0.001"), embeddings=False
    )
    edges = tables["edges"].to_pandas()
    rep = invalidation_report(tables["edges"]).to_pandas()

    swept = edges[edges.invalid_at.notna()]
    assert len(rep) == len(swept)
    merged = rep.merge(edges[["uuid", "invalid_at"]], on="uuid", suffixes=("_rep", "_tbl"))
    assert len(merged) == len(rep)
    assert (merged.invalid_at_rep == merged.invalid_at_tbl).all()
    assert rep.invalidated_by.isin(set(edges.uuid)).all()
