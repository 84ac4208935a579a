"""Stage 4: edge dedup/merge + bi-temporal invalidation sweep.

Reference parity:
- duplicate-fact merge (D3/D5) ← ``dedupe_edges_bulk`` /
  ``resolve_extracted_edge`` (utils/bulk_utils.py:249-275,
  edge_operations.py:397-497): duplicates keyed by the unordered/ordered
  node pair; a duplicate unions its provenance ``episodes`` list
  (edge_operations.py:263);
- contradiction + invalidation (T1) ← ``resolve_edge_contradictions``
  (edge_operations.py:364-394): for an older edge e and a newer edge r,
  skip if intervals are provably disjoint; else set ``e.invalid_at =
  r.valid_at`` and stamp ``e.expired_at = now``. The reference decides
  *which* facts contradict with an LLM (prompts/invalidate_edges.py:73-95);
  here a deterministic predicate-class table (synth_spec.EXCLUSION_CLASSES)
  plays that role: predicates in a 'pair' class contradict on the same
  (subj, obj); 'subj' classes contradict on the same subj with a different
  obj (e.g. a new employer supersedes the old one).

Order semantics: the reference processes episodes strictly sequentially
(graphiti.py:320-323); we recover identical semantics at full parallelism by
sorting each partition by event time with a total tie-break
(valid_at, uuid) — see SURVEY.md §2.7 T4/T5.

Scale shape: merge pre-aggregates per batch (combiner) before the keyed
shuffle; the sweep shuffles once on a composed partition key that already
includes subj (and obj for pair classes), so hub *entities* split across
their predicate classes and pair partners — the skew note in SURVEY §4 —
rather than landing on one reducer.
"""

from __future__ import annotations

from datetime import datetime

import pandas as pd
import pyarrow as pa

import ray.data as rd

from graphiti_ray.functions.text import edge_uuid
from graphiti_ray.sources.synth_spec import EXCLUSION_CLASSES
from graphiti_ray.stages.extract import DEFAULT_RUN_TS

EDGE_KEY = ["group_id", "subj_uuid", "pred", "obj_uuid"]

# Flattened views of the exclusion table for vectorized key derivation.
_PRED_MODE = {p: c[0] for p, c in EXCLUSION_CLASSES.items()}
_PRED_TAG = {
    p: "|".join(sorted(c[1])) for p, c in EXCLUSION_CLASSES.items() if c[0] == "pair"
}


def _add_inval_key(batch: pa.Table, with_mode: bool) -> pa.Table:
    """Vectorized invalidation-partition key: pair classes key on
    (group, subj, obj, class); subj classes on (group, subj, pred);
    non-exclusive predicates get a singleton key (no-op partition).
    Only the key columns round-trip through pandas — the fat provenance
    payload (``episodes`` can be MBs per row on replicated corpora) stays
    in its Arrow buffers untouched."""
    import numpy as np

    df = batch.select(
        ["group_id", "subj_uuid", "pred", "obj_uuid", "uuid"]
    ).to_pandas()
    mode = df["pred"].map(_PRED_MODE).fillna("none")
    pair_key = (
        "pair|" + df["group_id"] + "|" + df["subj_uuid"] + "|" + df["obj_uuid"]
        + "|" + df["pred"].map(_PRED_TAG).fillna("")
    )
    subj_key = "subj|" + df["group_id"] + "|" + df["subj_uuid"] + "|" + df["pred"]
    none_key = "none|" + df["uuid"]
    key = np.select(
        [mode.eq("pair"), mode.eq("subj")], [pair_key, subj_key], default=none_key
    )
    out = batch.append_column("inval_key", pa.array(key, pa.string()))
    if with_mode:
        out = out.append_column(
            "inval_mode", pa.array(mode.to_numpy(), pa.string())
        )
    return out


def _combine_partial(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner: one row per edge key with (min valid_at, the fact
    asserted earliest — tie-break on episode uuid — and the episode list).

    Emits ``first_episode`` as an explicit tie-break column so partials from
    different batches merge deterministically in the finalizer.
    """
    df = df.sort_values(["valid_at", "episode_uuid"], kind="mergesort")
    grouped = df.groupby(EDGE_KEY, sort=False)
    out = grouped.head(1).copy()
    out = out.rename(columns={"episode_uuid": "first_episode"})
    # provenance as a ','-joined string internally: ragged list columns do
    # not survive pandas<->arrow round-trips inside groupby blocks; the
    # final edges table splits this into list<string>.
    episodes = grouped["episode_uuid"].agg(lambda s: ",".join(sorted(set(s))))
    out["episodes"] = episodes.reindex(
        pd.MultiIndex.from_frame(out[EDGE_KEY])
    ).to_numpy()
    return out


def _merge_finalize_block(tbl: pa.Table, run_ts: datetime) -> pa.Table:
    """Vectorized finalizer over COMPLETE edge-key runs (sorted_run_map
    contract: rows sorted by EDGE_KEY + (valid_at, first_episode)): the
    run's first row carries the earliest assertion's payload; episode
    provenance unions across the run's combiner partials. One Python call
    per BLOCK, not per edge key — the former ``map_groups(finalize)`` paid
    a Python dispatch per distinct edge (billions at 100×)."""
    if tbl.num_rows == 0:
        return pa.table(
            {
                "uuid": pa.array([], pa.string()),
                "group_id": pa.array([], pa.string()),
                "subj_uuid": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj_uuid": pa.array([], pa.string()),
                "subj_canonical": pa.array([], pa.string()),
                "obj_canonical": pa.array([], pa.string()),
                "fact": pa.array([], pa.string()),
                "valid_at": pa.array([], pa.timestamp("us")),
                "episodes": pa.array([], pa.string()),
                "episode_count": pa.array([], pa.int64()),
                "created_at": pa.array([], pa.timestamp("us")),
            }
        )
    from graphiti_ray.stages.ops import _table_run_starts

    starts = _table_run_starts(tbl, list(EDGE_KEY))
    firsts = starts[:-1]
    head = tbl.take(pa.array(firsts, pa.int64()))
    eps = tbl.column("episodes").to_pylist()
    episodes_j: list[str] = []
    counts: list[int] = []
    for s, e in zip(starts[:-1], starts[1:]):
        if e - s == 1:  # common case: the key appeared in one batch
            u = sorted(set(eps[s].split(",")))
        else:
            u = sorted(set().union(*(eps[j].split(",") for j in range(s, e))))
        episodes_j.append(",".join(u))
        counts.append(len(u))
    uuids = [
        edge_uuid(g, s, p, o)
        for g, s, p, o in zip(
            head.column("group_id").to_pylist(),
            head.column("subj_uuid").to_pylist(),
            head.column("pred").to_pylist(),
            head.column("obj_uuid").to_pylist(),
        )
    ]
    n = len(firsts)
    return pa.table(
        {
            "uuid": pa.array(uuids, pa.string()),
            "group_id": head.column("group_id"),
            "subj_uuid": head.column("subj_uuid"),
            "pred": head.column("pred"),
            "obj_uuid": head.column("obj_uuid"),
            "subj_canonical": head.column("subj_canonical"),
            "obj_canonical": head.column("obj_canonical"),
            "fact": head.column("fact"),
            "valid_at": head.column("valid_at").cast(pa.timestamp("us")),
            "episodes": pa.array(episodes_j, pa.string()),
            "episode_count": pa.array(counts, pa.int64()),
            "created_at": pa.array([run_ts] * n, pa.timestamp("us")),
        }
    )


def merged_edges(
    resolved: rd.Dataset | pa.Table, run_ts: datetime = DEFAULT_RUN_TS
) -> rd.Dataset | pa.Table:
    """resolved triples → one edge per (group, subj, pred, obj).

    valid_at = earliest assertion; fact = fact text of the earliest
    assertion (deterministic tie-break on episode uuid); episodes =
    sorted provenance union (EntityEdge.episodes, edges.py:209).

    Shape: per-batch combiner (one row per key per batch) → one range sort
    → vectorized per-block finalize over complete key runs
    (``ops.sorted_run_map``) — no per-key Python dispatch anywhere.
    """
    import functools

    from graphiti_ray.stages.ops import map_table, sorted_run_map

    def combiner(batch: pa.Table) -> pa.Table:
        # Arrow-native combiner: one in-batch sort, run detection, a
        # second lexsort for the episode lists, ListArray + binary_join —
        # zero per-key Python (the former pandas groupby paid a Python
        # lambda per distinct edge key per batch)
        import numpy as np
        import pyarrow.compute as pc

        from graphiti_ray.stages.ops import _table_run_starts

        names = list(batch.column_names)
        out_names = ["first_episode" if c == "episode_uuid" else c for c in names]
        if batch.num_rows == 0:
            empty = batch.rename_columns(out_names)
            return empty.append_column("episodes", pa.array([], pa.string()))

        srt = batch.sort_by(
            [(c, "ascending") for c in EDGE_KEY]
            + [("valid_at", "ascending"), ("episode_uuid", "ascending")]
        )
        starts = _table_run_starts(srt, EDGE_KEY)
        firsts = starts[:-1]
        n = srt.num_rows
        run_id = np.zeros(n, dtype=np.int64)
        run_id[firsts] = 1
        run_id = np.cumsum(run_id) - 1
        eps = srt.column("episode_uuid").to_numpy(zero_copy_only=False)

        # per-run distinct episodes: lexsort by (run, episode), adjacent
        # dedupe, list offsets from the kept counts per run
        order = np.lexsort((eps, run_id))
        r_o, e_o = run_id[order], eps[order]
        keep = np.ones(n, dtype=bool)
        keep[1:] = (r_o[1:] != r_o[:-1]) | (e_o[1:] != e_o[:-1])
        vals = e_o[keep]
        runs_kept = r_o[keep]
        counts = np.bincount(runs_kept, minlength=len(firsts))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(vals, pa.string())
        )
        episodes = pc.binary_join(lists, ",")

        head = srt.take(pa.array(firsts, pa.int64())).rename_columns(out_names)
        return head.append_column("episodes", episodes)

    partial = map_table(resolved, combiner)
    return sorted_run_map(
        partial,
        key_cols=EDGE_KEY,
        order_cols=["valid_at", "first_episode"],
        block_fn=functools.partial(_merge_finalize_block, run_ts=run_ts),
    )


def _sweep_frame(g: pd.DataFrame, run_ts: datetime) -> pd.DataFrame:
    """Sorted per-partition sweep: newer contradicting facts invalidate older.

    Within a partition, rows are sorted by (valid_at, uuid); each edge's
    invalid_at is the valid_at of the first later edge that contradicts it
    (pair class → different predicate; subj class → different obj). With
    edges pre-merged per (s,p,o), every later row in a partition contradicts,
    so this equals lead(valid_at) — which is exactly what the DuckDB oracle
    computes, keeping both sides honest.
    """
    g = g.sort_values(["valid_at", "uuid"], kind="mergesort").reset_index(drop=True)
    n = len(g)
    invalid = [pd.NaT] * n
    expired = [pd.NaT] * n
    mode = g["inval_mode"].iloc[0]
    for i in range(n):
        for j in range(i + 1, n):
            # strict inequality: the reference kernel only invalidates when
            # e.valid_at < r.valid_at (edge_operations.py:385) — equal-time
            # facts never invalidate each other
            if g["valid_at"].iloc[j] <= g["valid_at"].iloc[i]:
                continue
            contradicts = (
                g["pred"].iloc[j] != g["pred"].iloc[i]
                if mode == "pair"
                else g["obj_uuid"].iloc[j] != g["obj_uuid"].iloc[i]
            )
            if contradicts:
                invalid[i] = g["valid_at"].iloc[j]
                expired[i] = pd.Timestamp(run_ts)
                break
    g["invalid_at"] = pd.Series(invalid, dtype="datetime64[us]")
    g["expired_at"] = pd.Series(expired, dtype="datetime64[us]")
    return g


def invalidation_sweep(
    edges: rd.Dataset, run_ts: datetime = DEFAULT_RUN_TS
) -> rd.Dataset:
    """T1 over the merged edge table; non-exclusive predicates pass through
    with null invalid_at/expired_at. Per-key groupby shape — prefer
    :func:`invalidation_sweep_scalable` (the default KG path), keeping this
    as the independently-implemented equivalence witness."""

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        if g["inval_mode"].iloc[0] == "none":
            g = g.copy()
            g["invalid_at"] = pd.Series([pd.NaT] * len(g), dtype="datetime64[us]")
            g["expired_at"] = pd.Series([pd.NaT] * len(g), dtype="datetime64[us]")
            return g
        return _sweep_frame(g, run_ts)

    keyed = edges.map_batches(
        lambda b: _add_inval_key(b, with_mode=True), batch_format="pyarrow"
    )
    out = keyed.groupby("inval_key").map_groups(sweep, batch_format="pandas")
    return out.drop_columns(["inval_key", "inval_mode"])


def invalidation_sweep_scalable(
    edges: rd.Dataset | pa.Table, run_ts: datetime = DEFAULT_RUN_TS
) -> rd.Dataset | pa.Table:
    """Hub-safe variant of :func:`invalidation_sweep`.

    Precondition: ``edges`` is the *merged* table (one row per
    (group, subj, pred, obj)); then every later row within an invalidation
    partition contradicts every earlier one, so the sweep reduces to
    ``lead(valid_at) OVER (PARTITION BY inval_key ORDER BY valid_at,
    uuid)`` — computed by ``ops.sorted_lead`` as one global range sort plus
    a block-boundary exchange. No per-key grouping exists anywhere, so a
    hub entity whose partition exceeds a block costs nothing extra
    (the skew answer for SURVEY §4's "salted keys" row).

    Equivalent to ``invalidation_sweep`` on merged inputs (asserted by
    tests); the DEFAULT sweep on the KG hot path (kg.py / incremental.py).
    """
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import map_table, sorted_lead

    keyed = map_table(edges, lambda b: _add_inval_key(b, with_mode=False))
    led = sorted_lead(
        keyed, ["inval_key"], ["valid_at", "uuid"], "valid_at", out_col="invalid_at"
    )

    def finish(batch: pa.Table) -> pa.Table:
        inval = batch.column("invalid_at")
        expired = pc.if_else(
            pc.is_valid(inval),
            pa.scalar(run_ts, pa.timestamp("us")),
            pa.scalar(None, pa.timestamp("us")),
        )
        out = batch.append_column("expired_at", expired)
        return out.drop_columns(["inval_key"])

    return map_table(led, finish, zero_copy_batch=True)


def resolve_edge_contradictions(
    resolved_edge: dict, invalidation_candidates: list[dict], now: datetime
) -> list[dict]:
    """Pure per-pair kernel with verbatim reference semantics
    (edge_operations.py:364-394): given a new fact and candidate existing
    edges, return the candidates it invalidates, mutated in place.

    - skip candidates whose validity interval is provably disjoint from the
      new edge's (``e.invalid_at <= r.valid_at`` or
      ``r.invalid_at <= e.valid_at``);
    - an older candidate (``e.valid_at < r.valid_at``) gets
      ``invalid_at = r.valid_at`` and ``expired_at = now``.

    The dataset-level ``invalidation_sweep`` is the batch application of
    this kernel under event-time order; this function exists for parity
    tests (FIXTURES.md F3) and for incremental (per-new-edge) use.
    """
    invalidated = []
    r_valid = resolved_edge.get("valid_at")
    r_invalid = resolved_edge.get("invalid_at")
    for edge in invalidation_candidates:
        e_valid = edge.get("valid_at")
        e_invalid = edge.get("invalid_at")
        if (e_invalid is not None and r_valid is not None and e_invalid <= r_valid) or (
            r_invalid is not None and e_valid is not None and r_invalid <= e_valid
        ):
            continue  # disjoint intervals: no interaction
        if e_valid is not None and r_valid is not None and e_valid < r_valid:
            edge["invalid_at"] = r_valid
            # preserve an existing transaction-time expiry; only stamp `now`
            # when unset (edge_operations.py:389 keeps the first expired_at)
            edge["expired_at"] = edge.get("expired_at") or now
            invalidated.append(edge)
    return invalidated


def episodes_to_list(edges: rd.Dataset | pa.Table) -> rd.Dataset | pa.Table:
    """Final schema fix-up: provenance ','-string → list<string> (the
    EntityEdge.episodes shape, edges.py:209). Vectorized Arrow kernel."""
    from graphiti_ray.stages.ops import map_table

    def split(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = batch.column_names.index("episodes")
        lists = pc.split_pattern(batch.column("episodes"), ",")
        return batch.set_column(idx, "episodes", lists)

    return map_table(edges, split, zero_copy_batch=True)


def edges_valid_at_episodes(
    episodes: rd.Dataset, edges: rd.Dataset
) -> rd.Dataset:
    """Bi-temporal point-in-interval range join: for every episode, the
    number of edges in its group valid AT its timestamp
    (edge.valid_at <= ts < edge.invalid_at, open end — the reference's
    point-in-time view over EntityEdge validity intervals).

    Ray Data has no range join; the scale shape is the interval sweep:
    encode edge starts as +1, edge ends as -1, episodes as 0-delta probe
    rows, one global range sort per group on (ts, kind), then
    ``ops.sorted_prefix_sum`` (per-block vectorized cumsum + one carried
    integer per block boundary). No per-group Python, no all-to-all
    beyond the single sort; a hub group spanning many blocks carries one
    int per boundary. Output: (episode_uuid, group_id, n_valid_edges).
    """
    from graphiti_ray.stages.ops import sorted_prefix_sum

    def starts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "group_id": batch.column("group_id"),
                "ts": batch.column("valid_at"),
                "kind": pa.array([1] * n, pa.int8()),
                "delta": pa.array([1] * n, pa.int64()),
                "episode_uuid": pa.nulls(n, pa.string()),
            }
        )

    def ends(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_valid(batch.column("invalid_at")))
        n = batch.num_rows
        return pa.table(
            {
                "group_id": batch.column("group_id"),
                "ts": batch.column("invalid_at"),
                "kind": pa.array([0] * n, pa.int8()),
                "delta": pa.array([-1] * n, pa.int64()),
                "episode_uuid": pa.nulls(n, pa.string()),
            }
        )

    def probes(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "group_id": batch.column("group_id"),
                "ts": batch.column("valid_at"),
                "kind": pa.array([2] * n, pa.int8()),
                "delta": pa.array([0] * n, pa.int64()),
                "episode_uuid": batch.column("uuid"),
            }
        )

    edge_cols = edges.select_columns(["group_id", "valid_at", "invalid_at"])
    events = (
        edge_cols.map_batches(starts, batch_format="pyarrow")
        .union(edge_cols.map_batches(ends, batch_format="pyarrow"))
        .union(
            episodes.select_columns(["uuid", "group_id", "valid_at"]).map_batches(
                probes, batch_format="pyarrow"
            )
        )
    )
    swept = sorted_prefix_sum(
        events, by=["group_id"], order_cols=["ts", "kind"], delta_col="delta",
        out_col="n_valid_edges",
    )

    def keep_probes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_valid(batch.column("episode_uuid")))
        return batch.select(["episode_uuid", "group_id", "n_valid_edges"])

    return swept.map_batches(keep_probes, batch_format="pyarrow")


# --- validity-interval coalescing ---------------------------------------------

_TS_OPEN_US = (1 << 62)  # sentinel for an open (invalid_at IS NULL) interval


def coalesce_intervals(
    edges: rd.Dataset,
    key_cols: list[str],
    start_col: str = "valid_at",
    end_col: str = "invalid_at",
) -> rd.Dataset:
    """Temporal interval coalescing (the SQL:2011 'pack' / gaps-and-
    islands operator): per key, merge overlapping-or-touching
    [start, end) validity intervals into maximal islands — e.g. "when
    was ANY fact of this (subj, pred) active". Open intervals
    (``end_col`` NULL) extend their island to +∞ (NULL in the output).
    Touching intervals (next.start == prev.end) MERGE (the standard
    coalesce rule).

    One range sort by (key, start, end-with-∞-sentinel) → per-run island
    detection on the ``sorted_run_map`` contract: new island ⇔ start >
    running max of prior ends; reduceat aggregation per island — no
    per-row Python, one shuffle total.

    Output: key_cols + (valid_from, valid_to NULL-if-open, n_edges).
    """
    import numpy as np
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import sorted_run_map

    def add_sentinels(t: pa.Table) -> pa.Table:
        # normalize to µs BEFORE the int64 view — inputs may arrive at
        # s/ms/ns precision and the int64 cast preserves the raw unit
        s = pc.cast(pc.cast(t.column(start_col), pa.timestamp("us")), pa.int64())
        e = pc.fill_null(
            pc.cast(
                pc.cast(t.column(end_col), pa.timestamp("us")), pa.int64()
            ),
            _TS_OPEN_US,
        )
        keep = [c for c in key_cols if c in t.column_names]
        return pa.table(
            {**{c: t.column(c) for c in keep}, "s_us": s, "e_us": e}
        )

    narrow = edges.select_columns(
        key_cols + [start_col, end_col]
    ).map_batches(add_sentinels, batch_format="pyarrow", zero_copy_batch=True)

    def kernel(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        empty = pa.table(
            {
                **{
                    c: pa.array([], tbl.schema.field(c).type)
                    for c in key_cols
                },
                "valid_from": pa.array([], pa.timestamp("us")),
                "valid_to": pa.array([], pa.timestamp("us")),
                "n_edges": pa.array([], pa.int64()),
            }
        )
        n = tbl.num_rows
        if n == 0:
            return empty
        starts = _table_run_starts(tbl, key_cols)
        s = tbl.column("s_us").to_numpy(zero_copy_only=False)
        e = tbl.column("e_us").to_numpy(zero_copy_only=False)
        # island starts: first row of each key run, or start beyond the
        # running max of prior ends WITHIN the run
        ni = np.zeros(n, dtype=bool)
        for a, b in zip(starts[:-1], starts[1:]):
            ni[a] = True
            if b - a > 1:
                run_max = np.maximum.accumulate(e[a:b])
                ni[a + 1 : b] = s[a + 1 : b] > run_max[:-1]
        isl = np.nonzero(ni)[0]
        isl_end = np.append(isl[1:], n)
        v_from = s[isl]  # rows sorted by s within runs → island min = first
        v_to = np.maximum.reduceat(e, isl)
        cnt = (isl_end - isl).astype(np.int64)
        cols = {
            c: tbl.column(c).take(pa.array(isl, pa.int64())) for c in key_cols
        }
        open_mask = v_to == _TS_OPEN_US
        valid_to = pc.if_else(
            pa.array(~open_mask),
            pa.array(v_to, pa.int64()).cast(pa.timestamp("us")),
            pa.nulls(len(v_to), pa.timestamp("us")),
        )
        return pa.table(
            {
                **cols,
                "valid_from": pa.array(v_from, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "valid_to": valid_to,
                "n_edges": pa.array(cnt, pa.int64()),
            }
        )

    return sorted_run_map(
        narrow, key_cols=key_cols, order_cols=["s_us", "e_us"], block_fn=kernel
    )


ALLEN_SENTINEL_US = 253_370_764_800_000_000  # 9999-12-31T00:00:00 in µs


def allen_census(
    edges: rd.Dataset,
    key_cols: tuple = ("group_id", "subj_uuid", "obj_uuid"),
    id_col: str = "uuid",
    start_col: str = "valid_at",
    end_col: str = "invalid_at",
) -> rd.Dataset:
    """Allen interval-algebra census (Allen 1983) over the bi-temporal
    edge table → ``(relation, n_pairs)``: every unordered pair of facts
    about the same ``key_cols`` (default: same subject–object pair) is
    classified into one of the 13 Allen relations between their
    ``[valid_at, invalid_at)`` validity windows — the temporal-consistency
    profile of the graph (how often do co-asserted facts about a pair
    overlap vs abut vs nest). Open intervals take the 9999-12-31 sentinel,
    same convention as ``coalesce_intervals``.

    Shape: one hash self-join on ``key_cols`` (group sizes are bounded by
    the predicate vocabulary per node pair, so the join output is
    O(edges·preds), not quadratic in the corpus), then a vectorized
    ordered rule chain (``np.select`` — evaluation order matches the SQL
    CASE twin exactly, so degenerate zero-length intervals classify
    identically) and a 13-row groupby-sum. ``uuid_a < uuid_b`` orders each
    pair once."""
    import numpy as np
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    keys = list(key_cols)
    narrow = edges.select_columns(keys + [id_col, start_col, end_col])

    def side(suffix: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {k: t.column(k) for k in keys}
            cols[f"u{suffix}"] = t.column(id_col)
            cols[f"s{suffix}"] = t.column(start_col)
            cols[f"e{suffix}"] = t.column(end_col)
            return pa.table(cols)

        return fn

    left = narrow.map_batches(side("1"), batch_format="pyarrow")
    right = narrow.map_batches(side("2"), batch_format="pyarrow")
    joined = safe_join(
        left,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=tuple(keys),
    )

    def classify(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("u1"), t.column("u2")))
        if t.num_rows == 0:
            return pa.table(
                {
                    "relation": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )

        def us(col, fill=None):
            a = t.column(col).cast(pa.timestamp("us")).cast(pa.int64())
            if fill is not None:
                a = pc.fill_null(a, fill)
            ok = pc.is_valid(a).to_numpy(zero_copy_only=False)
            vals = pc.fill_null(a, 0).to_numpy(zero_copy_only=False)
            return vals.astype(np.int64), ok

        (s1, k1), (s2, k2) = us("s1"), us("s2")
        e1, _ = us("e1", ALLEN_SENTINEL_US)
        e2, _ = us("e2", ALLEN_SENTINEL_US)
        # a null start makes every comparison on it NULL in the SQL twin,
        # so a rule fires only when the starts it reads are present
        k = k1 & k2
        conds = [
            k & (s1 == s2) & (e1 == e2),
            k2 & (e1 < s2),
            k1 & (e2 < s1),
            k2 & (e1 == s2),
            k1 & (e2 == s1),
            k & (s1 < s2) & (s2 < e1) & (e1 < e2),
            k & (s2 < s1) & (s1 < e2) & (e2 < e1),
            k & (s1 == s2) & (e1 < e2),
            k & (s1 == s2) & (e2 < e1),
            k & (s2 < s1) & (e1 < e2),
            k & (s1 < s2) & (e2 < e1),
            k & (e1 == e2) & (s2 < s1),
            k & (e1 == e2) & (s1 < s2),
        ]
        names = [
            "equals", "before", "before_i", "meets", "meets_i",
            "overlaps", "overlaps_i", "starts", "starts_i",
            "during", "during_i", "finishes", "finishes_i",
        ]
        rel = np.select(conds, names, default="other")
        tbl = pa.table({"relation": pa.array(rel.tolist(), pa.string())})
        return (
            tbl.group_by(["relation"])
            .aggregate([([], "count_all")])
            .rename_columns(["relation", "c"])
        )

    return (
        joined.map_batches(classify, batch_format="pyarrow")
        .groupby("relation")
        .sum("c")
        .map_batches(
            lambda t: t.rename_columns(["relation", "n_pairs"]),
            batch_format="pyarrow",
        )
    )


def invalidation_report(edges: rd.Dataset) -> rd.Dataset:
    """Contradiction provenance: WHICH newer fact invalidated each edge →
    ``(uuid, invalidated_by, invalid_at)`` — the per-edge audit trail the
    reference logs when ``resolve_edge_contradictions`` expires an edge
    (edge_operations.py:364-394); the sweep itself only keeps the
    timestamp, this op recovers the invalidator's identity.

    Plain-lead semantics (next row in the invalidation partition ordered
    by (valid_at, uuid)) realized scale-safely as ``window_rank`` (one
    range sort, hub-safe index arithmetic) + a self-join on (partition,
    rank+1) — no per-key dispatch. Singleton no-op partitions are dropped
    before the sort. The SQL twin is lead(uuid)/lead(valid_at) over the
    same exclusion-class windows."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join
    from graphiti_ray.stages.ops import window_rank

    keyed = (
        edges.select_columns(
            ["uuid", "group_id", "subj_uuid", "pred", "obj_uuid", "valid_at"]
        )
        .map_batches(
            lambda b: _add_inval_key(b, with_mode=False), batch_format="pyarrow"
        )
        .map_batches(
            lambda t: t.filter(
                pc.invert(pc.starts_with(t.column("inval_key"), "none|"))
            ).select(["inval_key", "uuid", "valid_at"]),
            batch_format="pyarrow",
        )
    )
    ranked = window_rank(
        keyed, ["inval_key"], ["valid_at", "uuid"], rank_col="rn"
    )
    cur = ranked.map_batches(
        lambda t: pa.table(
            {
                "inval_key": t.column("inval_key"),
                "rn": t.column("rn"),
                "uuid": t.column("uuid"),
            }
        ),
        batch_format="pyarrow",
    )
    nxt = ranked.map_batches(
        lambda t: pa.table(
            {
                "inval_key": t.column("inval_key"),
                "rn": pc.subtract(t.column("rn"), 1),
                "invalidated_by": t.column("uuid"),
                "invalid_at": t.column("valid_at"),
            }
        ),
        batch_format="pyarrow",
    )
    return safe_join(
        cur,
        nxt,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("inval_key", "rn"),
    ).map_batches(
        lambda t: t.select(["uuid", "invalidated_by", "invalid_at"]),
        batch_format="pyarrow",
    )
