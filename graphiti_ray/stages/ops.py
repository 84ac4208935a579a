"""Generic dataset operators missing from Ray Data's surface.

- ``distinct_by_key``  exact global distinct keeping the first row per key.
  ``groupby(key).aggregate(...)`` pays Python-level per-key aggregation
  (~10s per 700k keys measured); a range sort (+3s/700k) plus vectorized
  adjacent-dedup per block is an order of magnitude cheaper. Block
  boundaries are handled explicitly: after the sort, a key can straddle two
  blocks, so each block also drops its leading run when it equals the
  previous block's trailing key (computed by a cheap remote scan pass).

Assumes rows with equal keys are interchangeable (true when the key is a
content hash of the row, as with our deterministic uuids); for
first-by-order semantics sort on (key, order_col).

The sort-based operators (``sorted_run_map``, ``sorted_lead``,
``sorted_lag_list``, ``sorted_prefix_sum``, ``distinct_by_key``,
``annotate_run_lengths``) pick where they run by one rule, whether the
materialized input fits ``SMALL_SORT_ROWS`` rows and ``SMALL_SORT_BYTES``
bytes (``state.checkpoint.fits_in_process``, the bound search and ingest
use too):

- it fits: the whole input is fetched and sorted as one ``pa.Table`` in
  the calling process (``_sorted_table``). ``sorted_run_map`` and
  ``sorted_lead`` then run their kernel once over that table there; one
  table has no block boundaries, so no boundary-info, carry or apply task
  starts, and ``carry_cap`` cannot overflow;
- it does not: Ray's distributed range sort, then the per-block kernels
  with their block-boundary exchange.

Given a ``pa.Table`` instead of a Dataset, ``sorted_run_map``,
``sorted_lead`` and ``distinct_by_key_contiguous`` run their kernel once
over it in the calling process and return a table: the caller has
already chosen the in-process tier (``pipelines/incremental.py`` chains
the ingest kernels this way). ``map_table`` is the same dispatch for a
plain per-batch map.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data as rd

from graphiti_ray.state.checkpoint import fetch_table, fits_in_process


_SORT_BLOCK_BYTES = 32 << 20
_SORT_BLOCK_ROWS = 65_536

# in-process bounds: within both, an input is one small table (a
# combiner-collapsed keyset, never a corpus), and Ray's distributed sort
# would pay 2 extra materialize barriers plus an O(P²) small-object
# exchange on it — measured ~0.5-1.5 s of pure latency per barrier at 16
# cpus, the serial floor of the edges/mention stages. Same bounded-driver-
# path contract as dedup.SMALL_CC_LIMIT / BROADCAST_LIMIT.
SMALL_SORT_ROWS = 262_144
SMALL_SORT_BYTES = 64 << 20


def block_refs(ds: rd.Dataset) -> list:
    """Object refs of a materialized Dataset's blocks, in order."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    return refs


def map_table(rows: rd.Dataset | pa.Table, fn, **kw) -> rd.Dataset | pa.Table:
    """``fn(rows)`` in this process for a ``pa.Table``, else
    ``rows.map_batches(fn, batch_format="pyarrow", **kw)``."""
    if isinstance(rows, pa.Table):
        return fn(rows)
    return rows.map_batches(fn, batch_format="pyarrow", **kw)


def select_columns(rows: rd.Dataset | pa.Table, cols: list[str]) -> rd.Dataset | pa.Table:
    """``rows`` projected to ``cols``, a table or a Dataset."""
    return rows.select(cols) if isinstance(rows, pa.Table) else rows.select_columns(cols)


def _sort_table(tbl: pa.Table, cols: list[str]) -> pa.Table:
    """``tbl`` sorted by ``cols``, nulls last (Ray's sort order)."""
    if not tbl.num_rows:
        return tbl
    return tbl.combine_chunks().sort_by([(c, "ascending") for c in cols])


def _sorted_table(mat: rd.Dataset, cols: list[str]) -> pa.Table | None:
    """The whole materialized input as one ``pa.Table`` sorted by ``cols``
    when it fits the in-process bounds; None when it does not."""
    if not fits_in_process(mat.count(), mat.size_bytes() or 0):
        return None
    return _sort_table(fetch_table(mat), cols)


def _on_empty(ds: rd.Dataset, mat: rd.Dataset, block_fn) -> rd.Dataset:
    """The result for a ``ds`` without rows (``mat``: ``ds`` materialized):
    ``block_fn`` over the empty input, so the output has the kernel's
    columns, as on the table path. Ray's map over an empty block drops
    its columns, so then they come from ``ds``'s schema (for a lazy
    ``ds``, one more run of its empty plan); an input whose columns are
    unknown comes back as it is."""
    tbl = fetch_table(mat)
    if not tbl.num_columns:
        sch = ds.schema()
        if sch is None:
            return mat
        tbl = sch.base_schema.empty_table()
    return rd.from_arrow(block_fn(tbl))


def _sort_coalesced(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Range sort, materialized. Two rules:

    - the input fits the in-process bounds: one pyarrow ``sort_by`` in
      this process (``_sorted_table``), handed back as a one-block
      Dataset — no shuffle, no extra barriers, for any block count;
    - it does not: Ray's distributed sort. Ray's sort inherits its
      partition count P from the INPUT block count, and the all-to-all
      pays O(P²) small-object transfers (each of P reduce tasks fetches P
      map outputs): measured ~11 s for a 380-row sort at P=128 vs ~2 s at
      P=4 — pure fixed latency, independent of bytes and of CPU count. So
      an input of more than 8 blocks is first coalesced to the partition
      count its bytes/rows justify.

    Sort is a pipeline breaker anyway, so materializing the input first
    adds no extra pass. An empty input comes back as it is."""
    mat = ds.materialize()
    tbl = _sorted_table(mat, cols)
    if tbl is None:
        return _range_sort(mat, cols)
    return rd.from_arrow(tbl).materialize() if tbl.num_rows else mat


def _range_sort(mat: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Ray's distributed sort of a materialized input too large for the
    in-process tier, at a size-justified shuffle width."""
    nblocks = mat.num_blocks()
    if nblocks > 8:
        rows = mat.count()
        size = mat.size_bytes() or 0
        target = min(
            nblocks,
            max(1, size // _SORT_BLOCK_BYTES, rows // _SORT_BLOCK_ROWS),
        )
        if target < nblocks // 2:
            mat = mat.repartition(target).materialize()
    # Ray's range partitioning compares key values in Python, and None
    # does not compare with str: a string key sorts as (is-null flag, the
    # value with nulls filled), and each sorted block gets its nulls back
    # in a task of its own (a map operator could reorder the blocks)
    schema = mat.schema()
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    texts = [
        c
        for c in cols
        if isinstance(types.get(c), pa.DataType)
        and (pa.types.is_string(types[c]) or pa.types.is_large_string(types[c]))
    ]
    if not texts:
        return mat.sort(cols).materialize()
    keys = [k for c in cols for k in ((f"{c}__null", c) if c in texts else (c,))]

    def flag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        for c in texts:
            t = t.append_column(f"{c}__null", pc.is_null(t[c]))
            t = t.set_column(t.schema.get_field_index(c), c, pc.fill_null(t[c], ""))
        return t

    flagged = mat.map_batches(flag, batch_format="pyarrow").sort(keys).materialize()
    return rd.from_arrow_refs(
        [_unflag_block.remote(r, texts) for r in block_refs(flagged)]
    )


@ray.remote
def _unflag_block(block, texts: list[str]) -> pa.Table:
    """A block sorted by ``_range_sort``'s flagged keys, with each string
    key's nulls put back and its flag column dropped."""
    import pyarrow.compute as pc

    t = _as_arrow(block)
    if f"{texts[0]}__null" not in t.column_names:
        return t  # an empty block without a schema
    for c in texts:
        null = pa.scalar(None, t[c].type)
        t = t.set_column(t.schema.get_field_index(c), c, pc.if_else(t[f"{c}__null"], null, t[c]))
    return t.drop_columns([f"{c}__null" for c in texts])


def _as_arrow(block) -> pa.Table:
    """Blocks may be pandas (from_pandas / map_groups lineages; empty blocks
    skip map_batches conversion passes) — normalize inside the remote fns."""
    if isinstance(block, pa.Table):
        return block
    import pandas as pd

    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False)
    return pa.table(block)


@ray.remote
def _block_run_info(block, part_cols: list[str], value_col: str):
    """Boundary-exchange summary: ``(head, tail)`` where ``head = (part0,
    value0, next_distinct_value_or_None, run_is_whole_block)`` describes the
    block's leading (part, value) run and ``tail = (part_last, value_last)``
    its trailing run key. None for an empty block.

    ``next_distinct_value`` is the first value after the leading run when
    that row is still in ``part0`` (strictly greater under the sort);
    ``run_is_whole_block`` is True when the entire block is one
    (part, value) run — the case where the search must continue into the
    block after it.
    """
    import pyarrow.compute as pc

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return None
    same = pc.equal(block.column(value_col), block.column(value_col)[0])
    same_part = None
    for c in part_cols:
        eq = pc.equal(block.column(c), block.column(c)[0])
        same_part = eq if same_part is None else pc.and_kleene(same_part, eq)
        same = pc.and_kleene(same, eq)
    run_len = n if pc.all(same).as_py() else pc.index(same, False).as_py()
    p0 = tuple(block.column(c)[0].as_py() for c in part_cols)
    v0 = block.column(value_col)[0].as_py()
    nv = None
    if run_len < n and same_part[run_len].as_py():
        nv = block.column(value_col)[run_len].as_py()
    tail = (
        tuple(block.column(c)[-1].as_py() for c in part_cols),
        block.column(value_col)[-1].as_py(),
    )
    return (p0, v0, nv, run_len == n), tail


def _col_array(block: pa.Table, name: str) -> pa.Array:
    """One contiguous Array for a table column (chunk-merged)."""
    col = block.column(name)
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _table_run_starts(block: pa.Table, cols: list[str]) -> "np.ndarray":  # noqa: F821
    """Start offsets of adjacent equal-key runs over Arrow columns (plus a
    final sentinel) — Arrow ``not_equal`` kernels on the raw columns, no
    ``to_pylist`` → object-dtype round-trip (string-key comparisons stay in
    C++). Null keys compare equal to adjacent nulls (the object-array
    semantics this replaces)."""
    import numpy as np
    import pyarrow.compute as pc

    n = block.num_rows
    if n == 0:
        return np.zeros(1, dtype=np.int64)  # no runs: the sentinel alone
    change = np.zeros(n - 1, dtype=bool)
    for c in cols:
        col = _col_array(block, c)
        hi, lo = col.slice(1), col.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(hi, lo), False).to_numpy(
            zero_copy_only=False
        )
        # null vs non-null is a run change; null vs null is not
        valid_flip = pc.xor(pc.is_valid(hi), pc.is_valid(lo)).to_numpy(
            zero_copy_only=False
        )
        change |= neq | valid_flip
    return np.concatenate([[0], np.nonzero(change)[0] + 1, [n]])


def _rows_equal_at(block: pa.Table, cols: list[str], ia, ib) -> "np.ndarray":  # noqa: F821
    """Vectorized multi-column row equality between index vectors ``ia`` and
    ``ib`` (null==null counts as equal), via Arrow take + equal kernels."""
    import numpy as np
    import pyarrow.compute as pc

    eq = np.ones(len(ia), dtype=bool)
    ia_arr = pa.array(ia, pa.int64())
    ib_arr = pa.array(ib, pa.int64())
    for c in cols:
        col = _col_array(block, c)
        a, b = col.take(ia_arr), col.take(ib_arr)
        both_null = pc.and_(pc.is_null(a), pc.is_null(b)).to_numpy(
            zero_copy_only=False
        )
        eq &= (
            pc.fill_null(pc.equal(a, b), False).to_numpy(zero_copy_only=False)
            | both_null
        )
    return eq


def _lead(
    block,
    part_cols: list[str],
    value_col: str,
    out_col: str,
    out_type: pa.DataType,
    boundary_lead,
) -> pa.Table:
    """Within-block lead(value_col) over partitions defined by part_cols.
    ``boundary_lead`` is the pre-resolved next strictly-greater value for
    this block's trailing (part, value) run (None if the partition ends or
    has no greater value) — computed driver-side from every later block's
    run summary, so an equal-value run straddling any number of block
    boundaries still finds its lead. Requires a prior global sort by
    (part_cols..., order_cols...).

    Fully Arrow-native: run detection, run-first gathers and the final
    repeat-take all run on Arrow buffers — no object-dtype key arrays."""
    import numpy as np

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return block.append_column(out_col, pa.array([], out_type))
    # strict lead: the next row in the partition with a STRICTLY greater
    # value (equal-value runs are skipped — reference kernel semantics).
    # Vectorized run formulation: rows with equal (part, value) form runs;
    # a run's lead is the NEXT run's value when the partition continues.
    starts = _table_run_starts(block, part_cols + [value_col])
    firsts = starts[:-1]
    run_len = np.diff(starts)
    n_runs = len(firsts)
    vals = _col_array(block, value_col)
    if n_runs > 1:
        import pyarrow.compute as pc

        same_part = _rows_equal_at(block, part_cols, firsts[1:], firsts[:-1])
        next_vals = vals.take(pa.array(firsts[1:], pa.int64()))
        head = pc.if_else(
            pa.array(same_part), next_vals, pa.scalar(None, vals.type)
        )
    else:
        head = pa.array([], vals.type)
    # the trailing run's lead comes only from the boundary exchange
    run_lead = pa.concat_arrays(
        [head, pa.array([boundary_lead], vals.type)]
    ).cast(out_type)
    lead = run_lead.take(
        pa.array(np.repeat(np.arange(n_runs), run_len), pa.int64())
    )
    return block.append_column(out_col, lead)


@ray.remote
def _lead_block(block, *args) -> pa.Table:
    """``_lead`` over one block of the distributed path."""
    return _lead(block, *args)


def _resolve_boundary_lead(i: int, infos: list) -> object:
    """Next strictly-greater value for block i's trailing run, found by
    scanning later blocks' run summaries (handles runs spanning any number
    of blocks)."""
    if infos[i] is None:
        return None
    tp, tv = infos[i][1]
    for j in range(i + 1, len(infos)):
        if infos[j] is None:
            continue  # empty block
        (p0, v0, nv, whole), _ = infos[j]
        if p0 != tp:
            return None  # partition ended at the boundary
        if v0 != tv:
            return v0  # sorted ⇒ strictly greater
        if nv is not None:
            return nv  # run ends inside block j with a greater value
        if whole:
            continue  # block j is entirely the same run — keep looking
        return None  # run ends inside block j at a different partition
    return None


def sorted_lead(
    ds: rd.Dataset | pa.Table,
    part_cols: list[str],
    order_cols: list[str],
    value_col: str,
    out_col: str = "lead_value",
    out_type: pa.DataType = pa.timestamp("us"),
) -> rd.Dataset | pa.Table:
    """Distributed ``lead(value_col) OVER (PARTITION BY part_cols ORDER BY
    order_cols)`` with NO per-partition grouping: one global range sort,
    then a per-block pass with one boundary row exchanged between
    neighbouring blocks. A partition larger than any single block (a hub
    key) costs nothing extra — this is the answer to the invalidation
    sweep's hub-entity skew (SURVEY §4) without salted keys.

    Lead is STRICT (next strictly-greater value; equal-value runs skipped).
    The boundary exchange ships one run summary per block and resolves each
    block's trailing-run lead driver-side, so an equal-value run straddling
    any number of block boundaries is handled (no uniqueness precondition
    on (part, value)). Precondition: ``value_col`` must be ordered by the
    sort (i.e. aligned with ``order_cols``) so values are non-decreasing
    within a partition. An input within the in-process bounds, or given
    as a ``pa.Table``, is sorted and led as one table in the calling
    process (module docstring)."""
    def lead(tbl):
        return _lead(tbl, part_cols, value_col, out_col, out_type, None)

    if isinstance(ds, pa.Table):
        return lead(_sort_table(ds, part_cols + order_cols))
    # arrow-normalize first: from_pandas/map_groups lineages carry pandas
    # blocks, and the remote block fns operate on arrow tables
    mat = ds.map_batches(lambda t: t, batch_format="pyarrow").materialize()
    if not mat.count():
        return _on_empty(ds, mat, lead)
    tbl = _sorted_table(mat, part_cols + order_cols)
    if tbl is not None:
        return rd.from_arrow(lead(tbl))
    refs = block_refs(_range_sort(mat, part_cols + order_cols))
    infos = ray.get([_block_run_info.remote(r, part_cols, value_col) for r in refs])
    out_refs = []
    for i, r in enumerate(refs):
        out_refs.append(
            _lead_block.remote(
                r,
                part_cols,
                value_col,
                out_col,
                out_type,
                _resolve_boundary_lead(i, infos),
            )
        )
    return rd.from_arrow_refs(out_refs)


@ray.remote
def _block_tail(block, part_cols: list[str], value_col: str, k: int):
    """Last ≤k (part_tuple, value) pairs of a block — lag boundary exchange."""
    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return []
    lo = max(0, n - k)
    parts = list(zip(*(block.column(c).to_pylist()[lo:] for c in part_cols)))
    values = block.column(value_col).to_pylist()[lo:]
    return list(zip(parts, values))


@ray.remote
def _lag_list_block(
    block,
    part_cols: list[str],
    value_col: str,
    out_col: str,
    k: int,
    prev_tail: list,
) -> pa.Table:
    """Per row: the previous ≤k values within its partition, in order —
    seeded at the block boundary with the previous block's tail.

    Vectorized: the seed is virtually prepended to the value array (it can
    only extend the block's FIRST partition), each row's window is
    ``[max(partition_start, i-k), i)`` in those extended coordinates, and
    the list column is assembled with one repeat/arange gather — no per-row
    Python loop."""
    import numpy as np

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return block.append_column(out_col, pa.array([], pa.list_(pa.string())))
    first_part = tuple(block.column(c)[0].as_py() for c in part_cols)
    seed = [v for p, v in (prev_tail or []) if p == first_part][-k:]
    m = len(seed)
    vals = _col_array(block, value_col).cast(pa.string())
    # the carried tail holds raw Python values (e.g. int64 ts) — stringify
    # to match the generic string carry column
    ext = pa.concat_arrays([pa.array([str(v) for v in seed], pa.string()), vals])
    starts = _table_run_starts(block, part_cols)  # partition starts (row coords)
    run_len = np.diff(starts)
    part_start = starts[:-1] + m  # partition starts in extended coords
    part_start[0] = 0  # first partition reaches back into the seed
    row_start = np.repeat(part_start, run_len)
    row_idx = np.arange(n) + m
    lo = np.maximum(row_start, row_idx - k)
    counts = row_idx - lo
    offsets = np.concatenate([[0], np.cumsum(counts)])
    gather = np.repeat(lo, counts) + (
        np.arange(int(offsets[-1])) - np.repeat(offsets[:-1], counts)
    )
    flat = ext.take(pa.array(gather, pa.int64()))
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    return block.append_column(out_col, lists)


def sorted_lag_list(
    ds: rd.Dataset,
    part_cols: list[str],
    order_cols: list[str],
    value_col: str,
    k: int,
    out_col: str = "prev_values",
) -> rd.Dataset:
    """Per row: the previous ≤k ``value_col`` values within its partition in
    (order_cols) order — the trailing-context-window primitive (T3,
    EPISODE_WINDOW_LEN) without per-partition grouping: global range sort +
    a ≤k-row tail exchanged between neighbouring blocks. A hub partition
    spanning many blocks costs nothing extra. Precondition: a partition's
    rows within one block are contiguous (guaranteed by the sort); a
    partition spanning >2 blocks is fine because each block seeds from its
    immediate predecessor's tail, which already accumulated the carry."""
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    mat = _sort_coalesced(ds, part_cols + order_cols)
    refs = block_refs(mat)
    if not refs:
        return mat
    tails = ray.get([_block_tail.remote(r, part_cols, value_col, k) for r in refs])
    out_refs = []
    carry: list = []
    for r, tail in zip(refs, tails):
        out_refs.append(
            _lag_list_block.remote(r, part_cols, value_col, out_col, k, carry)
        )
        if tail:
            # only the LAST partition of this block can continue into the
            # next block (range sort), so the carry is the last ≤k entries
            # of that partition, accumulated across consecutive short blocks
            last_part = tail[-1][0]
            merged = [e for e in carry if e[0] == last_part] + [
                e for e in tail if e[0] == last_part
            ]
            carry = merged[-k:]
    return rd.from_arrow_refs(out_refs)


@ray.remote
def _run_boundary_info(block, key_cols: list[str]):
    """(first_key, leading_run_len, last_key, whole_block) for the
    sorted-run carry protocol; None for an empty block."""
    import pyarrow.compute as pc

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return None
    same = None
    for c in key_cols:
        eq = pc.equal(block.column(c), block.column(c)[0])
        same = eq if same is None else pc.and_kleene(same, eq)
    run_len = n if pc.all(same).as_py() else pc.index(same, False).as_py()
    first = tuple(block.column(c)[0].as_py() for c in key_cols)
    last = tuple(block.column(c)[-1].as_py() for c in key_cols)
    return first, run_len, last, run_len == n


@ray.remote
def _leading_rows(block, key_cols: list[str], cap: int) -> pa.Table:
    """The block's leading key run (≤cap rows) — carry payload."""
    import pyarrow.compute as pc

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return block
    same = None
    for c in key_cols:
        eq = pc.equal(block.column(c), block.column(c)[0])
        same = eq if same is None else pc.and_kleene(same, eq)
    run_len = n if pc.all(same).as_py() else pc.index(same, False).as_py()
    return block.slice(0, min(run_len, cap))


def _apply_run(block, fn, drop_leading: int, carries: list) -> pa.Table:
    """Strip the leading ``drop_leading`` rows (they belong to the previous
    block's trailing run), append the carried continuation rows, run
    ``fn``."""
    block = _as_arrow(block)
    if drop_leading:
        block = block.slice(drop_leading)
    tables = [t for t in [block] + [_as_arrow(c) for c in carries] if t.num_rows]
    if carries and tables:
        block = pa.concat_tables(tables, promote_options="none")
    return fn(block)


@ray.remote
def _apply_run_block(block, fn, drop_leading: int, carries: list) -> pa.Table:
    """``_apply_run`` over one block of the distributed path. ``carries``
    holds nested ObjectRefs (inside a list, Ray does not auto-resolve
    them) — fetched explicitly."""
    return _apply_run(block, fn, drop_leading, ray.get(list(carries)))


def sorted_run_map(
    ds: rd.Dataset | pa.Table,
    key_cols: list[str],
    block_fn,
    order_cols: list[str] | None = None,
    carry_cap: int = 65536,
    on_carry_overflow: str = "error",
) -> rd.Dataset | pa.Table:
    """``groupby(key_cols).map_groups`` semantics WITHOUT per-group Python
    dispatch: one global range sort, then ``block_fn`` runs once per block
    over COMPLETE key runs (a run straddling a block boundary is carried
    into the block where it starts, up to ``carry_cap`` continuation rows
    per boundary).

    A run continuing beyond ``carry_cap`` rows past its starting block is
    an OVERFLOW: with ``on_carry_overflow='error'`` (default) the call
    raises naming the hot key — silent row loss is never the default;
    pass ``'truncate'`` only when the kernel provably doesn't need the
    run's tail (e.g. LSH pair kernels capped at MAX_BUCKET, first-k
    digests). Mega-runs needing completeness should raise ``carry_cap``
    (carried rows concat into one kernel block, so the cap bounds that
    block's memory).

    ``block_fn: pa.Table -> pa.Table`` sees rows sorted by ``key_cols`` and
    may vectorize across all runs in the block (adjacent-change run
    detection). The measured motivation: Ray's map_groups slices + calls
    Python once per group; with millions of small LSH buckets that dispatch
    dominates the actual kernel work.

    An input within the in-process bounds, or given as a ``pa.Table``,
    is sorted as one table and ``block_fn`` runs once over it in the
    calling process: every run is complete there, so nothing is carried
    and no overflow can occur. A table input gives a table back. On
    every path ``block_fn`` sees an empty input too, so an empty output
    has the kernel's columns.
    """
    assert on_carry_overflow in ("error", "truncate")
    cols = key_cols + (order_cols or [])
    if isinstance(ds, pa.Table):
        return block_fn(_sort_table(ds, cols))
    mat = ds.map_batches(lambda t: t, batch_format="pyarrow").materialize()
    if not mat.count():
        return _on_empty(ds, mat, block_fn)
    tbl = _sorted_table(mat, cols)
    if tbl is not None:
        return rd.from_arrow(block_fn(tbl))
    refs = block_refs(_range_sort(mat, cols))
    infos = ray.get([_run_boundary_info.remote(r, key_cols) for r in refs])
    out_refs = []
    for i, r in enumerate(refs):
        if infos[i] is None:
            continue  # empty block contributes nothing
        first_i, lead_len_i, last_i, whole_i = infos[i]
        # does my leading run start in an earlier block?
        prev_last = None
        for j in range(i - 1, -1, -1):
            if infos[j] is not None:
                prev_last = infos[j][2]
                break
        drop = lead_len_i if prev_last == first_i else 0
        if drop and whole_i:
            # the whole block continues a run that started earlier — that
            # block already carried these rows in; emitting carries here
            # would process the run's tail a second time
            continue
        # trailing-run continuation rows from following blocks
        carries = []
        budget = carry_cap
        for j in range(i + 1, len(refs)):
            if infos[j] is None:
                continue
            first_j, lead_len_j, _, whole_j = infos[j]
            if first_j != last_i:
                break
            if budget <= 0 or lead_len_j > budget:
                if on_carry_overflow == "error":
                    raise ValueError(
                        f"sorted_run_map: run for key {last_i!r} exceeds "
                        f"carry_cap={carry_cap} continuation rows past its "
                        f"starting block; raise carry_cap or pass "
                        f"on_carry_overflow='truncate' if the kernel only "
                        f"needs the run's head"
                    )
            if budget <= 0:
                break
            carries.append(_leading_rows.remote(refs[j], key_cols, budget))
            budget -= min(lead_len_j, budget)
            if not whole_j:
                break
        out_refs.append(_apply_run_block.remote(r, block_fn, drop, carries))
    return rd.from_arrow_refs(out_refs)


def top_k_per_group(
    ds: rd.Dataset,
    keys: list[str],
    order_cols: list[str],
    k: int,
    rank_col: str = "rank",
) -> rd.Dataset:
    """Per-group top-k (`row_number() OVER (PARTITION BY keys ORDER BY
    order_cols) <= k`) without per-group dispatch: ``sorted_run_map``
    delivers each key run complete to one vectorized kernel, which keeps
    the run's first k rows with 1-based ranks. ``order_cols`` sort
    ASCENDING — negate numeric columns for descending order. Hub groups
    cost nothing beyond the one range sort (runs straddling blocks are
    carried, so cap k at sorted_run_map's carry_cap)."""
    import numpy as np

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return tbl.append_column(rank_col, pa.array([], pa.int64()))
        starts = _table_run_starts(tbl, keys)
        firsts = starts[:-1]
        m = np.minimum(np.diff(starts), k)
        ranks = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m) + 1
        idx = np.repeat(firsts, m) + ranks - 1
        return tbl.take(pa.array(idx, pa.int64())).append_column(
            rank_col, pa.array(ranks, pa.int64())
        )

    return sorted_run_map(
        ds,
        keys,
        kernel,
        order_cols=order_cols,
        carry_cap=max(65536, k),
        # only the run's first k rows are kept, and carry_cap ≥ k
        on_carry_overflow="truncate",
    )


@ray.remote
def _psum_block_info(block, by: list[str], delta_col: str):
    """(first_part, last_part, delta_sum_of_last_part_rows) — the carry
    protocol for prefix sums; None for an empty block."""
    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return None
    import numpy as np

    first = tuple(block.column(c)[0].as_py() for c in by)
    last = tuple(block.column(c)[-1].as_py() for c in by)
    parts = list(zip(*(block.column(c).to_pylist() for c in by)))
    deltas = block.column(delta_col).to_numpy(zero_copy_only=False)
    mask = np.fromiter((p == last for p in parts), dtype=bool, count=n)
    return first, last, int(deltas[mask].sum())


@ray.remote
def _psum_block(
    block, by: list[str], delta_col: str, out_col: str, carry_in: int
) -> pa.Table:
    """Inclusive running sum of ``delta_col`` per partition within a sorted
    block; rows of the FIRST partition start from ``carry_in`` (the
    partition's prefix total from earlier blocks)."""
    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return block.append_column(out_col, pa.array([], pa.int64()))
    import numpy as np
    import pandas as pd

    deltas = block.column(delta_col).to_numpy(zero_copy_only=False)
    parts = pd.Series(list(zip(*(block.column(c).to_pylist() for c in by))))
    csum = pd.Series(deltas).groupby(parts).cumsum().to_numpy()
    first = parts.iloc[0]
    csum = csum + np.where((parts == first).to_numpy(), carry_in, 0)
    return block.append_column(out_col, pa.array(csum.astype("int64"), pa.int64()))


def sorted_prefix_sum(
    ds: rd.Dataset,
    by: list[str],
    order_cols: list[str],
    delta_col: str,
    out_col: str = "running_sum",
) -> rd.Dataset:
    """Inclusive ``sum(delta) OVER (PARTITION BY by ORDER BY order_cols)``
    without per-partition grouping: one global range sort, per-block
    vectorized cumsum, and a single integer carried between neighbouring
    blocks per continuing partition. The interval-sweep primitive behind
    point-in-interval range joins (encode interval starts as +1, ends as
    -1, probe points as 0 — a probe row's running sum is the number of
    intervals covering it). Hub partitions spanning many blocks cost one
    integer of carry each."""
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    mat = _sort_coalesced(ds, by + order_cols)
    refs = block_refs(mat)
    if not refs:
        return mat
    infos = ray.get([_psum_block_info.remote(r, by, delta_col) for r in refs])
    out_refs = []
    cur_part, cur_sum = None, 0
    for r, info in zip(refs, infos):
        if info is None:
            continue
        first, last, last_sum = info
        carry_in = cur_sum if first == cur_part else 0
        out_refs.append(_psum_block.remote(r, by, delta_col, out_col, carry_in))
        if last == cur_part and first == last:
            cur_sum += last_sum  # block entirely continues the partition
        elif last == first:
            cur_sum = carry_in + last_sum
        else:
            cur_sum = last_sum
        cur_part = last
    if not out_refs:
        return mat.limit(0)
    return rd.from_arrow_refs(out_refs)


@ray.remote
def _block_edge_keys(block, key: str):
    block = _as_arrow(block)
    if block.num_rows == 0:
        return None, None
    col = block.column(key)
    return col[0].as_py(), col[-1].as_py()


@ray.remote
def _dedup_block(block, key: str, drop_leading: object) -> pa.Table:
    import numpy as np

    block = _as_arrow(block)
    if block.num_rows == 0:
        return block
    col = block.column(key).combine_chunks()
    arr = col.to_numpy(zero_copy_only=False)
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    if drop_leading is not None:
        i = 0
        while i < len(arr) and arr[i] == drop_leading:
            keep[i] = False
            i += 1
    return block.filter(pa.array(keep))


def distinct_by_key(
    ds: rd.Dataset, key: str, order_cols: list[str] | None = None
) -> rd.Dataset:
    """Exact one-row-per-key distinct via range sort + adjacent dedup.
    With ``order_cols``, the kept row is the key's FIRST row in that
    order (e.g. ``order_cols=["doc_id"]`` → min-id winner); without, rows
    with equal keys must be interchangeable."""
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    mat = _sort_coalesced(ds, [key] + (order_cols or []))
    refs = block_refs(mat)
    if not refs:
        return mat
    edges = ray.get([_block_edge_keys.remote(r, key) for r in refs])
    out_refs = []
    prev_last = None
    for r, (first, last) in zip(refs, edges):
        out_refs.append(_dedup_block.remote(r, key, prev_last))
        if last is not None:
            prev_last = last
    return rd.from_arrow_refs(out_refs)


def _first_per_key(block, key: str) -> pa.Table:
    """Keep the first row per key of one table (keys need not be
    adjacent). Vectorized: np.unique first-occurrence indices."""
    import numpy as np

    block = _as_arrow(block)
    if block.num_rows == 0:
        return block
    arr = block.column(key).to_numpy(zero_copy_only=False)
    _, first_idx = np.unique(arr, return_index=True)
    if len(first_idx) == block.num_rows:
        return block
    return block.take(pa.array(np.sort(first_idx)))


_dedup_block_hash = ray.remote(_first_per_key)


@ray.remote(num_returns=2)
def _split_dedup_block(block, key: str, run_col: str, values: pa.Array):
    """(clean rows deduped-by-key, raw rows whose run straddles blocks)."""
    import pyarrow.compute as pc

    block = _as_arrow(block)
    if block.num_rows == 0:
        return block, block
    m = pc.is_in(block.column(run_col), value_set=values)
    return _first_per_key(block.filter(pc.invert(m)), key), block.filter(m)


def distinct_by_key_contiguous(
    ds: rd.Dataset | pa.Table, key: str, run_col: str
) -> rd.Dataset | pa.Table:
    """Exact one-row-per-key distinct with ZERO shuffle, for datasets where
    equal keys can only occur inside one contiguous run of ``run_col``
    (e.g. per-episode extraction output: all of an episode's rows are
    emitted together, and ``run_col`` values are globally unique runs).

    Where :func:`distinct_by_key` pays a full sort shuffle of the corpus,
    this pays one cheap metadata pass plus a per-block local dedup:

    1. per block, read (first, last) ``run_col`` values — a run that was
       split across blocks (by an upstream output-block split or parquet
       row-group boundary) must appear as a boundary value of ≥2 blocks,
       so counting boundary values finds every straddling run without
       assuming anything about BLOCK order (safe under
       ``preserve_order=False``; only within-block row order is assumed);
    2. no straddlers (the common case): per-block first-per-key dedup and
       done — no rows move;
    3. else: straddler rows (≤ runs-per-boundary × rows-per-run, i.e.
       O(num_blocks), never corpus-sized) are split out with ``pc.is_in``,
       exact-deduped once on the driver, and appended as one extra block.

    Rows with equal ``key`` must be interchangeable (true for content-hash
    uuids: equal key ⇒ identical row), since which duplicate survives
    depends on block delivery order. A ``pa.Table`` is one block: one
    ``np.unique`` on ``key``, and a table back."""
    from collections import Counter

    if isinstance(ds, pa.Table):
        return _first_per_key(ds, key)
    mat = ds.materialize()
    refs = block_refs(mat)
    if not refs:
        return mat
    edges = ray.get([_block_edge_keys.remote(r, run_col) for r in refs])
    seen: Counter = Counter()
    for first, last in edges:
        if first is None:
            continue
        seen[first] += 1
        if last != first:
            seen[last] += 1
    straddlers = sorted(k for k, n in seen.items() if n >= 2)
    if not straddlers:
        return rd.from_arrow_refs([_dedup_block_hash.remote(r, key) for r in refs])

    values = pa.array(straddlers)
    clean_refs, dirty_refs = [], []
    for r in refs:
        c, d = _split_dedup_block.remote(r, key, run_col, values)
        clean_refs.append(c)
        dirty_refs.append(d)
    dirty_tables = [t for t in ray.get(dirty_refs) if t.num_rows]
    dirty = _first_per_key(pa.concat_tables(dirty_tables).combine_chunks(), key)
    return rd.from_arrow_refs(clean_refs).union(rd.from_arrow(dirty))


# --- salted aggregation ------------------------------------------------------


def salted_aggregate(
    ds: rd.Dataset,
    key_cols: list[str],
    aggs: dict[str, tuple[str, str]],
    salt_buckets: int = 16,
    salt_source: str | None = None,
) -> rd.Dataset:
    """Two-phase aggregate for skewed keys — the literal "salted keys"
    treatment for hub entities (SURVEY §4): rows first aggregate under
    (key, salt) so a hot key spreads over ``salt_buckets`` reducers, then
    the per-salt partials combine in a second, ``salt_buckets``-times
    smaller groupby on the key alone.

    ``aggs``: output column → (input column, fn), fn ∈ {"sum", "count",
    "min", "max"} — the associative aggregates a two-phase split is exact
    for (count re-combines via sum). "count" has SQL count(col) semantics
    (non-null values of the input column); pass ``None`` as the input
    column for count(*). ``salt_source`` picks the salting hash input (an
    INTEGER column whose values spread WITHIN a hot key, e.g. a doc id —
    non-integer columns are rejected loudly); default salts on a
    deterministic per-batch row index, which spreads every key uniformly
    without reading any column.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Min, Sum

    assert all(fn in ("sum", "count", "min", "max") for _, fn in aggs.values())

    def add_salt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if salt_source is not None:
            src = batch.column(salt_source).to_numpy(zero_copy_only=False)
            if not np.issubdtype(src.dtype, np.integer):
                raise TypeError(
                    f"salt_source {salt_source!r} must be an integer column "
                    f"(got {src.dtype}); omit it to salt on the row index"
                )
            salt = (src.astype(np.int64) * 1099511628211) % salt_buckets
        else:
            salt = np.arange(n, dtype=np.int64) % salt_buckets
        return batch.append_column("_salt", pa.array(salt, pa.int64()))

    # phase 1: partial aggregates under (key, salt). Counts sum an
    # indicator column so count(col) skips nulls exactly like SQL.
    count_cols = {
        out: in_col for out, (in_col, fn) in aggs.items() if fn == "count"
    }
    phase1_aggs = []
    for out_col, (in_col, fn) in aggs.items():
        if fn == "count":
            phase1_aggs.append(Sum(f"_nn_{out_col}", alias_name=out_col))
        elif fn == "sum":
            phase1_aggs.append(Sum(in_col, alias_name=out_col))
        elif fn == "min":
            phase1_aggs.append(Min(in_col, alias_name=out_col))
        else:
            phase1_aggs.append(Max(in_col, alias_name=out_col))

    def add_indicators(batch: pa.Table) -> pa.Table:
        for out_col, in_col in count_cols.items():
            if in_col is None:  # count(*)
                ind = pa.array(np.ones(batch.num_rows, dtype=np.int64))
            else:  # count(col): 1 where non-null
                ind = pc.cast(pc.is_valid(batch.column(in_col)), pa.int64())
            batch = batch.append_column(f"_nn_{out_col}", ind)
        return batch

    salted = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
    if count_cols:
        salted = salted.map_batches(
            add_indicators, batch_format="pyarrow", zero_copy_batch=True
        )
    partial = salted.groupby(key_cols + ["_salt"]).aggregate(*phase1_aggs)

    # phase 2: combine partials (count → sum of partial counts; min/max/sum
    # are idempotent under re-aggregation)
    phase2_aggs = []
    for out_col, (_in_col, fn) in aggs.items():
        cls = {"sum": Sum, "count": Sum, "min": Min, "max": Max}[fn]
        phase2_aggs.append(cls(out_col, alias_name=out_col))
    return partial.groupby(key_cols).aggregate(*phase2_aggs)


# --- run-length annotation ---------------------------------------------------


@ray.remote
def _block_key_summary(block, key_cols: list[str]):
    """(first_key, head_run_len, last_key, tail_run_len, n_rows) for the
    run-length boundary exchange; None for an empty block. Key comparisons
    run on Arrow kernels (no per-row Python)."""
    import numpy as np

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return None
    starts = _table_run_starts(block, key_cols)
    head_len = int(starts[1] - starts[0])
    tail_len = int(starts[-1] - starts[-2])
    first = tuple(block.column(c)[0].as_py() for c in key_cols)
    last = tuple(block.column(c)[-1].as_py() for c in key_cols)
    return first, head_len, last, tail_len, n


@ray.remote
def _run_len_block(
    block, key_cols: list[str], out_col: str, prefix_extra: int, suffix_extra: int
) -> pa.Table:
    """Append the GLOBAL run length of each row's key. ``prefix_extra`` /
    ``suffix_extra`` are the counts of equal-key rows in preceding /
    following blocks (resolved driver-side); they extend the block's first
    / last run — the same run when the block is a single run."""
    import numpy as np

    block = _as_arrow(block)
    n = block.num_rows
    if n == 0:
        return block.append_column(out_col, pa.array([], pa.int64()))
    starts = _table_run_starts(block, key_cols)
    run_len = np.diff(starts).astype(np.int64)
    run_len[0] += prefix_extra
    run_len[-1] += suffix_extra
    out = np.repeat(run_len, np.diff(starts))
    return block.append_column(out_col, pa.array(out, pa.int64()))


def annotate_run_lengths(
    ds: rd.Dataset, key_cols: list[str], out_col: str = "run_len"
) -> rd.Dataset:
    """Append each row's GLOBAL key frequency (document frequency when rows
    are per-doc-distinct) as ``out_col`` — one range sort on ``key_cols``
    plus an O(num_blocks) summary exchange, NO groupby and NO join back.

    This is the hub-safe exact-df primitive: a key spanning any number of
    blocks (a stopword-grade hot n-gram) costs one integer of carry per
    boundary, never a grouped materialization — where a
    ``groupby(key).count + join`` pays two corpus shuffles, this pays the
    one sort it needs anyway. Rows come back sorted by ``key_cols``."""
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    mat = _sort_coalesced(ds, key_cols)
    refs = block_refs(mat)
    if not refs:
        return mat
    infos = ray.get([_block_key_summary.remote(r, key_cols) for r in refs])

    def chain_extras(direction: int) -> list[int]:
        """Equal-key rows for every block's boundary run accumulated from
        its neighbours along ``direction`` (-1 = preceding, +1 =
        following) — ONE linear pass with a (key, count) carry, so a hot
        key occupying thousands of consecutive single-run blocks costs
        O(num_blocks) total, not O(num_blocks²)."""
        order = range(len(infos)) if direction > 0 else range(
            len(infos) - 1, -1, -1
        )
        extras = [0] * len(infos)
        carry_key, carry = None, 0
        for j in order:
            info = infos[j]
            if info is None:  # empty block is transparent to the chain
                continue
            first, head_len, last, tail_len, n = info
            # key/len on the side FACING the accumulated carry, and on the
            # side the carry continues from
            near_key, near_len = (first, head_len) if direction > 0 else (
                last,
                tail_len,
            )
            far_key, far_len = (last, tail_len) if direction > 0 else (
                first,
                head_len,
            )
            extras[j] = carry if near_key == carry_key else 0
            if head_len == n:  # single-run block: chain may pass through
                carry = (carry + n) if near_key == carry_key else n
                carry_key = near_key
            else:
                carry_key, carry = far_key, far_len
        return extras

    prefix, suffix = chain_extras(+1), chain_extras(-1)
    out_refs = [
        _run_len_block.remote(r, key_cols, out_col, prefix[i], suffix[i])
        for i, r in enumerate(refs)
    ]
    return rd.from_arrow_refs(out_refs)


def dataset_intersect(
    a: rd.Dataset, b: rd.Dataset, cols: list[str]
) -> rd.Dataset:
    """DISTINCT set intersection on ``cols`` (SQL ``INTERSECT``): tag each
    side with a presence flag inside map_batches (per-batch distinct
    first, so the shuffle carries partials), one keyed sum, keep keys
    present on both sides. One all-to-all total."""
    return _set_op(a, b, cols, keep="both")


def dataset_except(
    a: rd.Dataset, b: rd.Dataset, cols: list[str]
) -> rd.Dataset:
    """DISTINCT set difference a − b on ``cols`` (SQL ``EXCEPT``): same
    tagged-union shape, keep keys present only on the left."""
    return _set_op(a, b, cols, keep="left_only")


def _set_op(a: rd.Dataset, b: rd.Dataset, cols: list[str], keep: str) -> rd.Dataset:
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.select(cols).group_by(cols).aggregate([([], "count_all")])
            t = t.drop_columns([t.column_names[-1]])
            n = t.num_rows
            return t.append_column(
                "in_a", pa.array(np.full(n, 1 - side, np.int64), pa.int64())
            ).append_column(
                "in_b", pa.array(np.full(n, side, np.int64), pa.int64())
            )

        return fn

    tagged = a.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        b.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )
    flags = tagged.groupby(cols if len(cols) > 1 else cols[0]).aggregate(
        Max("in_a", alias_name="in_a"), Max("in_b", alias_name="in_b")
    )

    def pick(batch: pa.Table) -> pa.Table:
        ia = batch.column("in_a")
        ib = batch.column("in_b")
        if keep == "both":
            mask = pc.and_(pc.equal(ia, 1), pc.equal(ib, 1))
        else:
            mask = pc.and_(pc.equal(ia, 1), pc.equal(ib, 0))
        return batch.filter(mask).select(cols)

    return flags.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


def window_rank(
    ds: rd.Dataset,
    keys: list[str],
    order_cols: list[str],
    rank_col: str = "rank",
    count_col: str = "n",
) -> rd.Dataset:
    """Full per-key ranking (``row_number() OVER (PARTITION BY keys ORDER
    BY order_cols)`` plus the partition size) — the windowed ranking
    primitive behind percentile normalization and leaderboards. One range
    sort, then each complete key run gets 1-based ranks and its length
    from pure index arithmetic — no per-key dispatch, hub keys cost only
    the sort. Ties break by ``order_cols`` (make them total — include a
    unique id)."""
    import numpy as np

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return tbl.append_column(
                rank_col, pa.array([], pa.int64())
            ).append_column(count_col, pa.array([], pa.int64()))
        starts = _table_run_starts(tbl, keys)
        firsts = starts[:-1]
        lens = np.diff(starts)
        run_id = np.zeros(n, dtype=np.int64)
        run_id[firsts] = 1
        run_id = np.cumsum(run_id) - 1
        ranks = np.arange(n, dtype=np.int64) - firsts[run_id] + 1
        return tbl.append_column(
            rank_col, pa.array(ranks, pa.int64())
        ).append_column(count_col, pa.array(lens[run_id], pa.int64()))

    return sorted_run_map(ds, keys, kernel, order_cols=order_cols)


ROLLUP_ALL = "(all)"  # sentinel for rolled-up levels (dodges NULL-sort skew)


def rollup_counts(
    ds: rd.Dataset,
    cols: list[str],
    sum_col: str | None = None,
    cube: bool = False,
) -> rd.Dataset:
    """GROUP BY ROLLUP(cols) — or CUBE with ``cube=True`` — in ONE pass:
    each batch emits its partial counts (and optional integer sums) once
    per grouping set with ``ROLLUP_ALL`` filling the rolled-up columns,
    then a single keyed reduce combines them. ROLLUP emits the
    len(cols)+1 prefix levels; CUBE all 2^len subsets. One shuffle
    total — never one groupby per grouping set.

    Output: (*cols, n[, sum_<sum_col>])."""
    import numpy as np
    from ray.data.aggregate import Sum

    agg_specs = [([], "count_all")] + ([(sum_col, "sum")] if sum_col else [])
    if cube:
        masks = [
            [c for i, c in enumerate(cols) if not (m >> i) & 1]
            for m in range(1 << len(cols))
        ]
    else:
        masks = [cols[lvl:] for lvl in range(len(cols), -1, -1)]

    def partial(batch: pa.Table) -> pa.Table:
        levels = []
        base = batch.select(cols + ([sum_col] if sum_col else []))
        for rolled in masks:
            t = base
            for c in rolled:
                n = t.num_rows
                t = t.set_column(
                    t.schema.get_field_index(c),
                    c,
                    pa.array([ROLLUP_ALL] * n, pa.string()),
                )
            g = t.group_by(cols).aggregate(agg_specs)
            names = cols + ["p_n"] + (["p_s"] if sum_col else [])
            levels.append(g.rename_columns(names))
        return pa.concat_tables(levels)

    aggs = [Sum("p_n", alias_name="n")]
    if sum_col:
        aggs.append(Sum("p_s", alias_name=f"sum_{sum_col}"))
    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(cols if len(cols) > 1 else cols[0])
        .aggregate(*aggs)
    )


def content_checksum(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Order-independent table content checksum — the replication /
    migration validation primitive: md5 of each row's '|'-joined
    canonical string rendering, summed mod 2^64 (addition commutes, so
    partitioning and row order cannot change the answer). Each batch
    collapses to one (count, low-sum, high-sum) partial row; only three
    scalars ever reach the driver. Output: one row
    (n_rows, sum_hi, sum_lo) with checksum = (sum_hi << 32) | sum_lo.
    """
    import hashlib

    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(c).to_pylist() for c in cols]
        acc = 0
        for vals in zip(*arrays):
            s = "|".join(str(v) for v in vals)
            acc += int(hashlib.md5(s.encode()).hexdigest()[:16], 16)
        acc %= 1 << 64  # exact: mod distributes over the final sum
        # two 32-bit limbs so int64 partial sums can never overflow
        # (limb sums stay < n_batches·2^32)
        return pa.table(
            {
                "p_n": pa.array([batch.num_rows], pa.int64()),
                "p_lo": pa.array([acc & 0xFFFFFFFF], pa.int64()),
                "p_hi": pa.array([acc >> 32], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = parts.sum(["p_n", "p_lo", "p_hi"])
    total = (
        (int(agg["sum(p_hi)"]) << 32) + int(agg["sum(p_lo)"])
    ) % (1 << 64)
    return rd.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([int(agg["sum(p_n)"])], pa.int64()),
                "sum_hi": pa.array([total >> 32], pa.int64()),
                "sum_lo": pa.array([total & 0xFFFFFFFF], pa.int64()),
            }
        )
    )


def dataset_diff(
    a: rd.Dataset,
    b: rd.Dataset,
    key_cols: list[str],
    val_cols: list[str],
) -> rd.Dataset:
    """Keyed table diff — the snapshot-comparison primitive behind data
    versioning: rows keyed by ``key_cols`` (unique per side) compare by
    the md5 of their '|'-joined ``val_cols`` rendering. One tagged union
    + one keyed reduce; unchanged keys are dropped IN the reduce output
    filter, so only the (usually tiny) delta survives.

    Output: (*key_cols, status) with status ∈ added | removed | changed.
    """
    import hashlib

    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            vals = [batch.column(c).to_pylist() for c in val_cols]
            hs = [
                hashlib.md5("|".join(str(v) for v in row).encode()).hexdigest()
                for row in zip(*vals)
            ]
            n = batch.num_rows
            cols = {c: batch.column(c) for c in key_cols}
            cols["in_a"] = pa.array(
                np.full(n, 1 if side == "a" else 0, np.int64), pa.int64()
            )
            cols["in_b"] = pa.array(
                np.full(n, 1 if side == "b" else 0, np.int64), pa.int64()
            )
            cols["h_a"] = pa.array(hs if side == "a" else [""] * n, pa.string())
            cols["h_b"] = pa.array(hs if side == "b" else [""] * n, pa.string())
            return pa.table(cols)

        return fn

    tagged = a.map_batches(tag("a"), batch_format="pyarrow", zero_copy_batch=True).union(
        b.map_batches(tag("b"), batch_format="pyarrow", zero_copy_batch=True)
    )
    merged = tagged.groupby(key_cols if len(key_cols) > 1 else key_cols[0]).aggregate(
        Max("in_a", alias_name="in_a"),
        Max("in_b", alias_name="in_b"),
        Max("h_a", alias_name="h_a"),
        Max("h_b", alias_name="h_b"),
    )

    def classify(batch: pa.Table) -> pa.Table:
        ia = batch.column("in_a").to_numpy(zero_copy_only=False)
        ib = batch.column("in_b").to_numpy(zero_copy_only=False)
        ha = np.asarray(batch.column("h_a").to_pylist(), dtype=object)
        hb = np.asarray(batch.column("h_b").to_pylist(), dtype=object)
        status = np.where(
            ia & ~ib.astype(bool),
            "removed",
            np.where(~ia.astype(bool) & ib.astype(bool), "added",
                     np.where(ha != hb, "changed", "")),
        )
        keep = status != ""
        out = batch.select(key_cols).filter(pa.array(keep))
        return out.append_column(
            "status", pa.array(status[keep].tolist(), pa.string())
        )

    return merged.map_batches(classify, batch_format="pyarrow", zero_copy_batch=True)


def pivot_counts(
    ds: rd.Dataset,
    row_col: str,
    col_col: str,
    categories: list[str],
) -> rd.Dataset:
    """Fixed-category cross-tabulation (PIVOT with the column set known at
    plan time — the only pivot shape with a stable distributed schema):
    one wide count column per category, per-batch dense ``np.add.at``
    partials, one |rows|-keyed sum. Values outside ``categories`` are
    counted in ``_other`` (no silent drop).

    Output: (row_col, *categories, _other)."""
    import numpy as np
    from ray.data.aggregate import Sum

    cat_idx = {c: i for i, c in enumerate(categories)}
    width = len(categories) + 1  # + _other

    def partial(batch: pa.Table) -> pa.Table:
        rows = np.asarray(batch.column(row_col).to_pylist(), dtype=object)
        cols = batch.column(col_col).to_pylist()
        names = list(categories) + ["_other"]
        if len(rows) == 0:
            return pa.table(
                {
                    row_col: pa.array([], pa.string()),
                    **{nm: pa.array([], pa.int64()) for nm in names},
                }
            )
        ur, ridx = np.unique(rows, return_inverse=True)
        cidx = np.fromiter(
            (cat_idx.get(c, width - 1) for c in cols), dtype=np.int64,
            count=len(cols),
        )
        grid = np.zeros((len(ur), width), dtype=np.int64)
        np.add.at(grid, (ridx, cidx), 1)
        out = {row_col: pa.array(ur.tolist(), pa.string())}
        for j, nm in enumerate(names):
            out[nm] = pa.array(grid[:, j], pa.int64())
        return pa.table(out)

    names = list(categories) + ["_other"]
    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(row_col)
        .aggregate(*[Sum(nm, alias_name=nm) for nm in names])
    )


def window_ntile(
    ds: rd.Dataset,
    keys: list[str],
    order_cols: list[str],
    n_tiles: int,
    tile_col: str = "tile",
) -> rd.Dataset:
    """SQL ``ntile(n)`` per key: equal buckets with the remainder spread
    over the FIRST buckets (the standard semantics — first n%k buckets
    get ceil(n/k) rows). Pure integer arithmetic on top of
    ``window_rank``'s (rank, n) — no extra shuffle beyond its one range
    sort."""
    import numpy as np

    ranked = window_rank(ds, keys, order_cols)

    def assign(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        q, m = n // n_tiles, n % n_tiles
        big = m * (q + 1)  # rows living in the ceil-sized buckets
        tile = np.where(
            r <= big,
            (r - 1) // np.maximum(q + 1, 1) + 1,
            m + (r - 1 - big) // np.maximum(q, 1) + 1,
        ).astype(np.int64)
        return batch.append_column(tile_col, pa.array(tile, pa.int64()))

    return ranked.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def melt(
    ds: rd.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_col: str = "variable",
    value_out: str = "value",
) -> rd.Dataset:
    """UNPIVOT / melt: wide value columns → long (id..., variable, value)
    rows — the inverse of ``pivot_counts``. Pure streaming explode (each
    batch emits len(value_cols) stacked copies), no shuffle."""

    def explode(batch: pa.Table) -> pa.Table:
        pieces = []
        for vc in value_cols:
            t = batch.select(id_cols)
            n = t.num_rows
            t = t.append_column(var_col, pa.array([vc] * n, pa.string()))
            t = t.append_column(value_out, batch.column(vc))
            pieces.append(t)
        return pa.concat_tables(pieces)

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


ZORDER_BITS = 21  # 2×21 = 42-bit Morton codes — int64-safe


def zorder_codes(
    ds: rd.Dataset,
    x_col: str,
    y_col: str,
    id_cols: list[str],
    bits: int = ZORDER_BITS,
) -> rd.Dataset:
    """Morton (Z-order) codes for two non-negative integer columns — the
    locality-preserving sort key behind multi-dimensional data layout
    (files clustered by z-range serve range predicates on EITHER column
    with bounded false-positive reads). Pure vectorized bit interleave
    (x gets the even bit positions, y the odd); values are range-guarded
    against ``bits`` overflow rather than silently truncated.

    Output: (*id_cols, z)."""
    import numpy as np

    def encode(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lim = 1 << bits
        if len(x) and (
            x.min() < 0 or y.min() < 0 or x.max() >= lim or y.max() >= lim
        ):
            raise ValueError(
                f"zorder_codes: inputs must lie in [0, 2^{bits}) — "
                "rescale or raise `bits`"
            )
        z = np.zeros(len(x), dtype=np.int64)
        for i in range(bits):
            z |= ((x >> i) & 1) << (2 * i)
            z |= ((y >> i) & 1) << (2 * i + 1)
        out = {c: batch.column(c) for c in id_cols}
        out["z"] = pa.array(z, pa.int64())
        return pa.table(out)

    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def profile_table(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Per-column data-quality profile — the describe/profiler surface:
    (column, n, n_null, n_distinct, min_s, max_s). Count/null/min/max
    ride one combiner pass (native-typed min/max, rendered to string
    only at the end so numeric order is preserved); exact distincts use
    the md5-collapse two-level reduce per column. All reduces are
    column-count- or distinct-bounded, never corpus-bounded."""
    import hashlib

    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    def stat_partial(batch: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs = [], [], [], [], []
        for c in cols:
            col = batch.column(c)
            names.append(c)
            ns.append(batch.num_rows)
            nulls.append(col.null_count)
            valid = col.drop_null()
            if len(valid):
                mins.append(str(pc.min(valid).as_py()))
                maxs.append(str(pc.max(valid).as_py()))
            else:
                mins.append(None)
                maxs.append(None)
        return pa.table(
            {
                "column": pa.array(names, pa.string()),
                "p_n": pa.array(ns, pa.int64()),
                "p_null": pa.array(nulls, pa.int64()),
                "p_min": pa.array(mins, pa.string()),
                "p_max": pa.array(maxs, pa.string()),
            }
        )

    # NOTE: per-batch min/max string rendering then global string Min/Max
    # is only order-correct when the string order matches the value order
    # per batch — so reduce NATIVE min/max per batch and take the global
    # extreme over the per-batch candidates driver-side (≤ blocks×cols
    # rows, metadata-sized)
    stats = ds.map_batches(
        stat_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    import pandas as pd

    rows = []
    for c, grp in stats.groupby("column"):
        vals_min = [v for v in grp["p_min"] if v is not None]
        vals_max = [v for v in grp["p_max"] if v is not None]
        # re-parse through the original dtype for a correct total order
        field = ds.schema().base_schema.field(c)
        caster = (
            (lambda s: int(s))
            if pa.types.is_integer(field.type)
            else (lambda s: float(s))
            if pa.types.is_floating(field.type)
            else (lambda s: s)
        )
        rows.append(
            {
                "column": c,
                "n": int(grp["p_n"].sum()),
                "n_null": int(grp["p_null"].sum()),
                "min_s": str(min((caster(v) for v in vals_min), default=None)),
                "max_s": str(max((caster(v) for v in vals_max), default=None)),
            }
        )
    base = pd.DataFrame(rows)

    # exact distinct per column via md5 collapse
    def distinct_partial(batch: pa.Table) -> pa.Table:
        names, hs = [], []
        for c in cols:
            # NULLs are excluded, matching SQL count(DISTINCT ...)
            for v in set(batch.column(c).drop_null().to_pylist()):
                names.append(c)
                hs.append(hashlib.md5(str(v).encode()).hexdigest())
        t = pa.table(
            {"column": pa.array(names, pa.string()), "h": pa.array(hs, pa.string())}
        )
        return t

    dist = (
        ds.map_batches(distinct_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["column", "h"])
        .aggregate(Count(alias_name="_c"))
    )

    def one(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "column": batch.column("column"),
                "p_d": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )

    ndist = (
        dist.map_batches(one, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("column")
        .aggregate(Sum("p_d", alias_name="n_distinct"))
        .to_pandas()
    )
    out = base.merge(ndist, on="column")
    out = out[["column", "n", "n_null", "n_distinct", "min_s", "max_s"]]
    return rd.from_pandas(out)


SKYLINE_X_LIMIT = 1_000_000  # distinct-x bound for the driver sweep


def skyline_2d(
    ds: rd.Dataset,
    x_col: str,
    y_col: str,
    id_cols: list[str],
) -> rd.Dataset:
    """2-D skyline (Pareto front, maximize both axes — Börzsönyi et al.):
    rows not dominated by any other (q ≥ on both axes, > on at least
    one). Shape: one per-x max-y groupby (distinct-x-bounded — guarded
    at SKYLINE_X_LIMIT; a continuous x needs the sorted prefix-max
    formulation instead), a driver sweep over the ≤ distinct-x frontier
    candidates (metadata-sized), and one broadcast ``pc.is_in`` filter
    over the corpus. Ties kept per dominance semantics: equal points
    never dominate each other.

    Output: (*id_cols, x, y) of the skyline rows."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    per_x = (
        ds.map_batches(
            lambda t: t.select([x_col, y_col])
            .group_by([x_col])
            .aggregate([(y_col, "max")])
            .rename_columns([x_col, "max_y"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby(x_col)
        .aggregate(Max("max_y", alias_name="max_y"))
        .to_pandas()
    )
    if len(per_x) > SKYLINE_X_LIMIT:
        raise ValueError(
            "skyline_2d: too many distinct x values for the driver sweep — "
            "use a prefix-max formulation"
        )
    per_x = per_x.sort_values(x_col, ascending=False)
    keep_pairs = []
    runmax = None
    for xv, yv in zip(per_x[x_col], per_x["max_y"]):
        if runmax is None or yv > runmax:
            keep_pairs.append((int(xv), int(yv)))
            runmax = yv if runmax is None else max(runmax, yv)
    import ray

    # encode frontier (x, y) pairs as collision-free composite keys
    enc = pa.array(
        np.array([x * (1 << 31) + y for x, y in keep_pairs], dtype=np.int64),
        pa.int64(),
    )
    ref = ray.put(enc)

    def keep(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        key = pa.array(x * (1 << 31) + y, pa.int64())
        mask = pc.is_in(key, value_set=_cached_lut(_ref))
        out = batch.select(id_cols + [x_col, y_col]).filter(mask)
        return out

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def head_k_per_key(
    ds: rd.Dataset,
    key_cols: list[str],
    order_cols: list[str],
    k: int,
    carry_cap: int = 65536,
) -> rd.Dataset:
    """First ``k`` rows per key in ``order_cols`` order — the per-domain
    cap / per-host quota shape every crawl pipeline needs (cap documents
    per site before dedup so mega-hosts can't dominate the corpus).

    One range sort + a vectorized run kernel (``sorted_run_map``); the
    kernel provably reads only each run's head, so carry overflow
    TRUNCATES safely (cap raised to ``max(carry_cap, k)`` so a truncated
    carry can never cut inside the kept head)."""
    import functools

    import numpy as np

    def _head_block(t: pa.Table, _k=k, _keys=tuple(key_cols)) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t
        bounds = _table_run_starts(t, list(_keys))
        starts, ends = bounds[:-1], bounds[1:]
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        pos = np.arange(n) - starts[run_id]
        return t.filter(pa.array(pos < _k))

    return sorted_run_map(
        ds,
        key_cols=list(key_cols),
        order_cols=list(order_cols),
        block_fn=functools.partial(_head_block),
        carry_cap=max(carry_cap, k),
        on_carry_overflow="truncate",
    )


def corr_census(
    ds: rd.Dataset, x_col: str, y_col: str
) -> rd.Dataset:
    """Exact Pearson-correlation census between two integer columns — the
    data-QA primitive behind "does quality correlate with length?"
    dashboards: per-batch int64 moment partials (n, Σx, Σy, Σx², Σy²,
    Σxy) → ONE tiny reduce — associativity-proof because every sum is
    exact integer arithmetic; r is derived from the closed moments at
    the end and quantized to the 1e-6 lattice.

    Output (one row): n, sum_x, sum_y, sum_xx, sum_yy, sum_xy, r_e6.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t.column(x_col), pa.int64()).to_numpy(zero_copy_only=False)
        y = pc.cast(t.column(y_col), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sum_x": pa.array([int(x.sum())], pa.int64()),
                "sum_y": pa.array([int(y.sum())], pa.int64()),
                "sum_xx": pa.array([int((x * x).sum())], pa.int64()),
                "sum_yy": pa.array([int((y * y).sum())], pa.int64()),
                "sum_xy": pa.array([int((x * y).sum())], pa.int64()),
            }
        )

    agg = (
        ds.select_columns([x_col, y_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(None)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_x", alias_name="sum_x"),
            Sum("sum_y", alias_name="sum_y"),
            Sum("sum_xx", alias_name="sum_xx"),
            Sum("sum_yy", alias_name="sum_yy"),
            Sum("sum_xy", alias_name="sum_xy"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n")[0].as_py()
        sx, sy = t.column("sum_x")[0].as_py(), t.column("sum_y")[0].as_py()
        sxx = t.column("sum_xx")[0].as_py()
        syy = t.column("sum_yy")[0].as_py()
        sxy = t.column("sum_xy")[0].as_py()
        num = n * sxy - sx * sy  # exact ints throughout
        den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
        r = float(num) / np.sqrt(float(den2)) if den2 > 0 else 0.0
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "sum_x": pa.array([sx], pa.int64()),
                "sum_y": pa.array([sy], pa.int64()),
                "sum_xx": pa.array([sxx], pa.int64()),
                "sum_yy": pa.array([syy], pa.int64()),
                "sum_xy": pa.array([sxy], pa.int64()),
                "r_e6": pa.array(
                    [int(np.rint(r * 1e6))], pa.int64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def ks_drift(
    ds: rd.Dataset,
    value_col: str,
    group_col: str,
    group_a: str,
    group_b: str,
) -> rd.Dataset:
    """Two-sample Kolmogorov-Smirnov distribution-drift census over an
    integer column — the data-QA test behind "did this source's length
    distribution shift?": D = max_v |F_a(v) − F_b(v)| evaluated exactly
    on the integer cross lattice (d_num = max |cum_a·N_b − cum_b·N_a|,
    ks_e6 = d_num·10⁶ // (N_a·N_b)) so both engines agree bit-for-bit.

    Shape: per-batch (v, n_a, n_b) combiner → one value-keyed sum → one
    range sort + :func:`sorted_prefix_sum` ×2 (block-carry running
    counts, no window shuffle) → one global max reduce. Output (one
    row): n_a, n_b, d_num, ks_e6.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        keep = pc.or_(pc.equal(g, group_a), pc.equal(g, group_b))
        t = t.filter(keep)
        va = pc.cast(t.column(value_col), pa.int64())
        is_a = pc.cast(
            pc.equal(t.column(group_col), group_a), pa.int64()
        )
        part = (
            pa.table(
                {
                    "v": va,
                    "n_a": is_a,
                    "n_b": pc.subtract(pa.scalar(1, pa.int64()), is_a),
                }
            )
            .group_by(["v"])
            .aggregate([("n_a", "sum"), ("n_b", "sum")])
        )
        return pa.table(
            {
                "v": part.column("v"),
                "_g": pa.array(np.zeros(part.num_rows, np.int64)),
                "n_a": pc.cast(part.column("n_a_sum"), pa.int64()),
                "n_b": pc.cast(part.column("n_b_sum"), pa.int64()),
            }
        )

    per_v = (
        ds.select_columns([value_col, group_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(
            Sum("n_a", alias_name="n_a"),
            Sum("n_b", alias_name="n_b"),
        )
    )

    def regroup(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {
                "_g": pa.array(np.zeros(t.num_rows, np.int64)),
                "v": t.column("v"),
                "n_a": pc.cast(t.column("n_a"), pa.int64()),
                "n_b": pc.cast(t.column("n_b"), pa.int64()),
            }
        )

    per_v = per_v.map_batches(
        regroup, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    cum = sorted_prefix_sum(per_v, ["_g"], ["v"], "n_a", out_col="c_a")
    cum = sorted_prefix_sum(cum, ["_g"], ["v"], "n_b", out_col="c_b")

    totals = per_v.groupby("_g").aggregate(
        Sum("n_a", alias_name="t_a"), Sum("n_b", alias_name="t_b")
    ).take_all()
    n_a_tot = int(totals[0]["t_a"]) if totals else 0
    n_b_tot = int(totals[0]["t_b"]) if totals else 0

    def diff(t: pa.Table) -> pa.Table:
        ca = t.column("c_a").to_numpy(zero_copy_only=False)
        cb = t.column("c_b").to_numpy(zero_copy_only=False)
        d = np.abs(ca * n_b_tot - cb * n_a_tot)
        return pa.table({"d": pa.array(d, pa.int64())})

    dmax = (
        cum.map_batches(diff, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(None)
        .aggregate(Max("d", alias_name="d_num"))
    )

    def finish(t: pa.Table) -> pa.Table:
        d_num = int(t.column("d_num")[0].as_py()) if t.num_rows else 0
        denom = n_a_tot * n_b_tot
        return pa.table(
            {
                "n_a": pa.array([n_a_tot], pa.int64()),
                "n_b": pa.array([n_b_tot], pa.int64()),
                "d_num": pa.array([d_num], pa.int64()),
                "ks_e6": pa.array(
                    [(d_num * 1_000_000) // denom if denom else 0], pa.int64()
                ),
            }
        )

    return dmax.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
