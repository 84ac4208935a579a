"""Incremental ingestion: add new pages to an existing KG (T6 semantics).

The reference's core usage is online: each new episode re-resolves against
the accumulated graph (graphiti.py:267-484). The batch-world equivalent —
with the same outcome — is a **group-granular incremental update**:

1. extract the new pages; the *affected partitions* are exactly the
   group_ids (hosts) they touch — everything else is provably unchanged
   (all linking/merging/invalidation is group-scoped, SURVEY §1.1);
2. append the new episodes/extracted rows to their tables (append-only,
   no rewrite of history — T6's "expired_at never deletes");
3. recompute canonical_map / nodes / mention_edges / edges ONLY for the
   affected groups from the (now appended) extracted table, keep the
   untouched groups' rows verbatim (a summarized or attributed node of an
   untouched group keeps its digest), and atomically swap the tables.

At 10^12-document scale the affected-group set per increment is tiny
relative to the graph, so an update costs O(affected groups), not O(graph).
Late/out-of-order data is handled for free: the sweep re-sorts by event
time, so a late contradicting page retro-invalidates exactly as the
reference's interval kernel would (FIXTURES.md F3 "out-of-order arrival").

Each group table has two tiers, chosen per table by
``checkpoint.fits_in_process`` (the ``ops.SMALL_SORT_ROWS`` /
``ops.SMALL_SORT_BYTES`` rule the facade's search uses): a table whose
parquet footers are within both bounds is read with pyarrow in this
process and split into untouched and affected groups' rows by one
``pc.is_in`` on ``group_id`` (``_split``); the rewritten table is the kept
rows plus the new part, written by pyarrow as one file (``_swap``), and
an increment within the bounds is appended as one file. A larger table
keeps the Dataset path: lazy ``_filter_in`` scans, a union, and Ray's
parquet writers.

The kernels follow the ``extracted`` table's tier. When ``_split`` gives
its affected rows as a ``pa.Table``, the chain (split, canonical map,
nodes, mention edges, merge, sweep, embeddings) passes tables from
kernel to kernel: each kernel runs its block function once in this
process and no Ray Data job starts, except for two outputs that stay
Datasets because their rows are counted with ``Dataset.count()`` (the
benchmark's traced counters): ``split_extracted``'s views and
``canonical_map``. Each is fetched back once. Otherwise every kernel
runs on Datasets, as ``run_kg`` calls them. The kernels are called
through this module's globals either way. Pages given as a ``pa.Table``
(``GraphitiFacade.process_pending``) are also rendered and extracted in
this process; pages given as a Dataset (``ingest_directory``) keep Ray's
extraction, so a large page file is not put on one core.
"""

from __future__ import annotations

from datetime import datetime

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from graphiti_ray.stages.extract import DEFAULT_RUN_TS, episodes_dataset
from graphiti_ray.stages.models import auto_embedding as with_embedding
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
from graphiti_ray.state.checkpoint import (
    append_table,
    fetch_table,
    read_table,
    read_table_arrow,
    replace_table,
    table_fits_in_process,
    table_if_fits,
)


def _filter_in(ds: rd.Dataset, col: str, values: frozenset, keep: bool) -> rd.Dataset:
    """Rows whose ``col`` is (``keep``) or is not in ``values``: the value
    set ships once as a broadcast Arrow array, probed with ``pc.is_in``."""
    import ray

    ref = ray.put(pa.array(sorted(values), pa.string()))

    def f(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        mask = pc.is_in(batch.column(col), value_set=_cached_lut(_ref))
        return batch.filter(mask if keep else pc.invert(mask))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _split(out_root: str, name: str, affected: frozenset, columns=None) -> tuple:
    """(untouched groups' rows, affected groups' rows) of table ``name``:
    two ``pa.Table``s split in this process by one ``pc.is_in`` on
    ``group_id`` when the table's footers put it within the in-process
    bounds, else two lazy Dataset filters of one scan."""
    if table_fits_in_process(out_root, name):
        t = read_table_arrow(out_root, name, columns)
        mask = pc.is_in(t["group_id"], value_set=pa.array(sorted(affected), pa.string()))
        return t.filter(pc.invert(mask)), t.filter(mask)
    ds = read_table(out_root, name, columns)
    return (
        _filter_in(ds, "group_id", affected, keep=False),
        _filter_in(ds, "group_id", affected, keep=True),
    )


def _dataset(rows: rd.Dataset | pa.Table) -> rd.Dataset:
    """``rows`` as a Dataset."""
    return rd.from_arrow(rows) if isinstance(rows, pa.Table) else rows


def _swap(out_root: str, name: str, keep, new) -> None:
    """Replace table ``name`` with ``keep`` ∪ ``new``. When ``keep`` is a
    ``pa.Table`` (``_split``'s in-process tier), a Dataset ``new`` is
    fetched once and the union is written by pyarrow as one file."""
    if isinstance(keep, pa.Table):
        if not isinstance(new, pa.Table):
            new = fetch_table(new)
        replace_table(out_root, name, pa.concat_tables([keep, new], promote_options="default"))
    else:
        replace_table(out_root, name, keep.union(_dataset(new)))


def _check_embeddings(out_root: str, embeddings: bool) -> None:
    import pyarrow.parquet as pq

    from graphiti_ray.state.checkpoint import is_complete, table_files

    files = table_files(out_root, "edges") if is_complete(out_root, "edges") else []
    stored = bool(files) and "fact_embedding" in pq.read_schema(files[0]).names
    if files and stored != embeddings:
        raise ValueError(
            f"add_pages(embeddings={embeddings}) disagrees with the edges table "
            f"under {out_root}, which was written "
            f"{'with' if stored else 'without'} fact_embedding; "
            f"pass embeddings={stored}"
        )


def add_pages(
    out_root: str,
    new_pages: rd.Dataset | pa.Table,
    run_ts: datetime = DEFAULT_RUN_TS,
    embeddings: bool = True,
) -> dict:
    """Ingest new pages into the KG at ``out_root``; returns update stats.

    Idempotent at uuid granularity: new episodes are anti-joined against
    the affected groups' existing episode uuids before the append, so
    re-running the same call (e.g. after a crash mid-update) appends
    nothing and simply recomputes the derived tables — the MERGE-upsert
    semantics of the reference's save path (bulk_utils.py:93-167). Derived
    tables are swapped one at a time; a crash between swaps leaves them
    individually consistent and the rerun converges.

    ``new_pages`` given as a ``pa.Table`` are rendered and extracted in
    this process; given as a Dataset, by Ray (module docstring).

    Raises ``ValueError`` when ``embeddings`` disagrees with the stored
    edges table (``fact_embedding`` present or not): appending would
    leave a table of mixed schemas that later searches cannot read."""
    import ray

    _check_embeddings(out_root, embeddings)
    # the increment as a table when it fits in process; new_eps is what
    # extraction runs on: the table itself only for a pages table
    pages_table = isinstance(new_pages, pa.Table)
    if pages_table:
        new_eps = inc = episodes_dataset(new_pages, run_ts=run_ts)
    else:
        new_eps = episodes_dataset(new_pages, run_ts=run_ts).materialize()
        inc = table_if_fits(new_eps)
    if isinstance(inc, pa.Table):
        affected = frozenset(pc.unique(inc["group_id"]).to_pylist())
    else:
        affected = frozenset(
            g
            for t in ray.get(new_eps.to_arrow_refs())
            if t.num_rows
            for g in pc.unique(t["group_id"]).to_pylist()
        )
    from graphiti_ray.state.checkpoint import checkpointed_write, is_complete

    if not is_complete(out_root, "episodes"):
        # bootstrap an EMPTY root: the new episodes become the initial
        # graph via the batch pipeline's resume path (run_kg skips the
        # just-written episodes checkpoint and derives every other table)
        from graphiti_ray.pipelines.kg import run_kg

        checkpointed_write(inc, out_root, "episodes", {"note": "bootstrap"})
        run_kg("unused", out_root, run_ts=run_ts, embeddings=embeddings)
        return {
            "episodes_added": inc.num_rows if isinstance(inc, pa.Table) else inc.count(),
            "affected_groups": sorted(affected),
        }
    # uuid-level upsert: drop episodes already present (affected groups only
    # are compared — the existing-uuid set is increment-sized, not graph-sized)
    _, old = _split(out_root, "episodes", affected, ["group_id", "uuid"])
    if isinstance(old, pa.Table):
        existing = old["uuid"]
    else:
        existing = pa.array(
            sorted({r["uuid"] for r in old.select_columns(["uuid"]).take_all()}),
            pa.string(),
        )
    if isinstance(inc, pa.Table):
        inc = inc.filter(pc.invert(pc.is_in(inc["uuid"], value_set=existing)))
        new_eps = inc if pages_table else rd.from_arrow(inc)
        added = inc.num_rows
    else:
        if len(existing):
            new_eps = inc = _filter_in(
                new_eps, "uuid", frozenset(existing.to_pylist()), keep=False
            ).materialize()
        added = new_eps.count()
    if added == 0:
        return {"episodes_added": 0, "affected_groups": sorted(affected)}
    new_extracted = extracted_dataset(new_eps)
    if not isinstance(new_extracted, pa.Table):
        new_extracted = table_if_fits(new_extracted.materialize())

    n_eps = append_table(out_root, "episodes", inc, note="add_pages")
    append_table(out_root, "extracted", new_extracted, note="add_pages")

    # full extracted rows for the affected groups (old + just-appended);
    # on the in-process tier they stay tables through the chain, and the
    # two counted outputs are fetched back once each
    _, extracted_aff = _split(out_root, "extracted", affected)
    in_process = isinstance(extracted_aff, pa.Table)
    if in_process:
        mentions_aff, triples_aff = map(fetch_table, split_extracted(extracted_aff))
    else:
        mentions_aff, triples_aff = split_extracted(extracted_aff.materialize())

    # canonical map: untouched groups verbatim + fresh resolution for touched
    canon_keep, _ = _split(out_root, "canonical_map", affected)
    canon_new = canonical_map(mentions_aff)
    if in_process:
        canon_new = fetch_table(canon_new)
    else:
        # arrow-normalize: map_groups emits pandas blocks, and a later sort
        # over a mixed arrow+pandas union trips ray's block-type assertion
        canon_new = canon_new.map_batches(lambda t: t, batch_format="pyarrow").materialize()
    _swap(out_root, "canonical_map", canon_keep, canon_new)

    # nodes: untouched groups verbatim (their summaries and attributes
    # too), fresh rows for the affected groups only
    n_keep, _ = _split(out_root, "nodes", affected)
    n_new = nodes_from_canonical(canon_new)
    if embeddings:
        n_new = with_embedding(n_new, "name", "name_embedding")
    _swap(out_root, "nodes", n_keep, n_new)

    lut = canon_lookup_ref(canon_new)

    m_keep, _ = _split(out_root, "mention_edges", affected)
    _swap(out_root, "mention_edges", m_keep, mention_edges_broadcast(mentions_aff, lut))

    e_keep, _ = _split(out_root, "edges", affected)
    resolved = apply_canonical_broadcast(triples_aff, lut)
    e_new = invalidation_sweep_scalable(merged_edges(resolved, run_ts), run_ts)
    if embeddings:
        e_new = with_embedding(e_new, "fact", "fact_embedding")
    _swap(out_root, "edges", e_keep, episodes_to_list(e_new))

    # incremental communities (graphiti.py:464-471 updates communities per
    # new entity): when the KG keeps community tables, recompute them for
    # the affected groups from the refreshed nodes/edges and swap, keeping
    # untouched groups verbatim (label propagation is group-scoped — edges
    # never cross group_id).
    if is_complete(out_root, "communities"):
        from graphiti_ray.stages.graph import build_communities

        _, nodes_aff = _split(out_root, "nodes", affected)
        _, edges_aff = _split(out_root, "edges", affected)
        comm_new = build_communities(_dataset(nodes_aff), _dataset(edges_aff))
        names = ["communities"]
        if is_complete(out_root, "community_edges"):
            names.append("community_edges")
        for name in names:
            keep, _ = _split(out_root, name, affected)
            _swap(
                out_root,
                name,
                keep,
                comm_new[name].map_batches(lambda t: t, batch_format="pyarrow"),
            )

    return {
        "episodes_added": n_eps,
        "affected_groups": sorted(affected),
    }


def ingest_directory(
    out_root: str,
    incoming_dir: str,
    pattern: str = "*.parquet",
    run_ts: datetime = DEFAULT_RUN_TS,
    embeddings: bool = True,
) -> list[dict]:
    """Batch-world equivalent of the reference's REST ingest queue (S3,
    server/graph_service/routers/ingest.py:65-100 — an asyncio worker
    draining queued AddEntityRequests in order): page files landing in a
    directory are the queue, lexicographic file order is arrival order,
    and each file is one ``add_pages`` micro-batch.

    Crash-resumable and idempotent: processed file names persist in
    ``<out_root>/INGEST_LOG.json`` (written after each file), and
    ``add_pages`` itself upserts at episode-uuid granularity, so replaying
    a half-processed file after a crash appends nothing twice."""
    import glob
    import json
    import os

    import ray.data as rd

    log_path = os.path.join(out_root, "INGEST_LOG.json")
    done: set = set()
    if os.path.exists(log_path):
        try:
            with open(log_path) as f:
                done = set(json.load(f)["files"])
        except (json.JSONDecodeError, KeyError, OSError):
            # a crash mid-write can leave a truncated log; add_pages is
            # idempotent at episode-uuid granularity, so replaying every
            # file from an empty set converges to the same state
            done = set()
    results = []
    for path in sorted(glob.glob(os.path.join(incoming_dir, pattern))):
        base = os.path.basename(path)
        if base in done:
            results.append({"file": base, "skipped": True})
            continue
        stats = add_pages(
            out_root, rd.read_parquet(path), run_ts=run_ts, embeddings=embeddings
        )
        done.add(base)
        # atomic log update: temp file + os.replace, so a crash mid-write
        # never leaves a truncated INGEST_LOG.json behind
        tmp_path = log_path + ".tmp"
        with open(tmp_path, "w") as f:
            json.dump({"files": sorted(done)}, f)
        os.replace(tmp_path, log_path)
        results.append({"file": base, **stats})
    return results
