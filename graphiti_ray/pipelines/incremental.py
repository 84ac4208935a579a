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
"""

from __future__ import annotations

from datetime import datetime

import pyarrow as pa

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
    read_table,
    replace_table,
)


def _filter_in(ds: rd.Dataset, col: str, values: frozenset, keep: bool) -> rd.Dataset:
    """Rows whose ``col`` is (``keep``) or is not in ``values``: the value
    set ships once as a broadcast Arrow array, probed with ``pc.is_in``."""
    import ray

    ref = ray.put(pa.array(sorted(values), pa.string()))

    def f(batch: pa.Table, _ref=ref) -> pa.Table:
        import pyarrow.compute as pc

        from graphiti_ray.stages.link import _cached_lut

        mask = pc.is_in(batch.column(col), value_set=_cached_lut(_ref))
        return batch.filter(mask if keep else pc.invert(mask))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


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
    new_pages: rd.Dataset,
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

    Raises ``ValueError`` when ``embeddings`` disagrees with the stored
    edges table (``fact_embedding`` present or not): appending would
    leave a table of mixed schemas that later searches cannot read."""
    _check_embeddings(out_root, embeddings)
    new_eps = episodes_dataset(new_pages, run_ts=run_ts).materialize()
    affected = frozenset(
        r["group_id"] for r in new_eps.select_columns(["group_id"]).take_all()
    )
    from graphiti_ray.state.checkpoint import checkpointed_write, is_complete

    if not is_complete(out_root, "episodes"):
        # bootstrap an EMPTY root: the new episodes become the initial
        # graph via the batch pipeline's resume path (run_kg skips the
        # just-written episodes checkpoint and derives every other table)
        from graphiti_ray.pipelines.kg import run_kg

        checkpointed_write(new_eps, out_root, "episodes", {"note": "bootstrap"})
        run_kg("unused", out_root, run_ts=run_ts, embeddings=embeddings)
        return {
            "episodes_added": new_eps.count(),
            "affected_groups": sorted(affected),
        }
    # uuid-level upsert: drop episodes already present (affected groups only
    # are scanned — the existing-uuid set is increment-sized, not graph-sized)
    existing = frozenset(
        r["uuid"]
        for r in _filter_in(
            read_table(out_root, "episodes"), "group_id", affected, keep=True
        )
        .select_columns(["uuid"])
        .take_all()
    )
    if existing:
        new_eps = _filter_in(new_eps, "uuid", existing, keep=False).materialize()
    if new_eps.count() == 0:
        return {"episodes_added": 0, "affected_groups": sorted(affected)}
    new_extracted = extracted_dataset(new_eps).materialize()

    n_eps = append_table(out_root, "episodes", new_eps, note="add_pages")
    append_table(out_root, "extracted", new_extracted, note="add_pages")

    # full extracted rows for the affected groups (old + just-appended)
    extracted_aff = _filter_in(
        read_table(out_root, "extracted"), "group_id", affected, keep=True
    ).materialize()
    mentions_aff, triples_aff = split_extracted(extracted_aff)

    # canonical map: untouched groups verbatim + fresh resolution for touched
    canon_old = read_table(out_root, "canonical_map")
    canon_keep = _filter_in(canon_old, "group_id", affected, keep=False)
    # arrow-normalize: map_groups emits pandas blocks, and a later sort over
    # a mixed arrow+pandas union trips ray's block-type assertion
    canon_new = (
        canonical_map(mentions_aff)
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )
    canon = canon_keep.union(canon_new).materialize()
    replace_table(out_root, "canonical_map", canon)

    # nodes: untouched groups verbatim (their summaries and attributes
    # too), fresh rows for the affected groups only
    n_keep = _filter_in(read_table(out_root, "nodes"), "group_id", affected, keep=False)
    n_new = nodes_from_canonical(canon_new)
    if embeddings:
        n_new = with_embedding(n_new, "name", "name_embedding")
    replace_table(out_root, "nodes", n_keep.union(n_new))

    lut = canon_lookup_ref(canon_new)

    m_keep = _filter_in(
        read_table(out_root, "mention_edges"), "group_id", affected, keep=False
    )
    m_new = mention_edges_broadcast(mentions_aff, lut)
    replace_table(out_root, "mention_edges", m_keep.union(m_new))

    e_keep = _filter_in(
        read_table(out_root, "edges"), "group_id", affected, keep=False
    )
    resolved = apply_canonical_broadcast(triples_aff, lut)
    e_new = invalidation_sweep_scalable(merged_edges(resolved, run_ts), run_ts)
    if embeddings:
        e_new = with_embedding(e_new, "fact", "fact_embedding")
    e_new = episodes_to_list(e_new)
    replace_table(out_root, "edges", e_keep.union(e_new))

    # incremental communities (graphiti.py:464-471 updates communities per
    # new entity): when the KG keeps community tables, recompute them for
    # the affected groups from the refreshed nodes/edges and swap, keeping
    # untouched groups verbatim (label propagation is group-scoped — edges
    # never cross group_id).
    from graphiti_ray.state.checkpoint import is_complete

    if is_complete(out_root, "communities"):
        from graphiti_ray.stages.graph import build_communities

        comm_new = build_communities(
            _filter_in(read_table(out_root, "nodes"), "group_id", affected, keep=True),
            _filter_in(read_table(out_root, "edges"), "group_id", affected, keep=True),
        )
        c_keep = _filter_in(
            read_table(out_root, "communities"), "group_id", affected, keep=False
        )
        replace_table(
            out_root,
            "communities",
            c_keep.union(
                comm_new["communities"].map_batches(lambda t: t, batch_format="pyarrow")
            ),
        )
        if is_complete(out_root, "community_edges"):
            ce_keep = _filter_in(
                read_table(out_root, "community_edges"),
                "group_id",
                affected,
                keep=False,
            )
            replace_table(
                out_root,
                "community_edges",
                ce_keep.union(
                    comm_new["community_edges"].map_batches(
                        lambda t: t, batch_format="pyarrow"
                    )
                ),
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
