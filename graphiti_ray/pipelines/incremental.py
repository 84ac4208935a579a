"""Incremental ingestion: add new pages to an existing KG (T6 semantics).

The reference's core usage is online: each new episode re-resolves against
the accumulated graph (graphiti.py:267-484). The batch-world equivalent —
with the same outcome — is a **group-granular incremental update**: the
*affected groups* are exactly the group_ids (hosts) the new pages touch,
and every other group is provably unchanged (all linking, merging and
invalidation is group-scoped, SURVEY §1.1). ``add_pages`` runs the build's
own chain (``kg._kg_chain``) with an ingest stage runner:

- ``episodes``: the increment, not written yet;
- ``extracted``: the new episodes and their extraction are appended back
  to back (append-only, T6's "expired_at never deletes"), and the stage
  gives the affected groups' full ``extracted`` rows;
- every other table: the untouched groups' rows are kept verbatim (a
  summarized or attributed node keeps its digest), the affected groups'
  rows are made and the union is swapped in atomically. A table the graph
  does not keep (``community_edges`` without ``communities``) is made but
  not written.

So an update costs O(affected groups), not O(graph). Late or out-of-order
data is handled for free: the sweep re-sorts by event time, so a late
contradicting page retro-invalidates exactly as the reference's interval
kernel would (FIXTURES.md F3 "out-of-order arrival").

Each group table has two tiers, chosen per table by
``checkpoint.table_fits_in_process`` (the ``ops.SMALL_SORT_ROWS`` /
``ops.SMALL_SORT_BYTES`` rule the facade's search uses): a table within
both bounds is read, split by ``group_id`` and rewritten with pyarrow in
this process as one file (``_split``); a larger one takes lazy Dataset
filters, a union and Ray's parquet writers. When the affected
``extracted`` rows are a ``pa.Table`` the kernels chain tables in this
process. Pages given as a ``pa.Table`` (``GraphitiFacade.process_pending``)
are also rendered and extracted here; pages given as a Dataset
(``ingest_directory``) keep Ray's extraction.
"""

from __future__ import annotations

import sys
from datetime import datetime

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from graphiti_ray.pipelines.kg import _dataset, _kg_chain, run_kg
from graphiti_ray.stages.extract import DEFAULT_RUN_TS, episodes_dataset

# The kernels _kg_chain calls, imported here although this module never
# names them: the chain looks each one up on this module, so perfbench's
# traced ingest wraps them here, apart from run_kg's.
from graphiti_ray.stages.link import (  # noqa: F401
    BROADCAST_LIMIT,
    apply_canonical,
    apply_canonical_broadcast,
    canon_lookup_ref,
    canonical_map,
    mention_edges_broadcast,
    nodes_from_canonical,
)
from graphiti_ray.stages.models import auto_embedding as with_embedding  # noqa: F401
from graphiti_ray.stages.nlp import extracted_dataset, split_extracted  # noqa: F401
from graphiti_ray.stages.temporal import (  # noqa: F401
    episodes_to_list,
    invalidation_sweep_scalable,
    merged_edges,
)
from graphiti_ray.state.checkpoint import (
    append_table,
    checkpointed_write,
    fetch_table,
    is_complete,
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


def _check_embeddings(out_root: str, embeddings: bool) -> None:
    import pyarrow.parquet as pq

    from graphiti_ray.state.checkpoint import table_files

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
    if not is_complete(out_root, "episodes"):
        # bootstrap an EMPTY root: the new episodes become the initial
        # graph via the batch pipeline's resume path (run_kg skips the
        # just-written episodes checkpoint and derives every other table)
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

    def stage(name, make):
        """The ingest stage runner (module docstring)."""
        if name == "episodes":
            return new_eps
        if name == "extracted":
            new = make()
            if not isinstance(new, pa.Table):
                new = table_if_fits(new.materialize())
            append_table(out_root, "episodes", inc, note="add_pages")
            append_table(out_root, "extracted", new, note="add_pages")
            _, rows = _split(out_root, "extracted", affected)
            return rows if isinstance(rows, pa.Table) else rows.materialize()
        if not is_complete(out_root, name):
            return make()
        keep, _ = _split(out_root, name, affected)
        new = make()
        if isinstance(keep, pa.Table):
            new = new if isinstance(new, pa.Table) else fetch_table(new)
            both = pa.concat_tables([keep, new], promote_options="default")
        else:
            new = _dataset(new).materialize()
            both = keep.union(new)
        replace_table(out_root, name, both)
        return new

    _kg_chain(
        sys.modules[__name__],
        stage,
        replace=None,  # no node rewrite runs on an increment
        make_episodes=None,  # the runner gives the increment
        run_ts=run_ts,
        num_partitions=None,
        nlp_concurrency=None,
        embeddings=embeddings,
        node_summaries=False,
        communities=is_complete(out_root, "communities"),
    )
    return {"episodes_added": added, "affected_groups": sorted(affected)}


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
