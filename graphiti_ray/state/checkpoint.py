"""Resumable output layout: per-table checkpoints with lineage + metrics.

The reference's only resume mechanism is an LLM response diskcache
(llm_client/client.py:123-167). For a batch pipeline the equivalent is a
deterministic output layout (ray_guide: "one output directory per stage,
written atomically, plus a manifest"):

    <root>/<table>/            part-*.parquet (Ray's writers; one
                               part-0.parquet when pyarrow writes a pa.Table)
    <root>/<table>/MANIFEST.json   lineage: inputs, stage versions, metrics
    <root>/<table>/_SUCCESS        atomic completion marker (written last)

A rerun calls ``checkpointed_write`` again: tables with a valid _SUCCESS are
skipped (their row counts are re-read from parquet footers, not recomputed),
so a killed run resumes at the first incomplete table. Within a table Ray
restarts failed write tasks; the marker only lands after the whole dataset
is flushed, so partially-written tables are re-written from scratch —
idempotent because filenames are regenerated and the directory is cleared
first.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

SUCCESS = "_SUCCESS"
MANIFEST = "MANIFEST.json"


def table_dir(root: str, name: str) -> str:
    return os.path.join(root, name)


def is_complete(root: str, name: str) -> bool:
    return os.path.exists(os.path.join(table_dir(root, name), SUCCESS))


def parquet_row_count(path: str) -> int:
    total = 0
    for f in sorted(os.listdir(path)):
        if f.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(path, f)).num_rows
    return total


def _write_parquet(rows: rd.Dataset | pa.Table, out: str, **kwargs) -> None:
    """Write ``rows`` into the directory ``out``: a ``pa.Table`` as one
    file written by pyarrow in this process, a Dataset by Ray's writers."""
    if isinstance(rows, pa.Table):
        if kwargs:
            raise ValueError(f"{sorted(kwargs)} need a Dataset, not a pa.Table")
        os.makedirs(out, exist_ok=True)
        pq.write_table(rows, os.path.join(out, "part-0.parquet"))
    else:
        rows.write_parquet(out, **kwargs)


def checkpointed_write(
    ds: rd.Dataset | pa.Table,
    root: str,
    name: str,
    lineage: dict[str, Any] | None = None,
    partition_cols: list[str] | None = None,
    started: float | None = None,
    table: str | None = None,
) -> dict[str, Any]:
    """Write one logical table; skip if already complete. Returns metrics.
    A ``pa.Table`` (no ``partition_cols``) is written as one file.

    ``wall_sec`` (returned and in the MANIFEST) runs from ``started`` (a
    ``time.perf_counter()`` reading taken when the caller began making the
    table; default: the start of the write) to the end of the write;
    ``sink_sec`` is the write alone. ``table`` names the table in the
    MANIFEST and the metrics when the directory ``name`` is not the
    table's own (``replace_table``'s temp directory)."""
    out = table_dir(root, name)
    table = table or name
    if is_complete(root, name):
        return {"table": table, "skipped": True, "rows": parquet_row_count(out)}

    if os.path.exists(out):  # partial previous attempt → start clean
        shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)

    t0 = time.perf_counter()
    kwargs = {"partition_cols": partition_cols} if partition_cols else {}
    _write_parquet(ds, out, **kwargs)
    # an EMPTY dataset writes no files at all; persist one zero-row shard
    # so the table stays schema'd and readable (a cascade delete can
    # legitimately empty a table)
    if not any(f.endswith(".parquet") for f in os.listdir(out)):
        sch = ds.schema()
        base = getattr(sch, "base_schema", None) if sch is not None else None
        pq.write_table(
            base.empty_table() if base is not None else pa.table({}),
            os.path.join(out, "empty-0.parquet"),
        )
    t1 = time.perf_counter()
    wall, sink = t1 - (t0 if started is None else started), t1 - t0

    rows = parquet_row_count(out) if not partition_cols else None
    manifest = {
        "table": table,
        "rows": rows,
        "wall_sec": round(wall, 3),
        "sink_sec": round(sink, 3),
        "lineage": lineage or {},
        "written_at": time.time(),
    }
    with open(os.path.join(out, MANIFEST), "w") as f:
        json.dump(manifest, f, indent=2)
    # marker written last: presence ⇒ the parquet + manifest are complete
    with open(os.path.join(out, SUCCESS), "w") as f:
        f.write("")
    return {
        "table": table,
        "skipped": False,
        "rows": rows,
        "wall_sec": wall,
        "sink_sec": sink,
    }


def checkpointed_write_partitioned(
    ds: rd.Dataset,
    root: str,
    name: str,
    partition_col: str,
    lineage: dict[str, Any] | None = None,
    values: list | None = None,
) -> dict[str, Any]:
    """Partition-granular resumable write: one subtree per partition
    value, EACH with its own _SUCCESS, so a killed run reruns only the
    incomplete partitions — never the whole table (the 100-TB resume
    story: one directory per key range, finished ranges skipped).

    The input materializes once (a single source scan); every partition
    write is then a cheap object-store filter, so cost is one scan plus
    V filters — sized for LOW-cardinality partition columns (language,
    source shard, date bucket). Layout:

        <root>/<name>/<col>=<val>/part-*.parquet + MANIFEST + _SUCCESS
        <root>/<name>/MANIFEST.json + _SUCCESS      (stamped last)
    """
    import pyarrow.compute as pc

    out = table_dir(root, name)
    if is_complete(root, name):
        return {"table": name, "skipped": True, "rows": table_rows(root, name)}

    materialized = False
    if values is None:
        ds = ds.materialize()  # unavoidable: the value set needs one pass
        materialized = True
        values = ds.unique(partition_col)
        if any(v is None for v in values):
            raise ValueError(
                f"partition column {partition_col!r} contains nulls — "
                "null rows would match no <col>=<val> subtree and be lost"
            )
        values = sorted(values)
    os.makedirs(out, exist_ok=True)

    # a stale <col>=<val> subtree from a prior run whose value is no longer
    # in play would be read back by read_table but excluded from the
    # manifest total — refuse rather than silently disagree
    expected = {f"{partition_col}={v}" for v in values}
    stale = [
        d
        for d in os.listdir(out)
        if d.startswith(f"{partition_col}=") and d not in expected
    ]
    if stale:
        raise ValueError(
            f"stale partition subtree(s) {stale} under {out} not covered by "
            "the current values — remove them or pass a covering values list"
        )

    pending = [
        v
        for v in values
        if not os.path.exists(os.path.join(out, f"{partition_col}={v}", SUCCESS))
    ]
    if pending and not materialized:
        ds = ds.materialize()  # once; each partition write filters from it
        materialized = True

    parts: list[dict] = []
    for v in values:
        pname = f"{partition_col}={v}"
        pdir = os.path.join(out, pname)
        if v not in pending:
            parts.append(
                {"partition": pname, "skipped": True, "rows": parquet_row_count(pdir)}
            )
            continue
        if os.path.exists(pdir):  # partial previous attempt → start clean
            shutil.rmtree(pdir)
        os.makedirs(pdir)
        t0 = time.perf_counter()

        def keep(batch, _v=v):
            return batch.filter(pc.equal(batch.column(partition_col), _v))

        ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True).write_parquet(pdir)
        rows = parquet_row_count(pdir)
        with open(os.path.join(pdir, MANIFEST), "w") as f:
            json.dump(
                {
                    "partition": pname,
                    "rows": rows,
                    "wall_sec": round(time.perf_counter() - t0, 3),
                    "lineage": lineage or {},
                },
                f,
                indent=2,
            )
        with open(os.path.join(pdir, SUCCESS), "w") as f:
            f.write("")
        parts.append({"partition": pname, "skipped": False, "rows": rows})

    total = sum(p["rows"] for p in parts)
    if materialized and total != ds.count():
        # rows outside `values` (or nulls with an explicit list) matched no
        # partition — a durability primitive must never lose them silently
        raise ValueError(
            f"partitioned write of {name!r} covered {total} of {ds.count()} "
            f"rows — {partition_col!r} has values outside {values!r}"
        )
    with open(os.path.join(out, MANIFEST), "w") as f:
        json.dump(
            {
                "table": name,
                "rows": total,
                "partition_col": partition_col,
                "partitions": parts,
                "lineage": lineage or {},
                "written_at": time.time(),
            },
            f,
            indent=2,
        )
    with open(os.path.join(out, SUCCESS), "w") as f:
        f.write("")
    return {"table": name, "skipped": False, "rows": total, "partitions": parts}


def append_table(
    root: str, name: str, ds: rd.Dataset | pa.Table, note: str = ""
) -> int:
    """Append rows to an existing completed table: new part files land under
    a unique subprefix (no collision with prior parts), the manifest gains
    an update record, and _SUCCESS is re-stamped last. Returns rows added.
    A ``pa.Table`` is appended as one file.
    """
    out = table_dir(root, name)
    assert is_complete(root, name), f"append target {name} not complete"
    tmp = out + ".append_tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    _write_parquet(ds, tmp)
    marker = os.path.join(out, SUCCESS)
    os.remove(marker)  # table incomplete while we move files in
    added = 0
    stamp = str(int(time.time() * 1000))
    for i, f in enumerate(sorted(os.listdir(tmp))):
        if not f.endswith(".parquet"):
            continue
        added += pq.read_metadata(os.path.join(tmp, f)).num_rows
        os.rename(os.path.join(tmp, f), os.path.join(out, f"append-{stamp}-{i}.parquet"))
    shutil.rmtree(tmp, ignore_errors=True)
    mpath = os.path.join(out, MANIFEST)
    with open(mpath) as fh:
        manifest = json.load(fh)
    manifest["rows"] = (manifest.get("rows") or 0) + added
    manifest.setdefault("updates", []).append(
        {"rows_added": added, "at": time.time(), "note": note}
    )
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2)
    with open(marker, "w") as fh:
        fh.write("")
    return added


def replace_table(
    root: str,
    name: str,
    ds: rd.Dataset | pa.Table,
    lineage: dict | None = None,
    started: float | None = None,
) -> dict:
    """Atomically replace a table: build in a temp dir, swap directories.
    A ``pa.Table`` is written as one file; ``started`` as in
    ``checkpointed_write``."""
    out = table_dir(root, name)
    tmp = out + ".replace_tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    metrics = checkpointed_write(
        ds, os.path.dirname(tmp), os.path.basename(tmp), lineage, started=started, table=name
    )
    old = out + ".old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(out):
        os.rename(out, old)
    os.rename(tmp, out)
    shutil.rmtree(old, ignore_errors=True)
    return metrics


def table_rows(root: str, name: str) -> int | None:
    """Row count from the manifest (falls back to parquet footers) — avoids
    a full Dataset.count() execution on the driver's critical path."""
    mpath = os.path.join(table_dir(root, name), MANIFEST)
    if os.path.exists(mpath):
        with open(mpath) as f:
            rows = json.load(f).get("rows")
        if rows is not None:
            return int(rows)
    try:
        return parquet_row_count(table_dir(root, name))
    except OSError:
        return None


def table_files(root: str, name: str) -> list[str]:
    """A table's parquet part files, sorted. An explicit file list, since
    the directory also holds MANIFEST.json + _SUCCESS; one level of
    <col>=<val> partition subtrees is included transparently."""
    return sorted(
        os.path.join(dirpath, f)
        for dirpath, _dirs, fnames in os.walk(table_dir(root, name))
        for f in fnames
        if f.endswith(".parquet")
    )


def read_table(root: str, name: str, columns: list[str] | None = None) -> rd.Dataset:
    return rd.read_parquet(table_files(root, name), columns=columns)


def fits_in_process(rows: int, size: int) -> bool:
    """Whether ``rows`` rows of ``size`` bytes may be held and handled in
    the calling process: within ``ops.SMALL_SORT_ROWS`` and
    ``ops.SMALL_SORT_BYTES``, the bounds ``ops`` puts on a sort there."""
    from graphiti_ray.stages import ops

    return rows <= ops.SMALL_SORT_ROWS and size <= ops.SMALL_SORT_BYTES


def fetch_table(ds: rd.Dataset) -> pa.Table:
    """``ds`` (executed first when lazy) as one ``pa.Table`` in this
    process: its blocks fetched once (Arrow blocks without a copy) and
    concatenated; empty blocks are dropped."""
    import ray

    from graphiti_ray.stages.ops import _as_arrow, block_refs

    tables = [_as_arrow(b) for b in ray.get(block_refs(ds))]
    tables = [t for t in tables if t.num_rows] or [t for t in tables if t.num_columns][:1]
    if tables:
        return pa.concat_tables(tables, promote_options="default")
    sch = ds.schema()
    return sch.base_schema.empty_table() if sch is not None else pa.table({})


def table_if_fits(ds: rd.Dataset) -> rd.Dataset | pa.Table:
    """A materialized ``ds`` to write: fetched as one ``pa.Table`` when it
    is within the in-process bounds (``count`` and ``size_bytes`` are
    metadata of a materialized Dataset), else the Dataset itself."""
    return fetch_table(ds) if fits_in_process(ds.count(), ds.size_bytes() or 0) else ds


def table_fits_in_process(root: str, name: str) -> bool:
    """``fits_in_process`` for a checkpointed table, by its parquet footers
    (``table_footprint``)."""
    return fits_in_process(*table_footprint(root, name))


def table_footprint(root: str, name: str) -> tuple[int, int]:
    """``(rows, uncompressed bytes)`` of a table, summed from its parquet
    footers alone (no column data is read). The bytes are the column
    chunks after parquet's encodings (dictionary, RLE) and before
    compression; an Arrow read holds more: 3.0× for ``edges`` and 5.6×
    for ``nodes`` of a 5k-page graph."""
    rows = size = 0
    for f in table_files(root, name):
        md = pq.read_metadata(f)
        rows += md.num_rows
        size += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return rows, size


def read_table_arrow(root: str, name: str, columns: list[str] | None = None):
    """In-process ``pa.Table`` read for SMALL checkpointed tables: plain
    pyarrow, no Ray execution. Never call on a corpus-sized table (check
    ``table_fits_in_process`` first). Same files, in the same order, as
    ``read_table``."""
    tables = [pq.read_table(f, columns=columns) for f in table_files(root, name)]
    return pa.concat_tables(tables, promote_options="default")


def read_table_pandas(root: str, name: str, columns: list[str] | None = None):
    """``read_table_arrow`` as a pandas frame (vocabulary-sized sidecars
    like canonical_map)."""
    return read_table_arrow(root, name, columns).to_pandas()
