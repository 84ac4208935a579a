"""Local replica of the driver's correctness gate.

Runs every __ray_entry__.queries()[name](sf_dir) and compares with the
matching oracle_sql()[name] via DuckDB: row count, column names, and
order-insensitive value equality (columns sorted by name, rows sorted by
all columns). A query that raises prints ``[name] ERROR <type>: <msg>``
and counts as a FAIL; the rest still run. Exits 1 on any FAIL. Usage:

    python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ("documents", "embeddings")


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canonicalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name: str, ray_df: pd.DataFrame, ora_df: pd.DataFrame) -> bool:
    ok = True
    if sorted(ray_df.columns) != sorted(ora_df.columns):
        print(f"  [{name}] SCHEMA mismatch: ray={sorted(ray_df.columns)} oracle={sorted(ora_df.columns)}")
        return False
    if len(ray_df) != len(ora_df):
        print(f"  [{name}] ROWCOUNT mismatch: ray={len(ray_df)} oracle={len(ora_df)}")
        ok = False
    a, b = canonicalize(ray_df), canonicalize(ora_df)
    if len(a) == len(b):
        neq = ~(a.eq(b) | (a.isna() & b.isna()))
        bad = neq.any(axis=1)
        if bad.any():
            print(f"  [{name}] VALUE mismatch in {int(bad.sum())} rows")
            print("  ray:\n", a[bad].head(5).to_string())
            print("  oracle:\n", b[bad].head(5).to_string())
            ok = False
    if ok:
        print(f"  [{name}] OK rows={len(ray_df)}")
    return ok


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = e.queries(), e.oracle_sql()
    n_ok = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
            if name not in oracles:
                print(f"  [{name}] rows-only: {len(ray_df)} rows")
                continue
            ok = compare(name, ray_df, con.sql(oracles[name]).df())
        except Exception as exc:  # one failing query must not end the gate
            print(f"  [{name}] ERROR {type(exc).__name__}: {exc}")
            ok = False
        if ok:
            n_ok += 1
        else:
            n_fail += 1
    print(f"OK={n_ok} FAIL={n_fail}")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
