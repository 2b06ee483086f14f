"""Local stand-in for the driver's correctness gate.

Runs every queries() pipeline at the given sf dir and compares it with
its oracle_sql() via DuckDB: row count, sorted column names, and an
order-insensitive value comparison (sorted row tuples).

Usage: python scripts/check_driver_queries.py [sf_dir]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    """A gate's answer as a frame.  A Dataset goes through
    ``util.collect``, so an empty answer keeps its columns."""
    import pyarrow as pa
    import ray.data as rd

    from lighthouse_ray.util import collect

    if isinstance(res, rd.Dataset):
        res = collect(res)
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    only = {s for s in os.environ.get("ONLY", "").split(",") if s}
    failures = []
    n_checked = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        n_checked += 1
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            failures.append((name, f"ray error: {e}"))
            print(f"FAIL {name}: ray error: {e}")
            continue
        sql = sqls.get(name)
        if sql is None:
            print(f"ok?  {name}: rows={len(got)} (no oracle, rows-only) [{time.time()-t0:.1f}s]")
            continue
        try:
            want = canon(con.execute(sql).df())
        except Exception as e:  # noqa: BLE001
            failures.append((name, f"sql error: {e}"))
            print(f"FAIL {name}: sql error: {e}")
            continue
        status = []
        if len(got) != len(want):
            status.append(f"rows {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            status.append(f"cols {list(got.columns)} != {list(want.columns)}")
        if not status:
            try:
                pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9)
            except AssertionError as e:
                status.append(f"values differ: {str(e)[:300]}")
        if status:
            failures.append((name, "; ".join(status)))
            print(f"FAIL {name}: {'; '.join(status)}")
        else:
            print(f"PASS {name}: rows={len(got)} [{time.time()-t0:.1f}s]")
    # count only the gates actually executed: under ONLY= a filtered run
    # must report n_checked/n_checked, never the full-registry size
    # (VERDICT r4 nit 1 — CI evidence must not overstate coverage)
    suffix = f" (of {len(qs)} registered; ONLY filter active)" if only else ""
    print(f"\n{n_checked - len(failures)}/{n_checked} pass{suffix}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
