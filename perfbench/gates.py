"""The gate subset: oracle-checked pipeline gates, one per module.

A fixed subset of the registered pipeline gates, which together run 8 of
the 15 ``lighthouse_ray/functions`` modules (perfbench/README.md says
which are left out and why), runs one gate after another over generated
``documents`` and ``events`` tables, each gate several times in a row.
Every output is compared with the gate's DuckDB oracle the way
``scripts/check_driver_queries.py`` compares them.

The subset gives per-layer metrics only (``gates.<gate>_s``), from the
traced run of the ``build`` workload: between runs its walls moved with
host CPU steal by more than any end-to-end bound allows.
"""

from __future__ import annotations

import hashlib
import os
import time

from harness import NUM_CPUS, Phases, geomean, median
from inputs import gate_tables

N_DOCS, N_EVENTS = 1000, 10000

# gate -> (functions modules it exercises, table it reads); README.md
# lists the modules left out and why
GATES = {
    "percentiles": ("dedup, exchange", "documents"),
    "window_agg": ("windows", "events"),
    "outer_join": ("joins", "events"),
    "kmv_distinct": ("sketch", "documents"),
    "lang_id": ("textstats", "documents"),
    "seq_pack": ("packing", "documents"),
    "percolate": ("percolate", "documents"),
}
SAMPLES = 4  # timed calls per gate at least; per-gate figures are medians over them
IDLE_WAIT_S = 5.0  # longest wait for an idle session before a gate
TABLE_ROWS = {"documents": N_DOCS, "events": N_EVENTS}


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _to_pandas(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _matches(got, want) -> bool:
    import pandas as pd

    if len(got) != len(want) or list(got.columns) != list(want.columns):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                      rtol=1e-9, atol=1e-9)
    except AssertionError:
        return False
    return True


def _import_program() -> int:
    import importlib
    import pkgutil

    import lighthouse_ray.functions as functions
    import lighthouse_ray.pipelines.driver_queries  # noqa: F401

    for m in pkgutil.iter_modules(functions.__path__):
        importlib.import_module(f"lighthouse_ray.functions.{m.name}")
    return os.getpid()


def warm_workers() -> None:
    """Import the gate code in every Ray worker and start the Ray Data
    executor once, so the first timed round pays no first-call cost."""
    import ray
    import ray.data as rd

    task = ray.remote(num_cpus=1)(_import_program)
    ray.get([task.remote() for _ in range(2 * NUM_CPUS)])
    rd.range(64, override_num_blocks=2 * NUM_CPUS).map_batches(
        lambda b: b, batch_format="pyarrow").materialize()


def _wait_idle() -> None:
    """Wait (at most IDLE_WAIT_S) until no CPU of the session is held."""
    import ray

    t0 = time.perf_counter()
    while (ray.available_resources().get("CPU", 0) < NUM_CPUS
           and time.perf_counter() - t0 < IDLE_WAIT_S):
        time.sleep(0.02)


def oracle_answers(tables: str, sqls: dict) -> dict:
    """Each gate's DuckDB oracle answer over ``tables``, cached beside
    them keyed by the SQL text."""
    import duckdb
    import pandas as pd

    out = {}
    con = None
    for g in GATES:
        key = hashlib.sha256(sqls[g].encode()).hexdigest()[:16]
        path = os.path.join(tables, f"oracle-{g}-{key}.parquet")
        if os.path.exists(path):
            out[g] = _canon(pd.read_parquet(path))
            continue
        if con is None:
            con = duckdb.connect()
            for t in TABLE_ROWS:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                            f"'{os.path.join(tables, t + '.parquet')}')")
        df = con.execute(sqls[g]).df()
        df.to_parquet(path + ".tmp", index=False)
        os.replace(path + ".tmp", path)
        out[g] = _canon(df)
    if con is not None:
        con.close()
    return out


def measure(res, seed: int, seconds: float, tracer) -> None:
    """Run and check the subset; its walls go to the per-layer metrics."""
    phase = Phases(res)
    tables = gate_tables(seed, N_DOCS, N_EVENTS)
    from lighthouse_ray.pipelines import make_oracle_sql, make_queries

    queries = make_queries()
    want = oracle_answers(tables, make_oracle_sql())
    warm_workers()
    phase("gates_set_up")

    # one gate at a time: a gate's Ray Data actors and tasks can hold
    # CPUs for seconds after it returns, and the gate run next would pay
    # for it, so each gate starts on an idle session and its first call
    # is untimed; then at least SAMPLES timed calls and its share of
    # --seconds
    walls: dict[str, list[float]] = {g: [] for g in GATES}
    share = seconds / len(GATES)
    for g in GATES:
        _wait_idle()
        res.check(_matches(_canon(_to_pandas(queries[g](tables))), want[g]),
                  f"{g} differs from its oracle")
        deadline = time.perf_counter() + share
        while len(walls[g]) < SAMPLES or time.perf_counter() < deadline:
            tg = time.perf_counter()
            with tracer.span(f"gates.{g}"):
                out = _to_pandas(queries[g](tables))
            walls[g].append(time.perf_counter() - tg)
            res.check(_matches(_canon(out), want[g]), f"{g} differs from its oracle")
    phase("gates_timed")
    med = {g: median(w) for g, w in walls.items()}
    res.report.update({
        "gates_geomean_s": geomean(med.values()),
        "gate_pass_s": sum(med.values()),
        "gate_runs": {g: len(w) for g, w in walls.items()},
        "gate_median_s": med,
        "gate_module": {g: m for g, (m, _t) in GATES.items()},
    })
    res.layers.update({f"gates.{g}_s": (v, "s") for g, v in med.items()})
