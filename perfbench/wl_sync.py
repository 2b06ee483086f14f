"""``sync`` workload: writes beside reads through ``SyncDaemon``.

The source of truth is a directory of parquet files in the source
schema (corpus columns + ``id`` / ``modified_at`` / ``deleted``).  Set-up
bootstraps the base index with the daemon's first cycle.  Timed: ticks
that each pull one wave of WAVE rows (40% updates, 50% inserts, 10%
deletes) in the reference's 1,000-row keyset batches, with a fixed set
of delta-chain reads after every tick; then a minor compaction and a
forced major compaction with its generation swap.

Checks: every tick pulls exactly the planned rows, every read answers,
and after the major compaction the per-shard sha256 and a fixed set of
top-k answers equal a clean ``build_index`` over the same logical rows.
The build layer runs here on tiny inputs, where per-pipeline fixed cost
dominates.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow.parquet as pq

from harness import Phases, dir_bytes, median, workdir
from inputs import corpus, search_stream, sync_plan

N_ROWS = 20_000  # same corpus as the build and search workloads
N_BASE = 4_000
WAVE = 1_000  # rows per tick: one keyset batch
SETUPS = 3  # base bootstraps per run; setup_s is their median
TICKS_PER_S = 0.8  # ticks per --seconds: a fixed count, so the compaction
                   # always folds the same number of rows whatever the host speed
READS = 8  # delta-chain reads after every tick


def configs():
    from lighthouse_ray.config import IndexConfig

    return IndexConfig(num_doc_parts=8, num_term_shards=16), \
        IndexConfig(num_doc_parts=2, num_term_shards=4)


def read_queries(src: str, seed: int, n: int) -> list[list[str]]:
    """``n`` distinct term lists for the delta-chain reads, selective ones
    only (3 terms with df 8-512): one class, so the median does not fall
    between two, and new terms every tick, so it does not hang on a few."""
    stream = search_stream(src, seed, 4 * n)
    return [r["params"]["s"].split() for r in stream if r["cls"] == "selective"][:n]


def bootstrap(root: str, plan: dict, cfg, delta_cfg):
    from lighthouse_ray.state import SyncDaemon

    shutil.rmtree(root, ignore_errors=True)
    source = os.path.join(root, "source")
    os.makedirs(source)
    pq.write_table(plan["base"], os.path.join(source, "wave-0000.parquet"))
    daemon = SyncDaemon(os.path.join(root, "work"), source, cfg=cfg, delta_cfg=delta_cfg,
                        batch_size=N_BASE + 1, compact_max_deltas=10**9,
                        compact_max_delta_frac=1e9)
    t0 = time.perf_counter()
    first = daemon.cycle(now=1000)
    wall = time.perf_counter() - t0
    daemon.batch_size = WAVE
    return daemon, source, wall, first


def run(res, seed: int, seconds: float, tracer, ray_init_s: float) -> None:
    import ray.data as rd

    from lighthouse_ray.state import IncrementalIndex

    src = corpus(N_ROWS, seed)
    cfg, delta_cfg = configs()
    n_ticks = max(2, round(TICKS_PER_S * seconds))
    plan = sync_plan(src, seed, N_BASE, WAVE, n_ticks)
    queries = read_queries(src, seed, READS * (n_ticks + 1))
    scratch = os.path.join(workdir("scratch"), f"sync-{os.getpid()}")
    phase = Phases(res)
    try:
        setups = []
        for k in range(SETUPS):
            daemon, source, wall, first = bootstrap(os.path.join(scratch, f"s{k}"), plan, cfg, delta_cfg)
            setups.append(wall)
            res.check(first["upserts"] == N_BASE, f"bootstrap pulled {first['upserts']} rows")
        res.metric("setup_s", ray_init_s + median(setups), "s")
        phase("bootstraps")

        if tracer is not None:
            tracer.wrap(IncrementalIndex, "apply_delta", "state.apply_delta")
            tracer.wrap(IncrementalIndex, "live_map", "state.live_map")
            tracer.wrap(IncrementalIndex, "search_topk", "state.search_topk")
            tracer.wrap(IncrementalIndex, "search_after", "state.search_after")
            from lighthouse_ray.index import IndexReader

            tracer.wrap(IndexReader, "lookup", "index.lookup")

        work = daemon.workdir
        bytes0 = dir_bytes(work)
        rates, read_ms, first_read_ms = [], [], []
        for ticks in range(1, n_ticks + 1):
            pq.write_table(plan["waves"][ticks - 1],
                           os.path.join(source, f"wave-{ticks:04d}.parquet"))
            t0 = time.perf_counter()
            out = daemon.cycle(now=1000 * (ticks + 1))
            wall = time.perf_counter() - t0
            pulled = out["upserts"] + out["deletes"]
            res.check(pulled == WAVE and out["batches"] == 1,
                      f"tick {ticks} pulled {pulled} rows in {out['batches']} batches")
            rates.append(pulled / wall)
            for q, terms in enumerate(queries[READS * (ticks - 1):READS * ticks]):
                t0 = time.perf_counter()
                if q % 4 == 3:  # one in four pages with search_after
                    hits, _cursor = daemon.index.search_after("content", terms, size=10)
                else:
                    hits = daemon.index.search_topk("content", terms, k=10)
                ms = 1000 * (time.perf_counter() - t0)
                (first_read_ms if q == 0 else read_ms).append(ms)
                res.check(len(hits) > 0, f"read {terms} after tick {ticks} found nothing")
        written = dir_bytes(work) - bytes0
        deltas_live = len(daemon.index.state["deltas"])
        delta_manifests = [
            json.load(open(os.path.join(daemon.index.root, d, "manifest.json")))
            for d in daemon.index.state["deltas"]
        ]
        phase("ticks")

        t0 = time.perf_counter()
        daemon.index.minor_compact(delta_cfg, drop_old=True)
        minor_s = time.perf_counter() - t0
        daemon.compact_max_delta_frac = 0.0  # any live delta row forces a major
        t0 = time.perf_counter()
        out = daemon.cycle(now=1000 * (ticks + 2))
        compact_s = time.perf_counter() - t0
        res.check(out["compacted"] == "major", f"major compaction did not run: {out}")
        phase("compactions")
        if tracer is not None:
            tracer.restore()

        # clean build over the same logical rows
        final = plan["final"]
        clean = IncrementalIndex(os.path.join(scratch, "clean"), cfg)
        clean.build_base(rd.from_arrow(final), cfg)
        got = daemon.index
        man = [json.load(open(os.path.join(i.root, "base", "manifest.json")))
               for i in (got, clean)]
        sha = [{k: v["sha256"] for k, v in m["stages"]["segments"]["shards"].items()} for m in man]
        res.check(sha[0] == sha[1], "compacted shards differ from a clean build")
        keys = [sorted(zip(i.live_rows()["repo"], i.live_rows()["path"])) for i in (got, clean)]
        res.check(keys[0] == keys[1], "live keys differ from a clean build")
        for terms in queries[-READS:]:
            a = got.search_topk("content", terms, k=10)
            b = clean.search_topk("content", terms, k=10)
            res.check(a.drop(columns=["segment"]).equals(b.drop(columns=["segment"])),
                      f"top-k for {terms} differs from a clean build")
        phase("clean_build_check")

        rows = ticks * WAVE
        res.metric("throughput_per_s", median(rates), "1/s")
        res.metric("latency_p50_ms", median(read_ms + first_read_ms), "ms")
        res.report.update({
            "sync_rows_per_s": median(rates),
            "delta_search_p50_ms": median(read_ms + first_read_ms),
            "compact_s": compact_s,
            "ticks": ticks, "rows_applied": rows,
            "bootstrap_s": setups, "base_rows": N_BASE, "wave_rows": WAVE,
            "bootstrap_rows_per_s": N_BASE / median(setups),
            "first_read_after_tick_ms": median(first_read_ms),
        })
        res.layers.update({
            "state.deltas_live": (deltas_live, "count"),
            "state.bytes_written_per_row": (written / rows, "bytes"),
            "state.minor_compact_s": (minor_s, "s"),
        })
        if tracer is not None:
            from wl_build import STAGES, ray_floor_s

            tot = tracer.totals()
            applies = tot.get("state.apply_delta", {"total_s": 0.0, "calls": 1})
            lm = tot.get("state.live_map", {"total_s": 0.0})
            reads = tot.get("state.search_topk", {"total_s": 0.0, "calls": 1})
            n_reads = len(read_ms) + len(first_read_ms)
            res.layers.update({
                "state.apply_delta_s": (applies["total_s"] / applies["calls"], "s"),
                "state.live_map_s": (lm["total_s"] / ticks, "s"),
                "state.search_topk_ms": (1000 * reads["total_s"] / reads["calls"], "ms"),
                "index.lookup_calls": (tracer.counts["index.lookup.calls"] / n_reads, "count"),
                "index.lookup_ms": (1000 * tot.get("index.lookup", {"total_s": 0.0})["total_s"]
                                    / n_reads, "ms"),
                "build.ray_floor_s": (ray_floor_s(rd.from_arrow(plan["waves"][0])), "s"),
            })
            for s in STAGES:
                res.layers[f"build.{s}_s"] = (
                    median([m["stages"][s]["sec"] for m in delta_manifests]), "s")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(scratch, ignore_errors=True)
