"""Serving QPS vs replica count — dense AND selective regimes (r3 item 7).

BASELINE round 3 documents the dense-regime single-box wall: every
query over the 44-common-word content vocabulary streams ~corpus-sized
score arrays, so same-host replicas saturate the shared memory bus at
~1.4x single-replica QPS.  The complementary claim — that a
SELECTIVE-vocabulary workload (real-code Zipf tail: rare identifiers
with small df) touches only small posting lists, so
per-query bandwidth is orders lower and QPS scales with replicas on
one box — was asserted, not measured.  This script measures both on
the SAME index in the SAME run:

- dense queries: 3-term combinations of the corpus's common words
  (df ~ corpus-sized -> exhaustive vectorized scoring regime);
- selective queries: 3-term combinations of rare identifier terms
  sampled from the term dictionary with df in [16, 2048] (candidate
  sets thousands of docs, not millions).

Closed-loop clients (threads = 2x replicas), query cache OFF, replicas
prewarmed.  One JSON line: per-regime {replicas: {qps, p50_ms, p95_ms}}
plus the same-run host calibration.

Usage: python scripts/bench_serving_qps.py [n_docs] [replica_list]
Defaults: 1,000,000 generated docs (~878k live), replicas 1,2,4,8.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_QUERIES = 160
SEED = 0x5EED


def _mk_queries(terms: list[str], n: int, salt: int) -> list[str]:
    """n deterministic 3-term queries over the given term pool."""
    import numpy as np

    rng = np.random.default_rng(SEED + salt)
    qs = []
    for _ in range(n):
        pick = rng.choice(len(terms), size=3, replace=False)
        qs.append(" ".join(terms[i] for i in pick))
    return qs


def _closed_loop(service, queries: list[str], n_threads: int, seconds: float):
    lat: list[float] = []
    lock = threading.Lock()
    stop_at = time.time() + seconds

    def worker(tid: int):
        i = tid
        local = []
        while time.time() < stop_at:
            q = queries[i % len(queries)]
            t0 = time.time()
            service.search(s=q, size=10)
            local.append(time.time() - t0)
            i += n_threads
        with lock:
            lat.extend(local)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    t0 = time.time()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.time() - t0
    lat.sort()
    return {
        "qps": round(len(lat) / wall, 1),
        "p50_ms": round(1000 * statistics.median(lat), 1),
        "p95_ms": round(1000 * lat[int(len(lat) * 0.95)], 1),
        "n": len(lat),
    }


def main() -> dict:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    replica_counts = (
        [int(x) for x in sys.argv[2].split(",")] if len(sys.argv) > 2 else [1, 2, 4, 8]
    )

    import numpy as np
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench import corpus_dir
    from lighthouse_ray.build import build_index
    from lighthouse_ray.config import FORMAT_VERSION, IndexConfig
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query.serving import SearchService

    src = corpus_dir(n_docs)
    idx = f"/tmp/lighthouse_bigidx_v{FORMAT_VERSION}_d{n_docs}"
    results: dict = {"n_docs_requested": n_docs}
    if not os.path.exists(os.path.join(idx, "stats.json")):
        t0 = time.time()
        res = build_index(src, idx, IndexConfig(num_doc_parts=64, num_term_shards=128))
        results["build_sec"] = round(time.time() - t0, 1)
        results["n_docs"] = res.n_docs
    reader = IndexReader(idx)
    results["n_docs"] = int(reader.stats["n_docs"])

    # ---- query pools ------------------------------------------------------
    vocab = reader.field_dictionary("content")
    terms = [t for t in (v.item() if hasattr(v, "item") else v for v in vocab)]
    terms = [t.decode() if isinstance(t, bytes) else str(t) for t in terms]
    rng = np.random.default_rng(SEED)
    # dense pool: the highest-df terms (probe df by posting lookup)
    sample = rng.choice(len(terms), size=min(4000, len(terms)), replace=False)
    dfs = {}
    for i in sample:
        tp = reader.lookup("content", terms[i])
        dfs[terms[i]] = 0 if tp is None else len(tp.ordinals)
    ranked = sorted(dfs, key=lambda t: -dfs[t])
    dense_pool = ranked[:40]
    selective_pool = [t for t in ranked if 16 <= dfs[t] <= 2048][:400]
    results["dense_pool_df"] = [int(dfs[t]) for t in dense_pool[:5]]
    results["selective_pool_size"] = len(selective_pool)
    results["selective_df_range"] = [
        int(min(dfs[t] for t in selective_pool)),
        int(max(dfs[t] for t in selective_pool)),
    ] if selective_pool else None
    assert len(selective_pool) >= 50, "corpus lacks a selective tail?"
    regimes = {
        "dense": _mk_queries(dense_pool, N_QUERIES, 1),
        "selective": _mk_queries(selective_pool, N_QUERIES, 2),
    }

    # ---- QPS sweep --------------------------------------------------------
    for regime, queries in regimes.items():
        table = {}
        for r in replica_counts:
            svc = SearchService(idx, num_partitions=1, num_replicas=r, cache_ttl=0.0)
            # prewarm happens in actor __init__; issue one query per
            # replica to cover lazy per-field state
            for _ in range(r):
                svc.search(s=queries[0], size=10)
            table[str(r)] = _closed_loop(svc, queries, n_threads=2 * r, seconds=12.0)
            svc.shutdown()
            time.sleep(1.0)
        results[regime] = table

    # same-run host calibration (bench.py convention)
    import multiprocessing as mp

    from bench import _calibration_task

    with mp.Pool(16) as pool:
        t0 = time.time()
        pool.map(_calibration_task, range(48))
        results["calibration_tasks_per_sec_16w"] = round(48 / (time.time() - t0), 1)
    return results


if __name__ == "__main__":
    out = main()
    import ray

    ray.shutdown()
    print(json.dumps(out))
