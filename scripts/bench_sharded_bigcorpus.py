"""Sharded-serving latency at multi-million-doc scale.

Builds (once, cached) the index over the N-doc synthetic corpus, then
measures the bench query suite p50/p95 on (a) a single full-range
engine and (b) `SearchService` at K partitions × 1 replica — the
range-partitioned parallel execution that is the documented scale path
for single-query latency (the ES-shards analog).  Asserts bit-identical
results between the two before timing.

    python scripts/bench_sharded_bigcorpus.py [n_docs] [K]

Defaults: 4,000,000 generated docs (≈3.51M live), K=8.
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000_000
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench import QUERY_SUITE, corpus_dir
    from lighthouse_ray.build import build_index
    from lighthouse_ray.config import FORMAT_VERSION, IndexConfig
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine
    from lighthouse_ray.query.serving import SearchService

    src = corpus_dir(n_docs)
    idx = f"/tmp/lighthouse_bigidx_v{FORMAT_VERSION}_d{n_docs}"
    build_sec = None
    if not os.path.exists(os.path.join(idx, "stats.json")):
        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.time()
        build_index(src, idx, IndexConfig(num_doc_parts=64, num_term_shards=128))
        build_sec = round(time.time() - t0, 1)

    def suite_lat(fn) -> list[float]:
        for q in QUERY_SUITE:  # warm
            fn(**q)
        lat = []
        for _rep in range(5):
            for q in QUERY_SUITE:
                t0 = time.time()
                fn(**q)
                lat.append(time.time() - t0)
        return lat

    engine = SearchEngine(IndexReader(idx), cache_ttl=0)
    svc = SearchService(idx, num_partitions=k, num_replicas=1, cache_ttl=0)

    # parity first: the sharded merge must be bit-identical
    for q in QUERY_SUITE:
        a = engine.search(**q).reset_index(drop=True)
        b = svc.search(**q).reset_index(drop=True)
        assert a.equals(b), f"sharded mismatch for {q}"

    single = suite_lat(engine.search)
    sharded = suite_lat(svc.search)
    svc.shutdown()

    def p(v, q):
        return round(sorted(v)[int(len(v) * q)], 4)

    print(json.dumps({
        "metric": "sharded_serving_bigcorpus",
        "n_docs_live": int(engine.r.stats["n_docs"]),
        "k": k,
        "build_sec": build_sec,
        "single_p50": round(statistics.median(single), 4),
        "single_p95": p(single, 0.95),
        "sharded_p50": round(statistics.median(sharded), 4),
        "sharded_p95": p(sharded, 0.95),
        "parity": "bit-identical",
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
