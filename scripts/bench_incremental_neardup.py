"""Incremental near-dup at 878k corpus docs — round-3 operator bench.

Measures, over the documents table derived from the 1M-row synthetic
corpus (same table as scripts/bench_curation.py):

- index write wall: one map pass persisting the banded minhash
  signatures as hash-partitioned parquet (+ bytes on disk),
- probe wall for a sync-batch-sized (5k-doc) incoming batch against
  that index, end to end (candidates + exact verification),
- emitted pair count.

The probe batch is the corpus's own first 5k docs with a content
perturbation (guaranteed near-dups at high jaccard) under fresh ids —
the daily-ingest shape.  Prints ONE JSON line.

Usage: python scripts/bench_incremental_neardup.py [n_corpus_rows]
Env: RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
IDX = "/tmp/lighthouse_bench_incdedup_idx"
PROBE_DOCS = 5_000


def main() -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench_curation import big_documents_dir
    from lighthouse_ray.functions.dedup import (
        minhash_index_probe,
        minhash_index_write,
    )

    docs_dir = big_documents_dir(n_rows)
    docs = rd.read_parquet(
        os.path.join(docs_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    results: dict = {"n_corpus_rows": n_rows}

    shutil.rmtree(IDX, ignore_errors=True)
    t0 = time.time()
    meta = minhash_index_write(docs, IDX, num_parts=64)
    results["index_write_sec"] = round(time.time() - t0, 2)
    results["index_bytes_mb"] = round(
        sum(
            os.path.getsize(os.path.join(r, f))
            for r, _d, fs in os.walk(IDX)
            for f in fs
        )
        / 1e6,
        1,
    )
    results["index_parts"] = len(meta["parts"])

    # probe batch: first PROBE_DOCS corpus docs, content perturbed, ids
    # shifted into a disjoint range (the incremental-batch contract)
    head = docs.limit(PROBE_DOCS).to_pandas()
    probe = pa.table({
        "doc_id": pa.array((head["doc_id"].to_numpy() % (1 << 40)) + (1 << 61)),
        "text": pa.array([t + " incoming revision token" for t in head["text"]]),
    })
    t0 = time.time()
    pairs = minhash_index_probe(rd.from_arrow(probe), IDX, threshold=0.5).to_pandas()
    results["probe_sec"] = round(time.time() - t0, 2)
    results["probe_docs"] = PROBE_DOCS
    results["verified_pairs"] = int(len(pairs))

    # same-run host calibration (bench.py convention)
    import multiprocessing as mp

    from bench import _calibration_task

    with mp.Pool(16) as pool:
        t0 = time.time()
        pool.map(_calibration_task, range(48))
        results["calibration_tasks_per_sec_16w"] = round(48 / (time.time() - t0), 1)
    results["num_cpus"] = NUM_CPUS
    ray.shutdown()
    print(json.dumps(results))
    return results


if __name__ == "__main__":
    main()
