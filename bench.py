"""Benchmark harness: headline pipelines, one JSON line to stdout.

Headline = full inverted-index build (docs/sec) over the synthetic
source-code corpus + BM25 query latency p50 over the built index,
plus the oracle-checked testdata pipelines at $GRAFT_SF_DIR.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32),
     GRAFT_CORPUS_DOCS (default 60000),
     GRAFT_SCALING_DOCS (default 300000),
     GRAFT_HEADLINE_ONLY=1 (skip testdata pipelines; used by --scaling children).

`python bench.py --scaling` runs the identical headline build in fresh
processes at num_cpus=8 and num_cpus=32 (best of 2 runs each) on the
same input and prints throughputs + scaling efficiency — the sandbox
evidence for the north_rule's N-vs-4N cluster criterion.  It also runs
a pure-multiprocessing calibration workload (hash+regex+numpy, no Ray)
at both widths: on this box 32 hyperthreaded workers deliver only
~2.8x the throughput of 8, so the calibration gives the machine's own
parallel ceiling, and the ceiling-normalized efficiency is what a
4x-NODE cluster (with 4x memory bandwidth) would be expected to show.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_DOCS = int(os.environ.get("GRAFT_CORPUS_DOCS", "60000"))
SCALING_DOCS = int(os.environ.get("GRAFT_SCALING_DOCS", "1000000"))
HEADLINE_ONLY = os.environ.get("GRAFT_HEADLINE_ONLY", "") == "1"

QUERY_SUITE = [
    dict(s="interesting and amazing facts", size=10),
    dict(s="merge segment index", size=10),
    dict(s="import", size=10),
    dict(s='parse "exact phrase matching support"', size=10),
    dict(s="buffer flush", size=10, nsfw=False),
]


def corpus_dir(n_docs: int) -> str:
    """Deterministic synthetic corpus as a parquet dir (Ray-parallel gen)."""
    from lighthouse_ray.corpus import CORPUS_VERSION

    path = f"/tmp/lighthouse_bench_corpus_v{CORPUS_VERSION}_d{n_docs}"
    marker = os.path.join(path, ".complete")
    if not os.path.exists(marker):
        from lighthouse_ray.corpus import write_corpus_parallel

        write_corpus_parallel(path, n_docs)
        open(marker, "w").write("ok")
    return path


def _warm_cluster() -> None:
    import ray.data as rd

    rd.range(NUM_CPUS * 8, override_num_blocks=NUM_CPUS * 8).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from lighthouse_ray.build import build_index
    from lighthouse_ray.config import IndexConfig
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    results: dict[str, float] = {}

    # ---- headline: index build over the synthetic corpus ----
    src = corpus_dir(N_DOCS)
    _warm_cluster()  # measure compute+shuffle, not worker spawn
    idx_dir = f"/tmp/lighthouse_bench_idx_{NUM_CPUS}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    cfg = IndexConfig(num_doc_parts=64, num_term_shards=128)
    t0 = time.time()
    res = build_index(src, idx_dir, cfg)
    build_sec = time.time() - t0
    results["index_build"] = round(build_sec, 3)
    docs_per_sec = res.n_docs / build_sec

    # ---- BM25 query latency p50 over the built index ----
    engine = SearchEngine(IndexReader(idx_dir), cache_ttl=0)  # measure scoring, not the cache
    for q in QUERY_SUITE:  # warm (loads shards/doclens)
        engine.search(**q)
    lat = []
    for _rep in range(5):
        for q in QUERY_SUITE:
            t0 = time.time()
            engine.search(**q)
            lat.append(time.time() - t0)
    results["query_p50"] = round(statistics.median(lat), 4)
    results["query_p95"] = round(sorted(lat)[int(len(lat) * 0.95)], 4)

    # ---- oracle-checked testdata pipelines ----
    if not HEADLINE_ONLY:
        from lighthouse_ray.pipelines import make_queries

        shutil.rmtree("/tmp/lighthouse_ray_idx", ignore_errors=True)  # honest bm25_topk
        qs = make_queries()
        # soft wall budget: on a degraded host window the per-pipeline
        # sweep could run for many minutes — skip the tail rather than
        # risk the whole bench being killed with no output.  Skipped and
        # failed pipelines are recorded in a separate status map (never
        # as sentinel values in the seconds field, which consumers
        # average/plot).
        status: dict[str, str] = {}
        budget_s = float(os.environ.get("GRAFT_BENCH_BUDGET_S", "420"))
        sweep_t0 = time.time()
        for name in ["bm25_topk", "nested_match", "nested_avg", "pq_ann",
                     "term_df", "lineitem_agg", "exact_dedup",
                     "ann_cosine_topk", "join_broadcast", "ngram_jaccard",
                     "dup_clusters", "minhash_lsh", "asof_join", "sessionize",
                     "window_agg", "range_join", "knn_graph", "shuffle_join",
                     "chunk_text", "percentiles", "decontaminate",
                     "repetition_stats", "curation_funnel", "heavy_hitters",
                     "train_shuffle", "seq_pack", "kmeans_clusters",
                     "bloom_anti_join", "kmv_distinct", "pii_scrub",
                     "shard_stream", "dedup_keep", "domain_quota",
                     "facet_counts", "highlight_snippet", "spell_suggest",
                     "perplexity_filter", "boilerplate_strip", "semdedup",
                     "substring_dup",
                     "regex_search", "incremental_neardup", "mix_weights",
                     "search_after", "synonym_match", "rescore_phrase",
                     "date_histogram", "significant_terms", "late_window_agg",
                     "countmin_counts", "substring_scrub",
                     "importance_sample", "vocab_prune", "graph_pagerank",
                     "triangle_count", "rolling_window", "approx_percentiles",
                     "token_entropy", "rollup_counts", "weighted_sample",
                     "linreg_fit", "session_funnel", "collapse_topk",
                     "boosting_topk", "knn_graph_srp", "multimodal_meta",
                     "audio_meta", "video_meta", "percolate", "video_frames"]:
            if time.time() - sweep_t0 > budget_s:
                status[name] = "skipped_budget"
                continue
            t0 = time.time()
            try:
                out = qs[name](SF_DIR)
                if hasattr(out, "to_pandas"):
                    out.to_pandas()
                results[name] = round(time.time() - t0, 3)
            except Exception as e:  # noqa: BLE001 — one pipeline must not kill the bench
                print(f"[bench] {name} failed: {e}", file=sys.stderr)
                status[name] = "failed"

    # box-quality reading in the SAME run: this sandbox is a shared VM
    # whose memory bandwidth swings up to ~10x between windows (see
    # BASELINE.md); the calibration lets a recorded run be judged
    # against the host state it actually saw.  Healthy ~55-85 tasks/s
    # at 16 workers; degraded windows read far lower.
    import multiprocessing as mp

    with mp.Pool(16) as pool:
        t0 = time.time()
        pool.map(_calibration_task, range(48))
        cal = round(48 / (time.time() - t0), 1)

    out = {
        "metric": "index_build_sec",
        "value": results["index_build"],
        "unit": "sec",
        "queries": results,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        # CPUs this process may actually run on; Ray is started with
        # num_cpus whatever the affinity allows
        "cpus_available": len(os.sched_getaffinity(0)),
        "corpus_docs": int(res.n_docs),
        "docs_per_sec": round(docs_per_sec, 1),
        "n_postings": int(res.n_postings),
        "calibration_tasks_per_sec_16w": cal,
    }
    if not HEADLINE_ONLY and status:
        out["query_status"] = status
    return out


# ---------------------------------------------------------------------------
# scaling evidence
# ---------------------------------------------------------------------------

def _calibration_task(seed: int) -> float:
    import hashlib
    import re

    import numpy as np

    rng = np.random.RandomState(seed)
    s = "getHTTPResponse snake_case value import return def foo_bar " * 200
    p1 = re.compile(r"([A-Z]+)([A-Z][a-z])")
    p2 = re.compile(r"([a-z0-9])([A-Z])")
    total = 0.0
    for i in range(300):
        x = p2.sub(r"\1 \2", p1.sub(r"\1 \2", s)).lower().split()
        h = hashlib.sha256((" ".join(x[:50]) + str(i)).encode()).digest()
        total += float(rng.rand(20000).sum()) + h[0]
    return total


def _machine_ceiling(lo: int = 8, hi: int = 32) -> dict:
    """Pure-multiprocessing throughput at lo vs hi workers (no Ray): the
    box's own parallel-scaling ceiling for this workload mix."""
    import multiprocessing as mp

    out = {}
    for n in (lo, hi):
        with mp.Pool(n) as p:
            t0 = time.time()
            p.map(_calibration_task, range(n * 4))
            out[n] = (n * 4) / (time.time() - t0)
    return {
        f"tasks_per_sec_{lo}": round(out[lo], 1),
        f"tasks_per_sec_{hi}": round(out[hi], 1),
        "ceiling": round((out[hi] / out[lo]) / (hi / lo), 3),
    }


def _disk_task(i: int) -> float:
    import os as _os

    path = f"/tmp/lighthouse_diskcal_{i}.bin"
    data = b"\xab" * (32 << 20)
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        _os.fsync(f.fileno())
    with open(path, "rb") as f:
        while f.read(1 << 22):
            pass
    _os.remove(path)
    return 64.0  # MB moved (32 write + 32 read)


def _disk_ceiling(lo: int = 8, hi: int = 32) -> dict:
    """Parallel disk write+read throughput at 8 vs 32 workers: the
    sandbox shares ONE disk across all workers, so IO-bound stages
    cannot scale with CPUs here (they would scale with nodes on a real
    cluster, where each node brings its own disks and object store)."""
    import multiprocessing as mp

    out = {}
    for n in (lo, hi):
        with mp.Pool(n) as p:
            t0 = time.time()
            mb = sum(p.map(_disk_task, range(n)))
            out[n] = mb / (time.time() - t0)
    return {
        f"mb_per_sec_{lo}": round(out[lo], 1),
        f"mb_per_sec_{hi}": round(out[hi], 1),
        "ceiling": round((out[hi] / out[lo]) / (hi / lo), 3),
    }


def run_scaling() -> dict:
    # generate the corpus once (own Ray session), then fresh processes per level
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    corpus_dir(SCALING_DOCS)
    ray.shutdown()

    def run_one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_CORPUS_DOCS=str(SCALING_DOCS),
            GRAFT_HEADLINE_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # the two parallelism levels (N and 4N) are configurable so the
    # criterion can be evidenced both at 8->32 (full box, shares one
    # memory bus across all 32 workers) and 4->16 (below the box's
    # bandwidth saturation point — closer to how N->4N *nodes* behave,
    # where each node brings its own memory/disk)
    lo_n, hi_n = (int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(","))
    # interleave the legs (lo, hi, lo, hi) so host-side throughput drift
    # (shared VM) is sampled by BOTH widths, then take best-of-2 per leg
    best: dict[int, dict] = {}
    for ncpu in (lo_n, hi_n, lo_n, hi_n):
        r = run_one(ncpu)
        if ncpu not in best or r["value"] < best[ncpu]["value"]:
            best[ncpu] = r
    lo, hi = best[lo_n], best[hi_n]
    eff = (lo["value"] / hi["value"]) / (hi_n / lo_n)
    ceil = _machine_ceiling(lo_n, hi_n)
    disk = _disk_ceiling(lo_n, hi_n)
    return {
        "disk_ceiling": disk,
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus": [lo_n, hi_n],
        "cpus_available": len(os.sched_getaffinity(0)),
        f"sec_{lo_n}": lo["value"],
        f"sec_{hi_n}": hi["value"],
        f"docs_per_sec_{lo_n}": lo["docs_per_sec"],
        f"docs_per_sec_{hi_n}": hi["docs_per_sec"],
        "corpus_docs": lo["corpus_docs"],
        "machine_ceiling": ceil,
        "efficiency_vs_machine_ceiling": round(eff / ceil["ceiling"], 3) if ceil["ceiling"] else None,
        "queries": {f"p50_{lo_n}": lo["queries"]["query_p50"], f"p50_{hi_n}": hi["queries"]["query_p50"]},
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        out = run_bench()
        import ray

        ray.shutdown()
        print(json.dumps(out))
