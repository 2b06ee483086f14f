"""Round-3 dedup additions at 878k+ docs — VERDICT r3 item 4.

paragraph_dedup / containment_dup / dup_substr_spans / winnow_dedup
are gate-green at sf0.1 (5k docs) but had no BASELINE row off toy
scale.  This runs each over the ~1.05M-doc documents table derived
from the synthetic code corpus (bench_curation.big_documents_dir),
recording wall, OUTPUT size, exchange volume (spilled rows via
LIGHTHOUSE_RAY_XCHG_ACCOUNTING) and the hot-run guard trip counts
(the max_df drops the reduces log; the runner greps them from the
captured log — they are worker prints).

Realistic large-corpus bindings (gates bind the same machinery at
test scale with tiny constants): grams of 8 tokens for the
ExactSubstr spans (the gate's SUB_K exercises the machinery at k
small), winnowing k=5/w=8, containment 8-gram.

Usage: python scripts/bench_dedup_878k.py [n_docs]   # default 1_000_000
Env: RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
XCHG_ROOT = "/tmp/lighthouse_ray_xchg"
ACCT = "/tmp/lighthouse_dedup878k_acct.jsonl"

PARA_TOKENS = 32
SUB_K = 8
WINNOW_K, WINNOW_W = 5, 8
CONT_N, CONT_THR, CONT_MIN_INTER = 8, 0.5, 5
MAX_DF = 1000
NUM_PARTS = 128


def _acct_rows() -> int:
    if not os.path.exists(ACCT):
        return 0
    with open(ACCT) as f:
        return sum(json.loads(line)["rows"] for line in f)


def main() -> dict:
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from bench_curation import ScratchSampler, big_documents_dir
    from lighthouse_ray.analysis import flat_tokens
    from lighthouse_ray.functions.dedup import (
        containment_pairs,
        substring_dup_spans,
        winnow_pairs,
    )
    from lighthouse_ray.functions.exchange import spill_exchange
    from lighthouse_ray.util import run_bounds

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if os.path.exists(ACCT):
        os.remove(ACCT)
    os.environ["LIGHTHOUSE_RAY_XCHG_ACCOUNTING"] = ACCT
    import shutil

    shutil.rmtree(XCHG_ROOT, ignore_errors=True)

    docs_dir = big_documents_dir(n_docs)
    docs_path = os.path.join(docs_dir, "documents.parquet")

    def docs(cols):
        return rd.read_parquet(docs_path, columns=cols)

    results: dict = {"n_docs": docs(["doc_id"]).count()}

    with ScratchSampler(XCHG_ROOT) as samp:
        # ---- paragraph-level dup audit --------------------------------
        from ray.data.aggregate import Sum

        t0 = time.time()
        a0 = _acct_rows()
        P = PARA_TOKENS

        def chunks(b: pa.Table) -> pa.Table:
            parents, pos, terms, _n = flat_tokens(b["text"])
            empty = pa.table({"chunk": pa.array([], type=pa.string()),
                              "doc_id": pa.array([], type=pa.int64()),
                              "cnt": pa.array([], type=pa.int64())})
            if len(parents) == 0:
                return empty
            key = (parents << 32) + (pos // P)
            starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
            offsets = np.append(starts, len(parents)).astype(np.int32)
            lists = pa.ListArray.from_arrays(pa.array(offsets), terms)
            chunk = pc.binary_join(lists, " ")
            doc = pc.take(b["doc_id"], pa.array(parents[starts])).cast(pa.int64())
            t = pa.table({"chunk": chunk, "doc_id": doc})
            agg = t.group_by(["chunk", "doc_id"]).aggregate([([], "count_all")])
            return pa.table({"chunk": agg["chunk"], "doc_id": agg["doc_id"],
                             "cnt": agg["count_all"].cast(pa.int64())})

        def mark(t: pa.Table) -> pa.Table:
            empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                              "cnt": pa.array([], type=pa.int64()),
                              "dup": pa.array([], type=pa.int64())})
            if t.num_rows == 0:
                return empty
            t = t.sort_by([("chunk", "ascending"), ("doc_id", "ascending")]).combine_chunks()
            _s, lens = run_bounds(t["chunk"].combine_chunks())
            is_dup = np.repeat(lens >= 2, lens)
            cnt = t["cnt"].to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": t["doc_id"], "cnt": t["cnt"],
                             "dup": pa.array(np.where(is_dup, cnt, 0).astype(np.int64))})

        audit = spill_exchange(
            docs(["doc_id", "text"]).map_batches(chunks, batch_format="pyarrow"),
            "chunk", mark, num_parts=NUM_PARTS,
        ).groupby("doc_id").aggregate(
            Sum("cnt", alias_name="n_chunks"), Sum("dup", alias_name="n_dup")
        )
        n_dup_docs = audit.map_batches(
            lambda b: pa.table({"n": pa.array([int(pc.sum(
                pc.greater(b["n_dup"], 0).cast(pa.int64())).as_py() or 0)])}),
            batch_format="pyarrow",
        ).to_pandas()["n"].sum()
        results["paragraph_dedup_sec"] = round(time.time() - t0, 2)
        results["paragraph_dedup_docs_with_dup"] = int(n_dup_docs)
        results["paragraph_dedup_xchg_rows"] = _acct_rows() - a0

        # ---- ExactSubstr spans ----------------------------------------
        t0 = time.time()
        a0 = _acct_rows()
        spans = substring_dup_spans(
            docs(["doc_id", "text"]), k=SUB_K, num_parts=NUM_PARTS
        )
        n_spans = spans.count()
        results["dup_substr_spans_sec"] = round(time.time() - t0, 2)
        results["dup_substr_spans"] = int(n_spans)
        results["dup_substr_xchg_rows"] = _acct_rows() - a0

        # ---- winnowing fingerprint pairs ------------------------------
        t0 = time.time()
        a0 = _acct_rows()
        wp = winnow_pairs(
            docs(["doc_id", "text"]), k=WINNOW_K, w=WINNOW_W,
            min_shared=2, max_df=MAX_DF, num_parts=NUM_PARTS,
        )
        n_wp = wp.count()
        results["winnow_pairs_sec"] = round(time.time() - t0, 2)
        results["winnow_pairs"] = int(n_wp)
        results["winnow_xchg_rows"] = _acct_rows() - a0

        # ---- containment pairs ----------------------------------------
        t0 = time.time()
        a0 = _acct_rows()
        cp = containment_pairs(
            docs(["doc_id", "text"]), n=CONT_N, threshold=CONT_THR,
            min_inter=CONT_MIN_INTER, max_df=MAX_DF, num_parts=NUM_PARTS,
        )
        n_cp = cp.count()
        results["containment_pairs_sec"] = round(time.time() - t0, 2)
        results["containment_pairs"] = int(n_cp)
        results["containment_xchg_rows"] = _acct_rows() - a0

    results["peak_scratch_mb"] = round(samp.peak / 2**20, 1)
    results["total_xchg_rows"] = _acct_rows()
    os.environ.pop("LIGHTHOUSE_RAY_XCHG_ACCOUNTING", None)

    import multiprocessing as mp

    from bench import _calibration_task

    with mp.Pool(16) as pool:
        t0 = time.time()
        pool.map(_calibration_task, range(48))
        results["calibration_tasks_per_sec_16w"] = round(48 / (time.time() - t0), 1)
    results["num_cpus"] = NUM_CPUS
    return results


if __name__ == "__main__":
    out = main()
    import ray

    ray.shutdown()
    print(json.dumps(out))
