"""FULL composed LLM-curation pipeline at 3.5M docs — VERDICT r3 item 1.

Round 3 benchmarked the near-dup funnel (minhash → CC → keep) at 1.05M
docs; this composes the ENTIRE round-3 curation surface end-to-end over
the 3.5M-doc synthetic code corpus:

    boilerplate_strip (corpus-DF segment removal, CCNet line dedup)
      -> paragraph-level dup audit (drop docs with dup_frac >= DUP_THR)
      -> unigram-LM perplexity filter (xent <= cutoff)
      -> decontamination vs a benchmark slice (broadcast shingle probe)
      -> minhash+LSH near-dup -> connected components -> keep reps
      -> training layout: shuffle shards + sequence packing (+ epoch
         mix weights over the survivors)

Composition pattern (the round-3 funnel's own): each stage emits a
DROP-id set; survivors ride forward as one broadcast sorted int64
array applied with np.isin at the next stage's read (at this scale a
few MB; at 100 TB the same decisions would flow through the bloom
semi-join path — functions/joins.py — with identical semantics).
Every stage's output row count is asserted against the per-op gate
semantics (set arithmetic n_{k+1} = n_k - dropped_k, audit
invariants, token conservation in the packer).

Prints ONE JSON line: per-stage walls + row counts, total exchange
volume per stage (LIGHTHOUSE_RAY_XCHG_ACCOUNTING), peak exchange
scratch, same-run host calibration.

Usage: python scripts/bench_curation_full.py [n_docs]  # default 4M (~3.5M live)
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
ACCT = "/tmp/lighthouse_curation_acct.jsonl"

# stage parameters (big-corpus bindings; the sf-gates bind the same
# machinery at test scale with their own constants)
BP_FRAC = 0.90      # segment in >= 90% of docs is boilerplate
BP_MIN_LEN = 2
PARA_TOKENS = 32    # paragraph = 32-token window (code corpus, no \n paragraphs)
DUP_THR = 0.60      # drop docs with >= 60% duplicated paragraphs
PPL_VOCAB = 65536
PPL_CUTOFF = float(os.environ.get("GRAFT_PPL_CUTOFF", "5.62"))  # ~p80 of the cleaned corpus xent
DECON_MOD = 512     # benchmark slice = doc_id % 512 == 0
DECON_N = 13    # any shared 13-gram flags contamination (GPT-3 convention)
# k=5 shingles: at multi-million-doc scale the k=3 binding leaves hot
# shingle runs (common identifier-part trigrams survive the boilerplate
# cut) whose df-squared verification probes OOM a reduce task; 5-token
# shingles are the realistic near-dup gram for code and keep every run
# cold (measured: the k=3 run at 4.2M grew 50 GB of pair-partial spill)
MINHASH_THR, MINHASH_K = 0.5, 5
PACK_SEQ_LEN, PACK_BUCKETS, N_SHARDS = 2048, 64, 64


def _ids(df, col="doc_id"):
    """doc_id column as int64, tolerating the no-rows/no-columns frame
    an all-empty Dataset drains to."""
    import numpy as np

    if col not in getattr(df, "columns", []):
        return np.array([], dtype=np.int64)
    return df[col].to_numpy(dtype=np.int64)


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
        boilerplate_strip,
        connected_components,
        doc_shingles,
        minhash_dedup_pairs,
    )
    from lighthouse_ray.functions.packing import seq_pack, shuffle_shards
    from lighthouse_ray.functions.textstats import unigram_xent

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000_000
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if os.path.exists(ACCT):
        os.remove(ACCT)
    os.environ["LIGHTHOUSE_RAY_XCHG_ACCOUNTING"] = ACCT
    # stale spill roots from crashed runs would pollute the peak-scratch
    # sample; the live run GCs its own roots as stages consume them
    import shutil

    shutil.rmtree(XCHG_ROOT, ignore_errors=True)

    docs_dir = big_documents_dir(n_docs)
    docs_path = os.path.join(docs_dir, "documents.parquet")
    clean_dir = f"/tmp/lighthouse_curation_clean_f{int(BP_FRAC*100)}_d{n_docs}"

    results: dict = {"n_input_docs": rd.read_parquet(docs_path).count()}
    n0 = results["n_input_docs"]
    stage_rows: dict[str, int] = {}

    def _read_clean(columns):
        return rd.read_parquet(clean_dir, columns=columns)

    def _survivor_filter(removed_ref):
        """Batch filter: keep rows whose doc_id is NOT in the broadcast
        removed set (sorted int64 array; np.isin uses binary search)."""
        def f(b: pa.Table) -> pa.Table:
            rem = ray.get(removed_ref)
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(np.isin(ids, rem, invert=True)))
        return f

    with ScratchSampler(XCHG_ROOT) as samp:
        # ---- stage 1: boilerplate strip (all docs; row-preserving) -----
        t0 = time.time()
        a0 = _acct_rows()
        stripped = boilerplate_strip(
            rd.read_parquet(docs_path, columns=["doc_id", "text"]),
            min_docs=int(np.ceil(BP_FRAC * n0)), min_len=BP_MIN_LEN,
            sep=" ", num_parts=256,
        ).map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"], "text": b["text_clean"],
                                "n_removed": b["n_removed"]}),
            batch_format="pyarrow",
        )
        if os.path.exists(os.path.join(clean_dir, "_done")):
            results["strip_sec"] = 0.0  # resumable output: skip finished stage
            n_clean = rd.read_parquet(clean_dir).count()
        else:
            stripped.write_parquet(clean_dir)
            open(os.path.join(clean_dir, "_done"), "w").write("ok")
            results["strip_sec"] = round(time.time() - t0, 2)
            n_clean = rd.read_parquet(clean_dir).count()
        stage_rows["strip_xchg_rows"] = _acct_rows() - a0
        results["n_after_strip"] = n_clean
        assert n_clean == n0, (n_clean, n0)  # gate semantics: one row per doc

        # ---- stage 2: paragraph-dup audit -> drop heavy-dup docs -------
        from lighthouse_ray.util import run_bounds
        from lighthouse_ray.functions.exchange import spill_exchange
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
            _starts, lens = run_bounds(t["chunk"].combine_chunks())
            is_dup = np.repeat(lens >= 2, lens)
            cnt = t["cnt"].to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": t["doc_id"], "cnt": t["cnt"],
                             "dup": pa.array(np.where(is_dup, cnt, 0).astype(np.int64))})

        audit = spill_exchange(
            _read_clean(["doc_id", "text"]).map_batches(chunks, batch_format="pyarrow"),
            "chunk", mark, num_parts=256,
        ).groupby("doc_id").aggregate(
            Sum("cnt", alias_name="n_chunks"), Sum("dup", alias_name="n_dup")
        ).materialize()  # consumed twice below (count + drop filter)
        dropped2 = audit.map_batches(
            lambda b: pa.table({"doc_id": b.filter(pa.array(
                b["n_dup"].to_numpy(zero_copy_only=False)
                >= DUP_THR * b["n_chunks"].to_numpy(zero_copy_only=False)
            ))["doc_id"]}),
            batch_format="pyarrow",
        ).to_pandas()
        dropped2 = _ids(dropped2)
        n_audit = audit.count()
        results["para_audit_sec"] = round(time.time() - t0, 2)
        stage_rows["para_xchg_rows"] = _acct_rows() - a0
        # audit covers every doc with >= 1 token (empty docs have no chunks)
        assert n_audit <= n_clean and n_audit >= n_clean * 0.99, (n_audit, n_clean)
        removed = np.sort(dropped2.astype(np.int64))
        n2 = n_clean - len(removed)
        results["n_after_para"] = n2
        results["para_dropped"] = int(len(removed))
        removed_ref = ray.put(removed)

        # ---- stage 3: perplexity filter over survivors -----------------
        t0 = time.time()
        a0 = _acct_rows()
        xent = unigram_xent(
            _read_clean(["doc_id", "text"]).map_batches(
                _survivor_filter(removed_ref), batch_format="pyarrow"
            ),
            vocab=PPL_VOCAB,
        )
        xents = xent.map_batches(
            lambda b: pa.table({
                "doc_id": b["doc_id"],
                "drop": pc.greater(b["xent"], PPL_CUTOFF).cast(pa.int8()),
            }),
            batch_format="pyarrow",
        ).to_pandas()
        results["ppl_sec"] = round(time.time() - t0, 2)
        stage_rows["ppl_xchg_rows"] = _acct_rows() - a0
        # xent rows == survivors with >= 1 token (zero-token docs dropped
        # by the op's own documented semantics)
        assert len(xents) <= n2, (len(xents), n2)
        n_tokenless = n2 - len(xents)
        dropped3 = xents.loc[xents["drop"] == 1, "doc_id"].to_numpy(np.int64)
        removed = np.sort(np.concatenate([
            removed, dropped3,
            # tokenless docs carry no trainable text after stripping: drop
            np.setdiff1d(
                rd.read_parquet(clean_dir, columns=["doc_id"]).to_pandas()["doc_id"].to_numpy(np.int64),
                np.concatenate([xents["doc_id"].to_numpy(np.int64), removed]),
            ) if n_tokenless else np.array([], np.int64),
        ]))
        n3 = n_clean - len(removed)
        results["n_after_ppl"] = n3
        results["ppl_dropped"] = int(len(dropped3) + n_tokenless)
        assert n3 == len(xents) - len(dropped3), (n3, len(xents), len(dropped3))
        removed_ref = ray.put(removed)

        # ---- stage 4: decontamination vs benchmark slice ---------------
        t0 = time.time()

        def bench_part(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
            mask = ids.to_numpy(zero_copy_only=False) % DECON_MOD == 0
            sh = doc_shingles(b.filter(pa.array(mask)), "text", "doc_id", DECON_N)
            return pa.table({"s": sh["sh"].unique()})

        surv = _read_clean(["doc_id", "text"]).map_batches(
            _survivor_filter(removed_ref), batch_format="pyarrow"
        )
        bench_vals = surv.map_batches(bench_part, batch_format="pyarrow").to_pandas()["s"]
        n_bench_shingles = len(set(bench_vals))
        bench_ref = ray.put(pa.array(sorted(set(bench_vals)), type=pa.string()))

        def flag(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
            nb = b.filter(pa.array(ids.to_numpy(zero_copy_only=False) % DECON_MOD != 0))
            sh = doc_shingles(nb, "text", "doc_id", DECON_N)
            hit = sh.filter(pc.is_in(sh["sh"], value_set=ray.get(bench_ref)))
            return pa.table({"doc_id": hit["id"].unique().cast(pa.int64())})

        surv = _read_clean(["doc_id", "text"]).map_batches(
            _survivor_filter(removed_ref), batch_format="pyarrow"
        )
        dropped4 = np.unique(_ids(surv.map_batches(flag, batch_format="pyarrow").to_pandas()))
        results["decon_sec"] = round(time.time() - t0, 2)
        results["decon_bench_shingles"] = int(n_bench_shingles)
        removed = np.sort(np.concatenate([removed, dropped4]))
        n4 = n_clean - len(removed)
        results["n_after_decon"] = n4
        results["decon_dropped"] = int(len(dropped4))
        assert n4 == n3 - len(dropped4)
        removed_ref = ray.put(removed)

        # ---- stage 5: minhash near-dup -> CC -> keep reps --------------
        t0 = time.time()
        a0 = _acct_rows()
        surv = _read_clean(["doc_id", "text"]).map_batches(
            _survivor_filter(removed_ref), batch_format="pyarrow"
        )
        pairs = minhash_dedup_pairs(
            surv, threshold=MINHASH_THR, k=MINHASH_K, num_parts=256,
        ).materialize()
        n_pairs = pairs.count()
        edges = pairs.map_batches(lambda b: b.select(["a", "b"]), batch_format="pyarrow")
        nodes = _read_clean(["doc_id"]).map_batches(
            _survivor_filter(removed_ref), batch_format="pyarrow"
        ).map_batches(lambda b: pa.table({"id": b["doc_id"]}), batch_format="pyarrow")
        cc = connected_components(edges, nodes).materialize()
        dropped5 = cc.map_batches(
            lambda b: pa.table({"doc_id": b.filter(
                pc.invert(pc.equal(b["id"], b["cluster"]))
            )["id"]}),
            batch_format="pyarrow",
        ).to_pandas()
        dropped5 = _ids(dropped5)
        results["neardup_sec"] = round(time.time() - t0, 2)
        stage_rows["neardup_xchg_rows"] = _acct_rows() - a0
        results["minhash_pairs"] = int(n_pairs)
        assert cc.count() == n4  # every survivor got a cluster id
        removed = np.sort(np.concatenate([removed, dropped5]))
        n5 = n_clean - len(removed)
        results["n_after_neardup"] = n5
        results["neardup_dropped"] = int(len(dropped5))
        removed_ref = ray.put(removed)

        # ---- stage 6: training layout over the final survivors ---------
        t0 = time.time()
        a0 = _acct_rows()

        def count_tokens(b: pa.Table) -> pa.Table:
            parents, _pos, _terms, n = flat_tokens(b["text"])
            return pa.table({
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(np.bincount(parents, minlength=n), type=pa.int64()),
            })

        toks = _read_clean(["doc_id", "text"]).map_batches(
            _survivor_filter(removed_ref), batch_format="pyarrow"
        ).map_batches(count_tokens, batch_format="pyarrow").materialize()
        total_tokens = int(toks.map_batches(
            lambda b: pa.table({"s": pa.array([int(pc.sum(b["n_tokens"]).as_py() or 0)])}),
            batch_format="pyarrow",
        ).to_pandas()["s"].sum())
        packed = seq_pack(toks, seq_len=PACK_SEQ_LEN, n_buckets=PACK_BUCKETS,
                          num_parts=128).materialize()
        n_packed = packed.count()
        # token conservation: last doc of each bucket ends exactly at the
        # bucket's total stream length
        pm = packed.to_pandas()
        ends = pm.assign(end=pm["start_tok"] + pm["n_tokens"]).groupby("bucket")["end"].max()
        assert int(ends.sum()) == total_tokens, (int(ends.sum()), total_tokens)
        assert n_packed == n5, (n_packed, n5)
        shards = shuffle_shards(toks.map_batches(
            lambda b: b.select(["doc_id"]), batch_format="pyarrow"
        ), n_shards=N_SHARDS, num_parts=128).materialize()
        assert shards.count() == n5
        results["layout_sec"] = round(time.time() - t0, 2)
        stage_rows["layout_xchg_rows"] = _acct_rows() - a0
        results["n_sequences"] = int(np.ceil(ends / PACK_SEQ_LEN).sum())
        results["total_tokens"] = total_tokens

    results.update(stage_rows)
    results["peak_scratch_mb"] = round(samp.peak / 2**20, 1)
    results["composed_total_sec"] = round(sum(
        v for k, v in results.items() if k.endswith("_sec")
    ), 2)
    results["total_xchg_rows"] = _acct_rows()
    os.environ.pop("LIGHTHOUSE_RAY_XCHG_ACCOUNTING", None)

    # same-run host calibration (bench.py convention)
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
