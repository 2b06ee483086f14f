"""End-to-end lifecycle composition at >=2M docs (VERDICT r4 item 4).

The round-4 curation run and the sync daemon existed separately; this
chains the whole lifecycle once, over the synthetic CODE corpus:

  A. CURATE   — quality filter -> exact content dedup -> MinHash+LSH
                near-dup -> connected components -> keep representatives;
                survivors written as a curated corpus parquet dir.
  B. INDEX    — full inverted-index build over the survivors into a
                SyncDaemon generation root (the serving layout).
  C. SERVE    — SearchService (K range partitions × 1 replica) over the
                built index: bit-identical parity vs the single-range
                engine on the bench query suite, then p50 latency.
  D. SYNC     — one daemon tick over a change wave (upserts of existing
                keys + brand-new docs + deletes) applied as a delta on
                top of the curated base; incremental search smoke.
  E. COMPACT  — fold the delta'd index into one canonical index and
                assert it equals a CLEAN from-scratch build over the
                same final logical rows: per-shard segment sha256
                equality AND bit-identical query-suite results.

Per-phase wall, exchange rows (LIGHTHOUSE_RAY_XCHG_ACCOUNTING) and
peak exchange scratch are printed as ONE JSON line for BASELINE.md.

Usage: python scripts/bench_lifecycle.py [n_docs] [K]
Defaults: 2,400,000 generated docs (>=2M after curation), K=8.
Env: RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
XCHG_ROOT = "/tmp/lighthouse_ray_xchg"
ACCT = "/tmp/lighthouse_lifecycle_acct.jsonl"

QUALITY_MIN_TOKENS = 5
QUALITY_MAX_CHARS = 20_000
MINHASH_THR, MINHASH_K = 0.5, 5
WAVE_UPSERT_MOD, WAVE_DELETE_MOD = 50, 51  # h(key) % mod == 0 selects
N_NEW_DOCS = 10_000


def _acct_rows() -> int:
    if not os.path.exists(ACCT):
        return 0
    with open(ACCT) as f:
        return sum(json.loads(line)["rows"] for line in f)


def _key_h64(repo, path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from lighthouse_ray.functions.exchange import routing_hash

    if not isinstance(repo, (pa.Array, pa.ChunkedArray)):
        repo = pa.array(list(repo), type=pa.string())
        path = pa.array(list(path), type=pa.string())
    joined = pc.binary_join_element_wise(repo, path, "\x00")
    return routing_hash(joined).astype(np.uint64)


def main() -> int:
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 2_400_000
    K = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if os.path.exists(ACCT):
        os.remove(ACCT)
    os.environ["LIGHTHOUSE_RAY_XCHG_ACCOUNTING"] = ACCT
    shutil.rmtree(XCHG_ROOT, ignore_errors=True)

    from bench import QUERY_SUITE, corpus_dir
    from bench_curation import ScratchSampler
    from lighthouse_ray.analysis import flat_tokens
    from lighthouse_ray.build import build_index
    from lighthouse_ray.config import FORMAT_VERSION, IndexConfig
    from lighthouse_ray.functions.dedup import (
        connected_components,
        minhash_dedup_pairs,
    )
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine
    from lighthouse_ray.query.serving import SearchService
    from lighthouse_ray.state import IncrementalIndex, SyncDaemon

    CFG = IndexConfig(num_doc_parts=64, num_term_shards=128)
    DELTA_CFG = IndexConfig(num_doc_parts=8, num_term_shards=16)
    res: dict = {"metric": "lifecycle_composed", "n_docs_generated": n_docs, "k": K}
    src_dir = corpus_dir(n_docs)
    curated = f"/tmp/lighthouse_lifecycle_curated_v{FORMAT_VERSION}_d{n_docs}"
    work = f"/tmp/lighthouse_lifecycle_work_v{FORMAT_VERSION}_d{n_docs}"
    shutil.rmtree(work, ignore_errors=True)

    COLS = ["repo", "path", "commit", "lang", "content"]

    def with_doc_id(b: pa.Table) -> pa.Table:
        """Deterministic int64 id per physical ROW (md5-low63 of
        repo\\0path\\0commit\\0content — layout-independent and unique:
        the synthetic corpus deliberately repeats (repo,path,commit)
        triples with different contents as its LWW exercise, so the
        content must participate or near-dup drops fan out to every
        row sharing a triple)."""
        import pyarrow.compute as pc

        j = pc.binary_join_element_wise(
            b["repo"], b["path"], b["commit"], b["content"], "\x00")
        h = np.frombuffer(
            b"".join(hashlib.md5(s.encode()).digest()[8:] for s in j.to_pylist()),
            dtype=">u8",
        ).astype(np.uint64)
        return b.append_column(
            "doc_id", pa.array((h >> np.uint64(1)).astype(np.int64)))

    with ScratchSampler(XCHG_ROOT) as samp:
        # ---- A. CURATE -----------------------------------------------------
        t0 = time.time()
        a0 = _acct_rows()
        if not os.path.exists(os.path.join(curated, "_done")):
            shutil.rmtree(curated, ignore_errors=True)
            ds = rd.read_parquet(src_dir).map_batches(
                with_doc_id, batch_format="pyarrow")

            def quality(b: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                parents, _pos, _terms, n_rows = flat_tokens(b["content"])
                ntok = np.bincount(parents, minlength=n_rows)
                nch = pc.utf8_length(b["content"]).to_numpy(zero_copy_only=False)
                keep = (ntok >= QUALITY_MIN_TOKENS) & (nch <= QUALITY_MAX_CHARS)
                return b.filter(pa.array(keep))

            ds = ds.map_batches(quality, batch_format="pyarrow").materialize()
            n_q = ds.count()

            # exact content dedup: md5(content) -> keep min doc_id
            def chash(b: pa.Table) -> pa.Table:
                h = np.frombuffer(
                    b"".join(hashlib.md5(s.encode()).digest()[:8]
                             for s in b["content"].to_pylist()),
                    dtype=">u8").astype(np.int64)
                return pa.table({"h": pa.array(h), "doc_id": b["doc_id"]})

            from ray.data.aggregate import Min

            winners = (ds.map_batches(chash, batch_format="pyarrow")
                       .groupby("h").aggregate(Min("doc_id")))
            # drop = ids that are NOT their hash-group minimum
            wmin = winners.to_pandas()["min(doc_id)"].to_numpy()
            keep_ref = ray.put(np.sort(wmin))

            def keep_exact(b: pa.Table) -> pa.Table:
                kk = ray.get(keep_ref)
                ids = b["doc_id"].to_numpy(zero_copy_only=False)
                return b.filter(pa.array(np.isin(ids, kk)))

            ds = ds.map_batches(keep_exact, batch_format="pyarrow").materialize()
            n_exact = ds.count()

            # near-dup: MinHash+LSH pairs -> CC -> keep min-id reps
            pairs = minhash_dedup_pairs(
                ds.select_columns(["doc_id", "content"]),
                threshold=MINHASH_THR, k=MINHASH_K,
                text_col="content", num_parts=256,
            ).materialize()
            n_pairs = pairs.count()
            if n_pairs:
                def pair_nodes(b: pa.Table) -> pa.Table:
                    return pa.table({"id": pa.concat_arrays(
                        [b["a"].combine_chunks().cast(pa.int64()),
                         b["b"].combine_chunks().cast(pa.int64())])})

                nodes = (pairs.map_batches(pair_nodes, batch_format="pyarrow")
                         .groupby("id").count().select_columns(["id"]))
                labels = connected_components(pairs, nodes, num_parts=64)
                lab = labels.to_pandas()
                drop = np.sort(lab.loc[lab["id"] != lab["cluster"], "id"]
                               .to_numpy(dtype=np.int64))
            else:
                drop = np.array([], dtype=np.int64)
            drop_ref = ray.put(drop)

            def drop_dups(b: pa.Table) -> pa.Table:
                dd = ray.get(drop_ref)
                ids = b["doc_id"].to_numpy(zero_copy_only=False)
                return b.filter(pa.array(np.isin(ids, dd, invert=True))).select(COLS)

            ds.map_batches(drop_dups, batch_format="pyarrow").write_parquet(curated)
            meta = {"n_quality": int(n_q), "n_after_exact": int(n_exact),
                    "n_neardup_pairs": int(n_pairs), "n_neardup_dropped": int(len(drop))}
            json.dump(meta, open(os.path.join(curated, "_meta.json"), "w"))
            open(os.path.join(curated, "_done"), "w").write("ok")
        meta = json.load(open(os.path.join(curated, "_meta.json")))
        res.update(meta)
        n_curated = rd.read_parquet(curated).count()
        res["n_curated"] = n_curated
        assert n_curated == meta["n_after_exact"] - meta["n_neardup_dropped"]
        res["curate_sec"] = round(time.time() - t0, 1)
        res["curate_xchg_rows"] = _acct_rows() - a0

        # ---- B. INDEX into the daemon's generation root --------------------
        t0 = time.time()
        a0 = _acct_rows()
        inc = IncrementalIndex(os.path.join(work, "gen-0000"), CFG)
        inc.build_base(rd.read_parquet(curated), CFG)
        res["index_sec"] = round(time.time() - t0, 1)
        res["index_xchg_rows"] = _acct_rows() - a0
        idx_dir = os.path.join(work, "gen-0000", "base")
        n_live = IndexReader(idx_dir).n_docs
        res["n_indexed_live"] = int(n_live)
        if n_docs >= 2_400_000:
            assert n_live >= 2_000_000, \
                f"lifecycle contract needs >=2M docs, got {n_live}"

        # ---- C. SERVE (sharded parity + latency) ---------------------------
        t0 = time.time()
        engine = SearchEngine(IndexReader(idx_dir), cache_ttl=0)
        svc = SearchService(idx_dir, num_partitions=K, num_replicas=1, cache_ttl=0)
        for q in QUERY_SUITE:
            a = engine.search(**q).reset_index(drop=True)
            b = svc.search(**q).reset_index(drop=True)
            assert a.equals(b), f"sharded mismatch for {q}"
        lat = []
        for _rep in range(5):
            for q in QUERY_SUITE:
                tq = time.time()
                svc.search(**q)
                lat.append(time.time() - tq)
        svc.shutdown()
        res["serve_parity"] = "bit-identical"
        res["serve_sharded_p50_ms"] = round(statistics.median(lat) * 1e3, 1)
        res["serve_sec"] = round(time.time() - t0, 1)

        # ---- D. SYNC tick (upserts + new docs + deletes) -------------------
        t0 = time.time()
        a0 = _acct_rows()
        cur = rd.read_parquet(curated, columns=["repo", "path", "commit", "lang"])

        def pick_keys(b: pa.Table) -> pa.Table:
            h = _key_h64(b["repo"], b["path"])
            m = h % np.uint64(WAVE_DELETE_MOD + 1)
            ups = m == np.uint64(0)
            dels = m == np.uint64(1)
            return pa.table({
                "repo": b["repo"], "path": b["path"], "lang": b["lang"],
                "kind": pa.array(np.where(ups, 1, np.where(dels, 2, 0)).astype(np.int8)),
            }).filter(pa.array(ups | dels))

        wave_keys = cur.map_batches(pick_keys, batch_format="pyarrow").to_pandas()
        up = wave_keys[wave_keys["kind"] == 1]
        de = wave_keys[wave_keys["kind"] == 2]
        rows = {c: [] for c in [*COLS, "id", "modified_at", "deleted"]}
        nid = 0
        for r_, p_, l_ in zip(up["repo"], up["path"], up["lang"]):
            nid += 1
            rows["repo"].append(r_); rows["path"].append(p_)
            rows["commit"].append(hashlib.sha1(f"{r_}/{p_}@wave".encode()).hexdigest())
            rows["lang"].append(l_)
            rows["content"].append(
                f"func waveUpdatedMarker(self): return 'lifecyclewave'\nimport wave_{nid % 97}")
            rows["id"].append(nid); rows["modified_at"].append(10_000)
            rows["deleted"].append(False)
        for r_, p_ in zip(de["repo"], de["path"]):
            nid += 1
            rows["repo"].append(r_); rows["path"].append(p_)
            rows["commit"].append("0" * 40); rows["lang"].append("py")
            rows["content"].append("")
            rows["id"].append(nid); rows["modified_at"].append(10_000)
            rows["deleted"].append(True)
        for i in range(N_NEW_DOCS):
            nid += 1
            r_, p_ = "orgw/wave", f"src/wave/new_{i}.py"
            rows["repo"].append(r_); rows["path"].append(p_)
            rows["commit"].append(hashlib.sha1(f"{r_}/{p_}".encode()).hexdigest())
            rows["lang"].append("py")
            rows["content"].append(
                f"func newWaveDoc_{i}(self): return 'lifecyclewave'")
            rows["id"].append(nid); rows["modified_at"].append(10_000)
            rows["deleted"].append(False)
        import pyarrow.parquet as pq

        wave_src = os.path.join(work, "wave_source.parquet")
        pq.write_table(pa.table({
            **{c: pa.array(rows[c], type=pa.string()) for c in COLS},
            "id": pa.array(rows["id"], type=pa.int64()),
            "modified_at": pa.array(rows["modified_at"], type=pa.int64()),
            "deleted": pa.array(rows["deleted"], type=pa.bool_()),
        }), wave_src)
        res["wave_upserts"] = len(up)
        res["wave_deletes"] = len(de)
        res["wave_new_docs"] = N_NEW_DOCS

        daemon = SyncDaemon(work, wave_src, cfg=CFG, delta_cfg=DELTA_CFG,
                            batch_size=200_000)
        tick = daemon.cycle(now=20_000)
        assert tick["upserts"] == len(up) + N_NEW_DOCS, tick
        assert tick["deletes"] == len(de), tick
        hits = daemon.index.search_topk("content", ["lifecyclewave"], k=10)
        assert len(hits) == 10
        res["sync_tick_sec"] = round(time.time() - t0, 1)
        res["sync_xchg_rows"] = _acct_rows() - a0

        # ---- E. COMPACT + clean-build equality -----------------------------
        t0 = time.time()
        final_root = os.path.join(work, "final")
        daemon.index.compact(final_root, CFG)
        res["compact_sec"] = round(time.time() - t0, 1)

        t0 = time.time()
        # clean build input: curated rows minus wave-touched keys, plus
        # wave upserts/new docs (the final logical row set)
        touched = np.sort(np.concatenate([
            _key_h64(list(up["repo"]), list(up["path"])).astype(np.int64),
            _key_h64(list(de["repo"]), list(de["path"])).astype(np.int64),
        ]))
        tref = ray.put(touched)

        def drop_touched(b: pa.Table) -> pa.Table:
            tt = ray.get(tref)
            h = _key_h64(b["repo"], b["path"]).astype(np.int64)
            return b.filter(pa.array(np.isin(h, tt, invert=True)))

        live_wave = pa.table({
            c: pa.array([v for v, dd in zip(rows[c], rows["deleted"]) if not dd],
                        type=pa.string()) for c in COLS})
        clean_in = rd.read_parquet(curated).map_batches(
            drop_touched, batch_format="pyarrow").union(rd.from_arrow(live_wave))
        clean_dir = os.path.join(work, "clean")
        clean_res = build_index(clean_in, clean_dir, CFG)
        res["clean_build_sec"] = round(time.time() - t0, 1)

        man = json.load(open(os.path.join(final_root, "base", "manifest.json")))
        a = man["stages"]["segments"]["shards"]
        b = clean_res.manifest["stages"]["segments"]["shards"]
        assert set(a) == set(b)
        for kk in b:
            assert a[kk]["sha256"] == b[kk]["sha256"], f"shard {kk} differs"
        ef = SearchEngine(IndexReader(os.path.join(final_root, "base")), cache_ttl=0)
        ec = SearchEngine(IndexReader(clean_dir), cache_ttl=0)
        for q in [*QUERY_SUITE, dict(s="lifecyclewave", size=10)]:
            fa = ef.search(**q).reset_index(drop=True)
            cb = ec.search(**q).reset_index(drop=True)
            assert fa.equals(cb), f"final-vs-clean mismatch for {q}"
        res["final_equals_clean_build"] = "segment sha256 + query parity"
        res["peak_xchg_scratch_gb"] = round(samp.peak / 2**30, 2)

    print(json.dumps(res))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
