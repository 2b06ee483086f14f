"""Index build orchestration: the end-to-end Ray Data pipeline.

Stages (SURVEY.md §7.1), each checkpointed in ``manifest.json`` so a
killed build resumes from its last completed unit (fixture x02):

  A. docstore  — derive identity/doc-values, spill content to payload
                 files and ~150 B/row metadata to per-part files
                 (map-side partitioned exchange) → one finalize task per
                 part: dedup/delete-route/rank → per-part parquet +
                 lineage digests
  H. hot terms — deterministic 1/df_sample_mod doc sample → distributed
                 partial df counts → hot set (salting decisions, data-
                 not parallelism-dependent)
  B. postings  — tokenize tasks (one payload FILE each — the resume
                 unit) spill posting rows into per-shard-group zstd
                 files; completed files checkpoint incrementally as
                 their spill-manifest rows stream back
  C. stats     — doclen rows (negative shards) → avgdl per field,
                 merged in the same exchange as the postings
  D. segments  — one merge task per shard group → compressed block-max
                 segment parquet per shard (skips shards already in the
                 manifest); no all-to-all shuffle anywhere

The caller owns the Ray session; this module never calls ray.init.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..analysis import flat_tokens
from ..config import FIELDS, IndexConfig
from ..util import atomic_write_json, limit_worker_threads, read_json
from .docs import derive_batch, part_offsets
from .postings import make_merge_group, tokenize_file_task


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    n_postings: int
    manifest: dict


def _manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, "manifest.json")


def _load_manifest(index_dir: str) -> dict:
    p = _manifest_path(index_dir)
    if os.path.exists(p):
        return read_json(p)
    return {"stages": {}}


def build_index(
    source,
    index_dir: str,
    cfg: IndexConfig | None = None,
    resume: bool = False,
) -> BuildResult:
    """Build (or resume) an index at ``index_dir``.

    ``source`` is a parquet path/list or a ``ray.data.Dataset`` with
    columns (repo, path, commit, lang, content).
    """
    cfg = cfg or IndexConfig()
    os.makedirs(index_dir, exist_ok=True)
    manifest = _load_manifest(index_dir) if resume else {"stages": {}}
    if not resume:
        for sub in ("docstore", "docmeta", "postings", "segments", "doclens", "dict", "payload", "payload_dfsample", "ordmap", "ordmap_spill", "deleted_keys"):
            shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)
    # a resume with a different LAYOUT config would mix incompatible
    # partitioning/encoding decisions into one index — refuse loudly.
    # ("extra" holds only the test fault-injection knob ``fail_files``,
    # which may legitimately differ between attempts.)
    layout_keys = (
        "num_doc_parts", "num_term_shards", "k1", "b", "block_size",
        "hot_df_ratio", "salt_range", "df_sample_mod", "dl_shift",
        "num_shard_groups", "ordmap_groups", "route_deletes", "now_ts",
    )
    if resume and "config" in manifest:
        old = manifest["config"]
        want = cfg.to_json()
        bad = [k for k in layout_keys if old.get(k) != want.get(k)]
        if bad:
            raise ValueError(
                f"resume config mismatch on {bad}: manifest has "
                f"{ {k: old.get(k) for k in bad} }, caller passed "
                f"{ {k: want.get(k) for k in bad} }"
            )
    manifest.setdefault("config", cfg.to_json())
    stages = manifest["stages"]

    # Resume of a COMPLETE-AND-CLEANED build: the postings spill dir is
    # removed ONLY after a fully-recorded build (cfg.cleanup_spills), so
    # its absence together with a recorded segments stage + stats.json
    # (the last artifact written) means there is nothing to do — falling
    # through to stage D would misread the GC'd spills as lost state.
    # When spills are still present (cleanup_spills=False, or a repair
    # that deleted specific shard records), stage D runs normally and
    # rebuilds exactly the unrecorded shards.
    if (
        resume
        and "segments" in stages
        and not os.path.isdir(os.path.join(index_dir, "postings"))
        and os.path.exists(os.path.join(index_dir, "stats.json"))
    ):
        seg_done = stages["segments"].get("shards", {})
        return BuildResult(
            index_dir=index_dir,
            n_docs=int(manifest.get("n_docs", 0)),
            n_postings=sum(int(v["n_postings"]) for v in seg_done.values()),
            manifest=manifest,
        )

    if isinstance(source, rd.Dataset):
        ds = source
    else:
        import ray as _ray0

        # 2 blocks per CPU: enough waves to level load, few enough that the
        # driver's ~10 ms/task dispatch doesn't pace the stage (at 4x the
        # derive stage spent ~2 s of a 3.3 s wall waiting on dispatch of
        # 200-ms tasks).  Payload-file count (stage-B task granularity)
        # follows this, so it also halves tokenize dispatch.
        ds = rd.read_parquet(
            source,
            override_num_blocks=max(int(_ray0.cluster_resources().get("CPU", 4)) * 2, 16),
        )

    # ---- Stage A: docstore ------------------------------------------------
    payload_dir = os.path.join(index_dir, "payload")
    meta_dir = os.path.join(index_dir, "docmeta")
    if "docstore" not in stages:
        t0 = time.time()
        os.makedirs(payload_dir, exist_ok=True)

        # derive tasks spill content to payload files and the ~150 B/row
        # metadata to per-part files (map-side partitioned exchange, same
        # pattern as the postings spill — no all-to-all sort anywhere)
        from .docs import make_finalize_group

        spill_rows = ds.map_batches(
            lambda b: derive_batch(b, cfg, payload_dir, meta_dir), batch_format="pyarrow"
        ).take_all()
        parts_present = sorted({int(r["part"]) for r in spill_rows})
        rows = (
            rd.from_items(
                [{"part": p} for p in parts_present],
                override_num_blocks=max(len(parts_present), 1),
            )
            .map_batches(
                make_finalize_group(index_dir, cfg, meta_dir),
                batch_format="pyarrow",
                batch_size=None,
            )
            .take_all()
        )  # one small manifest row per partition
        part_rows = {int(r["part"]): int(r["rows"]) for r in rows}
        stages["docstore"] = {
            "sec": round(time.time() - t0, 3),
            "part_rows": {str(k): v for k, v in sorted(part_rows.items())},
            "input_rows": int(sum(r["input_rows"] for r in rows)),
            "deleted": int(sum(r["deleted"] for r in rows)),
            "digests": {str(int(r["part"])): r["digest"] for r in rows},
            "lineage": {"source": str(source) if not isinstance(source, rd.Dataset) else "<dataset>"},
        }
        atomic_write_json(_manifest_path(index_dir), manifest)

    part_rows = {int(k): v for k, v in stages["docstore"]["part_rows"].items()}
    offsets = part_offsets(part_rows, cfg.num_doc_parts)
    n_docs = sum(part_rows.values())

    ordmap_dir = os.path.join(index_dir, "ordmap")

    # ---- Stage A2: ordmap compact -------------------------------------------
    # Reduce half of the ordinal-sidecar exchange: one task per payload-
    # file group merges that group's per-part spills into one sidecar
    # per payload file (docs.compact_ordmap_group).  Everything
    # downstream (hot-term live mask, tokenize) then reads exactly ONE
    # file per payload file.  Idempotent per group; a group whose spill
    # dir is already gone was compacted by a previous attempt.
    if "ordmap_compact" not in stages:
        t0 = time.time()
        from .docs import compact_ordmap_group

        spill_root = os.path.join(index_dir, "ordmap_spill")
        grps = (
            sorted(
                int(d.split("=", 1)[1])
                for d in os.listdir(spill_root)
                if d.startswith("grp=")
            )
            if os.path.isdir(spill_root)
            else []
        )
        n_sidecars = 0
        if grps:

            def compact(b: pa.Table) -> pa.Table:
                outs = [compact_ordmap_group(index_dir, int(g)) for g in b["grp"].to_pylist()]
                return pa.table({"n": pa.array(outs, type=pa.int64())})

            n_sidecars = int(
                sum(
                    r["n"]
                    for r in rd.from_items(
                        [{"grp": g} for g in grps], override_num_blocks=len(grps)
                    )
                    .map_batches(compact, batch_format="pyarrow", batch_size=None)
                    .take_all()
                )
            )
        stages["ordmap_compact"] = {"sec": round(time.time() - t0, 3), "sidecars": n_sidecars}
        atomic_write_json(_manifest_path(index_dir), manifest)

    # ---- Stage H: hot-term estimate ----------------------------------------
    if "hot_terms" not in stages:
        t0 = time.time()
        mod = cfg.df_sample_mod
        thresh = max(4.0, cfg.hot_df_ratio * n_docs / mod)
        sample_dir = payload_dir + "_dfsample"
        hot: list[str] = []
        if os.path.isdir(sample_dir) and os.listdir(sample_dir):
            import pyarrow.dataset as pads

            from .docs import sidecar_live_mask

            sample_bytes = sum(
                os.path.getsize(os.path.join(sample_dir, f)) for f in os.listdir(sample_dir)
            )

            def live_only(t: pa.Table) -> pa.Table:
                # restrict the sample to live winner ROWS so the hot set
                # (and therefore the segment layout) is a pure function of
                # the logical row set.  Membership comes from the ordmap
                # sidecars of the rows' own payload files — per-file
                # partitioned reads, no broadcast state.
                keep = sidecar_live_mask(ordmap_dir, t["payload_file"], t["payload_row"])
                return t.filter(pa.array(keep))

            if sample_bytes < 4 << 20:
                # tiny sample: one driver-side pyarrow pass beats a Ray
                # job's scheduling barrier
                t = live_only(
                    pads.dataset(sample_dir).to_table(
                        columns=["payload_file", "payload_row", "content"]
                    )
                )
                partials = [_sample_df_partial(t, limit_threads=False)]
            else:
                # distribute the sample tokenize; only the per-batch
                # partial (term, n) counts come back — the final sum is a
                # tiny driver-side group_by, no Ray groupby barrier
                import ray as _ray

                def live_partial(t: pa.Table) -> pa.Table:
                    keep = sidecar_live_mask(ordmap_dir, t["payload_file"], t["payload_row"])
                    return _sample_df_partial(t.filter(pa.array(keep)))

                nb_s = max(int(_ray.cluster_resources().get("CPU", 4)) * 2, 8)
                partials = list(
                    rd.read_parquet(
                        sample_dir,
                        columns=["payload_file", "payload_row", "content"],
                        override_num_blocks=nb_s,
                    )
                    .map_batches(live_partial, batch_format="pyarrow")
                    .iter_batches(batch_size=None, batch_format="pyarrow")
                )
            partials = [p for p in partials if p.num_rows]
            if partials:
                agg = pa.concat_tables(partials).group_by("term").aggregate([("n", "sum")])
                keep = pc.greater_equal(agg["n_sum"], int(np.ceil(thresh)))
                hot = agg.filter(keep)["term"].to_pylist()
        stages["hot_terms"] = {"sec": round(time.time() - t0, 3), "terms": sorted(hot), "threshold": thresh}
        atomic_write_json(_manifest_path(index_dir), manifest)
    hot_terms = stages["hot_terms"]["terms"]

    # ---- Stage B: postings --------------------------------------------------
    postings_dir = os.path.join(index_dir, "postings")
    if "postings" not in stages:
        t0 = time.time()
        # per-FILE resume: completed payload files are recorded in an
        # APPEND-ONLY progress log (one JSON line per finished file) as
        # their spill rows arrive; a killed build re-runs only the
        # missing ones (spill writes content-addressed, so re-running a
        # half-finished file is idempotent).  A log APPEND is O(1) per
        # file — rewriting the whole manifest per checkpoint would cost
        # O(files²) driver time and was ~3 s of pure JSON encoding at
        # 878k docs (and far worse at cluster scale).
        progress_path = os.path.join(index_dir, "postings_progress.jsonl")
        progress: dict = {}
        if resume and os.path.exists(progress_path):
            with open(progress_path) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        e = json.loads(line)
                        progress[e.pop("src")] = e  # last-wins per file
        if not progress:
            shutil.rmtree(postings_dir, ignore_errors=True)
            if os.path.exists(progress_path):
                os.unlink(progress_path)
        files = sorted(f for f in os.listdir(payload_dir) if f.endswith(".parquet"))
        todo = [f for f in files if f not in progress]

        if todo:
            stage_kwargs = {
                "payload_dir": payload_dir,
                "offsets": offsets,
                "ordmap_dir": ordmap_dir,
                "hot_terms": hot_terms,
                "cfg_json": cfg.to_json(),
                "spill_dir": postings_dir,
            }
            # plain tasks on prewarmed workers, stage state memoized per
            # worker — full width instantly, no pool ramp
            stream = (
                rd.from_items([{"file": f} for f in todo], override_num_blocks=len(todo))
                .map_batches(
                    tokenize_file_task,
                    fn_kwargs=stage_kwargs,
                    batch_format="pyarrow",
                    batch_size=None,
                )
                .iter_batches(batch_size=None, batch_format="pyarrow")
            )
            pending = 0
            log_fh = open(progress_path, "a")
            try:
                for b in stream:
                    batch_srcs: dict[str, dict] = {}
                    for src, grp, rows_, bytes_, sha in zip(
                        b["src"].to_pylist(),
                        b["grp"].to_pylist(),
                        b["rows"].to_pylist(),
                        b["bytes"].to_pylist(),
                        b["sha256"].to_pylist(),
                    ):
                        e = progress.setdefault(src, {"rows": 0, "bytes": 0, "spills": []})
                        batch_srcs[src] = e
                        if sha:
                            e["rows"] += int(rows_)
                            e["bytes"] += int(bytes_)
                            e["spills"].append([int(grp), sha])
                    # one output batch == one payload file (one task), so
                    # every src in this batch is now COMPLETE: append its
                    # line — the durable resume point
                    for src, e in batch_srcs.items():
                        log_fh.write(json.dumps({"src": src, **e}) + "\n")
                    pending += 1
                    if pending >= 8:  # amortize fsyncs under many tiny files
                        log_fh.flush()
                        os.fsync(log_fh.fileno())
                        pending = 0
            finally:
                log_fh.flush()
                os.fsync(log_fh.fileno())
                log_fh.close()
            missing = [f for f in todo if f not in progress]
            if missing:
                raise RuntimeError(
                    f"stage B incomplete: {len(missing)} payload files unprocessed "
                    "(re-run with resume=True)"
                )

        per_file_digest = hashlib.sha256(
            "".join(
                s for f in sorted(progress) for _g, s in sorted(progress[f]["spills"])
            ).encode()
        ).hexdigest()
        stages["postings"] = {
            "sec": round(time.time() - t0, 3),
            "files": len(files),
            "rows": int(sum(e["rows"] for e in progress.values())),
            "bytes": int(sum(e["bytes"] for e in progress.values())),
            "digest": per_file_digest,
        }
        atomic_write_json(_manifest_path(index_dir), manifest)
        if os.path.exists(progress_path):
            os.unlink(progress_path)  # folded into the stage record above

    # ---- Stage D: segments + doclens (the exchange reduce) -------------------
    seg_done: dict = stages.get("segments", {}).get("shards", {})
    t0 = time.time()
    done_ids = {int(k) for k in seg_done}
    # one merge task per shard group reading its own spill files — an
    # explicit disk-partitioned exchange, no all-to-all
    if not os.path.isdir(postings_dir):
        # a build whose live doc set is EMPTY (e.g. a delta batch that
        # contains only delete-routed rows — a normal sync batch shape)
        # legitimately spills nothing; only a non-empty recorded
        # postings stage with a missing spill dir means lost state
        if int(stages.get("postings", {}).get("rows", 0)) > 0:
            raise RuntimeError(
                "segments stage incomplete but the postings spill directory is "
                "missing — it is only removed after a fully-recorded build "
                "(cfg.cleanup_spills); rebuild without resume"
            )
        groups = []
    else:
        groups = sorted(
            int(d.split("=", 1)[1])
            for d in os.listdir(postings_dir)
            if d.startswith("grp=")
        )
    seg_rows = (
        rd.from_items([{"grp": g} for g in groups], override_num_blocks=max(len(groups), 1))
        .map_batches(
            make_merge_group(index_dir, cfg, postings_dir, done_ids),
            batch_format="pyarrow",
            batch_size=None,
        )
        .take_all()
    )
    for r in seg_rows:
        seg_done[str(int(r["shard"]))] = {
            "n_terms": int(r["n_terms"]),
            "n_postings": int(r["n_postings"]),
            "bytes": int(r["bytes"]),
            "sha256": r["sha256"],
            "extra": r.get("extra", ""),
        }
    stages["segments"] = {
        "sec": round(time.time() - t0, 3) + stages.get("segments", {}).get("sec", 0.0),
        "shards": seg_done,
    }
    manifest["n_docs"] = n_docs
    atomic_write_json(_manifest_path(index_dir), manifest)

    # ---- stats.json from the doclen-bucket manifest rows ---------------------
    totals = {f: 0 for f in FIELDS}
    for k, v in seg_done.items():
        if int(k) < 0 and v.get("extra"):
            for f, t in json.loads(v["extra"]).items():
                totals[f] = totals.get(f, 0) + int(t)
    from ..config import FORMAT_VERSION

    stats = {
        "format_version": FORMAT_VERSION,
        "n_docs": n_docs,
        "fields": {
            f: {"total_len": totals.get(f, 0), "avgdl": (totals.get(f, 0) / n_docs) if n_docs else 0.0}
            for f in FIELDS
        },
        "hot_terms": hot_terms,
        "salt_range": cfg.salt_range,
        "num_term_shards": cfg.num_term_shards,
        "num_doc_parts": cfg.num_doc_parts,
        "part_offsets": offsets,
        "k1": cfg.k1,
        "b": cfg.b,
        "now_ts": cfg.now_ts,
    }
    atomic_write_json(os.path.join(index_dir, "stats.json"), stats)

    # Exchange scratch is dead once every stage is recorded complete:
    # queries read only docstore/ + payload/ + segments/ + doclens/, and
    # a resume of a COMPLETE build skips every stage without touching
    # spills.  At 100 TB leaving these would double the index footprint
    # (postings spill ~= segment bytes; docmeta spill ~= docstore).
    if cfg.cleanup_spills:
        for sub in ("postings", "docmeta", "payload_dfsample", "ordmap", "ordmap_spill"):
            shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)

    n_postings = sum(v["n_postings"] for v in seg_done.values())
    return BuildResult(index_dir=index_dir, n_docs=n_docs, n_postings=n_postings, manifest=manifest)


def _sample_df_partial(batch: pa.Table, limit_threads: bool = True) -> pa.Table:
    """Per-batch partial df counts over the pre-spilled doc sample
    (1/df_sample_mod by doc_id hash, written during stage A).
    ``limit_threads=False`` on the driver-side path — clamping there
    would cap the driver's Arrow pool for the whole process."""
    if limit_threads:
        limit_worker_threads()
    keep = batch
    if keep.num_rows == 0:
        return pa.table({"term": pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())})
    parents, _pos, terms, _n = flat_tokens(keep["content"])
    t = pa.table({"term": terms, "parent": pa.array(parents)})
    per_doc = t.group_by(["term", "parent"]).aggregate([])
    agg = per_doc.group_by("term").aggregate([("parent", "count")])
    return pa.table({"term": agg["term"], "n": agg["parent_count"].cast(pa.int64())})
