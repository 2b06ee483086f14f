"""Posting construction: tokenize stage, term sharding, spill exchange, merge.

Stage B (SPIMI analog of the reference's ES bulk indexing,
app/jobs/chainquery/chainquery.go:94 + ES-internal analysis): a
stateful tokenize stage (per-worker memoized state on plain tasks) turns
each payload file into flat posting rows
``(field, term, ordinal, tf, pos_blob, shard)`` and spills them map-side
into one content-addressed zstd-1 parquet per shard GROUP (``grp = shard
mod cfg.shard_groups``) — the explicit, disk-partitioned half of the
exchange.  Every per-batch step is vectorized (pyarrow RE2
kernels + numpy); positions are delta+varbyte encoded per (doc, term)
already at this stage, so the merge just concatenates blobs.  The unit
of work and of RESUME is one payload file (spill rows stream back to
the builder, which checkpoints completed files incrementally).

Doc-length rows ride along in the same output with ``term=''`` (the
empty term can never be produced by the tokenizer) and ``shard=-1`` —
a document's content lives in exactly one input row, so its doclen is
exact per batch, and no extra tokenize or shuffle pass is needed.

Stage D (the reduce half): one task per shard group reads its own
spill files, slices them into per-shard runs, sorts each shard by
(field, term, ordinal) via integer lexsort over dictionary ranks,
run-length-groups rows into per-term posting lists, delta+varbyte-
compresses ordinals/tfs, builds block-max metadata (last ordinal + max
tf per 128-posting block), and writes one atomic parquet segment per
shard.  No all-to-all shuffle exists in the build.

Hot-term skew (SURVEY.md §4): terms whose sampled df exceeds
``hot_df_ratio * N`` are salted — their postings are split by ordinal
range (``salt_range`` docs per bucket) and each bucket is routed to
``stable_hash64(f"{term}#{bucket}") % S``.  The reader reconstructs the
full list by concatenating buckets in order (ranges are disjoint and
increasing, so no re-sort).  The hot set is stored in stats.json.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import flat_tokens
from ..codecs import (
    position_gaps,
    varbyte_encode,
    varbyte_sizes,
)
from ..config import FIELDS, IndexConfig
from ..util import atomic_write_bytes, limit_worker_threads, spill_runs, stable_hash64
from .docs import spill_manifest

# doc-store column feeding each indexed field
FIELD_SOURCE = {"name": "name", "title": "path", "channel": "repo", "content": "content"}

POSTINGS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("ordinal", pa.int64()),
        ("tf", pa.int32()),
        ("pos_blob", pa.large_binary()),
        ("shard", pa.int32()),
    ]
)


class TokenizerStage:
    """Tokenize stage state: part offsets, hot set, salt memos — built
    once per worker (memoized in ``_TASK_STAGE``), per-file work in
    ``tokenize_file_task``.

    Consumes payload files in their own order (content never shuffled).
    Ordinal state is NOT broadcast: each task reads only its own payload
    file's ordmap sidecars (written by the stage-A finalize tasks, bytes
    O(that file's rows)) and assigns ``ordinal = offsets[part] + rank``
    by row position.  The only shared state is the per-partition offset
    array (``num_doc_parts`` int64s) and the hot-term list — both O(1)
    in corpus size."""

    def __init__(self, offsets, ordmap_dir: str, hot_terms: list[str], cfg_json: dict, spill_dir: str):
        limit_worker_threads()
        self.cfg = IndexConfig.from_json(cfg_json)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.ordmap_dir = ordmap_dir
        self.hot = set(hot_terms)
        self.spill_dir = spill_dir
        self._shard_memo: dict[str, int] = {}
        self._salt_memo: dict[tuple[str, int], int] = {}

    def _term_shard(self, term: str) -> int:
        s = self._shard_memo.get(term)
        if s is None:
            s = stable_hash64(term) % self.cfg.num_term_shards
            self._shard_memo[term] = s
        return s

    def _salt_shard(self, term: str, bucket: int) -> int:
        key = (term, bucket)
        s = self._salt_memo.get(key)
        if s is None:
            s = stable_hash64(f"{term}#{bucket}") % self.cfg.num_term_shards
            self._salt_memo[key] = s
        return s

    def postings_table(self, batch: pa.Table, ordinals: np.ndarray) -> pa.Table:
        """Flat posting rows for one batch (no spill).  ``ordinals`` is
        aligned to the batch rows; -1 marks dedup losers / delete-routed
        docs (from the ordmap sidecar of the batch's payload file)."""
        keep = ordinals >= 0
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            ordinals = ordinals[keep]
        pieces = [self._field_postings(batch, f, ordinals) for f in FIELDS]
        pieces.append(self._doclen_rows(pieces))
        return pa.concat_tables([p for p in pieces if p is not None])

    def _spill(self, t: pa.Table) -> pa.Table:
        """Map-side exchange: split this batch's postings by shard group
        and write one content-addressed spill per non-empty group
        (idempotent under task retries: file name = hash of bytes).
        Returns the spill-manifest rows (lineage for the build manifest)."""
        grp = shard_group(t["shard"].to_numpy(zero_copy_only=False), self.cfg.shard_groups)
        runs = spill_runs(
            t, grp,
            lambda g, sha: os.path.join(self.spill_dir, f"grp={g}", f"{sha[:24]}.parquet"),
        )
        return spill_manifest(runs, "grp")

    # -- per-field vectorized posting construction ------------------------

    def _field_postings(self, batch: pa.Table, field: str, ordinals: np.ndarray):
        col = batch[FIELD_SOURCE[field]]
        parents, pos, terms, _n = flat_tokens(col)
        if len(parents) == 0:
            return pa.table(
                {k: pa.array([], type=t) for k, t in zip(POSTINGS_SCHEMA.names, POSTINGS_SCHEMA.types)}
            )
        ords = ordinals[parents]
        tcodes_arr = terms.dictionary_encode()
        tcodes = tcodes_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq_terms = tcodes_arr.dictionary.to_pylist()

        order = np.lexsort((pos, tcodes, ords))
        ords_s, tcodes_s, pos_s = ords[order], tcodes[order], pos[order]

        # run boundaries: change of (ordinal, term)
        change = np.empty(len(ords_s), dtype=bool)
        change[0] = True
        np.logical_or(
            ords_s[1:] != ords_s[:-1], tcodes_s[1:] != tcodes_s[:-1], out=change[1:]
        )
        starts = np.flatnonzero(change)
        tfs = np.diff(np.append(starts, len(ords_s))).astype(np.int64)

        run_ords = ords_s[starts]
        run_codes = tcodes_s[starts]

        # encode all positions in one shot; slice per run via byte offsets
        gaps = position_gaps(pos_s.astype(np.uint64), tfs)
        blob = varbyte_encode(gaps)
        nb = varbyte_sizes(gaps)
        byte_ends = np.cumsum(nb)
        run_byte_offsets = np.zeros(len(starts) + 1, dtype=np.int64)
        run_byte_offsets[1:] = byte_ends[np.append(starts[1:], len(nb)) - 1]
        pos_col = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            len(starts),
            [None, pa.py_buffer(run_byte_offsets.tobytes()), pa.py_buffer(blob)],
        )

        # shard per run (salt hot terms by ordinal range)
        base_shard = np.empty(len(uniq_terms), dtype=np.int32)
        hot_mask_code = np.zeros(len(uniq_terms), dtype=bool)
        for c, t in enumerate(uniq_terms):
            base_shard[c] = self._term_shard(t)
            if t in self.hot:
                hot_mask_code[c] = True
        shard = base_shard[run_codes]
        hot_runs = np.flatnonzero(hot_mask_code[run_codes])
        if len(hot_runs):
            # salted postings are stored under a distinct key
            # "term\x01bucket" so two buckets landing in the same shard
            # stay separate rows (the reader re-concatenates by bucket).
            # Python string work happens only on the UNIQUE (term, bucket)
            # pairs (hot_terms x ~corpus/salt_range buckets, i.e. a few
            # thousand); the per-run expansion is all numpy/Arrow — the
            # old per-hot-run loop + full Python term-list rebuild cost
            # ~0.3 s per 10k-doc batch.
            buckets = (run_ords[hot_runs] // self.cfg.salt_range).astype(np.uint64)
            if buckets.size and int(buckets.max()) >= 1 << 32:
                # (code << 32 | bucket) packing would alias buckets; with
                # salt_range >= 4096 this needs ~10^13 doc ordinals
                raise ValueError("salt bucket exceeds 32 bits; raise cfg.salt_range")
            shard = shard.copy()
            hot_codes = run_codes[hot_runs].astype(np.uint64)
            pair_key = (hot_codes << np.uint64(32)) | buckets
            uniq_pairs, inv = np.unique(pair_key, return_inverse=True)
            u_codes = (uniq_pairs >> np.uint64(32)).astype(np.int64)
            u_buckets = (uniq_pairs & np.uint64(0xFFFFFFFF)).astype(np.int64)
            u_shard = np.empty(len(uniq_pairs), dtype=np.int32)
            salted_strs = [""] * len(uniq_pairs)
            for j in range(len(uniq_pairs)):
                t = uniq_terms[u_codes[j]]
                b = int(u_buckets[j])
                u_shard[j] = self._salt_shard(t, b)
                salted_strs[j] = f"{t}\x01{b}"
            shard[hot_runs] = u_shard[inv]
            # salted strings become extra dictionary entries; one take
            # over the widened dictionary builds the whole term column
            codes_final = run_codes.copy()
            codes_final[hot_runs] = len(uniq_terms) + inv
            term_col = pc.take(
                pa.array(uniq_terms + salted_strs, type=pa.string()), pa.array(codes_final)
            )
        else:
            term_col = pc.take(pa.array(uniq_terms, type=pa.string()), pa.array(run_codes))
        return pa.table(
            {
                "field": pa.array([field] * len(starts), type=pa.string()),
                "term": term_col,
                "ordinal": pa.array(run_ords, type=pa.int64()),
                "tf": pa.array(tfs.astype(np.int32)),
                "pos_blob": pos_col,
                "shard": pa.array(shard, type=pa.int32()),
            }
        )

    def _doclen_rows(self, field_tables: list[pa.Table]):
        """One row per (field, doc): term='', tf=doclen.  Routed to a
        negative shard bucketed by ordinal range, so doclens are merged
        (into small doclens/ files) in the same shuffle pass as postings."""
        outs = []
        for ft in field_tables:
            if ft is None or ft.num_rows == 0:
                continue
            agg = (
                ft.select(["field", "ordinal", "tf"])
                .group_by(["field", "ordinal"])
                .aggregate([("tf", "sum")])
            )
            n = agg.num_rows
            ords = agg["ordinal"].to_numpy(zero_copy_only=False)
            shard = (-1 - (ords >> self.cfg.dl_shift)).astype(np.int32)
            outs.append(
                pa.table(
                    {
                        "field": agg["field"],
                        "term": pa.array([""] * n, type=pa.string()),
                        "ordinal": agg["ordinal"],
                        "tf": agg["tf_sum"].cast(pa.int32()),
                        "pos_blob": pa.array([b""] * n, type=pa.large_binary()),
                        "shard": pa.array(shard),
                    }
                )
            )
        return pa.concat_tables(outs) if outs else None


# Worker-global stage memo for the tokenize tasks: Ray Data tasks run on
# prewarmed worker processes, so building the stage once per worker
# (keyed by the ordmap/spill dirs) gives actor-pool state semantics with
# zero pool-ramp cost.  The stage state is a few scalars and the shard
# memos, so no actor pool is needed.
_TASK_STAGE: dict[str, TokenizerStage] = {}


SPILL_ROW_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("grp", pa.int32()),
        ("file", pa.string()),
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("sha256", pa.string()),
    ]
)


def tokenize_file_task(
    batch: pa.Table, *, payload_dir, offsets, ordmap_dir, hot_terms, cfg_json, spill_dir
) -> pa.Table:
    """Stage B unit of work and of RESUME: one payload file per task.
    Reads the file directly (no object-store pass), assigns ordinals
    from the file's own ordmap sidecars, tokenizes in slices of
    tokenize_batch_size, spills per-group posting files, and returns the
    spill-manifest rows tagged with the source file — the builder
    records completed source files incrementally, so a killed build
    re-runs only unfinished files (spill writes are content-addressed,
    hence idempotent)."""
    import json as _json

    from .docs import file_ordinals

    # key includes the full cfg: a resume may re-run with a different
    # cfg.extra (the test fault-injection list ``fail_files``) on the same
    # dirs and must not reuse a stage memoized from the previous attempt
    key = f"{ordmap_dir}|{spill_dir}|{_json.dumps(cfg_json, sort_keys=True, default=str)}|{sorted(hot_terms)}"
    st = _TASK_STAGE.get(key)
    if st is None:
        _TASK_STAGE.clear()
        st = TokenizerStage(
            offsets=offsets, ordmap_dir=ordmap_dir, hot_terms=hot_terms,
            cfg_json=cfg_json, spill_dir=spill_dir,
        )
        _TASK_STAGE[key] = st
    fail = set(st.cfg.extra.get("fail_files", ()))
    outs = []
    for fname in batch["file"].to_pylist():
        if fname in fail:  # test-only fault injection (kill-mid-stage tests)
            import time as _time

            _time.sleep(1.0)  # let concurrent tasks complete and stream back
            raise RuntimeError(f"injected failure at {fname}")
        t = pq.read_table(
            os.path.join(payload_dir, fname),
            columns=["repo", "path", "name", "content"],
        )
        ords = file_ordinals(ordmap_dir, fname, t.num_rows, st.offsets)
        bs = st.cfg.tokenize_batch_size
        # tokenize in batch-size slices (bounds the working set for
        # MB-scale payloads) but spill ONCE per (file, group) — one file
        # per group per task keeps spill-file counts linear in payload
        # files, not in batches
        parts = [
            st.postings_table(t.slice(s, bs), ords[s : s + bs])
            for s in range(0, t.num_rows, bs)
        ]
        parts = [p for p in parts if p.num_rows]
        if parts:
            rows = st._spill(pa.concat_tables(parts))
            if rows.num_rows:
                outs.append(
                    rows.add_column(0, "src", pa.array([fname] * rows.num_rows, type=pa.string()))
                )
        if not outs or outs[-1]["src"][-1].as_py() != fname:
            # file produced no postings: still record completion
            outs.append(
                pa.table(
                    {
                        "src": pa.array([fname], type=pa.string()),
                        "grp": pa.array([-1], type=pa.int32()),
                        "file": pa.array([""], type=pa.string()),
                        "rows": pa.array([0], type=pa.int64()),
                        "bytes": pa.array([0], type=pa.int64()),
                        "sha256": pa.array([""], type=pa.string()),
                    }
                )
            )
    if not outs:
        return SPILL_ROW_SCHEMA.empty_table()
    return pa.concat_tables(outs).cast(SPILL_ROW_SCHEMA)


# ---------------------------------------------------------------------------
# Stage D: shard merge
# ---------------------------------------------------------------------------

SEGMENT_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("ords", pa.large_binary()),
        ("tfs", pa.large_binary()),
        ("pos", pa.large_binary()),
        # block-max metadata: written for a block-skipping traversal,
        # not decoded by any reader yet
        ("blk_last", pa.large_binary()),   # uint64 LE per block: last ordinal
        ("blk_maxtf", pa.large_binary()),  # uint32 LE per block: max tf
    ]
)


def shard_group(shard, num_groups: int):
    """Shard -> exchange group (negative doclen shards wrap)."""
    return ((shard % num_groups) + num_groups) % num_groups


def merge_shard_table(group: pa.Table, shard: int, index_dir: str, cfg: IndexConfig) -> pa.Table:
    """Merge one shard's posting rows into a compressed segment file
    (or a doclens bucket for negative shards); returns the manifest row."""
    block = cfg.block_size
    if shard < 0:
        return _merge_doclen_bucket(group, shard, index_dir)
    # sort by (field, term, ordinal) without a full-table string sort:
    # rank only the UNIQUE dictionary values lexicographically, then
    # integer-lexsort the rows.  Terms repeat heavily (df >> 1), so this
    # sorts ~n/df strings instead of n.  merge_group reads both columns
    # as parquet dictionary columns; combine_chunks unifies the per-file
    # dictionaries, and the ranks are invariant to dictionary code order.
    f_dict_arr = group["field"].combine_chunks()
    t_dict_arr = group["term"].combine_chunks()
    fcodes_u = f_dict_arr.indices.to_numpy(zero_copy_only=False)
    tcodes_u = t_dict_arr.indices.to_numpy(zero_copy_only=False)
    f_vals = f_dict_arr.dictionary
    t_vals = t_dict_arr.dictionary
    f_order = pc.sort_indices(f_vals).to_numpy(zero_copy_only=False)
    t_order = pc.sort_indices(t_vals).to_numpy(zero_copy_only=False)
    f_rank = np.empty(len(f_vals), dtype=np.int64)
    f_rank[f_order] = np.arange(len(f_vals))
    t_rank = np.empty(len(t_vals), dtype=np.int64)
    t_rank[t_order] = np.arange(len(t_vals))
    ords_raw = group["ordinal"].to_numpy(zero_copy_only=False)
    perm = np.lexsort((ords_raw, t_rank[tcodes_u], f_rank[fcodes_u]))

    ords = ords_raw[perm].astype(np.uint64)
    tfs = group["tf"].to_numpy(zero_copy_only=False)[perm].astype(np.uint64)

    n = len(ords)
    fcodes = fcodes_u[perm]
    tcodes = tcodes_u[perm]
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.logical_or(fcodes[1:] != fcodes[:-1], tcodes[1:] != tcodes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    lens = ends - starts
    n_runs = len(starts)
    run_ends_m1 = ends - 1

    # delta-gap ALL ordinals in one pass (reset to absolute at each run
    # start), varbyte-encode once, slice per run by byte offsets
    gaps = np.empty_like(ords)
    gaps[0] = ords[0]
    np.subtract(ords[1:], ords[:-1], out=gaps[1:])
    gaps[starts] = ords[starts]
    ords_buf = varbyte_encode(gaps)
    ords_nb = np.cumsum(varbyte_sizes(gaps))
    ords_offs = np.zeros(n_runs + 1, dtype=np.int64)
    ords_offs[1:] = ords_nb[run_ends_m1]

    tfs_buf = varbyte_encode(tfs)
    tfs_nb = np.cumsum(varbyte_sizes(tfs))
    tfs_offs = np.zeros(n_runs + 1, dtype=np.int64)
    tfs_offs[1:] = tfs_nb[run_ends_m1]

    # positions: rows are contiguous after take -> per-run bytes are a
    # contiguous slice of the binary column's data buffer
    pos_col_in = pc.take(group["pos_blob"].combine_chunks(), pa.array(perm))
    off_dtype = np.int64 if pa.types.is_large_binary(pos_col_in.type) else np.int32
    pos_in_offs = np.frombuffer(pos_col_in.buffers()[1], dtype=off_dtype)[
        pos_col_in.offset : pos_col_in.offset + n + 1
    ].astype(np.int64)
    pos_buf = pos_col_in.buffers()[2]
    pos_offs = pos_in_offs[np.append(starts, n)]
    base = int(pos_in_offs[0])
    pos_offs = pos_offs - base

    # block-max metadata — fully vectorized over BLOCKS (the old
    # per-run Python loop was ~0.7 s per 2M-posting shard): block
    # starts partition the sorted posting array exactly (each run's
    # last block ends where the next run begins), so one reduceat
    # gives every block's max tf and one gather every block's last
    # ordinal.
    df64 = lens.astype(np.int64)
    cf = np.add.reduceat(tfs.astype(np.int64), starts)
    n_blocks = (df64 + block - 1) // block
    blk_offs = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(n_blocks, out=blk_offs[1:])
    total_blocks = int(blk_offs[-1])
    run_of_block = np.repeat(np.arange(n_runs, dtype=np.int64), n_blocks)
    blk_in_run = np.arange(total_blocks, dtype=np.int64) - blk_offs[run_of_block]
    block_starts = starts[run_of_block] + blk_in_run * block
    block_ends = np.append(block_starts[1:], n) - 1
    blk_last_flat = np.ascontiguousarray(ords[block_ends], dtype=np.uint64)
    blk_maxtf_flat = np.maximum.reduceat(tfs, block_starts).astype(np.uint32)

    def bin_col(offsets_elems: np.ndarray, buf, elem_size: int = 1) -> pa.Array:
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            n_runs,
            [None, pa.py_buffer((offsets_elems * elem_size).astype(np.int64).tobytes()), buf],
        )

    n_postings = int(n)
    seg = pa.table(
        {
            "field": pc.take(f_vals, pa.array(fcodes[starts])),
            "term": pc.take(t_vals, pa.array(tcodes[starts])),
            "df": pa.array(df64),
            "cf": pa.array(cf),
            "ords": bin_col(ords_offs, pa.py_buffer(ords_buf)),
            "tfs": bin_col(tfs_offs, pa.py_buffer(tfs_buf)),
            "pos": bin_col(pos_offs, pos_buf.slice(base, int(pos_offs[-1]))),
            "blk_last": bin_col(blk_offs, pa.py_buffer(blk_last_flat.tobytes()), 8),
            "blk_maxtf": bin_col(blk_offs, pa.py_buffer(blk_maxtf_flat.tobytes()), 4),
        }
    ).cast(SEGMENT_SCHEMA)
    # single-chunk before writing: parquet row-group boundaries follow
    # table chunking, which depends on upstream block layout — combine
    # so segment bytes are a pure function of the logical rows
    seg = seg.combine_chunks()
    sink = pa.BufferOutputStream()
    pq.write_table(seg, sink, compression="zstd")
    data = sink.getvalue().to_pybytes()
    atomic_write_bytes(os.path.join(index_dir, "segments", f"shard-{shard:05d}.parquet"), data)

    # dictionary sidecar: the distinct (field, base-term) pairs of this
    # shard, written by the same merge task (the terms are already in
    # hand — no extra pass).  Readers build per-field vocabularies
    # (prefix expansion, fuzzy candidates) from dict/ alone instead of
    # scanning the term column of EVERY segment shard, which at 878k
    # docs cost ~10 s of cold disk per field and grows with the corpus.
    dict_t = pc.take(t_vals, pa.array(tcodes[starts]))
    # de-salt hot-term variants ("term\x01bucket" -> "term"); the
    # tokenizer emits [a-z0-9]+ only, so \x01 is unambiguous
    dict_t = pc.replace_substring_regex(dict_t, "\x01.*$", "")
    dict_tbl = pa.table(
        {
            "field": pc.take(f_vals, pa.array(fcodes[starts])).cast(pa.string()),
            "term": dict_t.cast(pa.string()),
        }
    )
    dict_tbl = dict_tbl.group_by(["field", "term"]).aggregate([])
    dict_tbl = dict_tbl.take(
        pc.sort_indices(
            dict_tbl, sort_keys=[("field", "ascending"), ("term", "ascending")]
        )
    ).combine_chunks()
    dsink = pa.BufferOutputStream()
    pq.write_table(dict_tbl, dsink, compression="zstd")
    os.makedirs(os.path.join(index_dir, "dict"), exist_ok=True)
    atomic_write_bytes(
        os.path.join(index_dir, "dict", f"shard-{shard:05d}.parquet"),
        dsink.getvalue().to_pybytes(),
    )
    return pa.table(
        {
            "shard": pa.array([shard], type=pa.int32()),
            "n_terms": pa.array([len(starts)], type=pa.int64()),
            "n_postings": pa.array([n_postings], type=pa.int64()),
            "bytes": pa.array([len(data)], type=pa.int64()),
            "sha256": pa.array([hashlib.sha256(data).hexdigest()], type=pa.string()),
            "extra": pa.array([""], type=pa.string()),
        }
    )


MERGE_ROW_SCHEMA = pa.schema(
    [
        ("shard", pa.int32()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("bytes", pa.int64()),
        ("sha256", pa.string()),
        ("extra", pa.string()),
    ]
)


def make_merge_group(index_dir: str, cfg: IndexConfig, spill_dir: str, done_shards: set[int]):
    """Spill exchange, reduce side: one task per shard group.  Reads the
    group's spill files (written map-side by the tokenize stage), slices
    them into per-shard runs and merges each shard with
    merge_shard_table."""

    done = set(done_shards)

    def merge_group(batch: pa.Table) -> pa.Table:
        limit_worker_threads()

        outs = []
        for g in batch["grp"].to_pylist():
            gdir = os.path.join(spill_dir, f"grp={int(g)}")
            if not os.path.isdir(gdir):
                continue
            # read field/term as parquet dictionary columns: skips the
            # string materialization on read and any dictionary_encode in
            # merge_shard_table (~90 ms per 2M-posting group, twice)
            t = pq.read_table(
                gdir,
                columns=["field", "term", "ordinal", "tf", "pos_blob", "shard"],
                read_dictionary=["field", "term"],
            )
            if t.num_rows == 0:
                continue
            shards = t["shard"].to_numpy(zero_copy_only=False)
            # With shards-per-group == 1 (the default layout) the spill is
            # trivially shard-sorted; skip the sort+take copy (~8% of the
            # merge task) unless the column actually descends somewhere.
            if shards.size > 1 and np.any(shards[1:] < shards[:-1]):
                idx = pc.sort_indices(t.select(["shard"]), sort_keys=[("shard", "ascending")])
                t = t.take(idx)
                shards = t["shard"].to_numpy(zero_copy_only=False)
            n = len(shards)
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.not_equal(shards[1:], shards[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], n)
            for s, e in zip(starts, ends):
                sh = int(shards[s])
                if sh in done:
                    continue
                outs.append(
                    merge_shard_table(t.slice(s, e - s).combine_chunks(), sh, index_dir, cfg)
                )
        if not outs:
            return MERGE_ROW_SCHEMA.empty_table()
        return pa.concat_tables(outs)

    return merge_group


def _merge_doclen_bucket(group: pa.Table, shard: int, index_dir: str) -> pa.Table:
    """Negative shard = doclen bucket: write a sorted doclens file and
    report per-field length totals (for avgdl) in the manifest row."""
    import json

    # decode the dictionary-typed field column (from the dictionary-
    # preserving spill read) BEFORE sorting/writing: the bucket file
    # stores plain strings
    i = group.column_names.index("field")
    group = group.set_column(i, "field", group["field"].cast(pa.string()))
    g = group.take(
        pc.sort_indices(group, sort_keys=[("field", "ascending"), ("ordinal", "ascending")])
    )
    out = pa.table({"field": g["field"], "ordinal": g["ordinal"], "dl": g["tf"]}).combine_chunks()
    sink = pa.BufferOutputStream()
    pq.write_table(out, sink, compression="zstd")
    data = sink.getvalue().to_pybytes()
    bucket = -1 - shard
    atomic_write_bytes(os.path.join(index_dir, "doclens", f"bucket-{bucket:05d}.parquet"), data)
    totals = (
        out.select(["field", "dl"]).group_by("field").aggregate([("dl", "sum")])
    )
    extra = json.dumps(
        dict(zip(totals["field"].to_pylist(), [int(x) for x in totals["dl_sum"].to_pylist()]))
    )
    return pa.table(
        {
            "shard": pa.array([shard], type=pa.int32()),
            "n_terms": pa.array([0], type=pa.int64()),
            "n_postings": pa.array([out.num_rows], type=pa.int64()),
            "bytes": pa.array([len(data)], type=pa.int64()),
            "sha256": pa.array([hashlib.sha256(data).hexdigest()], type=pa.string()),
            "extra": pa.array([extra], type=pa.string()),
        }
    )
