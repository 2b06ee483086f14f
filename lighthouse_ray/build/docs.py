"""Document identity, derived fields, doc-values, ordinals, doc-store.

Pipeline stage A (SURVEY.md §7.1): ``read_parquet(corpus)`` →
``map_batches(derive)`` spilling payload + per-part metadata map-side →
one ``finalize_part`` task per partition over its own spill files.

- doc identity: ``doc_id = sha1(repo \\0 path \\0 commit)`` (the claimId
  analog, reference app/model/claim.go:24,143); logical upsert key is
  ``(repo, path)`` — the same file at a newer commit replaces the older
  row (last-write-wins upsert by ``_id``, claim.go:142-157; winner =
  lexicographically greatest commit, a deterministic tie-break).
- delete routing: synthesized ``bid_state ∈ {Spent, Expired}`` rows are
  dropped from the index and counted (chainquery.go:127-132).
- **deterministic dense ordinals** at any parallelism: a document's
  partition is ``stable_hash64(repo+path) % num_doc_parts`` (content-
  addressed), documents are ranked by ``doc_id`` *within* their
  partition, and the global ordinal is ``part_offset[part] + rank``
  where the offsets come from the per-partition counts recorded in the
  manifest.  Nothing depends on block arrival order or CPU count.
- **ordinal sidecars instead of a broadcast map**: each finalize task
  spills its winner rows' ``(payload_file, payload_row, rank)`` per
  payload-file GROUP (``ordmap_spill/grp={g}/part-{p}.parquet``); the
  ordmap-compact stage then merges each group into ONE
  ``ordmap/<stem>.parquet`` sidecar per payload file.  The tokenize
  stage for payload file F reads exactly one file (bytes O(F's rows))
  and assigns ``ordinal = offsets[part] + rank`` by row position — no
  whole-corpus id→ordinal state exists anywhere, on the driver or in
  workers, at any corpus size, and file operations are O(P x G + F),
  never F x P.
- per-row invariant: ``content_sha256`` computed at ingest and stored in
  the doc-store; a per-partition digest over the sorted row hashes goes
  into the manifest (lineage; BASELINE.json input_hint).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig
from ..util import atomic_write_bytes, limit_worker_threads, spill_bytes, spill_runs

# five-year release_time window ending at the frozen "now" (FIXTURES.md §1)
_RELEASE_LO = 1_609_459_200  # 2021-01-01
_RELEASE_SPAN = 157_766_400  # ~5 years

BID_STATES = ("Controlling", "Accepted", "Spent", "Expired")


def derive_batch(
    batch: pa.Table,
    cfg: IndexConfig,
    payload_dir: str | None = None,
    meta_spill_dir: str | None = None,
) -> pa.Table:
    """Identity + derived fields + synthetic doc-values for one Arrow batch.

    String hashing (sha1/sha256) is inherently per-row; everything
    derivable from the 64-bit id hash is vectorized with numpy.

    When ``payload_dir`` is given, the heavy ``content`` column is spilled
    map-side to a content-addressed payload parquet (doc_id, repo, path,
    name, content) and only ~150 B/row of metadata (plus payload
    file/row pointers) continues into the partitioning shuffle — at scale
    the shuffle moves keys, never document payloads.
    """
    limit_worker_threads()
    repo = batch["repo"].to_pylist()
    path = batch["path"].to_pylist()
    commit = batch["commit"].to_pylist()
    content = batch["content"]

    n = len(repo)
    doc_id = [None] * n
    key_h = np.empty(n, dtype=np.uint64)
    _sha1 = hashlib.sha1
    for i in range(n):
        kb = f"{repo[i]}\0{path[i]}".encode()
        doc_id[i] = _sha1(kb + b"\0" + commit[i].encode()).hexdigest()
        key_h[i] = int.from_bytes(_sha1(kb).digest()[:8], "big")
    doc_id_arr = pa.array(doc_id, type=pa.string())
    h64 = hex_prefix_u64(doc_id_arr)

    content_sha = [hashlib.sha256(c.encode()).hexdigest() for c in content.to_pylist()]

    part = (key_h % np.uint64(cfg.num_doc_parts)).astype(np.int32)

    # synthetic scoring doc-values, pure function of doc_id
    # (analogs of claim.go:28-53 fields; FIXTURES.md §1)
    eff = (h64 % np.uint64(10**9)).astype(np.int64)
    cert = ((h64 >> np.uint64(7)) % np.uint64(10**8)).astype(np.int64)
    view = ((h64 >> np.uint64(13)) % np.uint64(10**6)).astype(np.int64)
    sub = ((h64 >> np.uint64(17)) % np.uint64(10**5)).astype(np.int64)
    claim_cnt = ((h64 >> np.uint64(21)) % np.uint64(500)).astype(np.int64)
    fee = np.where(h64 % np.uint64(3) == 0, ((h64 >> np.uint64(23)) % np.uint64(100)).astype(np.int64), 0)
    hb = h64 % np.uint64(20)
    bid = np.full(n, 1, dtype=np.int8)                  # Accepted
    bid[(h64 % np.uint64(3) == 0).nonzero()[0]] = 0     # Controlling
    bid[hb == 18] = 2                                    # Spent
    bid[hb == 19] = 3                                    # Expired
    has_thumb = (h64 % np.uint64(4) != 0)
    nsfw = (h64 % np.uint64(50) == 0)
    release = (np.uint64(_RELEASE_LO) + (h64 >> np.uint64(3)) % np.uint64(_RELEASE_SPAN)).astype(np.int64)

    name = pc.replace_substring_regex(batch["path"], pattern="^.*/", replacement="")

    # claim_type analog (query.go:16-19 stream/channel): a repo-root README
    # acts as the repo's "channel" document; everything else is a "stream".
    is_channel = pc.match_substring_regex(batch["path"], "^README\\.").to_numpy(
        zero_copy_only=False
    )
    kind = np.where(is_channel, "channel", "stream")
    _repo_sha: dict[str, str] = {}
    channel_claim_id = [
        _repo_sha.get(r) or _repo_sha.setdefault(r, hashlib.sha1(r.encode()).hexdigest())
        for r in repo
    ]
    # content_type analog: a MIME-ish string so prefix filters
    # (query.go:320-334 `content_type.keyword` starts-with) are exercised
    lang_list = batch["lang"].to_pylist()
    mime = [("text/" + l) if l == "md" else ("application/" + l) for l in lang_list]

    cols = {
        "doc_id": doc_id_arr,
        "repo": batch["repo"],
        "path": batch["path"],
        "commit": batch["commit"],
        "lang": batch["lang"],
        "content_sha256": pa.array(content_sha, type=pa.string()),
        "name": name,
        "kind": pa.array(kind.tolist(), type=pa.string()),
        "channel_claim_id": pa.array(channel_claim_id, type=pa.string()),
        "mime": pa.array(mime, type=pa.string()),
        "part": pa.array(part),
        "effective_amount": pa.array(eff),
        "certificate_amount": pa.array(cert),
        "view_cnt": pa.array(view),
        "sub_cnt": pa.array(sub),
        "claim_cnt": pa.array(claim_cnt),
        "fee": pa.array(fee),
        "bid_state": pa.array(bid),
        "has_thumbnail": pa.array(has_thumb),
        "nsfw": pa.array(nsfw),
        "release_time": pa.array(release),
    }
    if payload_dir is None:
        cols["content"] = content
        return pa.table(cols)

    # content-addressed payload spill (idempotent under task retries).
    # content_sha256 rides along: the full row identity is
    # (doc_id, content_sha256) — the corpus may legally contain rows with
    # equal (repo,path,commit) but different content, and the ordinal map
    # must bind the winner row, not just the winner doc_id.
    # content-addressed over the FULL row identity (doc_id, content_sha256):
    # two retried/variant batches with identical doc_id sequences but
    # different content must land in different payload files
    fname = (
        hashlib.sha1("".join(doc_id).encode() + "".join(content_sha).encode()).hexdigest()[:20]
        + ".parquet"
    )
    payload = pa.table(
        {
            "doc_id": cols["doc_id"],
            "content_sha256": cols["content_sha256"],
            "repo": batch["repo"],
            "path": batch["path"],
            "name": name,
            "content": content,
        }
    )
    atomic_write_bytes(os.path.join(payload_dir, fname), spill_bytes(payload))

    # deterministic 1/df_sample_mod content sample, spilled alongside so the
    # hot-term estimate never re-reads the full payload (membership by
    # doc_id hash -> independent of block layout).  (payload_file,
    # payload_row) ride along so the hot-term stage can restrict the
    # sample to live winner rows via the ordmap sidecars — no broadcast.
    sample_mask = (h64 % np.uint64(cfg.df_sample_mod)) == 0
    if sample_mask.any():
        sample = pa.table(
            {
                "payload_file": pa.array([fname] * int(sample_mask.sum()), type=pa.string()),
                "payload_row": pa.array(np.flatnonzero(sample_mask).astype(np.int64)),
                "content": content.filter(pa.array(sample_mask)),
            }
        )
        atomic_write_bytes(os.path.join(payload_dir + "_dfsample", fname), spill_bytes(sample))
    cols["payload_file"] = pa.array([fname] * n, type=pa.string())
    cols["payload_row"] = pa.array(np.arange(n, dtype=np.int64))
    out = pa.table(cols)
    if meta_spill_dir is None:
        return out

    # map-side partitioning of the ~150 B/row metadata: one content-
    # addressed file per (batch, part) — the partitioning "shuffle" is a
    # partitioned spill + per-part finalize task, no all-to-all sort
    # (the same spill writer as the postings spill)
    runs = spill_runs(
        out, part, lambda p, sha: os.path.join(meta_spill_dir, f"part={p}", f"{sha[:24]}.parquet")
    )
    return spill_manifest(runs, "part")


def spill_manifest(runs: list[tuple], key_col: str) -> pa.Table:
    """Spill-manifest rows (build lineage) for :func:`spill_runs` output:
    ``(key_col, file, rows, bytes, sha256)`` per written run."""
    return pa.table(
        {
            key_col: pa.array([r[0] for r in runs], type=pa.int32()),
            "file": pa.array([os.path.basename(r[1]) for r in runs], type=pa.string()),
            "rows": pa.array([r[2] for r in runs], type=pa.int64()),
            "bytes": pa.array([r[3] for r in runs], type=pa.int64()),
            "sha256": pa.array([r[4] for r in runs], type=pa.string()),
        }
    )


def make_finalize_part(index_dir: str, cfg: IndexConfig):
    """Per-partition finalizer: dedup → delete-route → rank → write."""

    def finalize_part(group: pa.Table) -> pa.Table:
        limit_worker_threads()
        part = group["part"][0].as_py()
        n_input = group.num_rows
        # last-write-wins upsert by logical key (repo, path); ties on
        # commit (same commit id, conflicting content) break by
        # content_sha256 so the winner is deterministic at any layout.
        # All Arrow-native: the former pandas to_pandas -> sort_values ->
        # drop_duplicates -> from_pandas round-trip was ~1 s/part of
        # object-string churn and the worst bandwidth offender in the
        # docstore stage under 32-way concurrency.
        t = group.take(
            pc.sort_indices(
                group,
                sort_keys=[
                    ("repo", "ascending"),
                    ("path", "ascending"),
                    ("commit", "ascending"),
                    ("content_sha256", "ascending"),
                ],
            )
        ).combine_chunks()
        n = t.num_rows
        # keep the LAST row of each (repo, path) run (== drop_duplicates
        # keep="last"): run membership via dictionary codes, no string
        # re-compares per neighbor pair
        rc = t["repo"].combine_chunks().dictionary_encode().indices.to_numpy(zero_copy_only=False)
        pcs = t["path"].combine_chunks().dictionary_encode().indices.to_numpy(zero_copy_only=False)
        is_last = np.empty(n, dtype=bool)
        if n:
            is_last[-1] = True
            np.logical_or(rc[1:] != rc[:-1], pcs[1:] != pcs[:-1], out=is_last[:-1])
            t = t.filter(pa.array(is_last))
        # delete routing: Spent(2) / Expired(3) are not indexed.  The
        # routed WINNER keys are persisted as a `deleted_keys/` sidecar
        # (delta-sized): an incremental apply reads it to tombstone the
        # base occurrence — without it, a Spent newest version would
        # silently leave the STALE older doc live in the delta'd index
        # while a full rebuild over the same rows drops the key
        # (full-vs-incremental divergence, caught by the lifecycle bench).
        if cfg.route_deletes:
            live = pc.less(t["bid_state"], 2)
            n_deleted = t.num_rows - int(pc.sum(live).as_py() or 0)
            if n_deleted:
                dead = t.filter(pc.invert(live)).select(["repo", "path"])
                dsink = pa.BufferOutputStream()
                pq.write_table(dead, dsink, compression="zstd")
                atomic_write_bytes(
                    os.path.join(index_dir, "deleted_keys",
                                 f"part-{part:05d}.parquet"),
                    dsink.getvalue().to_pybytes(),
                )
            t = t.filter(live)
        else:
            n_deleted = 0
        # deterministic rank within partition (doc_id is sha1(repo,path,
        # commit) — unique after dedup, so single-key sort is total)
        t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])).combine_chunks()
        digest = hashlib.sha256(
            "".join(sorted(t["content_sha256"].to_pylist())).encode()
        ).hexdigest()
        out = t.append_column("rank", pa.array(np.arange(t.num_rows, dtype=np.int64)))
        # ordinal sidecars: per payload file seen in this partition, a
        # tiny (payload_row, part, rank) parquet.  This is stage B's
        # only ordinal state — each tokenize task reads only its own
        # file's sidecars, so no whole-corpus map is ever built.
        if "payload_file" in out.column_names:
            write_ordmap_sidecars(index_dir, out, part, groups=cfg.ordmap_groups)
        sink = pa.BufferOutputStream()
        pq.write_table(out, sink, compression="zstd")
        atomic_write_bytes(
            os.path.join(index_dir, "docstore", f"part-{part:05d}.parquet"),
            sink.getvalue().to_pybytes(),
        )
        return pa.table(
            {
                "part": pa.array([part], type=pa.int32()),
                "rows": pa.array([t.num_rows], type=pa.int64()),
                "input_rows": pa.array([n_input], type=pa.int64()),
                "deleted": pa.array([n_deleted], type=pa.int64()),
                "digest": pa.array([digest], type=pa.string()),
            }
        )

    return finalize_part


def hex_prefix_u64(col) -> np.ndarray:
    """Vectorized parse of the first 16 hex chars of each string to
    uint64.  Input strings are themselves cryptographic hex digests
    (sha1 doc_id / sha256 content hash), so the prefix is uniformly
    distributed — no re-hashing needed."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not isinstance(col, pa.Array):
        col = pa.array(col, type=pa.string())
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    off_dt = np.int64 if pa.types.is_large_string(col.type) else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=off_dt)[col.offset : col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    lens = np.diff(offs)
    if n and (lens == lens[0]).all():
        # fixed-width digests (sha1=40 / sha256=64): zero-copy reshape
        w = int(lens[0])
        b = data[int(offs[0]) : int(offs[0]) + n * w].reshape(n, w)[:, :16]
    else:
        idx = offs[:-1].astype(np.int64)[:, None] + np.arange(16, dtype=np.int64)[None, :]
        b = data[idx]
    # all arithmetic in uint8 (values 0..15), then pack nibble pairs and
    # view the 8 bytes per row as a big-endian u64 — ~10x less memory
    # traffic than widening to uint64 first
    d = b - np.uint8(48)
    np.subtract(d, np.uint8(39), out=d, where=(b >= np.uint8(97)))  # 'a'-'f'
    packed = np.ascontiguousarray((d[:, 0::2] << np.uint8(4)) | d[:, 1::2])
    return packed.view(">u8").ravel().astype(np.uint64)


def make_finalize_group(index_dir: str, cfg: IndexConfig, meta_dir: str):
    """Spill exchange, reduce side for stage A: one task per doc-store
    partition, reading its own metadata spill files."""
    finalize = make_finalize_part(index_dir, cfg)

    def finalize_group(batch: pa.Table) -> pa.Table:
        limit_worker_threads()
        import pyarrow.dataset as pads

        outs = []
        for p in batch["part"].to_pylist():
            pdir = os.path.join(meta_dir, f"part={int(p)}")
            if not os.path.isdir(pdir):
                continue
            t = pads.dataset(pdir).to_table()
            if t.num_rows == 0:
                continue
            # hive partitioning strips the 'part' column from the files;
            # restore it for finalize_part
            if "part" not in t.column_names:
                t = t.append_column("part", pa.array([int(p)] * t.num_rows, type=pa.int32()))
            outs.append(finalize(t))
        if not outs:
            return pa.schema(
                [
                    ("part", pa.int32()),
                    ("rows", pa.int64()),
                    ("input_rows", pa.int64()),
                    ("deleted", pa.int64()),
                    ("digest", pa.string()),
                ]
            ).empty_table()
        return pa.concat_tables(outs)

    return finalize_group


def _sidecar_path(ordmap_dir: str, payload_file: str) -> str:
    stem = payload_file[:-8] if payload_file.endswith(".parquet") else payload_file
    return os.path.join(ordmap_dir, f"{stem}.parquet")


def _ordmap_grp(payload_file: str, groups: int) -> int:
    from ..util import stable_hash64

    return stable_hash64(payload_file) % groups


def write_ordmap_sidecars(index_dir: str, out: pa.Table, part: int,
                          groups: int = 16) -> None:
    """Map half of the ordmap exchange: this partition's winner rows are
    spilled as ONE ``(payload_file, payload_row, rank)`` parquet per
    payload-file GROUP (``grp = stable_hash64(file) % groups``) under
    ``ordmap_spill/grp={g}/part-{part:05d}.parquet``.  The previous
    layout (one tiny parquet per (payload file, part)) cost F x P file
    operations — it doubled the sf0.1 build wall in per-file parquet
    overhead alone.  :func:`compact_ordmap_group` is the reduce half:
    one task per group merges its spills into one sidecar per payload
    file.  Paths are deterministic per (grp, part), so task retries
    overwrite idempotently (atomic rename)."""
    pf = out["payload_file"].combine_chunks().dictionary_encode()
    codes = pf.indices.to_numpy(zero_copy_only=False)
    files = pf.dictionary.to_pylist()
    grp = np.array([_ordmap_grp(f, groups) for f in files], dtype=np.int64)[codes]
    rows = out["payload_row"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((rows, codes, grp))
    tbl = pa.table(
        {
            "payload_file": pc.take(pa.array(files, type=pa.string()), pa.array(codes[order])),
            "payload_row": pa.array(rows[order]),
            "rank": out["rank"].take(pa.array(order)),
        }
    )
    spill_dir = os.path.join(index_dir, "ordmap_spill")
    spill_runs(
        tbl, grp[order],
        lambda g, _sha: os.path.join(spill_dir, f"grp={g}", f"part-{part:05d}.parquet"),
    )


def compact_ordmap_group(index_dir: str, grp: int) -> int:
    """Reduce half of the ordmap exchange: merge group ``grp``'s spill
    files (one per doc-store partition that touched the group) into ONE
    ``ordmap/<stem>.parquet`` sidecar per payload file, rows sorted by
    payload_row, then drop the group's spill dir.  The part id is
    recovered from each spill's filename.  Idempotent: merged writes
    are atomic and a re-run with the spill dir already deleted is a
    no-op (its sidecars are complete by construction).  Returns the
    number of sidecars written."""
    gdir = os.path.join(index_dir, "ordmap_spill", f"grp={grp}")
    if not os.path.isdir(gdir):
        return 0
    ordmap_dir = os.path.join(index_dir, "ordmap")
    pieces = []
    for f in sorted(os.listdir(gdir)):
        if not f.endswith(".parquet"):
            continue
        part = int(f[len("part-"):-len(".parquet")])
        t = pq.read_table(os.path.join(gdir, f))
        pieces.append(t.append_column(
            "part", pa.array(np.full(t.num_rows, part, dtype=np.int32))
        ))
    written = 0
    if pieces:
        t = pa.concat_tables(pieces).combine_chunks()
        pf = t["payload_file"].combine_chunks().dictionary_encode()
        codes = pf.indices.to_numpy(zero_copy_only=False)
        files = pf.dictionary.to_pylist()
        order = np.lexsort((t["payload_row"].to_numpy(zero_copy_only=False), codes))
        written = len(spill_runs(
            t.select(["payload_row", "part", "rank"]).take(pa.array(order)), codes[order],
            lambda c, _sha: _sidecar_path(ordmap_dir, files[c]),
        ))
    import shutil

    shutil.rmtree(gdir, ignore_errors=True)
    return written


def read_sidecar(ordmap_dir: str, payload_file: str):
    """(payload_row, part, rank) arrays for one payload file (winner
    rows only); empty arrays when the file produced no winners."""
    p = _sidecar_path(ordmap_dir, payload_file)
    if not os.path.exists(p):
        z = np.zeros(0, dtype=np.int64)
        return z, z.astype(np.int32), z
    t = pq.read_table(p)
    return (
        t["payload_row"].to_numpy(zero_copy_only=False),
        t["part"].to_numpy(zero_copy_only=False),
        t["rank"].to_numpy(zero_copy_only=False),
    )


def file_ordinals(ordmap_dir: str, payload_file: str, n_rows: int, offsets) -> np.ndarray:
    """Ordinals aligned to one payload file's rows; -1 for dedup losers
    and delete-routed docs.  Reads only this file's sidecars — the
    tokenize stage's entire ordinal state is O(one file's rows)."""
    pr, pt, rk = read_sidecar(ordmap_dir, payload_file)
    out = np.full(n_rows, -1, dtype=np.int64)
    if len(pr):
        out[pr] = np.asarray(offsets, dtype=np.int64)[pt] + rk
    return out


def sidecar_live_mask(ordmap_dir: str, payload_file_col, payload_row_col) -> np.ndarray:
    """Boolean mask over (payload_file, payload_row) pairs: True iff the
    row is a live winner (present in its file's sidecar).  Used by the
    hot-term sample so the hot set stays a pure function of the logical
    row set, with no broadcast state."""
    pf = payload_file_col
    if isinstance(pf, pa.ChunkedArray):
        pf = pf.combine_chunks()
    codes_arr = pf.dictionary_encode()
    codes = codes_arr.indices.to_numpy(zero_copy_only=False)
    files = codes_arr.dictionary.to_pylist()
    rows = payload_row_col.to_numpy(zero_copy_only=False)
    keep = np.zeros(len(codes), dtype=bool)
    for c, fname in enumerate(files):
        sel = codes == c
        pr, _pt, _rk = read_sidecar(ordmap_dir, fname)
        keep[sel] = np.isin(rows[sel], pr)
    return keep


def part_offsets(part_rows: dict[int, int], num_parts: int) -> list[int]:
    """Cumulative ordinal base per partition (dense, deterministic)."""
    offsets = [0] * num_parts
    acc = 0
    for p in range(num_parts):
        offsets[p] = acc
        acc += part_rows.get(p, 0)
    return offsets
