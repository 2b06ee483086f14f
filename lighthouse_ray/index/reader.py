"""Segment reader: term dictionary lookups, postings decode, doc metadata.

Serving-side analog of the reference's ES client singleton
(app/app.go:48-53, app/es/es.go:9): holds mmap-ish state (parsed shard
tables, dense doclen arrays, the doc-metadata frame) that is loaded once
and shared across queries.  In a cluster deployment each serving actor
holds a subset of shards; in-process here.

Hot (salted) terms: a hot term's posting list is split across salt
buckets of ``salt_range`` ordinals each, bucket ``b`` living in shard
``stable_hash64(f"{term}#{b}") % S`` (build side:
build/postings.py).  ``lookup`` re-concatenates the buckets in ordinal
order — ranges are disjoint and increasing so the result stays sorted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..codecs import decode_position_lists, varbyte_decode
from ..config import FIELDS
from ..util import read_json, stable_hash64


def _scatter_keep(alive: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Narrow a boolean survivor mask: ``alive`` marks positions in the
    original array, ``keep`` marks survivors among the currently-alive."""
    out = alive.copy()
    out[alive] = keep
    return out


def _popcount64(a: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR)."""
    x = a.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


_MISS = object()  # cached negative lookup


@dataclass
class Chunk:
    ords: np.ndarray        # absolute ordinals, uint64, sorted
    tfs: np.ndarray         # uint64
    pos_blob: bytes
    blk_last: np.ndarray    # uint64 per block: last ordinal
    blk_maxtf: np.ndarray   # uint32 per block: max tf


class TermPostings:
    """Decoded posting list for one (field, term); possibly multi-chunk."""

    def __init__(self, chunks: list[Chunk]):
        self.chunks = chunks
        self.df = int(sum(len(c.ords) for c in chunks))
        self.cf = int(sum(int(c.tfs.sum()) for c in chunks))
        self._ords_cache: np.ndarray | None = None
        self._tfs_cache: np.ndarray | None = None

    @property
    def ordinals(self) -> np.ndarray:
        if self._ords_cache is None:
            self._ords_cache = (
                self.chunks[0].ords
                if len(self.chunks) == 1
                else np.concatenate([c.ords for c in self.chunks])
            )
        return self._ords_cache

    @property
    def tfs(self) -> np.ndarray:
        if self._tfs_cache is None:
            self._tfs_cache = (
                self.chunks[0].tfs
                if len(self.chunks) == 1
                else np.concatenate([c.tfs for c in self.chunks])
            )
        return self._tfs_cache

    _pos_cache: tuple[np.ndarray, np.ndarray] | None = None

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat absolute token positions + offsets (len = df + 1);
        memoized — the index is immutable."""
        if self._pos_cache is None:
            blob = b"".join(c.pos_blob for c in self.chunks)
            self._pos_cache = decode_position_lists(blob, self.tfs)
        return self._pos_cache


class IndexReader:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.stats = read_json(os.path.join(index_dir, "stats.json"))
        from ..config import FORMAT_VERSION

        found = self.stats.get("format_version")
        if found != FORMAT_VERSION:
            raise ValueError(
                f"index at {index_dir} has format_version={found}, "
                f"reader expects {FORMAT_VERSION}; rebuild the index"
            )
        self.n_docs: int = self.stats["n_docs"]
        self.k1: float = self.stats["k1"]
        self.b: float = self.stats["b"]
        self.now_ts: int = self.stats["now_ts"]
        self.hot: set[str] = set(self.stats["hot_terms"])
        self.salt_range: int = self.stats["salt_range"]
        self.num_shards: int = self.stats["num_term_shards"]
        self.offsets = np.asarray(self.stats["part_offsets"], dtype=np.int64)
        self._shards: dict[int, dict] = {}
        self._postings_cache: dict = {}
        self._doclens: dict[str, np.ndarray] = {}
        self._docmeta: pd.DataFrame | None = None
        self._dictionary: dict[str, np.ndarray] | None = None

    # -- collection stats ---------------------------------------------------

    def avgdl(self, field: str) -> float:
        return max(self.stats["fields"][field]["avgdl"], 1e-9)

    def doclens(self, field: str) -> np.ndarray:
        dl = self._doclens.get(field)
        if dl is None:
            path = os.path.join(self.index_dir, "doclens")
            if not os.path.isdir(path):
                # an index over an EMPTY live doc set (e.g. a delta batch
                # of only delete-routed rows) writes no doclens at all
                dl = np.zeros(self.n_docs, dtype=np.int64)
                self._doclens[field] = dl
                return dl
            ds = pads.dataset(path)
            t = ds.to_table(columns=["ordinal", "dl"], filter=pads.field("field") == field)
            dl = np.zeros(self.n_docs, dtype=np.int64)
            dl[t["ordinal"].to_numpy()] = t["dl"].to_numpy()
            self._doclens[field] = dl
        return dl

    # -- postings -----------------------------------------------------------

    def _shard_index(self, shard: int) -> dict:
        si = self._shards.get(shard)
        if si is None:
            path = os.path.join(self.index_dir, "segments", f"shard-{shard:05d}.parquet")
            if not os.path.exists(path):
                si = {}
            else:
                t = pq.read_table(path)
                si = {
                    (f, term): i
                    for i, (f, term) in enumerate(zip(t["field"].to_pylist(), t["term"].to_pylist()))
                }
                si["__table__"] = t
            self._shards[shard] = si
        return si

    def _chunk_at(self, shard: int, field: str, term: str) -> Chunk | None:
        si = self._shard_index(shard)
        i = si.get((field, term))
        if i is None:
            return None
        t = si["__table__"]
        ords = np.cumsum(varbyte_decode(t["ords"][i].as_py()), dtype=np.uint64)
        tfs = varbyte_decode(t["tfs"][i].as_py())
        return Chunk(
            ords=ords,
            tfs=tfs,
            pos_blob=t["pos"][i].as_py(),
            blk_last=np.frombuffer(t["blk_last"][i].as_py(), dtype=np.uint64),
            blk_maxtf=np.frombuffer(t["blk_maxtf"][i].as_py(), dtype=np.uint32),
        )

    def lookup(self, field: str, term: str) -> TermPostings | None:
        if field not in FIELDS or not term:
            return None
        key = (field, term)
        cached = self._postings_cache.get(key)
        if cached is not None:
            return cached if cached is not _MISS else None
        tp = self._lookup_uncached(field, term)
        if len(self._postings_cache) >= 65536:
            # drop the oldest half (insertion order); a clear-all here
            # thrashed whole query working sets at once
            for k in list(self._postings_cache)[: 32768]:
                del self._postings_cache[k]
        self._postings_cache[key] = tp if tp is not None else _MISS
        return tp

    def _lookup_uncached(self, field: str, term: str) -> TermPostings | None:
        if term in self.hot:
            n_buckets = (self.n_docs + self.salt_range - 1) // self.salt_range
            chunks = []
            for b in range(max(n_buckets, 1)):
                c = self._chunk_at(
                    stable_hash64(f"{term}#{b}") % self.num_shards,
                    field,
                    f"{term}\x01{b}",
                )
                if c is not None:
                    chunks.append(c)
            return TermPostings(chunks) if chunks else None
        c = self._chunk_at(stable_hash64(term) % self.num_shards, field, term)
        return TermPostings([c]) if c is not None else None

    # -- term dictionary (prefix expansion, fuzzy) ---------------------------

    def field_dictionary(self, field: str) -> np.ndarray:
        """Sorted array of all terms of a field (loaded once; used for
        prefix expansion — autocomplete A4 — and fuzzy edit-distance scans).

        Read from the ``dict/`` sidecar the merge tasks write (per-shard
        distinct base terms — vocabulary-sized, already de-salted)."""
        if self._dictionary is None:
            self._dictionary = {}
        arr = self._dictionary.get(field)
        if arr is None:
            t = pads.dataset(os.path.join(self.index_dir, "dict")).to_table(
                columns=["term"], filter=pads.field("field") == field
            )
            u = pc.unique(t["term"].combine_chunks())
            u = u.take(pc.sort_indices(u))
            arr = u.to_numpy(zero_copy_only=False)
            # keep the Arrow array too: fuzzy_candidates reads its raw
            # offset/byte buffers directly, avoiding a re-encode pass
            self._dictionary[("__arr__", field)] = u
            self._dictionary[field] = arr
        return arr

    def prewarm(self, fields: tuple[str, ...] | None = None) -> None:
        """Eagerly load everything the first queries would otherwise pay
        for lazily: doclens, docmeta, and per-field dictionaries + fuzzy
        scan state.  Serving replicas call this at startup (the ES
        index-warmer analog) so no user query ever sees the cold-start
        cost; replicas of a sharded service warm in parallel."""
        from ..config import FIELDS

        for f in fields if fields is not None else FIELDS:
            self.doclens(f)
            self._fuzzy_scan_state(f)
            self._trigram_index(f)
        self.docmeta()

    def _fuzzy_scan_state(self, field: str):
        """(terms, lens, offs, data, len_order, len_sorted, charmask_by_len)
        for the fuzzy scan — built once per field, all O(total vocabulary
        bytes)."""
        if self._dictionary is None:
            self._dictionary = {}
        key = ("__mat__", field)
        packed = self._dictionary.get(key)
        if packed is None:
            d = self.field_dictionary(field)
            # terms are pure [a-z0-9] ASCII by tokenizer construction, so
            # codepoints == bytes: keep only the raw offset/byte buffers
            # plus per-term lens/charmasks — all O(total vocabulary bytes).
            # Candidate rows are gathered into a padded matrix PER QUERY
            # after the length+charmask prefilter (an eager whole-dictionary
            # padded matrix cost ~20 s and ~1 GB at a 3.5M-term field; the
            # per-query gather touches only prefilter survivors, the same
            # rows the DP reads anyway)
            arr = self._dictionary.get(("__arr__", field))
            if arr is None:
                arr = pa.array(d, type=pa.string())
            nd = len(arr)
            offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[: nd + 1].astype(np.int64)
            data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[: int(offs[-1])]
            lens = np.diff(offs).astype(np.int32)
            if nd and len(data):
                # per-byte mask bit via a 256-entry LUT gather (the
                # elementwise uint64 modulo+shift formulation cost ~3.5 s
                # on a 24 MB term buffer; the gather is ~50 ms)
                lut = np.uint64(1) << (np.arange(256, dtype=np.uint64) % np.uint64(64))
                bits = lut[data]
                # reduceat segment starts must be < len(data); empty terms
                # (impossible from the tokenizer, but cheap to guard) would
                # repeat the next segment's or value — mask them after
                starts = np.minimum(offs[:-1], len(data) - 1)
                charmask = np.bitwise_or.reduceat(bits, starts)
                charmask[lens == 0] = np.uint64(0)
            else:
                charmask = np.zeros(nd, dtype=np.uint64)
            # length buckets (VERDICT r4 item 7): candidates must satisfy
            # |len - n| <= maxd, so a stable length-sort turns the O(V)
            # per-term length scan into two searchsorteds + a slice
            len_order = np.argsort(lens, kind="stable").astype(np.int64)
            len_sorted = lens[len_order]
            # charmask pre-gathered into length order: the per-query
            # bucket reads a contiguous slice instead of a bucket-sized
            # random gather
            packed = (d, lens, offs, data, len_order, len_sorted, charmask[len_order])
            self._dictionary[key] = packed
        return packed

    def _trigram_index(self, field: str):
        """(tri_keys_sorted, tri_term_ids) — the q-gram prefilter sidecar
        (VERDICT r4 item 7), built once per field, O(vocabulary bytes).

        Each trigram of each term becomes one (packed-3-byte key, term
        id) row, sorted by key; a query gathers its own trigrams' runs
        and keeps terms sharing >= max(n, len_c) - 2 - 3*maxd grams —
        the classic q-gram count bound (q=3): one edit destroys at most
        q grams, so the bound is a true lower bound and the prefilter
        can never drop a real match.  Only consulted when the bound is
        >= 1 (long-enough query terms); short terms use the length
        bucket + charmask path alone."""
        if self._dictionary is None:
            self._dictionary = {}
        key = ("__tri__", field)
        packed = self._dictionary.get(key)
        if packed is None:
            _d, lens, offs, data, *_ = self._fuzzy_scan_state(field)
            nd = len(lens)
            n_tris = np.maximum(lens.astype(np.int64) - 2, 0)
            total = int(n_tris.sum())
            if total == 0:
                packed = (np.array([], dtype=np.uint32), np.array([], dtype=np.int32))
            else:
                term_of_tri = np.repeat(np.arange(nd, dtype=np.int64), n_tris)
                cum = np.concatenate([[0], np.cumsum(n_tris)])
                pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], n_tris)
                p0 = offs[:-1][term_of_tri] + pos
                keys = (
                    (data[p0].astype(np.uint32) << 16)
                    | (data[p0 + 1].astype(np.uint32) << 8)
                    | data[p0 + 2]
                )
                order = np.argsort(keys, kind="stable")
                packed = (keys[order], term_of_tri[order].astype(np.int32))
            self._dictionary[key] = packed
        return packed

    def fuzzy_candidates(self, field: str, term: str, maxd: int) -> list[str]:
        """Dictionary terms within edit distance ``maxd`` of ``term``, in
        dictionary (sorted) order — vectorized banded Levenshtein DP over
        a padded codepoint matrix of the prefilter survivors (no Python
        loop over the vocabulary).

        Prefilter chain, each step a provable no-false-negative bound
        (VERDICT r4 item 7 — per-term cost no longer O(V)):
        1. LENGTH BUCKET: |len - n| <= maxd via two searchsorteds on the
           length-sorted order (touches only the matching-length slice);
        2. CHARMASK: >= 1 edit per character class present in only one
           side — evaluated on the bucket only;
        3. TRIGRAM COUNT (adaptive): shared q-grams >= max(n, len_c) -
           2 - 3*maxd via the trigram sidecar — consulted only when the
           q-gram bound is >= 1 AND the gather is cheaper than the DP
           it prunes (query-trigram run length vs survivors x n ops;
           on vocabularies where charmask already cuts to a few k rows
           the gather would cost more than the DP it saves)."""
        d, lens, offs, data, len_order, len_sorted, cm_by_len = self._fuzzy_scan_state(field)
        if len(d) == 0:
            return []
        n0 = len(term)
        # cheap lower bound: each distinct character class present in one
        # string but not the other costs >= 1 edit -> popcount of the
        # symmetric charmask difference (per side) must stay <= maxd
        qcodes = np.frombuffer(term.encode("utf-32-le"), dtype=np.uint32)
        qmask = np.uint64(
            np.bitwise_or.reduce(np.uint64(1) << (qcodes.astype(np.uint64) % np.uint64(64)))
        ) if len(qcodes) else np.uint64(0)
        lo = np.searchsorted(len_sorted, n0 - maxd, side="left")
        hi = np.searchsorted(len_sorted, n0 + maxd, side="right")
        if hi <= lo:
            return []
        cm = cm_by_len[lo:hi]  # contiguous slice, no gather
        diff_a = cm & ~qmask
        diff_b = ~cm & qmask
        lb = np.maximum(_popcount64(diff_a), _popcount64(diff_b))
        keep = lb <= maxd
        # gather original dictionary positions for SURVIVORS only
        cand_idx = np.sort(len_order[lo:hi][keep])
        if len(cand_idx) == 0:
            return []
        if n0 - 2 - 3 * maxd >= 1:
            tri_keys, tri_terms = self._trigram_index(field)
            if len(tri_keys):
                tb = np.frombuffer(term.encode("utf-8"), dtype=np.uint8)
                qk = ((tb[:-2].astype(np.uint32) << 16)
                      | (tb[1:-1].astype(np.uint32) << 8) | tb[2:])
                los = np.searchsorted(tri_keys, qk, side="left")
                his = np.searchsorted(tri_keys, qk, side="right")
                runlen = int((his - los).sum())
                # adaptive: gather+count costs ~runlen; the DP it could
                # prune costs ~survivors x n0 band ops — skip when the
                # gather is the more expensive side
                if runlen < 2 * len(cand_idx) * n0:
                    hit = np.concatenate(
                        [tri_terms[l:h] for l, h in zip(los, his)]
                    ) if len(qk) else np.array([], dtype=np.int32)
                    ids, cnts = (np.unique(hit, return_counts=True)
                                 if len(hit) else (np.array([], dtype=np.int64),
                                                   np.array([], dtype=np.int64)))
                    need = np.maximum(n0, lens[ids]) - 2 - 3 * maxd
                    qual = ids[cnts >= need]
                    cand_idx = np.intersect1d(cand_idx, qual, assume_unique=False)
                    if len(cand_idx) == 0:
                        return []
        n = len(term)
        # the length filter above guarantees every candidate is at most
        # n+maxd chars, so the DP never needs columns past that width;
        # gather just the candidate rows from the raw byte buffer into a
        # padded codepoint matrix
        width = n + maxd
        L = lens[cand_idx]
        co = offs[cand_idx]
        cols = np.arange(width, dtype=np.int64)[None, :]
        valid = cols < np.minimum(L, width)[:, None]
        gather = np.minimum(co[:, None] + cols, max(len(data) - 1, 0))
        C = np.where(valid, data[gather], 0).astype(np.uint32) if len(data) else np.zeros(
            (len(cand_idx), width), dtype=np.uint32
        )
        tcodes = np.frombuffer(term.encode("utf-32-le"), dtype=np.uint32)
        # banded DP: any cell with |i-j| > maxd has true distance > maxd,
        # so saturating it at BIG never flips an accept (a path through it
        # costs >= BIG and DP values never decrease along a path); the
        # inner loop then touches <= 2*maxd+1 columns per row, not `width`
        BIG = np.int32(maxd + 1)
        prev = np.broadcast_to(
            np.minimum(np.arange(width + 1, dtype=np.int32), BIG),
            (len(cand_idx), width + 1),
        ).copy()
        alive = None  # lazily materialized positions into cand_idx
        for i in range(1, n + 1):
            cur = np.full_like(prev, BIG)
            j_lo = max(1, i - maxd)
            j_hi = min(width, i + maxd)
            if i <= maxd:
                cur[:, 0] = i
            t_i = tcodes[i - 1]
            for j in range(j_lo, j_hi + 1):
                np.minimum(
                    prev[:, j] + 1, prev[:, j - 1] + (C[:, j - 1] != t_i), out=cur[:, j]
                )
                np.minimum(cur[:, j], cur[:, j - 1] + 1, out=cur[:, j])
            prev = cur
            # early abandon: a candidate whose whole band exceeds maxd can
            # never recover (values are non-decreasing along any path) —
            # compact the working set so later rows scan only survivors
            if len(prev) > 4096 and i < n:
                band_min = prev[:, j_lo : j_hi + 1].min(axis=1)
                if i <= maxd:
                    band_min = np.minimum(band_min, prev[:, 0])
                keep = band_min <= maxd
                if keep.mean() < 0.6:
                    prev = prev[keep]
                    C = C[keep]
                    L = L[keep]
                    alive = keep if alive is None else _scatter_keep(alive, keep)
        dist = prev[np.arange(len(prev)), L]
        ok = dist <= maxd
        if alive is not None:
            final = alive.copy()
            final[alive] = ok
            hits = cand_idx[final]
        else:
            hits = cand_idx[ok]
        return [d[i] for i in hits]

    def expand_prefix(self, field: str, prefix: str, limit: int = 50) -> list[str]:
        d = self.field_dictionary(field)
        lo = np.searchsorted(d, prefix, side="left")
        out = []
        for i in range(lo, len(d)):
            if not d[i].startswith(prefix):
                break
            out.append(d[i])
            if len(out) >= limit:
                break
        return out

    # -- doc metadata ---------------------------------------------------------

    _META_COLS = [
        "part", "rank", "doc_id", "repo", "path", "commit", "lang", "name",
        "content_sha256", "kind", "channel_claim_id", "mime",
        "effective_amount", "certificate_amount", "view_cnt", "sub_cnt",
        "claim_cnt", "fee", "bid_state", "has_thumbnail", "nsfw", "release_time",
        "payload_file", "payload_row",
    ]

    def docmeta(self) -> pd.DataFrame:
        """All doc metadata (no content), indexed by ordinal (row i == ordinal i)."""
        if self._docmeta is None:
            ds = pads.dataset(os.path.join(self.index_dir, "docstore"))
            t = ds.to_table(columns=self._META_COLS)
            # sort by ordinal while still columnar Arrow (pandas
            # sort_values moves object columns row-wise — ~3x the wall
            # at a 3.5M-doc store), then convert once
            ordinal = self.offsets[t["part"].to_numpy()] + t["rank"].to_numpy()
            order = np.argsort(ordinal, kind="stable")
            df = t.take(order).to_pandas(self_destruct=True, split_blocks=True)
            df["ordinal"] = ordinal[order]
            assert (df["ordinal"].to_numpy() == np.arange(len(df))).all()
            self._docmeta = df
        return self._docmeta

    def doc_content(self, ordinal: int) -> str:
        meta = self.docmeta()
        row = meta.iloc[int(ordinal)]
        path = os.path.join(self.index_dir, "payload", row["payload_file"])
        t = pq.read_table(path, columns=["content"])
        return t["content"][int(row["payload_row"])].as_py()


# ---------------------------------------------------------------------------
# range-partitioned view (parallel query execution)
# ---------------------------------------------------------------------------

class SlicedPostings:
    """A TermPostings view restricted to an ordinal range [lo, hi).

    ``df``/``cf`` stay GLOBAL — BM25 idf must be computed from the whole
    collection or the partitioned scores would differ from the
    unpartitioned engine.  Ordinals/tfs are zero-copy slices; positions
    reuse the base list's (cached) decode with offset-aligned slicing.
    """

    __slots__ = ("df", "cf", "ordinals", "tfs", "_base", "_a", "_b")

    def __init__(self, base: TermPostings, lo: int, hi: int):
        self.df = base.df
        self.cf = base.cf
        ords = base.ordinals
        a = int(np.searchsorted(ords, lo))
        b = int(np.searchsorted(ords, hi))
        self._base, self._a, self._b = base, a, b
        self.ordinals = ords[a:b]
        self.tfs = base.tfs[a:b]

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        pos, off = self._base.positions()
        # offsets need not start at 0: consumers index pos[off[i]:off[i+1]]
        return pos, off[self._a : self._b + 1]


class RangeReader:
    """A view of an :class:`IndexReader` restricted to ordinals
    [lo, hi) — the unit of range-partitioned parallel query execution
    (the ES-shards analog: one replica scores one doc range, the
    coordinator merges top-k).  Collection statistics (n_docs, df, cf,
    doclens, avgdl) remain GLOBAL, so clause scores are bit-identical
    to the unpartitioned engine and the merged top-k equals the
    single-engine top-k exactly.

    Candidate restriction happens at the postings level: every lookup
    returns a :class:`SlicedPostings`, so clause scoring touches only
    this range's candidates (~1/K of the work).  Dictionary operations
    (prefix/fuzzy expansion) are collection-level and delegate.
    """

    def __init__(self, base: IndexReader, lo: int, hi: int):
        self.base = base
        self.lo = int(lo)
        self.hi = int(hi)
        self._slice_cache: dict = {}

    def lookup(self, field: str, term: str):
        key = (field, term)
        hit = self._slice_cache.get(key)
        if hit is not None:
            return hit if hit is not _MISS else None
        tp = self.base.lookup(field, term)
        out = SlicedPostings(tp, self.lo, self.hi) if tp is not None else None
        self._slice_cache[key] = out if out is not None else _MISS
        return out

    def __getattr__(self, name):
        # everything else (n_docs, k1, b, stats, doclens, docmeta,
        # field_dictionary, fuzzy_candidates, expand_prefix, ...) is
        # collection-global and delegates to the base reader
        return getattr(self.base, name)
