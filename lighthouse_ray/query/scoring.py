"""Scoring primitives: BM25 term/match/phrase scoring, function-score math.

Implements the ES/Lucene semantics the reference invokes (SURVEY.md §2.4):

- Okapi BM25, Lucene form, k1=1.2 b=0.75 (ES 6 defaults, reference
  app/es/index/claims.go:9-32):
      idf(t)   = ln(1 + (N - df + 0.5) / (df + 0.5))
      score(t) = idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
- ``match``: OR of per-term BM25 (query.go:130-134 etc.)
- ``match_phrase``: exact positional phrase; phrase freq is the tf in the
  BM25 formula, idf is the sum of the member idfs (query.go:136-140)
- sloppy phrase (autocomplete slop 5, auto_complete.go:58-67): greedy
  in-order alignment with total displacement <= slop (a documented
  simplification of Lucene's sloppy-freq weighting; our in-memory oracle
  mirrors it exactly)
- ``field_value_factor`` log1p and gauss decay (func_score.go)

All scorers return dense (scores, matched) arrays over ordinals — the
exhaustive traversal; plain-BM25 top-k is ``match`` plus one
``util.top_k`` cut (``pagination.topk_page``).
"""

from __future__ import annotations

import math

import numpy as np

from ..index import IndexReader, TermPostings
from ..util import put_bounded


class DenseResult:
    """Per-ordinal scores + matched mask for one clause.

    ``boost`` is LAZY: ``boosted()`` only records the factor, and
    consumers apply it at candidate-gather time (``gathered``) — a
    dense n-array multiply per clause was the single largest per-query
    cost at 1M docs (~1.5 ms x 11 clauses), all of it on zeros.
    Scalar multiplication commutes with gathering element-wise, so the
    floats are bit-identical to the eager form."""

    __slots__ = ("scores", "mask", "boost")

    def __init__(self, scores: np.ndarray, mask: np.ndarray, boost: float = 1.0):
        self.scores = scores
        self.mask = mask
        self.boost = boost

    @classmethod
    def empty(cls, n: int) -> "DenseResult":
        return cls(np.zeros(n), np.zeros(n, dtype=bool))

    def boosted(self, boost: float) -> "DenseResult":
        """Record the scale factor (applied lazily at gather time)."""
        self.boost *= boost
        return self

    def gathered(self, idx: np.ndarray) -> np.ndarray:
        """Clause contribution at the given ordinals, boost applied."""
        g = self.scores[idx]
        return g * self.boost if self.boost != 1.0 else g

    def materialize(self) -> "DenseResult":
        """Fold a pending boost into the dense array (for consumers that
        read ``scores`` directly)."""
        if self.boost != 1.0:
            self.scores *= self.boost
            self.boost = 1.0
        return self

    def restrict(self, mask: np.ndarray) -> "DenseResult":
        """Mask in place: only entries leaving the mask are touched
        (scores outside the mask are zero by construction)."""
        kill = np.flatnonzero(self.mask & ~mask)
        if len(kill):
            self.scores[kill] = 0.0
        self.mask &= mask
        return self


class Scorer:
    def __init__(self, reader: IndexReader):
        self.r = reader
        self.n = reader.n_docs
        self.k1 = reader.k1
        self.b = reader.b
        self._fuzzy_cache: dict[tuple[str, str], list[str]] = {}

    def idf(self, df: int) -> float:
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def _norm(self, field: str, ords: np.ndarray) -> np.ndarray:
        dl = self.r.doclens(field)[ords]
        return self.k1 * (1.0 - self.b + self.b * dl / self.r.avgdl(field))

    def _term_sparse(self, field: str, term: str, postings: TermPostings | None = None):
        """(ordinals, scores) for one term's BM25, no dense allocation;
        None when the term has no postings."""
        tp = postings if postings is not None else self.r.lookup(field, term)
        if tp is None or tp.df == 0:
            return None
        ords = tp.ordinals.astype(np.int64)
        tf = tp.tfs.astype(np.float64)
        s = self.idf(tp.df) * tf * (self.k1 + 1.0) / (tf + self._norm(field, ords))
        return ords, s

    def term_result(self, field: str, term: str, postings: TermPostings | None = None) -> DenseResult:
        out = DenseResult.empty(self.n)
        hit = self._term_sparse(field, term, postings)
        if hit is not None:
            out.scores[hit[0]] = hit[1]
            out.mask[hit[0]] = True
        return out

    def _accumulate_term(self, field: str, term: str, scores: np.ndarray, mask: np.ndarray) -> None:
        """Add one term's BM25 into dense accumulators (no allocation)."""
        hit = self._term_sparse(field, term)
        if hit is not None:
            scores[hit[0]] += hit[1]
            mask[hit[0]] = True

    def match(self, field: str, terms: list[str]) -> DenseResult:
        """ES ``match``: sum of per-term BM25, OR semantics."""
        out = DenseResult.empty(self.n)
        for t in terms:
            self._accumulate_term(field, t, out.scores, out.mask)
        return out

    def match_fuzzy(self, field: str, terms: list[str]) -> DenseResult:
        """``match`` with fuzziness=AUTO (query.go:131,177): per term,
        expand to dictionary terms within the AUTO edit distance
        (len<3 -> 0, len<6 -> 1, else 2); each expansion scores BM25
        at its own idf (no prefix-length optimization; dictionary scan).
        The per-term max over expansions accumulates sparsely over the
        expansion union (scores are >= 0 and max is order-independent,
        so the floats match the dense formulation exactly)."""
        out = DenseResult.empty(self.n)
        for t in terms:
            exps = self.fuzzy_expand(field, t)
            if len(exps) == 1:
                self._accumulate_term(field, exps[0], out.scores, out.mask)
                continue
            pairs = [p for p in (self._term_sparse(field, e) for e in exps) if p]
            if not pairs:
                continue
            all_ords = np.unique(np.concatenate([o for o, _s in pairs]))
            best = np.zeros(len(all_ords))
            for o, s in pairs:
                np.maximum.at(best, np.searchsorted(all_ords, o), s)
            out.scores[all_ords] += best
            out.mask[all_ords] = True
        return out

    def fuzzy_expand(self, field: str, term: str, max_expansions: int = 50) -> list[str]:
        """AUTO expansions: exact term first, then dictionary-order
        candidates within the AUTO distance, capped at max_expansions.
        The reader's dictionary scan finds them; memoized per (field,
        term), at most 65,536 entries (oldest half dropped when full)."""
        key = (field, term)
        cached = self._fuzzy_cache.get(key)
        if cached is not None:
            return cached
        maxd = 0 if len(term) < 3 else (1 if len(term) < 6 else 2)
        if maxd == 0:
            out = [term]
        else:
            cands = self.r.fuzzy_candidates(field, term, maxd)
            in_dict = term in cands
            out = [term] if in_dict else []
            for cand in cands:
                if cand != term:
                    out.append(cand)
                    if len(out) >= max_expansions:
                        break
            out = out or [term]
        put_bounded(self._fuzzy_cache, key, out)
        return out

    # -- phrases --------------------------------------------------------------

    def phrase(self, field: str, terms: list[str], slop: int = 0,
               within: np.ndarray | None = None) -> DenseResult:
        """``within`` (optional sorted ordinal array): restrict the match
        to those docs — the position-chain work then costs O(|within|),
        not O(df); used by two-phase rescoring where only a top-window
        needs the expensive positional verification."""
        if not terms:
            return DenseResult.empty(self.n)
        if len(terms) == 1:
            res = self.term_result(field, terms[0])
            if within is not None:
                sel = np.zeros(self.n, dtype=bool)
                sel[within] = True
                res.restrict(sel)
            return res
        tps = [self.r.lookup(field, t) for t in terms]
        if any(tp is None for tp in tps):
            return DenseResult.empty(self.n)
        return self._phrase_from_postings(
            field, tps, [self.idf(tp.df) for tp in tps], slop, within=within
        )

    def _phrase_from_postings(
        self,
        field: str,
        tps: list,
        idfs: list[float],
        slop: int,
        within: np.ndarray | None = None,
    ) -> DenseResult:
        """Positional phrase over already-resolved posting lists; entries of
        ``tps`` may be TermPostings or (ords, tfs, pos, off) union tuples."""
        out = DenseResult.empty(self.n)
        resolved = [_as_posarrays(tp) for tp in tps]
        # rarest-first: both the doc intersection and the position chain
        # process terms in ascending df, so the heavy work happens on the
        # smallest possible candidate sets
        order = np.argsort(np.asarray([len(r[0]) for r in resolved]), kind="stable")
        cand = resolved[int(order[0])][0]
        if within is not None:
            cand = cand[_in_sorted(cand, within)]
        for j in order[1:]:
            cand = cand[_in_sorted(cand, resolved[int(j)][0])]
            if len(cand) == 0:
                return out
        if slop == 0:
            # vectorized doc-at-once chain: tag each position with its
            # candidate-doc index in the high bits; arrays stay sorted
            # (doc-major, positions increasing), so membership is binary
            # search.  Later gathers touch only still-alive docs.
            def gather(j: int, docsel: np.ndarray) -> np.ndarray:
                ords, _tfs, pos, off = resolved[j]
                idx = np.searchsorted(ords, cand[docsel])
                starts = off[idx]
                lens = off[idx + 1] - starts
                total = int(lens.sum())
                cum = np.zeros(len(lens), dtype=np.int64)
                np.cumsum(lens[:-1], out=cum[1:])
                flat_idx = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lens)
                docrep = np.repeat(docsel, lens)  # int64 already
                # positions are uint64: the astype to int64 is required so
                # the composite (doc << 32 | pos) key stays integer
                return pos[flat_idx].astype(np.int64) + (docrep << 32)

            alive = np.arange(len(cand), dtype=np.int64)
            j0 = int(order[0])
            base = gather(j0, alive) - j0  # normalize to term-0 offsets
            for j in order[1:]:
                j = int(j)
                base = base[_in_sorted(base + j, gather(j, alive))]
                if len(base) == 0:
                    return out
                docs = base >> 32
                alive = docs[np.flatnonzero(np.diff(docs, prepend=-1))]
            freqs = np.bincount(base >> 32, minlength=len(cand)).astype(np.float64)
        else:
            slices: list[list[np.ndarray]] = []
            for ords, _tfs, pos, off in resolved:
                idx = np.searchsorted(ords, cand)
                slices.append([pos[off[i] : off[i + 1]] for i in idx])
            freqs = np.zeros(len(cand))
            for d in range(len(cand)):
                freqs[d] = _sloppy_freq([s[d].astype(np.int64) for s in slices], slop)
        hit = freqs > 0
        if not hit.any():
            return out
        ords_hit = cand[hit].astype(np.int64)
        tfp = freqs[hit]
        idf_sum = float(sum(idfs))
        s = idf_sum * tfp * (self.k1 + 1.0) / (tfp + self._norm(field, ords_hit))
        out.scores[ords_hit] = s
        out.mask[ords_hit] = True
        return out

    def phrase_prefix(self, field: str, terms: list[str], slop: int = 5, max_expansions: int = 50) -> DenseResult:
        """``multi_match`` type=phrase_prefix semantics for one field
        (auto_complete.go:58-67): last term expands to <= max_expansions
        dictionary terms; their postings are OR-merged into the last slot."""
        if not terms:
            return DenseResult.empty(self.n)
        exps = self.r.expand_prefix(field, terms[-1], max_expansions)
        if not exps:
            return DenseResult.empty(self.n)
        union = _union_postings(self.r, field, exps)
        if union is None:
            return DenseResult.empty(self.n)
        if len(terms) == 1:
            ords, tfs, _pos, _off, dfu = union
            out = DenseResult.empty(self.n)
            s = self.idf(dfu) * tfs * (self.k1 + 1.0) / (tfs + self._norm(field, ords.astype(np.int64)))
            out.scores[ords.astype(np.int64)] = s
            out.mask[ords.astype(np.int64)] = True
            return out
        tps: list = [self.r.lookup(field, t) for t in terms[:-1]]
        if any(tp is None for tp in tps):
            return DenseResult.empty(self.n)
        idfs = [self.idf(tp.df) for tp in tps] + [self.idf(union[4])]
        return self._phrase_from_postings(field, tps + [union[:4]], idfs, slop)

    # -- function score (func_score.go) ---------------------------------------

    @staticmethod
    def fvf_log1p(values: np.ndarray, factor: float = 1.0, missing: float = 1.0) -> np.ndarray:
        """ES ``field_value_factor`` modifier=log1p: log10(1 + value*factor)
        (common logarithm per the ES function-score docs; Missing() fills
        nulls — our synthesized doc-values are never null)."""
        v = np.where(np.isnan(values.astype(np.float64)), missing, values)
        return np.log10(1.0 + np.maximum(v * factor, 0.0))

    @staticmethod
    def gauss(ts: np.ndarray, origin: float, offset_s: float, scale_s: float, decay: float, weight: float) -> np.ndarray:
        sigma2 = -(scale_s**2) / (2.0 * math.log(decay))
        d = np.maximum(0.0, np.abs(ts.astype(np.float64) - origin) - offset_s)
        return weight * np.exp(-(d**2) / (2.0 * sigma2))


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Membership mask of ``a`` in SORTED array ``b`` via binary search
    (no per-call sort, unlike np.isin)."""
    if len(b) == 0:
        return np.zeros(len(a), dtype=bool)
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1
    return b[idx] == a


def _as_posarrays(tp):
    if isinstance(tp, tuple):
        return tp
    pos, off = tp.positions()
    return tp.ordinals, tp.tfs.astype(np.float64), pos, off


def _union_postings(reader: IndexReader, field: str, terms: list[str]):
    """OR-merge posting lists (with positions) of several terms into one
    pseudo-term: (ords, tfs, pos, off, df_global), ords sorted,
    positions merged.

    ``df_global`` is the size of the union over the FULL collection —
    when the inputs are range-sliced (RangeReader), the local union
    size would give a range-dependent idf and break the partitioned ==
    unpartitioned score identity, so the union count is taken over the
    base (global) posting lists."""
    parts = []
    glob = []
    any_sliced = False
    for t in terms:
        tp = reader.lookup(field, t)
        if tp is not None and tp.df:
            pos, off = tp.positions()
            parts.append((tp.ordinals, tp.tfs, pos, off))
            base = getattr(tp, "_base", None)
            if base is not None:
                any_sliced = True
                glob.append(base.ordinals)
            else:
                glob.append(tp.ordinals)
    if not parts:
        return None
    if any_sliced:
        df_global = int(
            len(np.unique(np.concatenate(glob))) if len(glob) > 1 else len(glob[0])
        )
    else:
        df_global = None  # filled below from the local union (== global)
    if len(parts) == 1:
        o, t, p, off = parts[0]
        return o, t.astype(np.float64), p, off, (df_global if df_global is not None else len(o))
    all_ords = np.concatenate([p[0] for p in parts])
    uniq = np.unique(all_ords)
    n = len(uniq)
    tfs = np.zeros(n, dtype=np.float64)
    pos_lists: list[list[np.ndarray]] = [[] for _ in range(n)]
    for o, t, p, off in parts:
        idx = np.searchsorted(uniq, o)
        tfs[idx] += t.astype(np.float64)
        for j, u in enumerate(idx):
            pos_lists[u].append(p[off[j] : off[j + 1]])
    flat = []
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i, pl in enumerate(pos_lists):
        merged = np.sort(np.concatenate(pl)) if len(pl) > 1 else pl[0]
        flat.append(merged)
        offsets[i + 1] = offsets[i] + len(merged)
    return (
        uniq,
        tfs,
        np.concatenate(flat) if flat else np.zeros(0, dtype=np.uint64),
        offsets,
        (df_global if df_global is not None else n),
    )


def _sloppy_freq(pos_lists: list[np.ndarray], slop: int) -> int:
    """Greedy in-order alignment count with total displacement <= slop."""
    count = 0
    for p0 in pos_lists[0]:
        prev = p0
        disp = 0
        ok = True
        for i in range(1, len(pos_lists)):
            arr = pos_lists[i]
            j = np.searchsorted(arr, prev + 1)
            if j >= len(arr):
                ok = False
                break
            disp += int(arr[j] - (p0 + i))
            prev = arr[j]
        if ok and disp <= slop:
            count += 1
    return count
