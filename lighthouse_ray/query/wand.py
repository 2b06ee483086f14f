"""Block-max WAND: doc-at-a-time disjunctive BM25 top-k with skipping.

The scale path for query serving (SURVEY.md §7.2 step 7): instead of
scoring every posting (the exhaustive dense path in scoring.py), WAND
maintains one cursor per query term sorted by current ordinal, picks the
pivot via per-term score upper bounds, and uses the per-128-posting
block metadata (last ordinal + max tf, written at build time in
build/postings.py) both to *seek* (searchsorted = skip list) and to
*refine* the bound before fully scoring a pivot (Block-Max WAND, Ding &
Suel 2011 — public algorithm).

Upper bound per term/block: BM25's tf-part is maximized at dl=0, so
    ub = idf * maxtf*(k1+1) / (maxtf + k1*(1-b))
is a true bound without needing doclens at build time.

Conformance: results are identical (score and tie-break by ordinal) to
the exhaustive scorer — asserted in tests/test_wand.py; the pruning
threshold carries a 1e-12 slack so float ties can never be lost.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..index import IndexReader, TermPostings
from ..util import top_k

_INF = np.iinfo(np.int64).max


class _Cursor:
    __slots__ = ("ords", "tfs", "blk_last", "blk_maxtf", "idf", "i", "n", "ub", "k1", "b")

    def __init__(self, tp: TermPostings, idf: float, k1: float, b: float):
        self.ords = tp.ordinals.astype(np.int64)
        self.tfs = tp.tfs.astype(np.float64)
        self.blk_last = np.concatenate([c.blk_last for c in tp.chunks]).astype(np.int64)
        self.blk_maxtf = np.concatenate([c.blk_maxtf for c in tp.chunks]).astype(np.float64)
        self.idf = idf
        self.k1 = k1
        self.b = b
        self.i = 0
        self.n = len(self.ords)
        gm = float(self.blk_maxtf.max()) if len(self.blk_maxtf) else 0.0
        self.ub = self._tf_bound(gm)

    def _tf_bound(self, maxtf: float) -> float:
        if maxtf <= 0:
            return 0.0
        return self.idf * maxtf * (self.k1 + 1.0) / (maxtf + self.k1 * (1.0 - self.b))

    def doc(self) -> int:
        return int(self.ords[self.i]) if self.i < self.n else _INF

    def seek(self, target: int) -> None:
        if self.i < self.n and self.ords[self.i] < target:
            self.i += int(np.searchsorted(self.ords[self.i :], target, side="left"))

    def block_ub(self, doc: int) -> float:
        j = int(np.searchsorted(self.blk_last, doc, side="left"))
        if j >= len(self.blk_maxtf):
            return 0.0
        return self._tf_bound(float(self.blk_maxtf[j]))

    def block_last(self, doc: int) -> int:
        j = int(np.searchsorted(self.blk_last, doc, side="left"))
        return int(self.blk_last[j]) if j < len(self.blk_last) else _INF


def _dense_topk(
    reader: IndexReader,
    field: str,
    terms: list[str],
    k: int,
    live: "np.ndarray | None",
) -> list[tuple[int, float]]:
    """Vectorized dense-regime top-k: exactly the exhaustive scorer
    (same accumulation order, so scores are bit-identical to
    :func:`exhaustive_topk`) plus the live mask, cut by
    :func:`~lighthouse_ray.util.top_k` instead of a full sort."""
    from .scoring import Scorer

    res = Scorer(reader).match(field, list(dict.fromkeys(terms)))
    mask = res.mask if live is None else (res.mask & live)
    cand = np.flatnonzero(mask)
    scores = res.scores[cand]
    return [(int(cand[i]), float(scores[i])) for i in top_k(scores, cand, k)]


def wand_topk(
    reader: IndexReader,
    field: str,
    terms: list[str],
    k: int = 10,
    live: "np.ndarray | None" = None,
    dense_cutoff: float = 0.05,
) -> list[tuple[int, float]]:
    """Top-k (ordinal, score) for an OR-of-terms BM25 query.

    Returns results sorted by (score desc, ordinal asc), identical to the
    exhaustive scorer's ordering.

    ``live`` (optional bool mask over ordinals): docs whose mask entry is
    False are skipped — they never enter the heap, so the heap stays at
    k and the θ threshold reflects live docs only.  Used by delta-aware
    serving (IncrementalIndex) instead of over-fetching k + n_shadowed.

    ``dense_cutoff``: when Σdf >= cutoff × n_docs the query is in the
    DENSE regime — per-pivot skipping cannot prune meaningfully (a hot
    term's cursor visits nearly every document) and the pivot loop's
    per-doc constant dominates, so the traversal switches to the
    vectorized exhaustive scorer (rank- and score-identical; conformance
    tested).  Block-max WAND remains the path for selective queries,
    where it touches a tiny fraction of the postings.  0 disables the
    pivot loop entirely; ``float('inf')`` forces it (tests)."""
    k1, b = reader.k1, reader.b
    n = reader.n_docs
    from .scoring import Scorer

    sc = Scorer(reader)
    tps = []
    for t in dict.fromkeys(terms):  # unique, order-preserving
        tp = reader.lookup(field, t)
        if tp is not None and tp.df:
            tps.append(tp)
    if not tps:
        return []
    if sum(tp.df for tp in tps) >= dense_cutoff * n:
        return _dense_topk(reader, field, terms, k, live)

    dl = reader.doclens(field).astype(np.float64)
    avgdl = reader.avgdl(field)
    cursors: list[_Cursor] = [_Cursor(tp, sc.idf(tp.df), k1, b) for tp in tps]

    # min-heap of (score, -ordinal): worst entry = lowest score, then
    # largest ordinal — matches (score desc, ordinal asc) top-k
    heap: list[tuple[float, int]] = []
    eps = 1e-12

    def threshold() -> float:
        return heap[0][0] - eps if len(heap) == k else -1.0

    def score_doc(d: int, involved: list[_Cursor]) -> float:
        norm = k1 * (1.0 - b + b * dl[d] / avgdl)
        s = 0.0
        for c in involved:
            tf = c.tfs[c.i]
            s += c.idf * tf * (k1 + 1.0) / (tf + norm)
        return s

    while True:
        cursors.sort(key=lambda c: c.doc())
        # pivot: first index where cumulative upper bound can beat θ
        theta = threshold()
        acc = 0.0
        pivot = -1
        for idx, c in enumerate(cursors):
            if c.doc() == _INF:
                break
            acc += c.ub
            if acc > theta:
                pivot = idx
                break
        if pivot < 0:
            break
        pivot_doc = cursors[pivot].doc()
        if pivot_doc == _INF:
            break

        if cursors[0].doc() == pivot_doc:
            involved = [c for c in cursors if c.doc() == pivot_doc]
            bub = sum(c.block_ub(pivot_doc) for c in involved)
            if bub <= theta:
                # nothing in these blocks can beat θ with the involved
                # cursors alone: jump past the nearest block boundary,
                # but no further than the next cursor's doc (it could
                # combine with these terms from there on)
                boundary = min(c.block_last(pivot_doc) for c in involved) + 1
                others = [c.doc() for c in cursors if c.doc() > pivot_doc]
                nxt = min(boundary, min(others) if others else _INF)
                for c in involved:
                    c.seek(max(nxt, pivot_doc + 1))
                continue
            if live is None or live[pivot_doc]:
                s = score_doc(pivot_doc, involved)
                item = (s, -pivot_doc)
                if len(heap) < k:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heapreplace(heap, item)
            for c in involved:
                c.seek(pivot_doc + 1)
        else:
            # advance the earliest cursor up to the pivot document
            cursors[0].seek(pivot_doc)

    out = [(-negord, s) for s, negord in heap]
    out.sort(key=lambda x: (-x[1], x[0]))
    return [(d, s) for d, s in out]


def exhaustive_topk(reader: IndexReader, field: str, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
    """Reference implementation: dense exhaustive scoring + sort."""
    from .scoring import Scorer

    sc = Scorer(reader)
    res = sc.match(field, list(dict.fromkeys(terms)))
    ords = np.flatnonzero(res.mask)
    if len(ords) == 0:
        return []
    scores = res.scores[ords]
    order = np.lexsort((ords, -scores))[:k]
    return [(int(ords[i]), float(scores[i])) for i in order]
