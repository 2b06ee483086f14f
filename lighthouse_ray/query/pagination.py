"""Keyset deep pagination over the BM25 top-k engine (search_after).

Offset pagination (``from`` + ``size``, search.go:56-63 semantics) costs
every replica an O(from + size) heap and breaks under concurrent index
refresh; ``search_after`` instead carries the last returned hit's sort
key — ``(score, doc_id)`` — as an opaque cursor and asks for the next
``size`` rows strictly after it in ``(score desc, doc_id asc)`` order.
That makes page N cost the same as page 1 and keeps the cursor valid
across segment merges (the sort key is content-derived, not positional).

Over a top-k engine the implementation is iterative deepening: fetch
top-k with doubling k until the post-cursor slice provably holds
``size`` complete rows — i.e. the slice's last row scores strictly
above the fetch frontier (every doc scoring above the frontier is in
the fetch), or the fetch already exhausted all matching docs.  For a
page at depth d this touches O(d + size) heap entries once, not per
replica per page.

At 100 TB the cursor is what makes deep scans feasible: a driver
walking the full ranking never asks any replica for more than its own
top-(depth) slice, and restarts resume from the last cursor instead of
re-paging from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index import IndexReader
from ..util import top_k


@dataclass(frozen=True)
class PageCursor:
    """Sort key of the last hit of a page: (score desc, doc_id asc).

    ``k_hint`` is a pure optimization carried between pages: the fetch
    depth that sufficed for the previous page, so the next page starts
    its deepening there instead of re-climbing the doubling ladder from
    the bottom.  It never affects results (any starting k converges to
    the same page via the completeness check)."""

    score: float
    doc_id: object  # any ordered id type (int for the driver corpus, str for claim ids)
    k_hint: int = 0


def topk_page(
    reader: IndexReader,
    field: str,
    terms: list[str],
    size: int = 10,
    after: PageCursor | None = None,
    doc_ids: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The ``size`` hits right after ``after`` (or the first ``size``)
    in (score desc, doc_id asc) order, as ``(ords, ids, scores, k)``:
    internal ordinals, external ids, scores, and the fetch depth that
    sufficed.  WAND breaks ties on the ordinal, so no fixed over-fetch
    margin can promise the external-id order; this deepens until it
    holds.

    ``doc_ids`` maps internal ordinal -> external doc id (defaults to
    the docmeta ``path`` column cast to int64, the driver-corpus
    convention; any numpy-sortable id dtype works, including strings).
    ``live`` (optional bool mask over ordinals) is forwarded to WAND.
    """
    from .wand import wand_topk

    none = np.zeros(0, dtype=np.int64)
    n = reader.n_docs
    if n == 0:
        return none, none, np.zeros(0), 0
    if doc_ids is None:
        doc_ids = reader.docmeta()["path"].to_numpy().astype(np.int64)

    k = max(4 * size, 16, after.k_hint if after is not None else 0)
    while True:
        k = min(k, n)
        hits = wand_topk(reader, field, terms, k=k, live=live)
        if not hits:
            return none, doc_ids[none], np.zeros(0), k
        frontier = min(s for _, s in hits)
        exhausted = len(hits) < k or k >= n
        ords = np.fromiter((d for d, _ in hits), dtype=np.int64, count=len(hits))
        scores = np.fromiter((s for _, s in hits), dtype=np.float64, count=len(hits))
        ids = doc_ids[ords]
        if after is not None:
            keep = (scores < after.score) | (
                (scores == after.score) & (ids > after.doc_id)
            )
            ords, ids, scores = ords[keep], ids[keep], scores[keep]
        page = top_k(scores, ids, size)
        # the page is complete when its worst row scores strictly above
        # the frontier (ties AT the frontier may be cut by the top-k) or
        # nothing deeper exists
        if exhausted or (0 < len(page) == size and scores[page[-1]] > frontier):
            return ords[page], ids[page], scores[page], k
        k *= 2


def search_after_topk(
    reader: IndexReader,
    field: str,
    terms: list[str],
    size: int = 10,
    after: PageCursor | None = None,
    doc_ids: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> tuple[list[tuple[int, float]], PageCursor | None]:
    """One page of ``(doc_id, score)`` in (score desc, doc_id asc) order
    starting strictly after ``after``; returns ``(page, next_cursor)``.
    The page order ties on the EXTERNAL id so cursors survive
    reindexing with a different ordinal assignment; ``doc_ids`` and
    ``live`` are as in :func:`topk_page` (delta-aware serving
    paginates over live docs only)."""
    _ords, ids, scores, k = topk_page(reader, field, terms, size, after, doc_ids, live)
    page = [
        (v.item() if isinstance(v, np.generic) else v, float(s))
        for v, s in zip(ids, scores)
    ]
    cursor = PageCursor(page[-1][1], page[-1][0], k_hint=k) if page else None
    return page, cursor
