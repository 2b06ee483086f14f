"""Plain-BM25 top-k and keyset deep pagination (search_after).

Every plain OR-of-terms BM25 top-k (the ``bm25_topk``, ``search_after``,
``synonym_match`` and ``rescore_phrase`` gates, the rescore window and
the delta-chain reads of ``IncrementalIndex``) is one pass of
:func:`topk_page`: the vectorized ``Scorer.match`` over the query's
terms, the live mask, the cursor filter, and a ``util.top_k`` cut that
breaks ties on the external doc id.

Offset pagination (``from`` + ``size``, search.go:56-63 semantics) costs
every replica an O(from + size) heap and breaks under concurrent index
refresh; ``search_after`` instead carries the last returned hit's sort
key — ``(score, doc_id)`` — as an opaque cursor and asks for the next
``size`` rows strictly after it in ``(score desc, doc_id asc)`` order.
The cursor is content-derived, not positional, so it stays valid across
segment merges, and a page at any depth costs the same single pass as
page 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index import IndexReader
from ..util import top_k


@dataclass(frozen=True)
class PageCursor:
    """Sort key of the last hit of a page: (score desc, doc_id asc)."""

    score: float
    doc_id: object  # any ordered id type (int for the driver corpus, str for claim ids)


def topk_page(
    reader: IndexReader,
    field: str,
    terms: list[str],
    size: int = 10,
    after: PageCursor | None = None,
    doc_ids: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``size`` hits right after ``after`` (or the first ``size``)
    in (score desc, doc_id asc) order, as ``(ords, ids, scores)``:
    internal ordinals, external ids and BM25 scores.

    ``doc_ids`` maps internal ordinal -> external doc id (defaults to
    the docmeta ``path`` column cast to int64, the driver-corpus
    convention; any numpy-sortable id dtype works, including strings).
    ``live`` (optional bool mask over ordinals) drops dead docs before
    the cut, so shadowed docs never displace live ones.
    """
    from .scoring import Scorer

    if doc_ids is None:
        doc_ids = reader.docmeta()["path"].to_numpy().astype(np.int64)
    res = Scorer(reader).match(field, list(dict.fromkeys(terms)))
    ords = np.flatnonzero(res.mask if live is None else res.mask & live)
    scores = res.scores[ords]
    if after is not None:
        keep = scores < after.score
        # external ids are compared only where the score ties the cursor's
        tie = np.flatnonzero(scores == after.score)
        keep[tie] = doc_ids[ords[tie]] > after.doc_id
        ords, scores = ords[keep], scores[keep]
    cut = top_k(scores, lambda p: doc_ids[ords[p]], size)
    ords = ords[cut]
    return ords, doc_ids[ords], scores[cut]


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
    _ords, ids, scores = topk_page(reader, field, terms, size, after, doc_ids, live)
    page = [
        (v.item() if isinstance(v, np.generic) else v, float(s))
        for v, s in zip(ids, scores)
    ]
    cursor = PageCursor(page[-1][1], page[-1][0]) if page else None
    return page, cursor
