"""Two-phase rescoring: cheap BM25 window, expensive second-pass query.

Standard-engine ``rescore`` semantics: rank the corpus with the cheap
query (plain BM25, ``pagination.topk_page``), take the top ``window``
hits, re-score ONLY those with a costlier signal — here positional
exact-phrase presence — and re-rank the window.  Docs outside the
window never pay the expensive phrase check, which is the point: at
10^12 docs the phrase verification (position-list intersection) runs
on ``window`` candidates per replica, not on every match.

Ordering contract matches the rest of the query stack: ties break on
the EXTERNAL doc id ascending (pass ``doc_ids``), so results are
identical across ordinal assignments / cluster widths.
"""

from __future__ import annotations

import numpy as np

from ..index import IndexReader
from ..util import top_k


def rescore_phrase_topk(
    reader: IndexReader,
    field: str,
    terms: list[str],
    phrase: list[str],
    *,
    window: int = 50,
    k: int = 10,
    bonus: float = 2.0,
    doc_ids: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Top-``k`` ``(doc_id, score)`` where score = window-BM25 + bonus
    for docs whose ``field`` contains ``phrase`` as adjacent tokens.

    The window itself is cut in (bm25 desc, doc_id asc) order; the
    re-ranked result is (rescored desc, doc_id asc).
    """
    from .pagination import topk_page
    from .scoring import Scorer

    ords, ids, scores = topk_page(
        reader, field, terms, size=window, doc_ids=doc_ids, live=live
    )
    if len(ords) == 0:
        return []

    # expensive pass on the window only: positional phrase presence,
    # restricted to the window's ordinals (position-chain work is
    # O(window), not O(df))
    ph = Scorer(reader).phrase(
        field, list(phrase), slop=0, within=np.sort(ords)
    )
    rescored = scores + np.where(ph.mask[ords], bonus, 0.0)

    out = top_k(rescored, ids, k)
    return [(int(ids[i]), float(rescored[i])) for i in out]
