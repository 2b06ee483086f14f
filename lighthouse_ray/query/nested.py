"""ES ``nested`` query semantics (reference Q9).

The reference maps each claim's ``value`` metadata as a true ES
``nested`` object (app/es/index/claims.go:17-19) and autocomplete
queries into it (app/actions/auto_complete.go:69).  ES nested-query
semantics, which this module implements from scratch over a derived
list-of-struct column:

- every nested sub-document is indexed and scored as an INDEPENDENT
  Lucene document (own term frequencies, own length norm, df/avgdl
  computed over the nested-doc corpus, not the parent corpus);
- a ``bool.must`` inside the nested clause requires all terms to match
  within the SAME sub-document — terms spread across two different
  sub-documents of one parent do NOT match (the defining difference
  from a flattened object field);
- the parent's score is an aggregate of its matching sub-documents'
  scores (``score_mode: max`` here).

Our corpus (``documents.text``, flat token soup — TESTDATA) has no
natural sub-document column, so one is DERIVED deterministically: the
nested docs of a parent are its consecutive ``window``-token chunks
(chunk_id = token_position // window), i.e. the parent's
``list<struct<chunk_id:int, tokens:...>>`` view.  The derivation is a
pure function of the row, so it vectorizes per batch and is exactly
expressible in the DuckDB oracle (``unnest`` + ``generate_subscripts``).

Distributed shape (both passes stream; nothing corpus-sized reaches
the driver):

1. a bounded stats pass over the nested-doc corpus — one summary row
   per batch (n_chunks, Σdl, per-term chunk-df), folded by a
   distributed ``Sum``;
2. one scoring pass whose per-batch combiner performs the whole
   nested evaluation for the batch's parents (a parent row never spans
   batches) and emits at most ``k`` rows per batch; the driver drains
   a ≤ k × n_batches partial and re-ranks by (score desc, doc_id asc).

``mode="flattened"`` evaluates the SAME query against the flattened
object field (terms may match in different sub-documents, as ES does
when a field is not mapped ``nested``) — kept so tests can demonstrate
where the two semantics disagree and nested wins.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis.tokenizer import flat_tokens
from ..util import top_k

K1 = 1.2
B = 0.75

_CHUNK_SHIFT = 32  # chunk ordinal packed under the parent row index


def _batch_chunks(b: pa.Table, window: int):
    """Vectorized chunk view of a batch: returns (parents, toks,
    n_rows, cparent, dl, dense) where cparent/dl are per-chunk arrays
    and dense maps each token to its chunk's dense index."""
    parents, pos, toks, n = flat_tokens(b["text"])
    if n == 0 or len(parents) == 0:
        return parents, toks, n, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    ckey = (parents << _CHUNK_SHIFT) | (pos // window)  # ascending by construction
    newc = np.empty(len(ckey), dtype=bool)
    newc[0] = True
    np.not_equal(ckey[1:], ckey[:-1], out=newc[1:])
    starts = np.flatnonzero(newc)
    dl = np.diff(np.concatenate((starts, [len(ckey)])))
    cparent = parents[starts]
    dense = np.cumsum(newc) - 1
    return parents, toks, n, cparent, dl, dense


def nested_corpus_stats(ds, terms: list[str], *, window: int = 16):
    """Nested-doc corpus stats: (n_chunks, avgdl, idf[]) where df is
    chunk-level.  One summary row per batch, distributed Sum fold —
    identical shape to the parent-level BM25 stats pass."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        _parents, toks, _n, _cparent, dl, dense = _batch_chunks(b, window)
        nc = len(dl)
        cols = {
            "nc": pa.array([float(nc)]),
            "dl": pa.array([float(int(dl.sum())) if nc else 0.0]),
        }
        for i, t in enumerate(terms):
            m = pc.equal(toks, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(dense[m], minlength=nc) if nc else np.zeros(0)
            cols[f"df{i}"] = pa.array([float(int((tf > 0).sum()))])
        return pa.table(cols)

    cols = ["nc", "dl"] + [f"df{i}" for i in range(len(terms))]
    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in cols]
    )
    nc = agg["nc"]
    avgdl = agg["dl"] / nc
    idf = [
        math.log(1.0 + (nc - agg[f"df{i}"] + 0.5) / (agg[f"df{i}"] + 0.5))
        for i in range(len(terms))
    ]
    return nc, avgdl, idf


def nested_match_topk(
    ds_factory,
    terms: list[str],
    *,
    window: int = 16,
    k: int = 10,
    mode: str = "nested",
    score_mode: str = "max",
) -> pd.DataFrame:
    """Top-k parents for a nested ``bool.must`` over all ``terms``.

    ``ds_factory()`` must return a fresh Dataset of (doc_id, text) for
    each pass (Ray Datasets are single-consumption pipelines).
    ``mode="nested"``: all terms must match within one sub-document
    (chunk).  ``mode="flattened"``: terms may match across different
    sub-documents of the parent (the non-nested ES mapping); a chunk
    contributes if it matches ≥1 term and its parent matches all.
    Both modes score chunks against the SAME nested-doc corpus stats,
    so score differences are purely the match-scope semantics.

    ``score_mode`` aggregates the matching sub-documents' scores into
    the parent score, mirroring ES's nested-query option: ``max``,
    ``avg`` (the ES 6.x default) or ``sum``.
    """
    if mode not in ("nested", "flattened"):
        raise ValueError(f"unknown mode {mode!r}")
    if score_mode not in ("max", "avg", "sum"):
        raise ValueError(f"unknown score_mode {score_mode!r}")
    nterm = len(terms)
    _nc, avgdl, idf = nested_corpus_stats(ds_factory(), terms, window=window)

    def score_batch(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], type=pa.int64()), "score": pa.array([], type=pa.float64())}
        )
        parents, toks, n, cparent, dl, dense = _batch_chunks(b, window)
        nc = len(dl)
        if nc == 0:
            return empty
        score = np.zeros(nc, dtype=np.float64)
        nmatched = np.zeros(nc, dtype=np.int64)
        denom_dl = K1 * (1.0 - B + B * dl.astype(np.float64) / avgdl)
        doc_has = np.ones(n, dtype=bool)
        for i, t in enumerate(terms):
            m = pc.equal(toks, t).to_numpy(zero_copy_only=False)
            tf = np.bincount(dense[m], minlength=nc).astype(np.float64)
            has = tf > 0
            nmatched += has
            score[has] += idf[i] * tf[has] * (K1 + 1.0) / (tf[has] + denom_dl[has])
            doc_has &= np.bincount(parents[m], minlength=n) > 0
        if mode == "nested":
            qual = nmatched == nterm
        else:
            qual = doc_has[cparent] & (nmatched > 0)
        q = np.flatnonzero(qual)
        if len(q) == 0:
            return empty
        if score_mode == "max":
            pscore = np.full(n, -np.inf)
            np.maximum.at(pscore, cparent[q], score[q])
            pm = np.flatnonzero(pscore > -np.inf)
            sc = pscore[pm]
        else:
            psum = np.zeros(n, dtype=np.float64)
            pcnt = np.zeros(n, dtype=np.int64)
            np.add.at(psum, cparent[q], score[q])
            np.add.at(pcnt, cparent[q], 1)
            pm = np.flatnonzero(pcnt > 0)
            sc = psum[pm] / pcnt[pm] if score_mode == "avg" else psum[pm]
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)[pm].astype(np.int64)
        order = top_k(sc, doc_ids, k)
        return pa.table({"doc_id": pa.array(doc_ids[order]), "score": pa.array(sc[order])})

    part = ds_factory().map_batches(score_batch, batch_format="pyarrow").to_pandas()
    if len(part) == 0:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64), "score": pd.Series(dtype=np.float64)})
    order = top_k(part["score"].to_numpy(), part["doc_id"].to_numpy(), k)
    out = part.iloc[order].reset_index(drop=True)
    out["score"] = np.round(out["score"].to_numpy(), 6)
    return out
