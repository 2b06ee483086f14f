"""Text analysis for training-data curation: language-ID heuristic,
quality scoring, token counting (quality/fingerprint live in
pipelines/driver_queries.py with their SQL oracles; the language-ID
rule here is deliberately simple enough to mirror exactly in SQL)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..analysis import flat_tokens

# marker stopword sets per language (tiny n-gram-free heuristic; the
# POINT is the distributed shape + SQL-mirrorable determinism, not
# state-of-the-art langid)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "das", "und", "nicht", "ist"),
    "en": ("the", "and", "of", "to", "is", "in"),
    "es": ("el", "la", "los", "las", "es", "y"),
    "fr": ("le", "la", "les", "et", "est", "une"),
}
LANGS_ORDERED = tuple(sorted(LANG_MARKERS))  # deterministic tie-break order


def lang_id_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Predict language by marker-token counts; argmax with ties broken
    by language code order, 'und' (undetermined) when no marker hits."""
    import pyarrow.compute as pc

    parents, _pos, terms, n = flat_tokens(batch[text_col])
    scores = np.zeros((n, len(LANGS_ORDERED)), dtype=np.int64)
    for li, lang in enumerate(LANGS_ORDERED):
        hit = pc.is_in(terms, value_set=pa.array(list(LANG_MARKERS[lang]))).to_numpy(
            zero_copy_only=False
        )
        if hit.any():
            scores[:, li] = np.bincount(parents[hit], minlength=n)
    best = scores.argmax(axis=1)
    bestv = scores.max(axis=1)
    pred = np.where(bestv > 0, np.asarray(LANGS_ORDERED, dtype=object)[best], "und")
    return pa.table(
        {
            id_col: batch[id_col],
            "pred_lang": pa.array(pred.tolist(), type=pa.string()),
            "marker_hits": pa.array(bestv),
        }
    )


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: lang_id_batch(b, text_col, id_col), batch_format="pyarrow"
    )


def sql_lang_id(text_col: str = "text") -> str:
    """DuckDB expression mirroring :func:`lang_id_batch` exactly."""
    from ..analysis import sql_tokens_expr

    tok = sql_tokens_expr(text_col)
    counts = []
    for lang in LANGS_ORDERED:
        in_list = ", ".join(f"'{m}'" for m in LANG_MARKERS[lang])
        counts.append(f"len(list_filter(toks, t -> t IN ({in_list}))) AS c_{lang}")
    # argmax with tie-break by language order = first lang reaching the max
    greatest = "greatest(" + ", ".join(f"c_{lang}" for lang in LANGS_ORDERED) + ")"
    case = "CASE "
    for lang in LANGS_ORDERED:
        case += f"WHEN c_{lang} = m THEN '{lang}' "
    case += "END"
    cols = ", ".join(counts)
    return f"""
WITH t AS (SELECT doc_id, {tok} AS toks FROM documents),
c AS (SELECT doc_id, {cols} FROM t),
m AS (SELECT *, {greatest} AS m FROM c)
SELECT doc_id,
       CASE WHEN m = 0 THEN 'und' ELSE {case} END AS pred_lang,
       CAST(m AS BIGINT) AS marker_hits
FROM m
"""


def unigram_xent(ds, *, vocab: int = 65536, text_col: str = "text",
                 id_col: str = "doc_id"):
    """Per-document cross-entropy under the corpus unigram LM — the
    perplexity quality filter of CCNet (Wenzek et al. 2020) with a
    unigram model instead of KenLM (the distributed shape is the
    point; the model is pluggable).  The model keeps the top-``vocab``
    terms by (cf desc, term asc); out-of-vocabulary tokens score at
    count 1 (logprob ln(1/total)).

    Two narrow passes: (1) per-batch partial term counts -> one small
    groupby-sum; only the top-``vocab`` model rows and the exact int64
    token total reach the driver, broadcast once via ``ray.put`` (at
    10^9-doc scale the model is top-V of a huge vocabulary — bounded
    by construction).  (2) a streaming scoring pass: ``pc.index_in``
    token lookup against the broadcast terms, per-row logprob sums
    via ``np.bincount`` — no shuffle, no per-row Python.  Documents
    with zero tokens are dropped (no defined entropy), matching the
    SQL GROUP BY over unnested tokens."""
    import ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        _p, _pos, terms, _n = flat_tokens(b[text_col])
        t = pa.table({"term": terms})
        agg = t.group_by("term", use_threads=False).aggregate([([], "count_all")])
        return pa.table({"term": agg["term"], "n": agg["count_all"].cast(pa.int64())})

    cf = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="cf"))
        .materialize()
    )
    total = int(cf.sum("cf"))
    top = cf.sort(["cf", "term"], descending=[True, False]).limit(vocab).to_pandas()
    model_terms = pa.array(top["term"], type=pa.string())
    logp = np.log(top["cf"].to_numpy().astype(np.float64) / total)
    ln_oov = float(np.log(1.0 / total))
    ref = ray.put((model_terms, logp, ln_oov))

    empty = pa.table({
        id_col: pa.array([], type=pa.int64()),
        "xent": pa.array([], type=pa.float64()),
    })

    def score(b: pa.Table, _ref=ref) -> pa.Table:
        import pyarrow.compute as pc
        import ray as _r

        terms_m, lp, oov = _r.get(_ref)
        parents, _pos, toks, n = flat_tokens(b[text_col])
        if len(parents) == 0:
            return empty
        idx = pc.fill_null(pc.index_in(toks, value_set=terms_m), -1).to_numpy(
            zero_copy_only=False
        )
        lpv = np.where(idx >= 0, lp[np.maximum(idx, 0)], oov)
        sums = np.bincount(parents, weights=lpv, minlength=n)
        counts = np.bincount(parents, minlength=n)
        has = counts > 0
        xent = np.floor(-sums[has] / counts[has] * 1e6 + 0.5) / 1e6
        return pa.table({
            id_col: pc.take(b[id_col], pa.array(np.flatnonzero(has))).cast(pa.int64()),
            "xent": pa.array(xent),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def bigram_xent(ds, *, uni_vocab: int = 4096, bi_vocab: int = 65536,
                text_col: str = "text", id_col: str = "doc_id"):
    """Per-document cross-entropy under an add-one-smoothed corpus
    BIGRAM LM — the next step up from :func:`unigram_xent` toward the
    KenLM-style perplexity filters of CCNet (Wenzek et al. 2020):
    p(w2|w1) = (c(w1 w2) + 1) / (c(w1) + V), with V the exact distinct
    unigram count, c(w1 w2) = 0 for bigrams outside the top-``bi_vocab``
    model and c(w1) = 1 for unigrams outside the top-``uni_vocab``.

    Distributed shape mirrors the unigram filter: per-batch partial
    counts for BOTH n-gram orders fold through small groupby-sums; only
    the top-V model rows (ties broken by key — deterministic) and the
    exact vocabulary size reach the driver and broadcast once via
    ``ray.put``.  Scoring is one streaming pass: ``pc.index_in``
    against the broadcast keys (bigrams as 'w1 w2' strings — tokens
    never contain spaces), per-doc logprob sums via ``np.bincount``.
    Docs with <2 tokens have no bigram positions and are dropped,
    matching the SQL's GROUP BY over generated positions."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    def u_partial(b: pa.Table) -> pa.Table:
        _p, _pos, terms, _n = flat_tokens(b[text_col])
        agg = pa.table({"term": terms}).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": agg["term"], "n": agg["count_all"].cast(pa.int64())})

    def b_partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b[text_col])
        if len(parents) < 2:
            return pa.table({"bg": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        same = parents[1:] == parents[:-1]
        w1 = terms.slice(0, len(terms) - 1).filter(pa.array(same))
        w2 = terms.slice(1).filter(pa.array(same))
        bg = pc.binary_join_element_wise(w1, w2, " ")
        agg = pa.table({"bg": bg}).group_by("bg").aggregate([([], "count_all")])
        return pa.table({"bg": agg["bg"], "n": agg["count_all"].cast(pa.int64())})

    uni = (
        ds.map_batches(u_partial, batch_format="pyarrow")
        .groupby("term").aggregate(Sum("n", alias_name="c")).materialize()
    )
    v_size = int(uni.count())
    u_top = uni.sort(["c", "term"], descending=[True, False]).limit(uni_vocab).to_pandas()
    bi = (
        ds.map_batches(b_partial, batch_format="pyarrow")
        .groupby("bg").aggregate(Sum("n", alias_name="c"))
    )
    b_top = bi.sort(["c", "bg"], descending=[True, False]).limit(bi_vocab).to_pandas()
    ref = ray.put((
        pa.array(u_top["term"], type=pa.string()),
        u_top["c"].to_numpy().astype(np.int64),
        pa.array(b_top["bg"], type=pa.string()),
        b_top["c"].to_numpy().astype(np.int64),
        v_size,
    ))

    empty = pa.table({
        id_col: pa.array([], type=pa.int64()),
        "xent": pa.array([], type=pa.float64()),
    })

    def score(b: pa.Table, _ref=ref) -> pa.Table:
        import ray as _r

        u_terms, u_c, b_keys, b_c, v = _r.get(_ref)
        parents, _pos, toks, n = flat_tokens(b[text_col])
        if len(parents) < 2:
            return empty
        same = parents[1:] == parents[:-1]
        if not same.any():
            return empty
        w1 = toks.slice(0, len(toks) - 1).filter(pa.array(same))
        bg = pc.binary_join_element_wise(w1, toks.slice(1).filter(pa.array(same)), " ")
        bp = parents[:-1][same]
        ui = pc.fill_null(pc.index_in(w1, value_set=u_terms), -1).to_numpy(
            zero_copy_only=False
        )
        bi_ = pc.fill_null(pc.index_in(bg, value_set=b_keys), -1).to_numpy(
            zero_copy_only=False
        )
        c1 = np.where(ui >= 0, u_c[np.maximum(ui, 0)], 1).astype(np.float64)
        c2 = np.where(bi_ >= 0, b_c[np.maximum(bi_, 0)], 0).astype(np.float64)
        lp = np.log((c2 + 1.0) / (c1 + float(v)))
        sums = np.bincount(bp, weights=lp, minlength=n)
        counts = np.bincount(bp, minlength=n)
        has = counts > 0
        xent = np.floor(-sums[has] / counts[has] * 1e6 + 0.5) / 1e6
        return pa.table({
            id_col: pc.take(b[id_col], pa.array(np.flatnonzero(has))).cast(pa.int64()),
            "xent": pa.array(xent),
        })

    return ds.map_batches(score, batch_format="pyarrow")
