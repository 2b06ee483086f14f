"""Driver-checked pipelines: Ray Data implementation + DuckDB oracle SQL.

One entry per operator family from SURVEY.md §2, expressed over the
driver's parquet tables (documents / events / embeddings / TPC-H-ish).
Each Ray pipeline and its oracle SQL produce identical column names and
values (scores rounded to 6 decimals; deterministic tie-breaks), so the
driver's row-count + schema + order-insensitive value-hash comparison
passes bit-for-bit.

Design notes (100 TB posture):
- reads always pass ``columns=``; per-batch work is pyarrow/numpy
  vectorized; aggregations pre-combine per batch before the groupby
  shuffle; small sides are broadcast via ``ray.put`` not joined.
- ``bm25_topk`` is the flagship: it builds the real inverted index with
  the full Ray pipeline (build_index) over ``documents`` and answers
  with the engine's BM25 — checked against a closed-form SQL BM25.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import flat_tokens, sql_tokens_expr, tokenize_text
from ..util import collect, edit_distance, md5_digests, run_bounds, string_buffers, top_k

TOK = sql_tokens_expr("text")
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is")
BM25_QUERY = "merge sort window"
K1, B = 1.2, 0.75

_INDEX_CACHE: dict[str, str] = {}


def _round6(x: np.ndarray) -> np.ndarray:
    """Round-half-up to 6 dp via floor(x*1e6 + 0.5), mirrored in SQL as
    floor(x*1000000 + 0.5)/1000000: np.round is half-to-even but DuckDB
    round() is half-away-from-zero, so an exact .5e-6 tie (any
    power-of-two denominator makes one, e.g. a ratio k/128) would
    hash-mismatch the oracle.  Callers pass nonnegative values only."""
    return np.floor(x * 1e6 + 0.5) / 1e6


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# tokenize / stats family (A1, G2, Q21)
# ---------------------------------------------------------------------------

def q_doc_token_stats(sf_dir: str):
    """Per-doc token count (doc length bookkeeping for BM25; SURVEY G2)."""

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, _terms, n = flat_tokens(b["text"])
        counts = np.bincount(parents, minlength=n)
        return pa.table({"doc_id": b["doc_id"], "n_tokens": pa.array(counts, type=pa.int64())})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


SQL_DOC_TOKEN_STATS = f"""
SELECT doc_id, CAST(len({TOK}) AS BIGINT) AS n_tokens FROM documents
"""


def q_term_df(sf_dir: str):
    """Document frequency per term — partial per-batch combine, then a
    small groupby-sum shuffle (the BM25 df statistic; SURVEY G2)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        t = pa.table({"term": terms, "parent": pa.array(parents)})
        uniq = t.group_by(["term", "parent"]).aggregate([])
        agg = uniq.group_by("term").aggregate([("parent", "count")])
        return pa.table({"term": agg["term"], "n": agg["parent_count"].cast(pa.int64())})

    ds = _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby("term").aggregate(Sum("n", alias_name="df"))
    return out.map_batches(
        lambda b: pa.table({"term": b["term"], "df": b["df"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_TERM_DF = f"""
SELECT term, CAST(count(*) AS BIGINT) AS df
FROM (SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
GROUP BY term
"""


def q_term_tf_total(sf_dir: str):
    """Collection frequency per term (partial-agg + shuffle)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        _p, _pos, terms, _n = flat_tokens(b["text"])
        t = pa.table({"term": terms})
        agg = t.group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": agg["term"], "n": agg["count_all"].cast(pa.int64())})

    ds = _read(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby("term").aggregate(Sum("n", alias_name="cf"))
    return out.map_batches(
        lambda b: pa.table({"term": b["term"], "cf": b["cf"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_TERM_TF_TOTAL = f"""
SELECT term, CAST(count(*) AS BIGINT) AS cf
FROM (SELECT unnest({TOK}) AS term FROM documents)
GROUP BY term
"""


def q_autocomplete_prefix(sf_dir: str):
    """Prefix expansion over the term dictionary (autocomplete A4,
    max_expansions analog): top-50 'ta%' terms by df desc, term asc."""
    df = q_term_df(sf_dir)
    out = df.map_batches(
        lambda b: b.filter(pc.starts_with(b["term"], "ta")), batch_format="pyarrow"
    )
    return out.sort([("df"), ("term")], descending=[True, False]).limit(50)


SQL_AUTOCOMPLETE_PREFIX = f"""
SELECT term, CAST(count(*) AS BIGINT) AS df
FROM (SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
GROUP BY term HAVING term LIKE 'ta%'
ORDER BY df DESC, term LIMIT 50
"""


# ---------------------------------------------------------------------------
# BM25 top-k via the real index + engine (the flagship; Q1/Q16/Q17)
# ---------------------------------------------------------------------------

def _documents_as_corpus(sf_dir: str):
    """Adapt documents(doc_id,text,lang,source) to the corpus schema."""

    def f(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        return pa.table(
            {
                "repo": b["source"],
                "path": pa.array([f"{i}" for i in ids], type=pa.string()),
                "commit": pa.array([f"{i:040d}" for i in ids], type=pa.string()),
                "lang": b["lang"],
                "content": b["text"],
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"]).map_batches(
        f, batch_format="pyarrow"
    )


def _built_index(sf_dir: str) -> str:
    from ..build import build_index
    from ..config import IndexConfig

    idx = _INDEX_CACHE.get(sf_dir)
    if idx and os.path.exists(os.path.join(idx, "stats.json")):
        return idx
    from ..config import FORMAT_VERSION

    key = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    idx = f"/tmp/lighthouse_ray_idx/v{FORMAT_VERSION}-{key}"
    if not os.path.exists(os.path.join(idx, "stats.json")):
        cfg = IndexConfig(num_doc_parts=16, num_term_shards=32, route_deletes=False)
        build_index(_documents_as_corpus(sf_dir), idx, cfg)
    _INDEX_CACHE[sf_dir] = idx
    return idx


def q_bm25_topk(sf_dir: str):
    """Top-10 BM25 over documents.text for a fixed query, answered by the
    distributed index through ``topk_page`` (the vectorized scorer, cut
    in the SQL's (score desc, doc_id asc) order); oracle is closed-form
    SQL BM25.
    """
    from ..index import IndexReader
    from ..query.pagination import topk_page

    reader = IndexReader(_built_index(sf_dir))
    _ords, doc_ids, scores = topk_page(
        reader, "content", tokenize_text(BM25_QUERY), size=10
    )
    return pd.DataFrame({"doc_id": doc_ids, "score": np.round(scores, 6)})


def _sql_bm25(query: str, limit: int = 10, offset: int = 0) -> str:
    terms = tokenize_text(query)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, 6) AS score
FROM scored ORDER BY scored.score DESC, doc_id LIMIT {limit} OFFSET {offset}
"""


NESTED_QUERY = "spark window"
NESTED_WINDOW = 16


def q_nested_match(sf_dir: str):
    """ES `nested` query (Q9, the last reference semantic): the
    reference maps `value` as a true nested object
    (app/es/index/claims.go:17-19) and autocomplete queries into it
    (app/actions/auto_complete.go:69).  Nested docs here are the
    deterministic 16-token-window sub-documents of `documents.text`;
    the query is a nested bool.must of two terms — BOTH must occur in
    the SAME sub-document (terms split across a parent's different
    sub-docs do NOT match, the defining nested-vs-flattened
    difference), each sub-doc is BM25-scored independently against
    nested-corpus stats (chunk-level N/avgdl/df), and the parent takes
    its best sub-doc's score (score_mode max).  Top-10 parents by
    (score desc, doc_id asc).

    Distributed shape: one summary-row-per-batch stats fold + one
    scoring pass emitting ≤ k rows per batch; see query/nested.py."""
    from ..query.nested import nested_match_topk

    return nested_match_topk(
        lambda: _read(sf_dir, "documents", ["doc_id", "text"]),
        tokenize_text(NESTED_QUERY),
        window=NESTED_WINDOW,
        k=10,
        mode="nested",
    )


def q_nested_avg(sf_dir: str):
    """ES nested `score_mode: avg` — the ES 6.x DEFAULT aggregation of
    matching sub-document scores into the parent (the reference's
    nested autocomplete queries take this default,
    app/actions/auto_complete.go:69): same same-sub-doc bool.must as
    `nested_match`, parent score = MEAN of its matching chunks' BM25
    instead of max.  Rank order genuinely differs from max when one
    parent has a single strong chunk and another has several medium
    ones."""
    from ..query.nested import nested_match_topk

    return nested_match_topk(
        lambda: _read(sf_dir, "documents", ["doc_id", "text"]),
        tokenize_text(NESTED_QUERY),
        window=NESTED_WINDOW,
        k=10,
        mode="nested",
        score_mode="avg",
    )


def _sql_nested_match(query: str, window: int, limit: int = 10, score_mode: str = "max") -> str:
    terms = tokenize_text(query)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term, generate_subscripts({TOK}, 1) AS pos
  FROM documents
),
ch AS (
  SELECT doc_id, (pos - 1) // {window} AS chunk_id, term FROM toks
),
dl AS (SELECT doc_id, chunk_id, CAST(count(*) AS DOUBLE) AS dl
       FROM ch GROUP BY doc_id, chunk_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM dl) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM dl) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT ch.doc_id, ch.chunk_id, ch.term, CAST(count(*) AS DOUBLE) AS tf
  FROM ch JOIN qt ON ch.term = qt.term GROUP BY ch.doc_id, ch.chunk_id, ch.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
chunk_score AS (
  SELECT tf.doc_id, tf.chunk_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score,
         count(*) AS nmatched
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id AND tf.chunk_id = dl.chunk_id
  GROUP BY tf.doc_id, tf.chunk_id
),
parent AS (
  SELECT doc_id, {score_mode}(score) AS score FROM chunk_score
  WHERE nmatched = {len(terms)} GROUP BY doc_id
)
SELECT doc_id, round(score, 6) AS score
FROM parent ORDER BY parent.score DESC, doc_id LIMIT {limit}
"""


def _bm25_hits(sf_dir: str):
    """The flagship query's hits from the built index: ``(scorer, ords,
    doc_ids, scores)`` over the matching ordinals in ordinal order, raw
    BM25 scores.  The scorer stays open for further clauses."""
    from ..index import IndexReader
    from ..query.scoring import Scorer

    sc = Scorer(IndexReader(_built_index(sf_dir)))
    res = sc.match("content", tokenize_text(BM25_QUERY))
    ords = np.flatnonzero(res.mask)
    doc_ids = sc.r.docmeta()["path"].to_numpy()[ords].astype(np.int64)
    return sc, ords, doc_ids, res.scores[ords]


def _bm25_first_per_lang(sf_dir: str, n: int) -> pd.DataFrame:
    """The first ``n`` hits of each lang in the flagship query's one
    ranking (6-dp score desc, doc_id asc), kept in ranking order."""
    sc, ords, doc_ids, scores = _bm25_hits(sf_dir)
    s6 = _round6(scores)
    order = top_k(s6, doc_ids)
    hits = pd.DataFrame({
        "lang": sc.r.docmeta()["lang"].to_numpy()[ords[order]],
        "doc_id": doc_ids[order],
        "score": s6[order],
    })
    return hits[hits.groupby("lang", dropna=False).cumcount() < n].reset_index(drop=True)


def q_collapse_topk(sf_dir: str):
    """ES field collapsing (the `collapse` search option of the
    reference's ES 6.x backend; companion to Q16/Q17 top-k,
    `app/actions/search/search.go:96-116`): BM25-score every doc
    matching the query, keep exactly ONE best hit per collapse key
    (`lang` here; channel/repo in the reference's data model), and
    return the collapsed groups ordered by their winning hit.

    Distributed shape: the Ray index build (cached per scale factor) is
    the distributed part; df, avgdl and doc lengths come from it, not
    from a scan.  The query is one ``Scorer.match`` over the index's
    postings, one (score desc, doc_id asc) ranking, and the first hit
    per lang — the same step ``group_topk_hits`` takes two deep.  The
    collapsed groups are already in ranking order, so the page is the
    first 10."""
    return _bm25_first_per_lang(sf_dir, 1).head(10)


BOOSTING_NEG_TERM, BOOSTING_NEG_FACTOR = "spark", 0.4


def q_boosting_topk(sf_dir: str):
    """ES `boosting` query (positive scored, negative DEMOTED — not
    excluded — by `negative_boost`; an ES 6.x compound the reference's
    backend exposes alongside the bool compounds of
    `app/actions/search/query.go:21-71`): BM25 over the standard query,
    ×0.4 for docs containing the negative term, global top-10.

    Distributed shape: both clauses are ``Scorer.match`` queries over
    the built index (the Ray build is the distributed part); the
    demotion is one vectorized ``where`` over the positive hits and the
    page one ``top_k`` cut on (6-dp score desc, doc_id asc)."""
    sc, ords, doc_ids, scores = _bm25_hits(sf_dir)
    neg = sc.match("content", [BOOSTING_NEG_TERM]).mask[ords]
    s6 = _round6(np.where(neg, scores * BOOSTING_NEG_FACTOR, scores))
    order = top_k(s6, doc_ids, 10)
    return pd.DataFrame({"doc_id": doc_ids[order], "score": s6[order]})


def _sql_boosting_topk() -> str:
    terms = tokenize_text(BM25_QUERY)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
),
neg AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{BOOSTING_NEG_TERM}'),
demoted AS (
  SELECT s.doc_id,
         floor(s.score * CASE WHEN n.doc_id IS NULL THEN 1.0
                              ELSE {BOOSTING_NEG_FACTOR} END
               * 1000000 + 0.5) / 1000000 AS score
  FROM scored s LEFT JOIN neg n ON s.doc_id = n.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, score
FROM demoted ORDER BY score DESC, doc_id LIMIT 10
"""


def _sql_collapse_topk() -> str:
    terms = tokenize_text(BM25_QUERY)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
),
hit AS (
  SELECT d.lang, s.doc_id,
         floor(s.score * 1000000 + 0.5) / 1000000 AS score
  FROM scored s JOIN documents d ON s.doc_id = d.doc_id
),
best AS (
  SELECT lang, doc_id, score,
         row_number() OVER (PARTITION BY lang ORDER BY score DESC, doc_id) AS rn
  FROM hit
)
SELECT lang, CAST(doc_id AS BIGINT) AS doc_id, score
FROM best WHERE rn = 1 ORDER BY score DESC, doc_id LIMIT 10
"""


# ---------------------------------------------------------------------------
# filters / sort / topk / counts (Q4-Q8, Q16, Q17, Q21)
# ---------------------------------------------------------------------------

def q_partitioned_sink(sf_dir: str):
    """Resumable partitioned-parquet sink (S-family): documents written
    as one directory per language (the unit a restarted run can skip),
    then read back with PARTITION PRUNING — only the `lang=en`
    directory's files are opened — and aggregated.  The write happens
    once (idempotent marker); hash-partitioned output + manifested
    reads is the same pattern every build stage uses."""
    import hashlib as _h
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    src = os.path.join(sf_dir, "documents.parquet")
    root = os.path.join(
        "/tmp/lighthouse_ray_sink", _h.sha256(src.encode()).hexdigest()[:16]
    )
    marker = os.path.join(root, ".complete")
    if not os.path.exists(marker):
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).write_parquet(
            root, partition_cols=["lang"]
        )
        open(marker, "w").write("ok")

    en = rd.read_parquet(os.path.join(root, "lang=en"))

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([b.num_rows], type=pa.int64()),
                "sum_chars": pa.array(
                    [int(b["n_chars"].to_numpy(zero_copy_only=False).sum())],
                    type=pa.int64(),
                ),
            }
        )

    out = en.map_batches(partial, batch_format="pyarrow").groupby(None).aggregate(
        Sum("n", alias_name="n"), Sum("sum_chars", alias_name="sum_chars")
    )
    return out.map_batches(
        lambda b: pa.table(
            {"n": b["n"].cast(pa.int64()), "sum_chars": b["sum_chars"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


SQL_PARTITIONED_SINK = """
SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents WHERE lang = 'en'
"""


def q_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    out = _read(sf_dir, "documents", ["lang"]).groupby("lang").aggregate(Count(alias_name="n"))
    return out.map_batches(
        lambda b: pa.table({"lang": b["lang"], "n": b["n"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_LANG_COUNTS = "SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang"


def q_filter_terms_range(sf_dir: str):
    """terms + range filter (Q5/Q6): en/de docs longer than 300 chars."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.is_in(b["lang"], value_set=pa.array(["en", "de"])), pc.greater(b["n_chars"], 300))
        ),
        batch_format="pyarrow",
    )


SQL_FILTER_TERMS_RANGE = """
SELECT doc_id, lang, n_chars FROM documents WHERE lang IN ('en','de') AND n_chars > 300
"""


def q_sort_topk(sf_dir: str):
    """Global sort + limit (Q16/Q17): 20 longest docs."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


SQL_SORT_TOPK = """
SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 20
"""


# ---------------------------------------------------------------------------
# dedup / fingerprint (G4/G5 + training-data ops)
# ---------------------------------------------------------------------------

def _md5_hex(col) -> pa.Array:
    """md5 per row of a string column as lowercase hex, the way SQL
    ``md5()`` prints it (one ``bytes.hex`` over every digest)."""
    d = md5_digests(col)
    offsets = np.arange(0, 32 * len(d) + 1, 32, dtype=np.int32)
    return pa.StringArray.from_buffers(
        len(d), pa.py_buffer(offsets), pa.py_buffer(d.tobytes().hex().encode())
    )


def q_exact_dedup(sf_dir: str):
    """Exact dedup by content hash: hash-partition groupby with plain
    Min/Count aggregates (no per-group Python) — the distributed form of
    G4/G5."""
    from ray.data.aggregate import Count, Min

    def add_hash(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "h": _md5_hex(b["text"])})

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(add_hash, batch_format="pyarrow")
    out = ds.groupby("h").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="dup_cnt")
    )
    return out.map_batches(
        lambda b: pa.table(
            {"doc_id": b["doc_id"].cast(pa.int64()), "dup_cnt": b["dup_cnt"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


SQL_EXACT_DEDUP = """
SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS dup_cnt
FROM documents GROUP BY md5(text)
"""


def q_fingerprint(sf_dir: str):
    """Document fingerprinting: md5 over the normalized token stream."""

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        counts = np.bincount(parents, minlength=n)
        offs = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=offs[1:])
        # vectorized "tok tok tok" per doc: list-wrap the flat terms then
        # one binary_join kernel; md5 over the joined buffer slices
        lists = pa.ListArray.from_arrays(pa.array(offs), terms)
        joined = pc.binary_join(lists, " ")
        return pa.table({"doc_id": b["doc_id"], "fingerprint": _md5_hex(joined)})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


SQL_FINGERPRINT = f"""
SELECT doc_id, md5(array_to_string({TOK}, ' ')) AS fingerprint FROM documents
"""


def q_tfidf_keywords(sf_dir: str):
    """Keyword extraction: top-3 TF-IDF terms per document, ranked by
    the ratio tf·N/df (division-only — IEEE-exact vs the SQL oracle),
    ties by term.  Doc-term tf partials join the df table through ONE
    reduce-side shuffle join, then a doc-keyed exchange takes each
    run's head-3 — the same two primitives every wide op here uses."""
    from ..functions.exchange import spill_exchange
    from ..functions.joins import shuffle_join

    import pyarrow.parquet as _pq

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows

    def tf_partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        t = pa.table({"doc_id": pc.take(ids, pa.array(parents)), "term": terms})
        g = t.group_by(["doc_id", "term"], use_threads=False).aggregate([([], "count_all")])
        return pa.table(
            {"doc_id": g["doc_id"], "term": g["term"], "tf": g["count_all"].cast(pa.int64())}
        )

    def df_partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        t = pa.table({"term": terms, "p": pa.array(parents)})
        u = t.group_by(["term", "p"], use_threads=False).aggregate([])
        g = u.group_by("term", use_threads=False).aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "c": g["count_all"].cast(pa.int64())})

    def df_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"term": pa.array([], type=pa.string()), "df": pa.array([], type=pa.int64())}
            )
        g = t.group_by("term", use_threads=False).aggregate([("c", "sum")])
        return pa.table({"term": g["term"], "df": g["c_sum"].cast(pa.int64())})

    dst: dict = {}
    dfs = spill_exchange(
        docs.map_batches(df_partial, batch_format="pyarrow"), "term", df_reduce,
        num_parts=16, stats=dst,
    )
    tfs = docs.map_batches(tf_partial, batch_format="pyarrow")
    jst: dict = {}
    joined = shuffle_join(tfs, dfs, key="term", lcols=["doc_id", "tf"], rcols=["df"],
                          num_parts=16, stats=jst, cleanup_after=[dst["root"]])

    def head3(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "score": pa.array([], type=pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_ = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _round6(tf.astype(np.float64) * n_docs / df_)
        t = t.append_column("score", pa.array(s))
        t = t.sort_by(
            [("doc_id", "ascending"), ("score", "descending"), ("term", "ascending")]
        ).combine_chunks()
        starts, lens = run_bounds(t["doc_id"].combine_chunks())
        k = np.minimum(lens, 3)
        cum = np.zeros(len(k), dtype=np.int64)
        np.cumsum(k[:-1], out=cum[1:])
        idx = np.repeat(starts, k) + (np.arange(int(k.sum()), dtype=np.int64) - np.repeat(cum, k))
        t = t.take(pa.array(idx))
        return t.select(["doc_id", "term", "score"])

    return spill_exchange(joined, "doc_id", head3, num_parts=16,
                          cleanup_after=[jst["root"]])


SQL_TFIDF_KEYWORDS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
pos AS (SELECT doc_id, unnest(t) AS term FROM toks),
tf AS (SELECT doc_id, term, count(*) AS tf FROM pos GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM pos GROUP BY term),
n AS (SELECT count(*) AS n FROM documents)
SELECT tf.doc_id, tf.term,
       floor(CAST(tf.tf AS DOUBLE) * n.n / df.df * 1000000 + 0.5) / 1000000 AS score
FROM tf JOIN df ON tf.term = df.term CROSS JOIN n
QUALIFY row_number() OVER (
  PARTITION BY tf.doc_id
  ORDER BY floor(CAST(tf.tf AS DOUBLE) * n.n / df.df * 1000000 + 0.5) / 1000000
    DESC, tf.term) <= 3
"""


PMI_W, PMI_MIN_C, PMI_TOPK = 3, 5, 50


def q_pmi_pairs(sf_dir: str):
    """Term-association mining: top-k ordered token pairs co-occurring
    within a ±3 window, ranked by the PMI ratio c_xy·n/(c_x·c_y).

    Pair counts come from slice-shifted flat-token streams (no per-row
    loops) through one exchange; unigram counts are a vocab-bounded
    aggregate; the two count joins are reduce-side shuffle joins
    (functions/joins.py).  The score stays a pure multiply/divide of
    integer counts — IEEE-exact on both sides, so the oracle's rounded
    ranking matches bit-for-bit (no transcendental log in the compare).
    """
    from ..functions.exchange import spill_exchange
    from ..functions.joins import shuffle_join

    docs = _read(sf_dir, "documents", ["text"])

    def pair_partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        L = len(parents)
        parts = []
        for d in range(1, PMI_W + 1):
            wn = L - d
            if wn <= 0:
                continue
            valid = pa.array(parents[:wn] == parents[d : d + wn])
            parts.append(
                pa.table(
                    {
                        "t1": terms.slice(0, wn).filter(valid),
                        "t2": terms.slice(d, wn).filter(valid),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "t1": pa.array([], type=pa.string()),
                    "t2": pa.array([], type=pa.string()),
                    "c": pa.array([], type=pa.int64()),
                }
            )
        t = pa.concat_tables(parts)
        g = t.group_by(["t1", "t2"], use_threads=False).aggregate([([], "count_all")])
        return pa.table({"t1": g["t1"], "t2": g["t2"], "c": g["count_all"].cast(pa.int64())})

    def uni_partial(b: pa.Table) -> pa.Table:
        _parents, _pos, terms, _n = flat_tokens(b["text"])
        g = pa.table({"term": terms}).group_by("term", use_threads=False).aggregate(
            [([], "count_all")]
        )
        return pa.table({"term": g["term"], "c": g["count_all"].cast(pa.int64())})

    def sum_reduce(cols, out_c):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {**{c: pa.array([], type=pa.string()) for c in cols},
                     out_c: pa.array([], type=pa.int64())}
                )
            g = t.group_by(cols, use_threads=False).aggregate([("c", "sum")])
            return pa.table(
                {**{c: g[c] for c in cols}, out_c: g["c_sum"].cast(pa.int64())}
            )

        return f

    pst: dict = {}
    ust: dict = {}
    pairs = spill_exchange(
        docs.map_batches(pair_partial, batch_format="pyarrow"),
        ["t1", "t2"], sum_reduce(["t1", "t2"], "c_xy"), num_parts=16, stats=pst,
    )
    uni = spill_exchange(
        docs.map_batches(uni_partial, batch_format="pyarrow"),
        "term", sum_reduce(["term"], "cx"), num_parts=16, stats=ust,
    )
    n_total = sum(
        r["n"]
        for r in collect(uni.map_batches(
            lambda b: pa.table(
                {"n": pa.array([int(b["cx"].to_numpy(zero_copy_only=False).sum())
                                if b.num_rows else 0], type=pa.int64())}
            ),
            batch_format="pyarrow",
        )).to_pylist()
    )

    j1st: dict = {}
    j1 = shuffle_join(
        pairs.map_batches(
            lambda b: pa.table({"term": b["t1"], "t2": b["t2"], "c_xy": b["c_xy"]}),
            batch_format="pyarrow",
        ),
        uni, key="term", lcols=["t2", "c_xy"], rcols=["cx"], num_parts=16,
        stats=j1st, cleanup_after=[pst["root"]],  # pairs fully consumed here
    ).map_batches(
        lambda b: pa.table(
            {"term": b["t2"], "t1": b["term"], "c_xy": b["c_xy"], "cx": b["cx"]}
        ),
        batch_format="pyarrow",
    )
    uni2 = uni.map_batches(
        lambda b: pa.table({"term": b["term"], "cy": b["cx"]}), batch_format="pyarrow"
    )
    # j2's map pass drains both the first join's root and (via uni2)
    # the unigram root — GC both
    j2 = shuffle_join(j1, uni2, key="term", lcols=["t1", "c_xy", "cx"], rcols=["cy"],
                      num_parts=16, cleanup_after=[j1st["root"], ust["root"]])

    def score(b: pa.Table) -> pa.Table:
        c = b["c_xy"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = c >= PMI_MIN_C
        b = b.filter(pa.array(keep))
        c = c[keep]
        cx = b["cx"].to_numpy(zero_copy_only=False).astype(np.int64)
        cy = b["cy"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _round6(c.astype(np.float64) * n_total / (cx * cy))
        return pa.table(
            {
                "t1": b["t1"],
                "t2": b["term"],
                "c_xy": pa.array(c),
                "score": pa.array(s),
            }
        )

    return (
        j2.map_batches(score, batch_format="pyarrow")
        .sort(["score", "t1", "t2"], descending=[True, False, False])
        .limit(PMI_TOPK)
    )


SQL_PMI_PAIRS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
pos AS (SELECT doc_id, unnest(t) AS term, generate_subscripts(t, 1) AS p FROM toks),
pairs AS (
  SELECT a.term AS t1, b.term AS t2, count(*) AS c_xy
  FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p - a.p BETWEEN 1 AND {PMI_W}
  GROUP BY a.term, b.term
),
uni AS (SELECT term, count(*) AS c FROM pos GROUP BY term),
tot AS (SELECT count(*) AS n FROM pos)
SELECT p.t1, p.t2, CAST(p.c_xy AS BIGINT) AS c_xy,
       floor(CAST(p.c_xy AS DOUBLE) * t.n / (ua.c * ub.c) * 1000000 + 0.5) / 1000000 AS score
FROM pairs p CROSS JOIN tot t
JOIN uni ua ON p.t1 = ua.term JOIN uni ub ON p.t2 = ub.term
WHERE p.c_xy >= {PMI_MIN_C}
ORDER BY score DESC, p.t1, p.t2 LIMIT {PMI_TOPK}
"""


CHUNK_SIZE, CHUNK_STRIDE = 64, 48  # 16-token overlap


def q_chunk_text(sf_dir: str):
    """Document chunking for context windows (the standard LLM
    preprocessing op): overlapping fixed-token windows over the
    normalized token stream — chunk k covers tokens
    [k*stride, k*stride+size), k while k*stride < len.  Fully
    vectorized: one flat_tokens pass, window index arithmetic in
    numpy, one ListArray + binary_join to materialize every chunk
    string in a single kernel.  Narrow op — no shuffle."""

    def f(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "chunk_idx": pa.array([], type=pa.int64()),
                "chunk": pa.array([], type=pa.string()),
                "n_tokens": pa.array([], type=pa.int64()),
            }
        )
        parents, _pos, terms, n = flat_tokens(b["text"])
        if len(parents) == 0:
            return empty
        L = np.bincount(parents, minlength=n).astype(np.int64)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(L, out=offs[1:])
        nch = np.where(L > 0, (L - 1) // CHUNK_STRIDE + 1, 0)
        total = int(nch.sum())
        if total == 0:
            return empty
        doc_of = np.repeat(np.arange(n), nch)
        cum = np.zeros(n, dtype=np.int64)
        np.cumsum(nch[:-1], out=cum[1:])
        k = np.arange(total, dtype=np.int64) - cum[doc_of]
        starts = offs[doc_of] + k * CHUNK_STRIDE
        ends = np.minimum(starts + CHUNK_SIZE, offs[doc_of + 1])
        lens = ends - starts
        # flat token indices of every chunk (overlap duplicates tokens)
        ccum = np.zeros(total, dtype=np.int64)
        np.cumsum(lens[:-1], out=ccum[1:])
        flat_idx = np.repeat(starts - ccum, lens) + np.arange(int(lens.sum()), dtype=np.int64)
        chunk_offs = np.zeros(total + 1, dtype=np.int32)
        np.cumsum(lens, out=chunk_offs[1:])
        lists = pa.ListArray.from_arrays(
            pa.array(chunk_offs), pc.take(terms, pa.array(flat_idx))
        )
        ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        return pa.table(
            {
                "doc_id": pc.take(ids, pa.array(doc_of)),
                "chunk_idx": pa.array(k),
                "chunk": pc.binary_join(lists, " "),
                "n_tokens": pa.array(lens),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_CHUNK_TEXT = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
k AS (
  SELECT doc_id, t, unnest(range(0, ((len(t) - 1) // {CHUNK_STRIDE}) + 1)) AS ck
  FROM toks WHERE len(t) > 0
)
SELECT doc_id, CAST(ck AS BIGINT) AS chunk_idx,
       array_to_string(t[ck * {CHUNK_STRIDE} + 1 : ck * {CHUNK_STRIDE} + {CHUNK_SIZE}], ' ') AS chunk,
       CAST(least({CHUNK_SIZE}, len(t) - ck * {CHUNK_STRIDE}) AS BIGINT) AS n_tokens
FROM k
"""


def q_hash_split(sf_dir: str):
    """Deterministic train/val split by content hash — the standard
    leakage-safe dataset partitioner (duplicate payloads always land in
    the same split; assignment is reproducible across runs, layouts and
    cluster sizes).  ~90% train: first md5 byte < 0xe6.  Narrow per-row
    map; the md5 runs over the raw UTF-8 buffer slices."""

    def f(b: pa.Table) -> pa.Table:
        h = _md5_hex(b["text"])
        is_train = pc.less(pc.utf8_slice_codeunits(h, 0, 2), "e6")
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "split": pc.if_else(is_train, "train", "val"),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_HASH_SPLIT = """
SELECT doc_id,
       CASE WHEN substr(md5(text), 1, 2) < 'e6' THEN 'train' ELSE 'val' END AS split
FROM documents
"""

# per-language keep rates as fixed-width hex thresholds (rate =
# int(thr,16)/65536): downsample over-represented languages, keep the
# rest whole.  Fixed-width lowercase hex compares LEXICOGRAPHICALLY
# like the number it encodes, so both sides are pure string compares.
SAMPLE_THR = {"en": "8000", "de": "c000"}  # en 50%, de 75%, others 100%


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: per-language keep rates
    applied via a content-hash threshold (first 4 md5 hex chars below
    the language's threshold), so the SAME documents are kept on every
    run, at any parallelism, and duplicate payloads sample
    identically — the leakage-safe way to downsample over-represented
    strata.  Narrow per-row map; no shuffle."""

    def f(b: pa.Table) -> pa.Table:
        h4 = pc.utf8_slice_codeunits(_md5_hex(b["text"]), 0, 4)
        thr = pa.array(
            [SAMPLE_THR.get(lang, "ffffg")  # > any hex: keep all
             for lang in b["lang"].to_pylist()],
            type=pa.string(),
        )
        return pa.table({"doc_id": b["doc_id"], "lang": b["lang"]}).filter(
            pc.less(h4, thr)
        )

    return _read(sf_dir, "documents", ["doc_id", "lang", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, lang FROM documents
WHERE substr(md5(text), 1, 4) <
      CASE lang WHEN 'en' THEN '{SAMPLE_THR['en']}' WHEN 'de' THEN '{SAMPLE_THR['de']}'
                ELSE 'ffffg' END
"""


# data-mixing weights per source (lang): how many EPOCHS of each source
# the training mixture sees.  >1 oversamples by repetition (the LLM
# data-mixture convention: "books seen 2.3 epochs"), <1 subsamples.
# The fractional epoch keeps rows by content-hash threshold (first 4
# md5 hex chars of "text#epoch"), so the mixture is deterministic at
# any parallelism and duplicate payloads repeat identically.
MIX_WEIGHTS = {"en": 0.5, "de": 2.3}  # other langs: 1.0
_MIX_DEFAULT = 1.0


def _mix_parts(w: float) -> tuple[int, str]:
    """(full epochs, fractional-epoch hex threshold) for one weight."""
    full = int(w)
    frac = w - full
    thr = format(int(frac * 65536), "04x") if frac > 0 else ""
    return full, thr


def q_mix_weights(sf_dir: str):
    """Epoch-weighted data mixing: every source (lang) is repeated
    floor(w) full epochs plus one fractional epoch sampled by content
    hash — output rows (doc_id, lang, epoch).  The standard way a
    training mixture oversamples small high-quality sources and
    downsamples large ones; fully deterministic (pure row function, no
    shuffle, no RNG state)."""
    weights = {
        lang: _mix_parts(w) for lang, w in MIX_WEIGHTS.items()
    }
    default = _mix_parts(_MIX_DEFAULT)
    max_epoch = max(
        [f + (1 if t else 0) for f, t in weights.values()]
        + [default[0] + (1 if default[1] else 0)]
    )

    def f(b: pa.Table) -> pa.Table:
        langs = b["lang"].to_pylist()
        full = np.array([weights.get(l, default)[0] for l in langs], dtype=np.int64)
        thr = pa.array(
            [weights.get(l, default)[1] or "0000" for l in langs], type=pa.string()
        )
        outs = []
        for e in range(max_epoch):
            in_full = full > e
            at_frac = full == e
            if at_frac.any():
                salted = pc.binary_join_element_wise(
                    b["text"], pa.array([f"#{e}"] * b.num_rows, type=pa.string()), ""
                )
                h4 = pc.utf8_slice_codeunits(_md5_hex(salted), 0, 4)
                frac_keep = pc.and_(pa.array(at_frac), pc.less(h4, thr))
                keep = pc.or_(pa.array(in_full), frac_keep)
            else:
                keep = pa.array(in_full)
            sub = pa.table({"doc_id": b["doc_id"], "lang": b["lang"]}).filter(keep)
            outs.append(
                sub.append_column(
                    "epoch", pa.array(np.full(sub.num_rows, e, dtype=np.int64))
                )
            )
        return pa.concat_tables(outs)

    return _read(sf_dir, "documents", ["doc_id", "lang", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def _mix_sql_cases() -> tuple[str, str]:
    fulls, thrs = [], []
    for lang, w in MIX_WEIGHTS.items():
        full, thr = _mix_parts(w)
        fulls.append(f"WHEN '{lang}' THEN {full}")
        thrs.append(f"WHEN '{lang}' THEN '{thr or '0000'}'")
    dfull, dthr = _mix_parts(_MIX_DEFAULT)
    return (
        f"CASE lang {' '.join(fulls)} ELSE {dfull} END",
        f"CASE lang {' '.join(thrs)} ELSE '{dthr or '0000'}' END",
    )


_MIX_FULL_SQL, _MIX_THR_SQL = _mix_sql_cases()
_MIX_MAX_EPOCH = max(
    int(w) + (1 if w != int(w) else 0) for w in list(MIX_WEIGHTS.values()) + [_MIX_DEFAULT]
)

SQL_MIX_WEIGHTS = f"""
WITH e AS (SELECT unnest(range(0, {_MIX_MAX_EPOCH})) AS epoch)
SELECT d.doc_id, d.lang, CAST(e.epoch AS BIGINT) AS epoch
FROM documents d CROSS JOIN e
WHERE e.epoch < ({_MIX_FULL_SQL})
   OR (e.epoch = ({_MIX_FULL_SQL})
       AND substr(md5(d.text || '#' || CAST(e.epoch AS VARCHAR)), 1, 4)
           < ({_MIX_THR_SQL}))
"""


# ---------------------------------------------------------------------------
# text quality / language stats (training-data ops; M2 analog)
# ---------------------------------------------------------------------------

def q_quality_stats(sf_dir: str):
    """Quality scoring: token count, stopword ratio, mean token length."""

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        counts = np.bincount(parents, minlength=n).astype(np.float64)
        is_stop = pc.is_in(terms, value_set=pa.array(list(STOPWORDS))).to_numpy(
            zero_copy_only=False
        )
        stop_counts = np.bincount(parents[is_stop], minlength=n)
        tok_lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False).astype(np.float64)
        len_sums = np.bincount(parents, weights=tok_lens, minlength=n)
        safe = np.maximum(counts, 1.0)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(counts.astype(np.int64)),
                "stop_ratio": pa.array(_round6(stop_counts / safe)),
                "mean_tok_len": pa.array(_round6(len_sums / safe)),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


_STOP_SQL = ", ".join(f"'{s}'" for s in STOPWORDS)
SQL_QUALITY_STATS = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents)
SELECT doc_id,
  CAST(len(toks) AS BIGINT) AS n_tokens,
  floor(CAST(len(list_filter(toks, x -> x IN ({_STOP_SQL}))) AS DOUBLE)
        / greatest(len(toks), 1) * 1000000 + 0.5) / 1000000 AS stop_ratio,
  floor(CAST(list_sum(list_transform(toks, x -> CAST(length(x) AS DOUBLE))) AS DOUBLE)
        / greatest(len(toks), 1) * 1000000 + 0.5) / 1000000 AS mean_tok_len
FROM t
"""


# ---------------------------------------------------------------------------
# incremental / upsert (S1 watermark, G5 last-write-wins) over events
# ---------------------------------------------------------------------------

WATERMARK = "2024-01-15 00:00:00"


def q_multiformat_source(sf_dir: str):
    """Source-format coverage (S-family): the SAME events table served
    as JSONL and CSV, read through ``ray.data.read_json`` /
    ``read_csv``, with typed values (timestamps, doubles, embedded JSON
    strings) surviving both decoders — verified by per-(format, type)
    counts and exact cent sums that must agree with the parquet oracle.
    The /tmp copies are derived from the given table once (idempotent
    marker), never synthesized."""
    import hashlib as _h
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    src = os.path.join(sf_dir, "events.parquet")
    root = os.path.join(
        "/tmp/lighthouse_ray_srcfmt", _h.sha256(src.encode()).hexdigest()[:16]
    )
    marker = os.path.join(root, ".complete")
    if not os.path.exists(marker):
        os.makedirs(os.path.join(root, "jsonl"), exist_ok=True)
        os.makedirs(os.path.join(root, "csv"), exist_ok=True)
        df = pd.read_parquet(src, columns=["event_type", "ts", "value", "props"])
        df["ts"] = df["ts"].astype("datetime64[us]").astype(str)
        df.to_json(os.path.join(root, "jsonl", "events.jsonl"),
                   orient="records", lines=True)
        df.to_csv(os.path.join(root, "csv", "events.csv"), index=False)
        open(marker, "w").write("ok")

    def agg(fmt: str, ds):
        def partial(b: pa.Table) -> pa.Table:
            cents = np.round(
                b["value"].to_numpy(zero_copy_only=False).astype(np.float64) * 100.0
            ).astype(np.int64)
            t = pa.table({"event_type": b["event_type"], "cents": pa.array(cents)})
            g = t.group_by("event_type", use_threads=False).aggregate(
                [("cents", "count"), ("cents", "sum")]
            )
            return pa.table(
                {
                    "format": pa.array([fmt] * g.num_rows, type=pa.string()),
                    "event_type": g["event_type"],
                    "n": g["cents_count"].cast(pa.int64()),
                    "cents": g["cents_sum"].cast(pa.int64()),
                }
            )

        return ds.map_batches(partial, batch_format="pyarrow")

    both = agg("jsonl", rd.read_json(os.path.join(root, "jsonl"))).union(
        agg("csv", rd.read_csv(os.path.join(root, "csv")))
    )
    out = both.groupby(["format", "event_type"]).aggregate(
        Sum("n", alias_name="n"), Sum("cents", alias_name="cents")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "format": b["format"],
                "event_type": b["event_type"],
                "n": b["n"].cast(pa.int64()),
                "sum_value": pc.divide(b["cents"].cast(pa.float64()), 100.0),
            }
        ),
        batch_format="pyarrow",
    )


SQL_MULTIFORMAT_SOURCE = """
SELECT f.format, e.event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
FROM events e CROSS JOIN (VALUES ('jsonl'), ('csv')) f(format)
GROUP BY f.format, e.event_type
"""


def q_events_watermark(sf_dir: str):
    """Incremental-sync filter (chainquery.go:102 keyset analog):
    events at/after the watermark, counted per type."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(pc.greater_equal(b["ts"], pa.scalar(pd.Timestamp(WATERMARK)))),
        batch_format="pyarrow",
    )
    out = ds.groupby("event_type").aggregate(Count(alias_name="n"))
    return out.map_batches(
        lambda b: pa.table({"event_type": b["event_type"], "n": b["n"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_EVENTS_WATERMARK = f"""
SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events
WHERE ts >= TIMESTAMP '{WATERMARK}' GROUP BY event_type
"""


PCTS = [("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p95", 0.95), ("p99", 0.99)]


def q_percentiles(sf_dir: str):
    """EXACT per-language percentiles of n_chars without a global sort:
    per-batch (lang, value) count partials collapse the data to its
    value DOMAIN (bounded for discrete columns), one exchange by lang
    builds each language's cumulative histogram, and the q-quantile is
    the smallest value whose cumulative count reaches ceil(q*n) — the
    same discrete-rank definition DuckDB's quantile_disc uses, so the
    oracle matches exactly.  Shuffled volume is (langs x distinct
    values), never the row count."""
    from ..functions.exchange import spill_exchange

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["lang", "n_chars"]).group_by(
            ["lang", "n_chars"], use_threads=False
        ).aggregate([([], "count_all")])
        return pa.table(
            {"lang": g["lang"], "v": g["n_chars"], "c": g["count_all"].cast(pa.int64())}
        )

    parts = _read(sf_dir, "documents", ["lang", "n_chars"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def pct_reduce(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang": pa.array([], type=pa.string()),
                "q": pa.array([], type=pa.string()),
                "value": pa.array([], type=pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        g = t.group_by(["lang", "v"], use_threads=False).aggregate([("c", "sum")])
        g = g.sort_by([("lang", "ascending"), ("v", "ascending")]).combine_chunks()
        starts, lens = run_bounds(g["lang"].combine_chunks())
        c = g["c_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g["v"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(c)
        langs_out, q_out, v_out = [], [], []
        for s, ln in zip(starts, lens):  # iterations = distinct langs
            seg = cum[s : s + ln] - (cum[s - 1] if s else 0)
            n = int(seg[-1])
            ranks = np.array([int(np.ceil(qv * n)) for _name, qv in PCTS])
            idx = np.searchsorted(seg, ranks)
            langs_out.extend([g["lang"][s].as_py()] * len(PCTS))
            q_out.extend(name for name, _qv in PCTS)
            v_out.extend(v[s + idx])
        return pa.table(
            {
                "lang": pa.array(langs_out, type=pa.string()),
                "q": pa.array(q_out, type=pa.string()),
                "value": pa.array(np.asarray(v_out, dtype=np.int64)),
            }
        )

    return spill_exchange(parts, "lang", pct_reduce, num_parts=8)


SQL_PERCENTILES = "\nUNION ALL\n".join(
    f"SELECT lang, '{name}' AS q, CAST(quantile_disc(n_chars, {qv}) AS BIGINT) AS value "
    f"FROM documents GROUP BY lang"
    for name, qv in PCTS
)


def q_json_props(sf_dir: str):
    """JSON value parser with null-skip (M1): parse ``events.props``
    (a JSON string column), extract ``$.k``, DROP rows whose JSON is
    missing, malformed, or carries no non-null ``k`` — the reference
    parses each claim's ``value_as_json`` the same way and only keeps
    parseable values (app/model/claim.go:88-95) — then aggregate the
    survivors per event_type.

    The parse is vectorized (polars ``str.json_path_match`` over the
    Arrow column, no per-row json.loads), the per-batch combine keeps
    at most one row per event_type, and the final groupby is over that
    tiny partial — the same partial-aggregate shape every counts query
    here uses."""
    from ray.data.aggregate import Sum

    def parse(b: pa.Table) -> pa.Table:
        import polars as pl

        empty = pa.table(
            {
                "event_type": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "sum_k": pa.array([], type=pa.int64()),
            }
        )
        if b.num_rows == 0:
            return empty
        k = (
            pl.from_arrow(b["props"].combine_chunks())
            .str.json_path_match("$.k")
            .cast(pl.Int64, strict=False)
            .to_arrow()
        )
        t = pa.table({"event_type": b["event_type"], "k": k.cast(pa.int64())})
        t = t.filter(pc.is_valid(t["k"]))
        if t.num_rows == 0:
            return empty
        g = t.group_by("event_type", use_threads=False).aggregate(
            [("k", "count"), ("k", "sum")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": g["k_count"].cast(pa.int64()),
                "sum_k": g["k_sum"].cast(pa.int64()),
            }
        )

    partial = _read(sf_dir, "events", ["event_type", "props"]).map_batches(
        parse, batch_format="pyarrow"
    )
    out = partial.groupby("event_type").aggregate(
        Sum("n", alias_name="n"), Sum("sum_k", alias_name="sum_k")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_type": b["event_type"],
                "n": b["n"].cast(pa.int64()),
                "sum_k": b["sum_k"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# TRY_CAST-to-JSON mirrors the null-skip: malformed/missing JSON and
# JSON-null k all become SQL NULL and are dropped before the aggregate
SQL_JSON_PROPS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n, CAST(sum(k) AS BIGINT) AS sum_k
FROM (
  SELECT event_type,
         TRY_CAST(json_extract_string(TRY_CAST(props AS JSON), '$.k') AS BIGINT) AS k
  FROM events
)
WHERE k IS NOT NULL
GROUP BY event_type
"""


def q_window_agg(sf_dir: str):
    """Tumbling 1-day windowed aggregate over the event stream (the
    windowed-aggregate custom operator): count + exact value sum per
    (day, event_type).  Narrow partial aggregate — the window id is a
    pure row function, so no event-row shuffle at all."""
    from ..functions.windows import tumbling_window_agg

    return tumbling_window_agg(_read(sf_dir, "events", ["ts", "event_type", "value"]))


SQL_WINDOW_AGG = """
SELECT date_trunc('day', ts) AS window, event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
FROM events GROUP BY 1, 2
"""


LATE_JITTER_HOURS = 240  # arrival displacement range: 0..239 whole hours (10 days)
LATE_DAYS = 5            # allowed lateness


def q_late_window_agg(sf_dir: str):
    """Watermark + allowed-lateness windowed aggregate (the Flink-style
    streaming semantic, deterministic for batch verification): events
    process in ARRIVAL order, the watermark is the running max
    event-time over everything arrived so far, and an event whose ts
    lags the watermark by more than {LATE_DAYS} days is dropped-late —
    per day window: kept count, kept sum, dropped-late count.

    The synthetic events table arrives in event-time order (no natural
    disorder), so the gate derives a deterministic arrival sequence
    ``epoch_us(ts) + (md5_32(event_id) % 240) hours`` — scale-free
    disorder (up to 10 days of displacement at any sf), a declared
    stand-in for the ingestion sequence a real stream carries natively.
    Distributed shape: a distributed PREFIX-MAX (per-bucket max
    partials → driver prefix over the tiny bucket array → one
    bucket-keyed exchange with seeded local cummax), no global sort
    (functions/windows.py::late_window_agg)."""
    from ..functions.windows import late_window_agg

    def derive(b: pa.Table) -> pa.Table:
        ids = b["event_id"].combine_chunks() if isinstance(b["event_id"], pa.ChunkedArray) else b["event_id"]
        h = md5_digests(pc.cast(ids, pa.string())).view(">u4")[:, 0].astype(np.int64)
        ts_us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        arrival = ts_us + (h % LATE_JITTER_HOURS) * 3_600_000_000
        return b.append_column("arrival", pa.array(arrival, type=pa.int64()))

    ds = _read(sf_dir, "events", ["event_id", "ts", "value"]).map_batches(
        derive, batch_format="pyarrow"
    )
    # arrival is epoch-us: one bucket = 1 hour, so the driver's prefix
    # array is stream-duration-sized (hours), independent of row count
    agg = late_window_agg(ds, lateness_us=LATE_DAYS * 86_400_000_000,
                          bucket_size=3_600_000_000)
    return agg.map_batches(
        lambda b: pa.table({
            "window": b["window"],
            "n_kept": b["n_kept"],
            "sum_kept": pc.divide(b["kept_cents"].cast(pa.float64()), 100.0),
            "n_late": b["n_late"],
        }),
        batch_format="pyarrow",
    )


SQL_LATE_WINDOW_AGG = f"""
WITH a AS (
  SELECT event_id, ts, value,
         epoch_us(ts) + (CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8))
                              AS BIGINT) % {LATE_JITTER_HOURS}) * 3600000000 AS arrival
  FROM events
),
r AS (
  SELECT *, max(ts) OVER (ORDER BY arrival, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS wm
  FROM a
),
f AS (
  SELECT date_trunc('day', ts) AS window,
         CASE WHEN ts < wm - INTERVAL '{LATE_DAYS} days' THEN 1 ELSE 0 END AS late,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM r
)
SELECT "window",
       CAST(sum(1 - late) AS BIGINT) AS n_kept,
       CAST(sum(CASE WHEN late = 0 THEN cents ELSE 0 END) AS DOUBLE) / 100.0 AS sum_kept,
       CAST(sum(late) AS BIGINT) AS n_late
FROM f GROUP BY 1
"""


def q_asof_join(sf_dir: str):
    """As-of join (custom range operator): for every click event, the
    value of the same user's most recent purchase at purchase.ts <=
    click.ts (ties by max event_id), NULL if none.  One spill exchange
    by user_id with a fully vectorized forward-fill reduce."""
    from ..functions.windows import asof_join

    return asof_join(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]),
        left_type="click", right_type="purchase",
    )


# right side deduped per (user, ts) by max event_id first, so the ASOF
# tie-break matches the engine's (ts, event_id) ordering exactly
SQL_ASOF_JOIN = """
WITH p AS (
  SELECT user_id, ts, max_by(value, event_id) AS value
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
)
SELECT c.event_id, c.user_id, p.value AS asof_value
FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') c
ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts >= p.ts
"""

def q_range_join(sf_dir: str):
    """Range (interval) join: for every purchase, the count of the same
    user's clicks within the previous 24 h (inclusive bounds).  One
    spill exchange by user_id; merged-sort + cumulative-count reduce —
    the joined pairs are never materialized."""
    from ..functions.windows import range_join_count

    return range_join_count(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"]),
        left_type="purchase", right_type="click", window_us=86_400_000_000,
    )


SQL_RANGE_JOIN = """
SELECT p.event_id, p.user_id, CAST(count(c.event_id) AS BIGINT) AS n_in_window
FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
LEFT JOIN (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') c
  ON c.user_id = p.user_id AND c.ts BETWEEN p.ts - INTERVAL 1 DAY AND p.ts
GROUP BY p.event_id, p.user_id
"""

SESSION_GAP_US = 6 * 3600 * 1_000_000  # 6 hours


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (stateful window op): per user, a new
    session starts after a >6h gap; one row per session with its event
    count and duration.  Spill exchange by user_id, single vectorized
    run-length reduce."""
    from ..functions.windows import sessionize

    return sessionize(
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]), gap_us=SESSION_GAP_US
    )


SQL_SESSIONIZE = f"""
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us,
         CASE WHEN lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                OR epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id, ts_us,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                          ROWS UNBOUNDED PRECEDING) AS sess
  FROM o
)
SELECT user_id, CAST(sess AS BIGINT) AS session_idx,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(max(ts_us) - min(ts_us) AS BIGINT) AS dur_us
FROM s GROUP BY user_id, sess
"""


def q_upsert_last_write(sf_dir: str):
    """Last-write-wins upsert by key (claim.go:142-157 analog): latest
    event per user, deterministic tie-break by event_id.

    No per-group Python: (ts, event_id) is packed into one fixed-width
    zero-padded string whose lexicographic max IS the (ts, event_id)
    max, so the whole op is a plain groupby + Max aggregate."""
    from ray.data.aggregate import Max

    def pack(b: pa.Table) -> pa.Table:
        ts_us = b["ts"].cast(pa.int64())  # microseconds since epoch (>0 here)
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(ts_us, pa.string()), 20, "0"),
            pc.utf8_lpad(pc.cast(b["event_id"], pa.string()), 20, "0"),
            "",
        )
        return pa.table({"user_id": b["user_id"], "k": key})

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = ds.map_batches(pack, batch_format="pyarrow").groupby("user_id").aggregate(
        Max("k", alias_name="k")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "user_id": b["user_id"],
                "event_id": pc.cast(
                    pc.utf8_slice_codeunits(b["k"], 20, 40), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


SQL_UPSERT_LAST_WRITE = """
SELECT user_id, event_id FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


# ---------------------------------------------------------------------------
# joins / group-concat (J1/J2/G1) over TPC-H-ish tables
# ---------------------------------------------------------------------------

def q_join_broadcast(sf_dir: str):
    """Broadcast hash join (J1: claim <- publisher analog): orders joined
    to the small customer dim via ray.put, pre-aggregated per batch."""
    import ray
    from ray.data.aggregate import Sum

    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    lut_ref = ray.put(
        dict(zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist()))
    )

    class JoinAgg:
        def __init__(self, ref):
            import ray as _r

            lut = _r.get(ref)
            keys = np.fromiter(lut.keys(), dtype=np.int64)
            vals = np.fromiter((lut[k] for k in keys), dtype=np.int64)
            order = np.argsort(keys)
            self.keys, self.vals = keys[order], vals[order]

        EMPTY = pa.schema(
            [("nationkey", pa.int64()), ("total", pa.float64()), ("n_orders", pa.int64())]
        ).empty_table()

        def __call__(self, b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                # keep a stable schema for empty inputs — a schema-less
                # empty table triggers RefBundle schema-drift warnings
                # and is a schema-inference hazard on real clusters
                return self.EMPTY
            ck = b["o_custkey"].to_numpy()
            idx = np.searchsorted(self.keys, ck)
            nk = self.vals[idx]
            t = pa.table(
                {"nationkey": pa.array(nk), "price": b["o_totalprice"], "one": pa.array(np.ones(len(nk), dtype=np.int64))}
            )
            agg = t.group_by("nationkey").aggregate([("price", "sum"), ("one", "sum")])
            return pa.table(
                {
                    "nationkey": agg["nationkey"],
                    "total": agg["price_sum"],
                    "n_orders": agg["one_sum"],
                }
            )

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    part = ds.map_batches(
        JoinAgg, fn_constructor_kwargs={"ref": lut_ref}, batch_format="pyarrow", concurrency=4
    )
    out = part.groupby("nationkey").aggregate(
        Sum("total", alias_name="total"), Sum("n_orders", alias_name="n_orders")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "nationkey": b["nationkey"].cast(pa.int64()),
                "total": pc.round(b["total"], 2),
                "n_orders": b["n_orders"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_JOIN_BROADCAST = """
SELECT CAST(c.c_nationkey AS BIGINT) AS nationkey,
       round(sum(o.o_totalprice), 2) AS total,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_nationkey
"""


def q_group_concat(sf_dir: str):
    """GROUP_CONCAT analog (chainquery.go:63 tags aggregation): supplier
    names per nation, sorted and comma-joined.  One key-hashed spill
    exchange; the reduce sorts (key, name) once and joins each run with
    one Arrow ``binary_join`` over a run-offset list array — no
    per-group Python."""
    from ..functions.exchange import spill_exchange

    def concat_reduce(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "nationkey": pa.array([], type=pa.int64()),
                "suppliers": pa.array([], type=pa.string()),
            }
        )
        if t.num_rows == 0:
            return empty
        t = t.sort_by(
            [("s_nationkey", "ascending"), ("s_name", "ascending")]
        ).combine_chunks()
        keys = t["s_nationkey"].combine_chunks().cast(pa.int64())
        starts, lens = run_bounds(keys)
        offs = np.append(starts, t.num_rows).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offs), t["s_name"].combine_chunks())
        return pa.table(
            {
                "nationkey": keys.take(pa.array(starts)),
                "suppliers": pc.binary_join(lists, ","),
            }
        )

    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_name"])
    return spill_exchange(ds, "s_nationkey", concat_reduce, num_parts=8)


SQL_GROUP_CONCAT = """
SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
       string_agg(s_name, ',' ORDER BY s_name) AS suppliers
FROM supplier GROUP BY s_nationkey
"""


def q_shuffle_join(sf_dir: str):
    """Large-x-large shuffle hash join (J+; Ray Data has no native
    join): high-quantity lineitems joined to their orders.  Both sides
    spill by the key hash through ONE exchange; the reduce emits
    equal-key cross products with pure index arithmetic (see
    functions/joins.py)."""
    from ..functions.joins import shuffle_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda b: b.filter(pc.greater_equal(b["l_quantity"], 48.0)),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda b: pa.table({"l_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"]}),
        batch_format="pyarrow",
    )
    return shuffle_join(li, orders, key="l_orderkey",
                        lcols=["l_quantity"], rcols=["o_custkey"])


SQL_SHUFFLE_JOIN = """
SELECT l.l_orderkey, l.l_quantity, o.o_custkey
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_quantity >= 48
"""

# composed from the ngram-Jaccard and hash-split oracles (nested CTE)
_SQL_SPLIT_LEAKAGE_TMPL = """
WITH np AS ({ngram_sql}), sp AS ({split_sql})
SELECT np.a, np.b, sa.split AS split_a, sb.split AS split_b
FROM np JOIN sp sa ON np.a = sa.doc_id JOIN sp sb ON np.b = sb.doc_id
WHERE sa.split != sb.split
"""


def q_split_leakage(sf_dir: str):
    """Composed leakage audit: near-duplicate pairs whose two docs fall
    on DIFFERENT sides of the deterministic train/val split — exactly
    the contamination a leakage-safe pipeline must surface.  Reuses
    ngram_jaccard_pairs + the hash-split assignment, stitched with two
    shuffle joins (no broadcast of the N-sized split table)."""
    from ..functions.dedup import ngram_jaccard_pairs
    from ..functions.joins import shuffle_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, n=3, min_inter=5, max_df=NGRAM_MAX_DF)

    def split_tbl(b: pa.Table) -> pa.Table:
        h = _md5_hex(b["text"])
        is_train = pc.less(pc.utf8_slice_codeunits(h, 0, 2), "e6")
        return pa.table(
            {"doc_id": b["doc_id"], "split": pc.if_else(is_train, "train", "val")}
        )

    split = docs.map_batches(split_tbl, batch_format="pyarrow")
    l1st: dict = {}
    j1 = shuffle_join(
        pairs.map_batches(
            lambda b: pa.table({"doc_id": b["a"], "b": b["b"]}), batch_format="pyarrow"
        ),
        split, key="doc_id", lcols=["b"], rcols=["split"], stats=l1st,
    ).map_batches(
        lambda b: pa.table({"a": b["doc_id"], "doc_id": b["b"], "split_a": b["split"]}),
        batch_format="pyarrow",
    )
    j2 = shuffle_join(j1, split, key="doc_id", lcols=["a", "split_a"], rcols=["split"],
                      cleanup_after=[l1st["root"]])
    return j2.map_batches(
        lambda b: pa.table(
            {"a": b["a"], "b": b["doc_id"], "split_a": b["split_a"], "split_b": b["split"]}
        ).filter(pc.not_equal(b["split_a"], b["split"])),
        batch_format="pyarrow",
    )


def q_lineitem_agg(sf_dir: str):
    """Wide aggregate with per-batch partials (TPC-H Q1 shape)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "qty": b["l_quantity"],
                "rev": rev,
                "one": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            }
        )
        agg = t.group_by("l_returnflag").aggregate([("qty", "sum"), ("rev", "sum"), ("one", "sum")])
        return pa.table(
            {
                "l_returnflag": agg["l_returnflag"],
                "qty": agg["qty_sum"],
                "rev": agg["rev_sum"],
                "n": agg["one_sum"],
            }
        )

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice", "l_discount"])
    out = ds.map_batches(partial, batch_format="pyarrow").groupby("l_returnflag").aggregate(
        Sum("qty", alias_name="sum_qty"), Sum("rev", alias_name="sum_rev"), Sum("n", alias_name="n")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "sum_qty": pc.round(b["sum_qty"], 2),
                "sum_rev": pc.round(b["sum_rev"], 2),
                "n": b["n"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_LINEITEM_AGG = """
SELECT l_returnflag,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_rev,
       CAST(count(*) AS BIGINT) AS n
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# similarity search over embeddings (ANN baseline)
# ---------------------------------------------------------------------------

def q_ann_cosine_topk(sf_dir: str):
    """Brute-force cosine top-10 against a broadcast query vector
    (numpy matmul per batch; the IVF/LSH variants live in
    lighthouse_ray.functions.similarity)."""
    import ray

    import pyarrow.parquet as pq

    q = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    qvec = np.asarray(q.filter(pc.equal(q["vec_id"], 0))["embedding"][0].as_py(), dtype=np.float64)
    qref = ray.put(qvec / np.linalg.norm(qvec))

    class Cos:
        def __init__(self, ref):
            import ray as _r

            self.q = _r.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            emb = b["embedding"]
            flat = np.asarray(emb.combine_chunks().flatten(), dtype=np.float64)
            m = flat.reshape(len(b), -1)
            norms = np.linalg.norm(m, axis=1)
            cos = (m @ self.q) / np.maximum(norms, 1e-12)
            return pa.table(
                {"vec_id": b["vec_id"], "cos": pa.array(np.round(cos, 6))}
            )

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ds.map_batches(Cos, fn_constructor_kwargs={"ref": qref}, batch_format="pyarrow", concurrency=2)
    out = out.map_batches(lambda b: b.filter(pc.not_equal(b["vec_id"], 0)), batch_format="pyarrow")
    return out.sort(["cos", "vec_id"], descending=[True, False]).limit(10)


SQL_ANN_COSINE_TOPK = """
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv), 6) AS cos
FROM embeddings e, q WHERE e.vec_id <> 0
ORDER BY cos DESC, e.vec_id LIMIT 10
"""


BPE_MERGES = 4


def q_bpe_train(sf_dir: str):
    """Distributed BPE tokenizer training (Sennrich et al. 2016; the
    vocabulary-learning step every LLM data pipeline runs before
    tokenizing): learn BPE_MERGES merges from documents.text and return
    the merge table.  The working set collapses to the (word, n)
    vocabulary via one groupby; each iteration is a vectorized
    pair-count map + a small pair-keyed shuffle with a single argmax
    row reaching the driver, then a vectorized merge-apply map — see
    functions/bpe.py for the full scale notes."""
    from ray.data.aggregate import Sum

    from ..functions.bpe import bpe_train

    def word_partial(b: pa.Table) -> pa.Table:
        _p, _pos, terms, _n = flat_tokens(b["text"])
        t = pa.table({"word": terms})
        agg = t.group_by("word").aggregate([([], "count_all")])
        return pa.table({"word": agg["word"], "n": agg["count_all"].cast(pa.int64())})

    words = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(word_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    merges = bpe_train(words, BPE_MERGES)
    return pd.DataFrame(
        {
            "step": pd.array([m["step"] for m in merges], dtype="int64"),
            "lft": [m["lft"] for m in merges],
            "rgt": [m["rgt"] for m in merges],
            "merged": [m["merged"] for m in merges],
            "cnt": pd.array([m["cnt"] for m in merges], dtype="int64"),
        }
    )


def _sql_bpe_train(T: int = BPE_MERGES) -> str:
    """Exact oracle: T unrolled merge iterations.  Pair counts come from
    the split symbol state (every adjacent position, overlaps included);
    the argmax merge is applied by a recursive CTE that replaces the
    LEFTMOST occurrence per recursion step — equivalent to the greedy
    left-to-right scan (a replacement never creates the same pair to the
    left of the scan point)."""
    ctes = [
        f"""words AS (SELECT term AS word, CAST(count(*) AS BIGINT) AS n
          FROM (SELECT unnest({TOK}) AS term FROM documents) GROUP BY term)""",
        """state0 AS (SELECT word, n,
           array_to_string(list_transform(range(1, length(word) + 1), i -> word[i]), ' ') AS s
           FROM words)""",
    ]
    for k in range(T):
        ctes.append(f"""pairs{k} AS (
  SELECT l[u] AS lft, l[u + 1] AS rgt, n FROM (
    SELECT l, n, unnest(range(1, len(l))) AS u FROM (
      SELECT str_split(s, ' ') AS l, n FROM state{k})))""")
        ctes.append(f"""cnt{k} AS (
  SELECT lft, rgt, CAST(sum(n) AS BIGINT) AS c FROM pairs{k} GROUP BY lft, rgt)""")
        ctes.append(f"""best{k} AS (
  SELECT lft, rgt, c FROM cnt{k} ORDER BY c DESC, lft, rgt LIMIT 1)""")
        ctes.append(f"""rec{k}(word, n, s, done) AS (
  SELECT word, n, ' ' || s || ' ', false FROM state{k}
  UNION ALL
  SELECT word, n,
         CASE WHEN strpos(s, (SELECT ' ' || lft || ' ' || rgt || ' ' FROM best{k})) > 0
              THEN regexp_replace(s,
                     (SELECT ' ' || lft || ' ' || rgt || ' ' FROM best{k}),
                     (SELECT ' ' || lft || rgt || ' ' FROM best{k}))
              ELSE s END,
         strpos(s, (SELECT ' ' || lft || ' ' || rgt || ' ' FROM best{k})) = 0
  FROM rec{k} WHERE NOT done)""")
        ctes.append(f"""state{k + 1} AS (SELECT word, n, trim(s) AS s FROM rec{k} WHERE done)""")
    selects = "\nUNION ALL ".join(
        f"SELECT CAST({k + 1} AS BIGINT) AS step, lft, rgt, lft || rgt AS merged, c AS cnt FROM best{k}"
        for k in range(T)
    )
    return "WITH RECURSIVE\n" + ",\n".join(ctes) + f"\nSELECT * FROM ({selects}) ORDER BY step"


RRF_K, RRF_DEPTH = 60, 50


def q_rrf_hybrid(sf_dir: str):
    """Reciprocal-rank-fusion hybrid retrieval (the standard
    lexical+dense fusion primitive — Cormack/Clarke/Büttcher SIGIR'09;
    ES 8.x exposes it as the `rrf` retriever): fuse a BM25 ranking over
    ``documents.text`` with a cosine ranking over the aligned
    ``embeddings`` table.  score(d) = Σ_legs 1/(RRF_K + rank_leg(d))
    over the legs where d appears in the top-RRF_DEPTH; final top-10 by
    (rrf desc, doc_id asc).

    Distributed shape: the lexical leg is a ``Scorer.match`` over the
    built index (the Ray build is the distributed part) cut to its
    top-RRF_DEPTH; the dense leg is the bounded-combiner top-N pattern
    (per-batch top-RRF_DEPTH rows feed a ``sort().limit(RRF_DEPTH)`` —
    the shuffle carries ≤ DEPTH rows per batch, never a corpus-sized
    hit list).  The fusion itself touches only the ≤ 2·DEPTH leg rows
    on the driver, constant in corpus size.  Ranks are assigned over
    integer micro-scores (floor(s·1e6 + 0.5), the SQL-mirrored
    round-half-up) with a doc_id tie-break, so leg ranks — and hence
    the fused order — are deterministic at any parallelism."""
    import ray

    import pyarrow.parquet as pq

    _sc, _ords, doc_ids, scores = _bm25_hits(sf_dir)
    s_int = np.floor(scores * 1e6 + 0.5).astype(np.int64)
    lex_ids = doc_ids[top_k(s_int, doc_ids, RRF_DEPTH)]

    q = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    qvec = np.asarray(q.filter(pc.equal(q["vec_id"], 0))["embedding"][0].as_py(),
                      dtype=np.float64)
    qref = ray.put(qvec / np.linalg.norm(qvec))

    def dense_combine(b: pa.Table) -> pa.Table:
        import ray as _r

        b = b.filter(pc.not_equal(b["vec_id"], 0))
        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64())})
        qv = _r.get(qref)
        flat = np.asarray(b["embedding"].combine_chunks().flatten(), dtype=np.float64)
        m = flat.reshape(len(b), -1)
        cos = (m @ qv) / np.maximum(np.linalg.norm(m, axis=1), 1e-12)
        c_int = np.floor(cos * 1e6 + 0.5).astype(np.int64)
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = top_k(c_int, ids, RRF_DEPTH)
        return pa.table({"doc_id": pa.array(ids[order]), "s": pa.array(c_int[order])})

    den = collect(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(dense_combine, batch_format="pyarrow")
        .sort(["s", "doc_id"], descending=[True, False])
        .limit(RRF_DEPTH)
    ).to_pandas()

    # fusion over <= 2*DEPTH rows (summary-sized).  Contribution order
    # is fixed (lexical + dense) so the float sum mirrors the SQL.
    lex_rank = {int(d): i + 1 for i, d in enumerate(lex_ids)}
    den_rank = {int(d): i + 1 for i, d in enumerate(den["doc_id"])}
    fused = []
    for d in sorted(set(lex_rank) | set(den_rank)):
        s = (1.0 / (RRF_K + lex_rank[d]) if d in lex_rank else 0.0) + (
            1.0 / (RRF_K + den_rank[d]) if d in den_rank else 0.0
        )
        fused.append((d, s))
    ids = np.array([d for d, _ in fused], dtype=np.int64)
    rrf = _round6(np.array([s for _, s in fused], dtype=np.float64))
    order = top_k(rrf, ids, 10)
    return pd.DataFrame({"doc_id": ids[order], "rrf": rrf[order]})


def _sql_rrf_hybrid() -> str:
    terms = tokenize_text(BM25_QUERY)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
),
lex AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY floor(score * 1000000 + 0.5) DESC, doc_id) AS r
  FROM scored QUALIFY r <= {RRF_DEPTH}
),
qv AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings WHERE vec_id = 0),
cosined AS (
  SELECT e.vec_id AS doc_id,
         floor(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), qv.v)
               * 1000000 + 0.5) AS c
  FROM embeddings e, qv WHERE e.vec_id <> 0
),
den AS (
  SELECT doc_id, row_number() OVER (ORDER BY c DESC, doc_id) AS r
  FROM cosined QUALIFY r <= {RRF_DEPTH}
),
fused AS (
  SELECT COALESCE(l.doc_id, d.doc_id) AS doc_id,
         COALESCE(1.0 / ({RRF_K} + l.r), 0) + COALESCE(1.0 / ({RRF_K} + d.r), 0) AS s
  FROM lex l FULL OUTER JOIN den d ON l.doc_id = d.doc_id
)
SELECT doc_id, floor(s * 1000000 + 0.5) / 1000000 AS rrf
FROM fused ORDER BY rrf DESC, doc_id LIMIT 10
"""


def q_phrase_match(sf_dir: str):
    """Positional exact-phrase filter (Q2): docs whose token stream
    contains "merge sort" consecutively, with the occurrence count."""
    t1, t2 = "merge", "sort"

    def f(b: pa.Table) -> pa.Table:
        parents, pos, terms, n = flat_tokens(b["text"])
        is1 = pc.equal(terms, t1).to_numpy(zero_copy_only=False)
        is2 = pc.equal(terms, t2).to_numpy(zero_copy_only=False)
        # consecutive within the same doc: next token is t2
        nxt_same_doc = np.zeros(len(is1), dtype=bool)
        if len(is1) > 1:
            nxt_same_doc[:-1] = (parents[1:] == parents[:-1]) & is2[1:]
        hit = is1 & nxt_same_doc
        counts = np.bincount(parents[hit], minlength=n) if hit.any() else np.zeros(n, dtype=np.int64)
        keep = counts > 0
        return pa.table(
            {
                "doc_id": b["doc_id"].filter(pa.array(keep)),
                "n_occurrences": pa.array(counts[keep].astype(np.int64)),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


SQL_PHRASE_MATCH = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents)
SELECT doc_id,
       CAST(len(list_filter(range(1, len(toks)),
            i -> toks[i] = 'merge' AND toks[i+1] = 'sort')) AS BIGINT) AS n_occurrences
FROM t
WHERE len(list_filter(range(1, len(toks)),
      i -> toks[i] = 'merge' AND toks[i+1] = 'sort')) > 0
"""


def q_top_terms_per_lang(sf_dir: str):
    """Per-group top-N window (G-family): 3 highest-df terms per lang,
    ties by term.  Per-batch partial df, then ONE spill exchange keyed
    by lang with a vectorized reduce (Arrow group-sum + run-length
    head-3 — no per-group Python, no groupby sort shuffle).  One lang's
    (term, df) table is vocabulary-bounded, so it always fits a reduce
    task."""
    from ..functions.exchange import spill_exchange

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        langs = pc.take(b["lang"].combine_chunks(), pa.array(parents))
        t = pa.table({"lang": langs, "term": terms, "parent": pa.array(parents)})
        uniq = t.group_by(["lang", "term", "parent"]).aggregate([])
        agg = uniq.group_by(["lang", "term"]).aggregate([("parent", "count")])
        return pa.table({"lang": agg["lang"], "term": agg["term"],
                         "n": agg["parent_count"].cast(pa.int64())})

    ds = _read(sf_dir, "documents", ["lang", "text"]).map_batches(partial, batch_format="pyarrow")

    def top3(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang": pa.array([], type=pa.string()),
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        g = t.group_by(["lang", "term"], use_threads=False).aggregate([("n", "sum")])
        g = pa.table(
            {"lang": g["lang"], "term": g["term"], "df": g["n_sum"].cast(pa.int64())}
        ).sort_by(
            [("lang", "ascending"), ("df", "descending"), ("term", "ascending")]
        ).combine_chunks()
        starts, lens = run_bounds(g["lang"].combine_chunks())
        k = np.minimum(lens, 3)
        cum = np.zeros(len(k), dtype=np.int64)
        np.cumsum(k[:-1], out=cum[1:])
        idx = np.repeat(starts, k) + (np.arange(int(k.sum()), dtype=np.int64) - np.repeat(cum, k))
        return g.take(pa.array(idx))

    return spill_exchange(ds, "lang", top3, num_parts=8)


SQL_TOP_TERMS_PER_LANG = f"""
SELECT lang, term, CAST(count(*) AS BIGINT) AS df
FROM (SELECT lang, doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
GROUP BY lang, term
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY count(*) DESC, term) <= 3
"""


# ---------------------------------------------------------------------------
# training-data ops: language-ID, near-dup dedup, multimodal plumbing
# ---------------------------------------------------------------------------

def q_lang_id(sf_dir: str):
    """Marker-stopword language-ID heuristic (deterministic; the SQL
    oracle mirrors the rule exactly — this checks the distributed
    computation, not langid accuracy)."""
    from ..functions.textstats import lang_id

    return lang_id(_read(sf_dir, "documents", ["doc_id", "text"]))


NGRAM_MAX_DF = 1000  # hot-shingle df cap: part of the operator semantics


def _sh_cte(max_df: int | None) -> str:
    """Shared shingle/sizes/pairs CTE block (3-gram string shingles,
    optional hot-shingle df cap mirroring the Ray operators)."""
    hot = (
        f"hot AS (SELECT s FROM sh GROUP BY s HAVING count(*) > {max_df}),"
        if max_df is not None
        else ""
    )
    hot_filter = "WHERE x.s NOT IN (SELECT s FROM hot)" if max_df is not None else ""
    return f"""toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sizes AS (
  SELECT doc_id,
         CAST(len(list_distinct(list_transform(range(1, len(t) - 1),
              i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))) AS BIGINT) AS nsh
  FROM toks
),
sh AS (
  SELECT doc_id, unnest(list_distinct(list_transform(range(1, len(t) - 1),
         i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))) AS s
  FROM toks
),
{hot}
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS inter
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  {hot_filter}
  GROUP BY x.doc_id, y.doc_id
)"""


def q_ngram_jaccard(sf_dir: str):
    """Exact token-3-gram Jaccard pairs via a shingle inverted index
    (near-dup dedup family, oracle-checked; hot shingles with
    df > NGRAM_MAX_DF dropped on BOTH sides)."""
    from ..functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3, min_inter=5,
        max_df=NGRAM_MAX_DF,
    )


SQL_NGRAM_JACCARD = f"""
WITH {_sh_cte(NGRAM_MAX_DF)}
SELECT p.a, p.b, p.inter,
       floor(CAST(p.inter AS DOUBLE) / (sa.nsh + sb.nsh - p.inter) * 1000000 + 0.5) / 1000000 AS jaccard
FROM pairs p JOIN sizes sa ON p.a = sa.doc_id JOIN sizes sb ON p.b = sb.doc_id
WHERE p.inter >= 5
"""


WINNOW_K = 3       # gram width (tokens)
WINNOW_W = 4       # window width (grams); guarantee span = w+k-1 tokens
WINNOW_MIN_SHARED = 2
WINNOW_MAX_DF = 1000


def q_winnow_dedup(sf_dir: str):
    """Near-dup pairs by winnowing fingerprints (Schleimer/Wilkerson/
    Aiken, the MOSS algorithm): per-window minimum of md5-low64 gram
    hashes — a density-bounded LOCAL fingerprint keeping ~2/(w+1) of
    grams, so the pair exchange ships a fraction of ngram_jaccard's
    volume while any shared (w+k-1)-token run still collides.  Exact
    SQL mirror below (window min over the same gram hash)."""
    from ..functions.dedup import winnow_pairs

    return winnow_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        k=WINNOW_K, w=WINNOW_W, min_shared=WINNOW_MIN_SHARED,
        max_df=WINNOW_MAX_DF,
    )


SQL_WINNOW_DEDUP = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
grams AS (
  SELECT doc_id, len(t) - 2 AS n_grams,
         unnest(list_transform(range(1, len(t) - 1),
                i -> {{'s': i, 'hv': md5_number_lower(
                        t[i] || ' ' || t[i+1] || ' ' || t[i+2])}})) AS g
  FROM toks
),
wins AS (
  SELECT doc_id, g.s AS s, n_grams,
         min(g.hv) OVER (PARTITION BY doc_id ORDER BY g.s
                         ROWS BETWEEN CURRENT ROW AND {WINNOW_W - 1} FOLLOWING) AS mh
  FROM grams
),
fp AS (SELECT DISTINCT doc_id, mh FROM wins WHERE s <= n_grams - {WINNOW_W} + 1),
sizes AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS nsh FROM fp GROUP BY doc_id),
hot AS (SELECT mh FROM fp GROUP BY mh HAVING count(*) > {WINNOW_MAX_DF}),
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS inter
  FROM fp x JOIN fp y ON x.mh = y.mh AND x.doc_id < y.doc_id
  WHERE x.mh NOT IN (SELECT mh FROM hot)
  GROUP BY x.doc_id, y.doc_id
)
SELECT p.a, p.b, p.inter,
       floor(CAST(p.inter AS DOUBLE) / (sa.nsh + sb.nsh - p.inter) * 1000000 + 0.5) / 1000000 AS jaccard
FROM pairs p JOIN sizes sa ON p.a = sa.doc_id JOIN sizes sb ON p.b = sb.doc_id
WHERE p.inter >= {WINNOW_MIN_SHARED}
"""


def q_dup_clusters(sf_dir: str):
    """Duplicate clusters: distributed connected components (alternating
    large/small-star groupby rounds) over the exact n-gram-Jaccard pair
    graph; cluster id = min doc_id of the component.  Oracle: recursive
    CTE over the same pair SQL."""
    from ..functions.dedup import connected_components, ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, n=3, min_inter=5, max_df=NGRAM_MAX_DF)
    edges = pairs.map_batches(
        lambda b: b.select(["a", "b"]), batch_format="pyarrow"
    )
    nodes = docs.map_batches(
        lambda b: pa.table({"id": b["doc_id"]}), batch_format="pyarrow"
    )
    return connected_components(edges, nodes).map_batches(
        lambda b: pa.table(
            {"doc_id": b["id"].cast(pa.int64()), "cluster": b["cluster"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def q_dedup_keep(sf_dir: str):
    """Near-dup REMOVAL — the end product of the dedup funnel: the
    documents that survive when each near-duplicate cluster keeps only
    its representative (min doc_id).  Same CC pipeline as dup_clusters,
    one vectorized keep-filter on top (a doc survives iff it IS its
    cluster id), joined to nothing — the filter is a column compare."""
    return q_dup_clusters(sf_dir).map_batches(
        lambda b: pa.table(
            {"doc_id": b.filter(pc.equal(b["doc_id"], b["cluster"]))["doc_id"]}
        ),
        batch_format="pyarrow",
    )


SQL_DUP_CLUSTERS = f"""
WITH RECURSIVE toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (
  SELECT doc_id, unnest(list_distinct(list_transform(range(1, len(t) - 1),
         i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))) AS s
  FROM toks
),
hot AS (SELECT s FROM sh GROUP BY s HAVING count(*) > {NGRAM_MAX_DF}),
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  WHERE x.s NOT IN (SELECT s FROM hot)
  GROUP BY x.doc_id, y.doc_id
  HAVING count(*) >= 5
),
und AS (SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs),
reach(id, label) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT u.a, r.label FROM und u JOIN reach r ON r.id = u.b
)
SELECT id AS doc_id, min(label) AS cluster FROM reach GROUP BY id
"""

SQL_DEDUP_KEEP = f"""
WITH c AS ({SQL_DUP_CLUSTERS})
SELECT doc_id FROM c WHERE doc_id = cluster
"""


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs via blocked exact all-pairs
    (one task per block pair, never the full matrix; oracle: SQL
    self-join on list_cosine_similarity)."""
    from ..functions.dedup import embedding_cosine_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_cosine_pairs(ds, threshold=0.4)


SQL_EMBEDDING_NEAR_DUP = """
SELECT x.vec_id AS a, y.vec_id AS b,
       round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                    CAST(y.embedding AS DOUBLE[])), 6) AS cos
FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                             CAST(y.embedding AS DOUBLE[])) >= 0.4
"""


def q_knn_graph(sf_dir: str):
    """k-NN graph: top-3 cosine neighbors for EVERY vector (self
    excluded), ranked by cosine rounded to 6 decimals with id
    tie-break — blocked partial top-k per block pair + one exchange, so
    shuffled volume is N x blocks x k, never N^2 rows."""
    from ..functions.similarity import knn_graph

    return knn_graph(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=3)


_COS = ("list_cosine_similarity(CAST(x.embedding AS DOUBLE[]), "
        "CAST(y.embedding AS DOUBLE[]))")

# the oracle ranks by the SAME rounded cosine + id tie-break the engine uses
SQL_KNN_GRAPH = f"""
SELECT x.vec_id AS vec_id, y.vec_id AS nn_id, round({_COS}, 6) AS cos
FROM embeddings x JOIN embeddings y ON y.vec_id != x.vec_id
QUALIFY row_number() OVER (
  PARTITION BY x.vec_id ORDER BY round({_COS}, 6) DESC, y.vec_id) <= 3
"""

KNN_SRP_TAU = 0.4


def q_knn_graph_srp(sf_dir: str):
    """SRP-pruned THRESHOLDED k-NN graph (VERDICT r4 item 2 — the
    sub-quadratic fix SCALE.md names for knn_graph's block-pair
    quadratic): per vector, top-3 neighbors among round6(cos) >= 0.4.
    Candidates come only from shared SRP band buckets; with 24 bands of
    2 planes and the fixed seed the per-pair miss probability at
    cos 0.4 is ≤ 5e-6 and recall is exactly 1 on both sf corpora
    (verified sf0.01 + sf0.1), so the exact SQL definition is the
    oracle.  Sub-quadratic candidate growth on clustered data is
    asserted by tests/test_scale_envelopes.py."""
    from ..functions.similarity import knn_graph_srp

    return knn_graph_srp(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=3, tau=KNN_SRP_TAU, num_planes=48, bands=24, num_parts=16,
    )


SQL_KNN_GRAPH_SRP = f"""
SELECT x.vec_id AS vec_id, y.vec_id AS nn_id, round({_COS}, 6) AS cos
FROM embeddings x JOIN embeddings y ON y.vec_id != x.vec_id
WHERE round({_COS}, 6) >= {KNN_SRP_TAU}
QUALIFY row_number() OVER (
  PARTITION BY x.vec_id ORDER BY round({_COS}, 6) DESC, y.vec_id) <= 3
"""

LSH_COS_THRESHOLD = 0.45


def q_embedding_lsh_near_dup(sf_dir: str):
    """SRP-LSH bucketed near-dup pairs with exact in-bucket cosine
    verification — the sublinear scale path (no all-pairs, no full
    matrix anywhere).  Deterministic seeded hyperplanes; 24 bands of 2
    planes put the boundary-pair miss probability at ~(1-0.42)^24 ≈
    2e-6 for cos = {LSH_COS_THRESHOLD}, and with the FIXED seed the
    banded recall is exactly 1 on both sf corpora (verified at sf0.01
    and sf0.1), so the exact SQL self-join is its oracle (precision vs
    the threshold is 1 by construction)."""
    from ..functions.dedup import embedding_lsh_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_lsh_pairs(
        ds, threshold=LSH_COS_THRESHOLD, num_planes=48, bands=24
    )


SQL_EMBEDDING_LSH_NEAR_DUP = f"""
SELECT x.vec_id AS a, y.vec_id AS b,
       round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                    CAST(y.embedding AS DOUBLE[])), 6) AS cos
FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                             CAST(y.embedding AS DOUBLE[])) >= {LSH_COS_THRESHOLD}
"""


def q_multimodal_meta(sf_dir: str):
    """Multimodal decode, end-to-end REAL (VERDICT r4 item 1): each doc
    gets a genuinely valid image payload — PNG RGB / PNG RGBA / 24-bit
    BMP by ``doc_id % 3``, dimensions a closed form of doc_id, pixels
    deterministic — and the decode stage extracts metadata by actually
    parsing the container (PNG additionally zlib-decompresses the IDAT
    stream and checks the scanline byte count: a true pixel decode).  A
    decoder failure raises ValueError and fails the gate.

    The oracle mirrors width/height/channels/format/n_bytes as SQL
    arithmetic over doc_id — PNG uses stored-deflate (zlib level 0) so
    its byte size is the closed form documented in synth_png; if the
    decoder misreported anything, Ray and oracle would diverge."""
    from ..functions.multimodal import extract_media_meta, synth_bmp, synth_png

    def to_payload(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for d in ids:
            d = int(d)
            w, h = 4 + (d * 7) % 60, 4 + (d * 13) % 60
            sel = d % 3
            if sel == 0:
                payloads.append(synth_png(w, h, channels=3, seed=d))
            elif sel == 1:
                payloads.append(synth_png(w, h, channels=4, seed=d))
            else:
                payloads.append(synth_bmp(w, h, seed=d))
        return pa.table(
            {
                "media_id": pa.array([str(int(d)) for d in ids], type=pa.string()),
                "payload": pa.array(payloads, type=pa.large_binary()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        to_payload, batch_format="pyarrow"
    )
    out = extract_media_meta(ds)
    return out.map_batches(
        lambda b: pa.table(
            {
                "media_id": b["media_id"],
                "n_bytes": b["n_bytes"],
                "width": b["width"].cast(pa.int64()),
                "height": b["height"].cast(pa.int64()),
                "channels": b["channels"].cast(pa.int64()),
                "format": b["format"],
            }
        ),
        batch_format="pyarrow",
    )


# PNG (stored deflate): raw = h*(1 + ch*w); zlen = 2 + 5*ceil(raw/65535)
# + raw + 4; total = 8 sig + 25 IHDR + (12 + zlen) IDAT + 12 IEND.
# BMP 24-bit: 54 + h * ((3w + 3) // 4 * 4).
SQL_MULTIMODAL_META = """
WITH dims AS (
  SELECT CAST(doc_id AS VARCHAR) AS media_id,
         doc_id % 3 AS sel,
         4 + (doc_id * 7) % 60 AS w,
         4 + (doc_id * 13) % 60 AS h
  FROM documents
), ch AS (
  SELECT media_id, sel, w, h,
         CASE sel WHEN 1 THEN 4 ELSE 3 END AS channels,
         h * (1 + (CASE sel WHEN 1 THEN 4 ELSE 3 END) * w) AS raw
  FROM dims
)
SELECT media_id,
       CAST(CASE WHEN sel = 2
            THEN 54 + h * ((3 * w + 3) // 4 * 4)
            ELSE 57 + 2 + 5 * ((raw + 65534) // 65535) + raw + 4
            END AS BIGINT) AS n_bytes,
       CAST(w AS BIGINT) AS width,
       CAST(h AS BIGINT) AS height,
       CAST(channels AS BIGINT) AS channels,
       CASE WHEN sel = 2 THEN 'bmp' ELSE 'png' END AS format
FROM ch
"""


def q_audio_meta(sf_dir: str):
    """Audio multimodal decode, end-to-end REAL (r5): each doc gets a
    genuinely valid PCM WAV payload — channels/rate/frames closed forms
    of doc_id, deterministic samples — and the decode stage extracts
    metadata by actually walking the RIFF chunks (a malformed payload
    fails the gate).
    The oracle mirrors every field as SQL arithmetic; a parser misread
    diverges."""
    from ..functions.multimodal import extract_audio_meta, synth_wav

    def to_payload(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for d in ids:
            d = int(d)
            ch = 1 + d % 2
            sr = (8000, 16000, 44100)[d % 3]
            nf = 50 + (d * 11) % 950
            payloads.append(synth_wav(nf, channels=ch, sample_rate=sr, seed=d))
        return pa.table({
            "media_id": pa.array([str(int(d)) for d in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        })

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        to_payload, batch_format="pyarrow"
    )
    out = extract_audio_meta(ds)
    return out.map_batches(
        lambda b: pa.table({
            "media_id": b["media_id"],
            "n_bytes": b["n_bytes"],
            "channels": b["channels"].cast(pa.int64()),
            "sample_rate": b["sample_rate"].cast(pa.int64()),
            "bits_per_sample": b["bits_per_sample"].cast(pa.int64()),
            "n_frames": b["n_frames"],
            "duration_ms": b["duration_ms"],
        }),
        batch_format="pyarrow",
    )


# WAV closed forms: 16-bit PCM, frame_bytes = 2*ch;
# n_bytes = 44 + nf * 2 * ch; duration_ms = nf * 1000 // sr
SQL_AUDIO_META = """
WITH p AS (
  SELECT CAST(doc_id AS VARCHAR) AS media_id,
         1 + doc_id % 2 AS ch,
         CASE doc_id % 3 WHEN 0 THEN 8000 WHEN 1 THEN 16000 ELSE 44100 END AS sr,
         50 + (doc_id * 11) % 950 AS nf
  FROM documents
)
SELECT media_id,
       CAST(44 + nf * 2 * ch AS BIGINT) AS n_bytes,
       CAST(ch AS BIGINT) AS channels,
       CAST(sr AS BIGINT) AS sample_rate,
       CAST(16 AS BIGINT) AS bits_per_sample,
       CAST(nf AS BIGINT) AS n_frames,
       CAST(nf * 1000 // sr AS BIGINT) AS duration_ms
FROM p
"""


def q_video_meta(sf_dir: str):
    """Video multimodal decode, container-level REAL (r5): each doc
    gets a structurally valid metadata-only MP4 (every box length and
    fixed-point field real) and the decode stage extracts
    width/height/duration/brand by actually walking the ISO-BMFF boxes
    (a malformed payload fails the gate).  Sample decode needs codecs this container honestly does
    not have — the metadata layer is the real thing."""
    from ..functions.multimodal import extract_video_meta, synth_mp4

    def to_payload(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for d in ids:
            d = int(d)
            w = 16 * (20 + d % 101)       # 320..1920 step 16
            h = 16 * (12 + d % 53)        # 192..1024 step 16
            dur = 500 + (d * 37) % 60000
            payloads.append(synth_mp4(w, h, dur))
        return pa.table({
            "media_id": pa.array([str(int(d)) for d in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        })

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        to_payload, batch_format="pyarrow"
    )
    out = extract_video_meta(ds)
    return out.map_batches(
        lambda b: pa.table({
            "media_id": b["media_id"],
            "n_bytes": b["n_bytes"],
            "width": b["width"].cast(pa.int64()),
            "height": b["height"].cast(pa.int64()),
            "duration_ms": b["duration_ms"],
            "n_tracks": b["n_tracks"].cast(pa.int64()),
            "brand": b["brand"],
        }),
        batch_format="pyarrow",
    )


# synth_mp4 layout is fixed-size (24 ftyp + 16 mdat + 216 moov = 256 B)
SQL_VIDEO_META = """
SELECT CAST(doc_id AS VARCHAR) AS media_id,
       CAST(256 AS BIGINT) AS n_bytes,
       CAST(16 * (20 + doc_id % 101) AS BIGINT) AS width,
       CAST(16 * (12 + doc_id % 53) AS BIGINT) AS height,
       CAST(500 + (doc_id * 37) % 60000 AS BIGINT) AS duration_ms,
       CAST(1 AS BIGINT) AS n_tracks,
       'isom' AS brand
FROM documents
"""


PERCOLATE_QUERIES = [
    ("watch_merge", "merge", None),                # bool.must: merge
    ("watch_hash_join", "hash join", None),        # must: hash AND join
    ("watch_scan_2of3", "scan filter vector", 2),  # minimum_should_match 2
    ("watch_sort_key", "sortKey", None),           # analyzer splits camelCase
]


def q_percolate(sf_dir: str):
    """Percolator (ES percolate query — reverse search, r5): documents
    stream against STORED queries compiled once per actor; per batch
    one tokenize pass + a boolean docs x vocab presence matrix, per
    query a vectorized count-threshold (minimum_should_match;
    bool.must = all terms).  The camelCase query exercises the
    code-aware analyzer on the QUERY side too (the ES contract: stored
    queries are analyzed like documents)."""
    from ..functions.percolate import percolate

    return percolate(
        _read(sf_dir, "documents", ["doc_id", "text"]), PERCOLATE_QUERIES
    )


SQL_PERCOLATE = f"""
WITH qt(query_id, term) AS (VALUES
  ('watch_merge', 'merge'),
  ('watch_hash_join', 'hash'), ('watch_hash_join', 'join'),
  ('watch_scan_2of3', 'scan'), ('watch_scan_2of3', 'filter'),
  ('watch_scan_2of3', 'vector'),
  ('watch_sort_key', 'sort'), ('watch_sort_key', 'key')
), need(query_id, need) AS (VALUES
  ('watch_merge', 1), ('watch_hash_join', 2),
  ('watch_scan_2of3', 2), ('watch_sort_key', 2)
), toks AS (
  SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents
)
SELECT q.query_id, t.doc_id, CAST(count(*) AS BIGINT) AS n_matched
FROM qt q JOIN toks t USING (term)
JOIN need n ON n.query_id = q.query_id
GROUP BY q.query_id, t.doc_id, n.need
HAVING count(*) >= n.need
"""


def q_video_frames(sf_dir: str):
    """Animated-frame sampling with a REAL codec (r5): each doc gets a
    genuinely LZW-compressed animated GIF (from-scratch encoder), the
    decode stage decodes every frame with the from-scratch LZW
    decoder and keeps every 3rd — the oracle mirrors the sampled-frame
    inventory as SQL arithmetic.  Decode authenticity is enforced by
    construction: the decoder verifies each frame's pixel count against
    its descriptor, so a codec regression raises and fails the gate."""
    from ..functions.multimodal import extract_frame_samples, synth_gif_animation

    def to_payload(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for d in ids:
            d = int(d)
            payloads.append(synth_gif_animation(
                8 + d % 16, 6 + d % 10, 1 + d % 12, seed=d))
        return pa.table({
            "media_id": pa.array([str(int(d)) for d in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        })

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        to_payload, batch_format="pyarrow"
    )
    out = extract_frame_samples(ds)
    return out.map_batches(
        lambda b: pa.table({
            "media_id": b["media_id"],
            "frame_index": b["frame_index"],
            "width": b["width"].cast(pa.int64()),
            "height": b["height"].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )


SQL_VIDEO_FRAMES = """
WITH p AS (
  SELECT doc_id, 8 + doc_id % 16 AS w, 6 + doc_id % 10 AS h,
         1 + doc_id % 12 AS nf
  FROM documents
)
SELECT CAST(doc_id AS VARCHAR) AS media_id,
       CAST(unnest(range(0, nf, 3)) AS BIGINT) AS frame_index,
       CAST(w AS BIGINT) AS width,
       CAST(h AS BIGINT) AS height
FROM p
"""


MINHASH_THRESHOLD = 0.5


def q_minhash_lsh(sf_dir: str):
    """MinHash+LSH near-dup pairs with exact verification: banded-LSH
    candidates, exact distinct-3-shingle Jaccard per candidate, keep
    >= MINHASH_THRESHOLD.  With 32 bands of 2 rows the probability of
    missing a pair at j >= 0.5 is (1-j^2)^32 <= 7e-5 and the pipeline
    is fully deterministic, so the output equals the exact SQL
    definition (oracle-checked)."""
    from ..functions.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=MINHASH_THRESHOLD, k=3,
    )


SQL_MINHASH_LSH = f"""
WITH {_sh_cte(None)}
SELECT * FROM (
  SELECT p.a, p.b, p.inter,
         floor(CAST(p.inter AS DOUBLE) / (sa.nsh + sb.nsh - p.inter) * 1000000 + 0.5) / 1000000 AS jaccard
  FROM pairs p JOIN sizes sa ON p.a = sa.doc_id JOIN sizes sb ON p.b = sb.doc_id
) WHERE jaccard >= {MINHASH_THRESHOLD}
"""


_SIG_INDEX_CACHE: dict[str, str] = {}


def q_incremental_neardup(sf_dir: str):
    """Incremental near-dup: the ~10% "incoming" split (the same md5
    cut as q_hash_split's val side) probed against a PERSISTED minhash
    band index built once over the other ~90% — the daily-ingest path
    (new docs near-dup'd against the existing corpus without
    re-shingling it; the near-dup analog of the reference's incremental
    claim sync, /root/reference/app/jobs/chainquery/chainquery.go:94).
    Emitted pairs are exact-verified, a = new doc, b = corpus doc."""
    from ..functions.dedup import minhash_index_probe, minhash_index_write

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def _side(b: pa.Table, want_new: bool) -> pa.Table:
        h = _md5_hex(b["text"])
        is_new = pc.greater_equal(pc.utf8_slice_codeunits(h, 0, 2), "e6")
        return b.filter(is_new if want_new else pc.invert(is_new))

    old = docs.map_batches(lambda b: _side(b, False), batch_format="pyarrow")
    new = docs.map_batches(lambda b: _side(b, True), batch_format="pyarrow")
    idx = _SIG_INDEX_CACHE.get(sf_dir)
    if not (idx and os.path.exists(os.path.join(idx, "meta.json"))):
        key = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
        idx = f"/tmp/lighthouse_ray_idx/sig-v1-{key}"
        if not os.path.exists(os.path.join(idx, "meta.json")):
            minhash_index_write(old, idx)
        _SIG_INDEX_CACHE[sf_dir] = idx
    return minhash_index_probe(new, idx, threshold=MINHASH_THRESHOLD)


SQL_INCREMENTAL_NEARDUP = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sides AS (
  SELECT doc_id,
         CASE WHEN substr(md5(text), 1, 2) >= 'e6' THEN 1 ELSE 0 END AS side
  FROM documents
),
sizes AS (
  SELECT doc_id,
         CAST(len(list_distinct(list_transform(range(1, len(t) - 1),
              i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))) AS BIGINT) AS nsh
  FROM toks
),
sh AS (
  SELECT doc_id, unnest(list_distinct(list_transform(range(1, len(t) - 1),
         i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))) AS s
  FROM toks
),
pairs AS (
  SELECT n.doc_id AS a, o.doc_id AS b, CAST(count(*) AS BIGINT) AS inter
  FROM sh n JOIN sides sn ON n.doc_id = sn.doc_id AND sn.side = 1
       JOIN sh o ON n.s = o.s
       JOIN sides so ON o.doc_id = so.doc_id AND so.side = 0
  GROUP BY n.doc_id, o.doc_id
)
SELECT * FROM (
  SELECT p.a, p.b, p.inter,
         floor(CAST(p.inter AS DOUBLE) / (sa.nsh + sb.nsh - p.inter) * 1000000 + 0.5) / 1000000 AS jaccard
  FROM pairs p JOIN sizes sa ON p.a = sa.doc_id JOIN sizes sb ON p.b = sb.doc_id
) WHERE jaccard >= {MINHASH_THRESHOLD}
"""


def q_simhash_dedup(sf_dir: str):
    """ALL pairs with simhash hamming <= 3 (pigeonhole bands have
    recall exactly 1, and token hashes are md5-low64, so the SQL oracle
    recomputes the identical signatures)."""
    from ..functions.dedup import simhash_candidates

    return simhash_candidates(_read(sf_dir, "documents", ["doc_id", "text"]))


SQL_SIMHASH_DEDUP = f"""
WITH toks AS (SELECT doc_id, unnest({TOK}) AS t FROM documents),
h AS (SELECT doc_id, md5_number_lower(t) AS hv FROM toks),
bits AS (
  SELECT doc_id, b,
         CASE WHEN sum(CASE WHEN (hv >> CAST(b AS INTEGER)) & 1 = 1 THEN 1 ELSE -1 END) > 0
              THEN 1 ELSE 0 END AS bit
  FROM h CROSS JOIN range(0, 64) r(b) GROUP BY doc_id, b
),
sig AS (SELECT doc_id, list(bit ORDER BY b) AS bits FROM bits GROUP BY doc_id),
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         CAST(len(list_filter(range(1, 65), i -> x.bits[i] <> y.bits[i])) AS BIGINT) AS hamming
  FROM sig x JOIN sig y ON x.doc_id < y.doc_id
)
SELECT a, b, hamming FROM pairs WHERE hamming <= 3
"""


def q_ann_ivf_topk(sf_dir: str):
    """IVF top-k in full-probe mode (nprobe = n_clusters): exercises the
    whole IVF machinery (coarse quantizer, partitioned parquet buckets,
    probe reads) while being provably identical to brute force, so the
    brute-force SQL is its oracle.  Partial-probe recall is asserted in
    tests/test_functions.py."""
    from ..functions.similarity import ivf_index, ivf_topk

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    q = np.asarray(t.filter(pc.equal(t["vec_id"], 0))["embedding"][0].as_py(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    idx = ivf_index(ds, n_clusters=8)
    out = ivf_topk(idx, q, k=11, nprobe=8)
    out = out[out["vec_id"] != 0].head(10).reset_index(drop=True)
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# corpus curation family (decontamination, repetition filters, funnel)
# ---------------------------------------------------------------------------

DECON_N, DECON_MOD = 4, 37
# Hard cap on the broadcast benchmark shingle set (the "benchmark ≪
# corpus" contract, now a checked invariant): ~50M strings is a few GB
# of driver/object-store memory — far beyond any real eval suite.  Past
# it the broadcast-probe design is the wrong tool; fail loudly and
# point at the partitioned band-index probe path (incremental_neardup's
# shape) instead of silently OOMing the driver.
DECON_MAX_BENCH_SHINGLES = 50_000_000


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag corpus documents sharing any
    token-``DECON_N``-gram with the "benchmark" slice (here the
    deterministic ``doc_id % DECON_MOD == 0`` subset stands in for an
    eval set).  The benchmark side is tiny relative to the corpus (eval
    suites are MBs vs 100 TB), so its distinct shingles are collected
    once and broadcast via ``ray.put``; the corpus pass is then
    embarrassingly parallel — one ``pc.is_in`` hash-set probe per batch,
    no shuffle at all.  Output: (doc_id, n_overlap) for contaminated
    non-benchmark docs, n_overlap = distinct overlapping shingles."""
    import ray

    from ..functions.dedup import doc_shingles

    def _bench_mask(ids: pa.Array) -> np.ndarray:
        return ids.to_numpy(zero_copy_only=False) % DECON_MOD == 0

    def bench_part(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        b = b.filter(pa.array(_bench_mask(ids)))
        sh = doc_shingles(b, "text", "doc_id", DECON_N)
        # distinct within the batch; global distinct happens on collect
        return pa.table({"s": sh["sh"].unique()})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    bench_vals = collect(ds.map_batches(bench_part, batch_format="pyarrow")).to_pandas()["s"]
    # checked invariant, not a comment: the collected per-batch-distinct
    # partials bound the broadcast set from above
    if len(bench_vals) > DECON_MAX_BENCH_SHINGLES:
        raise ValueError(
            f"benchmark shingle partials ({len(bench_vals)}) exceed "
            f"DECON_MAX_BENCH_SHINGLES={DECON_MAX_BENCH_SHINGLES}: the eval set is "
            "not small relative to the corpus — use a partitioned shingle-index "
            "probe (see incremental_neardup / state.incremental) instead of the "
            "broadcast path"
        )
    bench_ref = ray.put(pa.array(sorted(set(bench_vals)), type=pa.string()))

    def flag(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        b = b.filter(pa.array(~_bench_mask(ids)))
        sh = doc_shingles(b, "text", "doc_id", DECON_N)
        hit = sh.filter(pc.is_in(sh["sh"], value_set=ray.get(bench_ref)))
        agg = hit.group_by("id", use_threads=False).aggregate([([], "count_all")])
        return pa.table(
            {
                "doc_id": agg["id"].cast(pa.int64()),
                "n_overlap": agg["count_all"].cast(pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


_DECON_SH = " || ' ' || ".join(f"t[i+{k}]" if k else "t[i]" for k in range(DECON_N))
SQL_DECONTAMINATE = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT doc_id, unnest(list_distinct(list_transform(
         range(1, len(t) - {DECON_N} + 2), i -> {_DECON_SH}))) AS s
       FROM toks),
bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % {DECON_MOD} = 0)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_overlap
FROM sh
WHERE doc_id % {DECON_MOD} <> 0 AND s IN (SELECT s FROM bench)
GROUP BY doc_id
"""


def q_repetition_stats(sf_dir: str):
    """Within-doc repetition signals (the Gopher repetition filters,
    Rae et al. 2021 §A1.1, over token 2-grams): per doc the bigram
    total, the most frequent bigram's share, and the share of bigram
    occurrences whose bigram occurs more than once.  One vectorized
    batch pass — a doc is one row and never spans batches, so there is
    no shuffle; bigrams come from two slices of the flat token stream
    joined by one Arrow kernel."""

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, nrows = flat_tokens(b["text"])
        ids = b["doc_id"].combine_chunks() if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        L = len(parents)
        W = L - 1
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "n_bigrams": pa.array([], type=pa.int64()),
                "top_bigram_frac": pa.array([], type=pa.float64()),
                "dup_bigram_frac": pa.array([], type=pa.float64()),
            }
        )
        if W <= 0:
            return empty
        bg = pc.binary_join_element_wise(terms.slice(0, W), terms.slice(1, W), " ")
        valid = parents[:W] == parents[1:]
        t = pa.table({"p": pa.array(parents[:W][valid]), "bg": bg.filter(pa.array(valid))})
        cnt = t.group_by(["p", "bg"], use_threads=False).aggregate([([], "count_all")])
        p = cnt["p"].to_numpy(zero_copy_only=False)
        c = cnt["count_all"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = np.bincount(p, weights=c, minlength=nrows)
        top = np.zeros(nrows, dtype=np.float64)
        np.maximum.at(top, p, c)
        dupmask = c > 1
        dup = np.bincount(p[dupmask], weights=c[dupmask], minlength=nrows)
        keep = nb > 0
        if not keep.any():
            return empty
        safe = nb[keep]
        return pa.table(
            {
                "doc_id": ids.filter(pa.array(keep)).cast(pa.int64()),
                "n_bigrams": pa.array(safe.astype(np.int64)),
                "top_bigram_frac": pa.array(_round6(top[keep] / safe)),
                "dup_bigram_frac": pa.array(_round6(dup[keep] / safe)),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


SQL_REPETITION_STATS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
bg AS (SELECT doc_id, unnest(list_transform(range(1, len(t)), i -> t[i] || ' ' || t[i+1])) AS bg
       FROM toks),
cnt AS (SELECT doc_id, bg, count(*) AS c FROM bg GROUP BY doc_id, bg)
SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_bigrams,
       floor(CAST(max(c) AS DOUBLE) / sum(c) * 1000000 + 0.5) / 1000000 AS top_bigram_frac,
       floor(CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS DOUBLE) / sum(c) * 1000000 + 0.5)
         / 1000000 AS dup_bigram_frac
FROM cnt GROUP BY doc_id
"""


CUR_MIN_TOK, CUR_MAX_TOK, CUR_STOP_CAP = 20, 90, 0.12
CUR_LANGS = ("de", "en", "es", "fr")


def q_curation_funnel(sf_dir: str):
    """End-to-end corpus-curation funnel, the composed headline shape of
    a training-data pipeline: quality bounds (token count, stopword
    ratio) → language allowlist → exact dedup (keep min doc_id per
    content hash) → per-lang survivor stats.  The dedup winner's
    attributes ride INSIDE the packed Min key (fixed-width-hex doc_id
    prefix, then n_tokens, then lang), so the whole funnel is one
    filtering map pass plus two plain aggregates — no join, no
    per-group Python, one small shuffle keyed by content hash."""
    from ray.data.aggregate import Count, Min, Sum

    stop_arr = pa.array(list(STOPWORDS))
    lang_arr = pa.array(list(CUR_LANGS))

    def score(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        counts = np.bincount(parents, minlength=n).astype(np.float64)
        is_stop = pc.is_in(terms, value_set=stop_arr).to_numpy(zero_copy_only=False)
        stop_counts = np.bincount(parents[is_stop], minlength=n)
        ratio = stop_counts / np.maximum(counts, 1.0)
        lang_ok = pc.is_in(b["lang"], value_set=lang_arr).to_numpy(zero_copy_only=False)
        keep = (
            (counts >= CUR_MIN_TOK)
            & (counts <= CUR_MAX_TOK)
            & (ratio <= CUR_STOP_CAP)
            & lang_ok
        )
        kept = b.filter(pa.array(keep))
        if kept.num_rows == 0:
            return pa.table(
                {"h": pa.array([], type=pa.string()), "k": pa.array([], type=pa.string())}
            )
        n_tok = pa.array(counts[keep].astype(np.int64))
        packed = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(kept["doc_id"], pa.string()), 20, "0"),
            pc.utf8_lpad(pc.cast(n_tok, pa.string()), 10, "0"),
            kept["lang"],
            "",
        )
        return pa.table({"h": _md5_hex(kept["text"]), "k": packed})

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    winners = ds.map_batches(score, batch_format="pyarrow").groupby("h").aggregate(
        Min("k", alias_name="k")
    )

    decode_empty = pa.schema(
        [("lang", pa.string()), ("n_tokens", pa.int64())]
    ).empty_table()

    def decode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            # stable schema for empty aggregate partitions (avoids
            # RefBundle schema-drift warnings / inference hazards)
            return decode_empty
        return pa.table(
            {
                "lang": pc.utf8_slice_codeunits(b["k"], 30, 99),
                "n_tokens": pc.cast(pc.utf8_slice_codeunits(b["k"], 20, 30), pa.int64()),
            }
        )

    out = winners.map_batches(decode, batch_format="pyarrow").groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_tokens", alias_name="n_tokens")
    )
    final_empty = pa.schema(
        [("lang", pa.string()), ("n_docs", pa.int64()), ("n_tokens", pa.int64())]
    ).empty_table()

    def finalize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return final_empty
        return pa.table(
            {
                "lang": b["lang"],
                "n_docs": b["n_docs"].cast(pa.int64()),
                "n_tokens": b["n_tokens"].cast(pa.int64()),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


# integer weights for the quality "model" (fastText-style linear doc
# classifier stand-in): products stay exact in int64, one final
# division — IEEE-identical to the SQL oracle (no transcendentals)
QM_W_TOK, QM_W_STOP, QM_W_CHARS, QM_BIAS = 3, -40, 2, 7


class QualityModelStage:
    """Batched model inference as an actor-pool stage: the "model"
    (weight vector) is fetched from the object store ONCE per actor in
    ``__init__`` (the pattern for a real fastText/ONNX quality
    classifier — load once, score per batch); ``__call__`` featurizes
    a batch vectorized and scores it with integer dot products.  The
    model here is a deterministic linear scorer so the DuckDB oracle
    can verify every output value exactly."""

    def __init__(self, weights):
        # Ray Data ships constructor kwargs through the object store
        # once per actor (its startup log cites ray#53727 — benign for
        # driver-held datasets), so this is already the load-once
        # broadcast pattern; real model weights (MBs-GBs) ride the
        # same path, or pass a `ray.put` ref pinned on the driver.
        self.w = weights  # (w_tok, w_stop, w_chars, bias)
        self.stop_set = pa.array(list(STOPWORDS))

    def __call__(self, b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        counts = np.bincount(parents, minlength=n)
        is_stop = pc.is_in(terms, value_set=self.stop_set).to_numpy(zero_copy_only=False)
        stop_counts = np.bincount(parents[is_stop], minlength=n)
        tok_lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False)
        char_sums = np.bincount(parents, weights=tok_lens.astype(np.float64), minlength=n).astype(np.int64)
        w_tok, w_stop, w_chars, bias = self.w
        z = w_tok * counts + w_stop * stop_counts + w_chars * char_sums + bias
        # round-half-up via floor(x*1e6 + 0.5): np.round is half-to-
        # even but SQL round() is half-away — exact .5e-6 ties (any
        # power-of-two token count makes one) would hash-mismatch
        score = np.floor(z / np.maximum(counts, 1) * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": b["doc_id"], "quality_score": pa.array(score)})


def q_model_score(sf_dir: str):
    """Quality-classifier inference over every document (the batched
    model-scoring stage of a training-data pipeline): an actor pool of
    ``QualityModelStage`` workers, model loaded once per actor in
    ``__init__``, scoring vectorized per batch."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        QualityModelStage,
        fn_constructor_kwargs={"weights": (QM_W_TOK, QM_W_STOP, QM_W_CHARS, QM_BIAS)},
        batch_format="pyarrow",
        concurrency=2,
    )


SQL_MODEL_SCORE = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
f AS (
  SELECT doc_id,
         CAST(len(toks) AS BIGINT) AS n_tok,
         CAST(len(list_filter(toks, x -> x IN ({_STOP_SQL}))) AS BIGINT) AS n_stop,
         CAST(coalesce(list_sum(list_transform(toks, x -> CAST(length(x) AS BIGINT))), 0) AS BIGINT) AS n_chars
  FROM t
)
SELECT doc_id,
       floor(CAST({QM_W_TOK} * n_tok + {QM_W_STOP} * n_stop + {QM_W_CHARS} * n_chars
                  + {QM_BIAS} AS DOUBLE) / greatest(n_tok, 1) * 1000000 + 0.5)
         / 1000000 AS quality_score
FROM f
"""


HH_K = 15


def q_heavy_hitters(sf_dir: str):
    """Exact top-15 token bigrams by total count via the Misra-Gries
    heavy-hitters sketch (bounded per-batch summaries + exact candidate
    recount; see functions/sketch.py for the exactness argument).  The
    shuffle carries at most sketch_size rows per batch instead of the
    full bigram domain — the scale path for huge key domains."""
    from ..functions.sketch import heavy_hitters

    out = heavy_hitters(
        _read(sf_dir, "documents", ["text"]), k=HH_K, sketch_size=4096
    )
    return out.rename(columns={"key": "bigram"})


SQL_HEAVY_HITTERS = f"""
WITH toks AS (SELECT {TOK} AS t FROM documents),
bg AS (SELECT unnest(list_transform(range(1, len(t)), i -> t[i] || ' ' || t[i+1])) AS bigram
       FROM toks)
SELECT bigram, CAST(count(*) AS BIGINT) AS cnt
FROM bg GROUP BY bigram ORDER BY cnt DESC, bigram LIMIT {HH_K}
"""


SHUF_SHARDS = 16
PACK_SEQ_LEN, PACK_BUCKETS = 256, 8


def q_train_shuffle(sf_dir: str):
    """Seeded deterministic global shuffle into reader shards (the
    epoch-ordering step of a training pipeline): affine-hash shuffle
    key, shard = key % N, per-shard dense rank — one bounded exchange,
    no global sort (see functions/packing.py)."""
    from ..functions.packing import shuffle_shards

    return shuffle_shards(
        _read(sf_dir, "documents", ["doc_id"]), n_shards=SHUF_SHARDS
    )


SQL_TRAIN_SHUFFLE = f"""
WITH k AS (
  SELECT doc_id,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 1013904223) % 4294967296 AS BIGINT)
           AS shuffle_key
  FROM documents
)
SELECT doc_id, shuffle_key,
       CAST(shuffle_key % {SHUF_SHARDS} AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY shuffle_key % {SHUF_SHARDS}
                               ORDER BY shuffle_key, doc_id) - 1 AS BIGINT) AS pos
FROM k
"""


def q_seq_pack(sf_dir: str):
    """GPT-style sequence-packing manifest: docs concatenated per
    bucket in id order, the token stream cut every ``PACK_SEQ_LEN``
    tokens; emits each doc's absolute stream offset and the sequence
    id / intra-sequence offset it starts at (functions/packing.py)."""
    from ..functions.packing import seq_pack

    def count_tokens(b: pa.Table) -> pa.Table:
        parents, _pos, _terms, n = flat_tokens(b["text"])
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(np.bincount(parents, minlength=n), type=pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        count_tokens, batch_format="pyarrow"
    )
    return seq_pack(ds, seq_len=PACK_SEQ_LEN, n_buckets=PACK_BUCKETS)


SQL_SEQ_PACK = f"""
WITH t AS (
  SELECT doc_id, CAST(doc_id % {PACK_BUCKETS} AS BIGINT) AS bucket,
         CAST(len({TOK}) AS BIGINT) AS n_tokens
  FROM documents
), c AS (
  SELECT doc_id, bucket, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (PARTITION BY bucket ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS start_tok
  FROM t
)
SELECT doc_id, bucket, n_tokens, start_tok,
       CAST(start_tok // {PACK_SEQ_LEN} AS BIGINT) AS seq_id,
       CAST(start_tok % {PACK_SEQ_LEN} AS BIGINT) AS seq_off
FROM c
"""


SHARD_TO_READ = 3


def q_shard_stream(sf_dir: str):
    """The consumption side of the training layout: materialize ONE
    reader shard — each document of shard 3 with its stream position
    and a content fingerprint — by joining the seeded-shuffle manifest
    back to the payload table through the shuffle join (manifest side
    filtered to the shard BEFORE the exchange, so only 1/N of the
    manifest and the matching payloads move)."""
    from ..functions.joins import shuffle_join
    from ..functions.packing import shuffle_shards

    manifest = shuffle_shards(
        _read(sf_dir, "documents", ["doc_id"]), n_shards=SHUF_SHARDS
    ).map_batches(
        lambda b: b.filter(pc.equal(b["shard"], SHARD_TO_READ)),
        batch_format="pyarrow",
    )

    payload = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: pa.table(
            {"doc_id": b["doc_id"], "fingerprint": _md5_hex(b["text"])}
        ),
        batch_format="pyarrow",
    )
    return shuffle_join(manifest, payload, key="doc_id",
                        lcols=["pos"], rcols=["fingerprint"])


SQL_SHARD_STREAM = f"""
WITH k AS (
  SELECT doc_id,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 1013904223) % 4294967296 AS BIGINT)
           AS shuffle_key
  FROM documents
), s AS (
  SELECT doc_id, shuffle_key % {SHUF_SHARDS} AS shard,
         CAST(row_number() OVER (PARTITION BY shuffle_key % {SHUF_SHARDS}
                                 ORDER BY shuffle_key, doc_id) - 1 AS BIGINT) AS pos
  FROM k
)
SELECT s.doc_id, s.pos, md5(d.text) AS fingerprint
FROM s JOIN documents d ON d.doc_id = s.doc_id
WHERE s.shard = {SHARD_TO_READ}
"""


# PII-style scrub patterns, applied in order (RE2 in BOTH engines:
# Arrow's replace_substring_regex and DuckDB's regexp_replace are RE2,
# so match semantics are identical by construction)
PII_PATTERNS = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"[0-9]+", "<NUM>"),
)


def q_pii_scrub(sf_dir: str):
    """PII / identifier scrubbing over event payloads (the redaction
    stage of a curation pipeline): sequential vectorized RE2
    replacements (email -> IPv4 -> digit runs) with per-row redaction
    counts.  Pure per-batch kernels — no shuffle, no Python loop."""

    def f(b: pa.Table) -> pa.Table:
        s = b["props"]
        s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
        total = np.zeros(len(s), dtype=np.int64)
        for pat, rep in PII_PATTERNS:
            total += pc.count_substring_regex(s, pat).to_numpy(zero_copy_only=False)
            s = pc.replace_substring_regex(s, pattern=pat, replacement=rep)
        return pa.table({
            "event_id": b["event_id"],
            "scrubbed": s,
            "n_redacted": pa.array(total),
        })

    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        f, batch_format="pyarrow"
    )


def _sql_pii_scrub() -> str:
    expr, counts = "props", []
    for pat, rep in PII_PATTERNS:
        counts.append(f"len(regexp_extract_all({expr}, '{pat}'))")
        expr = f"regexp_replace({expr}, '{pat}', '{rep}', 'g')"
    return f"""
SELECT event_id, {expr} AS scrubbed,
       CAST({' + '.join(counts)} AS BIGINT) AS n_redacted
FROM events
"""


KMV_K = 64


def q_kmv_distinct(sf_dir: str):
    """Per-language approximate distinct-token count via the KMV
    sketch: k smallest md5-low64 hashes per group per batch, merged to
    the k smallest of the union — the token stream never enters an
    exchange.  The estimator is a deterministic function of the
    distinct-hash set, so SQL mirrors it exactly (functions/sketch.py)."""
    from ..functions.sketch import kmv_distinct

    return kmv_distinct(_read(sf_dir, "documents", ["lang", "text"]), k=KMV_K)


SQL_KMV_DISTINCT = f"""
WITH toks AS (SELECT lang, unnest({TOK}) AS t FROM documents),
u AS (SELECT DISTINCT lang, md5_number_lower(t) AS hv FROM toks),
r AS (SELECT lang, hv,
             row_number() OVER (PARTITION BY lang ORDER BY hv) AS rk,
             count(*) OVER (PARTITION BY lang) AS cnt
      FROM u)
SELECT lang,
       CAST(CASE WHEN cnt < {KMV_K} THEN cnt
                 ELSE ({KMV_K} - 1) * CAST(18446744073709551616 AS HUGEINT) // CAST(hv AS HUGEINT)
            END AS BIGINT) AS est_distinct
FROM r
WHERE rk = CASE WHEN cnt < {KMV_K} THEN cnt ELSE {KMV_K} END
"""


def q_bloom_anti_join(sf_dir: str):
    """Blocklist scrub as a bloom semi-join reduction: orders whose
    customer is NOT in the blocked set (customers of nations 0-4).
    The bloom filter of the blocked keys is built distributed and
    broadcast (MBs); bloom-negative rows never enter the exchange —
    only the positive sliver goes through the exact left-outer
    shuffle join (functions/joins.py::bloom_anti_join)."""
    from ..functions.joins import bloom_anti_join

    blocked = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pa.table(
            {"o_custkey": b.filter(pc.less(b["c_nationkey"], 5))["c_custkey"]}
        ),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return bloom_anti_join(orders, blocked, key="o_custkey", cols=["o_orderkey"])


SQL_BLOOM_ANTI_JOIN = """
SELECT o_custkey, o_orderkey FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_nationkey < 5)
"""


KM_K, KM_ITERS = 8, 3


def q_kmeans(sf_dir: str):
    """Distributed Lloyd k-means over the embedding column (corpus
    clustering for mixture balancing / semantic grouping): per-batch
    assignment against broadcast centroids + per-cluster partial sums,
    driver reduces k rows per batch per iteration — no shuffle.  Runs
    on an integer lattice so the result is hash-exact against the
    unrolled SQL mirror (functions/clustering.py)."""
    from ..functions.clustering import kmeans_assign

    return kmeans_assign(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=KM_K, iters=KM_ITERS
    )


def _sql_kmeans() -> str:
    from ..functions.clustering import make_kmeans_sql

    return make_kmeans_sql(k=KM_K, iters=KM_ITERS)


PQ_M, PQ_CODES, PQ_ITERS, PQ_QID, PQ_K = 4, 8, 2, 0, 10


def q_pq_ann(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011) — the embedding
    search path that scales to 100 TB: train m per-subspace codebooks
    with the distributed lattice Lloyd loop, compress every vector to
    m codes, answer the query by asymmetric-distance lookup (one m ×
    n_codes integer inner-product table per query; each row costs m
    table lookups, the raw matrix is never scanned).  All arithmetic is
    exact int64 on the quantization lattice, so the result value-hashes
    against the unrolled SQL mirror (functions/pq.py::make_pq_sql).
    Query = the corpus row vec_id={PQ_QID}, quantized identically."""
    from ..functions.clustering import _quantize
    from ..functions.pq import pq_adc_topk, pq_fit

    def emb():
        return _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    books = pq_fit(emb(), m=PQ_M, n_codes=PQ_CODES, iters=PQ_ITERS)
    qrow = collect(
        emb()
        .map_batches(
            lambda b: b.filter(pc.equal(b["vec_id"], PQ_QID)),
            batch_format="pyarrow",
        )
    ).to_pandas()
    query_q = _quantize(
        np.asarray(qrow["embedding"].iloc[0], dtype=np.float64)[None, :], 1000, 1000
    )[0]
    return pq_adc_topk(emb(), books, query_q, k=PQ_K)


def _sql_pq_ann() -> str:
    from ..functions.pq import make_pq_sql

    return make_pq_sql(m=PQ_M, n_codes=PQ_CODES, iters=PQ_ITERS, k=PQ_K,
                       query_id=PQ_QID)


_CUR_LANG_SQL = ", ".join(f"'{x}'" for x in CUR_LANGS)
SQL_CURATION_FUNNEL = f"""
WITH t AS (SELECT doc_id, lang, {TOK} AS toks, md5(text) AS h FROM documents),
scored AS (
  SELECT doc_id, lang, len(toks) AS n_tokens,
         CAST(len(list_filter(toks, x -> x IN ({_STOP_SQL}))) AS DOUBLE)
           / greatest(len(toks), 1) AS stop_ratio, h
  FROM t
),
kept AS (
  SELECT * FROM scored
  WHERE n_tokens BETWEEN {CUR_MIN_TOK} AND {CUR_MAX_TOK}
    AND stop_ratio <= {CUR_STOP_CAP} AND lang IN ({_CUR_LANG_SQL})
),
win AS (SELECT h, min(doc_id) AS m FROM kept GROUP BY h)
SELECT k.lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(k.n_tokens) AS BIGINT) AS n_tokens
FROM kept k JOIN win w ON k.h = w.h AND k.doc_id = w.m
GROUP BY k.lang
"""


# ---------------------------------------------------------------------------
# round-3 additions: quota sampling, facets, highlighting, spell suggest
# ---------------------------------------------------------------------------

QUOTA_N = 15


def q_domain_quota(sf_dir: str):
    """Per-domain quota sampling (cap documents per source/repo — the
    domain-balancing stage of a curation pipeline; beyond-reference,
    SURVEY §2.6).  Scale shape: a bounded-summary exchange finds each
    group's N smallest doc_ids (<= N rows per group per batch ever
    move, functions/sketch.py::group_topn_min), the per-group CUTOFF
    (the N-th smallest id) is broadcast once via ``ray.put``, and a
    second streaming pass filters the payload — the payload table
    never enters a shuffle.  Assumes #domains << corpus (typical:
    millions of domains vs billions of docs); a shuffle join replaces
    the broadcast otherwise."""
    import ray
    from ..functions.sketch import group_topn_min

    from ray.data.aggregate import Max

    ids = _read(sf_dir, "documents", ["doc_id", "source"])
    kept = group_topn_min(ids, group_col="source", val_col="doc_id", n=QUOTA_N)
    cut = collect(kept.groupby("source").aggregate(Max("doc_id", alias_name="cut"))).to_pandas()
    sources = pa.array(cut["source"], type=pa.string())
    cutoffs = cut["cut"].to_numpy().astype(np.int64)
    ref = ray.put((sources, cutoffs))

    def keep(b: pa.Table, _ref=ref) -> pa.Table:
        import ray as _r

        srcs, cuts = _r.get(_ref)
        pos = pc.index_in(b["source"], value_set=srcs).to_numpy(zero_copy_only=False)
        ids_np = b["doc_id"].to_numpy(zero_copy_only=False)
        ok = (pos >= 0) & (ids_np <= cuts[np.maximum(pos, 0)])
        out = b.filter(pa.array(ok))
        return pa.table({
            "doc_id": out["doc_id"].cast(pa.int64()),
            "source": out["source"],
            "n_chars": out["n_chars"].cast(pa.int64()),
        })

    return _read(sf_dir, "documents", ["doc_id", "source", "n_chars"]).map_batches(
        keep, batch_format="pyarrow"
    )


SQL_DOMAIN_QUOTA = f"""
SELECT doc_id, source, n_chars FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= {QUOTA_N}
"""


FACET_TERM = "merge"


def q_facet_counts(sf_dir: str):
    """Faceted search: bucket counts over the result set of a match
    query (the ES terms-aggregation the reference's backend serves for
    its /status-style counts; SURVEY Q21 generalized).  Per-batch the
    match filter and both facet fields pre-aggregate locally, then ONE
    small groupby-sum shuffle carries <= (#langs + #sources) rows per
    batch — never the matched docs."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        hit = pc.equal(terms, FACET_TERM).to_numpy(zero_copy_only=False)
        sel = b.take(pa.array(np.unique(parents[hit])))
        outs = []
        for facet in ("lang", "source"):
            g = sel.select([facet]).group_by(facet, use_threads=False).aggregate(
                [([], "count_all")]
            )
            outs.append(pa.table({
                "facet": pa.array([facet] * g.num_rows, type=pa.string()),
                "bucket": g[facet],
                "n": g["count_all"].cast(pa.int64()),
            }))
        return pa.concat_tables(outs)

    ds = _read(sf_dir, "documents", ["text", "lang", "source"]).map_batches(
        partial, batch_format="pyarrow"
    )
    out = ds.groupby(["facet", "bucket"]).aggregate(Sum("n", alias_name="n"))
    return out.map_batches(
        lambda b: pa.table({"facet": b["facet"], "bucket": b["bucket"],
                            "n": b["n"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_FACET_COUNTS = f"""
WITH m AS (SELECT lang, source FROM documents WHERE list_contains({TOK}, '{FACET_TERM}'))
SELECT 'lang' AS facet, lang AS bucket, CAST(count(*) AS BIGINT) AS n FROM m GROUP BY lang
UNION ALL
SELECT 'source' AS facet, source AS bucket, CAST(count(*) AS BIGINT) AS n FROM m GROUP BY source
"""


HL_TERM = "merge"
HL_WINDOW = 2  # tokens of context on each side


def q_highlight_snippet(sf_dir: str):
    """Hit highlighting: for every document matching the query term,
    the snippet of +-{HL_WINDOW} tokens around the FIRST occurrence
    (the ES highlighter analog of the reference's result rendering,
    SURVEY M12).  Pure per-batch kernel: first occurrences and window
    bounds in numpy off the flat token stream, the snippet gathered
    with one take + binary_join — no shuffle, no per-row Python."""

    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "pos": pa.array([], type=pa.int64()),
        "snippet": pa.array([], type=pa.string()),
    })

    def f(b: pa.Table) -> pa.Table:
        parents, pos, terms, n = flat_tokens(b["text"])
        hit = pc.equal(terms, HL_TERM).to_numpy(zero_copy_only=False)
        hidx = np.flatnonzero(hit)
        if len(hidx) == 0:
            return empty
        # stream is row-major, so the first hit per row is the first
        # occurrence np.unique reports
        rows, first = np.unique(parents[hidx], return_index=True)
        occ = hidx[first]
        p = pos[occ]
        row_lens = np.bincount(parents, minlength=n)
        row_offs = np.concatenate([[0], np.cumsum(row_lens)])
        start = np.maximum(p - HL_WINDOW, 0)
        end = np.minimum(p + HL_WINDOW + 1, row_lens[rows])
        glen = end - start
        gstart = row_offs[rows] + start
        lo = np.concatenate([[0], np.cumsum(glen)])
        idx = np.repeat(gstart - lo[:-1], glen) + np.arange(int(lo[-1]))
        la = pa.ListArray.from_arrays(
            pa.array(lo, type=pa.int32()), pc.take(terms, pa.array(idx))
        )
        return pa.table({
            "doc_id": pc.take(b["doc_id"], pa.array(rows)).cast(pa.int64()),
            "pos": pa.array(p.astype(np.int64)),
            "snippet": pc.binary_join(la, " "),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_HIGHLIGHT_SNIPPET = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
m AS (SELECT doc_id, toks, list_position(toks, '{HL_TERM}') AS idx FROM t
      WHERE list_position(toks, '{HL_TERM}') > 0)
SELECT doc_id, CAST(idx - 1 AS BIGINT) AS pos,
       array_to_string(toks[greatest(idx - {HL_WINDOW}, 1):idx + {HL_WINDOW}], ' ') AS snippet
FROM m
"""


SPELL_Q = "sor"  # misspelling of "sort"; also within 2 of "row"/"slow"
SPELL_MAXD = 2
SPELL_TOPK = 5


def q_spell_suggest(sf_dir: str):
    """Spelling suggestion over the term dictionary ("did you mean"):
    rank dictionary terms within edit distance {SPELL_MAXD} of the
    query by (distance asc, df desc, term asc), top {SPELL_TOPK} — the
    ES term-suggester analog of the reference's fuzziness=AUTO
    (app/actions/search/query.go:131,177).  Each batch's distances come
    from the bit-parallel kernel over its ``term`` buffers
    (``util.edit_distance``, the one fuzzy expansion uses); candidates
    after the distance filter are a sliver, so the final sort+limit is
    cheap."""

    def dist(b: pa.Table) -> pa.Table:
        data, offs = string_buffers(b["term"])
        d = edit_distance(data, offs, np.arange(b.num_rows), SPELL_Q)
        t = pa.table({
            "term": b["term"],
            "dist": pa.array(d, type=pa.int64()),
            "df": b["df"].cast(pa.int64()),
        })
        return t.filter(pc.less_equal(t["dist"], SPELL_MAXD))

    cand = q_term_df(sf_dir).map_batches(dist, batch_format="pyarrow")
    return cand.sort(["dist", "df", "term"], descending=[False, True, False]).limit(
        SPELL_TOPK
    )


SQL_SPELL_SUGGEST = f"""
WITH df AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df
  FROM (SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
  GROUP BY term
)
SELECT term, CAST(levenshtein(term, '{SPELL_Q}') AS BIGINT) AS dist, df
FROM df
WHERE levenshtein(term, '{SPELL_Q}') <= {SPELL_MAXD}
QUALIFY row_number() OVER (ORDER BY dist, df DESC, term) <= {SPELL_TOPK}
"""


SUB_K = 8  # tokens per gram for the exact-substring criterion


def q_substring_dup(sf_dir: str):
    """Exact substring-duplication (Lee et al. 2022 ExactSubstr
    restated over k-token grams): per doc, the number of its distinct
    {SUB_K}-grams shared verbatim with another document — the
    contamination test Jaccard misses when the shared run is a small
    slice of both docs (functions/dedup.py::substring_dup_docs)."""
    from ..functions.dedup import substring_dup_docs

    return substring_dup_docs(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=SUB_K
    )


SQL_SUBSTRING_DUP = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
i AS (SELECT doc_id, toks, unnest(range(1, len(toks) - {SUB_K} + 2)) AS s FROM t),
g AS (SELECT DISTINCT doc_id, array_to_string(toks[s:s + {SUB_K} - 1], ' ') AS gram FROM i),
d AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2)
SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_dup_grams
FROM g JOIN d USING (gram) GROUP BY g.doc_id
"""


def q_dup_substr_spans(sf_dir: str):
    """Maximal duplicated-substring SPANS (Lee et al. 2022 ExactSubstr,
    the positional output): per doc the maximal token ranges covered by
    {SUB_K}-grams appearing verbatim in >= 2 distinct documents — the
    exact ranges substring-level dedup removes from training text
    (functions/dedup.py::substring_dup_spans)."""
    from ..functions.dedup import substring_dup_spans

    return substring_dup_spans(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=SUB_K
    )


SQL_DUP_SUBSTR_SPANS = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
i AS (SELECT doc_id, unnest(range(1, len(toks) - {SUB_K} + 2)) AS gs,
             unnest(list_transform(range(1, len(toks) - {SUB_K} + 2),
                    j -> array_to_string(toks[j:j + {SUB_K} - 1], ' '))) AS gram
      FROM t),
d AS (SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM i)
      GROUP BY gram HAVING count(*) >= 2),
o AS (SELECT doc_id, gs FROM i WHERE gram IN (SELECT gram FROM d)),
b AS (SELECT doc_id, gs,
             CASE WHEN gs <= lag(gs) OVER (PARTITION BY doc_id ORDER BY gs)
                          + {SUB_K} THEN 0 ELSE 1 END AS brk
      FROM o),
g AS (SELECT doc_id, gs,
             sum(brk) OVER (PARTITION BY doc_id ORDER BY gs) AS gid FROM b)
SELECT doc_id, CAST(min(gs) AS BIGINT) AS s,
       CAST(max(gs) + {SUB_K} AS BIGINT) AS e,
       CAST(max(gs) + {SUB_K} - min(gs) AS BIGINT) AS len
FROM g GROUP BY doc_id, gid
"""


def q_substring_scrub(sf_dir: str):
    """ExactSubstr APPLIED (Lee et al. 2022 remove the duplicated
    BYTES): cut every maximal duplicated {SUB_K}-gram span out of each
    doc and rebuild the text from the kept tokens in order — the
    companion of `dup_substr_spans` that produces the actual training
    text (functions/dedup.py::substring_scrub; one extra doc-keyed
    exchange carrying tagged doc + span rows, vectorized coverage-diff
    reduce)."""
    from ..functions.dedup import substring_scrub

    return substring_scrub(
        lambda: _read(sf_dir, "documents", ["doc_id", "text"]), k=SUB_K
    )


SQL_SUBSTRING_SCRUB = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
i AS (SELECT doc_id, unnest(range(1, len(toks) - {SUB_K} + 2)) AS gs,
             unnest(list_transform(range(1, len(toks) - {SUB_K} + 2),
                    j -> array_to_string(toks[j:j + {SUB_K} - 1], ' '))) AS gram
      FROM t),
d AS (SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM i)
      GROUP BY gram HAVING count(*) >= 2),
o AS (SELECT doc_id, gs FROM i WHERE gram IN (SELECT gram FROM d)),
cut AS (SELECT DISTINCT doc_id, gs + off AS pos
        FROM o, unnest(range(0, {SUB_K})) AS u(off)),
tok AS (SELECT doc_id, unnest(toks) AS tok, generate_subscripts(toks, 1) AS p
        FROM t),
clean AS (
  SELECT tok.doc_id,
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(cut.pos) AS BIGINT) AS n_cut,
         coalesce(string_agg(CASE WHEN cut.pos IS NULL THEN tok END,
                             ' ' ORDER BY p), '') AS text_clean
  FROM tok LEFT JOIN cut ON cut.doc_id = tok.doc_id AND cut.pos = tok.p
  GROUP BY tok.doc_id)
SELECT t.doc_id, coalesce(c.n_tokens, 0) AS n_tokens,
       coalesce(c.n_cut, 0) AS n_cut,
       coalesce(c.text_clean, '') AS text_clean
FROM t LEFT JOIN clean c ON c.doc_id = t.doc_id
"""


PPL_VOCAB = 20   # binds at test scale so the OOV floor is exercised
PPL_CUTOFF = 5.2


def q_perplexity_filter(sf_dir: str):
    """Perplexity-style quality filter (CCNet, Wenzek et al. 2020):
    per-doc cross-entropy under the corpus unigram LM (top-{PPL_VOCAB}
    model broadcast once, count-1 OOV floor), kept = xent <=
    {PPL_CUTOFF} on the round6 value (functions/textstats.py::
    unigram_xent)."""
    from ..functions.textstats import unigram_xent

    ds = unigram_xent(
        _read(sf_dir, "documents", ["doc_id", "text"]), vocab=PPL_VOCAB
    )
    return ds.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "xent": b["xent"],
            "kept": pc.less_equal(b["xent"], PPL_CUTOFF).cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )


SQL_PERPLEXITY_FILTER = f"""
WITH cf AS (
  SELECT term, count(*) AS cf
  FROM (SELECT unnest({TOK}) AS term FROM documents) GROUP BY term
),
tot AS (SELECT sum(cf) AS total FROM cf),
model AS (SELECT term, cf FROM cf ORDER BY cf DESC, term LIMIT {PPL_VOCAB}),
toks AS (SELECT doc_id, unnest({TOK}) AS term FROM documents),
s AS (
  SELECT t.doc_id, ln(CAST(coalesce(m.cf, 1) AS DOUBLE) / tot.total) AS lp
  FROM toks t LEFT JOIN model m ON t.term = m.term CROSS JOIN tot
),
x AS (
  SELECT doc_id, floor(-avg(lp) * 1000000 + 0.5) / 1000000 AS xent
  FROM s GROUP BY doc_id
)
SELECT doc_id, xent, CAST(xent <= {PPL_CUTOFF} AS BIGINT) AS kept FROM x
"""


BP_FRAC = 0.75   # a segment in >= 75% of docs is boilerplate
BP_MIN_LEN = 2   # trimmed segments shorter than this are never stripped


def q_boilerplate_strip(sf_dir: str):
    """Boilerplate segment removal (CCNet / RefinedWeb line-level dedup,
    Wenzek et al. 2020): strip every segment whose trimmed form occurs
    in >= {BP_FRAC} of DISTINCT docs, and rebuild each doc's text from
    the kept segments in original order.  Real corpora split on
    newlines; the synthetic table has none, so the gate exercises the
    same machinery at sep=' ' — corpus-DF-driven token stripping with
    order-preserving reconstruction
    (functions/dedup.py::boilerplate_strip)."""
    from ..functions.dedup import boilerplate_strip

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    min_docs = int(np.ceil(BP_FRAC * docs.count()))
    return boilerplate_strip(
        docs, min_docs=min_docs, min_len=BP_MIN_LEN, sep=" "
    ).sort("doc_id")


SQL_BOILERPLATE_STRIP = f"""
WITH l AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS line,
         generate_subscripts(string_split(text, ' '), 1) AS idx
  FROM documents
),
e AS (
  SELECT doc_id, idx, line,
         trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) AS t
  FROM l
),
bad AS (
  SELECT t FROM e WHERE len(t) >= {BP_MIN_LEN}
  GROUP BY t
  HAVING count(DISTINCT doc_id)
         >= CAST(ceil({BP_FRAC} * (SELECT count(*) FROM documents)) AS BIGINT)
),
m AS (
  SELECT doc_id, idx, line,
         NOT (len(t) >= {BP_MIN_LEN} AND t IN (SELECT t FROM bad)) AS keep
  FROM e
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_segments,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS n_removed,
       coalesce(string_agg(CASE WHEN keep THEN line END, ' ' ORDER BY idx), '')
         AS text_clean
FROM m GROUP BY doc_id ORDER BY doc_id
"""


SEM_K, SEM_ITERS, SEM_THR = 8, 2, 0.4


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means clusters bound the
    pairwise cosine work, within-cluster 'keep the smallest id among
    near-duplicates' — the composition of the distributed quantized
    k-means and the embedding near-dup family
    (functions/clustering.py::semdedup)."""
    from ..functions.clustering import semdedup

    return semdedup(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=SEM_K, iters=SEM_ITERS, threshold=SEM_THR,
    )


def _sql_semdedup() -> str:
    from ..functions.clustering import make_semdedup_sql

    return make_semdedup_sql(k=SEM_K, iters=SEM_ITERS, threshold=SEM_THR)


REGEX_PATTERN = r"(merge|spark) [a-z]+ batch"


def q_regex_search(sf_dir: str):
    """Trigram-indexed regex search (Cox-style code-search planning:
    mandatory-literal DNF → trigram posting intersection → RE2 verify
    on candidates only; functions/regex_search.py).  The index build is
    one shuffle-free map pass writing ``part=tri%P`` parquet; the query
    reads only the planned trigrams' partitions.  RE2 on both sides
    (pyarrow match_substring_regex / DuckDB regexp_matches) keeps the
    oracle bit-comparable."""
    from ..functions.regex_search import build_trigram_index, regex_search

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    idx = build_trigram_index(ds, num_parts=32)
    try:
        return collect(regex_search(
            _read(sf_dir, "documents", ["doc_id", "text"]), idx, REGEX_PATTERN
        )).to_pandas()
    finally:
        import shutil

        shutil.rmtree(idx.root, ignore_errors=True)


SQL_REGEX_SEARCH = f"""
SELECT doc_id FROM documents WHERE regexp_matches(text, '{REGEX_PATTERN}')
"""


# ---------------------------------------------------------------------------
# round-3 query-surface + curation additions: keyset pagination, synonym
# expansion, two-phase rescore, date-histogram aggregation, significant
# terms, importance sampling, vocabulary pruning
# ---------------------------------------------------------------------------

SYNONYMS = {"merge": ("join",), "sort": ("order",)}
PHRASE_RESCORE_BONUS = 2.0
RESCORE_WINDOW = 50
TARGET_VOCAB = ("merge", "sort", "window", "join", "order", "hash", "vector")


def q_search_after(sf_dir: str):
    """Keyset deep pagination (the search_after sibling of the
    reference's from/size paging, search.go:56-63): page 2 of the
    flagship BM25 ranking fetched via the (score, doc_id) cursor of
    page 1's last hit — never via offset — so a page at depth d costs
    O(d + size) on ONE replica once, not O(d) heap on every replica per
    request (query/pagination.py)."""
    from ..index import IndexReader
    from ..query.pagination import search_after_topk

    reader = IndexReader(_built_index(sf_dir))
    terms = tokenize_text(BM25_QUERY)
    _page1, cursor = search_after_topk(reader, "content", terms, size=10)
    page2, _ = search_after_topk(reader, "content", terms, size=10, after=cursor)
    return pd.DataFrame(
        {
            "doc_id": np.array([d for d, _ in page2], dtype=np.int64),
            "score": np.round(np.array([s for _, s in page2], dtype=np.float64), 6),
        }
    )


def q_synonym_match(sf_dir: str):
    """Query-time synonym expansion (analysis/synonyms.py, the
    generalised form of the reference's special-query rewrites,
    special.go:5-41): the flagship query expanded through a
    term->synonyms map and scored as one OR-of-terms BM25 query — each
    synonym scores with its own df, nothing is reindexed."""
    from ..analysis.synonyms import expand_terms
    from ..index import IndexReader
    from ..query.pagination import topk_page

    reader = IndexReader(_built_index(sf_dir))
    terms = expand_terms(tokenize_text(BM25_QUERY), SYNONYMS)
    _ords, doc_ids, scores = topk_page(reader, "content", terms, size=10)
    return pd.DataFrame({"doc_id": doc_ids, "score": np.round(scores, 6)})


def q_rescore_phrase(sf_dir: str):
    """Two-phase rescore (query/rescore.py): cheap BM25 top-50 window,
    then +2.0 for window docs containing the adjacent phrase
    'merge sort' (positional posting intersection), re-ranked, top 10.
    Docs outside the window never pay the phrase check — at 10^12 docs
    the expensive pass is window-sized, not corpus-sized."""
    from ..index import IndexReader
    from ..query.rescore import rescore_phrase_topk

    reader = IndexReader(_built_index(sf_dir))
    hits = rescore_phrase_topk(
        reader,
        "content",
        tokenize_text(BM25_QUERY),
        ["merge", "sort"],
        window=RESCORE_WINDOW,
        k=10,
        bonus=PHRASE_RESCORE_BONUS,
    )
    return pd.DataFrame(
        {
            "doc_id": np.array([d for d, _ in hits], dtype=np.int64),
            "score": np.round(np.array([s for _, s in hits], dtype=np.float64), 6),
        }
    )


def _sql_synonym_match() -> str:
    """The synonym-expanded query IS a plain BM25 query over the union
    of surface + synonym terms — the oracle is the closed-form BM25 on
    that expanded term list."""
    from ..analysis.synonyms import expand_terms

    expanded = expand_terms(tokenize_text(BM25_QUERY), SYNONYMS)
    return _sql_bm25(" ".join(expanded))


def _sql_rescore_phrase() -> str:
    terms = tokenize_text(BM25_QUERY)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
),
win AS (
  SELECT doc_id, score FROM scored
  ORDER BY score DESC, doc_id LIMIT {RESCORE_WINDOW}
),
ph AS (
  SELECT doc_id FROM (SELECT doc_id, {TOK} AS toks FROM documents)
  WHERE len(list_filter(range(1, len(toks)),
        i -> toks[i] = 'merge' AND toks[i+1] = 'sort')) > 0
),
re AS (
  SELECT w.doc_id,
         w.score + CASE WHEN p.doc_id IS NOT NULL
                        THEN {PHRASE_RESCORE_BONUS} ELSE 0.0 END AS score
  FROM win w LEFT JOIN ph p ON w.doc_id = p.doc_id
)
SELECT doc_id, round(score, 6) AS score
FROM re ORDER BY score DESC, doc_id LIMIT 10
"""


def q_date_histogram(sf_dir: str):
    """Date-histogram aggregation (the standard-engine time-bucket agg):
    events bucketed by UTC day x event_type with count + sum(value).
    Per-batch partial combine before ONE small groupby shuffle — the
    exchange carries at most (days x types) rows per input block, never
    the events themselves."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        day = pc.strftime(b["ts"], format="%Y-%m-%d")
        # values are 2-decimal: sums ride as integer cents, making the
        # distributed sum order-exact (the tumbling_window_agg convention)
        cents = np.round(b["value"].to_numpy(zero_copy_only=False) * 100.0).astype(
            np.int64
        )
        t = pa.table({"day": day, "event_type": b["event_type"], "cents": pa.array(cents)})
        agg = t.group_by(["day", "event_type"]).aggregate(
            [("cents", "count"), ("cents", "sum")]
        )
        return pa.table(
            {
                "day": agg["day"],
                "event_type": agg["event_type"],
                "v": agg["cents_sum"].cast(pa.int64()),
                "n": agg["cents_count"].cast(pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    out = ds.groupby(["day", "event_type"]).aggregate(
        Sum("v", alias_name="cents"), Sum("n", alias_name="n")
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "day": b["day"],
                "event_type": b["event_type"],
                "n": b["n"].cast(pa.int64()),
                "sum_value": pc.divide(b["cents"].cast(pa.float64()), 100.0),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DATE_HISTOGRAM = """
SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
FROM events GROUP BY 1, 2
"""


def q_significant_terms(sf_dir: str):
    """Significant-terms aggregation (per-group lift vs background, the
    standard-engine significant_terms shape): for each lang, the 3 terms
    whose in-group df rate most exceeds the corpus-wide rate.  Two spill
    exchanges — by term (fold per-lang df and the term's background df
    in one partition) then by lang (run-length head-3) — plus one
    summary-sized driver aggregate (docs per lang, |langs| rows) that is
    broadcast by closure.  No whole-corpus state anywhere."""
    from ray.data.aggregate import Sum
    from ..functions.exchange import spill_exchange

    # docs per lang: |langs| rows — summary-sized by definition
    def cnt(b: pa.Table) -> pa.Table:
        agg = pa.table({"lang": b["lang"]}).group_by("lang").aggregate([([], "count_all")])
        return pa.table({"lang": agg["lang"], "n": agg["count_all"].cast(pa.int64())})

    nl_rows = collect(
        _read(sf_dir, "documents", ["lang"])
        .map_batches(cnt, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
    ).to_pylist()
    n_lang = {r["lang"]: float(r["n"]) for r in nl_rows}
    n_all = float(sum(n_lang.values()))

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        langs = pc.take(b["lang"].combine_chunks(), pa.array(parents))
        t = pa.table({"lang": langs, "term": terms, "parent": pa.array(parents)})
        uniq = t.group_by(["lang", "term", "parent"]).aggregate([])
        agg = uniq.group_by(["lang", "term"]).aggregate([("parent", "count")])
        return pa.table(
            {"lang": agg["lang"], "term": agg["term"],
             "n": agg["parent_count"].cast(pa.int64())}
        )

    ds = _read(sf_dir, "documents", ["lang", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    lift_schema = pa.schema(
        [("lang", pa.string()), ("term", pa.string()), ("lift", pa.float64())]
    )

    def fold_term(t: pa.Table) -> pa.Table:
        # all rows of a term land in this partition: per-(lang, term) df
        # plus the term's background df in one vectorized pass
        if t.num_rows == 0:
            return lift_schema.empty_table()
        g = t.group_by(["term", "lang"], use_threads=False).aggregate([("n", "sum")])
        g = g.sort_by([("term", "ascending"), ("lang", "ascending")]).combine_chunks()
        dfl = g["n_sum"].to_numpy().astype(np.float64)
        starts, lens = run_bounds(g["term"].combine_chunks())
        dfa = np.repeat(np.add.reduceat(dfl, starts), lens)
        nl = np.array([n_lang[v] for v in g["lang"].to_pylist()], dtype=np.float64)
        # operation order mirrors the SQL exactly (IEEE-identical)
        lift = np.floor((dfl / nl) / (dfa / n_all) * 1e6 + 0.5) / 1e6
        return pa.table(
            {"lang": g["lang"], "term": g["term"], "lift": pa.array(lift)}
        )

    lifted = spill_exchange(ds, "term", fold_term, num_parts=8)

    def top3(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return lift_schema.empty_table()
        g = t.sort_by(
            [("lang", "ascending"), ("lift", "descending"), ("term", "ascending")]
        ).combine_chunks()
        starts, lens = run_bounds(g["lang"].combine_chunks())
        k = np.minimum(lens, 3)
        cum = np.zeros(len(k), dtype=np.int64)
        np.cumsum(k[:-1], out=cum[1:])
        idx = np.repeat(starts, k) + (
            np.arange(int(k.sum()), dtype=np.int64) - np.repeat(cum, k)
        )
        return g.take(pa.array(idx))

    return spill_exchange(lifted, "lang", top3, num_parts=8)


SQL_SIGNIFICANT_TERMS = f"""
WITH d AS (SELECT lang, doc_id, unnest(list_distinct({TOK})) AS term FROM documents),
df_lang AS (SELECT lang, term, CAST(count(*) AS DOUBLE) AS dfl FROM d GROUP BY 1, 2),
df_all AS (SELECT term, sum(dfl) AS dfa FROM df_lang GROUP BY 1),
nl AS (SELECT lang, CAST(count(*) AS DOUBLE) AS n FROM documents GROUP BY 1),
na AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
lift AS (
  SELECT l.lang, l.term,
         floor((l.dfl / nl.n) / (a.dfa / na.n) * 1000000 + 0.5) / 1000000 AS lift
  FROM df_lang l JOIN df_all a USING (term) JOIN nl USING (lang), na
)
SELECT lang, term, lift FROM lift
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY lift DESC, term) <= 3
"""


def q_importance_sample(sf_dir: str):
    """Importance sampling for domain up/down-weighting (the hashed
    deterministic DSIR shape — Xie et al. 2023, arXiv:2302.03169): each
    doc's weight is its fraction of tokens inside a target vocabulary,
    and the doc is kept iff u(text) < weight, where u is the first 32
    md5 bits of the content as a uniform [0,1) draw.  Weight and draw
    are both content-derived, so the sample is reproducible across
    runs, layouts and cluster widths, and duplicates sample
    identically.  One narrow per-batch map — no shuffle, no state."""

    target = pa.array(TARGET_VOCAB)

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        ntok = np.bincount(parents, minlength=n).astype(np.float64)
        in_t = pc.is_in(terms, value_set=target).to_numpy(zero_copy_only=False)
        hits = np.bincount(parents, weights=in_t.astype(np.float64), minlength=n)
        w = np.where(ntok > 0, hits / np.maximum(ntok, 1.0), 0.0)
        # acceptance threshold in 32-bit hash units; floor() mirrors the
        # SQL's CAST(floor(w * 4294967296) AS BIGINT)
        v = np.floor(w * 4294967296.0)
        u = md5_digests(b["text"]).view(">u4")[:, 0].astype(np.float64)
        t = pa.table({"doc_id": b["doc_id"], "weight": pa.array(_round6(w))})
        return t.filter(pa.array(u < v))

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# the draw compares 9-char fixed-width lowercase hex LEXICOGRAPHICALLY:
# '0' || first-8-md5-chars  <  printf('%09x', floor(w * 2^32)) — identical
# to the Ray side's numeric u < v (both sides are < 16^9 and fixed width;
# the 9th digit lets w == 1.0 produce threshold 0x100000000 = keep-always)
_TARGET_VOCAB_SQL = ", ".join(f"'{t}'" for t in TARGET_VOCAB)
SQL_IMPORTANCE_SAMPLE = f"""
WITH w AS (
  SELECT doc_id, md5(text) AS h,
         CASE WHEN len({TOK}) = 0 THEN 0.0
              ELSE CAST(len(list_filter({TOK}, t -> t IN ({_TARGET_VOCAB_SQL}))) AS DOUBLE)
                   / CAST(len({TOK}) AS DOUBLE) END AS w
  FROM documents
)
SELECT doc_id, floor(w * 1000000 + 0.5) / 1000000 AS weight
FROM w
WHERE '0' || substr(h, 1, 8)
      < printf('%09x', CAST(floor(w * 4294967296.0) AS BIGINT))
"""


def q_vocab_prune(sf_dir: str):
    """Vocabulary pruning / OOV tagging: the keep-vocabulary is every
    term with df >= 50% of corpus docs, and each doc reports its OOV
    token count and rate against it.  The broadcast is the KEEP set —
    the bounded HEAD of the Zipf curve — never the unbounded rare tail:
    a term either clears a constant fraction of n_docs (so at most
    1/0.5 = 2 such terms exist per unit of df mass) or is OOV by
    default without being shipped anywhere."""
    from ray.data.aggregate import Sum

    def df_partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        t = pa.table({"term": terms, "parent": pa.array(parents)})
        uniq = t.group_by(["term", "parent"]).aggregate([])
        agg = uniq.group_by("term").aggregate([("parent", "count")])
        return pa.table({"term": agg["term"], "n": agg["parent_count"].cast(pa.int64())})

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()

    def head_cut(b: pa.Table) -> pa.Table:
        # the keep cut runs INSIDE the pipeline so only the bounded Zipf
        # head (2*df >= n_docs → at most 2 terms per unit of df mass)
        # ever reaches the driver; the unbounded rare tail is dropped
        # where it was aggregated
        m = pc.greater_equal(pc.multiply(b["df"], pa.scalar(2, pa.int64())),
                             pa.scalar(n_docs, pa.int64()))
        return b.filter(m)

    df_rows = collect(
        _read(sf_dir, "documents", ["text"])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="df"))
        .map_batches(head_cut, batch_format="pyarrow")
    ).to_pylist()
    keep = pa.array(sorted(r["term"] for r in df_rows))

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        ntok = np.bincount(parents, minlength=n).astype(np.float64)
        oov = ~pc.is_in(terms, value_set=keep).to_numpy(zero_copy_only=False)
        n_oov = np.bincount(parents, weights=oov.astype(np.float64), minlength=n)
        rate = _round6(np.where(ntok > 0, n_oov / np.maximum(ntok, 1.0), 0.0))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_oov": pa.array(n_oov.astype(np.int64)),
                "oov_rate": pa.array(rate),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


SQL_VOCAB_PRUNE = f"""
WITH df AS (
  SELECT term, count(*) AS df
  FROM (SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
  GROUP BY term
),
keep AS (SELECT term FROM df WHERE 2 * df >= (SELECT count(*) FROM documents)),
t AS (SELECT doc_id, {TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS term FROM t),
oov AS (
  SELECT tok.doc_id, count(*) AS n_oov
  FROM tok LEFT JOIN keep USING (term)
  WHERE keep.term IS NULL GROUP BY tok.doc_id
)
SELECT t.doc_id,
       CAST(COALESCE(o.n_oov, 0) AS BIGINT) AS n_oov,
       CASE WHEN len(t.toks) = 0 THEN 0.0
            ELSE floor(CAST(COALESCE(o.n_oov, 0) AS DOUBLE) / len(t.toks)
                       * 1000000 + 0.5) / 1000000 END AS oov_rate
FROM t LEFT JOIN oov o ON t.doc_id = o.doc_id
"""


def _knn_edges(sf_dir: str):
    """Directed k-NN edges (src, dst) — the shared input of the graph
    operators; same pipeline as gate ``knn_graph``."""
    from ..functions.similarity import knn_graph

    return knn_graph(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=3
    ).map_batches(
        lambda b: pa.table(
            {"src": b["vec_id"].cast(pa.int64()), "dst": b["nn_id"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


_SQL_KNN_EDGES = f"""
knn AS ({SQL_KNN_GRAPH}),
edges AS (SELECT vec_id AS src, nn_id AS dst FROM knn)
"""


def q_pagerank(sf_dir: str):
    """Fixed-point PageRank over the k-NN graph (functions/graph.py):
    3 Pregel-by-joins iterations; int64 ranks scaled by 10^12 with
    floor-division contributions make the distributed sums order-exact,
    so the unrolled integer SQL mirror checks every value."""
    from ..functions.graph import pagerank

    nodes = _read(sf_dir, "embeddings", ["vec_id"]).map_batches(
        lambda b: pa.table({"node": b["vec_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    # num_parts is pure configuration (never changes results); the gate
    # graph is small, so fewer exchange partitions = less task overhead
    out = pagerank(_knn_edges(sf_dir), nodes, iters=3, num_parts=8)
    return out.map_batches(
        lambda b: pa.table({"vec_id": b["node"], "rank": b["rank"]}),
        batch_format="pyarrow",
    )


def _sql_pagerank(iters: int = 3) -> str:
    from ..functions.graph import PR_SCALE

    body = []
    prev = "r0"
    for i in range(1, iters + 1):
        body.append(f"""
r{i} AS (
  SELECT n.node, (SELECT b FROM base) + (85 * COALESCE(s.c, 0)) // 100 AS rank
  FROM nodes n LEFT JOIN (
    SELECT e.dst AS node, sum(r.rank // d.outdeg) AS c
    FROM edges e JOIN {prev} r ON e.src = r.node JOIN deg d ON e.src = d.src
    GROUP BY e.dst
  ) s ON n.node = s.node
)""")
        prev = f"r{i}"
    return f"""
WITH {_SQL_KNN_EDGES},
nodes AS (SELECT vec_id AS node FROM embeddings),
nn_cnt AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nodes),
deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg FROM edges GROUP BY src),
base AS (SELECT (15 * {PR_SCALE}) // (100 * n) AS b, {PR_SCALE} // n AS r0 FROM nn_cnt),
r0 AS (SELECT node, (SELECT r0 FROM base) AS rank FROM nodes),
{",".join(body)}
SELECT node AS vec_id, CAST(rank AS BIGINT) AS rank FROM {prev}
"""


def q_triangle_count(sf_dir: str):
    """Exact triangle count of the undirected k-NN graph
    (functions/graph.py): lower-endpoint wedge generation counts each
    triangle exactly once.  A k-NN graph has degree ≤ 2k, so the
    3-exchange id-order path is used (``degree_relabel=False``) — the
    degree-ordered relabel (the default, for skewed general graphs)
    would spend 3 extra exchanges guarding a hub that cannot exist
    here (SCALE.md triangle row)."""
    from ..functions.graph import triangle_count

    n = triangle_count(_knn_edges(sf_dir), degree_relabel=False)
    return pd.DataFrame({"n_triangles": np.array([n], dtype=np.int64)})


SQL_TRIANGLE_COUNT = f"""
WITH {_SQL_KNN_EDGES},
e AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
      FROM edges WHERE src != dst)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM e e1 JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
          JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
"""


def q_rolling_window(sf_dir: str):
    """Ordered-frame window functions (ROWS BETWEEN family): per-user
    running total + 3-row trailing mean over (ts, event_id) order —
    one spill exchange, global-cumsum reduce, integer-cent sums
    (functions/windows.py::rolling_user_agg)."""
    from ..functions.windows import rolling_user_agg

    return rolling_user_agg(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]), window=3
    )


SQL_ROLLING_WINDOW = """
WITH e AS (
  SELECT event_id, user_id, ts, CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       CAST(sum(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS DOUBLE)
         / 100.0 AS running_total,
       CAST(sum(cents) OVER w AS DOUBLE) / (count(*) OVER w) / 100.0 AS rolling_mean
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
"""


# single-pass histogram-quantile sketch configuration: a declared value
# domain + fixed bin grid makes the sketch a deterministic function of
# the data MULTISET (layout-independent), with bounded state B rows/group
COMPOSITE_SIZE = 6
COMPOSITE_AFTER = ("en", None)  # after-key: strictly past every 'en' bucket


def q_composite_agg(sf_dir: str):
    """ES `composite` aggregation — the scalable paged iteration over
    grouped buckets (the agg ES offers when `terms` buckets don't fit
    one response): buckets keyed (lang, source) in key order, one page
    of {COMPOSITE_SIZE} starting strictly after the declared after-key.
    Distributed shape: per-batch (lang, source, n) partials + one tiny
    groupby fold (bucket-count-sized, never rows), page cut on the
    driver — the after-key makes consecutive pages resumable without
    any server-side state, exactly the composite contract."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table({"lang": b["lang"], "source": b["source"]})
            .group_by(["lang", "source"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return pa.table({
            "lang": g["lang"], "source": g["source"],
            "n": g["count_all"].cast(pa.int64()),
        })

    agg = collect(
        _read(sf_dir, "documents", ["lang", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas().sort_values(["lang", "source"], kind="stable").reset_index(drop=True)
    a_lang, a_src = COMPOSITE_AFTER
    if a_src is None:
        keep = agg["lang"] > a_lang
    else:
        keep = (agg["lang"] > a_lang) | (
            (agg["lang"] == a_lang) & (agg["source"] > a_src)
        )
    page = agg[keep].head(COMPOSITE_SIZE).reset_index(drop=True)
    page["n"] = page["n"].astype(np.int64)
    return page


def _sql_composite_agg() -> str:
    a_lang, a_src = COMPOSITE_AFTER
    cond = (
        f"lang > '{a_lang}'" if a_src is None
        else f"(lang > '{a_lang}' OR (lang = '{a_lang}' AND source > '{a_src}'))"
    )
    return f"""
SELECT lang, source, CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY lang, source
HAVING {cond}
ORDER BY lang, source LIMIT {COMPOSITE_SIZE}
"""


RANGE_EDGES = (0, 1000, 2500, 5000, 7500)  # declared bucket edges, cents


def q_range_agg(sf_dir: str):
    """ES `range` aggregation with DECLARED bucket edges: per
    [from, to) value bucket, event count and exact cent sum.  Values
    compare as integer cents so the bucket assignment is exact at any
    float boundary; one masked per-batch partial row per bucket,
    distributed Sum fold — the same declared-output-schema contract as
    pivot_counts."""
    from ray.data.aggregate import Sum

    edges = list(RANGE_EDGES) + [None]

    def partial(b: pa.Table) -> pa.Table:
        cents = np.round(
            b["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        cols = {}
        for i, lo in enumerate(RANGE_EDGES):
            hi = edges[i + 1]
            m = (cents >= lo) if hi is None else ((cents >= lo) & (cents < hi))
            cols[f"n_{i}"] = pa.array([np.int64(m.sum())])
            cols[f"c_{i}"] = pa.array([np.int64(cents[m].sum())])
        return pa.table(cols)

    names = [f"{p}_{i}" for i in range(len(RANGE_EDGES)) for p in ("n", "c")]
    agg = (
        _read(sf_dir, "events", ["value"])
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(*[Sum(c, alias_name=c) for c in names])
    )
    return pd.DataFrame({
        "bucket_from": pd.Series([e / 100.0 for e in RANGE_EDGES], dtype=np.float64),
        "n": pd.Series([int(agg[f"n_{i}"]) for i in range(len(RANGE_EDGES))],
                       dtype=np.int64),
        "sum_value": pd.Series(
            [int(agg[f"c_{i}"]) / 100.0 for i in range(len(RANGE_EDGES))],
            dtype=np.float64),
    })


def _sql_range_agg() -> str:
    rows = []
    edges = list(RANGE_EDGES) + [None]
    for i, lo in enumerate(RANGE_EDGES):
        hi = edges[i + 1]
        cond = f"cents >= {lo}" + ("" if hi is None else f" AND cents < {hi}")
        rows.append(
            f"SELECT {lo / 100.0} AS bucket_from,"
            f" CAST(count(*) AS BIGINT) AS n,"
            f" CAST(coalesce(sum(cents), 0) AS DOUBLE) / 100.0 AS sum_value"
            f" FROM c WHERE {cond}"
        )
    return (
        "WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cents FROM events)\n"
        + "\nUNION ALL\n".join(rows)
    )


PR_VALUES = (40, 80, 120, 200)  # declared probe values (token counts)


def q_percentile_ranks(sf_dir: str):
    """ES `percentile_ranks` aggregation (the inverse of percentiles):
    for each DECLARED probe value, the percentage of documents whose
    token count is <= it.  One summary row per batch (a count per
    probe + total), distributed Sum fold — integer-exact, the rank
    fractions computed once on the driver from exact counts."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, _terms, n = flat_tokens(b["text"])
        x = np.bincount(parents, minlength=n).astype(np.int64)
        cols = {"n": pa.array([np.int64(n)])}
        for v in PR_VALUES:
            cols[f"le_{v}"] = pa.array([np.int64((x <= v).sum())])
        return pa.table(cols)

    names = ["n"] + [f"le_{v}" for v in PR_VALUES]
    agg = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(*[Sum(c, alias_name=c) for c in names])
    )
    n = float(agg["n"])
    return pd.DataFrame({
        "probe": pd.Series(PR_VALUES, dtype=np.int64),
        "rank_pct": _round6(np.array(
            [100.0 * agg[f"le_{v}"] / n for v in PR_VALUES]
        )),
    })


SQL_PERCENTILE_RANKS = f"""
WITH x AS (SELECT CAST(len({TOK}) AS BIGINT) AS nt FROM documents),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM x),
p(probe) AS (VALUES {", ".join(f"({v})" for v in PR_VALUES)})
SELECT CAST(p.probe AS BIGINT) AS probe,
       round(100.0 * (SELECT count(*) FROM x WHERE x.nt <= p.probe) / n.n, 6)
         AS rank_pct
FROM p, n
"""


PCTL_LO, PCTL_HI, PCTL_BINS = 0.0, 500.0, 1000
PCTL_W = (PCTL_HI - PCTL_LO) / PCTL_BINS
PCTL_QS = (0.5, 0.9, 0.99)


def q_approx_percentiles(sf_dir: str):
    """Single-pass approximate quantiles (fixed-bin histogram sketch):
    per event_type, the 0.5/0.9/0.99 quantile estimated as the left
    edge of the bin where the cumulative count crosses ceil(q*n).
    Unlike the exact percentiles gate (which needs the values
    co-located), the sketch shuffles at most BINS rows per group per
    input block and the driver holds only the (groups x BINS) summary —
    the estimate is within bin-width of exact by construction, and
    DETERMINISTIC (integer counts on a fixed grid), so the SQL mirror
    is exact."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        bins = np.clip(
            np.floor((v - PCTL_LO) / PCTL_W), 0, PCTL_BINS - 1
        ).astype(np.int64)
        t = pa.table({"event_type": b["event_type"], "bin": pa.array(bins)})
        g = t.group_by(["event_type", "bin"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "bin": g["bin"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    hist = collect(
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "bin"])
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()  # summary-sized: <= groups x BINS rows
    out = []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("bin")
        cum = g["n"].cumsum().to_numpy()
        n = int(cum[-1])
        for q in PCTL_QS:
            target = np.ceil(q * n)
            bin_idx = int(g["bin"].to_numpy()[np.searchsorted(cum, target)])
            out.append((et, q, PCTL_LO + bin_idx * PCTL_W))
    return pd.DataFrame(out, columns=["event_type", "q", "est"])


SQL_APPROX_PERCENTILES = f"""
WITH b AS (
  SELECT event_type,
         LEAST(GREATEST(CAST(floor((value - {PCTL_LO}) / {PCTL_W}) AS BIGINT), 0),
               {PCTL_BINS - 1}) AS bin
  FROM events
),
hist AS (SELECT event_type, bin, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1, 2),
cum AS (
  SELECT event_type, bin,
         sum(n) OVER (PARTITION BY event_type ORDER BY bin) AS c
  FROM hist
),
tot AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1),
q(q) AS (VALUES (0.5), (0.9), (0.99)),
sel AS (
  SELECT t.event_type, q.q, min(cum.bin) AS bin
  FROM tot t, q
  JOIN cum ON cum.event_type = t.event_type AND cum.c >= ceil(q.q * t.n)
  GROUP BY 1, 2
)
SELECT event_type, q, {PCTL_LO} + bin * {PCTL_W} AS est FROM sel
"""


def q_token_entropy(sf_dir: str):
    """Per-doc Shannon entropy of the token distribution (a standard
    gibberish/repetition quality signal): H = ln(n) - Σ c·ln(c) / n
    over per-term counts.  One narrow vectorized map — term counts via
    an Arrow in-batch group-by, the Σ c·ln(c) per doc via bincount
    weights; no shuffle."""

    def f(b: pa.Table) -> pa.Table:
        parents, _pos, terms, n = flat_tokens(b["text"])
        ntok = np.bincount(parents, minlength=n).astype(np.float64)
        t = pa.table({"p": pa.array(parents), "term": terms})
        g = t.group_by(["p", "term"]).aggregate([([], "count_all")])
        p = g["p"].to_numpy()
        c = g["count_all"].to_numpy().astype(np.float64)
        s = np.bincount(p, weights=c * np.log(c), minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(ntok > 0, np.log(np.maximum(ntok, 1.0)) - s / np.maximum(ntok, 1.0), 0.0)
        return pa.table(
            {"doc_id": b["doc_id"], "entropy": pa.array(_round6(ent))}
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


SQL_TOKEN_ENTROPY = f"""
WITH tc AS (
  SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS c
  FROM (SELECT doc_id, unnest({TOK}) AS term FROM documents)
  GROUP BY 1, 2
),
dl AS (SELECT doc_id, sum(c) AS n, sum(c * ln(c)) AS s FROM tc GROUP BY 1)
SELECT d.doc_id,
       CASE WHEN dl.doc_id IS NULL THEN 0.0
            ELSE floor((ln(dl.n) - dl.s / dl.n) * 1000000 + 0.5) / 1000000 END AS entropy
FROM documents d LEFT JOIN dl ON d.doc_id = dl.doc_id
"""


def q_rollup_counts(sf_dir: str):
    """OLAP rollup (GROUPING SETS): event counts + exact cent-sums at
    (day, event_type), (day) and grand-total levels.  The finest level
    is the distributed date-histogram aggregation; the coarser levels
    derive from its SUMMARY (days x types rows, driver-held by design)
    — never from a second pass over the events."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        day = pc.strftime(b["ts"], format="%Y-%m-%d")
        cents = np.round(b["value"].to_numpy(zero_copy_only=False) * 100.0).astype(
            np.int64
        )
        t = pa.table({"day": day, "event_type": b["event_type"], "cents": pa.array(cents)})
        g = t.group_by(["day", "event_type"]).aggregate(
            [("cents", "count"), ("cents", "sum")]
        )
        return pa.table(
            {
                "day": g["day"],
                "event_type": g["event_type"],
                "v": g["cents_sum"].cast(pa.int64()),
                "n": g["cents_count"].cast(pa.int64()),
            }
        )

    fine = collect(
        _read(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "event_type"])
        .aggregate(Sum("v", alias_name="v"), Sum("n", alias_name="n"))
    ).to_pandas()
    by_day = fine.groupby("day", as_index=False)[["v", "n"]].sum()
    by_day["event_type"] = None
    total = pd.DataFrame(
        {"day": [None], "event_type": [None], "v": [fine["v"].sum()], "n": [fine["n"].sum()]}
    )
    out = pd.concat([fine, by_day, total], ignore_index=True)
    return pd.DataFrame(
        {
            "day": out["day"].astype(object).where(out["day"].notna(), None),
            "event_type": out["event_type"].astype(object).where(
                out["event_type"].notna(), None
            ),
            "n": out["n"].astype(np.int64),
            "sum_value": out["v"].astype(np.float64) / 100.0,
        }
    )


SQL_ROLLUP_COUNTS = """
SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
FROM events GROUP BY ROLLUP(day, event_type)
"""

WEIGHTED_SAMPLE_K = 50


def q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (A-Res, Efraimidis &
    Spirakis 2006): each doc draws key = ln(u)/w with w = n_chars and
    u = (md5_number_lower(text)+1)/2^64; the k largest keys are the
    sample.  The draw is content-derived (deterministic at any
    parallelism) and the shuffle-free reduction ships only each
    batch's top-k candidates — never the corpus."""

    k = WEIGHTED_SAMPLE_K

    def partial(b: pa.Table) -> pa.Table:
        u64 = md5_digests(b["text"]).view("<u8")[:, 1]
        w = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        u = (u64.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = np.log(u) / w
        t = pa.table(
            {"doc_id": b["doc_id"], "n_chars": b["n_chars"], "key": pa.array(key)}
        )
        if t.num_rows > k:
            kth = -np.partition(-key, k - 1)[k - 1]
            t = t.filter(pa.array(key >= kth))
        return t

    cand = collect(
        _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
    ).to_pandas()  # <= k rows per input block
    cand = cand.sort_values(["key", "doc_id"], ascending=[False, True]).head(k)
    return pd.DataFrame(
        {
            "doc_id": cand["doc_id"].to_numpy(),
            "n_chars": cand["n_chars"].to_numpy(),
        }
    )


SQL_WEIGHTED_SAMPLE = f"""
SELECT doc_id, n_chars
FROM documents
ORDER BY ln((CAST(md5_number_lower(text) AS DOUBLE) + 1.0)
            / 18446744073709551616.0) / n_chars DESC, doc_id
LIMIT {WEIGHTED_SAMPLE_K}
"""


def q_linreg_fit(sf_dir: str):
    """Distributed model fitting via exact sufficient statistics — the
    TRAINING side of the batched-inference op (`model_score`): per lang,
    ordinary least squares of n_chars on n_tokens.  Each batch emits
    integer partials (n, Σx, Σy, Σx², Σxy, Σy²); one tiny groupby sums
    them EXACTLY (integer arithmetic — no float-order nondeterminism),
    and the closed-form solve happens once on the driver over |langs|
    rows.  The same shape scales to d features as a d×d Gram matrix per
    batch (k·d² ints shuffled, never the rows) with the driver solving
    the normal equations — how linear probes / quality classifiers are
    fit over corpus-scale features."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, _terms, n = flat_tokens(b["text"])
        x = np.bincount(parents, minlength=n).astype(np.int64)
        y = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "lang": b["lang"],
                "n": pa.array(np.ones(n, dtype=np.int64)),
                "sx": pa.array(x),
                "sy": pa.array(y),
                "sxx": pa.array(x * x),
                "sxy": pa.array(x * y),
                "syy": pa.array(y * y),
            }
        )
        g = t.group_by("lang").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("sxy", "sum"), ("syy", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                **{c: g[f"{c}_sum"].cast(pa.int64())
                   for c in ("n", "sx", "sy", "sxx", "sxy", "syy")},
            }
        )

    agg = collect(
        _read(sf_dir, "documents", ["lang", "text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "sxy", "syy")])
    ).to_pandas()  # |langs| rows
    n = agg["n"].to_numpy().astype(np.float64)
    sx = agg["sx"].to_numpy().astype(np.float64)
    sy = agg["sy"].to_numpy().astype(np.float64)
    sxx = agg["sxx"].to_numpy().astype(np.float64)
    sxy = agg["sxy"].to_numpy().astype(np.float64)
    syy = agg["syy"].to_numpy().astype(np.float64)
    # op order mirrors the SQL exactly; inputs are exact integers so the
    # doubles agree bit-for-bit
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    cov = n * sxy - sx * sy
    r2 = cov * cov / ((n * sxx - sx * sx) * (n * syy - sy * sy))

    def rh(v: np.ndarray) -> np.ndarray:
        # round-half-away-from-zero at 6 dp == DuckDB round(x, 6)
        return np.copysign(np.floor(np.abs(v) * 1e6 + 0.5), v) / 1e6

    return pd.DataFrame(
        {
            "lang": agg["lang"],
            "slope": rh(slope),
            "intercept": rh(intercept),
            "r2": rh(r2),
        }
    )


SQL_LINREG_FIT = f"""
WITH f AS (
  SELECT lang,
         CAST(len({TOK}) AS BIGINT) AS x,
         n_chars AS y
  FROM documents
),
s AS (
  SELECT lang,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(x) AS DOUBLE) AS sx, CAST(sum(y) AS DOUBLE) AS sy,
         CAST(sum(x * x) AS DOUBLE) AS sxx, CAST(sum(x * y) AS DOUBLE) AS sxy,
         CAST(sum(y * y) AS DOUBLE) AS syy
  FROM f GROUP BY lang
)
SELECT lang,
       round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
       round((sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx) / n, 6)
         AS intercept,
       round((n * sxy - sx * sy) * (n * sxy - sx * sy)
             / ((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS r2
FROM s
"""


def q_session_funnel(sf_dir: str):
    """Session funnel conversion (the classic product-analytics op):
    among 6-hour-gap sessions, the share containing a purchase STRICTLY
    after the session's first click.  One exchange by user; each
    partition emits a single (n_sessions, n_converted) partial —
    |partitions| integer rows reach the driver, never sessions
    (functions/windows.py::session_funnel)."""
    from ..functions.windows import session_funnel

    parts = collect(session_funnel(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"]),
        first_type="click", then_type="purchase", gap_us=SESSION_GAP_US,
    )).to_pandas()
    ns = int(parts["n_sessions"].sum())
    nc = int(parts["n_converted"].sum())
    rate = float(np.floor(nc / ns * 1e6 + 0.5) / 1e6) if ns else 0.0
    return pd.DataFrame(
        {
            "n_sessions": np.array([ns], dtype=np.int64),
            "n_converted": np.array([nc], dtype=np.int64),
            "conv_rate": np.array([rate]),
        }
    )


SQL_SESSION_FUNNEL = f"""
WITH o AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS ts_us,
         CASE WHEN lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                OR epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id, event_type, ts_us,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                          ROWS UNBOUNDED PRECEDING) AS sess
  FROM o
), per AS (
  SELECT user_id, sess,
         min(CASE WHEN event_type = 'click' THEN ts_us END) AS first_click,
         max(CASE WHEN event_type = 'purchase' THEN ts_us END) AS last_purch
  FROM s GROUP BY user_id, sess
), agg AS (
  SELECT CAST(count(*) AS BIGINT) AS n_sessions,
         CAST(sum(CASE WHEN first_click IS NOT NULL AND last_purch > first_click
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_converted
  FROM per
)
SELECT n_sessions, n_converted,
       CASE WHEN n_sessions = 0 THEN 0.0
            ELSE floor(CAST(n_converted AS DOUBLE) / n_sessions * 1000000 + 0.5)
                 / 1000000 END AS conv_rate
FROM agg
"""


# ---------------------------------------------------------------------------
# round-3 batch: extended stats, pivoted counts, full-outer join
# ---------------------------------------------------------------------------

def q_extended_stats(sf_dir: str):
    """ES `extended_stats` aggregation analog: per-lang count / min /
    max / sum / mean / population variance of document token counts.
    Per-batch INTEGER sufficient statistics (n, Σx, Σx², min, max) fold
    through a distributed Sum/Min/Max — exact under any summation
    order; the float mean/variance are computed once per group from the
    exact integers, in the same IEEE expression form as the SQL."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, _terms, n = flat_tokens(b["text"])
        x = np.bincount(parents, minlength=n).astype(np.int64)
        t = pa.table({"lang": b["lang"], "x": pa.array(x), "x2": pa.array(x * x)})
        g = t.group_by("lang").aggregate(
            [("x", "count"), ("x", "sum"), ("x2", "sum"), ("x", "min"), ("x", "max")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "n": g["x_count"].cast(pa.int64()),
                "s": g["x_sum"].cast(pa.int64()),
                "s2": g["x2_sum"].cast(pa.int64()),
                "mn": g["x_min"].cast(pa.int64()),
                "mx": g["x_max"].cast(pa.int64()),
            }
        )

    agg = collect(
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2"),
            Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx"),
        )
    ).to_pandas()
    n = agg["n"].to_numpy().astype(np.float64)
    s = agg["s"].to_numpy().astype(np.float64)
    s2 = agg["s2"].to_numpy().astype(np.float64)
    return pd.DataFrame(
        {
            "lang": agg["lang"],
            "n": agg["n"].astype(np.int64),
            "min_tokens": agg["mn"].astype(np.int64),
            "max_tokens": agg["mx"].astype(np.int64),
            "sum_tokens": agg["s"].astype(np.int64),
            "avg_tokens": _round6(s / n),
            "var_tokens": _round6((s2 - s * s / n) / n),
        }
    )


SQL_EXTENDED_STATS = f"""
WITH tl AS (
  SELECT lang, CAST(len({TOK}) AS BIGINT) AS x FROM documents
),
g AS (
  SELECT lang,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS s,
         CAST(sum(x * x) AS BIGINT) AS s2,
         CAST(min(x) AS BIGINT) AS min_tokens,
         CAST(max(x) AS BIGINT) AS max_tokens
  FROM tl GROUP BY lang
)
SELECT lang, n, min_tokens, max_tokens, s AS sum_tokens,
       floor(CAST(s AS DOUBLE) / n * 1000000 + 0.5) / 1000000 AS avg_tokens,
       floor((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / n)
             / n * 1000000 + 0.5) / 1000000 AS var_tokens
FROM g
"""


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")
CM_W, CM_D = 4, 4   # CountMin geometry: w=4 forces collisions among the event types, so the min-over-depth estimate (and the overcount column) genuinely binds at test scale


def q_countmin_counts(sf_dir: str):
    """Count-Min sketch (Cormode & Muthukrishnan 2005): per-batch d×w
    integer cell partials (bucket = first-32-md5-bits of salt‖key mod
    w — the repo's standard SQL-mirrorable draw), folded by one tiny
    groupby over ≤ d·w cells; estimates for the DECLARED query keys =
    min over the d rows.  The sketch answers point queries for ANY key
    in O(d) while shuffling d·w ints per batch regardless of key
    cardinality — the complement of the exact Misra-Gries heavy-hitter
    gate.  Output per queried key: exact count, CM estimate, and the
    overcount (≥ 0 by construction — CountMin never undercounts);
    all integers, hash-exact vs SQL."""
    from ray.data.aggregate import Sum

    salts = [f"cm{d}" for d in range(CM_D)]

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({
            "kind": pa.array([], type=pa.string()),
            "key": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
        if b.num_rows == 0:
            return empty
        agg = (
            pa.table({"k": b["event_type"]})
            .group_by("k", use_threads=False)
            .aggregate([([], "count_all")])
        )
        keys = agg["k"].combine_chunks()
        cnt = agg["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        kinds, out_keys, ns = [], [], []
        for di, salt in enumerate(salts):
            salted = pc.binary_join_element_wise(
                pa.array([salt] * len(keys), type=pa.string()), keys, ""
            )
            buckets = md5_digests(salted).view(">u4")[:, 0].astype(np.int64) % CM_W
            cells = np.zeros(CM_W, dtype=np.int64)
            np.add.at(cells, buckets, cnt)
            for bk in np.flatnonzero(cells):
                kinds.append("c")
                out_keys.append(f"{di}:{bk}")
                ns.append(int(cells[bk]))
        for k, c in zip(keys.to_pylist(), cnt):
            kinds.append("e")
            out_keys.append(k)
            ns.append(int(c))
        return pa.table({
            "kind": pa.array(kinds, type=pa.string()),
            "key": pa.array(out_keys, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
        })

    agg = collect(
        _read(sf_dir, "events", ["event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    cells = {r["key"]: int(r["n"]) for _, r in agg[agg["kind"] == "c"].iterrows()}
    exact = {r["key"]: int(r["n"]) for _, r in agg[agg["kind"] == "e"].iterrows()}
    rows = []
    import hashlib as _hl

    for k in sorted(PIVOT_TYPES):
        est = min(
            cells.get(
                f"{di}:{int.from_bytes(_hl.md5(f'cm{di}{k}'.encode()).digest()[:4], 'big') % CM_W}",
                0,
            )
            for di in range(CM_D)
        )
        ex = exact.get(k, 0)
        rows.append((k, ex, est, est - ex))
    return pd.DataFrame(rows, columns=["event_type", "exact", "est", "overcount"])


def _sql_countmin() -> str:
    keys_sql = ", ".join(f"('{k}')" for k in sorted(PIVOT_TYPES))
    bucket = (
        "CAST(concat('0x', substr(md5(concat('cm', CAST({di} AS VARCHAR), "
        "{key})), 1, 8)) AS BIGINT) % " + str(CM_W)
    )
    return f"""
WITH ds(di) AS (SELECT unnest(range(0, {CM_D}))),
cells AS (
  SELECT ds.di, {bucket.format(di='ds.di', key='event_type')} AS bucket,
         CAST(count(*) AS BIGINT) AS n
  FROM events CROSS JOIN ds
  GROUP BY ds.di, bucket
),
qk(event_type) AS (VALUES {keys_sql}),
kb AS (
  SELECT q.event_type, ds.di,
         {bucket.format(di='ds.di', key='q.event_type')} AS bucket
  FROM qk q CROSS JOIN ds
),
est AS (
  SELECT kb.event_type, min(coalesce(c.n, 0)) AS est
  FROM kb LEFT JOIN cells c ON c.di = kb.di AND c.bucket = kb.bucket
  GROUP BY kb.event_type
),
ex AS (SELECT event_type, CAST(count(*) AS BIGINT) AS exact
       FROM events GROUP BY event_type)
SELECT q.event_type, coalesce(ex.exact, 0) AS exact, est.est AS est,
       est.est - coalesce(ex.exact, 0) AS overcount
FROM qk q JOIN est USING (event_type) LEFT JOIN ex USING (event_type)
ORDER BY q.event_type
"""


def q_pivot_counts(sf_dir: str):
    """Pivoted per-day event metrics (long→wide reshape over a KNOWN
    column set — a pivot's output schema must be fixed up front, so the
    type list is a declared constant, the honest contract at any
    scale): one per-batch partial with a masked count + cent-sum column
    pair per type, folded by a distributed Sum keyed on day.  The
    exchange carries ≤ |days| rows × (2·|types|) ints per block."""
    from ray.data.aggregate import Sum

    cols = [f"{p}_{t}" for t in PIVOT_TYPES for p in ("n", "c")]

    def partial(b: pa.Table) -> pa.Table:
        day = pc.strftime(b["ts"], format="%Y-%m-%d")
        cents = np.round(b["value"].to_numpy(zero_copy_only=False) * 100.0).astype(
            np.int64
        )
        et = b["event_type"]
        data: dict[str, np.ndarray] = {}
        # group by day once, then masked integer scatter-adds per type
        t = pa.table({"day": day}).group_by("day").aggregate([])
        days = t["day"]
        didx = pc.index_in(day, value_set=days).to_numpy(zero_copy_only=False)
        nd = len(days)
        for ty in PIVOT_TYPES:
            m = pc.equal(et, ty).to_numpy(zero_copy_only=False)
            data[f"n_{ty}"] = np.bincount(didx[m], minlength=nd).astype(np.int64)
            # int64 scatter-add: exact for any cent magnitude (no 2^53
            # float-accumulation bound, unlike weighted bincount)
            csum = np.zeros(nd, dtype=np.int64)
            np.add.at(csum, didx[m], cents[m])
            data[f"c_{ty}"] = csum
        out = {"day": days}
        out.update({k: pa.array(v) for k, v in data.items()})
        return pa.table(out)

    agg = collect(
        _read(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    ).to_pandas()
    res = {"day": agg["day"]}
    for ty in PIVOT_TYPES:
        res[f"n_{ty}"] = agg[f"n_{ty}"].astype(np.int64)
        res[f"sum_{ty}"] = agg[f"c_{ty}"].astype(np.float64) / 100.0
    return pd.DataFrame(res)


def _sql_pivot_counts() -> str:
    parts = []
    for ty in PIVOT_TYPES:
        parts.append(
            f"CAST(count(CASE WHEN event_type = '{ty}' THEN 1 END) AS BIGINT)"
            f" AS n_{ty}"
        )
        parts.append(
            f"CAST(coalesce(sum(CASE WHEN event_type = '{ty}'"
            f" THEN CAST(round(value * 100) AS BIGINT) END), 0) AS DOUBLE)"
            f" / 100.0 AS sum_{ty}"
        )
    cols = ",\n       ".join(parts)
    return f"""
SELECT strftime(ts, '%Y-%m-%d') AS day,
       {cols}
FROM events GROUP BY day
"""


def q_outer_join(sf_dir: str):
    """Large×large FULL OUTER shuffle join (functions/joins.py
    how="outer"): per-user click counts ⟗ per-user purchase cent-sums
    on user_id — users present on either side survive with the other
    side's column null.  Both aggregates are per-batch partial combines
    (the exchange ships ≤ |users| rows per block per side), and the
    join itself is the ONE-exchange tagged-run reduce, so the full
    outer costs exactly what the inner does."""
    from ray.data.aggregate import Sum

    from ..functions.joins import shuffle_join

    def clicks(b: pa.Table) -> pa.Table:
        m = pc.equal(b["event_type"], "click")
        t = b.filter(m).select(["user_id"])
        g = t.group_by("user_id").aggregate([([], "count_all")])
        return pa.table(
            {"user_id": g["user_id"], "n": g["count_all"].cast(pa.int64())}
        )

    def purchases(b: pa.Table) -> pa.Table:
        m = pc.equal(b["event_type"], "purchase")
        t = b.filter(m)
        cents = np.round(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        g = pa.table(
            {"user_id": t["user_id"], "c": pa.array(cents)}
        ).group_by("user_id").aggregate([("c", "sum")])
        return pa.table(
            {"user_id": g["user_id"], "c": g["c_sum"].cast(pa.int64())}
        )

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    left = (
        ev.map_batches(clicks, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="n_clicks"))
    )
    right = (
        ev.map_batches(purchases, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c", alias_name="cents"))
    )
    joined = shuffle_join(
        left, right, "user_id", ["n_clicks"], ["cents"], how="outer",
        num_parts=8,
    )

    def finalize(b: pa.Table) -> pa.Table:
        cents = b["cents"].cast(pa.float64())
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "n_clicks": b["n_clicks"].cast(pa.int64()),
                "sum_purchase": pc.divide(cents, 100.0),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


SQL_OUTER_JOIN = """
WITH l AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_clicks
  FROM events WHERE event_type = 'click' GROUP BY user_id
),
r AS (
  SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0
           AS sum_purchase
  FROM events WHERE event_type = 'purchase' GROUP BY user_id
)
SELECT coalesce(l.user_id, r.user_id) AS user_id, l.n_clicks, r.sum_purchase
FROM l FULL OUTER JOIN r ON l.user_id = r.user_id
"""


# ---------------------------------------------------------------------------
# round-3 batch: ES query-surface depth — dis_max, fuzzy match,
# wildcard expansion, sloppy phrase (all answered by the real index)
# ---------------------------------------------------------------------------

DISMAX_LEG_A = "merge sort"
DISMAX_LEG_B = "window scan"
DISMAX_TIE = 0.3


def _bm25_score_cte(terms: list[str], alias: str) -> str:
    """A `{alias} (doc_id, score)` CTE body: closed-form BM25 for a
    fixed term list over `documents` (the _sql_bm25 core, reusable as a
    leg of a compound)."""
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
{alias}_tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN (VALUES {terms_sql}) q(term) ON t.term = q.term
  GROUP BY t.doc_id, t.term
),
{alias}_df AS (
  SELECT term, CAST(count(*) AS DOUBLE) AS df FROM {alias}_tf GROUP BY term
),
{alias} AS (
  SELECT tf.doc_id,
         sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) AS score
  FROM {alias}_tf tf, stats
  JOIN {alias}_df df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
)"""


def q_dismax_topk(sf_dir: str):
    """ES `dis_max` compound (tie_breaker {DISMAX_TIE}): score = the
    best leg's score + tie_breaker × the other leg's — rewarding docs
    that match the stronger leg without double-counting overlap the way
    a bool/should sum would.  Both legs run as index `match` queries
    over the SAME reader (dense per-field accumulation); the combine is
    one vectorized max/min expression."""
    from ..index import IndexReader
    from ..query.scoring import Scorer

    reader = IndexReader(_built_index(sf_dir))
    sc = Scorer(reader)
    a = sc.match("content", tokenize_text(DISMAX_LEG_A))
    bres = sc.match("content", tokenize_text(DISMAX_LEG_B))
    mask = a.mask | bres.mask
    s = np.maximum(a.scores, bres.scores) + DISMAX_TIE * np.minimum(
        a.scores, bres.scores
    )
    ords = np.flatnonzero(mask)
    meta = reader.docmeta()
    doc_ids = meta["path"].to_numpy()[ords].astype(np.int64)
    s6 = _round6(s[ords])
    order = top_k(s6, doc_ids, 10)
    return pd.DataFrame({"doc_id": doc_ids[order], "score": s6[order]})


def _sql_dismax_topk() -> str:
    a = _bm25_score_cte(tokenize_text(DISMAX_LEG_A), "la")
    b = _bm25_score_cte(tokenize_text(DISMAX_LEG_B), "lb")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
{a},
{b},
u AS (
  SELECT coalesce(la.doc_id, lb.doc_id) AS doc_id,
         coalesce(la.score, 0.0) AS sa, coalesce(lb.score, 0.0) AS sb
  FROM la FULL OUTER JOIN lb ON la.doc_id = lb.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       floor((greatest(sa, sb) + {DISMAX_TIE} * least(sa, sb)) * 1000000 + 0.5)
         / 1000000 AS score
FROM u ORDER BY score DESC, doc_id LIMIT 10
"""


FUZZY_QUERY = "merge sow"


def q_fuzzy_match(sf_dir: str):
    """`match` with fuzziness=AUTO answered by the index (Q1's fuzzy
    path end-to-end as a gate): each query term expands to dictionary
    terms within the AUTO edit distance via the reader's dictionary
    scan (length and charmask prefilters, then the bit-parallel
    ``util.edit_distance``); each expansion scores BM25 at its OWN
    df and a doc takes the MAX over a term's expansions (then terms
    sum).  'sow' expands to {{row, slow}} on this corpus — a real
    multi-expansion max.  The oracle recomputes the expansion sets with
    DuckDB's levenshtein over the corpus vocabulary."""
    from ..index import IndexReader
    from ..query.scoring import Scorer

    reader = IndexReader(_built_index(sf_dir))
    sc = Scorer(reader)
    terms = tokenize_text(FUZZY_QUERY)
    # the SQL mirrors the UNCAPPED expansion set: guard the gate's
    # equivalence assumption (vocab-bounded corpora stay far below it)
    for t in terms:
        assert len(sc.fuzzy_expand("content", t)) < 50
    res = sc.match_fuzzy("content", terms)
    ords = np.flatnonzero(res.mask)
    meta = reader.docmeta()
    doc_ids = meta["path"].to_numpy()[ords].astype(np.int64)
    s6 = _round6(res.scores[ords])
    order = top_k(s6, doc_ids, 10)
    return pd.DataFrame({"doc_id": doc_ids[order], "score": s6[order]})


def _sql_fuzzy_match() -> str:
    qts = tokenize_text(FUZZY_QUERY)
    exp = "\nUNION ALL\n".join(
        f"SELECT {i} AS qi, term FROM vocab"
        f" WHERE levenshtein(term, '{t}') <= "
        f"{0 if len(t) < 3 else (1 if len(t) < 6 else 2)}"
        for i, t in enumerate(qts)
    )
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
vocab AS (SELECT DISTINCT term FROM toks),
qe AS ({exp}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN (SELECT DISTINCT term FROM qe) q ON t.term = q.term
  GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
per_exp AS (
  SELECT qe.qi, tf.doc_id,
         ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS s
  FROM qe JOIN tf ON tf.term = qe.term, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
),
per_term AS (SELECT qi, doc_id, max(s) AS s FROM per_exp GROUP BY qi, doc_id),
scored AS (SELECT doc_id, sum(s) AS score FROM per_term GROUP BY doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       floor(score * 1000000 + 0.5) / 1000000 AS score
FROM scored ORDER BY score DESC, doc_id LIMIT 10
"""


WILDCARD_LIKE = "s%a%"


def q_wildcard_match(sf_dir: str):
    """ES `wildcard` query answered at the DICTIONARY level (the
    Lucene/ES contract: a wildcard expands against the term dictionary,
    never the corpus text): the pattern's regex form scans the reader's
    sorted per-field dictionary once (RE2 via pyarrow), then the
    matching terms' POSTINGS union counts distinct matching terms per
    doc.  The corpus text is never re-read — query cost is
    dictionary + postings-sized."""
    from ..index import IndexReader

    reader = IndexReader(_built_index(sf_dir))
    d = reader.field_dictionary("content")
    regex = "^" + WILDCARD_LIKE.replace("%", ".*") + "$"
    m = pc.match_substring_regex(pa.array(d, type=pa.string()), regex).to_numpy(
        zero_copy_only=False
    )
    n = reader.n_docs
    counts = np.zeros(n, dtype=np.int64)
    for term in d[np.flatnonzero(m)]:
        tp = reader.lookup("content", str(term))
        if tp is not None:
            counts[tp.ordinals.astype(np.int64)] += 1
    ords = np.flatnonzero(counts)
    meta = reader.docmeta()
    doc_ids = meta["path"].to_numpy()[ords].astype(np.int64)
    return pd.DataFrame({"doc_id": doc_ids, "n_wild_terms": counts[ords]})


SQL_WILDCARD_MATCH = f"""
SELECT doc_id, CAST(count(DISTINCT term) AS BIGINT) AS n_wild_terms
FROM (SELECT doc_id, unnest(list_distinct({TOK})) AS term FROM documents)
WHERE term LIKE '{WILDCARD_LIKE}'
GROUP BY doc_id
"""


PHRASE_SLOP_TERMS = ("sort", "merge")
PHRASE_SLOP = 2


def q_phrase_slop(sf_dir: str):
    """Sloppy phrase via positional postings (Q2 at slop>0): greedy
    in-order alignment — each occurrence of the first term matches iff
    the NEXT occurrence of the second term displaces by ≤ slop — scored
    as BM25 with the sloppy freq as tf and the summed term idfs
    (query/scoring.py::_sloppy_freq).  The oracle replays the same
    greedy rule with nested DuckDB list lambdas."""
    from ..index import IndexReader
    from ..query.scoring import Scorer

    reader = IndexReader(_built_index(sf_dir))
    res = Scorer(reader).phrase(
        "content", list(PHRASE_SLOP_TERMS), slop=PHRASE_SLOP
    )
    ords = np.flatnonzero(res.mask)
    meta = reader.docmeta()
    doc_ids = meta["path"].to_numpy()[ords].astype(np.int64)
    return pd.DataFrame({"doc_id": doc_ids, "score": _round6(res.scores[ords])})


def _sql_phrase_slop() -> str:
    t1, t2 = PHRASE_SLOP_TERMS
    nxt = f"list_filter(list_filter(range(1, len(toks)+1), i -> toks[i] = '{t2}'), q -> q > p)"
    return f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
toks AS (SELECT doc_id, unnest(toks) AS term FROM t),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
df AS (
  SELECT
    (SELECT CAST(count(DISTINCT doc_id) AS DOUBLE) FROM toks WHERE term = '{t1}') AS df1,
    (SELECT CAST(count(DISTINCT doc_id) AS DOUBLE) FROM toks WHERE term = '{t2}') AS df2
),
freq AS (
  SELECT doc_id,
         CAST(len(list_filter(
           list_filter(range(1, len(toks)+1), i -> toks[i] = '{t1}'),
           p -> len({nxt}) > 0 AND list_min({nxt}) - p - 1 <= {PHRASE_SLOP}
         )) AS DOUBLE) AS tfp
  FROM t
),
scored AS (
  SELECT f.doc_id,
         (ln(1 + (stats.n - df.df1 + 0.5) / (df.df1 + 0.5))
          + ln(1 + (stats.n - df.df2 + 0.5) / (df.df2 + 0.5)))
         * f.tfp * ({K1} + 1)
         / (f.tfp + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS score
  FROM freq f, stats, df
  JOIN dl ON f.doc_id = dl.doc_id
  WHERE f.tfp > 0
)
SELECT doc_id, floor(score * 1000000 + 0.5) / 1000000 AS score FROM scored
"""


# ---------------------------------------------------------------------------
# round-3 batch: paragraph-level dedup, bigram-LM perplexity
# ---------------------------------------------------------------------------

PARA_TOKENS = 3
BIGRAM_PPL_CUTOFF = 3.45


def q_paragraph_dedup(sf_dir: str):
    """CCNet-style paragraph-level duplication audit (Wenzek et al.
    2020 dedup by paragraph hash; real corpora split on newlines — the
    synthetic table has none, so 'paragraph' = a non-overlapping
    {PARA_TOKENS}-token window, same machinery): per doc, the count and
    fraction of its paragraphs whose text occurs in ≥2 DISTINCT docs.

    Shape: one map pass builds (chunk, doc_id, cnt) rows via offsets
    arithmetic + a single binary_join kernel; ONE chunk-keyed spill
    exchange marks each (chunk, doc) row with its chunk's distinct-doc
    count (run-length over the sorted partition — (chunk, doc) pairs
    are globally unique since a doc is one row); a doc-keyed groupby
    folds the marks.  Chunks ride as text to stay SQL-comparable; at
    scale the key would be a 128-bit content hash — same exchange."""
    from ray.data.aggregate import Sum

    from ..functions.exchange import spill_exchange

    P = PARA_TOKENS

    def chunks(b: pa.Table) -> pa.Table:
        parents, pos, terms, _n = flat_tokens(b["text"])
        empty = pa.table({
            "chunk": pa.array([], type=pa.string()),
            "doc_id": pa.array([], type=pa.int64()),
            "cnt": pa.array([], type=pa.int64()),
        })
        if len(parents) == 0:
            return empty
        g = pos // P
        key = (parents << 32) + g
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        offsets = np.append(starts, len(parents)).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), terms)
        chunk = pc.binary_join(lists, " ")
        doc = pc.take(b["doc_id"], pa.array(parents[starts])).cast(pa.int64())
        t = pa.table({"chunk": chunk, "doc_id": doc})
        agg = t.group_by(["chunk", "doc_id"]).aggregate([([], "count_all")])
        return pa.table({
            "chunk": agg["chunk"],
            "doc_id": agg["doc_id"],
            "cnt": agg["count_all"].cast(pa.int64()),
        })

    def mark(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "cnt": pa.array([], type=pa.int64()),
            "dup": pa.array([], type=pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        t = t.sort_by([("chunk", "ascending"), ("doc_id", "ascending")]).combine_chunks()
        starts, lens = run_bounds(t["chunk"].combine_chunks())
        is_dup = np.repeat(lens >= 2, lens)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "cnt": t["cnt"],
            "dup": pa.array(np.where(is_dup, cnt, 0).astype(np.int64)),
        })

    marked = spill_exchange(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            chunks, batch_format="pyarrow"
        ),
        "chunk", mark, num_parts=16,
    )
    agg = collect(
        marked.groupby("doc_id")
        .aggregate(Sum("cnt", alias_name="n_chunks"), Sum("dup", alias_name="n_dup"))
    ).to_pandas()
    nc = agg["n_chunks"].to_numpy().astype(np.float64)
    nd = agg["n_dup"].to_numpy().astype(np.float64)
    return pd.DataFrame({
        "doc_id": agg["doc_id"].astype(np.int64),
        "n_chunks": agg["n_chunks"].astype(np.int64),
        "n_dup": agg["n_dup"].astype(np.int64),
        "dup_frac": _round6(nd / nc),
    })


SQL_PARAGRAPH_DEDUP = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
c AS (
  SELECT doc_id, array_to_string(toks[((g-1)*{PARA_TOKENS}+1):(g*{PARA_TOKENS})], ' ') AS chunk
  FROM t, unnest(range(1, CAST(ceil(len(toks) / {PARA_TOKENS}.0) AS BIGINT) + 1)) u(g)
  WHERE len(toks) > 0
),
d AS (SELECT chunk FROM c GROUP BY chunk HAVING count(DISTINCT doc_id) >= 2),
per AS (
  SELECT c.doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
         CAST(sum(CASE WHEN d.chunk IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
  FROM c LEFT JOIN d ON c.chunk = d.chunk
  GROUP BY c.doc_id
)
SELECT doc_id, n_chunks, n_dup,
       floor(CAST(n_dup AS DOUBLE) / n_chunks * 1000000 + 0.5) / 1000000 AS dup_frac
FROM per
"""


def q_bigram_lm(sf_dir: str):
    """Bigram-LM perplexity filter (functions/textstats.py::
    bigram_xent): per-doc cross-entropy under the corpus add-one
    bigram model, kept = xent ≤ {BIGRAM_PPL_CUTOFF} — the next step
    from the unigram filter toward CCNet's KenLM scoring, with the
    same bounded-broadcast distributed shape."""
    from ..functions.textstats import bigram_xent

    ds = bigram_xent(_read(sf_dir, "documents", ["doc_id", "text"]))
    return ds.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "xent": b["xent"],
            "kept": pc.less_equal(b["xent"], BIGRAM_PPL_CUTOFF).cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )


SQL_BIGRAM_LM = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
uni AS (
  SELECT term, count(*) AS c
  FROM (SELECT unnest({TOK}) AS term FROM documents) GROUP BY term
),
vsz AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM uni),
umodel AS (SELECT term, c FROM uni ORDER BY c DESC, term LIMIT 4096),
pos AS (
  SELECT doc_id, toks[i] AS w1, toks[i+1] AS w2
  FROM t, unnest(range(1, len(toks))) u(i)
),
bi AS (SELECT w1, w2, count(*) AS c FROM pos GROUP BY w1, w2),
bmodel AS (SELECT w1, w2, c FROM bi ORDER BY c DESC, w1, w2 LIMIT 65536),
s AS (
  SELECT p.doc_id,
         ln((CAST(coalesce(bm.c, 0) AS DOUBLE) + 1.0)
            / (CAST(coalesce(um.c, 1) AS DOUBLE) + vsz.v)) AS lp
  FROM pos p
  LEFT JOIN bmodel bm ON p.w1 = bm.w1 AND p.w2 = bm.w2
  LEFT JOIN umodel um ON p.w1 = um.term
  CROSS JOIN vsz
),
x AS (
  SELECT doc_id, floor(-avg(lp) * 1000000 + 0.5) / 1000000 AS xent
  FROM s GROUP BY doc_id
)
SELECT doc_id, xent, CAST(xent <= {BIGRAM_PPL_CUTOFF} AS BIGINT) AS kept FROM x
"""


# ---------------------------------------------------------------------------
# round-3 batch: containment dedup, per-group top-hits
# ---------------------------------------------------------------------------

CONTAINMENT_THR = 0.5
CONTAINMENT_MIN_INTER = 3


def q_containment_dup(sf_dir: str):
    """Near-superset detection via n-gram CONTAINMENT (Broder 1997):
    inter/min(|A|,|B|) ≥ {CONTAINMENT_THR} — the asymmetric dedup
    signal Jaccard misses when a doc is embedded verbatim in a much
    larger one (functions/dedup.py::containment_pairs; same
    two-exchange shingle shape and hot-df guard as ngram_jaccard)."""
    from ..functions.dedup import containment_pairs

    return containment_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3,
        threshold=CONTAINMENT_THR, min_inter=CONTAINMENT_MIN_INTER,
        max_df=NGRAM_MAX_DF,
    )


SQL_CONTAINMENT_DUP = f"""
WITH {_sh_cte(NGRAM_MAX_DF)}
SELECT p.a, p.b, p.inter,
       floor(CAST(p.inter AS DOUBLE) / least(sa.nsh, sb.nsh) * 1000000 + 0.5)
         / 1000000 AS containment
FROM pairs p JOIN sizes sa ON p.a = sa.doc_id JOIN sizes sb ON p.b = sb.doc_id
WHERE p.inter >= {CONTAINMENT_MIN_INTER}
  AND floor(CAST(p.inter AS DOUBLE) / least(sa.nsh, sb.nsh) * 1000000 + 0.5)
        / 1000000 >= {CONTAINMENT_THR}
"""


def q_group_topk_hits(sf_dir: str):
    """ES `top_hits` sub-aggregation analog: the top-2 BM25 hits PER
    LANG for the flagship query.

    Distributed shape: a ``Scorer.match`` over the built index (the Ray
    build is the distributed part), one (score desc, doc_id asc)
    ranking, and the first two hits per lang — the step
    ``collapse_topk`` takes one deep.  Nothing corpus-sized shuffles."""
    return _bm25_first_per_lang(sf_dir, 2)


def _sql_group_topk_hits() -> str:
    terms = tokenize_text(BM25_QUERY)
    terms_sql = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({TOK}) AS term FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents) AS avgdl
),
qt(term) AS (VALUES {terms_sql}),
tf AS (
  SELECT t.doc_id, t.term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks t JOIN qt ON t.term = qt.term GROUP BY t.doc_id, t.term
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         floor(sum(
           ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * ({K1} + 1)
           / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
         ) * 1000000 + 0.5) / 1000000 AS score
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY tf.doc_id
),
ranked AS (
  SELECT d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY d.lang
                            ORDER BY s.score DESC, s.doc_id) AS rn
  FROM scored s JOIN documents d ON s.doc_id = d.doc_id
)
SELECT lang, doc_id, score FROM ranked WHERE rn <= 2
"""


# ---------------------------------------------------------------------------
# round-3 batch: HyperLogLog distinct count (integer-exact indicator)
# ---------------------------------------------------------------------------

HLL_M = 1024          # 2^10 buckets (p=10)
_HLL_POW2 = float(1 << 55)
_HLL_ALPHA_NUM = 0.7213
_HLL_ALPHA_DEN = 1.0 + 1.079 / 1024.0


def q_hll_distinct(sf_dir: str):
    """HyperLogLog per-lang distinct-term estimate (Flajolet et al.
    2007) alongside the exact count — the classic cardinality sketch
    as a DETERMINISTIC pipeline: hash = md5-low64 (the KMV gate's
    convention, = DuckDB md5_number_lower), bucket = top 10 bits,
    rho = leading zeros of the remaining 54 + 1.  The indicator sum
    Σ 2^(−M_j) is carried SCALED BY 2^55 as an arbitrary-precision
    INTEGER (HUGEINT in the oracle) — order-exact — and converted to
    float exactly once, so the estimator is bit-reproducible at any
    parallelism.  Shuffle volume: ≤ |langs|·m (bucket, max-rho) rows
    per batch, never the token stream.  Linear-counting small-range
    correction applied when raw ≤ 2.5m and empty buckets remain."""
    from ray.data.aggregate import Max, Sum

    pow2 = (np.uint64(1) << np.arange(55, dtype=np.uint64)).astype(np.uint64)

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        langs = pc.take(b["lang"].combine_chunks(), pa.array(parents))
        t = pa.table({"lang": langs, "term": terms}).group_by(
            ["lang", "term"]
        ).aggregate([])
        h = md5_digests(t["term"]).view("<u8")[:, 1]
        bucket = (h >> np.uint64(54)).astype(np.int64)
        w = (h & np.uint64((1 << 54) - 1))
        # bit_length(w) via a power-of-two table (0 for w == 0)
        bl = np.searchsorted(pow2, w, side="right")
        rho = (55 - bl).astype(np.int64)
        g = pa.table({
            "lang": t["lang"], "bucket": pa.array(bucket), "rho": pa.array(rho),
        }).group_by(["lang", "bucket"]).aggregate([("rho", "max")])
        return pa.table({
            "lang": g["lang"], "bucket": g["bucket"],
            "rho": g["rho_max"].cast(pa.int64()),
        })

    ds = _read(sf_dir, "documents", ["lang", "text"])
    regs = collect(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "bucket"])
        .aggregate(Max("rho", alias_name="rho"))
    ).to_pandas()

    # exact distinct per lang (vocab-bounded dedupe, then tiny count)
    def uniq(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = flat_tokens(b["text"])
        langs = pc.take(b["lang"].combine_chunks(), pa.array(parents))
        return pa.table({"lang": langs, "term": terms}).group_by(
            ["lang", "term"]
        ).aggregate([])

    from ray.data.aggregate import Count

    def lang_counts(b: pa.Table) -> pa.Table:
        g = pa.table({"lang": b["lang"]}).group_by("lang").aggregate(
            [([], "count_all")]
        )
        return pa.table({"lang": g["lang"], "n": g["count_all"].cast(pa.int64())})

    exact = collect(
        ds.map_batches(uniq, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(Count())
        .map_batches(lang_counts, batch_format="pyarrow")
        .groupby("lang").aggregate(Sum("n", alias_name="n_exact"))
    ).to_pandas().set_index("lang")["n_exact"].to_dict()

    out = []
    for lang, grp in regs.groupby("lang"):
        rhos = grp["rho"].to_numpy()
        t_int = int(sum(1 << (55 - int(r)) for r in rhos))
        v = HLL_M - len(rhos)
        t_int += v * (1 << 55)
        raw = (
            _HLL_ALPHA_NUM / _HLL_ALPHA_DEN * 1024.0 * 1024.0 * _HLL_POW2
            / float(t_int)
        )
        est = 1024.0 * math.log(1024.0 / v) if (raw <= 2.5 * HLL_M and v > 0) else raw
        out.append((lang, int(exact[lang]), math.floor(est * 1e6 + 0.5) / 1e6))
    out.sort()
    return pd.DataFrame({
        "lang": [r[0] for r in out],
        "n_exact": np.array([r[1] for r in out], dtype=np.int64),
        "hll_est": [r[2] for r in out],
    })


SQL_HLL_DISTINCT = f"""
WITH lt AS (
  SELECT DISTINCT lang, term
  FROM (SELECT lang, unnest({TOK}) AS term FROM documents)
),
hv AS (SELECT lang, md5_number_lower(term) AS h FROM lt),
r AS (
  SELECT lang, CAST(h >> 54 AS BIGINT) AS bucket,
         h & ((1::UBIGINT << 54) - 1) AS w
  FROM hv
),
m AS (
  SELECT lang, bucket,
         max(CASE WHEN w = 0 THEN 55 ELSE 55 - length(bin(w)) END) AS rho
  FROM r GROUP BY lang, bucket
),
t AS (
  SELECT lang,
         sum(1::HUGEINT << CAST(55 - rho AS INT)) AS t_touched,
         CAST(count(*) AS BIGINT) AS ntouched
  FROM m GROUP BY lang
),
e AS (
  SELECT lang,
         CAST(t_touched + ({HLL_M} - ntouched) * (1::HUGEINT << 55) AS DOUBLE) AS tt,
         {HLL_M} - ntouched AS v
  FROM t
),
est AS (
  SELECT lang,
         {_HLL_ALPHA_NUM} / (1.0 + 1.079 / 1024.0) * 1024.0 * 1024.0
           * 36028797018963968.0 / tt AS raw,
         v
  FROM e
),
ex AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_exact FROM lt GROUP BY lang)
SELECT est.lang, ex.n_exact,
       floor(CASE WHEN est.raw <= 2560.0 AND est.v > 0
                  THEN 1024.0 * ln(1024.0 / est.v) ELSE est.raw END
             * 1000000 + 0.5) / 1000000 AS hll_est
FROM est JOIN ex ON est.lang = ex.lang
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def make_queries() -> dict:
    return {
        "doc_token_stats": q_doc_token_stats,
        "term_df": q_term_df,
        "term_tf_total": q_term_tf_total,
        "autocomplete_prefix": q_autocomplete_prefix,
        "bm25_topk": q_bm25_topk,
        "nested_match": q_nested_match,
        "nested_avg": q_nested_avg,
        "collapse_topk": q_collapse_topk,
        "boosting_topk": q_boosting_topk,
        "lang_counts": q_lang_counts,
        "filter_terms_range": q_filter_terms_range,
        "sort_topk": q_sort_topk,
        "exact_dedup": q_exact_dedup,
        "fingerprint": q_fingerprint,
        "hash_split": q_hash_split,
        "chunk_text": q_chunk_text,
        "pmi_pairs": q_pmi_pairs,
        "tfidf_keywords": q_tfidf_keywords,
        "stratified_sample": q_stratified_sample,
        "quality_stats": q_quality_stats,
        "events_watermark": q_events_watermark,
        "multiformat_source": q_multiformat_source,
        "partitioned_sink": q_partitioned_sink,
        "json_props": q_json_props,
        "percentiles": q_percentiles,
        "window_agg": q_window_agg,
        "late_window_agg": q_late_window_agg,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "sessionize": q_sessionize,
        "upsert_last_write": q_upsert_last_write,
        "join_broadcast": q_join_broadcast,
        "shuffle_join": q_shuffle_join,
        "split_leakage": q_split_leakage,
        "group_concat": q_group_concat,
        "lineitem_agg": q_lineitem_agg,
        "ann_cosine_topk": q_ann_cosine_topk,
        "rrf_hybrid": q_rrf_hybrid,
        "bpe_train": q_bpe_train,
        "phrase_match": q_phrase_match,
        "top_terms_per_lang": q_top_terms_per_lang,
        "lang_id": q_lang_id,
        "ngram_jaccard": q_ngram_jaccard,
        "winnow_dedup": q_winnow_dedup,
        "dup_clusters": q_dup_clusters,
        "embedding_near_dup": q_embedding_near_dup,
        "embedding_lsh_near_dup": q_embedding_lsh_near_dup,
        "knn_graph": q_knn_graph,
        "knn_graph_srp": q_knn_graph_srp,
        "multimodal_meta": q_multimodal_meta,
        "audio_meta": q_audio_meta,
        "video_meta": q_video_meta,
        "percolate": q_percolate,
        "video_frames": q_video_frames,
        "minhash_lsh": q_minhash_lsh,
        "incremental_neardup": q_incremental_neardup,
        "mix_weights": q_mix_weights,
        "simhash_dedup": q_simhash_dedup,
        "ann_ivf_topk": q_ann_ivf_topk,
        "decontaminate": q_decontaminate,
        "repetition_stats": q_repetition_stats,
        "curation_funnel": q_curation_funnel,
        "heavy_hitters": q_heavy_hitters,
        "countmin_counts": q_countmin_counts,
        "model_score": q_model_score,
        "train_shuffle": q_train_shuffle,
        "seq_pack": q_seq_pack,
        "kmeans_clusters": q_kmeans,
        "pq_ann": q_pq_ann,
        "bloom_anti_join": q_bloom_anti_join,
        "kmv_distinct": q_kmv_distinct,
        "pii_scrub": q_pii_scrub,
        "shard_stream": q_shard_stream,
        "dedup_keep": q_dedup_keep,
        "domain_quota": q_domain_quota,
        "facet_counts": q_facet_counts,
        "highlight_snippet": q_highlight_snippet,
        "spell_suggest": q_spell_suggest,
        "substring_dup": q_substring_dup,
        "dup_substr_spans": q_dup_substr_spans,
        "substring_scrub": q_substring_scrub,
        "perplexity_filter": q_perplexity_filter,
        "boilerplate_strip": q_boilerplate_strip,
        "semdedup": q_semdedup,
        "regex_search": q_regex_search,
        "search_after": q_search_after,
        "synonym_match": q_synonym_match,
        "rescore_phrase": q_rescore_phrase,
        "date_histogram": q_date_histogram,
        "significant_terms": q_significant_terms,
        "importance_sample": q_importance_sample,
        "vocab_prune": q_vocab_prune,
        "graph_pagerank": q_pagerank,
        "triangle_count": q_triangle_count,
        "rolling_window": q_rolling_window,
        "approx_percentiles": q_approx_percentiles,
        "percentile_ranks": q_percentile_ranks,
        "range_agg": q_range_agg,
        "composite_agg": q_composite_agg,
        "token_entropy": q_token_entropy,
        "rollup_counts": q_rollup_counts,
        "weighted_sample": q_weighted_sample,
        "linreg_fit": q_linreg_fit,
        "session_funnel": q_session_funnel,
        "extended_stats": q_extended_stats,
        "pivot_counts": q_pivot_counts,
        "outer_join": q_outer_join,
        "dismax_topk": q_dismax_topk,
        "fuzzy_match": q_fuzzy_match,
        "wildcard_match": q_wildcard_match,
        "phrase_slop": q_phrase_slop,
        "paragraph_dedup": q_paragraph_dedup,
        "bigram_lm": q_bigram_lm,
        "containment_dup": q_containment_dup,
        "group_topk_hits": q_group_topk_hits,
        "hll_distinct": q_hll_distinct,
    }


def make_oracle_sql() -> dict:
    return {
        "doc_token_stats": SQL_DOC_TOKEN_STATS,
        "term_df": SQL_TERM_DF,
        "term_tf_total": SQL_TERM_TF_TOTAL,
        "autocomplete_prefix": SQL_AUTOCOMPLETE_PREFIX,
        "bm25_topk": _sql_bm25(BM25_QUERY),
        "nested_match": _sql_nested_match(NESTED_QUERY, NESTED_WINDOW),
        "nested_avg": _sql_nested_match(NESTED_QUERY, NESTED_WINDOW, score_mode="avg"),
        "collapse_topk": _sql_collapse_topk(),
        "boosting_topk": _sql_boosting_topk(),
        "lang_counts": SQL_LANG_COUNTS,
        "filter_terms_range": SQL_FILTER_TERMS_RANGE,
        "sort_topk": SQL_SORT_TOPK,
        "exact_dedup": SQL_EXACT_DEDUP,
        "fingerprint": SQL_FINGERPRINT,
        "hash_split": SQL_HASH_SPLIT,
        "chunk_text": SQL_CHUNK_TEXT,
        "pmi_pairs": SQL_PMI_PAIRS,
        "tfidf_keywords": SQL_TFIDF_KEYWORDS,
        "stratified_sample": SQL_STRATIFIED_SAMPLE,
        "quality_stats": SQL_QUALITY_STATS,
        "events_watermark": SQL_EVENTS_WATERMARK,
        "multiformat_source": SQL_MULTIFORMAT_SOURCE,
        "partitioned_sink": SQL_PARTITIONED_SINK,
        "json_props": SQL_JSON_PROPS,
        "percentiles": SQL_PERCENTILES,
        "window_agg": SQL_WINDOW_AGG,
        "late_window_agg": SQL_LATE_WINDOW_AGG,
        "asof_join": SQL_ASOF_JOIN,
        "range_join": SQL_RANGE_JOIN,
        "sessionize": SQL_SESSIONIZE,
        "upsert_last_write": SQL_UPSERT_LAST_WRITE,
        "join_broadcast": SQL_JOIN_BROADCAST,
        "shuffle_join": SQL_SHUFFLE_JOIN,
        "split_leakage": _SQL_SPLIT_LEAKAGE_TMPL.format(
            ngram_sql=SQL_NGRAM_JACCARD, split_sql=SQL_HASH_SPLIT
        ),
        "group_concat": SQL_GROUP_CONCAT,
        "lineitem_agg": SQL_LINEITEM_AGG,
        "ann_cosine_topk": SQL_ANN_COSINE_TOPK,
        "rrf_hybrid": _sql_rrf_hybrid(),
        "bpe_train": _sql_bpe_train(),
        "phrase_match": SQL_PHRASE_MATCH,
        "top_terms_per_lang": SQL_TOP_TERMS_PER_LANG,
        "lang_id": _sql_lang_id(),
        "ngram_jaccard": SQL_NGRAM_JACCARD,
        "winnow_dedup": SQL_WINNOW_DEDUP,
        "dup_clusters": SQL_DUP_CLUSTERS,
        "embedding_near_dup": SQL_EMBEDDING_NEAR_DUP,
        "embedding_lsh_near_dup": SQL_EMBEDDING_LSH_NEAR_DUP,
        "knn_graph": SQL_KNN_GRAPH,
        "knn_graph_srp": SQL_KNN_GRAPH_SRP,
        "multimodal_meta": SQL_MULTIMODAL_META,
        "audio_meta": SQL_AUDIO_META,
        "video_meta": SQL_VIDEO_META,
        "percolate": SQL_PERCOLATE,
        "video_frames": SQL_VIDEO_FRAMES,
        # minhash: LSH candidates + exact verification == exact SQL;
        # simhash: pigeonhole recall is exactly 1 == exact SQL;
        # ann_ivf: full-probe mode == brute force == the cosine SQL
        "minhash_lsh": SQL_MINHASH_LSH,
        "incremental_neardup": SQL_INCREMENTAL_NEARDUP,
        "mix_weights": SQL_MIX_WEIGHTS,
        "simhash_dedup": SQL_SIMHASH_DEDUP,
        "ann_ivf_topk": SQL_ANN_COSINE_TOPK,
        "decontaminate": SQL_DECONTAMINATE,
        "repetition_stats": SQL_REPETITION_STATS,
        "curation_funnel": SQL_CURATION_FUNNEL,
        "heavy_hitters": SQL_HEAVY_HITTERS,
        "countmin_counts": _sql_countmin(),
        "model_score": SQL_MODEL_SCORE,
        "train_shuffle": SQL_TRAIN_SHUFFLE,
        "seq_pack": SQL_SEQ_PACK,
        "kmeans_clusters": _sql_kmeans(),
        "pq_ann": _sql_pq_ann(),
        "bloom_anti_join": SQL_BLOOM_ANTI_JOIN,
        "kmv_distinct": SQL_KMV_DISTINCT,
        "pii_scrub": _sql_pii_scrub(),
        "shard_stream": SQL_SHARD_STREAM,
        "dedup_keep": SQL_DEDUP_KEEP,
        "domain_quota": SQL_DOMAIN_QUOTA,
        "facet_counts": SQL_FACET_COUNTS,
        "highlight_snippet": SQL_HIGHLIGHT_SNIPPET,
        "spell_suggest": SQL_SPELL_SUGGEST,
        "substring_dup": SQL_SUBSTRING_DUP,
        "dup_substr_spans": SQL_DUP_SUBSTR_SPANS,
        "substring_scrub": SQL_SUBSTRING_SCRUB,
        "perplexity_filter": SQL_PERPLEXITY_FILTER,
        "boilerplate_strip": SQL_BOILERPLATE_STRIP,
        "semdedup": _sql_semdedup(),
        "regex_search": SQL_REGEX_SEARCH,
        # keyset pagination == offset pagination under a strict total
        # order (score desc, doc_id asc): page 2 is rows 11-20
        "search_after": _sql_bm25(BM25_QUERY, limit=10, offset=10),
        "synonym_match": _sql_synonym_match(),
        "rescore_phrase": _sql_rescore_phrase(),
        "date_histogram": SQL_DATE_HISTOGRAM,
        "significant_terms": SQL_SIGNIFICANT_TERMS,
        "importance_sample": SQL_IMPORTANCE_SAMPLE,
        "vocab_prune": SQL_VOCAB_PRUNE,
        "graph_pagerank": _sql_pagerank(),
        "triangle_count": SQL_TRIANGLE_COUNT,
        "rolling_window": SQL_ROLLING_WINDOW,
        "approx_percentiles": SQL_APPROX_PERCENTILES,
        "percentile_ranks": SQL_PERCENTILE_RANKS,
        "range_agg": _sql_range_agg(),
        "composite_agg": _sql_composite_agg(),
        "token_entropy": SQL_TOKEN_ENTROPY,
        "rollup_counts": SQL_ROLLUP_COUNTS,
        "weighted_sample": SQL_WEIGHTED_SAMPLE,
        "linreg_fit": SQL_LINREG_FIT,
        "session_funnel": SQL_SESSION_FUNNEL,
        "extended_stats": SQL_EXTENDED_STATS,
        "pivot_counts": _sql_pivot_counts(),
        "outer_join": SQL_OUTER_JOIN,
        "dismax_topk": _sql_dismax_topk(),
        "fuzzy_match": _sql_fuzzy_match(),
        "wildcard_match": SQL_WILDCARD_MATCH,
        "phrase_slop": _sql_phrase_slop(),
        "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
        "bigram_lm": SQL_BIGRAM_LM,
        "containment_dup": SQL_CONTAINMENT_DUP,
        "group_topk_hits": _sql_group_topk_hits(),
        "hll_distinct": SQL_HLL_DISTINCT,
    }


def _sql_lang_id() -> str:
    from ..functions.textstats import sql_lang_id

    return sql_lang_id()
