"""lighthouse_ray — a Ray-Data-native full-text index build + BM25 query engine.

A from-scratch reimplementation of the query and data-processing
capabilities of the reference engine (shyba/lighthouse: Go API server +
Elasticsearch 6.6 backend; see SURVEY.md), re-targeted at a Parquet
corpus of source-code files ``(repo, path, commit, lang, content)`` and
built Ray-Data-first:

- ``analysis``  — code-aware tokenizer (the analog of ES's standard
  analyzer + Lighthouse's name stripping, reference
  app/model/claim.go:170-185), vectorized over Arrow with RE2 kernels
  so the DuckDB SQL oracle can reproduce it exactly.
- ``build``     — indexing pipelines: doc identity/ordinals/doc-store,
  SPIMI-style posting construction in ``map_batches``, term-sharded
  shuffle-merge into delta+varbyte compressed segments with block-max
  metadata; per-partition manifests for resume.
- ``index``     — segment format readers.
- ``query``     — BM25 (k1=1.2, b=0.75) compound scoring, filters,
  phrase/prefix matching, function-score, vectorized top-k,
  autocomplete — the ES DSL surface the reference
  invokes (app/actions/search/query.go).
- ``functions`` — large-scale training-data ops: dedup (exact, MinHash
  LSH, SimHash, n-gram Jaccard, embedding cosine), similarity search,
  text quality/language stats, multimodal container decode.
- ``pipelines`` — oracle-checked pipelines over the driver test tables.

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions
are owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
