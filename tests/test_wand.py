"""The served plain-BM25 top-k (``pagination.topk_page``) must equal the
exhaustive reference: the full sort of every match.

Two id mappings: identity ids (ties fall on the ordinal, so the answer
is exactly ``exhaustive_topk``'s) and the 7919-permuted ids of
``test_query_extras`` (ties must follow the external id, so the answer
is the brute-force (score desc, id asc) ranking).

The module and test names are those of the block-max WAND conformance
tests this file replaces. The identity case keeps the id ``0.0`` it had
when the axis was ``dense_cutoff``: 0.0 forced the vectorized scorer,
which is now the only path, so that case checks the same thing as before.
The ``inf`` case (the deleted pivot loop) gave way to ``permuted``.
"""

import numpy as np
import pytest

from lighthouse_ray.analysis import tokenize_text
from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

from .oracle import exhaustive_topk

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)

QUERIES = [
    "interesting and amazing facts",
    "merge sorted runs",
    "import",                      # hot salted term
    "return import def",           # several hot terms
    "buffer flush segment claim",
    "nonexistent zzz",
    "fingerprint rolling the a",
    "window sort key value table",
]

IDS = [pytest.param("identity", id="0.0"), pytest.param("permuted", id="permuted")]


@pytest.fixture(scope="module")
def reader(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader

    idx = str(tmp_path_factory.mktemp("widx") / "index")
    build_index(rd.from_arrow(gen_corpus(400)), idx, CFG)
    return IndexReader(idx)


def _ids(reader, kind):
    n = reader.n_docs
    if kind == "identity":
        return np.arange(n, dtype=np.int64)
    doc_ids = (np.arange(n, dtype=np.int64) * 7919) % n
    assert len(np.unique(doc_ids)) == n
    return doc_ids


def _ranking(reader, field, terms, doc_ids, live=None):
    """Brute-force (id, score) of every live match in (score desc, id asc)."""
    hits = [(d, s) for d, s in exhaustive_topk(reader, field, terms, reader.n_docs)
            if live is None or live[d]]
    ids = doc_ids[np.array([d for d, _ in hits], dtype=np.int64)]
    scores = np.array([s for _, s in hits], dtype=np.float64)
    order = np.lexsort((ids, -scores))
    return [(int(ids[i]), float(scores[i])) for i in order]


def _check(got, want):
    _ords, ids, scores = got
    assert ids.tolist() == [d for d, _ in want]
    np.testing.assert_allclose(scores, [s for _, s in want], rtol=1e-12)


@pytest.mark.parametrize("q", QUERIES)
@pytest.mark.parametrize("k", [1, 5, 10, 50])
@pytest.mark.parametrize("ids", IDS)
def test_wand_matches_exhaustive(reader, q, k, ids):
    from lighthouse_ray.query.pagination import topk_page

    terms = tokenize_text(q)
    doc_ids = _ids(reader, ids)
    got = topk_page(reader, "content", terms, k, doc_ids=doc_ids)
    if ids == "identity":
        want = exhaustive_topk(reader, "content", terms, k)
    else:
        want = _ranking(reader, "content", terms, doc_ids)[:k]
    _check(got, want)


def test_wand_other_fields(reader):
    from lighthouse_ray.query.pagination import topk_page

    doc_ids = _ids(reader, "identity")
    for field, q in [("name", "file 10 py"), ("title", "src module file"), ("channel", "org1 repo14")]:
        terms = tokenize_text(q)
        want = exhaustive_topk(reader, field, terms, 10)
        ords, _ids_, _scores = topk_page(reader, field, terms, 10, doc_ids=doc_ids)
        assert ords.tolist() == [d for d, _ in want], field


@pytest.mark.parametrize("q", QUERIES[:5])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("ids", IDS)
def test_wand_live_mask_matches_filtered_exhaustive(reader, q, seed, ids):
    """The masked top-k (delta-aware serving) must equal the exhaustive
    ranking restricted to live docs — including when the mask removes
    docs that would have made the unmasked top-k."""
    from lighthouse_ray.query.pagination import topk_page

    terms = tokenize_text(q)
    doc_ids = _ids(reader, ids)
    rng = np.random.RandomState(seed)
    live = rng.rand(reader.n_docs) > 0.3  # ~30% shadowed
    want = _ranking(reader, "content", terms, doc_ids, live)[:10]
    _check(topk_page(reader, "content", terms, 10, doc_ids=doc_ids, live=live), want)


def test_wand_live_mask_all_dead(reader):
    from lighthouse_ray.query.pagination import topk_page

    live = np.zeros(reader.n_docs, dtype=bool)
    ords, ids, scores = topk_page(
        reader, "content", ["import"], 10, doc_ids=_ids(reader, "identity"), live=live
    )
    assert len(ords) == len(ids) == len(scores) == 0
