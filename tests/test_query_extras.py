"""Round-3 query-surface extras: keyset pagination, synonym expansion,
two-phase rescoring.

Each is conformance-tested against a brute-force reference built from
the exhaustive scorer / the raw corpus text, over an external doc-id
mapping that PERMUTES ordinals — so tie-breaks are proven to follow the
external id, not the internal ordinal.
"""

import numpy as np
import pytest

from lighthouse_ray.analysis import tokenize_text
from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

from .oracle import exhaustive_topk

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)
N_DOCS = 400


def _build(corpus, tmp_path_factory, name):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader

    idx = str(tmp_path_factory.mktemp(name) / "index")
    build_index(rd.from_arrow(corpus), idx, CFG)
    reader = IndexReader(idx)
    # external ids permute ordinals (x -> 7919x mod n is a bijection for
    # gcd(7919, n) = 1): tie-breaks must follow THESE, not ordinals
    doc_ids = (np.arange(reader.n_docs, dtype=np.int64) * 7919) % reader.n_docs
    assert len(np.unique(doc_ids)) == reader.n_docs
    return reader, doc_ids, corpus


@pytest.fixture(scope="module")
def setup(ray_session, tmp_path_factory):
    return _build(gen_corpus(N_DOCS), tmp_path_factory, "qextras")


@pytest.fixture(scope="module")
def ties(ray_session, tmp_path_factory):
    """~200 docs that all score the same for "merge sorted runs": half
    hold the phrase "merge sorted", half the same words out of order.
    Every cut is decided by the external-id tie-break alone."""
    import pyarrow as pa

    corpus = gen_corpus(200)
    i = corpus.schema.get_field_index("content")
    text = [
        "merge sorted runs" if j % 2 == 0 else "sorted merge runs"
        for j in range(corpus.num_rows)
    ]
    corpus = corpus.set_column(i, "content", pa.array(text, type=corpus.schema.field(i).type))
    return _build(corpus, tmp_path_factory, "qties")


def _full_ranking(reader, doc_ids, terms):
    """Brute-force total ranking [(doc_id, score)] in
    (score desc, doc_id asc) order over all matching docs."""
    hits = exhaustive_topk(reader, "content", terms, k=reader.n_docs)
    ids = doc_ids[np.array([d for d, _ in hits], dtype=np.int64)]
    scores = np.array([s for _, s in hits], dtype=np.float64)
    order = np.lexsort((ids, -scores))
    return [(int(ids[i]), float(scores[i])) for i in order]


@pytest.mark.parametrize("q", ["merge sorted runs", "import", "window sort key value table"])
@pytest.mark.parametrize("size", [7, 25])
def test_search_after_walk_equals_full_ranking(setup, q, size):
    """Walking every page via cursors reproduces the complete ranking —
    no gaps, no repeats, scores identical."""
    from lighthouse_ray.query.pagination import search_after_topk

    reader, doc_ids, _ = setup
    terms = tokenize_text(q)
    want = _full_ranking(reader, doc_ids, terms)

    got, cursor, pages = [], None, 0
    while True:
        page, cursor = search_after_topk(
            reader, "content", terms, size=size, after=cursor, doc_ids=doc_ids
        )
        if not page:
            break
        got.extend(page)
        pages += 1
        assert len(page) <= size
    assert pages >= (len(want) + size - 1) // size
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)


def test_search_after_no_matches(setup):
    from lighthouse_ray.query.pagination import search_after_topk

    reader, doc_ids, _ = setup
    page, cursor = search_after_topk(
        reader, "content", tokenize_text("nonexistent zzz"), size=10, doc_ids=doc_ids
    )
    assert page == [] and cursor is None


def test_search_after_cursor_is_stable_mid_stream(setup):
    """Re-fetching the same cursor returns the same page (the cursor is
    a pure sort key, not server-side state)."""
    from lighthouse_ray.query.pagination import search_after_topk

    reader, doc_ids, _ = setup
    terms = tokenize_text("import")
    _p1, cur = search_after_topk(reader, "content", terms, size=10, doc_ids=doc_ids)
    a, _ = search_after_topk(reader, "content", terms, size=10, after=cur, doc_ids=doc_ids)
    b, _ = search_after_topk(reader, "content", terms, size=10, after=cur, doc_ids=doc_ids)
    assert a == b and len(a) == 10


def test_expand_terms_order_preserving_union():
    from lighthouse_ray.analysis.synonyms import expand_terms

    syn = {"merge": ("join", "fuse"), "sort": ("order",), "x": ("merge",)}
    assert expand_terms(["merge", "sort"], syn) == ["merge", "join", "fuse", "sort", "order"]
    # duplicates keep first position; expansion of an expansion does NOT recurse
    assert expand_terms(["x", "merge"], syn) == ["x", "merge", "join", "fuse"]
    assert expand_terms([], syn) == []


@pytest.mark.parametrize("data,window,bonus", [
    pytest.param("setup", 30, 2.0, id="30-2.0"),
    pytest.param("setup", 5, 100.0, id="5-100.0"),
    pytest.param("ties", 10, 2.0, id="ties-10-2.0"),
    pytest.param("ties", 30, 100.0, id="ties-30-100.0"),
])
def test_rescore_phrase_vs_bruteforce(request, data, window, bonus):
    """rescore == (window cut in (bm25 desc, id asc)) + bonus-if-phrase
    + re-rank, with phrase presence computed from each doc's stored text."""
    from lighthouse_ray.query.rescore import rescore_phrase_topk

    reader, doc_ids, _ = request.getfixturevalue(data)
    terms = tokenize_text("merge sorted runs")
    phrase = ["merge", "sorted"]

    ranked = _full_ranking(reader, doc_ids, terms)[:window]
    id_to_ord = np.empty_like(doc_ids)
    id_to_ord[doc_ids] = np.arange(len(doc_ids))

    def has_phrase(doc_id: int) -> bool:
        toks = tokenize_text(reader.doc_content(int(id_to_ord[doc_id])))
        return any(
            toks[i : i + len(phrase)] == phrase for i in range(len(toks) - len(phrase) + 1)
        )

    want = [(d, s + (bonus if has_phrase(d) else 0.0)) for d, s in ranked]
    want.sort(key=lambda x: (-x[1], x[0]))
    want = want[:10]

    got = rescore_phrase_topk(
        reader, "content", terms, phrase,
        window=window, k=10, bonus=bonus, doc_ids=doc_ids,
    )
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)
    if bonus == 100.0:
        # with a dominant bonus, every phrase doc in the window must
        # outrank every non-phrase doc: proves the bonus actually landed
        flags = [s > 50.0 for _, s in got]
        assert flags == sorted(flags, reverse=True)


def test_search_topk_ties_follow_doc_id(ties, tmp_path):
    """Over a delta chain, ``search_topk`` cuts every segment and the
    merge in one (score desc, doc_id asc) order: each k equals the
    brute-force live ranking, even where every base doc ties."""
    import pyarrow as pa
    import ray.data as rd

    from lighthouse_ray.state import IncrementalIndex

    _reader, _doc_ids, corpus = ties
    ii = IncrementalIndex(str(tmp_path / "root"), CFG)
    ii.build_base(rd.from_arrow(corpus), CFG)
    rows = corpus.slice(0, 6).to_pylist()
    for j, r in enumerate(rows):  # three upserts, three new docs
        r["commit"] = "f" * 40
        if j >= 3:
            r["path"] = f"{r['path']}.new"
    ii.apply_delta(rd.from_arrow(pa.Table.from_pylist(rows, schema=corpus.schema)))

    terms = tokenize_text("merge sorted runs")
    want = []
    for rdr, mask in zip(ii.readers(), ii.live_map()):
        ids = rdr.docmeta()["doc_id"].to_numpy()
        want.extend((ids[d], s) for d, s in exhaustive_topk(rdr, "content", terms, rdr.n_docs)
                    if mask[d])
    want.sort(key=lambda x: (-x[1], x[0]))
    for k in (1, 5, 37):
        got = ii.search_topk("content", terms, k=k)
        assert got["doc_id"].tolist() == [d for d, _ in want[:k]], k
        np.testing.assert_allclose(got["score"], [s for _, s in want[:k]], rtol=1e-12)
