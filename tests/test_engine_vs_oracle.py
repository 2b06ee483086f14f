"""Engine vs in-memory oracle: rank-identical top-k with equal scores.

The FIXTURES.md §3 reference query suite, re-expressed over the synthetic
corpus.  Every query runs through both the distributed-index engine and
the naive oracle; doc_id order must be identical and scores equal to
1e-6 (the engine sums clause scores in numpy, the oracle in Python —
only float association differs).
"""

import numpy as np
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import GOLDEN_PHRASE, gen_corpus

from .oracle import Oracle, project_reference

N_DOCS = 350
CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)
SPECIAL = {"tim pool": "timcast", "interesting stuff": GOLDEN_PHRASE}


@pytest.fixture(scope="module")
def engine(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    idx = str(tmp_path_factory.mktemp("qidx") / "index")
    build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx, CFG)
    return SearchEngine(IndexReader(idx), special_map=SPECIAL)


@pytest.fixture(scope="module")
def oracle():
    return Oracle(gen_corpus(N_DOCS).to_pylist(), special_map=SPECIAL)


def assert_match(df, want, check_scores=True):
    got = list(zip(df["claimId"], df["score"]))
    assert [g[0] for g in got] == [w[0] for w in want], (
        f"rank mismatch:\n engine={got}\n oracle={want}"
    )
    if check_scores:
        np.testing.assert_allclose(
            [g[1] for g in got], [w[1] for w in want], rtol=1e-9, atol=1e-6
        )


SEARCH_CASES = [
    dict(s=GOLDEN_PHRASE, size=5),                       # q01 golden e2e
    dict(s="fingerprint rolling", size=10),              # q02 rare terms
    dict(s="import", size=10),                           # q03 hot (salted) term
    dict(s="merges sorted runs", size=10),               # q04 phrase present
    dict(s='parse "exact phrase matching support"', size=10),  # q05 quoted filter
    dict(s="@readme", size=10),                          # q06 @-boost
    dict(s="read me", size=10),                          # q07 compressed-name path
    dict(s="segmnt merge", size=10),                     # q08 fuzzy (edit distance 1)
    dict(s="merge segment", channel="org1/repo14", size=10),   # q09 channel filter
    dict(s="merge segment", claim_type="channel", size=10),    # q10 claim_type
    dict(s="merge segment", media_type="text,application", size=10),  # q11 prefix filter
    dict(s="merge segment", media_type="audio", size=10),      # q11b no match
    dict(s="merge segment", nsfw=False, size=10),        # q12 nsfw exclusion
    dict(s="merge segment", free_only=True, size=10),    # q13 fee==0
    dict(s="merge segment", sort_by="release_time", size=10),   # q15 sort desc
    dict(s="merge segment", sort_by="^release_time", size=10),  # q15 sort asc
    dict(s="merge segment", size=25, from_=10),          # q16 pagination
    dict(s="tim pool", size=5),                          # q18 special rewrite
    dict(s="interesting stuff", size=5),                 # q18b special rewrite hits golden
    dict(s="x" * 400 + " merge", size=5),                # q19 truncation
]


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: str(c)[:60])
def test_search_parity(engine, oracle, case):
    from lighthouse_ray.query import SearchError

    kwargs = dict(case)
    df = engine.search(**kwargs)
    want = oracle.search(**kwargs)
    assert_match(df, want, check_scores="sort_by" not in case)
    if "sort_by" in case:
        # field-sorted: the doc order matters, scores still comparable
        np.testing.assert_allclose(
            df["score"].to_numpy(), [w[1] for w in want], rtol=1e-9, atol=1e-6
        )


def test_q17_related_to(engine, oracle):
    seed = engine.search(s=GOLDEN_PHRASE, size=1)
    doc_id = seed["claimId"].iloc[0]
    df = engine.search(s="xxx", related_to=doc_id, size=10)
    want = oracle.search(s="xxx", related_to=doc_id, size=10)
    assert_match(df, want)
    assert len(df) > 0, "related_to should yield results on this corpus"


def test_q20_function_score_components(engine, oracle):
    # two docs with equal BM25 must be separated deterministically by the
    # function-score stack; covered implicitly by score equality above, but
    # pin the decay multiplier math on a known timestamp
    import math

    sc = engine.scorer
    ts = np.array([engine.r.now_ts - 86400 * 3], dtype=np.float64)
    g = sc.gauss(ts, float(engine.r.now_ts), 7 * 86400.0, 7 * 86400.0, 0.5, 0.11)
    assert g[0] == pytest.approx(0.11)  # inside offset -> no decay
    far = sc.gauss(
        np.array([engine.r.now_ts - 86400.0 * 14]), float(engine.r.now_ts),
        7 * 86400.0, 7 * 86400.0, 0.5, 0.11,
    )
    assert far[0] == pytest.approx(0.11 * 0.5)  # one scale past offset -> decay value


def test_validation_errors(engine):
    from lighthouse_ray.query import SearchError

    with pytest.raises(SearchError):
        engine.search(s="ab")
    with pytest.raises(SearchError):
        engine.search(s="abc", size=10001)
    with pytest.raises(SearchError):
        engine.search(s="abc", from_=10000)
    with pytest.raises(SearchError):
        engine.search(s="abc", media_type="bogus")
    with pytest.raises(SearchError):
        engine.autocomplete(s="")
    for kw in (dict(from_=-5), dict(from_=-2, size=5), dict(size=-1)):
        with pytest.raises(SearchError):
            engine.search(s="the function", **kw)
        with pytest.raises(SearchError):
            engine.autocomplete(s="the", **kw)


AC_CASES = [
    dict(s="imp", size=10),          # ac01 single prefix
    dict(s="merge se", size=10),     # ac02 multi-term prefix, slop 5
    dict(s="@read", size=10),        # ac03 channel-only
    dict(s="file", size=20),         # ac04 dup names dedup
    dict(s="pars", size=10, nsfw=False),
]


@pytest.mark.parametrize("case", AC_CASES, ids=lambda c: str(c)[:40])
def test_autocomplete_parity(engine, oracle, case):
    got = engine.autocomplete(**case)
    want = oracle.autocomplete(**case)
    assert got == want, f"{got} != {want}"


def test_projection_and_resolve(engine):
    df = engine.search(s="merge segment", size=3, include="title,channel")
    assert list(df.columns) == ["name", "claimId", "title", "channel", "score"]
    df2 = engine.search(s="merge segment", size=3, resolve=True)
    for c in ["channel", "channel_claim_id", "title", "thumbnail_url", "release_time", "fee", "nsfw", "duration"]:
        assert c in df2.columns


def test_channel_id_and_claim_id_filters(engine, oracle):
    # pick a real doc via a broad query
    seed = engine.search(s="merge segment", size=1, include="channel_claim_id")
    ccid = seed["channel_claim_id"].iloc[0]
    cid = seed["claimId"].iloc[0]
    got = engine.search(s="merge segment", channel_id=ccid, size=10)
    want = oracle.search(s="merge segment", channel_id=ccid, size=10)
    assert_match(got, want)
    got2 = engine.search(s="merge segment", claim_id=cid, size=10)
    want2 = oracle.search(s="merge segment", claim_id=cid, size=10)
    assert_match(got2, want2)
    assert list(got2["claimId"]) == [cid]


def test_autocomplete_paging(engine, oracle):
    full = engine.autocomplete(s="fil", size=20)
    paged = engine.autocomplete(s="fil", size=20, from_=5)
    want = oracle.autocomplete(s="fil", size=20, from_=5)
    assert paged == want
    assert len(full) >= len(paged)


def test_unknown_include_field_errors(engine):
    from lighthouse_ray.query import SearchError

    with pytest.raises(SearchError):
        engine.search(s="merge segment", include="no_such_field")


PROJECTIONS = [
    dict(),
    dict(include="claimId,name"),                      # duplicate columns
    dict(include="thumbnail_url,duration,title,channel,fee,,nsfw"),  # derived
    dict(include="title", resolve=True),
    dict(include="ordinal,ordinal", debug=True),       # duplicate of the debug column
    dict(source=True),
    dict(include="bogus", source=True),                # source ignores include
    dict(resolve=True, source=True, debug=True),
    dict(include="nope,claimId,bogus"),                # unknown fields
    dict(include="channel_id", resolve=True),
]


@pytest.mark.filterwarnings("ignore:DataFrame columns are not unique")
def test_project_matches_pandas_reference(engine):
    """The per-column numpy hit projection against the pandas
    projection it replaced: same JSON bytes, columns, dtypes and index
    over random pages (empty pages too), same error text."""
    import json

    from lighthouse_ray.query import SearchError
    from lighthouse_ray.query.request import SearchRequest

    meta = engine._meta
    n = len(meta)
    rng = np.random.default_rng(7)
    scores = rng.random(n)

    def run(fn, ords, kw):
        try:
            return fn(ords, kw)
        except SearchError as e:
            return f"SearchError: {e}"

    def new(ords, kw):
        # the request validates and lists the columns; _project gathers them
        req = SearchRequest(s="abc", **kw)
        return engine._project(ords, scores, req.columns(), req.debug)

    def ref(ords, kw):
        return project_reference(meta, ords, scores, kw.get("include"),
                                 kw.get("resolve", False), kw.get("source", False),
                                 kw.get("debug", False))

    for k in (0, 1, 3, 10, 40):
        for kw in PROJECTIONS:
            ords = np.flatnonzero(np.zeros(n)) if k == 0 else rng.choice(n, k, replace=False)
            got, want = run(new, ords, kw), run(ref, ords, kw)
            if isinstance(want, str):
                assert got == want
                continue
            assert list(got.columns) == list(want.columns), kw
            assert list(got.dtypes) == list(want.dtypes), kw
            assert got.index.equals(want.index)
            assert json.dumps(got.to_dict(orient="records"), indent=2, default=str) == \
                json.dumps(want.to_dict(orient="records"), indent=2, default=str), (kw, k)
