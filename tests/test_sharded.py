"""The serving grid: ``SearchService`` over K ordinal ranges × R
replicas must return BIT-IDENTICAL results to the unpartitioned engine
at every shape (global BM25 stats through RangeReader; exact merge
ordering; K = 1 is a single replica call)."""

import numpy as np
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import GOLDEN_PHRASE, gen_corpus

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)

# (num_partitions, num_replicas)
SHAPES = [(1, 1), (1, 2), (3, 1), (3, 2)]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    idx = str(tmp_path_factory.mktemp("shard") / "index")
    build_index(rd.from_arrow(gen_corpus(300)), idx, CFG)
    return idx, SearchEngine(IndexReader(idx))


@pytest.fixture(scope="module", params=SHAPES, ids=lambda p: f"{p[0]}x{p[1]}")
def sharded(built, request):
    from lighthouse_ray.query.serving import SearchService

    idx, _e = built
    k, r = request.param
    svc = SearchService(idx, num_partitions=k, num_replicas=r)
    assert len(svc.replicas) == k * r
    yield svc
    svc.shutdown()


SEARCHES = [
    dict(s="interesting and amazing facts", size=7),
    dict(s="merge segment", size=5, from_=3),
    dict(s=GOLDEN_PHRASE, size=10),
    dict(s="merge segment", size=5, sort_by="^release_time"),
    dict(s="merge segment", size=5, sort_by="release_time"),
    dict(s="merge segment", size=5, sort_by="^name"),
    dict(s="merge segment", size=6, nsfw=False),
    dict(s="merge segment", size=6, free_only=True),
    dict(s="merge segment", size=4, resolve=True),
    dict(s="merge segment", size=4, include="lang,repo"),
    dict(s="@readme", size=5),
    # a merge column shown twice, or shown by source, resolve or debug
    dict(s="merge segment", size=5, include="claimId"),
    dict(s="merge segment", size=5, include="release_time,release_time", sort_by="release_time"),
    dict(s="merge segment", size=5, sort_by="release_time", source=True),
    dict(s="merge segment", size=5, sort_by="^release_time", resolve=True),
    dict(s="merge segment", size=5, sort_by="ordinal", debug=True),
]


def test_search_parity(built, sharded):
    _idx, engine = built
    for kw in SEARCHES:
        a = engine.search(**kw).reset_index(drop=True)
        b = sharded.search(**kw).reset_index(drop=True)
        assert list(a.columns) == list(b.columns), kw
        assert a.equals(b), f"mismatch for {kw}\n{a}\n{b}"


def test_search_parity_related_to(built, sharded):
    _idx, engine = built
    seed = engine.search(s="merge segment", size=1)["claimId"].iloc[0]
    a = engine.search(s="merge segment", size=5, related_to=seed).reset_index(drop=True)
    b = sharded.search(s="merge segment", size=5, related_to=seed).reset_index(drop=True)
    assert a.equals(b)


def test_autocomplete_parity(built, sharded):
    _idx, engine = built
    for kw in [
        dict(s="imp", size=5),
        dict(s="imp", size=8, from_=2),
        dict(s="merge se", size=10),
        dict(s="@read", size=5),
        dict(s="imp", size=6, nsfw=False),
    ]:
        assert engine.autocomplete(**kw) == sharded.autocomplete(**kw), kw


def test_status_and_validation(built, sharded):
    from lighthouse_ray.query import SearchError

    _idx, engine = built
    for _ in range(sharded.num_replicas):  # every replica row
        assert sharded.status() == engine.status()
    with pytest.raises(SearchError):
        sharded.search(s="ab")
    with pytest.raises(SearchError):
        sharded.search(s="merge segment", size=20000)


def test_range_reader_scores_are_global(built):
    """A RangeReader slice must keep GLOBAL df so per-doc scores match
    the full engine exactly (the invariant the merge relies on)."""
    from lighthouse_ray.index import IndexReader, RangeReader
    from lighthouse_ray.query import SearchEngine

    idx, engine = built
    n = engine.r.n_docs
    part = SearchEngine(RangeReader(IndexReader(idx), n // 3, 2 * n // 3))
    full = engine.search(s="merge segment", size=10000)
    sub = part.search(s="merge segment", size=10000)
    merged = full.merge(sub, on="claimId", suffixes=("_f", "_p"))
    assert len(merged) == len(sub)  # subset relation
    assert np.allclose(merged["score_f"], merged["score_p"], rtol=0, atol=0)


def test_hedged_straggler_parity_and_latency(built):
    """On a 3 × 2 grid one range replica of row 0 is a synthetic 3 s
    straggler; the row-1 replica of its range answers instead — results
    stay bit-identical to the unpartitioned engine and the request
    finishes well under the straggler's delay."""
    import time

    import ray

    from lighthouse_ray.query.serving import SearchReplica, SearchService

    idx, engine = built
    svc = SearchService(idx, num_partitions=3, num_replicas=2)
    ray.kill(svc.replicas[2])
    svc.replicas[2] = SearchReplica.remote(
        idx, svc.bounds[2], svc.bounds[3], debug_delay_s=3.0
    )
    try:
        kw = dict(s="interesting and amazing facts", size=7)
        want = engine.search(**kw).reset_index(drop=True)
        svc.search(**kw)  # warm both rows (engine caches load lazily)
        svc.search(**kw)
        t0 = time.monotonic()
        # the third request takes row 0 again, whose third range is the straggler
        got = svc.search(s="merge segment", size=5).reset_index(drop=True)
        wall = time.monotonic() - t0
        want2 = engine.search(s="merge segment", size=5).reset_index(drop=True)
        assert got.equals(want2)
        got1 = svc.search(**kw).reset_index(drop=True)
        assert got1.equals(want)
        # strictly below the 3 s delay => only a hedged standby answer can
        # get here; the 2 s headroom absorbs full-suite scheduler noise
        assert wall < 2.0, f"hedge did not mask the 3 s straggler (wall={wall:.2f}s)"
    finally:
        svc.shutdown()


def test_sharded_msearch_parity_and_isolation(built, sharded):
    """_msearch on the grid: every item bit-identical to the engine's
    own answer and to a lone search; invalid items isolated per the ES
    responses contract."""
    _idx, engine = built
    svc = sharded
    reqs = [
        {"s": "import", "size": 4},
        {"s": "merge segment index", "size": 3},
        {"size": 2},                        # invalid: s required
        {"s": "buffer flush", "size": 10001},  # invalid size
    ]
    out = svc.msearch(reqs)
    assert [r["status"] for r in out] == [200, 200, 400, 400]
    assert [r["status"] for r in engine.msearch(reqs)] == [200, 200, 400, 400]
    for req, item in zip(reqs, out):
        if item["status"] == 200:
            hits = item["hits"].reset_index(drop=True)
            assert hits.equals(engine.search(**req).reset_index(drop=True))
            assert hits.equals(svc.search(**req).reset_index(drop=True))
        else:
            assert item["error"]
