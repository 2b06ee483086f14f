"""Serving-layer extras: cache, explain, status, enrichment, blocklist."""

import numpy as np
import pyarrow as pa
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import GOLDEN_PHRASE, gen_corpus

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    idx = str(tmp_path_factory.mktemp("srv") / "index")
    build_index(rd.from_arrow(gen_corpus(250)), idx, CFG)
    return idx, SearchEngine(IndexReader(idx))


def test_query_cache_hit_and_ttl(built):
    from lighthouse_ray.query.engine import _TTLCache

    _idx, e = built
    a = e.search(s="merge segment", size=5)
    assert e._cache.get(("merge segment", 5, None, None, None, None, None, None,
                        None, None, None, None, None, False, None, False)) is not None
    b = e.search(s="merge segment", size=5)
    assert a.equals(b)

    t = [0.0]
    c = _TTLCache(max_size=2, ttl=10.0, clock=lambda: t[0])
    c.put("k", 1)
    assert c.get("k") == 1
    t[0] = 11.0
    assert c.get("k") is None  # expired
    c.put("a", 1); c.put("b", 2); c.put("c", 3)
    assert len(c._d) <= 3  # eviction bounded


def test_explain_breakdown(built):
    _idx, e = built
    df = e.search(s=GOLDEN_PHRASE, size=3, debug=True)
    assert "explain" in df.columns
    ex = df["explain"].iloc[0]
    assert "boost-clauses" in ex
    assert any(k.startswith("description-match") for k in ex)
    # clause contributions sum to the pre-decay score: score = sum * decay
    total_clause = sum(ex.values())
    assert total_clause > 0


def test_status(built):
    _idx, e = built
    st = e.status()
    assert st["count"] == e.r.n_docs
    assert st["index_stats"]["num_term_shards"] == CFG.num_term_shards


def test_enrich_counts(built, tmp_path):
    import shutil

    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.state.enrich import enrich_counts

    idx, e = built
    idx2 = str(tmp_path / "enriched")
    shutil.copytree(idx, idx2)
    r = IndexReader(idx2)
    meta = r.docmeta()
    targets = meta["doc_id"].iloc[[0, 5]].tolist()
    counts = pa.table(
        {
            "doc_id": pa.array(targets + ["nonexistent"], type=pa.string()),
            "view_cnt": pa.array([12345, 0, 99], type=pa.int64()),  # 0 -> not written
            "sub_cnt": pa.array([678, 42, 1], type=pa.int64()),
        }
    )
    updated = enrich_counts(idx2, counts)
    assert sum(updated.values()) == 2
    r2 = IndexReader(idx2)
    m2 = r2.docmeta()
    row0 = m2[m2["doc_id"] == targets[0]].iloc[0]
    assert row0["view_cnt"] == 12345 and row0["sub_cnt"] == 678
    row1 = m2[m2["doc_id"] == targets[1]].iloc[0]
    assert row1["sub_cnt"] == 42
    assert row1["view_cnt"] == meta[meta["doc_id"] == targets[1]]["view_cnt"].iloc[0]  # 0 skipped


def test_blocklist_channel_expansion(ray_session, tmp_path):
    import ray.data as rd

    from lighthouse_ray.state import IncrementalIndex

    root = str(tmp_path / "blk")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(150)), CFG)
    live = ii.live_rows()
    repo = live["repo"].iloc[0]
    n_docs_repo = int((live["repo"] == repo).sum())
    n = ii.apply_blocklist(channels=[repo])
    assert n == n_docs_repo
    live2 = ii.live_rows()
    assert (live2["repo"] == repo).sum() == 0


def test_completion_suggest(built):
    """A3 completion-suggester analog: prefix options over the mapped
    fields (suggest_name <- name, suggest_desc <- title), deduped,
    frequency-ranked, deterministic."""
    import numpy as np
    import pytest as _pt

    from lighthouse_ray.query import SearchError

    _idx, e = built
    names = e._meta["name"].to_numpy().astype(str)
    low = np.char.lower(names)
    pref = low[0][:2]
    got = e.suggest(s=pref, field="name", size=5)
    assert got, "prefix of an existing name must suggest something"
    assert all(g.startswith(pref) for g in got)
    # exhaustive reference: unique prefixed values by (count desc, value asc)
    vals, counts = np.unique(low[np.char.startswith(low, pref)], return_counts=True)
    order = np.lexsort((vals, -counts))[:5]
    assert got == [str(v) for v in vals[order]]
    # desc field maps to the title source column (path); unknown fields rejected
    assert isinstance(e.suggest(s=pref, field="desc", size=3), list)
    with _pt.raises(SearchError):
        e.suggest(s=pref, field="nope")
    with _pt.raises(SearchError):
        e.suggest(s=None)


def _suggest_lexsort(uniq, counts, q, size):
    """The per-request scan ``SearchEngine.suggest`` used before the
    weighted completer: lexsort the whole prefix range."""
    import numpy as np

    lo = np.searchsorted(uniq, q, side="left")
    hi = np.searchsorted(uniq, q[:-1] + chr(ord(q[-1]) + 1), side="left")
    if hi <= lo:
        return []
    u, c = uniq[lo:hi], counts[lo:hi]
    return [str(x) for x in u[np.lexsort((u, -c))[:size]]]


def test_suggest_matches_prefix_scan_random_prefixes(built):
    import random

    import numpy as np

    _idx, e = built
    rng = random.Random(11)
    for field, col in e.SUGGEST_FIELDS.items():
        low = np.char.lower(e._meta[col].to_numpy().astype(str))
        uniq, counts = np.unique(low, return_counts=True)
        prefixes = ["".join(rng.choice("abcdefgimorst_./") for _ in range(rng.randint(1, 4)))
                    for _ in range(100)]
        for v in rng.sample(list(uniq), 100):
            p = v[: rng.randint(1, len(v))]
            prefixes.append(p.upper() if rng.random() < 0.2 else p)
        for p in prefixes:
            size = rng.choice([1, 3, 5, 20])
            assert e.suggest(s=p, field=field, size=size) == \
                _suggest_lexsort(uniq, counts, p.lower(), size), (field, p, size)


def test_msearch_service_and_engine(built, ray_session):
    """ES _msearch analog at the engine: the same per-item results as
    sequential engine.search, with per-item error isolation.  The
    service half runs on every grid shape in
    ``tests/test_sharded.py::test_sharded_msearch_parity_and_isolation``."""
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    idx_dir, _eng = built
    engine = SearchEngine(IndexReader(idx_dir), cache_ttl=0)
    reqs = [
        {"s": "import", "size": 3},
        {"s": "merge segment", "size": 2},
        {"size": 5},                      # invalid: s required
        {"s": "import", "size": 10001},   # invalid size (> 10000)
    ]
    eng = engine.msearch(reqs)
    assert [r["status"] for r in eng] == [200, 200, 400, 400]
    for req, item in zip(reqs, eng):
        if item["status"] == 200:
            assert item["hits"].equals(engine.search(**req))
