"""Block-max WAND must be result-identical to the exhaustive scorer.

Same engine, two traversal modes = built-in conformance check
(SURVEY.md §7.2 step 7).
"""

import numpy as np
import pytest

from lighthouse_ray.analysis import tokenize_text
from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import GOLDEN_PHRASE, gen_corpus

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


@pytest.fixture(scope="module")
def reader(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader

    idx = str(tmp_path_factory.mktemp("widx") / "index")
    build_index(rd.from_arrow(gen_corpus(400)), idx, CFG)
    return IndexReader(idx)


@pytest.mark.parametrize("q", QUERIES)
@pytest.mark.parametrize("k", [1, 5, 10, 50])
@pytest.mark.parametrize("cutoff", [0.0, float("inf")])
def test_wand_matches_exhaustive(reader, q, k, cutoff):
    """cutoff=0 forces the vectorized dense traversal, inf forces the
    pivot loop — BOTH must be result-identical to the exhaustive
    reference."""
    from lighthouse_ray.query.wand import exhaustive_topk, wand_topk

    terms = tokenize_text(q)
    want = exhaustive_topk(reader, "content", terms, k)
    got = wand_topk(reader, "content", terms, k, dense_cutoff=cutoff)
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)


def test_wand_other_fields(reader):
    from lighthouse_ray.query.wand import exhaustive_topk, wand_topk

    for field, q in [("name", "file 10 py"), ("title", "src module file"), ("channel", "org1 repo14")]:
        terms = tokenize_text(q)
        want = exhaustive_topk(reader, field, terms, 10)
        got = wand_topk(reader, field, terms, 10)
        assert [d for d, _ in got] == [d for d, _ in want], field


@pytest.mark.parametrize("q", QUERIES[:5])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cutoff", [0.0, float("inf")])
def test_wand_live_mask_matches_filtered_exhaustive(reader, q, seed, cutoff):
    """Masked WAND (delta-aware serving) must equal the exhaustive
    scorer restricted to live docs — including when the mask removes
    docs that would have made the unmasked top-k."""
    from lighthouse_ray.query.wand import exhaustive_topk, wand_topk

    terms = tokenize_text(q)
    rng = np.random.RandomState(seed)
    live = rng.rand(reader.n_docs) > 0.3  # ~30% shadowed
    want = [(d, s) for d, s in exhaustive_topk(reader, "content", terms, reader.n_docs)
            if live[d]][:10]
    got = wand_topk(reader, "content", terms, 10, live=live, dense_cutoff=cutoff)
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)


def test_wand_live_mask_all_dead(reader):
    from lighthouse_ray.query.wand import wand_topk

    live = np.zeros(reader.n_docs, dtype=bool)
    assert wand_topk(reader, "content", ["import"], 10, live=live) == []
