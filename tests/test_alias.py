"""Index aliases: atomic resolve, pinned readers, zero-downtime reindex."""

import os

import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus
from lighthouse_ray.state import AliasError, AliasStore, reindex_swap

CFG = IndexConfig(num_doc_parts=4, num_term_shards=8)


def _results(reader):
    import numpy as np

    from lighthouse_ray.query.pagination import topk_page

    ords, _ids, scores = topk_page(
        reader, "content", ["merge", "sorted", "import"], 10,
        doc_ids=np.arange(reader.n_docs),
    )
    return list(zip(ords.tolist(), scores.tolist()))


@pytest.fixture(scope="module")
def two_indexes(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    root = tmp_path_factory.mktemp("alias")
    a, b = str(root / "idx_a"), str(root / "idx_b")
    build_index(rd.from_arrow(gen_corpus(150)), a, CFG)
    build_index(rd.from_arrow(gen_corpus(300)), b, CFG)
    return root, a, b


def test_alias_set_resolve_swap(two_indexes):
    root, a, b = two_indexes
    store = AliasStore(str(root / "store"))
    assert store.set("docs", a) is None
    assert store.resolve("docs") == os.path.abspath(a)
    # swap returns the previous target; resolve follows the flip
    assert store.set("docs", b) == os.path.abspath(a)
    assert store.resolve("docs") == os.path.abspath(b)
    assert store.aliases() == {"docs": os.path.abspath(b)}


def test_alias_rejects_unbuilt_and_unknown(two_indexes):
    root, a, _b = two_indexes
    store = AliasStore(str(root / "store2"))
    with pytest.raises(AliasError):
        store.set("docs", str(root / "nonexistent"))
    with pytest.raises(AliasError):
        store.resolve("docs")
    store.set("docs", a)
    store.delete("docs")
    with pytest.raises(AliasError):
        store.resolve("docs")


def test_swap_leaves_open_reader_pinned(two_indexes):
    """An IndexReader opened before a swap keeps serving the OLD index
    (in-flight queries unaffected); a reader opened after the swap sees
    the new one."""
    root, a, b = two_indexes
    store = AliasStore(str(root / "store3"))
    store.set("docs", a)
    old_reader = store.open_reader("docs")
    before = _results(old_reader)
    store.set("docs", b)
    assert _results(old_reader) == before  # pinned
    new_reader = store.open_reader("docs")
    from lighthouse_ray.index import IndexReader

    assert _results(new_reader) == _results(IndexReader(b))
    assert _results(new_reader) != before  # 300-doc corpus ranks differently


def test_reindex_swap_end_to_end(two_indexes, tmp_path):
    import ray.data as rd

    root, a, _b = two_indexes
    store = AliasStore(str(root / "store4"))
    store.set("docs", a)
    new_dir = str(tmp_path / "idx_new")
    prev = reindex_swap(store, "docs", rd.from_arrow(gen_corpus(300)), new_dir, CFG)
    assert prev == os.path.abspath(a)
    assert store.resolve("docs") == os.path.abspath(new_dir)
    # the new physical index answers through the alias
    assert len(_results(store.open_reader("docs"))) > 0
