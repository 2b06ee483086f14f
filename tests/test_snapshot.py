"""Snapshot / restore: byte-faithful, verified, incremental."""

import json
import os

import pyarrow as pa
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

CFG = IndexConfig(num_doc_parts=4, num_term_shards=8)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    root = tmp_path_factory.mktemp("snap")
    idx = str(root / "index")
    build_index(rd.from_arrow(gen_corpus(200)), idx, CFG)
    return root, idx


def _results(idx):
    import numpy as np

    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query.pagination import topk_page

    r = IndexReader(idx)
    ords, _ids, scores = topk_page(
        r, "content", ["merge", "sorted", "import"], 20, doc_ids=np.arange(r.n_docs)
    )
    return list(zip(ords.tolist(), scores.tolist()))


def test_snapshot_restore_roundtrip(built):
    import shutil

    from lighthouse_ray.state.snapshot import (
        restore_index,
        snapshot_index,
        verify_snapshot,
    )

    root, idx = built
    want = _results(idx)
    snap = str(root / "snap1")
    stats = snapshot_index(idx, snap)
    assert stats["copied"] == stats["files"] > 0 and stats["skipped"] == 0
    verify_snapshot(snap)

    # re-snapshot after no changes: everything skipped (incremental)
    stats2 = snapshot_index(idx, snap)
    assert stats2["copied"] == 0 and stats2["skipped"] == stats["files"]

    # destroy the original, restore elsewhere, results identical
    shutil.rmtree(idx)
    target = str(root / "restored")
    r = restore_index(snap, target)
    assert r["files"] == stats["files"]
    assert _results(target) == want


def test_snapshot_detects_corruption(built):
    from lighthouse_ray.state.snapshot import (
        SnapshotError,
        restore_index,
        snapshot_index,
        verify_snapshot,
    )

    root, idx = built
    # the roundtrip test may have removed the original; rebuild if needed
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        import ray.data as rd

        from lighthouse_ray.build import build_index

        build_index(rd.from_arrow(gen_corpus(200)), idx, CFG)
    snap = str(root / "snap2")
    snapshot_index(idx, snap)
    # flip one byte in some data file
    m = json.load(open(os.path.join(snap, "snapshot_manifest.json")))["files"]
    victim = next(rel for rel in sorted(m) if m[rel][0] > 0)
    p = os.path.join(snap, victim)
    b = bytearray(open(p, "rb").read())
    b[len(b) // 2] ^= 0xFF
    open(p, "wb").write(bytes(b))
    with pytest.raises(SnapshotError, match="hash mismatch"):
        verify_snapshot(snap)
    with pytest.raises(SnapshotError):
        restore_index(snap, str(root / "never"))
    assert not os.path.exists(str(root / "never"))


def test_restore_refuses_to_overwrite(built):
    from lighthouse_ray.state.snapshot import (
        SnapshotError,
        restore_index,
        snapshot_index,
    )

    root, idx = built
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        import ray.data as rd

        from lighthouse_ray.build import build_index

        build_index(rd.from_arrow(gen_corpus(200)), idx, CFG)
    snap = str(root / "snap3")
    snapshot_index(idx, snap)
    with pytest.raises(SnapshotError, match="already contains an index"):
        restore_index(snap, idx)


def test_snapshot_restore_incremental_root(ray_session, tmp_path):
    """The snapshot API covers an INCREMENTAL index root (base + delta
    chain + sync.json) wholesale: restore yields an IncrementalIndex
    with the identical live view and search results."""
    import ray.data as rd

    from lighthouse_ray.corpus import gen_corpus
    from lighthouse_ray.state import IncrementalIndex
    from lighthouse_ray.state.snapshot import restore_index, snapshot_index

    cfg = IndexConfig(num_doc_parts=4, num_term_shards=8, salt_range=64,
                      df_sample_mod=10)
    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, cfg)
    ii.build_base(rd.from_arrow(gen_corpus(80)), cfg)
    new = {"repo": "org9/new", "path": "src/s/snapfile.py", "commit": "a" * 40,
           "lang": "python", "content": "def snap_marker(): return 'permafrost'"}
    ii.apply_delta(rd.from_arrow(pa.table(
        {k: pa.array([new[k]], type=pa.string())
         for k in ("repo", "path", "commit", "lang", "content")})))
    want = ii.search_topk("content", ["permafrost"], k=5)

    snap = str(tmp_path / "snap")
    snapshot_index(root, snap)
    restored = str(tmp_path / "restored")
    restore_index(snap, restored)
    jj = IncrementalIndex(restored, cfg)
    got = jj.search_topk("content", ["permafrost"], k=5)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert len(jj.state["deltas"]) == 1
    assert jj.live_rows().shape == ii.live_rows().shape
