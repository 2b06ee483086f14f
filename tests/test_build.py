"""Index build: correctness vs brute force, invariants, determinism, resume."""

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pytest

from lighthouse_ray.analysis import tokenize_text
from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

from .oracle import segment_dictionary

N_DOCS = 400
# cleanup_spills=False: the resume tests simulate mid-stage crashes by
# deleting outputs from a finished build, which requires the exchange
# spills to still exist (as they would at a real mid-stage crash)
CFG = IndexConfig(
    num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10,
    cleanup_spills=False,
)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx = str(tmp_path_factory.mktemp("idx") / "index")
    res = build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx, CFG)
    return idx, res


@pytest.fixture(scope="module")
def brute(built):
    """Reference doc set: dedup by (repo,path) keep max commit, drop Spent/Expired."""
    tbl = gen_corpus(N_DOCS)
    rows = {}
    for r in tbl.to_pylist():
        key = (r["repo"], r["path"])
        rank = (r["commit"], hashlib.sha256(r["content"].encode()).hexdigest())
        old = rows.get(key)
        if old is None or rank > (
            old["commit"], hashlib.sha256(old["content"].encode()).hexdigest()
        ):
            rows[key] = r
    out = []
    for r in rows.values():
        doc_id = hashlib.sha1(
            f"{r['repo']}\0{r['path']}\0{r['commit']}".encode()
        ).hexdigest()
        h64 = int(doc_id[:16], 16)
        hb = h64 % 20
        if hb in (18, 19):  # Spent / Expired -> delete-routed
            continue
        r = dict(r, doc_id=doc_id)
        out.append(r)
    return out


def test_n_docs_matches_brute(built, brute):
    _idx, res = built
    assert res.n_docs == len(brute)


def test_df_parity(built, brute):
    from lighthouse_ray.index import IndexReader

    idx, _res = built
    rd_ = IndexReader(idx)
    for term in ["return", "import", "interesting", "segment", "nonexistenttoken"]:
        want = sum(1 for r in brute if term in tokenize_text(r["content"]))
        tp = rd_.lookup("content", term)
        got = tp.df if tp else 0
        assert got == want, term
        if tp:
            o = tp.ordinals.astype(np.int64)
            assert (np.diff(o) > 0).all(), f"postings not strictly sorted for {term}"


def test_tf_and_positions_parity(built, brute):
    from lighthouse_ray.index import IndexReader

    idx, _res = built
    rd_ = IndexReader(idx)
    dm = rd_.docmeta()
    tp = rd_.lookup("content", "interesting")
    assert tp is not None
    pos, off = tp.positions()
    by_id = {r["doc_id"]: r for r in brute}
    for i, o in enumerate(tp.ordinals):
        doc = by_id[dm["doc_id"].iloc[int(o)]]
        toks = tokenize_text(doc["content"])
        want_pos = [j for j, t in enumerate(toks) if t == "interesting"]
        assert tp.tfs[i] == len(want_pos)
        assert pos[off[i] : off[i + 1]].tolist() == want_pos


def test_doclen_parity(built, brute):
    from lighthouse_ray.index import IndexReader

    idx, _res = built
    rd_ = IndexReader(idx)
    dm = rd_.docmeta()
    dl = rd_.doclens("content")
    by_id = {r["doc_id"]: r for r in brute}
    for o in [0, 1, len(dm) // 2, len(dm) - 1]:
        doc = by_id[dm["doc_id"].iloc[o]]
        assert dl[o] == len(tokenize_text(doc["content"]))
    # name-field doclen
    dln = rd_.doclens("name")
    doc = by_id[dm["doc_id"].iloc[0]]
    assert dln[0] == len(tokenize_text(os.path.basename(doc["path"])))


def test_content_sha256_invariant(built):
    """Per-row invariant (BASELINE.json input_hint): sha256(content) equality
    end-to-end — meta hash vs recomputed hash of the payload content."""
    idx, _res = built
    meta = pads.dataset(os.path.join(idx, "docstore")).to_table(
        columns=["doc_id", "content_sha256"]
    )
    payload = pads.dataset(os.path.join(idx, "payload")).to_table(
        columns=["doc_id", "content"]
    )
    by_id = dict(zip(payload["doc_id"].to_pylist(), payload["content"].to_pylist()))
    n = 0
    for d, h in zip(meta["doc_id"].to_pylist(), meta["content_sha256"].to_pylist()):
        assert hashlib.sha256(by_id[d].encode()).hexdigest() == h
        n += 1
    assert n > 0


def test_deterministic_across_parallelism(ray_session, built, tmp_path):
    """x01: same logical input at different block counts -> identical segments."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built
    tbl = gen_corpus(N_DOCS)
    idx2 = str(tmp_path / "index2")
    res2 = build_index(rd.from_arrow(tbl).repartition(7), idx2, CFG)
    a = res.manifest["stages"]["segments"]["shards"]
    b = res2.manifest["stages"]["segments"]["shards"]
    assert set(a) == set(b)
    for k in a:
        assert a[k]["sha256"] == b[k]["sha256"], f"shard {k} differs"
    assert res.manifest["stages"]["docstore"]["digests"] == res2.manifest["stages"]["docstore"]["digests"]


def test_resume_mid_shuffle(ray_session, built, tmp_path):
    """x02: kill after some segments are written -> resume completes the rest."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built
    idx3 = str(tmp_path / "index3")
    shutil.copytree(idx, idx3)
    # simulate a crash: two shards missing, manifest says so
    mpath = os.path.join(idx3, "manifest.json")
    man = json.load(open(mpath))
    shards = man["stages"]["segments"]["shards"]
    pos = sorted((k for k in shards if int(k) >= 0), key=int)[:2]
    neg = sorted((k for k in shards if int(k) < 0), key=int)[:1]
    for v in pos:
        os.remove(os.path.join(idx3, "segments", f"shard-{int(v):05d}.parquet"))
        del shards[v]
    for v in neg:
        os.remove(os.path.join(idx3, "doclens", f"bucket-{-1 - int(v):05d}.parquet"))
        del shards[v]
    json.dump(man, open(mpath, "w"))
    res3 = build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx3, CFG, resume=True)
    got = res3.manifest["stages"]["segments"]["shards"]
    want = res.manifest["stages"]["segments"]["shards"]
    assert set(got) == set(want)
    for k in want:
        assert got[k]["sha256"] == want[k]["sha256"]


def test_resume_skips_completed_stages(ray_session, built, tmp_path):
    """Killing after stage B: resume must reuse docstore + postings
    (stage entries untouched) and rebuild only the missing segments."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built
    idx4 = str(tmp_path / "index4")
    shutil.copytree(idx, idx4)
    mpath = os.path.join(idx4, "manifest.json")
    man = json.load(open(mpath))
    before_doc = man["stages"]["docstore"]
    before_post = man["stages"]["postings"]
    # simulate: crash before ANY segment completed
    del man["stages"]["segments"]
    json.dump(man, open(mpath, "w"))
    shutil.rmtree(os.path.join(idx4, "segments"))
    shutil.rmtree(os.path.join(idx4, "doclens"))
    payload_mtimes = {
        f: os.path.getmtime(os.path.join(idx4, "payload", f))
        for f in os.listdir(os.path.join(idx4, "payload"))
    }
    res4 = build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx4, CFG, resume=True)
    man4 = res4.manifest
    assert man4["stages"]["docstore"] == before_doc      # stage A reused
    assert man4["stages"]["postings"] == before_post     # stage B reused
    for f, mt in payload_mtimes.items():                 # no payload rewrite
        assert os.path.getmtime(os.path.join(idx4, "payload", f)) == mt
    want = res.manifest["stages"]["segments"]["shards"]
    got = man4["stages"]["segments"]["shards"]
    assert {k: v["sha256"] for k, v in got.items()} == {k: v["sha256"] for k, v in want.items()}


def test_exchange_conformance_multi_shard_groups(ray_session, built, tmp_path):
    """num_shard_groups < num_term_shards packs several shards into each
    spill group (rows arrive shard-INTERLEAVED, so the merge task's
    shard-sort path runs); segment bytes must match the one-shard-per-
    group default exactly."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built  # built with shard_groups == num_term_shards
    cfg2 = IndexConfig(**{**CFG.to_json(), "num_shard_groups": 4})
    idx5 = str(tmp_path / "index5")
    res5 = build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx5, cfg2)
    a = res.manifest["stages"]["segments"]["shards"]
    b = res5.manifest["stages"]["segments"]["shards"]
    assert set(a) == set(b)
    for k in a:
        assert a[k]["sha256"] == b[k]["sha256"], f"shard {k} differs with grouped shards"


def test_cleanup_spills_default(ray_session, tmp_path):
    """Default config removes exchange scratch after a complete build;
    query-side dirs survive and the index still answers."""
    import ray.data as rd

    from lighthouse_ray.build import build_index
    from lighthouse_ray.index import IndexReader

    idx = str(tmp_path / "index_clean")
    cfg = IndexConfig(num_doc_parts=4, num_term_shards=8)
    build_index(rd.from_arrow(gen_corpus(120)), idx, cfg)
    for sub in ("postings", "docmeta", "payload_dfsample"):
        assert not os.path.exists(os.path.join(idx, sub)), sub
    for sub in ("docstore", "payload", "segments", "doclens"):
        assert os.path.isdir(os.path.join(idx, sub)), sub
    r = IndexReader(idx)
    assert r.n_docs > 0
    assert len(r.docmeta()) == r.n_docs


def test_resume_mid_tokenize(ray_session, built, tmp_path):
    """Kill stage B partway (injected per-file fault) -> resume re-runs
    only unfinished payload files and converges to the clean build."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built
    tbl = gen_corpus(N_DOCS)
    idx5 = str(tmp_path / "index5")

    def src():
        # several blocks -> several payload files, so per-file resume has
        # granularity to exercise (file names are batch-content-addressed,
        # so the same layout yields the same names across builds)
        return rd.from_arrow(tbl).repartition(6)

    # first attempt: fail on a couple of payload files mid-stage-B
    cfg_fail = IndexConfig(**CFG.to_json())
    probe = str(tmp_path / "probe")
    build_index(src(), probe, IndexConfig(**CFG.to_json()))
    payload_files = sorted(
        f for f in os.listdir(os.path.join(probe, "payload")) if f.endswith(".parquet")
    )
    assert len(payload_files) >= 4
    cfg_fail.extra = {"fail_files": payload_files[-2:]}
    with pytest.raises(Exception):
        build_index(src(), idx5, cfg_fail)
    man = json.load(open(os.path.join(idx5, "manifest.json")))
    assert "postings" not in man["stages"]
    done_before = set()
    ppath = os.path.join(idx5, "postings_progress.jsonl")
    if os.path.exists(ppath):
        with open(ppath) as fh:
            done_before = {json.loads(l)["src"] for l in fh if l.strip()}
    assert done_before  # some files completed before the injected failure

    # resume without the fault: only missing files re-run, build completes
    res5 = build_index(src(), idx5, IndexConfig(**CFG.to_json()), resume=True)
    a = res.manifest["stages"]["segments"]["shards"]
    b = res5.manifest["stages"]["segments"]["shards"]
    assert set(a) == set(b)
    for k in a:
        assert a[k]["sha256"] == b[k]["sha256"], f"shard {k} differs after resume"


def test_resume_after_ordmap_compact_crash(ray_session, built, tmp_path):
    """Crash between the ordmap-compact stage and the rest of the build
    — including the case where the compact STAGE RECORD is lost but its
    spill dirs are already consumed: the re-run compact must be a no-op
    (sidecars are complete by construction) and the resumed build must
    converge to the clean build's segments byte-for-byte."""
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, res = built
    cfg = IndexConfig(**CFG.to_json())
    cfg.cleanup_spills = False  # keep ordmap/ around to simulate from
    idx6 = str(tmp_path / "index6")
    build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx6, cfg)
    mpath = os.path.join(idx6, "manifest.json")
    man = json.load(open(mpath))
    # simulate: crash right after compact finished (spills consumed)
    # with the manifest write lost — downstream stages also unrecorded
    for st in ("ordmap_compact", "hot_terms", "postings", "segments"):
        del man["stages"][st]
    json.dump(man, open(mpath, "w"))
    for sub in ("postings", "segments", "doclens"):
        shutil.rmtree(os.path.join(idx6, sub), ignore_errors=True)
    spill_root = os.path.join(idx6, "ordmap_spill")
    assert not (
        os.path.isdir(spill_root)
        and any(d.startswith("grp=") for d in os.listdir(spill_root))
    )  # spills consumed by the first compact
    res6 = build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx6, cfg, resume=True)
    man6 = res6.manifest
    assert man6["stages"]["ordmap_compact"]["sidecars"] == 0  # no-op re-run
    # segments identical to the clean build
    want = res.manifest["stages"]["segments"]["shards"]
    got = man6["stages"]["segments"]["shards"]
    assert {k: v["sha256"] for k, v in want.items()} == {
        k: v["sha256"] for k, v in got.items()
    }


def test_resume_refuses_layout_mismatch(ray_session, built, tmp_path):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx, _res = built
    idx7 = str(tmp_path / "index7")
    shutil.copytree(idx, idx7)
    other = IndexConfig(**{**CFG.to_json(), "num_term_shards": CFG.num_term_shards * 2})
    with pytest.raises(ValueError, match="resume config mismatch"):
        build_index(rd.from_arrow(gen_corpus(N_DOCS)), idx7, other, resume=True)


def test_dictionary_sidecar_parity(built):
    """dict/ sidecar == de-salted distinct terms scanned from segments
    (``tests/oracle.py::segment_dictionary``), per field, byte-for-byte."""
    from lighthouse_ray.config import FIELDS
    from lighthouse_ray.index import IndexReader

    idx, _ = built
    assert os.path.isdir(os.path.join(idx, "dict")), "sidecar missing"
    reader = IndexReader(idx)
    for f in FIELDS:
        a = reader.field_dictionary(f)
        assert list(a) == list(segment_dictionary(idx, f)), f"field {f} diverges"
        # sorted + unique invariants callers rely on (searchsorted)
        assert all(a[i] < a[i + 1] for i in range(len(a) - 1))
