"""Incremental sync: watermark checkpoint, delta upsert/delete/shadow,
compaction == full rebuild (bit-identical segments)."""

import os

import pyarrow as pa
import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus
from lighthouse_ray.state import IncrementalIndex, SyncState

from .oracle import exhaustive_topk

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)


def test_sync_state_lifecycle(tmp_path):
    p = str(tmp_path / "sync_state.json")
    s = SyncState.load(p)
    assert not s.needs_resume
    s.begin(now=1000)
    s.checkpoint(last_id=500)
    # crash here -> reload resumes mid-run with the cursor intact
    s2 = SyncState.load(p)
    assert s2.needs_resume and s2.last_id == 500 and s2.start_sync_time == 1000
    s2.complete()
    s3 = SyncState.load(p)
    assert not s3.needs_resume
    assert s3.last_sync_time == 1000 and s3.last_id == 0


@pytest.fixture(scope="module")
def inc(ray_session, tmp_path_factory):
    import ray.data as rd

    root = str(tmp_path_factory.mktemp("inc") / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(200)), CFG)
    return ii


def _delta_rows():
    # one brand-new doc + one upsert of an existing (repo,path)
    base = gen_corpus(200).to_pylist()
    upsert = dict(base[5])
    upsert["commit"] = "f" * 40  # newer commit, lexicographically last
    upsert["content"] = "totally rewritten contents with zebrastripe token"
    new = {
        "repo": "org9/new",
        "path": "src/new/xenofile.py",
        "commit": "a" * 40,
        "lang": "python",
        "content": "def xenofile_marker(): return 'zebrastripe'",
    }
    return base[5], upsert, new


def test_delta_upsert_and_delete(inc, ray_session):
    import ray.data as rd

    old5, upsert, new = _delta_rows()
    delta = pa.table(
        {k: pa.array([upsert[k], new[k]], type=pa.string()) for k in ("repo", "path", "commit", "lang", "content")}
    )
    victim = gen_corpus(200).to_pylist()[30]
    inc.apply_delta(rd.from_arrow(delta), tombstone_keys=[(victim["repo"], victim["path"])])

    hits = inc.search_topk("content", ["zebrastripe"], k=10)
    assert len(hits) == 2  # the upserted doc and the new doc
    assert set(hits["path"]) == {upsert["path"], new["path"]}

    live = inc.live_rows()
    keys = set(zip(live["repo"], live["path"]))
    assert (victim["repo"], victim["path"]) not in keys       # deleted
    assert (new["repo"], new["path"]) in keys                 # inserted
    # upserted key appears exactly once, from the delta segment
    matches = live[(live["repo"] == upsert["repo"]) & (live["path"] == upsert["path"])]
    assert len(matches) == 1
    assert "delta" in matches["__segment__"].iloc[0]


def test_tombstone_resurrection(inc, ray_session):
    import ray.data as rd

    _old5, _upsert, new = _delta_rows()
    # delete the new doc, then re-insert it in a later delta
    inc.apply_delta(None, tombstone_keys=[(new["repo"], new["path"])])
    live = inc.live_rows()
    assert (new["repo"], new["path"]) not in set(zip(live["repo"], live["path"]))
    reborn = dict(new, commit="b" * 40, content="reborn zebrastripe doc")
    inc.apply_delta(
        rd.from_arrow(pa.table({k: pa.array([reborn[k]], type=pa.string()) for k in reborn}))
    )
    live2 = inc.live_rows()
    assert (new["repo"], new["path"]) in set(zip(live2["repo"], live2["path"]))


def test_compaction_equals_full_rebuild(inc, ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    # the logical row set after all deltas/tombstones, built from scratch
    old5, upsert, new = _delta_rows()
    victim = gen_corpus(200).to_pylist()[30]
    rows = [r for r in gen_corpus(200).to_pylist()
            if (r["repo"], r["path"]) != (victim["repo"], victim["path"])]
    reborn = dict(new, commit="b" * 40, content="reborn zebrastripe doc")
    rows += [upsert, reborn]
    full_dir = str(tmp_path_factory.mktemp("full") / "index")
    res_full = build_index(
        rd.from_arrow(pa.table({k: pa.array([r[k] for r in rows], type=pa.string())
                                for k in ("repo", "path", "commit", "lang", "content")})),
        full_dir, CFG,
    )

    compact_root = str(tmp_path_factory.mktemp("compact") / "root")
    compacted = inc.compact(compact_root, CFG)
    import json

    man_c = json.load(open(os.path.join(compact_root, "base", "manifest.json")))
    a = man_c["stages"]["segments"]["shards"]
    b = res_full.manifest["stages"]["segments"]["shards"]
    assert set(a) == set(b)
    for kk in b:
        assert a[kk]["sha256"] == b[kk]["sha256"], f"shard {kk} differs"


def test_multi_delta_shadowing_and_resurrect(ray_session, tmp_path):
    """N-delta semantics end-to-end: upsert in delta 1, tombstone in
    delta 2, re-insert in delta 3 — the key resurrects from the newest
    delta only; search and live_rows agree at every step."""
    import ray.data as rd

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(120)), CFG)

    key = gen_corpus(120).to_pylist()[7]

    def live_commit(start: str) -> str:
        """A commit whose synthetic bid_state survives delete-routing
        (build/docs.py routes h64 % 20 in {18,19} to delete)."""
        import hashlib

        kb = f"{key['repo']}\0{key['path']}".encode()
        for c in start + "0123456789abcdef":
            doc_id = hashlib.sha1(kb + b"\0" + (c * 40).encode()).hexdigest()
            if int(doc_id[:16], 16) % 20 < 18:
                return c * 40
        raise AssertionError("no live commit found")

    def row(commit: str, content: str) -> pa.Table:
        r = dict(key)
        r["commit"] = commit
        r["content"] = content
        return pa.table({k: pa.array([r[k]], type=pa.string())
                         for k in ("repo", "path", "commit", "lang", "content")})

    # delta 1: upsert v1
    ii.apply_delta(rd.from_arrow(row(live_commit("b"), "quaggamarker version one")))
    hits = ii.search_topk("content", ["quaggamarker"], k=5)
    assert len(hits) == 1 and hits["path"].iloc[0] == key["path"]

    # delta 2: tombstone the key (no rows)
    ii.apply_delta(None, tombstone_keys=[(key["repo"], key["path"])])
    assert len(ii.search_topk("content", ["quaggamarker"], k=5)) == 0
    live = ii.live_rows()
    assert (key["repo"], key["path"]) not in set(zip(live["repo"], live["path"]))

    # delta 3: re-insert v2 — resurrects from the NEWEST segment only
    # (the tombstone-only delta above created no segment dir, so this is
    # segment 2 == dir delta-0001)
    ii.apply_delta(rd.from_arrow(row(live_commit("c"), "quaggamarker version two rides again")))
    hits = ii.search_topk("content", ["quaggamarker"], k=5)
    assert len(hits) == 1 and hits["segment"].iloc[0] == 2
    live = ii.live_rows()
    m = live[(live["repo"] == key["repo"]) & (live["path"] == key["path"])]
    assert len(m) == 1 and m["__segment__"].iloc[0].endswith("delta-0001")

    # compaction folds 3 deltas + tombstone into one canonical index
    out = ii.compact(str(tmp_path / "compacted"))
    chits = out.search_topk("content", ["quaggamarker"], k=5)
    assert len(chits) == 1 and chits["path"].iloc[0] == key["path"]
    assert len(out.live_rows()) == len(live)


def test_delete_only_delta_builds_empty_index(ray_session, tmp_path):
    """A delta batch whose every row is delete-routed (bid_state
    Spent/Expired) builds a valid EMPTY delta index instead of
    crashing — a normal sync batch shape (reference chainquery.go:
    127-132 routes those rows to the delete sink)."""
    import hashlib

    import ray.data as rd

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(60)), CFG)

    key = gen_corpus(60).to_pylist()[3]
    kb = f"{key['repo']}\0{key['path']}".encode()
    dead = next(
        c * 40 for c in "0123456789abcdef"
        if int(hashlib.sha1(kb + b"\0" + (c * 40).encode()).hexdigest()[:16], 16) % 20 >= 18
    )
    r = dict(key)
    r["commit"] = dead
    r["content"] = "spent row never indexed"
    t = pa.table({k: pa.array([r[k]], type=pa.string())
                  for k in ("repo", "path", "commit", "lang", "content")})
    ii.apply_delta(rd.from_arrow(t))
    # empty delta participates in reads without breaking anything
    assert len(ii.search_topk("content", ["spent"], k=5)) == 0
    assert len(ii.readers()) == 2
    assert ii.readers()[1].n_docs == 0


def test_search_after_pages_over_delta_chain(ray_session, tmp_path_factory):
    """Walking keyset pages across base+delta segments reproduces the
    exhaustive merged live ranking — no gaps, no shadowed docs."""
    import ray.data as rd

    root = str(tmp_path_factory.mktemp("incpage") / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(150)), CFG)
    old5, upsert, new = _delta_rows()
    delta = pa.table(
        {k: pa.array([upsert[k], new[k]], type=pa.string())
         for k in ("repo", "path", "commit", "lang", "content")}
    )
    victim = dict(gen_corpus(150).slice(7, 1).to_pylist()[0])
    ii.apply_delta(rd.from_arrow(delta),
                   tombstone_keys=[(victim["repo"], victim["path"])])

    terms = ["merge", "sorted", "import"]
    # exhaustive reference: per-segment full scoring under live masks,
    # global (score desc, doc_id asc) order
    want = []
    for rdr, mask in zip(ii.readers(), ii.live_map()):
        hits = exhaustive_topk(rdr, "content", terms, k=rdr.n_docs)
        ids = rdr.docmeta()["doc_id"].to_numpy()
        want.extend((ids[d], s) for d, s in hits if mask[d])
    want.sort(key=lambda x: (-x[1], x[0]))

    got, cur = [], None
    while True:
        page, cur = ii.search_after("content", terms, size=7, after=cur)
        if page.empty:
            break
        got.extend(page.itertuples(index=False, name=None))
    assert [d for d, _ in got] == [d for d, _ in want]
    import numpy as np
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)
    # the tombstoned victim never appears
    victim_ids = {d for d, _ in got if isinstance(d, str) and victim["path"] in d}
    meta_victims = [
        ids for rdr, mask in zip(ii.readers(), ii.live_map())
        for ids in rdr.docmeta().loc[~np.asarray(mask), "doc_id"].tolist()
    ]
    assert not victim_ids.intersection(meta_victims)


def test_apply_delta_keeps_open_readers(ray_session, tmp_path):
    """A sync tick appends the new delta's reader and keeps the open
    ones; a tombstone-only change keeps them all.  Reads equal those of
    a freshly opened index over the same root."""
    import ray.data as rd

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(150)), CFG)
    terms = ["merge", "sorted", "import"]
    ii.search_topk("content", terms, k=5)
    base = ii.readers()[0]
    _old5, upsert, new = _delta_rows()
    ii.apply_delta(rd.from_arrow(pa.table(
        {k: pa.array([upsert[k], new[k]], type=pa.string())
         for k in ("repo", "path", "commit", "lang", "content")})))
    assert ii.readers()[0] is base and len(ii.readers()) == 2
    victim = gen_corpus(150).slice(9, 1).to_pylist()[0]
    ii.apply_delta(None, tombstone_keys=[(victim["repo"], victim["path"])])
    ii.apply_blocklist(channels=[gen_corpus(150).slice(3, 1).to_pylist()[0]["repo"]])
    assert ii.readers()[0] is base and len(ii.readers()) == 2

    fresh = IncrementalIndex(root)
    for k in (3, 10, 40):
        assert ii.search_topk("content", terms, k=k).equals(
            fresh.search_topk("content", terms, k=k))
    cur_a = cur_b = None
    while True:
        a, cur_a = ii.search_after("content", terms, size=7, after=cur_a)
        b, cur_b = fresh.search_after("content", terms, size=7, after=cur_b)
        assert a.equals(b) and cur_a == cur_b
        if a.empty:
            break


def test_compaction_policy_triggers(ray_session, tmp_path_factory):
    """compact_policy (the sync daemon's policy) asks for a MAJOR
    compaction on stats drift (delta-live fraction of base) and a MINOR
    fold on a delta-count cap alone; a compacted index is within policy."""
    import ray.data as rd

    root = str(tmp_path_factory.mktemp("pol") / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(100)), CFG)

    kind, why = ii.compact_policy()
    assert kind is None and "within policy" in why

    def _delta(i, n_rows):
        rows = {
            "repo": [f"polrepo{i}"] * n_rows,
            "path": [f"p{i}_{j}.py" for j in range(n_rows)],
            "commit": ["b" * 40] * n_rows,
            "lang": ["py"] * n_rows,
            "content": [f"fresh content {i} {j} merge sorted" for j in range(n_rows)],
        }
        return pa.table({k: pa.array(v, type=pa.string()) for k, v in rows.items()})

    # fraction trigger: one delta with >10% of base live docs
    ii.apply_delta(rd.from_arrow(_delta(0, 15)))
    kind, why = ii.compact_policy()
    assert kind == "major" and "stats drift" in why
    # but not with a permissive fraction
    kind2, _ = ii.compact_policy(max_delta_frac=0.5)
    assert kind2 is None

    # count trigger with a low cap: the chain alone needs only a minor fold
    ii.apply_delta(rd.from_arrow(_delta(1, 2)))
    kind3, why3 = ii.compact_policy(max_deltas=2, max_delta_frac=0.99)
    assert kind3 == "minor" and "delta count" in why3

    # the compacted index passes the policy again (some synthetic rows
    # get delete-routed by bid_state, so count the actual delta-live
    # docs rather than the rows submitted)
    delta_live = sum(int(m.sum()) for m in ii.live_map()[1:])
    out = ii.compact(str(tmp_path_factory.mktemp("pol") / "compacted"), CFG)
    kind4, _ = out.compact_policy()
    assert kind4 is None
    # compacted index serves exactly the delta-live docs
    hits = out.search_topk("content", ["fresh"], k=30)
    assert len(hits) == delta_live > 0


def _live_commit(repo, path, salt=0):
    """A commit id whose synthesized bid_state is NOT delete-routed
    (build/docs.py routes h64 % 20 in {18, 19} as Spent/Expired)."""
    import hashlib

    for i in range(1000):
        c = f"{salt:x}{i:x}".rjust(40, "0")[:40]
        did = hashlib.sha1(f"{repo}\0{path}".encode() + b"\0" + c.encode()).hexdigest()
        if int(did[:16], 16) % 20 not in (18, 19):
            return c
    raise AssertionError("no live commit found")


def test_minor_compact_preserves_live_view(ray_session, tmp_path):
    """LSM minor compaction: the delta chain folds into one merged
    delta + base-killing tombstones; the live logical view, search
    results, resurrection semantics and a later MAJOR compaction are
    all unchanged."""
    import json as _json

    import ray.data as rd

    def corpus_tbl(rows):
        return pa.table({k: pa.array([r[k] for r in rows], type=pa.string())
                         for k in ("repo", "path", "commit", "lang", "content")})

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    base = gen_corpus(120).to_pylist()
    ii.build_base(rd.from_arrow(gen_corpus(120)), CFG)

    upsert = dict(base[3], commit=_live_commit(base[3]["repo"], base[3]["path"]),
                  content="minorc zebrastripe v2")
    newdoc = {"repo": "org9/new", "path": "src/m/minorfile.py",
              "commit": _live_commit("org9/new", "src/m/minorfile.py"),
              "lang": "python",
              "content": "def minor_marker(): return 'quixotic'"}
    ii.apply_delta(rd.from_arrow(corpus_tbl([upsert, newdoc])))
    # delta 2: delete a base doc and the new doc
    ii.apply_delta(None, tombstone_keys=[
        (base[7]["repo"], base[7]["path"]), (newdoc["repo"], newdoc["path"])])
    # delta 3: resurrect the new doc with fresh content
    reborn = dict(newdoc, commit=_live_commit(newdoc["repo"], newdoc["path"], salt=7),
                  content="reborn quixotic minor marker")
    ii.apply_delta(rd.from_arrow(corpus_tbl([reborn])))

    def snapshot(x):
        lr = x.live_rows().sort_values(["repo", "path"]).reset_index(drop=True)
        return lr[["repo", "path", "commit", "content_sha256"]]

    before_rows = snapshot(ii)
    before_hits = ii.search_topk("content", ["quixotic"], k=5)
    before_z = ii.search_topk("content", ["zebrastripe"], k=5)

    info = ii.minor_compact(CFG)
    assert len(ii.state["deltas"]) == 1
    assert info["merged_docs"] == 2  # the upsert + the reborn doc
    assert info["dropped"] == 2      # two delta dirs folded (delta 2 was tombstone-only)

    assert snapshot(ii).equals(before_rows)
    after_hits = ii.search_topk("content", ["quixotic"], k=5)
    assert after_hits["doc_id"].tolist() == before_hits["doc_id"].tolist()
    assert ii.search_topk("content", ["zebrastripe"], k=5)["doc_id"].tolist() \
        == before_z["doc_id"].tolist()

    # resurrection still works after the fold (seg > after_delta)
    again = dict(base[7], commit=_live_commit(base[7]["repo"], base[7]["path"], salt=3),
                 content="resurrected after minor fold")
    ii.apply_delta(rd.from_arrow(corpus_tbl([again])))
    lr = ii.live_rows()
    assert ((lr["repo"] == base[7]["repo"]) & (lr["path"] == base[7]["path"])).sum() == 1

    # a later MAJOR compaction over the minor-compacted chain carries
    # exactly the live logical rows
    rows_now = ii.live_rows()
    comp = ii.compact(str(tmp_path / "major"), CFG)
    assert comp is not None
    man = _json.load(open(os.path.join(str(tmp_path / "major"), "base", "manifest.json")))
    assert len(rows_now) == sum(
        int(v) for v in man["stages"]["docstore"]["part_rows"].values())


def test_minor_compact_without_merged_delta(ray_session, tmp_path):
    """Tombstone-only chain: the fold produces NO merged delta; the
    tombstones carry after_delta=0 so the very next delta (seg 1) can
    still resurrect the key."""
    import ray.data as rd

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    base = gen_corpus(60).to_pylist()
    ii.build_base(rd.from_arrow(gen_corpus(60)), CFG)
    ii.apply_delta(None, tombstone_keys=[(base[7]["repo"], base[7]["path"])])
    info = ii.minor_compact(CFG)
    assert ii.state["deltas"] == [] and info["merged_docs"] == 0
    assert all(t["after_delta"] == 0 for t in ii.state["tombstones"])
    again = dict(base[7], commit=_live_commit(base[7]["repo"], base[7]["path"], salt=5),
                 content="back again after fold")
    ii.apply_delta(rd.from_arrow(pa.table(
        {k: pa.array([again[k]], type=pa.string())
         for k in ("repo", "path", "commit", "lang", "content")})))
    lr = ii.live_rows()
    assert ((lr["repo"] == base[7]["repo"]) & (lr["path"] == base[7]["path"])).sum() == 1


def test_repeated_minor_folds_monotone_dirs(ray_session, tmp_path):
    """ADVICE r4 (high): minor-generation must be MONOTONE, not derived
    from the current chain.  Three folds with fresh deltas between them:
    the old code computed gen=1 for every fold after the first (a folded
    chain holds <=1 minor entry), so fold 3 built into deltas/minor-0001
    — the LIVE merged delta — rmtree'ing its subdirs mid-read and
    corrupting the index.  Assert distinct dirs, live view preserved."""
    import ray.data as rd

    def corpus_tbl(rows):
        return pa.table({k: pa.array([r[k] for r in rows], type=pa.string())
                         for k in ("repo", "path", "commit", "lang", "content")})

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    base = gen_corpus(60).to_pylist()
    ii.build_base(rd.from_arrow(gen_corpus(60)), CFG)

    minor_dirs = []
    for fold in range(3):
        doc = {"repo": "orgF/fold", "path": f"src/f/fold{fold}.py",
               "commit": _live_commit("orgF/fold", f"src/f/fold{fold}.py"),
               "lang": "python",
               "content": f"def fold_marker_{fold}(): return 'foldglyph{fold}'"}
        ii.apply_delta(rd.from_arrow(corpus_tbl([doc])))
        before = ii.live_rows().sort_values(["repo", "path"]).reset_index(drop=True)
        ii.minor_compact(CFG, drop_old=True)
        after = ii.live_rows().sort_values(["repo", "path"]).reset_index(drop=True)
        assert after[["repo", "path", "commit"]].equals(before[["repo", "path", "commit"]])
        assert len(ii.state["deltas"]) == 1
        minor_dirs.append(ii.state["deltas"][0])
        # every fold's query path still works on genuinely-decoded postings
        hits = ii.search_topk("content", [f"foldglyph{fold}"], k=5)
        assert len(hits) == 1

    assert minor_dirs == ["deltas/minor-0000", "deltas/minor-0001", "deltas/minor-0002"]
    assert len(set(minor_dirs)) == 3


def test_delta_names_not_reused_after_fold(ray_session, tmp_path):
    """ADVICE r4 (medium): after a drop_old=False fold, the next
    apply_delta must NOT reuse a folded-away dir name (those dirs are
    contractually left on disk for pinned in-flight readers)."""
    import ray.data as rd

    def corpus_tbl(rows):
        return pa.table({k: pa.array([r[k] for r in rows], type=pa.string())
                         for k in ("repo", "path", "commit", "lang", "content")})

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    ii.build_base(rd.from_arrow(gen_corpus(60)), CFG)
    docs = []
    for i in range(2):
        d = {"repo": "orgR/reuse", "path": f"src/r/r{i}.py",
             "commit": _live_commit("orgR/reuse", f"src/r/r{i}.py"),
             "lang": "python", "content": f"def r{i}(): return 'reuseglyph{i}'"}
        docs.append(d)
        ii.apply_delta(rd.from_arrow(corpus_tbl([d])))
    old_dirs = list(ii.state["deltas"])
    assert old_dirs == ["deltas/delta-0000", "deltas/delta-0001"]
    import json as _json
    old_manifests = {
        d: _json.load(open(os.path.join(root, d, "manifest.json")))
        for d in old_dirs
    }
    ii.minor_compact(CFG, drop_old=False)  # old dirs stay for pinned readers
    d3 = {"repo": "orgR/reuse", "path": "src/r/r2.py",
          "commit": _live_commit("orgR/reuse", "src/r/r2.py"),
          "lang": "python", "content": "def r2(): return 'reuseglyph2'"}
    ii.apply_delta(rd.from_arrow(corpus_tbl([d3])))
    new_dir = ii.state["deltas"][-1]
    assert new_dir not in old_dirs          # monotone: delta-0002, not delta-0001
    assert new_dir == "deltas/delta-0002"
    # the folded-away dirs are byte-untouched (pinned readers keep working)
    for d, man in old_manifests.items():
        assert _json.load(open(os.path.join(root, d, "manifest.json"))) == man
        from lighthouse_ray.index import IndexReader
        r = IndexReader(os.path.join(root, d))
        assert len(r.docmeta()) >= 1


def test_sync_json_without_counters_is_refused(tmp_path):
    """The delta/minor dir-name counters are written when the state is
    created and carried through every fold; a sync.json without one is
    refused at open, naming the missing key."""
    import json as _json

    root = tmp_path / "root"
    root.mkdir()
    state = {"deltas": [], "tombstones": []}
    (root / "sync.json").write_text(_json.dumps(state))
    with pytest.raises(ValueError, match="next_delta"):
        IncrementalIndex(str(root), CFG)
    (root / "sync.json").write_text(_json.dumps({**state, "next_delta": 3}))
    with pytest.raises(ValueError, match="next_minor"):
        IncrementalIndex(str(root), CFG)
    (root / "sync.json").write_text(_json.dumps({**state, "next_delta": 3, "next_minor": 1}))
    assert IncrementalIndex(str(root), CFG).state["next_delta"] == 3


def test_minor_compact_pins_bm25_params(ray_session, tmp_path):
    """ADVICE r4 (low): the merged delta's BM25 params must follow the
    BASE config even when the caller passes a divergent delta cfg (same
    contract apply_delta already honors)."""
    import json as _json
    from dataclasses import replace

    import ray.data as rd

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    base = gen_corpus(40).to_pylist()
    ii.build_base(rd.from_arrow(gen_corpus(40)), CFG)
    doc = {"repo": "orgP/pin", "path": "src/p/pin.py",
           "commit": _live_commit("orgP/pin", "src/p/pin.py"),
           "lang": "python", "content": "def pin(): return 'pinglyph'"}
    ii.apply_delta(rd.from_arrow(pa.table(
        {k: pa.array([doc[k]], type=pa.string())
         for k in ("repo", "path", "commit", "lang", "content")})))
    weird = replace(CFG, k1=9.9, b=0.01)
    ii.minor_compact(weird)
    man = _json.load(open(os.path.join(root, ii.state["deltas"][0], "manifest.json")))
    assert man["config"]["k1"] == CFG.k1 and man["config"]["b"] == CFG.b


def _spent_commit(repo, path, salt=0):
    """A commit whose synthesized bid_state routes to Spent/Expired
    (h64 % 20 in {18, 19}) — the chainquery delete-by-bid-state case."""
    import hashlib

    for i in range(30000):
        # "f"-prefixed so the commit is lexicographically NEWER than any
        # sha1 commit (LWW picks it as the winner)
        c = "f" * 32 + f"{salt:04x}{i:04x}"
        did = hashlib.sha1(f"{repo}\0{path}".encode() + b"\0" + c.encode()).hexdigest()
        if int(did[:16], 16) % 20 in (18, 19):
            return c
    raise AssertionError("no spent commit found")


def test_delete_routed_delta_tombstones_base(ray_session, tmp_path):
    """A delta whose NEWEST version of a key is delete-routed
    (Spent/Expired bid_state) must kill the base occurrence — exactly
    like a full rebuild over the same logical rows.  Before r5 the
    routed winner was silently dropped from the delta and the STALE
    base doc stayed live (full-vs-incremental divergence found by the
    lifecycle bench)."""
    import ray.data as rd

    def corpus_tbl(rows):
        return pa.table({k: pa.array([r[k] for r in rows], type=pa.string())
                         for k in ("repo", "path", "commit", "lang", "content")})

    root = str(tmp_path / "root")
    ii = IncrementalIndex(root, CFG)
    base = gen_corpus(80).to_pylist()
    ii.build_base(rd.from_arrow(gen_corpus(80)), CFG)
    live0 = ii.live_rows()
    victim = None
    for r in base:
        if ((live0["repo"] == r["repo"]) & (live0["path"] == r["path"])).any():
            victim = r
            break
    assert victim is not None
    spent = _spent_commit(victim["repo"], victim["path"])
    assert spent > victim["commit"]  # LWW picks the spent version
    row = dict(victim, commit=spent, content="spent version, should die")
    ii.apply_delta(rd.from_arrow(corpus_tbl([row])))
    lr = ii.live_rows()
    assert not ((lr["repo"] == victim["repo"]) & (lr["path"] == victim["path"])).any()
    # resurrection by a later live version still works (seg > after_delta)
    again = dict(victim, commit=_live_commit(victim["repo"], victim["path"], salt=9),
                 content="alive again after spent")
    ii.apply_delta(rd.from_arrow(corpus_tbl([again])))
    lr2 = ii.live_rows()
    assert ((lr2["repo"] == victim["repo"]) & (lr2["path"] == victim["path"])).sum() == 1
