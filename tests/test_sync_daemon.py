"""Cron sync daemon soak (VERDICT r3 item 6): N sync cycles over an
evolving source table with a mid-cycle kill + fresh-process resume, a
policy-fired compaction swap, and a final compacted index that is
byte-identical to a clean build over the same logical rows."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lighthouse_ray.build import build_index
from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus
from lighthouse_ray.state import SyncDaemon, SyncKilled

CFG = IndexConfig(num_doc_parts=4, num_term_shards=8, salt_range=64, df_sample_mod=10)


def _source_rows():
    """An append-only versioned 'chainquery' table: base rows at t=1000,
    then a second wave at t=2000 (one upsert, one delete, two new docs),
    then a third wave at t=3000 (another upsert of the same key)."""
    raw = gen_corpus(60).to_pylist()
    # gen_corpus deliberately contains duplicate (repo, path) keys (the
    # in-build upsert exercise, covered by test_build); here each source
    # id must be an unambiguous version, so keep one row per key — the
    # same winner the engine's in-batch LWW would pick (max commit/sha)
    best = {}
    for r in raw:
        k = (r["repo"], r["path"])
        if k not in best or (r["commit"], r["content"]) > (best[k]["commit"], best[k]["content"]):
            best[k] = r
    base = list(best.values())
    rows = []
    for i, r in enumerate(base):
        rows.append({**r, "id": i + 1, "modified_at": 1000, "deleted": False})
    nid = len(rows)
    upsert5 = {**base[5], "commit": "f" * 40,
               "content": "totally rewritten with zebrastripe token"}
    delete9 = {**base[9]}
    new_a = {"repo": "org9/new", "path": "src/a/alphafile.py", "commit": "a" * 40,
             "lang": "python", "content": "def alpha_marker(): return 'zebrastripe'"}
    new_b = {"repo": "org9/new", "path": "src/b/betafile.py", "commit": "b" * 40,
             "lang": "python", "content": "def beta_marker(): return 'gammaglyph'"}
    wave2 = [
        {**upsert5, "id": nid + 1, "modified_at": 2000, "deleted": False},
        {**delete9, "id": nid + 2, "modified_at": 2000, "deleted": True},
        {**new_a, "id": nid + 3, "modified_at": 2000, "deleted": False},
        {**new_b, "id": nid + 4, "modified_at": 2000, "deleted": False},
    ]
    upsert5b = {**base[5], "commit": "e" * 40,
                "content": "rewritten AGAIN final zebrastripe"}
    wave3 = [{**upsert5b, "id": nid + 5, "modified_at": 3000, "deleted": False}]
    rows += wave2 + wave3
    assert nid == len(base)  # ids are 1..nid, then nid+1..nid+5
    # final live logical rows: newest non-deleted version per (repo, path)
    live = {}
    for r in sorted(rows, key=lambda r: r["id"]):
        k = (r["repo"], r["path"])
        if r["deleted"]:
            live.pop(k, None)
        else:
            live[k] = r
    return rows, list(live.values())


def _write_source(path, rows, upto_id):
    sub = [r for r in rows if r["id"] <= upto_id]
    cols = {k: [r[k] for r in sub] for k in
            ("repo", "path", "commit", "lang", "content")}
    t = pa.table(
        {**{k: pa.array(v, type=pa.string()) for k, v in cols.items()},
         "id": pa.array([r["id"] for r in sub], type=pa.int64()),
         "modified_at": pa.array([r["modified_at"] for r in sub], type=pa.int64()),
         "deleted": pa.array([r["deleted"] for r in sub], type=pa.bool_())}
    )
    pq.write_table(t, path)


def test_sync_soak_kill_resume_compact(ray_session, tmp_path):
    import ray.data as rd

    rows, live = _source_rows()
    nbase = len(rows) - 5  # waves 2+3 are the last 5 versioned rows
    src = str(tmp_path / "source.parquet")
    work = str(tmp_path / "work")

    # -- cycle 1: initial snapshot, killed mid-cycle after 1 batch ----------
    _write_source(src, rows, upto_id=nbase)
    d1 = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=25,
                    compact_max_deltas=4, compact_max_delta_frac=10.0)
    with pytest.raises(SyncKilled):
        d1.cycle(now=1500, fail_after_batches=1)
    st = json.load(open(os.path.join(work, "sync_state.json")))
    assert st["last_id"] == 25  # cursor persisted before the kill

    # -- fresh daemon (new process analog) resumes the same cycle ----------
    d2 = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=25,
                    compact_max_deltas=4, compact_max_delta_frac=10.0)
    assert d2.state.needs_resume
    r = d2.cycle(now=1600)  # now ignored on resume (start time kept)
    assert r["upserts"] == nbase - 25  # rows 26..nbase only
    assert r["batches"] == -(-(nbase - 25) // 25)
    assert not d2.state.needs_resume

    # -- cycle 2: wave 2 (upsert + delete + 2 new docs) ---------------------
    _write_source(src, rows, upto_id=nbase + 4)
    r2 = d2.cycle(now=2500)
    assert r2["upserts"] == 3 and r2["deletes"] == 1

    # -- cycle 3: wave 3; 4th delta trips the MINOR compaction policy ------
    _write_source(src, rows, upto_id=nbase + 5)
    r3 = d2.cycle(now=3500)
    assert r3["compacted"] == "minor", r3["compact_reason"]
    # the fold stays in place: no generation swap, chain length <= 1
    gens = json.load(open(os.path.join(work, "generations.json")))
    assert gens["live"] == "gen-0000" and gens["history"] == []
    assert len(d2.index.state["deltas"]) <= 1

    # -- no-change cycle is a no-op -----------------------------------------
    r4 = d2.cycle(now=4000)
    assert r4 == {**r4, "batches": 0, "upserts": 0, "deletes": 0, "compacted": False}

    # -- stats drift trips the MAJOR compaction (generation swap) ----------
    d2b = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=25,
                     compact_max_deltas=10**9, compact_max_delta_frac=1e-9)
    r5 = d2b.cycle(now=4500)
    assert r5["compacted"] == "major", r5["compact_reason"]
    gens = json.load(open(os.path.join(work, "generations.json")))
    assert gens["live"] == "gen-0001" and gens["history"] == ["gen-0000"]

    # -- a brand-new daemon resumes cleanly from disk and serves ------------
    d3 = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=25)
    hits = d3.index.search_topk("content", ["zebrastripe"], k=5)
    assert len(hits) >= 2  # the twice-upserted doc + the new alpha doc

    # -- final compacted index == clean build over the live rows -----------
    final = d3.index.compact(str(tmp_path / "final"), CFG)
    clean_dir = str(tmp_path / "clean")
    res_clean = build_index(
        rd.from_arrow(pa.table({k: pa.array([r[k] for r in live], type=pa.string())
                                for k in ("repo", "path", "commit", "lang", "content")})),
        clean_dir, CFG,
    )
    man = json.load(open(os.path.join(str(tmp_path / "final"), "base", "manifest.json")))
    a = man["stages"]["segments"]["shards"]
    b = res_clean.manifest["stages"]["segments"]["shards"]
    assert set(a) == set(b)
    for k in b:
        assert a[k]["sha256"] == b[k]["sha256"], f"shard {k} differs"
    assert final is not None


def test_blocklist_job_runs_each_tick(ray_session, tmp_path):
    """The cron tick also applies the blocklist (reference cron.go runs
    the sync and blocked jobs together): channel expansion tombstones
    every live doc of a blocked repo, idempotently across ticks."""
    rows, _ = _source_rows()
    src = str(tmp_path / "source.parquet")
    _write_source(src, rows, upto_id=len(rows))
    bl = tmp_path / "blocklist.json"
    bl.write_text(json.dumps({"channels": ["org9/new"]}))
    d = SyncDaemon(str(tmp_path / "w"), src, cfg=CFG, delta_cfg=CFG,
                   batch_size=100, blocklist_path=str(bl))
    r1 = d.cycle(now=5000)
    assert r1["blocked"] == 2  # alphafile + betafile of the blocked repo
    live = d.index.live_rows()
    assert not (live["repo"] == "org9/new").any()
    hits = d.index.search_topk("content", ["zebrastripe"], k=5)
    # the blocked repo's alpha doc no longer serves; the upserted doc does
    assert len(hits) >= 1
    r2 = d.cycle(now=6000)
    assert r2["blocked"] == 0  # idempotent: nothing live to block


def test_sync_cli_smoke(ray_session, tmp_path):
    """The CLI entrypoint wires the same loop (no sleep at interval 0)."""
    import ray

    from lighthouse_ray.__main__ import main

    rows, _live = _source_rows()
    src = str(tmp_path / "source.parquet")
    _write_source(src, rows, upto_id=len(rows))
    rc = main([
        "sync", "--source", src, "--workdir", str(tmp_path / "w"),
        "--cycles", "2", "--interval", "0", "--batch-size", "40",
        "--parts", "4", "--shards", "8",
    ])
    assert rc == 0
    gens = json.load(open(str(tmp_path / "w" / "generations.json")))
    assert gens["live"].startswith("gen-")
    # the CLI shuts down only a Ray session it started itself
    assert ray.is_initialized()


def test_readers_survive_generation_swap(ray_session, tmp_path):
    """Serving continuity: an engine opened against the OLD generation
    keeps serving after a major compaction swaps the live pointer (old
    generation dirs stay on disk — the alias-flip contract)."""
    rows, _ = _source_rows()
    src = str(tmp_path / "source.parquet")
    _write_source(src, rows, upto_id=len(rows))
    d = SyncDaemon(str(tmp_path / "w"), src, cfg=CFG, delta_cfg=CFG,
                   batch_size=40, compact_max_deltas=10**9,
                   compact_max_delta_frac=1e9)
    d.cycle(now=5000)
    old_index = d.index  # "in-flight reader" pinned to the old generation
    before = old_index.search_topk("content", ["zebrastripe"], k=5)

    d2 = SyncDaemon(str(tmp_path / "w"), src, cfg=CFG, delta_cfg=CFG,
                    batch_size=40, compact_max_deltas=10**9,
                    compact_max_delta_frac=1e-9)
    r = d2.cycle(now=6000)
    assert r["compacted"] == "major"
    # the pinned old-generation index still serves identical results
    after_old = old_index.search_topk("content", ["zebrastripe"], k=5)
    assert after_old["doc_id"].tolist() == before["doc_id"].tolist()
    # and the new generation serves the same logical answer
    after_new = d2.index.search_topk("content", ["zebrastripe"], k=5)
    assert set(after_new["doc_id"]) == set(before["doc_id"])


def test_tombstone_only_first_batch(ray_session, tmp_path):
    """ADVICE r4 (low): if the very first rows ever synced are all
    deletes (no base yet), the tick must not leave sync.json pointing at
    a missing base dir — the tombstones are no-ops (the keys were never
    indexed) and the cursor still advances; the next wave's upserts
    build the base normally and readers work."""
    rows = []
    raw = gen_corpus(30).to_pylist()
    seen = set()
    base = []
    for r in raw:
        k = (r["repo"], r["path"])
        if k not in seen:
            seen.add(k)
            base.append(r)
    # wave 1: two delete-only versions for keys that never existed
    rows.append({**base[0], "id": 1, "modified_at": 1000, "deleted": True})
    rows.append({**base[1], "id": 2, "modified_at": 1000, "deleted": True})
    # wave 2: real upserts
    for i, r in enumerate(base[:10]):
        rows.append({**r, "id": 10 + i, "modified_at": 2000, "deleted": False})

    src = str(tmp_path / "source.parquet")
    work = str(tmp_path / "work")

    _write_source(src, rows, upto_id=2)
    d = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=25)
    res1 = d.cycle(now=1500)
    assert res1["deletes"] == 0 and res1["upserts"] == 0  # skipped, no base
    st = json.load(open(os.path.join(work, "sync_state.json")))
    assert st["last_id"] == 0 and st["last_sync_time"] == 1500  # tick completed

    _write_source(src, rows, upto_id=19)
    res2 = d.cycle(now=2500)
    assert res2["upserts"] == 10
    live = d.index.live_rows()
    assert len(live) == 10
    hits = d.index.search_topk("content", ["import"], k=5)
    assert len(hits) > 0


def test_daemon_repeated_minor_folds(ray_session, tmp_path):
    """ADVICE r4 (high), daemon-level: the maintenance loop must survive
    MANY minor compactions (the pre-r5 chain-derived generation name
    corrupted the live merged delta on the 3rd fold).  Four cycles,
    each bringing a new wave and firing a minor fold (compact_max_deltas
    tiny, drift threshold huge), then full live-set + search checks."""
    rows, _ = _source_rows()
    nbase = len(rows) - 5
    src = str(tmp_path / "source.parquet")
    work = str(tmp_path / "work")

    _write_source(src, rows, upto_id=nbase)
    d = SyncDaemon(work, src, cfg=CFG, delta_cfg=CFG, batch_size=10_000,
                   compact_max_deltas=1, compact_max_delta_frac=10.0)
    d.cycle(now=10_000)  # initial snapshot -> base; watermark = 10000

    folds = 0
    for i in range(4):
        # wave i lands between the previous cycle's watermark and this
        # cycle's begin time, so each cycle pulls exactly its own wave
        extra = {"repo": "orgF/daemon", "path": f"src/f/cycle{i}.py",
                 "commit": "a" * 39 + str(i), "lang": "py",
                 "content": f"func daemonFold{i}(): return 'foldcycle{i}'"}
        rows.append({**extra, "id": nbase + 10 + i,
                     "modified_at": 10_500 + 1000 * i, "deleted": False})
        _write_source(src, rows, upto_id=nbase + 10 + i)
        r = d.cycle(now=11_000 + 1000 * i)
        assert r["upserts"] == 1
        if r["compacted"] == "minor":
            folds += 1
        # every cycle's docs are all still queryable
        for j in range(i + 1):
            hits = d.index.search_topk("content", [f"foldcycle{j}"], k=3)
            assert len(hits) == 1, (i, j)
    assert folds >= 3  # the ADVICE scenario: 3+ folds through the daemon
    # the folded index equals a clean build over the live logical rows
    live = d.index.live_rows()
    assert ((live["repo"] == "orgF/daemon")).sum() == 4
    final = d.index.compact(str(tmp_path / "final"), CFG)
    assert final is not None
