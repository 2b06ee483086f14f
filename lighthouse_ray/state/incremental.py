"""Incremental index maintenance: delta segments, tombstones, compaction.

The reference maintains its index as an incrementally-updated
materialized view: the cron sync upserts changed claims by ``_id`` and
deletes spent/expired ones (chainquery.go:76-158, claim.go:142-157);
blocklists delete more (blocked.go).  Our analog:

- ``apply_delta(rows)`` builds a **delta index** (the same full build
  pipeline, small input) under ``<root>/deltas/delta-NNNN`` and records
  it, plus explicit **tombstones** (logical keys to delete), in
  ``sync.json``.
- Reads go through :class:`IncrementalIndex`: a doc is *live* if its
  logical key's newest occurrence (later delta > earlier delta > base)
  is an upsert, and not tombstoned.  Search runs per segment and merges
  top-k with shadowing — per-segment BM25 stats, exactly like
  per-shard scoring in ES before DFS (documented approximation).
- ``compact(new_root)`` rebuilds one canonical index from the merged
  live doc set — **bit-identical to a from-scratch build over the same
  logical rows** (asserted in tests): incremental gives freshness,
  compaction restores exactness.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig
from ..index import IndexReader
from ..util import atomic_write_json, read_json, top_k


def _key(repo: str, path: str) -> str:
    return f"{repo}\0{path}"


class IncrementalIndex:
    def __init__(self, root: str, cfg: IndexConfig | None = None):
        self.root = root
        self.cfg = cfg or IndexConfig()
        self.sync_path = os.path.join(root, "sync.json")
        if os.path.exists(self.sync_path):
            self.state = read_json(self.sync_path)
            for key in ("next_delta", "next_minor"):
                if key not in self.state:
                    raise ValueError(f"{self.sync_path} lacks the {key!r} counter")
        else:
            self.state = {
                "deltas": [],
                "tombstones": [],
                # monotone dir-name counters: delta/minor dir names must
                # NEVER be derived from the current chain (after a minor
                # fold the chain shrinks and length-derived names would
                # reuse — and rmtree — folded-away dirs still on disk for
                # pinned readers, or worse, the LIVE merged delta itself)
                "next_delta": 0,
                "next_minor": 0,
            }
        self._readers: list[IndexReader] | None = None
        self._live_map: list[np.ndarray] | None = None

    def _check_build_target(self, rel: str) -> None:
        """Refuse to build into a directory the current state references
        (belt-and-braces against any future name-derivation bug: building
        rmtrees the target's subdirs, which would corrupt a live segment)."""
        if rel in self.state["deltas"]:
            raise RuntimeError(
                f"refusing to build into live delta dir {rel!r} "
                f"(referenced by current sync state)"
            )

    # -- building -----------------------------------------------------------

    def build_base(self, source, cfg: IndexConfig | None = None) -> None:
        from ..build import build_index

        if cfg is not None:
            self.cfg = cfg
        build_index(source, os.path.join(self.root, "base"), self.cfg)
        self._save()
        self._readers = None
        self._live_map = None

    def apply_delta(
        self,
        source,
        tombstone_keys: list[tuple[str, str]] | None = None,
        cfg: IndexConfig | None = None,
    ) -> str:
        """Upsert the rows of ``source`` (corpus schema) and delete the
        given logical (repo, path) keys; returns the delta dir.

        ``cfg`` overrides the partition layout for THIS delta only (delta
        batches are orders of magnitude smaller than the base — a 5k-doc
        delta at the base's 128-shard layout is all fixed cost); BM25
        parameters always follow the base config."""
        from ..build import build_index

        n = len(self.state["deltas"])  # chain position (after_delta semantics)
        seq = int(self.state["next_delta"])  # dir name: monotone, never reused
        rel = f"deltas/delta-{seq:04d}"
        delta_dir = os.path.join(self.root, rel)
        if source is not None:
            self._check_build_target(rel)
            if cfg is None:
                dcfg = self.cfg
            else:
                from dataclasses import replace

                dcfg = replace(cfg, k1=self.cfg.k1, b=self.cfg.b)
            build_index(source, delta_dir, dcfg)
            self.state["deltas"].append(rel)
            self.state["next_delta"] = seq + 1
            # delete-routed winners (Spent/Expired newest version, the
            # chainquery bid_state delete): the build dropped them from
            # the delta — tombstone the key so the base occurrence dies
            # too, exactly like a full rebuild over the same rows
            # (deleted_keys/ sidecar written by make_finalize_part)
            dk_dir = os.path.join(delta_dir, "deleted_keys")
            if os.path.isdir(dk_dir):
                import pyarrow.dataset as _pads

                dk = _pads.dataset(dk_dir).to_table(columns=["repo", "path"])
                for repo, path in zip(dk["repo"].to_pylist(),
                                      dk["path"].to_pylist()):
                    self.state["tombstones"].append(
                        {"repo": repo, "path": path, "after_delta": n})
        for repo, path in tombstone_keys or []:
            self.state["tombstones"].append({"repo": repo, "path": path, "after_delta": n})
        self._save()
        # segment dirs are never rebuilt in place: the open readers stay
        # valid, and only the new delta needs opening
        if source is not None and self._readers is not None:
            self._readers.append(IndexReader(delta_dir))
        self._live_map = None
        return delta_dir

    def _save(self) -> None:
        atomic_write_json(self.sync_path, self.state)

    # -- reading ------------------------------------------------------------

    def readers(self) -> list[IndexReader]:
        """Base first, then deltas in application order."""
        if self._readers is None:
            dirs = [os.path.join(self.root, "base")] + [
                os.path.join(self.root, d) for d in self.state["deltas"]
            ]
            self._readers = [IndexReader(d) for d in dirs]
        return self._readers

    def live_map(self) -> list[np.ndarray]:
        """Per-segment boolean mask of live ordinals, applying
        last-write-wins shadowing across segments and tombstones.

        Vectorized (pandas drop_duplicates over the concatenated key
        table, newest segment first) — the per-doc Python loop this
        replaces cost seconds per million docs per segment and sat on
        the query path of every delta-aware read.

        Cached per sync state: the map only changes when a delta or
        tombstone is applied (every mutator resets ``_live_map``), so
        serving pays the concat-and-dedup once per sync, not per query.
        The open readers (and their docmeta) survive appends and
        tombstones; only ``build_base`` and the compactions reopen them."""
        if self._live_map is not None:
            return self._live_map
        readers = self.readers()
        tomb: dict[str, int] = {}
        for t in self.state["tombstones"]:
            k = _key(t["repo"], t["path"])
            tomb[k] = max(tomb.get(k, -1), t["after_delta"])
        # newest segment wins: concat keys newest-first, first occurrence
        # of a key is the winner (stable within a segment: ordinal order)
        frames = []
        for seg in range(len(readers) - 1, -1, -1):
            meta = readers[seg].docmeta()
            # NUL-joined key built in Arrow: pandas string concat silently
            # DROPS embedded NUL characters, so the join must not go
            # through pandas ops
            import pyarrow.compute as pc

            k = pc.binary_join_element_wise(
                pa.array(meta["repo"], type=pa.string()),
                pa.array(meta["path"], type=pa.string()),
                "\0",
            )
            frames.append(pd.DataFrame({
                "k": k.to_pandas(),
                "seg": seg,
                "ord": np.arange(len(meta), dtype=np.int64),
            }))
        win = pd.concat(frames, ignore_index=True).drop_duplicates("k", keep="first")
        if tomb:
            # a tombstone issued when n deltas existed (after_delta=n)
            # kills base (seg 0) and deltas j < n (seg j+1 <= n); a
            # later delta re-inserting the key resurrects it
            ta = win["k"].map(tomb).fillna(-1).to_numpy()
            win = win[ta < win["seg"].to_numpy()]
        masks = [np.zeros(len(r.docmeta()), dtype=bool) for r in readers]
        for seg, g in win.groupby("seg"):
            masks[int(seg)][g["ord"].to_numpy()] = True
        self._live_map = masks
        return masks

    def live_rows(self) -> pd.DataFrame:
        """Merged live doc metadata (for compaction and tests)."""
        out = []
        for rdr, mask in zip(self.readers(), self.live_map()):
            meta = rdr.docmeta()
            sub = meta[mask].copy()
            sub["__segment__"] = rdr.index_dir
            out.append(sub)
        return pd.concat(out, ignore_index=True)

    def _merged_topk(self, field: str, terms: list[str], size: int, after=None):
        """(segment, ords, doc_ids, scores) of the merged live top-``size``
        right after ``after`` in (score desc, doc_id asc) order: each
        segment cuts its own live page (``topk_page`` on its doc_id
        column, shadowed docs masked), the merge cuts the union."""
        from ..query.pagination import topk_page

        parts = []
        for seg, (rdr, mask) in enumerate(zip(self.readers(), self.live_map())):
            ords, ids, scores = topk_page(
                rdr, field, terms, size, after,
                doc_ids=rdr.docmeta()["doc_id"].to_numpy(), live=mask,
            )
            parts.append((np.full(len(ords), seg), ords, ids, scores))
        seg, ords, ids, scores = (np.concatenate(c) for c in zip(*parts))
        cut = top_k(scores, ids, size)
        return seg[cut], ords[cut], ids[cut], scores[cut]

    def search_topk(self, field: str, terms: list[str], k: int = 10) -> pd.DataFrame:
        """Merged disjunctive BM25 top-k across segments with shadowing,
        in (score desc, doc_id asc) order.

        Per-segment df/avgdl stats — the documented approximation;
        compaction restores global-exact scores."""
        seg, ords, ids, scores = self._merged_topk(field, terms, k)
        readers = self.readers()
        cols = {c: np.empty(len(ords), dtype=object) for c in ("repo", "path")}
        for s in np.unique(seg):
            meta, at = readers[s].docmeta(), seg == s
            for c, out in cols.items():
                out[at] = meta[c].to_numpy()[ords[at]]
        return pd.DataFrame(
            {"doc_id": ids, **cols, "score": scores, "segment": seg}
        )

    def search_after(self, field: str, terms: list[str], size: int = 10,
                     after=None):
        """Keyset pagination across live segments: the merged live page
        strictly after ``after`` in (score desc, doc_id asc) order.  The
        cursor is a pure (score, doc_id) sort key, so it stays valid
        across delta appends that do not shadow already-returned docs —
        exactly the search_after contract.

        Returns ``(DataFrame[doc_id, score], next_cursor)``."""
        from ..query.pagination import PageCursor

        _seg, _ords, ids, scores = self._merged_topk(field, terms, size, after)
        df = pd.DataFrame({"doc_id": ids, "score": scores})
        cursor = PageCursor(float(scores[-1]), ids[-1]) if len(ids) else None
        return df, cursor

    # -- blocklists (J4, app/jobs/blocked/blocked.go) ------------------------

    def apply_blocklist(
        self,
        claim_ids: list[str] | None = None,
        channels: list[str] | None = None,
    ) -> int:
        """Blocklist deletion: doc-level ids, plus *channel expansion* —
        every live doc of a blocked channel/repo is tombstoned
        (blocked.go:96-141 point deletes; 154-171 publisher expansion).
        Implemented as an anti-join against the broadcast blocked sets.
        Returns the number of tombstones written."""
        live = self.live_rows()
        hit = live["doc_id"].isin(set(claim_ids or [])) | live["repo"].isin(
            set(channels or [])
        )
        sub = live[hit]
        nd = len(self.state["deltas"])
        self.state["tombstones"].extend(
            {"repo": r, "path": p, "after_delta": nd}
            for r, p in zip(sub["repo"], sub["path"])
        )
        self._save()
        self._live_map = None
        return int(hit.sum())

    # -- compaction ---------------------------------------------------------

    # the measured policy (BASELINE.md "Delta/compaction policy at 878k
    # live docs"): query p50 is FLAT through 8 sync-sized deltas, so the
    # triggers are (a) a delta-count cap at 2x the measured-flat range
    # and (b) cumulative delta live docs vs the base — the point where
    # per-segment df/avgdl drift (the documented scoring approximation)
    # becomes user-visible; compaction restores global-exact scores.
    COMPACT_MAX_DELTAS = 16
    COMPACT_MAX_DELTA_FRAC = 0.10

    def compact_policy(
        self,
        max_deltas: int | None = None,
        max_delta_frac: float | None = None,
    ) -> tuple[str | None, str]:
        """Two-tier policy: returns (None | 'minor' | 'major', reason).
        Stats drift (delta live docs vs base — the per-segment df/avgdl
        approximation becoming user-visible) needs a MAJOR compaction;
        a long delta chain alone only needs the delta-chain-sized MINOR
        fold."""
        max_deltas = self.COMPACT_MAX_DELTAS if max_deltas is None else max_deltas
        max_delta_frac = (
            self.COMPACT_MAX_DELTA_FRAC if max_delta_frac is None else max_delta_frac
        )
        masks = self.live_map()
        n_deltas = len(masks) - 1
        base_live = int(masks[0].sum()) if masks else 0
        delta_live = sum(int(m.sum()) for m in masks[1:])
        if base_live and delta_live > max_delta_frac * base_live:
            return "major", (
                f"delta live docs {delta_live} > {max_delta_frac:.0%} of base "
                f"{base_live} (stats drift)"
            )
        if n_deltas >= max_deltas:
            return "minor", f"delta count {n_deltas} >= cap {max_deltas}"
        return None, f"{n_deltas} deltas / {delta_live} delta-live docs within policy"

    def _live_meta(self, segments: slice = slice(None)) -> pd.DataFrame:
        """Live doc metadata + payload pointers for the given segment
        range (driver-side, metadata-sized)."""
        rows = []
        for rdr, mask in list(zip(self.readers(), self.live_map()))[segments]:
            meta = rdr.docmeta()
            sub = meta.loc[
                mask, ["repo", "path", "commit", "lang", "payload_file", "payload_row"]
            ].copy()
            sub["payload_dir"] = os.path.join(rdr.index_dir, "payload")
            rows.append(sub)
        if not rows:
            return pd.DataFrame(columns=["repo", "path", "commit", "lang",
                                         "payload_file", "payload_row", "payload_dir"])
        return pd.concat(rows, ignore_index=True).sort_values(
            ["payload_dir", "payload_file", "payload_row"], kind="stable"
        )

    def minor_compact(self, cfg: IndexConfig | None = None,
                      drop_old: bool = False) -> dict:
        """LSM-style minor compaction: fold the whole delta CHAIN into
        ONE merged delta without touching the base — the maintenance
        move a 100 TB index actually performs between full (major)
        compactions, whose cost is delta-chain-sized, not corpus-sized.

        Semantics-preserving by construction:
        - the merged delta holds exactly the delta-chain winners that
          are live now (they shadow base occurrences naturally);
        - keys whose base occurrence is dead and NOT shadowed by a live
          delta winner get one tombstone (``after_delta: 1`` — kills
          the base, cannot touch the merged delta which lacks them);
        - dead keys that never existed in base simply vanish with the
          chain.

        ``live_rows()`` (and therefore every query and a later major
        compaction) is IDENTICAL before and after — asserted in tests.
        Old delta dirs are left on disk for in-flight readers unless
        ``drop_old``; returns {"merged_docs", "tombstones", "dropped"}.
        """
        import shutil

        import ray.data as rd

        readers = self.readers()
        masks = self.live_map()
        old_deltas = list(self.state["deltas"])
        # live delta winners -> the merged delta's rows
        live_delta = self._live_meta(slice(1, None))
        # base keys dead AND not shadowed by a live delta winner
        base_meta = readers[0].docmeta()
        dead_mask = ~masks[0]
        live_keys = set(zip(live_delta["repo"], live_delta["path"]))
        dead_keys = []
        for r, p_ in zip(base_meta["repo"].to_numpy()[dead_mask],
                         base_meta["path"].to_numpy()[dead_mask]):
            if (r, p_) not in live_keys:
                dead_keys.append((str(r), str(p_)))
        dead_keys = list(dict.fromkeys(dead_keys))  # dedup, order-stable

        # monotone minor generation (persisted counter / disk-scan fallback):
        # counting minors in the CURRENT chain is wrong — after a fold the
        # chain holds <=1 minor, so the 3rd fold would recompute gen=1 and
        # build into deltas/minor-0001, the LIVE merged delta it is reading
        # payload from (build rmtrees the target's subdirs mid-read)
        gen = int(self.state["next_minor"])
        new_deltas: list[str] = []
        if len(live_delta):
            name = f"deltas/minor-{gen:04d}"
            self._check_build_target(name)
            src = rd.from_arrow(pa.Table.from_pandas(live_delta, preserve_index=False))
            from ..build import build_index

            if cfg is None:
                mcfg = self.cfg
            else:
                # BM25 parameters always follow the base config (same
                # contract as apply_delta): a delta_cfg with different
                # k1/b must not silently rescore already-applied deltas
                from dataclasses import replace

                mcfg = replace(cfg, k1=self.cfg.k1, b=self.cfg.b)
            build_index(self._fetch_content(src),
                        os.path.join(self.root, name), mcfg)
            new_deltas = [name]
        # after_delta == the new chain length: kills base (and the
        # merged delta, which by construction lacks these keys) while a
        # FUTURE delta (seg > len) can still resurrect the key
        tombs = [{"repo": r, "path": p_, "after_delta": len(new_deltas)}
                 for r, p_ in dead_keys]
        self.state = {
            "deltas": new_deltas,
            "tombstones": tombs,
            # carry the monotone counters forward: folded-away delta names
            # must never be reused (drop_old=False leaves them on disk for
            # pinned readers), and the next fold needs gen+1
            "next_delta": self.state["next_delta"],
            "next_minor": gen + 1,
        }
        self._save()
        self._readers = None
        self._live_map = None
        if drop_old:
            for d in old_deltas:
                shutil.rmtree(os.path.join(self.root, d), ignore_errors=True)
        return {"merged_docs": int(len(live_delta)), "tombstones": len(tombs),
                "dropped": len(old_deltas)}

    def compact(self, new_root: str, cfg: IndexConfig | None = None) -> "IncrementalIndex":
        """Rebuild one canonical index from the merged live rows.

        The result is bit-identical to a from-scratch build over the
        same logical rows (content-addressed partitioning + doc_id
        ranks do not depend on build history)."""
        import ray.data as rd

        # the driver assembles only the live METADATA (repo/path/commit/
        # lang + payload pointer); document content is fetched inside the
        # map tasks — one parquet read per (payload file, batch), grouped
        # so a file is read once per batch it appears in.  The old path
        # did one driver-side parquet read PER DOCUMENT (an 878k-doc
        # compaction would issue 878k reads).
        live = self._live_meta()
        src = rd.from_arrow(pa.Table.from_pandas(live, preserve_index=False))
        tbl = self._fetch_content(src)
        out = IncrementalIndex(new_root, cfg or self.cfg)
        out.build_base(tbl, cfg or self.cfg)
        return out

    @staticmethod
    def _fetch_content(src):
        """Map a (metadata + payload pointer) Dataset to the corpus
        schema: content fetched inside the map tasks, one parquet read
        per (payload file, batch)."""

        def fetch(b: pa.Table) -> pa.Table:
            import pyarrow.parquet as _pq

            files = np.asarray(
                [os.path.join(d, f) for d, f in zip(
                    b["payload_dir"].to_pylist(), b["payload_file"].to_pylist()
                )], dtype=object,
            )
            rows_np = b["payload_row"].to_numpy(zero_copy_only=False)
            order = np.argsort(files, kind="stable")
            chunks = []
            i = 0
            while i < len(order):
                j = i
                while j < len(order) and files[order[j]] == files[order[i]]:
                    j += 1
                col = _pq.read_table(files[order[i]], columns=["content"])["content"]
                chunks.append(col.take(pa.array(rows_np[order[i:j]])))
                i = j
            inv = np.empty(len(order), dtype=np.int64)
            inv[order] = np.arange(len(order))
            content = pa.concat_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                 for c in chunks]
            ).take(pa.array(inv)) if chunks else pa.array([], type=pa.string())
            return pa.table({
                "repo": b["repo"], "path": b["path"], "commit": b["commit"],
                "lang": b["lang"], "content": content,
            })

        return src.map_batches(fetch, batch_format="pyarrow")
