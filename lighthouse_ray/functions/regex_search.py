"""Trigram-indexed regular-expression search over a document corpus.

The classic code-search design (R. Cox, "Regular Expression Matching
with a Trigram Index", public write-up of Google Code Search; also the
scheme behind Zoekt/Hound): index every document's DISTINCT byte
trigrams, turn the regex into a boolean requirement over trigrams of
its mandatory literal substrings, intersect posting lists to get a
candidate doc set, and run the real regex engine only over candidates.

Ray-Data posture (designed for the 100 TB corpus, tested small):

- **Build is one map pass, no shuffle.**  Each ``map_batches`` task
  extracts per-doc distinct trigrams fully vectorized (windows over
  the Arrow string column's flat data buffer — no per-row Python) and
  writes its rows directly into ``part=<tri % P>/`` parquet
  partitions, sorted by (tri, doc_id); only a (part, file) manifest
  reaches the driver — the same partitioned-sink pattern as
  :func:`lighthouse_ray.functions.similarity.ivf_index`.
- **Queries read only the partitions holding the planned trigrams**
  (parquet filter pushdown on the sorted ``tri`` column), so query
  I/O is proportional to the posting lists touched, not the index.
- **Verification is distributed**: the candidate id set (usually tiny)
  is broadcast via ``ray.put`` and each batch filters + runs the RE2
  regex (``pyarrow.compute.match_substring_regex``) — the same engine
  family DuckDB's ``regexp_matches`` uses, which keeps the SQL oracle
  bit-comparable.
- Patterns with no usable mandatory literal (e.g. ``[0-9]{4}``) fall
  back to a full distributed scan — still correct, just unpruned.

Soundness invariant (tested): every document matching the regex
contains, for some AND-group of the plan, ALL of that group's
trigrams — so pruning can produce false candidates (removed by the
regex pass) but never false negatives.
"""
from __future__ import annotations

import os
import re
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

try:  # python >= 3.11 moved sre_parse under re._parser
    from re import _parser as sre_parse
except ImportError:  # pragma: no cover
    import sre_parse  # type: ignore

__all__ = [
    "TrigramIndex",
    "build_trigram_index",
    "plan_regex",
    "regex_search",
]

_MAX_DNF_GROUPS = 16


# ---------------------------------------------------------------------------
# regex -> mandatory-literal DNF  (True requirement == [[]]; None == bottom
# never happens: unmatchable patterns still plan soundly)
# ---------------------------------------------------------------------------

_TRUE: list[list[str]] = [[]]  # one empty AND-group: "no requirement"


def _and_dnf(d1: list[list[str]], d2: list[list[str]]) -> list[list[str]]:
    out = [g1 + g2 for g1 in d1 for g2 in d2]
    if len(out) > _MAX_DNF_GROUPS:
        # keep the side with the longer literals; dropping a conjunct is
        # always sound (weakens the requirement)
        keep = d1 if sum(map(len, (s for g in d1 for s in g))) >= sum(
            map(len, (s for g in d2 for s in g))) else d2
        return keep
    return out


def _or_dnf(d1: list[list[str]], d2: list[list[str]]) -> list[list[str]]:
    if d1 == _TRUE or d2 == _TRUE:
        return _TRUE
    out = d1 + d2
    return _TRUE if len(out) > _MAX_DNF_GROUPS else out


def _seq_dnf(items) -> list[list[str]]:
    """DNF of a sre parse sequence: consecutive LITERALs merge into
    runs; runs of >= 3 chars become AND conjuncts; everything else
    contributes its own (possibly TRUE) requirement conjunctively."""
    dnf = _TRUE
    run: list[str] = []

    def flush():
        nonlocal dnf, run
        s = "".join(run)
        run = []
        if len(s) >= 3:
            dnf = _and_dnf(dnf, [[s]])

    for op, av in items:
        name = str(op)
        if name == "LITERAL":
            run.append(chr(av))
            continue
        flush()
        dnf = _and_dnf(dnf, _node_dnf(op, av))
    flush()
    return dnf


def _node_dnf(op, av) -> list[list[str]]:
    name = str(op)
    if name == "BRANCH":
        out: list[list[str]] | None = None
        for branch in av[1]:
            b = _seq_dnf(branch)
            out = b if out is None else _or_dnf(out, b)
        return out or _TRUE
    if name == "SUBPATTERN":
        _gid, add_flags, _del_flags, p = av
        if add_flags & re.IGNORECASE:
            return _TRUE
        return _seq_dnf(p)
    if name in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT"):
        lo, _hi, p = av
        return _seq_dnf(p) if lo >= 1 else _TRUE
    if name == "ATOMIC_GROUP":
        return _seq_dnf(av)
    # IN / ANY / AT / ASSERT / ASSERT_NOT / GROUPREF / NOT_LITERAL /
    # CATEGORY / ...: no mandatory literal (sound)
    return _TRUE


def _literal_dnf(pattern: str) -> list[list[str]]:
    """OR-of-AND mandatory literal substrings: every match of
    ``pattern`` contains ALL literals of at least one group."""
    parsed = sre_parse.parse(pattern)
    if parsed.state.flags & re.IGNORECASE:
        return _TRUE
    return _seq_dnf(parsed)


def _trigrams_of(s: str) -> list[int]:
    b = s.encode("utf-8")
    return [
        (b[i] << 16) | (b[i + 1] << 8) | b[i + 2] for i in range(len(b) - 2)
    ]


def plan_regex(pattern: str) -> list[list[int]] | None:
    """Trigram requirement in DNF: candidates = OR over groups of
    (docs containing ALL the group's trigrams).  None = full scan."""
    re.compile(pattern)  # surface syntax errors eagerly
    dnf = _literal_dnf(pattern)
    groups: list[list[int]] = []
    for g in dnf:
        tris = sorted({t for s in g for t in _trigrams_of(s)})
        if not tris:  # an unconstrained alternative: the OR is TRUE
            return None
        groups.append(tris)
    return groups


# ---------------------------------------------------------------------------
# index build
# ---------------------------------------------------------------------------

class TrigramIndex:
    """Partitioned trigram posting index: ``root/part=<p>/*.parquet``
    with rows (tri uint32, doc_id) sorted by (tri, doc_id) per file;
    ``p = tri % num_parts``."""

    def __init__(self, root: str, num_parts: int, part_files: dict[int, list[str]]):
        self.root = root
        self.num_parts = num_parts
        self.part_files = part_files


def _doc_distinct_trigrams(col) -> tuple[np.ndarray, np.ndarray]:
    """(tri uint32, local doc index int64) distinct pairs for an Arrow
    string column — windows over the flat data buffer, one np.unique."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int64)
    if col.null_count:
        col = pc.fill_null(col, "")
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
        col.offset : col.offset + n + 1
    ].astype(np.int64)
    buf = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    lens = np.diff(offs)
    w = np.maximum(lens - 2, 0)
    total = int(w.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int64)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), w)
    cum = np.zeros(n, dtype=np.int64)
    np.cumsum(w[:-1], out=cum[1:])
    pos = offs[:-1][doc_of] + (np.arange(total, dtype=np.int64) - cum[doc_of])
    tri = (
        buf[pos].astype(np.uint32) << 16
    ) | (buf[pos + 1].astype(np.uint32) << 8) | buf[pos + 2]
    key = np.unique((doc_of.astype(np.uint64) << np.uint64(24)) | tri)
    return (key & np.uint64(0xFFFFFF)).astype(np.uint32), (key >> np.uint64(24)).astype(np.int64)


def build_trigram_index(ds, out_dir: str | None = None, text_col: str = "text",
                        id_col: str = "doc_id", num_parts: int = 64) -> TrigramIndex:
    from ..util import spill_runs

    root = out_dir or os.path.join("/tmp/lighthouse_ray_trigram", uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)
    P = num_parts

    def extract_write(batch: pa.Table) -> pa.Table:
        runs = []
        if batch.num_rows:
            tri, doc_of = _doc_distinct_trigrams(batch[text_col])
            ids = batch[id_col].to_numpy(zero_copy_only=False)[doc_of]
            order = np.lexsort((ids, tri))
            # spill_runs' stable sort by part keeps the (tri, doc_id) order
            # inside each part file (part = tri % P is NOT monotone in tri)
            call_id = uuid.uuid4().hex[:12]
            runs = spill_runs(
                pa.table({"tri": pa.array(tri[order]), "doc_id": pa.array(ids[order])}),
                tri[order] % np.uint32(P),
                lambda p, sha: os.path.join(root, f"part={p}", f"{call_id}-{sha[:12]}.parquet"),
            )
        return pa.table({
            "part": pa.array([r[0] for r in runs], type=pa.int32()),
            "file": pa.array([os.path.basename(r[1]) for r in runs], type=pa.string()),
        })

    manifest = ds.map_batches(extract_write, batch_format="pyarrow").take_all()
    part_files: dict[int, list[str]] = {}
    for r in manifest:
        part_files.setdefault(int(r["part"]), []).append(r["file"])
    return TrigramIndex(root, P, {k: sorted(v) for k, v in part_files.items()})


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _candidates(index: TrigramIndex, plan: list[list[int]]) -> np.ndarray:
    """Sorted doc_id array satisfying the OR-of-AND trigram plan —
    reads only the parquet partitions of the planned trigrams."""
    import pyarrow.parquet as pq

    need = sorted({t for g in plan for t in g})
    by_part: dict[int, list[int]] = {}
    for t in need:
        by_part.setdefault(t % index.num_parts, []).append(t)
    tris: list[np.ndarray] = []
    docs: list[np.ndarray] = []
    for p, ts in by_part.items():
        for f in index.part_files.get(p, []):
            t = pq.read_table(
                os.path.join(index.root, f"part={p}", f),
                filters=[("tri", "in", ts)],
            )
            tris.append(t["tri"].to_numpy(zero_copy_only=False))
            docs.append(t["doc_id"].to_numpy(zero_copy_only=False))
    if not tris:
        return np.zeros(0, dtype=np.int64)
    tri = np.concatenate(tris)
    doc = np.concatenate(docs)
    out: list[np.ndarray] = []
    for g in plan:
        mask = np.isin(tri, np.asarray(g, dtype=np.uint32))
        d = doc[mask]
        # a doc satisfies the AND-group iff it appears once per trigram
        # ((tri, doc) rows are distinct by construction)
        u, cnt = np.unique(d, return_counts=True)
        out.append(u[cnt == len(g)])
    return np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)


def regex_search(ds, index: TrigramIndex | None, pattern: str,
                 text_col: str = "text", id_col: str = "doc_id"):
    """Dataset of (doc_id) whose ``text_col`` contains a match of
    ``pattern`` (RE2 semantics, same as DuckDB ``regexp_matches``).
    With an index and a plannable pattern, only candidate docs run the
    regex; otherwise every doc does (same result)."""
    import ray

    plan = plan_regex(pattern)
    cand_ref = None
    if index is not None and plan is not None:
        cand_ref = ray.put(_candidates(index, plan))

    def check(b: pa.Table, _c=cand_ref) -> pa.Table:
        import ray as _r

        if b.num_rows and _c is not None:
            cand = _r.get(_c)
            ids = b[id_col].to_numpy(zero_copy_only=False)
            b = b.filter(pa.array(np.isin(ids, cand)))
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], type=b.schema.field(id_col).type)})
        hit = pc.match_substring_regex(b[text_col], pattern)
        return pa.table({id_col: b[id_col].filter(hit)})

    return ds.map_batches(check, batch_format="pyarrow")
