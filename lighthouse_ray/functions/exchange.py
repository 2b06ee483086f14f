"""Generic map-side hash-partitioned spill exchange.

The same exchange pattern the index build uses for its two wide
shuffles (build/postings.py stage B/D), through the same writer
(``util.spill_runs``): map tasks split every batch by a routing hash of
the key column and write one call-unique spill file per non-empty
partition; the reduce side is one task per partition, with every key's
rows fully co-located.  No all-to-all sort anywhere; the reduce is
embarrassingly parallel per partition, and partition count is
configuration (never derived from cluster size), so results are
layout- and parallelism-independent.

Used by the near-dup family (shingle pair-counting, connected-
components star rounds) — anywhere the per-group work is vectorizable
over sorted runs but Ray's ``groupby().map_groups`` would invoke
Python once per (tiny) group.

The routing hash is deliberately WEAK (vectorized, collision-tolerant):
collisions only co-locate extra keys in the same partition — they can
never merge groups, because reduce functions group by the real key
values inside the partition.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..util import spill_runs


def xchg_base() -> str:
    """Base directory for exchange spill roots.  Resolved on the driver
    (workers receive the concrete root path), so an env override only
    needs to be set in the driver process — tests use it to isolate
    their scratch from concurrently running pipelines."""
    return os.environ.get("LIGHTHOUSE_RAY_XCHG_ROOT", "/tmp/lighthouse_ray_xchg")


_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = x.astype(np.uint64, copy=True)
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_C1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_C2
    z ^= z >> np.uint64(31)
    return z


def routing_hash(col) -> np.ndarray:
    """uint64 routing hash of an Arrow array/chunked array: splitmix64
    for integer types, polars' vectorized seeded hash for strings."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        if pa.types.is_unsigned_integer(col.type):
            v = col.cast(pa.uint64()).to_numpy(zero_copy_only=False)
        else:
            v = col.cast(pa.int64()).to_numpy(zero_copy_only=False).view(np.uint64)
        return splitmix64(v)
    import polars as pl

    s = pl.from_arrow(col)
    return s.hash(seed=17).to_numpy().astype(np.uint64, copy=False)


def combine_hashes(*hs: np.ndarray) -> np.ndarray:
    """Order-sensitive combination of routing hashes (for composite keys)."""
    acc = hs[0]
    for h in hs[1:]:
        acc = splitmix64(acc ^ (h + _GOLDEN))
    return acc


class _SpillMap:
    """Map side: split a batch by partition and spill each slice as one
    call-unique spill file (``util.spill_runs``).

    With ``digest_cols`` set, each call also emits one ``part=-2``
    sentinel row carrying ``"{rows}:{xor:x}"`` — a (count, xor) multiset
    digest of the batch's key columns.  The coordinator folds these into
    a digest of the exchange INPUT for free (no extra dataset pass);
    connected_components uses it for fixed-point detection."""

    def __init__(self, key, num_parts: int, root: str, digest_cols=None):
        self.key = key  # column name | list of names | callable(batch)->uint64[]
        self.num_parts = num_parts
        self.root = root
        self.digest_cols = digest_cols

    def _parts(self, batch: pa.Table) -> np.ndarray:
        if callable(self.key):
            h = np.asarray(self.key(batch), dtype=np.uint64)
        elif isinstance(self.key, (list, tuple)):
            h = combine_hashes(*(routing_hash(batch[k]) for k in self.key))
        else:
            h = routing_hash(batch[self.key])
        return (h % np.uint64(self.num_parts)).astype(np.int32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # always emit >= 1 manifest row (part=-1 sentinel, filtered by the
        # coordinator): certain fused empty outputs surface as 0-column
        # blocks inside Ray and trigger schema-divergence warnings
        rows_part, rows_file, rows_n = [-1], [""], [0]
        if self.digest_cols is not None:
            x = 0
            if batch.num_rows:
                h = combine_hashes(*(routing_hash(batch[c]) for c in self.digest_cols))
                x = int(np.bitwise_xor.reduce(splitmix64(h)))
            rows_part.append(-2)
            rows_file.append(f"{batch.num_rows}:{x:x}")
            rows_n.append(0)
        if batch.num_rows:
            # one uuid per map call: files are unique per attempt, and the
            # reduce reads ONLY manifest-listed files (from successful
            # attempts), so identical-content batches never collapse and
            # failed-attempt orphans are ignored — Spark-style shuffle
            # output registration, not content-addressing (which would
            # merge byte-identical spills from different batches and
            # silently break multiset semantics)
            call_id = uuid.uuid4().hex[:16]
            for p, path, n, _b, _sha in spill_runs(
                batch, self._parts(batch),
                lambda p, sha: os.path.join(self.root, f"part={p}", f"{call_id}-{sha[:12]}.parquet"),
            ):
                rows_part.append(p)
                rows_file.append(os.path.basename(path))
                rows_n.append(n)
        return pa.table(
            {
                "part": pa.array(rows_part, type=pa.int32()),
                "file": pa.array(rows_file, type=pa.string()),
                "rows": pa.array(rows_n, type=pa.int64()),
            }
        )


def spill_exchange(ds, key, reduce_fn, num_parts: int = 32, spill_root: str | None = None,
                   digest_cols=None, stats: dict | None = None,
                   cleanup_after: list[str] | None = None,
                   empty_schema: pa.Schema | None = None):
    """Exchange ``ds`` by ``key`` and apply ``reduce_fn`` once per
    partition.

    - ``key``: column name, list of column names (composite), or a
      callable ``batch -> np.uint64[]`` producing the routing hash.
    - ``reduce_fn(table: pa.Table) -> pa.Table`` sees ALL rows of every
      key routed to that partition (multiple keys per partition; group
      by the real key values inside).
    - ``num_parts`` is configuration: at cluster scale set it to a few
      x total cores; it never changes results.
    - ``digest_cols`` + ``stats``: fold a (count, xor) multiset digest
      of the exchange INPUT's given columns into ``stats["digest"]``
      during the map pass (no extra execution).  ``stats["root"]``
      always carries this exchange's spill root when ``stats`` is given.
    - ``cleanup_after``: spill roots of UPSTREAM exchanges to delete
      once this exchange's map pass has fully consumed its input
      (Spark-style shuffle-file GC: a chained exchange's lazy reduce
      lineage references only its OWN root, so the predecessor's spills
      are dead the moment the successor's map side finishes).
      Best-effort; assumes consumed blocks are not lineage-reconstructed
      afterwards (holds for driver-held manifests).

    Returns the Dataset of concatenated reduce outputs.  The map side
    materializes only a tiny (part, file) manifest on the driver; row
    data goes disk-to-disk through the spills.
    """
    import ray.data as rd

    root = spill_root or os.path.join(xchg_base(), uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)
    manifest = ds.map_batches(
        _SpillMap(key, num_parts, root, digest_cols=digest_cols), batch_format="pyarrow"
    ).take_all()
    part_files: dict[int, list[str]] = {}
    dig_n, dig_x = 0, 0
    spilled_rows = 0
    for r in manifest:
        p = int(r["part"])
        if p >= 0:  # skip the keep-schema sentinel rows
            part_files.setdefault(p, []).append(r["file"])
            spilled_rows += int(r["rows"])
        elif p == -2:
            n_s, x_s = r["file"].split(":")
            dig_n += int(n_s)
            dig_x ^= int(x_s, 16)
    if stats is not None:
        if digest_cols is not None:
            stats["digest"] = (dig_n, dig_x)
        stats["root"] = root
        stats["spilled_rows"] = spilled_rows
    # exchange-volume accounting (driver-side, one JSON line per
    # exchange): the scale-envelope conformance tests point this at a
    # scratch file and assert shuffled-row growth stays sub-quadratic —
    # the regression tripwire against a future all-pairs path.
    acct = os.environ.get("LIGHTHOUSE_RAY_XCHG_ACCOUNTING")
    if acct:
        import json

        with open(acct, "a") as f:
            f.write(json.dumps({"root": root, "rows": spilled_rows,
                                "parts": len(part_files)}) + "\n")
    parts = sorted(part_files)
    empty_result = None
    if not parts:
        # Empty input: derive the reduce output schema from an empty
        # table.  MUST happen BEFORE the cleanup below — ``ds.schema()``
        # re-executes (part of) the upstream lineage, which may read a
        # predecessor exchange's spill root listed in ``cleanup_after``.
        # ``empty_schema`` covers inputs whose lazy schema is unknowable
        # when empty (e.g. a map over an already-empty Dataset).
        if empty_schema is not None:
            sch = empty_schema
        else:
            s = ds.schema()
            if s is None:
                raise ValueError(
                    "spill_exchange: empty input with unknown schema — pass "
                    "empty_schema so the reduce output schema can be derived"
                )
            sch = pa.schema([(n, t) for n, t in zip(s.names, s.types)])
        empty_result = rd.from_arrow(reduce_fn(sch.empty_table()))
    if cleanup_after:
        import shutil

        for r in cleanup_after:
            if r and r != root:
                shutil.rmtree(r, ignore_errors=True)
    if empty_result is not None:
        return empty_result

    def reduce_batch(b: pa.Table) -> pa.Table:
        outs = []
        for p, files in zip(b["part"].to_pylist(), b["files"].to_pylist()):
            t = pa.concat_tables(
                pq.read_table(os.path.join(root, f"part={int(p)}", f)) for f in files
            )
            outs.append(reduce_fn(t))
        return pa.concat_tables(outs, promote_options="default")

    return (
        rd.from_items(
            [{"part": p, "files": sorted(part_files[p])} for p in parts],
            override_num_blocks=len(parts),
        )
        .map_batches(reduce_batch, batch_format="pyarrow", batch_size=None)
    )
