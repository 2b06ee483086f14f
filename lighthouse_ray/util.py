"""Small shared helpers (stable hashing, md5 of a column, the top-k cut,
collecting a Dataset, atomic writes, the spill writer)."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


_THREADS_LIMITED = False


def limit_worker_threads(n: int = 1) -> None:
    """Clamp pyarrow's intra-process thread pools inside Ray workers.

    Each Ray worker process gets an Arrow CPU pool sized to the machine
    (32), so 32 workers x 32 threads thrash the node; Ray already owns
    process-level parallelism.  Call at the top of every build UDF /
    actor __init__ (idempotent, once per process)."""
    global _THREADS_LIMITED
    if _THREADS_LIMITED:
        return
    import pyarrow as pa

    try:
        pa.set_cpu_count(n)
        pa.set_io_thread_count(max(2, n))
    except Exception:
        pass
    _THREADS_LIMITED = True


def stable_hash64(s: str) -> int:
    """Process-independent 64-bit hash (sha1 prefix). Python's builtin
    ``hash`` is salted per process and MUST NOT be used for partitioning."""
    return int.from_bytes(hashlib.sha1(s.encode("utf-8")).digest()[:8], "big")


def md5_digests(col) -> np.ndarray:
    """md5 of every row of an Arrow string column (Array or
    ChunkedArray, ``string`` or ``large_string``) as an ``(n, 16)``
    uint8 array.  Hashes the UTF-8 buffer slices in place, with no
    per-row Python strings; a null row hashes as "".  Callers read what
    they need off the rows: ``.view(">u4")[:, 0]`` is the top 32 bits,
    ``.view("<u8")[:, 1]`` the low 64 (DuckDB's ``md5_number_lower``)."""
    md5 = hashlib.md5
    parts = []
    for chunk in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        n = len(chunk)
        if n == 0:
            continue
        bufs = chunk.buffers()
        if bufs[2] is None:  # every row empty
            parts.append(md5(b"").digest() * n)
            continue
        odt = np.int64 if pa.types.is_large_string(chunk.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=odt, count=n + chunk.offset + 1)[chunk.offset:].tolist()
        data = memoryview(bufs[2])
        parts.append(b"".join(md5(data[a:b]).digest() for a, b in zip(offs, offs[1:])))
    return np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(-1, 16)


def top_k(scores, ids, k: int | None = None) -> np.ndarray:
    """Positions of the ``k`` best ``scores`` in the one ranking order
    of the query stack: score descending, ties on id ascending
    (``search.go:113-116``).  Equal to ``np.lexsort((ids, -scores))[:k]``
    on every input; ``k=None`` orders every position.

    Over more than 4k candidates an argpartition finds the k-th score
    first, and only the candidates at or above it (every tie of the
    k-th kept) reach the lexsort.  ``ids`` is an array aligned with
    ``scores``, or a function from a position array to those
    positions' ids; it is read after the cut only, so a caller whose
    ids need a gather pays it for the survivors."""
    neg = -np.asarray(scores)
    n = len(neg)
    k = n if k is None else min(k, n)
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    if n > 4 * k:
        kth = neg[np.argpartition(neg, k - 1)[k - 1]]
        if kth == kth:  # a NaN k-th (NaNs sort last) keeps everything
            keep = np.flatnonzero(neg <= kth)
            cut = ids(keep) if callable(ids) else ids[keep]
            return keep[np.lexsort((cut, neg[keep]))[:k]]
    every = ids(np.arange(n)) if callable(ids) else ids
    return np.lexsort((every, neg))[:k]


def collect(ds) -> pa.Table:
    """Run the Ray Dataset ``ds`` and return its rows as one Arrow table.

    The one place a result crosses the Ray boundary:
    - a zero-row result keeps its columns, ``ds.schema()``'s, where
      ``Dataset.to_pandas()`` has none (Ray's batcher skips empty
      blocks);
    - a map task's ``ValueError``, the documented error of the library's
      stages, reaches the caller as itself, not as Ray's
      ``RayTaskError(UserCodeException)``."""
    import ray

    ctx = ds.context
    saved, ctx.raise_original_map_exception = ctx.raise_original_map_exception, True
    try:
        ds = ds.materialize()
        tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    except ray.exceptions.RayTaskError as e:
        if isinstance(e.cause, ValueError):
            raise e.cause from None
        raise
    finally:
        ctx.raise_original_map_exception = saved
    if tables:
        return pa.concat_tables(tables, promote_options="permissive")
    schema = ds.schema()
    if schema is None:  # nothing ran that could name the columns
        return pa.table({})
    # a pandas block's object column has no Arrow type yet: null
    return pa.schema([(n, t if isinstance(t, pa.DataType) else pa.null())
                      for n, t in zip(schema.names, schema.types)]).empty_table()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via unique temp file + rename: idempotent under task retries."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-" + os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def spill_bytes(table: pa.Table) -> bytes:
    """The spill file format: parquet, zstd level 1, no column statistics
    (spills are read whole or filtered exactly, never pruned)."""
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink, compression="zstd", compression_level=1, write_statistics=False)
    return sink.getvalue().to_pybytes()


def run_bounds(sorted_keys) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the equal-value runs of an already-sorted key
    array: numpy, or Arrow (strings too; the comparison stays in Arrow)."""
    m = len(sorted_keys)
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    change = np.empty(m, dtype=bool)
    change[0] = True
    if isinstance(sorted_keys, np.ndarray):
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    else:
        change[1:] = pc.not_equal(sorted_keys.slice(1), sorted_keys.slice(0, m - 1)).to_numpy(
            zero_copy_only=False
        )
    starts = np.flatnonzero(change)
    return starts, np.diff(np.append(starts, m))


def spill_runs(table: pa.Table, keys, path_of) -> list[tuple]:
    """Map-side partition-and-write: stable-sort ``table`` by ``keys``
    (one partition id per row) and write each equal-key run, in input
    row order, atomically to ``path_of(key, sha256_hex)`` with
    :func:`spill_bytes`.  The caller's ``path_of`` owns the naming rule
    (content-addressed, call-unique or fixed).  Returns
    ``[(key, path, rows, bytes, sha256_hex)]`` in key order; an empty
    table writes nothing."""
    keys = np.asarray(keys)
    # callers that pre-sort by (key, ...) skip the take's full copy
    if len(keys) > 1 and (keys[1:] < keys[:-1]).any():
        order = np.argsort(keys, kind="stable")
        table, keys = table.take(pa.array(order)), keys[order]
    out = []
    for s, n in zip(*run_bounds(keys)):
        data = spill_bytes(table.slice(int(s), int(n)).combine_chunks())
        digest = hashlib.sha256(data).hexdigest()
        key = keys[s].item()
        path = path_of(key, digest)
        atomic_write_bytes(path, data)
        out.append((key, path, int(n), len(data), digest))
    return out


def atomic_write_json(path: str, obj) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


def read_json(path: str):
    with open(path) as f:
        return json.load(f)
