"""Small shared helpers (stable hashing, atomic writes)."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


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


def atomic_write_json(path: str, obj) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


def read_json(path: str):
    with open(path) as f:
        return json.load(f)
