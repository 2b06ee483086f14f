"""Training-layout operators: deterministic global shuffle into shards
and GPT-style sequence packing (concat-then-chunk manifest).

Both answer the same question a 100 TB pre-training pipeline asks after
curation: *in what order, and at what offset, does each document enter
the training stream?*

- :func:`shuffle_shards` — a seeded, reproducible global shuffle.  The
  shuffle key is an affine hash of the document id (Knuth
  multiplicative scheme, exactly reproducible in SQL with HUGEINT
  modular arithmetic), the shard is ``key % n_shards``, and the
  position is the rank within the shard by ``(key, id)``.  One bounded
  exchange keyed by shard; rank assignment is a vectorized argsort per
  partition.  No global sort: ranks only need to be dense *within* a
  shard, so the all-to-all ``Dataset.sort`` a naive global permutation
  would take is replaced by an embarrassingly-parallel per-shard pass
  (the standard trick — training readers consume shards, not one
  global sequence).

- :func:`seq_pack` — the concat-and-chunk packing manifest: documents
  are concatenated per bucket in id order and the token stream is cut
  every ``seq_len`` tokens (documents may span cuts, as in GPT-style
  pre-training packing).  Emits, per document, its absolute token
  offset in the bucket stream and the sequence id / intra-sequence
  offset where it starts.  The per-bucket exclusive cumulative sum is
  the only stateful step and is one vectorized pass over the sorted
  partition.

Partitioning assumption (per the custom-operator contract): one
shard's / one bucket's rows must fit a reduce task.  Shard and bucket
counts are configuration — at cluster scale set them to a few x total
cores (they change layout labels, not correctness of the structure,
and the oracle pins them at test scale).

Reference parity note: the reference engine has no training-layout
ops (it is a search indexer); these belong to the beyond-reference
training-data toolkit mandated for this repo.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import run_bounds
from .exchange import spill_exchange

# Knuth multiplicative hash, exactly mirrored in the SQL oracles via
# (id * A + C) % 2^32 in HUGEINT arithmetic
_SHUF_A = np.uint64(2654435761)
_SHUF_C = np.uint64(1013904223)
_SHUF_M = np.uint64(0xFFFFFFFF)


def shuffle_key(ids: np.ndarray) -> np.ndarray:
    """Deterministic 32-bit shuffle key of an int64 id array."""
    return ((ids.astype(np.uint64) * _SHUF_A + _SHUF_C) & _SHUF_M).astype(np.int64)


def _col(t: pa.Table, name: str) -> np.ndarray:
    c = t[name]
    arr = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    return arr.to_numpy(zero_copy_only=False)


def shuffle_shards(ds, id_col: str = "doc_id", n_shards: int = 16,
                   num_parts: int = 32):
    """Seeded global shuffle into ``n_shards`` reader shards.

    Returns one row per input row: ``(id, shuffle_key, shard, pos)``
    where ``pos`` is the 0-based rank within the shard ordered by
    ``(shuffle_key, id)`` — i.e. the exact position a shard-reading
    trainer would see the document at.  Shuffle volume: the id column
    only (the payload is re-joined by id at read time, or routed
    through the same exchange when materializing shard files).
    """

    def keyed(b: pa.Table) -> pa.Table:
        ids = _col(b, id_col)
        key = shuffle_key(ids)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "shuffle_key": pa.array(key),
                "shard": pa.array(key % n_shards),
            }
        )

    empty = pa.table(
        {
            id_col: pa.array([], type=pa.int64()),
            "shuffle_key": pa.array([], type=pa.int64()),
            "shard": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
        }
    )

    def rank_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids, key, shard = _col(t, id_col), _col(t, "shuffle_key"), _col(t, "shard")
        order = np.lexsort((ids, key, shard))
        sh = shard[order]
        starts, counts = run_bounds(sh)
        pos = np.arange(len(sh), dtype=np.int64) - np.repeat(starts, counts)
        return pa.table(
            {
                id_col: pa.array(ids[order], type=pa.int64()),
                "shuffle_key": pa.array(key[order]),
                "shard": pa.array(sh),
                "pos": pa.array(pos),
            }
        )

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    return spill_exchange(keyed_ds, "shard", rank_reduce, num_parts=num_parts)


def seq_pack(ds, id_col: str = "doc_id", n_col: str = "n_tokens",
             seq_len: int = 256, n_buckets: int = 8, num_parts: int = 32):
    """Concat-and-chunk sequence-packing manifest.

    Input: one row per document with its token count (``n_col``) and
    id.  Documents are grouped into ``id % n_buckets`` streams,
    concatenated in id order, and the stream is cut every ``seq_len``
    tokens (a document may span cuts).  Output per document:

    - ``bucket``     — which stream
    - ``start_tok``  — absolute token offset of the doc in its stream
    - ``seq_id``     — training sequence (``start_tok // seq_len``)
    - ``seq_off``    — offset inside that sequence

    One exchange keyed by bucket; the reduce is a vectorized sorted
    pass (lexsort + cumsum with per-run rebasing).
    """

    def keyed(b: pa.Table) -> pa.Table:
        ids = _col(b, id_col)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "bucket": pa.array(ids % n_buckets),
                n_col: pa.array(_col(b, n_col).astype(np.int64)),
            }
        )

    empty = pa.table(
        {
            id_col: pa.array([], type=pa.int64()),
            "bucket": pa.array([], type=pa.int64()),
            n_col: pa.array([], type=pa.int64()),
            "start_tok": pa.array([], type=pa.int64()),
            "seq_id": pa.array([], type=pa.int64()),
            "seq_off": pa.array([], type=pa.int64()),
        }
    )

    def pack_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids, bucket, n = _col(t, id_col), _col(t, "bucket"), _col(t, n_col)
        order = np.lexsort((ids, bucket))
        bk, nn = bucket[order], n[order]
        excl = np.cumsum(nn) - nn  # exclusive cumsum over the partition
        starts, counts = run_bounds(bk)
        start_tok = excl - np.repeat(excl[starts], counts)  # rebase per bucket
        return pa.table(
            {
                id_col: pa.array(ids[order], type=pa.int64()),
                "bucket": pa.array(bk),
                n_col: pa.array(nn),
                "start_tok": pa.array(start_tok),
                "seq_id": pa.array(start_tok // seq_len),
                "seq_off": pa.array(start_tok % seq_len),
            }
        )

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    return spill_exchange(keyed_ds, "bucket", pack_reduce, num_parts=num_parts)
