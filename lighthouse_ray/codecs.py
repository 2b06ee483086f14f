"""Vectorized varbyte (LEB128) + delta codecs for posting lists.

The reference's index backend (Elasticsearch/Lucene) stores posting lists
delta-encoded and byte-compressed; we implement the same idea explicitly:
doc ordinals are delta-gapped then varbyte-encoded, term frequencies and
per-document position deltas likewise.  Encode/decode are numpy-vectorized
— the inner loop runs over *byte positions within a varint* (≤10
iterations), never over values.

Format: standard unsigned LEB128 — little-endian 7-bit groups, high bit
set on every byte except the last of a value.
"""

from __future__ import annotations

import numpy as np

_THRESHOLDS = [np.uint64(1) << np.uint64(7 * i) for i in range(1, 10)]


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode an array of non-negative ints to LEB128 bytes.

    The threshold loop breaks at the array max, so arrays of small values
    (tf columns are mostly 1-2) cost one comparison pass, and all-sub-128
    arrays take a pure ``astype(uint8)`` fast path — the encoder is the
    hottest kernel in the segment merge, and every avoided pass is ~16 MB
    of memory traffic per 2M postings.
    """
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return b""
    amax = int(a.max())
    if amax < 128:  # every value is a single terminal byte
        return a.astype(np.uint8).tobytes()
    nb = np.ones(a.shape, dtype=np.int64)
    for t in _THRESHOLDS:
        if amax < int(t):
            break
        nb += a >= t
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    mask7 = np.uint64(0x7F)
    for i in range(10):
        sel = nb > i
        if not sel.any():
            break
        vals = (a[sel] >> np.uint64(7 * i)) & mask7
        pos = starts[sel] + i
        is_last = nb[sel] == i + 1
        byte = vals.astype(np.uint8)
        byte[~is_last] |= 0x80
        out[pos] = byte
    return out.tobytes()


def varbyte_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (int64 array)."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    nb = np.ones(a.shape, dtype=np.int64)
    if a.size == 0:
        return nb
    amax = int(a.max())
    for t in _THRESHOLDS:
        if amax < int(t):
            break
        nb += a >= t
    return nb


def position_gaps(positions: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Per-doc delta gaps for a concatenated position stream (see
    :func:`encode_position_lists`)."""
    p = np.ascontiguousarray(positions, dtype=np.uint64)
    if p.size == 0:
        return p
    gaps = np.empty_like(p)
    gaps[0] = p[0]
    np.subtract(p[1:], p[:-1], out=gaps[1:])
    tf64 = np.ascontiguousarray(tfs, dtype=np.int64)
    starts = np.cumsum(tf64) - tf64
    gaps[starts] = p[starts]
    return gaps


def varbyte_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode LEB128 bytes back to a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    terminal = (b & 0x80) == 0
    ends = np.flatnonzero(terminal)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    nb = ends - starts + 1
    out = np.zeros(len(ends), dtype=np.uint64)
    mask7 = np.uint64(0x7F)
    max_nb = int(nb.max())
    for i in range(max_nb):
        sel = nb > i
        out[sel] |= (b[starts[sel] + i].astype(np.uint64) & mask7) << np.uint64(7 * i)
    return out


def delta_encode(sorted_values: np.ndarray) -> np.ndarray:
    """Gap-encode a strictly-increasing uint64 array (first value kept)."""
    a = np.ascontiguousarray(sorted_values, dtype=np.uint64)
    if a.size == 0:
        return a
    out = np.empty_like(a)
    out[0] = a[0]
    np.subtract(a[1:], a[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(gaps, dtype=np.uint64)
    return np.cumsum(a, dtype=np.uint64)


def encode_position_lists(positions: np.ndarray, tfs: np.ndarray) -> bytes:
    """Encode per-doc position lists (concatenated) for one term.

    ``positions`` is the concatenation of each matching doc's sorted token
    positions; ``tfs`` gives the list lengths.  Each doc's positions are
    delta-gapped independently (the first position of each doc is absolute)
    then the whole stream is varbyte-encoded.  Decode with
    :func:`decode_position_lists` using the same ``tfs``.
    """
    if np.asarray(positions).size == 0:
        return b""
    return varbyte_encode(position_gaps(positions, tfs))


def decode_position_lists(buf: bytes, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_position_lists`.

    Returns ``(positions, offsets)``: flat absolute positions and int64
    offsets (len = n_docs + 1) delimiting each doc's slice.
    """
    gaps = varbyte_decode(buf)
    tfs64 = np.ascontiguousarray(tfs, dtype=np.int64)
    offsets = np.zeros(len(tfs64) + 1, dtype=np.int64)
    np.cumsum(tfs64, out=offsets[1:])
    if gaps.size == 0:
        return gaps, offsets
    pos = np.cumsum(gaps, dtype=np.uint64)
    # subtract the carried-over cumulative sum at each doc boundary
    starts = offsets[:-1]
    base = np.zeros(len(starts), dtype=np.uint64)
    nonzero = starts > 0
    base[nonzero] = pos[starts[nonzero] - 1]
    pos -= np.repeat(base, tfs64)
    # re-add each doc's own absolute first value chain
    return pos, offsets
