"""Shared helpers: the top-k cut and the md5-of-a-column walker."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from lighthouse_ray.util import md5_digests, top_k


def _tie_heavy(seed: int, n: int, id_kind: str):
    """Scores drawn from ~n/2 values (about half the entries tie) and
    ids with repeats, so both sort keys decide some positions."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, max(1, n // 2), n).astype(np.float64) / 4.0
    raw = rng.integers(0, max(1, n // 3), n)
    ids = raw.astype(np.int64) if id_kind == "int64" else np.array([f"c{v:04d}" for v in raw])
    return scores, ids


@pytest.mark.parametrize("id_kind", ["int64", "str"])
@pytest.mark.parametrize("n", [1, 7, 40, 301])
def test_top_k_equals_lexsort(n, id_kind):
    for seed in range(20):
        scores, ids = _tie_heavy(seed, n, id_kind)
        full = np.lexsort((ids, -scores))
        np.testing.assert_array_equal(top_k(scores, ids), full)
        for k in (0, 1, n - 1, n, n + 3):
            want = full[:k]
            np.testing.assert_array_equal(top_k(scores, ids, k), want)
            # ids given as a gather over positions: same cut
            np.testing.assert_array_equal(top_k(scores, lambda p: ids[p], k), want)


def test_top_k_reads_ids_after_the_cut_only():
    scores, ids = _tie_heavy(3, 1000, "int64")
    seen = []

    def gather(p):
        seen.append(len(p))
        return ids[p]

    np.testing.assert_array_equal(top_k(scores, gather, 5), np.lexsort((ids, -scores))[:5])
    assert seen and max(seen) < len(scores)


def test_top_k_empty_and_nan():
    assert len(top_k(np.zeros(0), np.zeros(0, dtype=np.int64), 3)) == 0
    s = np.array([1.0, np.nan, 2.0, np.nan, 0.5] * 10)
    ids = np.arange(len(s))
    for k in (1, 3, 30, 45):
        np.testing.assert_array_equal(top_k(s, ids, k), np.lexsort((ids, -s))[:k])


def _md5_rows(values):
    return np.array(
        [list(hashlib.md5((v or "").encode()).digest()) for v in values], dtype=np.uint8
    ).reshape(-1, 16)


@pytest.mark.parametrize(
    "col",
    [
        pa.array(["", "a", None, "héllo wörld", "x" * 300, "merge sort"]).slice(1, 4),
        pa.chunked_array([["a", "bb"], [], ["", "ccc", None], ["é"]]),
        pa.array(["large", "", "string ✓"], type=pa.large_string()),
        pa.array(["", ""]),
    ],
    ids=["sliced-string", "chunked", "large_string", "all-empty"],
)
def test_md5_digests_match_hashlib(col):
    values = col.to_pylist()
    d = md5_digests(col)
    np.testing.assert_array_equal(d, _md5_rows(values))
    for row, v in zip(d, values):
        digest = hashlib.md5((v or "").encode()).digest()
        assert int(row.view(">u4")[0]) == int.from_bytes(digest[:4], "big")
        assert int(row.view("<u8")[1]) == int.from_bytes(digest[8:], "little")
        assert row.tobytes().hex() == hashlib.md5((v or "").encode()).hexdigest()
