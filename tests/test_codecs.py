import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lighthouse_ray.codecs import (
    decode_position_lists,
    delta_decode,
    delta_encode,
    encode_position_lists,
    varbyte_decode,
    varbyte_encode,
)


def test_varbyte_roundtrip_simple():
    a = np.array([0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(a)) == a).all()


def test_varbyte_empty():
    assert varbyte_encode(np.array([], dtype=np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=500))
def test_varbyte_roundtrip_hypothesis(vals):
    a = np.array(vals, dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(a)) == a).all()


def test_delta_roundtrip():
    a = np.array([3, 5, 5 + 127, 10_000, 10_001], dtype=np.uint64)
    assert (delta_decode(delta_encode(a)) == a).all()


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300))
def test_postings_roundtrip(vals):
    a = np.array(sorted(vals), dtype=np.uint64)
    assert (delta_decode(varbyte_decode(varbyte_encode(delta_encode(a)))) == a).all()


def test_position_lists_roundtrip():
    # three docs with positions [[2,5,9],[0],[7,8]]
    pos = np.array([2, 5, 9, 0, 7, 8], dtype=np.uint64)
    tfs = np.array([3, 1, 2], dtype=np.uint64)
    buf = encode_position_lists(pos, tfs)
    got, offsets = decode_position_lists(buf, tfs)
    assert (got == pos).all()
    assert offsets.tolist() == [0, 3, 4, 6]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40),
        min_size=1,
        max_size=30,
    )
)
def test_position_lists_hypothesis(doc_positions):
    pos = np.array([p for doc in doc_positions for p in sorted(doc)], dtype=np.uint64)
    tfs = np.array([len(d) for d in doc_positions], dtype=np.uint64)
    got, offsets = decode_position_lists(encode_position_lists(pos, tfs), tfs)
    assert (got == pos).all()
    assert offsets[-1] == len(pos)


# ---------------------------------------------------------------------------
# Identity-key parsing (build.docs.hex_prefix_u64)
# ---------------------------------------------------------------------------

def test_hex_prefix_u64_paths():
    import numpy as np
    import pyarrow as pa

    from lighthouse_ray.build.docs import hex_prefix_u64

    import random

    rng = random.Random(3)
    fixed = ["%040x" % rng.getrandbits(160) for _ in range(500)]
    mixed = fixed[:250] + ["%064x" % rng.getrandbits(256) for _ in range(250)]

    def want(vals):
        return np.array([int(v[:16], 16) for v in vals], dtype=np.uint64)

    # fixed-width reshape path
    assert (hex_prefix_u64(pa.array(fixed)) == want(fixed)).all()
    # mixed-width gather path
    assert (hex_prefix_u64(pa.array(mixed)) == want(mixed)).all()
    # sliced array (nonzero offset into parent buffers)
    sl = pa.array(fixed).slice(100, 300)
    assert (hex_prefix_u64(sl) == want(fixed[100:400])).all()
    # chunked + list inputs
    ch = pa.chunked_array([fixed[:200], fixed[200:]])
    assert (hex_prefix_u64(ch) == want(fixed)).all()
    assert (hex_prefix_u64(fixed[:10]) == want(fixed[:10])).all()
    # empty
    assert len(hex_prefix_u64(pa.array([], type=pa.string()))) == 0


def test_ordmap_sidecar_roundtrip(tmp_path):
    """Sidecar write/read: ordinals land at the right payload rows,
    losers (rows absent from the sidecar) read back as -1."""
    import pyarrow as pa

    from lighthouse_ray.build.docs import (
        compact_ordmap_group,
        file_ordinals,
        sidecar_live_mask,
        write_ordmap_sidecars,
    )

    idx = str(tmp_path)
    # two payload files, winners interleaved across two partitions
    out = pa.table(
        {
            "payload_file": pa.array(["aa.parquet"] * 3 + ["bb.parquet"] * 2),
            "payload_row": pa.array([0, 2, 5, 1, 3], type=pa.int64()),
            "rank": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        }
    )
    write_ordmap_sidecars(idx, out, part=1)
    out2 = pa.table(
        {
            "payload_file": pa.array(["aa.parquet"]),
            "payload_row": pa.array([4], type=pa.int64()),
            "rank": pa.array([0], type=pa.int64()),
        }
    )
    write_ordmap_sidecars(idx, out2, part=0)
    # reduce half: merge each group's spills into one sidecar per file,
    # dropping the spill dirs (idempotent: re-compacting is a no-op)
    import os

    spill = f"{idx}/ordmap_spill"
    grps = [int(d.split("=", 1)[1]) for d in os.listdir(spill)]
    assert sum(compact_ordmap_group(idx, g) for g in grps) == 2  # aa + bb
    assert not os.path.isdir(spill) or not os.listdir(spill)
    assert sum(compact_ordmap_group(idx, g) for g in grps) == 0  # idempotent
    ordmap = f"{idx}/ordmap"
    offsets = [0, 10]  # part 0 -> base 0, part 1 -> base 10
    got = file_ordinals(ordmap, "aa.parquet", 6, offsets)
    assert got.tolist() == [10, -1, 11, -1, 0, 12]
    got_b = file_ordinals(ordmap, "bb.parquet", 4, offsets)
    assert got_b.tolist() == [-1, 13, -1, 14]
    # missing file -> all losers
    assert (file_ordinals(ordmap, "cc.parquet", 3, offsets) == -1).all()
    # live mask agrees with sidecar membership across mixed files
    mask = sidecar_live_mask(
        ordmap,
        pa.array(["aa.parquet", "aa.parquet", "bb.parquet", "cc.parquet"]),
        pa.array([1, 4, 3, 0], type=pa.int64()),
    )
    assert mask.tolist() == [False, True, True, False]


def _spill_table(n=200, seed=0):
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 7, n).astype(np.int32)
    t = pa.table({"row": pa.array(np.arange(n, dtype=np.int64)),
                  "s": pa.array([f"v{i % 13}" for i in range(n)])})
    return t, keys


def test_spill_runs_partitions_rows_in_input_order(tmp_path):
    import hashlib
    import os

    import pyarrow.parquet as pq

    from lighthouse_ray.util import spill_runs

    t, keys = _spill_table()
    runs = spill_runs(t, keys, lambda k, sha: str(tmp_path / f"k={k}" / f"{sha[:24]}.parquet"))
    assert [r[0] for r in runs] == sorted(set(keys.tolist()))
    seen = []
    for key, path, rows, nbytes, sha in runs:
        assert os.path.dirname(path) == str(tmp_path / f"k={key}")
        data = open(path, "rb").read()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (nbytes, sha)
        got = pq.read_table(path)
        assert got.num_rows == rows and got.schema == t.schema
        r = got["row"].to_numpy()
        assert (keys[r] == key).all()  # every row under its own key
        assert (np.diff(r) > 0).all()  # input order within the run
        seen.append(r)
    # every row in exactly one file, and nothing else on disk
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(t.num_rows))
    assert sum(len(fs) for _d, _s, fs in os.walk(tmp_path)) == len(runs)


def test_spill_runs_content_addressed_rerun_rewrites_same_paths(tmp_path):
    import os

    from lighthouse_ray.util import spill_runs

    t, keys = _spill_table(seed=1)

    def path_of(k, sha):
        return str(tmp_path / f"k={k}" / f"{sha[:24]}.parquet")

    first = spill_runs(t, keys, path_of)
    again = spill_runs(t, keys, path_of)
    assert first == again
    assert sum(len(fs) for _d, _s, fs in os.walk(tmp_path)) == len(first)


def test_spill_runs_empty_table_writes_nothing(tmp_path):
    from lighthouse_ray.util import spill_runs

    t, keys = _spill_table()
    assert spill_runs(t.slice(0, 0), keys[:0], lambda k, sha: str(tmp_path / f"{k}")) == []
    assert list(tmp_path.iterdir()) == []


def test_run_bounds_numpy_arrow_empty_single():
    import pyarrow as pa

    from lighthouse_ray.util import run_bounds

    s, n = run_bounds(np.array([3, 3, 5, 9, 9, 9], dtype=np.int64))
    assert s.tolist() == [0, 2, 3] and n.tolist() == [2, 1, 3]
    s, n = run_bounds(pa.array(["a", "b", "b", "c"]))
    assert s.tolist() == [0, 1, 3] and n.tolist() == [1, 2, 1]
    for empty in (np.zeros(0, dtype=np.int64), pa.array([], type=pa.string())):
        s, n = run_bounds(empty)
        assert len(s) == 0 and len(n) == 0
    for single in (np.full(4, 7, dtype=np.uint64), pa.array(["x"] * 4)):
        s, n = run_bounds(single)
        assert s.tolist() == [0] and n.tolist() == [4]
