"""SRP-pruned thresholded k-NN graph (VERDICT r4 item 2): exact parity
with the brute-force path on clustered data, and behavior at the
recall boundary."""

import numpy as np
import pyarrow as pa
import pytest


def _ds_of(vecs, ids=None):
    import ray.data as rd

    ids = np.arange(len(vecs), dtype=np.int64) if ids is None else ids
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.reshape(-1).astype(np.float64)), vecs.shape[1]),
    })
    return rd.from_arrow(t)


def _clustered(n, cluster=10, dim=32, seed=3):
    rng = np.random.RandomState(seed)
    centers = rng.standard_normal((n // cluster, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    base = np.repeat(centers, cluster, axis=0)[:n]
    return base + 0.10 * rng.standard_normal((n, dim))


def _exact_thresholded_topk(vecs, k, tau):
    """Reference: per-vector top-k among round6(cos) >= tau, ranked by
    (cos desc, id asc) — same contract the SQL oracle states."""
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = np.round(m @ m.T, 6)
    np.fill_diagonal(cos, -np.inf)
    out = []
    for i in range(len(m)):
        cand = np.flatnonzero(cos[i] >= tau)
        order = cand[np.lexsort((cand, -cos[i][cand]))][:k]
        out.extend((i, int(j), float(cos[i][j])) for j in order)
    return sorted(out)


def test_knn_srp_parity_with_exact(ray_session):
    """Full output parity (not just recall) on clustered vectors at the
    gate's parameters: every (vec, nn, cos) row identical."""
    from lighthouse_ray.functions.similarity import knn_graph_srp

    vecs = _clustered(300)
    got = knn_graph_srp(_ds_of(vecs), k=3, tau=0.5, num_planes=48, bands=24).to_pandas()
    got_rows = sorted(zip(got["vec_id"], got["nn_id"], got["cos"]))
    want = _exact_thresholded_topk(vecs, k=3, tau=0.5)
    assert [(a, b) for a, b, _ in got_rows] == [(a, b) for a, b, _ in want]
    assert np.allclose([c for *_, c in got_rows], [c for *_, c in want])


def test_knn_srp_equals_filtered_exact_path(ray_session):
    """Cross-path check: filtering the EXACT knn_graph's top-k by the
    threshold equals the SRP thresholded graph (thresholded-top-k ==
    filter(top-k) for the same k)."""
    from lighthouse_ray.functions.similarity import knn_graph, knn_graph_srp

    vecs = _clustered(200, cluster=8)
    exact = knn_graph(_ds_of(vecs), k=3).to_pandas()
    exact = exact[exact["cos"] >= 0.5]
    srp = knn_graph_srp(_ds_of(vecs), k=3, tau=0.5, num_planes=48, bands=24).to_pandas()
    assert sorted(zip(exact["vec_id"], exact["nn_id"])) == \
        sorted(zip(srp["vec_id"], srp["nn_id"]))


def test_knn_srp_isolated_vectors_emit_nothing(ray_session):
    """Vectors with no >=tau neighbor produce no rows (the thresholded
    contract) — orthogonal basis vectors at tau 0.5."""
    from lighthouse_ray.functions.similarity import knn_graph_srp

    vecs = np.eye(8)
    out = knn_graph_srp(_ds_of(vecs), k=3, tau=0.5, num_planes=48, bands=24).to_pandas()
    assert len(out) == 0


def test_knn_srp_k_cap_and_tie_break(ray_session):
    """More than k qualifying neighbors: exactly k kept, ranked by
    (cos desc, id asc)."""
    from lighthouse_ray.functions.similarity import knn_graph_srp

    rng = np.random.RandomState(11)
    center = rng.standard_normal(16)
    vecs = center[None, :] + 0.05 * rng.standard_normal((7, 16))
    out = knn_graph_srp(_ds_of(vecs), k=2, tau=0.5, num_planes=48, bands=24).to_pandas()
    assert (out.groupby("vec_id").size() == 2).all()
    want = _exact_thresholded_topk(vecs, k=2, tau=0.5)
    got = sorted(zip(out["vec_id"], out["nn_id"]))
    assert got == [(a, b) for a, b, _ in want]



@pytest.mark.parametrize("num_planes,bands", [(48, 24), (16, 4), (50, 24)])
def test_srp_band_keys_match_plane_loop(num_planes, bands):
    """The shared SRP band keys equal the per-plane loop bit for bit:
    seeded planes, bit j of band b = sign of plane b*r + j, and planes
    beyond bands*r unused."""
    from lighthouse_ray.functions.dedup import _srp_band_keys

    m = _clustered(60, dim=12)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    r = num_planes // bands
    for seed in (1234, 7):
        planes = np.random.RandomState(seed).standard_normal((num_planes, m.shape[1]))
        bits = (m @ planes.T) > 0
        want = np.zeros((len(m), bands), dtype=np.uint64)
        for bnd in range(bands):
            for j in range(r):
                want[:, bnd] |= bits[:, bnd * r + j].astype(np.uint64) << np.uint64(j)
        got = _srp_band_keys(m, num_planes, bands, seed)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)
