"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk` — exact cosine top-k: numpy matmul per batch
  against a broadcast (``ray.put``) query matrix; the baseline and the
  oracle-checked path (pipelines/driver_queries.py ann_cosine_topk).
- :func:`ivf_index` / :func:`ivf_topk` — IVF scale path: deterministic
  k-means coarse quantizer, rows bucketed by nearest centroid
  (``groupby``-free: bucket id is a pure function of the vector), query
  probes the ``nprobe`` nearest buckets only.  Recall is validated
  against the brute-force baseline in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import top_k


def _to_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    emb = batch[vec_col].combine_chunks()
    flat = np.asarray(emb.flatten(), dtype=np.float64)
    return flat.reshape(batch.num_rows, -1)


def brute_force_topk(ds, query_vecs: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k for one or more query vectors.

    Returns a Dataset of (query_idx, vec_id, cos) — per-batch scores via
    one matmul, global top-k via sort+limit per query (k small).
    """
    import ray

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    qref = ray.put(q)

    class Score:
        def __init__(self, ref):
            import ray as _r

            self.q = _r.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _to_matrix(batch, vec_col)
            m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            cos = m @ self.q.T  # (rows, nq)
            nq = cos.shape[1]
            ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), nq)
            qidx = np.tile(np.arange(nq, dtype=np.int32), batch.num_rows)
            return pa.table(
                {
                    "query_idx": pa.array(qidx),
                    id_col: pa.array(ids),
                    "cos": pa.array(np.round(cos.reshape(-1), 6)),
                }
            )

    scored = ds.map_batches(Score, fn_constructor_kwargs={"ref": qref},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.sort(["query_idx", "cos", id_col], descending=[False, True, False]).limit(
        k * len(q)
    )


def knn_graph(ds, k: int = 3, id_col: str = "vec_id", vec_col: str = "embedding",
              block_rows: int = 4096, num_parts: int = 16):
    """k-NN graph over the embedding column: for EVERY vector, its top-k
    cosine neighbors (self excluded) — the building block for
    embedding-cluster dedup and semantic dedup sampling.

    Same blocked shape as :func:`..functions.dedup.embedding_cosine_pairs`:
    rows persist once as normalized blocks, one task per block PAIR emits
    each side's PARTIAL top-k against the other block (k rows per vector
    per block — never the full similarity row), and one spill exchange
    keyed by the source id reduces partials to the global top-k with a
    run-length head-k.  Ranking uses cosine ROUNDED to 6 decimals with
    an id tie-break, so results are layout-independent and exactly
    SQL-mirrorable.  Memory per task is 2 blocks; shuffled volume is
    N x num_blocks x k rows, not N^2.

    COMPUTE is quadratic in blocks (exact all-pairs);
    :func:`knn_graph_srp` is the sub-quadratic scale path (SCALE.md's
    named fix) for thresholded neighbor graphs."""
    import os
    import uuid

    import pyarrow.parquet as pq
    import ray.data as rd

    from ..util import atomic_write_bytes, run_bounds, spill_bytes
    from .exchange import spill_exchange, xchg_base

    root = os.path.join(xchg_base(), "knn-" + uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        import hashlib as _h

        if batch.num_rows == 0:
            return pa.table({"file": pa.array([], type=pa.string())})
        m = _to_matrix(batch, vec_col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        t = pa.table(
            {
                "id": pa.array(batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)),
                "vec": pa.FixedSizeListArray.from_arrays(pa.array(m.reshape(-1)), m.shape[1]),
            }
        )
        data = spill_bytes(t)
        fname = f"{uuid.uuid4().hex[:16]}-{_h.sha256(data).hexdigest()[:12]}.parquet"
        atomic_write_bytes(os.path.join(root, fname), data)
        return pa.table({"file": pa.array([fname], type=pa.string())})

    files = sorted(
        r["file"]
        for r in ds.map_batches(write_block, batch_format="pyarrow", batch_size=block_rows).take_all()
    )
    empty = pa.table(
        {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "cos": pa.array([], type=pa.float64()),
        }
    )
    if not files:
        return rd.from_arrow(
            pa.table({"vec_id": empty["a"], "nn_id": empty["b"], "cos": empty["cos"]})
        )

    def _load(fname: str):
        t = pq.read_table(os.path.join(root, fname))
        ids = t["id"].to_numpy(zero_copy_only=False)
        m = np.asarray(t["vec"].combine_chunks().flatten(), dtype=np.float64).reshape(len(t), -1)
        return ids, m

    def _partial_topk(cos: np.ndarray, ids_src: np.ndarray, ids_dst: np.ndarray) -> pa.Table:
        """Per-row top-k of one (src x dst) cosine block, ranked by
        (round6 desc, dst id asc)."""
        n, m = cos.shape
        kk = min(k, m)
        r6 = np.round(cos, 6)
        # lexsort per row: primary -r6, secondary dst id — done via one
        # global argsort over packed keys per row
        order = np.lexsort((np.broadcast_to(ids_dst, (n, m)), -r6), axis=1)[:, :kk]
        rows = np.repeat(np.arange(n), kk)
        cols = order.reshape(-1)
        sel = np.isfinite(r6[rows, cols])
        return pa.table(
            {
                "a": pa.array(ids_src[rows[sel]]),
                "b": pa.array(ids_dst[cols[sel]]),
                "cos": pa.array(r6[rows[sel], cols[sel]]),
            }
        )

    def block_pair(bt: pa.Table) -> pa.Table:
        outs = []
        for i, j in zip(bt["i"].to_pylist(), bt["j"].to_pylist()):
            ids_a, ma = _load(files[i])
            ids_b, mb = _load(files[j]) if j != i else (ids_a, ma)
            cos = ma @ mb.T
            if i == j:
                np.fill_diagonal(cos, -np.inf)  # self excluded
            outs.append(_partial_topk(cos, ids_a, ids_b))
            if i != j:
                outs.append(_partial_topk(cos.T.copy(), ids_b, ids_a))
        return pa.concat_tables(outs) if outs else empty

    items = [{"i": i, "j": j} for i in range(len(files)) for j in range(i, len(files))]
    partial = rd.from_items(items, override_num_blocks=len(items)).map_batches(
        block_pair, batch_format="pyarrow", batch_size=None
    )

    def topk_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"vec_id": empty["a"], "nn_id": empty["b"], "cos": empty["cos"]})
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        c = t["cos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, -c, a))
        a, b, c = a[order], b[order], c[order]
        starts, lens = run_bounds(a)
        kk = np.minimum(lens, k)
        cum = np.zeros(len(kk), dtype=np.int64)
        np.cumsum(kk[:-1], out=cum[1:])
        idx = np.repeat(starts, kk) + (np.arange(int(kk.sum()), dtype=np.int64) - np.repeat(cum, kk))
        return pa.table(
            {"vec_id": pa.array(a[idx]), "nn_id": pa.array(b[idx]), "cos": pa.array(c[idx])}
        )

    return spill_exchange(partial, "a", topk_reduce, num_parts=num_parts)


def knn_graph_srp(ds, k: int = 3, tau: float = 0.4, id_col: str = "vec_id",
                  vec_col: str = "embedding", num_planes: int = 48,
                  bands: int = 24, num_parts: int = 32, seed: int = 1234):
    """Approximate THRESHOLDED k-NN graph via SRP bucket pruning — the
    sub-quadratic scale path SCALE.md names for :func:`knn_graph`'s
    documented block-pair quadratic.

    Semantics: for every vector, its top-``k`` cosine neighbors among
    those with ``round(cos, 6) >= tau`` (self excluded) — the SemDeDup /
    near-dup neighborhood graph.  Thresholding is what MAKES pruning
    possible: below-τ pairs need never be generated, so candidate work
    is Σ_buckets |bucket|² per band instead of N² — with r planes/band
    buckets shrink 2^r-fold, and a pair at angle θ collides in a band
    with probability (1-θ/π)^r; over b bands the miss probability is
    (1-(1-θ/π)^r)^b (Charikar'02).  Defaults (r=2, b=24) give miss
    ≤ 5e-6 at cos 0.4 — recall exactly 1 with the fixed seed on both sf
    corpora (verified at sf0.01 and sf0.1), so the exact SQL definition
    is the gate's oracle.  At 100 TB raise planes-per-band with log2(N)
    (and τ with the use-case): bucket granularity tracks cluster size
    and candidate volume stays ~N x cluster x bands — the envelope test
    asserts this sub-quadratic growth on clustered data.

    Fully distributed: normalized vectors ride the band exchange,
    in-bucket cosine is one matmul per bucket run, per-vector partials
    (≤ k rows per vector per band) flow through a second exchange that
    dedups (a, b) and head-ks per vector.  No driver pass, no N² rows.
    """
    from ..util import run_bounds
    from .dedup import _bucket_runs, _srp_band_rows
    from .exchange import spill_exchange

    out_schema = pa.schema([("vec_id", pa.int64()), ("nn_id", pa.int64()),
                            ("cos", pa.float64())])
    empty = pa.table({"a": pa.array([], type=pa.int64()),
                      "b": pa.array([], type=pa.int64()),
                      "cos": pa.array([], type=pa.float64())})

    def bucket_topk(t: pa.Table) -> pa.Table:
        """Per (band, bhash) run: in-bucket cosine matmul, keep round6 >= tau,
        emit each vector's PARTIAL top-k within the bucket."""
        if t.num_rows == 0:
            return empty
        t, starts, lens = _bucket_runs(t)
        ids = t["id"].to_numpy(zero_copy_only=False)
        mat = np.asarray(t["vec"].combine_chunks().flatten()).reshape(t.num_rows, -1)
        outs = []
        for s, ln in zip(starts[lens >= 2], lens[lens >= 2]):
            sub_ids = ids[s : s + ln]
            sub = mat[s : s + ln]
            cos = np.round(sub @ sub.T, 6)
            # self and same-id duplicates excluded; below-τ pruned
            cos[sub_ids[:, None] == sub_ids[None, :]] = -np.inf
            cos[cos < tau] = -np.inf
            kk = min(k, ln - 1)
            if kk <= 0:
                continue
            ordr = np.lexsort((np.broadcast_to(sub_ids, (ln, ln)), -cos), axis=1)[:, :kk]
            rows = np.repeat(np.arange(ln), kk)
            cols = ordr.reshape(-1)
            sel = np.isfinite(cos[rows, cols])
            if sel.any():
                outs.append(pa.table({
                    "a": pa.array(sub_ids[rows[sel]]),
                    "b": pa.array(sub_ids[cols[sel]]),
                    "cos": pa.array(cos[rows[sel], cols[sel]]),
                }))
        return pa.concat_tables(outs) if outs else empty

    def topk_reduce(t: pa.Table) -> pa.Table:
        """Dedup (a, b) found in several bands, then head-k per a."""
        if t.num_rows == 0:
            return pa.table({"vec_id": empty["a"], "nn_id": empty["b"],
                             "cos": empty["cos"]})
        g = t.group_by(["a", "b"], use_threads=False).aggregate([("cos", "min")])
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        c = g["cos_min"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, -c, a))
        a, b, c = a[order], b[order], c[order]
        starts, lens = run_bounds(a)
        kk = np.minimum(lens, k)
        cum = np.zeros(len(kk), dtype=np.int64)
        np.cumsum(kk[:-1], out=cum[1:])
        idx = np.repeat(starts, kk) + (
            np.arange(int(kk.sum()), dtype=np.int64) - np.repeat(cum, kk))
        return pa.table({"vec_id": pa.array(a[idx]), "nn_id": pa.array(b[idx]),
                         "cos": pa.array(c[idx])})

    st: dict = {}
    partial = spill_exchange(
        ds.map_batches(
            lambda b: _srp_band_rows(b, id_col, vec_col, num_planes, bands, seed),
            batch_format="pyarrow",
        ),
        ["band", "bhash"], bucket_topk, num_parts=num_parts, stats=st,
    )
    return spill_exchange(partial, "a", topk_reduce, num_parts=num_parts,
                          cleanup_after=[st["root"]],
                          empty_schema=out_schema)


def srp_candidate_volume(ds, vec_col: str = "embedding",
                         num_planes: int = 48, bands: int = 24,
                         seed: int = 1234) -> int:
    """Accounting for the envelope test: Σ over (band, bucket) of
    |bucket|·(|bucket|-1)/2 — the exact number of candidate cosine pairs
    :func:`knn_graph_srp` evaluates.  Computed as a tiny distributed
    aggregate (per-batch bucket counts → one |buckets|-sized groupby);
    compare with the exact path's N·(N-1)/2 to measure the prune."""
    from .dedup import _srp_band_keys

    band_tag = np.arange(bands, dtype=np.uint64) << np.uint64(56)

    def counts(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch, vec_col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        keys = _srp_band_keys(m, num_planes, bands, seed) | band_tag
        u, c = np.unique(keys.reshape(-1), return_counts=True)
        return pa.table({"key": pa.array(u), "n": pa.array(c.astype(np.int64))})

    agg = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("key").sum("n").to_pandas()
    )
    n = agg["sum(n)"].to_numpy()
    return int((n * (n - 1) // 2).sum())


class IvfIndex:
    """Coarse quantizer + bucketed vectors as partitioned parquet (one
    directory per centroid).  The driver holds ONLY the centroid matrix
    and the per-bucket file lists — row data never passes through it."""

    def __init__(self, centroids: np.ndarray, root: str, bucket_files: dict[int, list[str]],
                 id_col: str = "vec_id", vec_col: str = "embedding"):
        self.centroids = centroids
        self.root = root
        self.bucket_files = bucket_files
        self.id_col = id_col
        self.vec_col = vec_col


def ivf_index(ds, n_clusters: int = 16, id_col: str = "vec_id",
              vec_col: str = "embedding", train_iters: int = 3,
              out_dir: str | None = None) -> IvfIndex:
    """Train the coarse quantizer with the repo's DISTRIBUTED quantized
    Lloyd k-means (``clustering.kmeans_fit``: per-round driver traffic
    is k partial-sum rows per batch — no driver-side sample, no
    sample-size knob), then bucket all rows by nearest centroid INSIDE
    map tasks, each task writing its rows as one parquet file per
    touched bucket directory (``bucket=N/``).  Only the (bucket, file)
    manifest reaches the driver; probes later read just the probed
    bucket partitions.
    """
    import os
    import uuid

    import ray

    from ..util import spill_runs
    from .clustering import kmeans_fit

    cent = kmeans_fit(ds, n_clusters, train_iters, id_col=id_col, vec_col=vec_col)
    cref = ray.put(cent)
    root = out_dir or os.path.join("/tmp/lighthouse_ray_ivf", uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)

    def assign_write(batch: pa.Table) -> pa.Table:
        import ray as _r

        rows_b, rows_f = [], []
        if batch.num_rows:
            c = _r.get(cref)
            m = _to_matrix(batch, vec_col)
            d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            bk = d.argmin(axis=1).astype(np.int32)
            call_id = uuid.uuid4().hex[:12]
            for g, path, _n, _b, _sha in spill_runs(
                batch, bk,
                lambda g, sha: os.path.join(root, f"bucket={g}", f"{call_id}-{sha[:12]}.parquet"),
            ):
                rows_b.append(g)
                rows_f.append(os.path.basename(path))
        return pa.table(
            {
                "bucket": pa.array(rows_b, type=pa.int32()),
                "file": pa.array(rows_f, type=pa.string()),
            }
        )

    manifest = ds.map_batches(assign_write, batch_format="pyarrow").take_all()
    bucket_files: dict[int, list[str]] = {}
    for r in manifest:
        bucket_files.setdefault(int(r["bucket"]), []).append(r["file"])
    return IvfIndex(cent, root, {k: sorted(v) for k, v in bucket_files.items()},
                    id_col=id_col, vec_col=vec_col)


def ivf_topk(index: IvfIndex, query_vec: np.ndarray, k: int = 10, nprobe: int = 4) -> pd.DataFrame:
    """Probe the nprobe nearest buckets (reading only their parquet
    partitions); exact cosine within them.  Scores are rounded to 6
    decimals BEFORE the (cos desc, id asc) tie-break so full-probe mode
    is bit-identical to the brute-force/SQL baseline."""
    import os

    import pyarrow.parquet as pq

    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-12)
    d = ((index.centroids - q[None, :]) ** 2).sum(axis=1)
    probe = np.argsort(d)[:nprobe]
    ids_all, cos_all = [], []
    for bk in probe:
        files = index.bucket_files.get(int(bk))
        if not files:
            continue
        t = pa.concat_tables(
            pq.read_table(os.path.join(index.root, f"bucket={int(bk)}", f)) for f in files
        )
        ids = t[index.id_col].to_numpy(zero_copy_only=False)
        m = _to_matrix(t, index.vec_col)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        ids_all.append(ids)
        cos_all.append(mn @ qn)
    if not ids_all:
        return pd.DataFrame({"vec_id": [], "cos": []})
    ids = np.concatenate(ids_all)
    cos = np.round(np.concatenate(cos_all), 6)
    order = top_k(cos, ids, k)
    return pd.DataFrame({"vec_id": ids[order], "cos": cos[order]})
