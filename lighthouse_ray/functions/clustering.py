"""Distributed Lloyd k-means over an embedding column, hash-exact.

The iterative-algorithm entry of the training-data toolkit (corpus
clustering for mixture balancing / SemDeDup-style semantic grouping).
Classic distributed Lloyd: each iteration is one narrow pass —
``map_batches`` assigns every vector to its nearest centroid against a
broadcast centroid matrix and emits *per-cluster partial sums* (k rows
per batch, not N), and the driver reduces those k x num_batches tiny
partials into the next centroids.  No shuffle at any point; the only
data that ever reaches the driver is k rows per batch per iteration.

What makes it oracle-verifiable bit-for-bit (floating-point k-means is
famously not): everything runs on an integer lattice.

- vectors are quantized once: ``q = floor(x*scale + 0.5) + offset``
  (identical IEEE double ops in numpy and SQL; ``offset`` keeps values
  nonnegative so floor-division below is sign-free);
- distances are exact int64 squared-L2 sums;
- centroid updates round the mean to the lattice with pure integer
  arithmetic: ``(2*S + n) // (2*n)`` (round-half-up of S/n);
- ties in argmin break to the lowest cluster id;
- an emptied cluster keeps its previous centroid.

This "quantized k-means" is deterministic under any execution order
(all arithmetic is exact), so the DuckDB oracle — generated by
:func:`make_kmeans_sql` as an unrolled CTE chain over an unnested
(vec, dim, val) long table — matches the distributed run exactly.

Init is deterministic too: the k smallest ids, in id order, seed
clusters 0..k-1.

Reference parity note: the reference engine has no clustering ops;
beyond-reference training-data toolkit.  Lloyd (1957/1982) is public.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .similarity import _to_matrix


def _quantize(m: np.ndarray, scale: int, offset: int) -> np.ndarray:
    q = (np.floor(m.astype(np.float64) * scale + 0.5) + offset).astype(np.int64)
    if q.size and q.min() < 0:
        # the SQL mirror's `//` truncates toward zero while numpy
        # floors, so negative lattice values would silently diverge —
        # refuse instead (raise offset for wider-range embeddings)
        raise ValueError(
            f"embedding value below -offset/scale (= {-offset/scale}): "
            "raise `offset` so the quantized lattice stays nonnegative"
        )
    return q


def _list_arr(mat: np.ndarray) -> pa.ListArray:
    """2-D int64 matrix -> Arrow list<int64> rows (uniform offsets)."""
    n, d = mat.shape
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32), type=pa.int32())
    return pa.ListArray.from_arrays(offs, pa.array(mat.ravel()))


def _assign(q: np.ndarray, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row (exact int64 distances; tie -> lowest
    cluster id via argmin's first-occurrence rule).  Gram expansion
    ||q||^2 + ||c||^2 - 2 q.c keeps the per-batch intermediate at
    O(n x k) instead of the O(n x k x d) broadcast subtraction; every
    term is exact in int64 (values are lattice-bounded)."""
    d2 = (
        (q * q).sum(axis=1)[:, None]
        + (cent * cent).sum(axis=1)[None, :]
        - 2 * (q @ cent.T)
    )
    a = d2.argmin(axis=1)
    return a, d2[np.arange(len(a)), a]


def _quant_ds(ds, *, scale: int, offset: int, id_col: str, vec_col: str):
    """Quantize the embedding column once and materialize the (id, q)
    lattice table so the per-iteration passes don't re-read and
    re-quantize the source (at cluster scale this pins N x d int64 in
    the object store, which spills; trading that for ``iters`` re-reads
    is a one-line change)."""

    def quant(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "q": pa.array([], type=pa.list_(pa.int64()))})
        q = _quantize(_to_matrix(b, vec_col), scale, offset)
        return pa.table({
            id_col: b[id_col].cast(pa.int64()),
            "q": _list_arr(q),
        })

    return ds.map_batches(quant, batch_format="pyarrow").materialize()


def _mat(b: pa.Table) -> np.ndarray:
    col = b["q"]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(b.num_rows, -1)


def _fit(ds_q, k: int, iters: int, id_col: str) -> np.ndarray:
    """``iters - 1`` distributed Lloyd update rounds over the quantized
    table; returns the final integer-lattice centroid matrix.  Each
    round is one narrow pass: k partial-sum rows per batch reach the
    driver, never the dataset."""
    import ray

    # deterministic seeds: the k smallest ids (k rows per batch reach
    # the driver, never the dataset)
    def small(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        ids = b[id_col].to_numpy(zero_copy_only=False)
        return b.take(pa.array(np.argsort(ids)[:k]))

    seeds = ds_q.map_batches(small, batch_format="pyarrow").to_pandas()
    seeds = seeds.sort_values(id_col).head(k)
    cent = np.stack(seeds["q"].to_numpy()).astype(np.int64)

    for it in range(1, iters):
        cref = ray.put(cent)

        def partial(b: pa.Table, _cref=cref) -> pa.Table:
            empty = pa.table({
                "cluster": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.list_(pa.int64())),
            })
            if b.num_rows == 0:
                return empty
            import ray as _r

            c = _r.get(_cref)
            q = _mat(b)
            a, _ = _assign(q, c)
            rows_c, rows_n, rows_s = [], [], []
            for ci in np.unique(a):
                sel = a == ci
                rows_c.append(int(ci))
                rows_n.append(int(sel.sum()))
                rows_s.append(q[sel].sum(axis=0))
            return pa.table({
                "cluster": pa.array(rows_c, type=pa.int64()),
                "n": pa.array(rows_n, type=pa.int64()),
                "s": _list_arr(np.stack(rows_s).astype(np.int64)),
            })

        parts = ds_q.map_batches(partial, batch_format="pyarrow").to_pandas()
        new = cent.copy()  # emptied cluster keeps its previous centroid
        for ci, g in parts.groupby("cluster"):
            n = int(g["n"].sum())
            s = np.sum(np.stack(g["s"].to_numpy()).astype(np.int64), axis=0)
            new[int(ci)] = (2 * s + n) // (2 * n)
        cent = new
    return cent


def kmeans_fit(ds, k: int = 8, iters: int = 3, *, scale: int = 1000,
               offset: int = 1000, id_col: str = "vec_id",
               vec_col: str = "embedding") -> np.ndarray:
    """Train quantized Lloyd k-means distributed over the FULL dataset
    and return the centroids in the ORIGINAL embedding space (lattice
    centroids dequantized by (c - offset)/scale).  Used as the IVF
    coarse-quantizer trainer — no driver-side sample, no sample-size
    knob; the per-round driver traffic is k rows per batch."""
    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    cent = _fit(ds_q, k, iters, id_col)
    return (cent.astype(np.float64) - offset) / scale


def kmeans_assign(ds, k: int = 8, iters: int = 3, *, scale: int = 1000,
                  offset: int = 1000, id_col: str = "vec_id",
                  vec_col: str = "embedding"):
    """Run ``iters`` assignment rounds of quantized Lloyd k-means (with
    ``iters - 1`` centroid updates in between) and return the final
    (id, cluster, d2) assignment Dataset."""
    import ray

    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    cent = _fit(ds_q, k, iters, id_col)
    cref = ray.put(cent)

    def final(b: pa.Table) -> pa.Table:
        empty = pa.table({
            id_col: pa.array([], type=pa.int64()),
            "cluster": pa.array([], type=pa.int64()),
            "d2": pa.array([], type=pa.int64()),
        })
        if b.num_rows == 0:
            return empty
        import ray as _r

        a, d2 = _assign(_mat(b), _r.get(cref))
        return pa.table({
            id_col: b[id_col],
            "cluster": pa.array(a.astype(np.int64)),
            "d2": pa.array(d2.astype(np.int64)),
        })

    return ds_q.map_batches(final, batch_format="pyarrow")


def make_kmeans_sql(k: int = 8, iters: int = 3, *, scale: int = 1000,
                    offset: int = 1000, table: str = "embeddings",
                    id_col: str = "vec_id", vec_col: str = "embedding") -> str:
    """The exact SQL mirror of :func:`kmeans_assign`: an unrolled CTE
    chain (one assign + one update per iteration) over the unnested
    (vid, dim, val) long table, in the same integer arithmetic."""
    ctes = [
        f"""long AS (
  SELECT {id_col} AS vid,
         unnest(range(1, len({vec_col})+1)) AS dim,
         unnest(list_transform({vec_col},
                x -> CAST(floor(CAST(x AS DOUBLE)*{scale} + 0.5) AS BIGINT) + {offset})) AS val
  FROM {table})""",
        f"""seeds AS (
  SELECT vid, CAST(row_number() OVER (ORDER BY vid) - 1 AS BIGINT) AS c
  FROM (SELECT DISTINCT vid FROM long ORDER BY vid LIMIT {k}))""",
        """cent0 AS (
  SELECT s.c, l.dim, l.val AS cval FROM seeds s JOIN long l ON l.vid = s.vid)""",
    ]
    for i in range(1, iters + 1):
        ctes.append(f"""d{i} AS (
  SELECT l.vid, c.c, sum((l.val - c.cval)*(l.val - c.cval)) AS d2
  FROM long l JOIN cent{i-1} c ON l.dim = c.dim
  GROUP BY l.vid, c.c)""")
        ctes.append(f"""a{i} AS (
  SELECT vid, c, d2 FROM d{i}
  QUALIFY row_number() OVER (PARTITION BY vid ORDER BY d2, c) = 1)""")
        if i < iters:
            ctes.append(f"""m{i} AS (
  SELECT a.c, l.dim, CAST((2*sum(l.val) + count(*)) // (2*count(*)) AS BIGINT) AS cval
  FROM a{i} a JOIN long l ON l.vid = a.vid GROUP BY a.c, l.dim)""")
            ctes.append(f"""cent{i} AS (
  SELECT c0.c, c0.dim, coalesce(m.cval, c0.cval) AS cval
  FROM cent{i-1} c0 LEFT JOIN m{i} m ON m.c = c0.c AND m.dim = c0.dim)""")
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT vid AS {id_col}, CAST(c AS BIGINT) AS cluster, CAST(d2 AS BIGINT) AS d2 FROM a{iters}"
    )


def semdedup(ds, *, k: int = 8, iters: int = 3, threshold: float = 0.4,
             scale: int = 1000, offset: int = 1000, id_col: str = "vec_id",
             vec_col: str = "embedding", num_parts: int = 8):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embeddings with the quantized distributed k-means above, then
    remove within-cluster semantic near-duplicates — a vector is
    dropped when its cluster contains a SMALLER-id vector with cosine
    >= ``threshold`` (the deterministic 'keep first' rule; a pure set
    predicate, independent of execution order).  Returns the kept
    (id, cluster) rows.

    Scale shape: the pairwise term runs only INSIDE a cluster, so the
    quadratic cost drops from N² to sum(|c|²) ~ N²/k for balanced
    clusters, and each reduce partition holds whole clusters (pick k
    so N/k fits a worker: the SemDeDup partitioning assumption).  The
    centroid fit is the shuffle-free Lloyd loop; assignment + row
    normalization is one streaming pass; ONE exchange co-locates
    clusters.  Cosines compare in float64 exactly like the SQL
    mirror's list_cosine_similarity (raw compare, no rounding — ids
    only in the output, so no float ever reaches the hash)."""
    import ray

    from ..util import run_bounds
    from .exchange import spill_exchange

    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    cent = _fit(ds_q, k, iters, id_col)
    cref = ray.put(cent)

    empty_in = pa.table({
        id_col: pa.array([], type=pa.int64()),
        "cluster": pa.array([], type=pa.int64()),
        "vec": pa.array([], type=pa.list_(pa.float64())),
    })

    def assign_with_vec(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty_in
        import ray as _r

        m = _to_matrix(b, vec_col).astype(np.float64)
        a, _ = _assign(_quantize(m, scale, offset), _r.get(cref))
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        return pa.table({
            id_col: b[id_col].cast(pa.int64()),
            "cluster": pa.array(a.astype(np.int64)),
            "vec": _list_arr(m),
        })

    asg = ds.map_batches(assign_with_vec, batch_format="pyarrow")

    empty_out = pa.table({
        id_col: pa.array([], type=pa.int64()),
        "cluster": pa.array([], type=pa.int64()),
    })

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_out
        t = t.sort_by([("cluster", "ascending"), (id_col, "ascending")])
        cl = t["cluster"].to_numpy(zero_copy_only=False)
        vec = t["vec"]
        vec = vec.combine_chunks() if isinstance(vec, pa.ChunkedArray) else vec
        m = vec.flatten().to_numpy(zero_copy_only=False).reshape(t.num_rows, -1)
        keep = np.ones(t.num_rows, dtype=bool)
        for s, n in zip(*run_bounds(cl)):
            if n < 2:
                continue
            e = s + n
            sims = m[s:e] @ m[s:e].T
            keep[s:e] = ~np.triu(sims >= threshold, k=1).any(axis=0)
        out = t.filter(pa.array(keep))
        return pa.table({id_col: out[id_col], "cluster": out["cluster"]})

    return spill_exchange(asg, "cluster", reduce, num_parts=num_parts)


def make_semdedup_sql(k: int = 8, iters: int = 3, threshold: float = 0.4,
                      *, scale: int = 1000, offset: int = 1000,
                      table: str = "embeddings", id_col: str = "vec_id",
                      vec_col: str = "embedding") -> str:
    """SQL mirror of :func:`semdedup`: the unrolled k-means CTE as a
    subquery, then the 'exists a smaller-id in-cluster neighbor with
    cosine >= threshold' anti-predicate on raw float64 cosines."""
    km = make_kmeans_sql(k=k, iters=iters, scale=scale, offset=offset,
                         table=table, id_col=id_col, vec_col=vec_col)
    cos = (f"list_cosine_similarity(CAST(x.{vec_col} AS DOUBLE[]), "
           f"CAST(y.{vec_col} AS DOUBLE[]))")
    return f"""
WITH a AS ({km})
SELECT a.{id_col}, a.cluster FROM a
WHERE NOT EXISTS (
  SELECT 1
  FROM a a2
  JOIN {table} x ON x.{id_col} = a2.{id_col}
  JOIN {table} y ON y.{id_col} = a.{id_col}
  WHERE a2.cluster = a.cluster AND a2.{id_col} < a.{id_col}
    AND {cos} >= {threshold})
"""
