"""Product quantization (PQ) for embedding ANN — the 100 TB scale path.

Jégou et al., "Product Quantization for Nearest Neighbor Search"
(TPAMI 2011): split each d-dim vector into ``m`` subspaces of d/m dims,
learn an ``n_codes``-entry codebook per subspace (k-means), store each
vector as m small codes (here m×int64 lattice codes; 8 bits each in a
production layout — a 64-dim float32 vector compresses 32×), and score
queries with an asymmetric-distance (ADC) table: one lookup-table build
per query, then each row costs m table lookups instead of a d-dim dot
product.  At 100 TB the raw embedding matrix cannot be scanned per
query; the PQ code table can.

Everything here runs on the SAME integer lattice as the distributed
k-means in :mod:`clustering` (values quantized once to
``floor(x*scale+0.5)+offset``), so training, encoding AND the ADC
scores are exact int64 arithmetic — deterministic at any parallelism
and exactly mirrored by :func:`make_pq_sql` for the driver's value-hash
gate (the same unrolled-CTE technique as ``make_kmeans_sql``).

Distributed shape:
- ``pq_fit``: seeds = the ``n_codes`` smallest-id rows (deterministic,
  n_codes rows per batch to the driver); each Lloyd round is ONE
  streaming pass emitting (sub, code, n, Σsubvec) partials — m ×
  n_codes summary rows per batch, never the dataset;
- ``pq_encode`` / ``pq_adc_topk``: streaming ``map_batches`` passes
  against the broadcast codebooks; the ADC pass keeps a per-batch
  top-k combiner so the driver drains ≤ k × n_batches rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import top_k
from .clustering import _assign, _list_arr, _mat, _quant_ds


def _seed_rows(ds_q, n_codes: int, id_col: str) -> np.ndarray:
    """The n_codes smallest-id quantized rows (same deterministic seed
    rule as clustering._fit)."""

    def small(b: pa.Table) -> pa.Table:
        if b.num_rows <= n_codes:
            return b
        ids = b[id_col].to_numpy(zero_copy_only=False)
        return b.take(pa.array(np.argsort(ids)[:n_codes]))

    seeds = ds_q.map_batches(small, batch_format="pyarrow").to_pandas()
    seeds = seeds.sort_values(id_col).head(n_codes)
    return np.stack(seeds["q"].to_numpy()).astype(np.int64)


def pq_fit(ds, m: int = 4, n_codes: int = 8, iters: int = 2, *,
           scale: int = 1000, offset: int = 1000,
           id_col: str = "vec_id", vec_col: str = "embedding") -> np.ndarray:
    """Train the m per-subspace codebooks jointly; returns int64 lattice
    codebooks of shape (m, n_codes, d/m).  ``iters - 1`` Lloyd update
    rounds, each ONE pass over the data for ALL subspaces at once."""
    import ray

    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    seed = _seed_rows(ds_q, n_codes, id_col)
    d = seed.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    books = seed.reshape(n_codes, m, dsub).transpose(1, 0, 2).copy()  # (m, n_codes, dsub)

    for _ in range(1, iters):
        bref = ray.put(books)

        def partial(b: pa.Table, _bref=bref) -> pa.Table:
            empty = pa.table({
                "sub": pa.array([], type=pa.int64()),
                "code": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.list_(pa.int64())),
            })
            if b.num_rows == 0:
                return empty
            import ray as _r

            bk = _r.get(_bref)
            q = _mat(b).reshape(b.num_rows, m, dsub)
            rows_sub, rows_code, rows_n, rows_s = [], [], [], []
            for s in range(m):
                a, _ = _assign(q[:, s, :], bk[s])
                for ci in np.unique(a):
                    sel = a == ci
                    rows_sub.append(s)
                    rows_code.append(int(ci))
                    rows_n.append(int(sel.sum()))
                    rows_s.append(q[sel, s, :].sum(axis=0))
            return pa.table({
                "sub": pa.array(rows_sub, type=pa.int64()),
                "code": pa.array(rows_code, type=pa.int64()),
                "n": pa.array(rows_n, type=pa.int64()),
                "s": _list_arr(np.stack(rows_s).astype(np.int64)),
            })

        parts = ds_q.map_batches(partial, batch_format="pyarrow").to_pandas()
        new = books.copy()  # an emptied code keeps its previous centroid
        for (s, ci), g in parts.groupby(["sub", "code"]):
            n = int(g["n"].sum())
            sm = np.sum(np.stack(g["s"].to_numpy()).astype(np.int64), axis=0)
            new[int(s), int(ci)] = (2 * sm + n) // (2 * n)  # round-half-up
        books = new
    return books


def _encode_batch(qmat: np.ndarray, books: np.ndarray) -> np.ndarray:
    m, _n_codes, dsub = books.shape
    q = qmat.reshape(len(qmat), m, dsub)
    codes = np.empty((len(qmat), m), dtype=np.int64)
    for s in range(m):
        codes[:, s], _ = _assign(q[:, s, :], books[s])
    return codes


def pq_encode(ds, books: np.ndarray, *, scale: int = 1000, offset: int = 1000,
              id_col: str = "vec_id", vec_col: str = "embedding"):
    """Dataset[(id, codes: list<int64> of length m)] — the compressed
    table a 100 TB deployment stores instead of raw vectors."""
    import ray

    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    bref = ray.put(books)

    def enc(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          "codes": pa.array([], type=pa.list_(pa.int64()))})
        if b.num_rows == 0:
            return empty
        import ray as _r

        codes = _encode_batch(_mat(b), _r.get(bref))
        return pa.table({id_col: b[id_col], "codes": _list_arr(codes)})

    return ds_q.map_batches(enc, batch_format="pyarrow")


def pq_adc_topk(ds, books: np.ndarray, query_q: np.ndarray, k: int = 10, *,
                scale: int = 1000, offset: int = 1000,
                id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """ADC top-k by maximum inner product (MIPS — the FAISS
    IndexPQ/IP target): score(x) = Σ_sub lut[sub, code_sub(x)] with
    lut[s, c] = (q_s − offset) · (book[s, c] − offset), i.e. the
    integer inner product of the CENTERED lattice values ≈
    scale² × (q · x̂).  Exact int64 — deterministic, SQL-mirrored.
    One streaming pass: encode + m table lookups per row + per-batch
    top-k combiner; the driver re-ranks ≤ k × n_batches rows by
    (score desc, id asc).

    ``query_q`` is the QUANTIZED query vector (int64 lattice, length
    d) — quantize with the same scale/offset as the corpus."""
    import ray

    m, n_codes, dsub = books.shape
    lut = np.einsum(
        "scd,sd->sc", books - offset, query_q.reshape(m, dsub) - offset
    )  # (m, n_codes), centered: the lattice offset cancels out
    ds_q = _quant_ds(ds, scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    bref = ray.put(books)
    lref = ray.put(lut)

    def score(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.int64())})
        if b.num_rows == 0:
            return empty
        import ray as _r

        codes = _encode_batch(_mat(b), _r.get(bref))
        lt = _r.get(lref)
        sc = lt[np.arange(m)[None, :], codes].sum(axis=1)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = top_k(sc, ids, k)
        return pa.table({id_col: pa.array(ids[order]),
                         "score": pa.array(sc[order].astype(np.int64))})

    part = ds_q.map_batches(score, batch_format="pyarrow").to_pandas()
    if len(part) == 0:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.int64)})
    order = top_k(part["score"].to_numpy(), part[id_col].to_numpy(), k)
    return part.iloc[order].reset_index(drop=True)


def make_pq_sql(m: int = 4, n_codes: int = 8, iters: int = 2, *, k: int = 10,
                query_id: int = 0, scale: int = 1000, offset: int = 1000,
                table: str = "embeddings", id_col: str = "vec_id",
                vec_col: str = "embedding") -> str:
    """Exact SQL mirror of pq_fit + pq_adc_topk with the query taken
    from the table row ``vec_id = query_id`` (quantized identically):
    the kmeans mirror's unrolled-CTE chain, extended per subspace via
    ``(dim-1)//dsub``, then an integer ADC lookup-table join.  Every
    value is int64 lattice arithmetic — hash-exact vs the Ray path."""
    # dsub is resolved in SQL from the vector length so the statement
    # doesn't hard-code the dimensionality
    ctes = [
        f"""dims AS (SELECT len({vec_col}) AS d FROM {table} LIMIT 1)""",
        f"""long AS (
  SELECT {id_col} AS vid,
         unnest(range(1, len({vec_col})+1)) AS dim,
         unnest(list_transform({vec_col},
                x -> CAST(floor(CAST(x AS DOUBLE)*{scale} + 0.5) AS BIGINT) + {offset})) AS val
  FROM {table})""",
        f"""slong AS (
  SELECT l.vid, l.dim, l.val, (l.dim - 1) // (d.d // {m}) AS sub
  FROM long l CROSS JOIN dims d)""",
        f"""seeds AS (
  SELECT vid, CAST(row_number() OVER (ORDER BY vid) - 1 AS BIGINT) AS c
  FROM (SELECT DISTINCT vid FROM slong ORDER BY vid LIMIT {n_codes}))""",
        """cent0 AS (
  SELECT s.c, l.sub, l.dim, l.val AS cval FROM seeds s JOIN slong l ON l.vid = s.vid)""",
    ]
    for i in range(1, iters + 1):
        ctes.append(f"""d{i} AS (
  SELECT l.vid, c.sub, c.c, sum((l.val - c.cval)*(l.val - c.cval)) AS d2
  FROM slong l JOIN cent{i-1} c ON l.dim = c.dim
  GROUP BY l.vid, c.sub, c.c)""")
        ctes.append(f"""a{i} AS (
  SELECT vid, sub, c, d2 FROM d{i}
  QUALIFY row_number() OVER (PARTITION BY vid, sub ORDER BY d2, c) = 1)""")
        if i < iters:
            ctes.append(f"""m{i} AS (
  SELECT a.c, a.sub, l.dim,
         CAST((2*sum(l.val) + count(*)) // (2*count(*)) AS BIGINT) AS cval
  FROM a{i} a JOIN slong l ON l.vid = a.vid AND l.sub = a.sub
  GROUP BY a.c, a.sub, l.dim)""")
            ctes.append(f"""cent{i} AS (
  SELECT c0.c, c0.sub, c0.dim, coalesce(m.cval, c0.cval) AS cval
  FROM cent{i-1} c0 LEFT JOIN m{i} m
    ON m.c = c0.c AND m.sub = c0.sub AND m.dim = c0.dim)""")
    ctes.append(f"""qv AS (SELECT dim, val AS qval FROM long WHERE vid = {query_id})""")
    # the final codebooks are cent{iters-1} (iters-1 updates; the last
    # round assigns only), matching pq_fit's books
    ctes.append(f"""lut AS (
  SELECT c.sub, c.c, sum((q.qval - {offset}) * (c.cval - {offset})) AS ip
  FROM cent{iters - 1} c JOIN qv q ON q.dim = c.dim
  GROUP BY c.sub, c.c)""")
    ctes.append(f"""scored AS (
  SELECT a.vid, sum(l.ip) AS score
  FROM a{iters} a JOIN lut l ON l.sub = a.sub AND l.c = a.c
  GROUP BY a.vid)""")
    return (
        "WITH " + ",\n".join(ctes)
        + f"""
SELECT vid AS {id_col}, CAST(score AS BIGINT) AS score
FROM scored ORDER BY scored.score DESC, vid LIMIT {k}"""
    )


# ---------------------------------------------------------------------------
# IVF-PQ composition
# ---------------------------------------------------------------------------

class IvfPqIndex:
    """IVF coarse buckets holding PQ CODES instead of raw vectors —
    the FAISS IVFPQ layout and the honest 100 TB serving shape: probes
    read only the probed buckets, and what they read is the 32×-
    compressed code table.  The driver holds the coarse centroids, the
    codebooks and the per-bucket file lists; row data never passes
    through it."""

    def __init__(self, centroids: np.ndarray, books: np.ndarray, root: str,
                 bucket_files: dict, id_col: str, scale: int, offset: int):
        self.centroids = centroids
        self.books = books
        self.root = root
        self.bucket_files = bucket_files
        self.id_col = id_col
        self.scale = scale
        self.offset = offset


def ivfpq_index(ds_factory, n_clusters: int = 8, m: int = 4, n_codes: int = 8,
                *, coarse_iters: int = 3, pq_iters: int = 2,
                scale: int = 1000, offset: int = 1000,
                id_col: str = "vec_id", vec_col: str = "embedding",
                out_dir: str | None = None) -> IvfPqIndex:
    """Train coarse quantizer (distributed lattice Lloyd) + PQ
    codebooks (on the raw vectors, not residuals — keeps the
    full-probe == flat-PQ invariant exact and testable), then write
    each vector's m codes into its coarse bucket's parquet partition.
    ``ds_factory()`` must return a fresh (id, vec) Dataset per pass."""
    import os
    import uuid

    import ray

    from ..util import spill_runs
    from .clustering import _quantize, _to_matrix, kmeans_fit

    cent = kmeans_fit(ds_factory(), n_clusters, coarse_iters,
                      id_col=id_col, vec_col=vec_col)
    books = pq_fit(ds_factory(), m=m, n_codes=n_codes, iters=pq_iters,
                   scale=scale, offset=offset, id_col=id_col, vec_col=vec_col)
    cref, bref = ray.put(cent), ray.put(books)
    root = out_dir or os.path.join("/tmp/lighthouse_ray_ivfpq", uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)

    def assign_write(batch: pa.Table) -> pa.Table:
        import ray as _r

        rows_b, rows_f = [], []
        if batch.num_rows:
            c = _r.get(cref)
            mtx = _to_matrix(batch, vec_col)
            d = ((mtx[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            bk = d.argmin(axis=1).astype(np.int32)
            codes = _encode_batch(_quantize(mtx, scale, offset), _r.get(bref))
            t = pa.table({
                id_col: batch[id_col].cast(pa.int64()),
                "codes": _pa_codes(codes),
            })
            call_id = uuid.uuid4().hex[:12]
            for g, path, _n, _b, _sha in spill_runs(
                t, bk,
                lambda g, sha: os.path.join(root, f"bucket={g}", f"{call_id}-{sha[:12]}.parquet"),
            ):
                rows_b.append(g)
                rows_f.append(os.path.basename(path))
        return pa.table({"bucket": pa.array(rows_b, type=pa.int32()),
                         "file": pa.array(rows_f, type=pa.string())})

    manifest = ds_factory().map_batches(assign_write, batch_format="pyarrow").take_all()
    bucket_files: dict[int, list[str]] = {}
    for r in manifest:
        bucket_files.setdefault(int(r["bucket"]), []).append(r["file"])
    return IvfPqIndex(cent, books, root, {b: sorted(f) for b, f in bucket_files.items()},
                      id_col, scale, offset)


def _pa_codes(codes: np.ndarray) -> pa.ListArray:
    n, m = codes.shape
    offs = pa.array(np.arange(0, (n + 1) * m, m, dtype=np.int32), type=pa.int32())
    return pa.ListArray.from_arrays(offs, pa.array(codes.ravel()))


def ivfpq_topk(index: IvfPqIndex, query_vec: np.ndarray, k: int = 10,
               nprobe: int = 2) -> pd.DataFrame:
    """Probe the nprobe nearest coarse buckets, reading ONLY their code
    partitions, and rank by the same centered integer ADC score as
    ``pq_adc_topk`` — with nprobe == n_clusters the result is
    IDENTICAL to the flat PQ scan (tested invariant)."""
    import os

    import pyarrow.parquet as pq_

    from .clustering import _quantize

    q = np.asarray(query_vec, dtype=np.float64)
    m, _n_codes, dsub = index.books.shape
    qq = _quantize(q[None, :], index.scale, index.offset)[0]
    lut = np.einsum("scd,sd->sc", index.books - index.offset,
                    qq.reshape(m, dsub) - index.offset)
    d = ((index.centroids - q[None, :]) ** 2).sum(axis=1)
    probe = np.argsort(d)[:nprobe]
    ids_all, sc_all = [], []
    for bk in probe:
        files = index.bucket_files.get(int(bk))
        if not files:
            continue
        t = pa.concat_tables(
            pq_.read_table(os.path.join(index.root, f"bucket={int(bk)}", f))
            for f in files
        )
        # fixed-width list column -> zero-copy flatten + reshape (no
        # per-row Python)
        arr = t["codes"].combine_chunks()
        codes = (
            arr.flatten().to_numpy(zero_copy_only=False).reshape(t.num_rows, m)
            if t.num_rows else np.zeros((0, m), dtype=np.int64)
        )
        ids_all.append(t[index.id_col].to_numpy(zero_copy_only=False).astype(np.int64))
        sc_all.append(lut[np.arange(m)[None, :], codes].sum(axis=1))
    if not ids_all:
        return pd.DataFrame({index.id_col: pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.int64)})
    ids = np.concatenate(ids_all)
    sc = np.concatenate(sc_all)
    order = top_k(sc, ids, k)
    return pd.DataFrame({index.id_col: ids[order], "score": sc[order].astype(np.int64)})
