"""Deduplication operators for large-scale training-data pipelines.

All wide steps run through :func:`..functions.exchange.spill_exchange`
(the same map-side partitioned exchange the index build uses): map
tasks spill rows by a routing hash of the key, one reduce task per
partition does the group work VECTORIZED over sorted runs — no Python
per (tiny) group, no all-to-all sort, no driver materialization of row
data.

- :func:`ngram_jaccard_pairs` — exact token-shingle Jaccard through a
  shingle inverted index.  Per-doc distinct-shingle counts ride on
  every exploded row, so pair rows carry (na, nb) with them and the
  Jaccard needs NO size join and NO driver-side size map.  Hot
  shingles (df > ``max_df``) are dropped before pairing — the standard
  guard against the O(df²) blow-up; the cap is part of the operator's
  semantics and mirrored in the SQL oracle.
- :func:`containment_pairs` — the same shingle pipeline with the
  containment score inter/min(na, nb) in place of Jaccard.
- Banded LSH, one skeleton for MinHash, SimHash and SRP: a batch
  explodes to one ``(band, bhash, id, payload)`` row per (doc, band)
  (:func:`_band_rows`), an exchange by (band, bhash) sorts each
  partition by (combined band key, id) into bucket runs
  (:func:`_bucket_runs`) and pairs within each run, and for SimHash and
  SRP an (a, b) exchange keeps the minimum per-pair score
  (:func:`_banded_pairs`).
- :func:`minhash_dedup_pairs` — shingle → minhash → banded LSH →
  candidate pairs → EXACT-Jaccard verification of the candidates (so
  every emitted row is exactly checkable: jaccard >= threshold on true
  distinct-shingle sets); :func:`minhash_index_write` /
  :func:`minhash_index_probe` persist the corpus side once and probe
  new batches against it.
- :func:`simhash_signatures` / :func:`simhash_candidates` — 64-bit
  simhash (md5-low64 token hashes — SQL-mirrorable), hamming<=k pairs
  via the pigeonhole band trick; recall is exactly 1 by construction
  (hamming<=3 over 4 disjoint 16-bit bands forces >=1 exact band
  match), so the output equals the exact all-pairs definition.
- :func:`embedding_cosine_pairs` — exact cosine pairs via blocked
  all-pairs (each task holds two row blocks, never the full matrix);
  :func:`embedding_lsh_pairs` — signed-random-projection bands with
  exact in-bucket cosine.
- :func:`connected_components` — alternating large/small-star rounds
  (Kiveris et al., SoCC'14) as spill exchanges with vectorized
  per-run star steps.

Every bucket key is a content value (shingle string, band hash, node
id), so results are independent of block layout and parallelism.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import flat_tokens
from ..util import atomic_write_bytes, md5_digests, popcount64, run_bounds, spill_bytes
from .exchange import combine_hashes, spill_exchange

# fixed seeded 64-bit affine hashers for minhash (a*x+b mod p)
_P = np.uint64((1 << 61) - 1)


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 61, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, 1 << 61, size=num_perm, dtype=np.uint64)
    return a, b


# ---------------------------------------------------------------------------
# shingles
# ---------------------------------------------------------------------------

def _round6_up(x: np.ndarray) -> np.ndarray:
    """Round-half-up to 6 dp: floor(x*1e6 + 0.5)/1e6, mirrored in SQL as
    floor(x*1000000 + 0.5)/1000000.  np.round is half-to-even while
    DuckDB round() is half-away-from-zero, so an integer-ratio value
    whose *1e6 image lands on an exact .5 (any denominator holding a
    2^7 factor, e.g. jaccard 3/128) would hash-mismatch the oracle.
    Callers pass nonnegative values only."""
    return np.floor(x * 1e6 + 0.5) / 1e6


def doc_shingles(batch: pa.Table, text_col: str, id_col: str, n: int) -> pa.Table:
    """Distinct n-token string shingles per doc, fully vectorized: one
    ``binary_join_element_wise`` over n slices of the flat token stream,
    window validity by parent equality, per-doc distinct via an Arrow
    group_by.  Output rows (id, sh, nsh) carry the doc's TOTAL distinct
    shingle count on every row, so downstream pair construction needs no
    size join."""
    parents, _pos, terms, nrows = flat_tokens(batch[text_col])
    ids = batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col]
    L = len(parents)
    W = L - n + 1
    if W <= 0:
        return pa.table(
            {"id": pa.array([], type=ids.type), "sh": pa.array([], type=pa.string()),
             "nsh": pa.array([], type=pa.int64())}
        )
    sh_all = pc.binary_join_element_wise(*[terms.slice(k, W) for k in range(n)], " ")
    valid = parents[:W] == parents[n - 1 : n - 1 + W]
    t = pa.table({"p": pa.array(parents[:W][valid]), "sh": sh_all.filter(pa.array(valid))})
    d = t.group_by(["p", "sh"], use_threads=False).aggregate([])
    counts = np.zeros(nrows, dtype=np.int64)
    cc = d.group_by("p", use_threads=False).aggregate([([], "count_all")])
    counts[cc["p"].to_numpy(zero_copy_only=False)] = cc["count_all"].to_numpy(
        zero_copy_only=False
    )
    p_out = d["p"].to_numpy(zero_copy_only=False)
    return pa.table(
        {"id": pc.take(ids, d["p"]), "sh": d["sh"], "nsh": pa.array(counts[p_out])}
    )


def _pair_indices(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-run index pairs (i < j), vectorized across every run:
    element i contributes (run_end - 1 - i) pairs with consecutive j."""
    if len(starts) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    ends = starts + lens
    total = int(lens.sum())
    run_of_elem = np.repeat(np.arange(len(starts)), lens)
    cum_excl = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=cum_excl[1:])
    elem = starts[run_of_elem] + (np.arange(total, dtype=np.int64) - cum_excl[run_of_elem])
    # counts per element: distance to its run end minus one
    c = (ends[run_of_elem] - 1 - elem).astype(np.int64)
    M = int(c.sum())
    if M == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    a_idx = np.repeat(elem, c)
    cum = np.zeros(len(c), dtype=np.int64)
    np.cumsum(c[:-1], out=cum[1:])
    b_idx = a_idx + 1 + (np.arange(M, dtype=np.int64) - np.repeat(cum, c))
    return a_idx, b_idx


def _bloom_probe(h: np.ndarray, bits: np.ndarray, m_bits: int, k_hashes: int) -> np.ndarray:
    """Vectorized membership probe: True where all k bloom bits are set."""
    from .joins import _bloom_positions

    pos = _bloom_positions(h, m_bits, k_hashes)
    return ((bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)


def _bloom_filtered_pairs(idh: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                          bits: np.ndarray, m_bits: int, k_hashes: int,
                          id_vals: np.ndarray | None = None,
                          pair_vals: tuple[np.ndarray, np.ndarray] | None = None,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Within-run index pairs (i < j) restricted to candidate pairs —
    the verification-side hot-shingle guard, two regimes:

    - SMALL runs (df <= _HOT_RUN): pairs are generated in
      ~``_PAIR_CHUNK`` chunks, their (id_i, id_j) hashes probe the
      candidate-pair bloom, and only positives are materialized — a run
      costs df²/2 vectorized probes but only |true pairs| + fp ROWS.
    - HOT runs (df > _HOT_RUN), when the exact candidate pair VALUE
      arrays are available (``id_vals``/``pair_vals``, integer ids):
      the loop flips — each of the P candidate pairs is tested for both
      endpoints in the run via searchsorted against the run's sorted
      ids (O(P log df) per hot run, independent of df²).  This kills
      the straggler regime where one shingle shared by tens of
      thousands of candidate docs costs df²/2 probes in one task.
      Without pair values (non-integer ids or pair list over the
      fetch cap) hot runs fall back to blockwise bloom probing —
      correct, just probe-bound."""
    keep_a: list[np.ndarray] = []
    keep_b: list[np.ndarray] = []

    live = lens >= 2
    small = live & (lens <= _HOT_RUN)
    s_starts, s_lens = starts[small], lens[small]
    if len(s_starts):
        ppr = s_lens * (s_lens - 1) // 2
        cum = np.cumsum(ppr)
        lo = 0
        while lo < len(s_starts):
            hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + _PAIR_CHUNK))
            hi = max(hi, lo + 1)
            a_idx, b_idx = _pair_indices(s_starts[lo:hi], s_lens[lo:hi])
            if len(a_idx):
                ok = _bloom_probe(
                    combine_hashes(idh[a_idx], idh[b_idx]), bits, m_bits, k_hashes
                )
                keep_a.append(a_idx[ok])
                keep_b.append(b_idx[ok])
            lo = hi

    have_pairs = id_vals is not None and pair_vals is not None
    B = 2048
    for ri in np.flatnonzero(live & (lens > _HOT_RUN)):
        s, L = int(starts[ri]), int(lens[ri])
        if have_pairs:
            run_ids = id_vals[s : s + L]  # sorted: t is sorted by (sh, id)
            pa_v, pb_v = pair_vals
            ia = np.searchsorted(run_ids, pa_v)
            ib = np.searchsorted(run_ids, pb_v)
            ia_ok = (ia < L) & (run_ids[np.minimum(ia, L - 1)] == pa_v)
            ib_ok = (ib < L) & (run_ids[np.minimum(ib, L - 1)] == pb_v)
            sel = np.flatnonzero(ia_ok & ib_ok)
            if len(sel):
                keep_a.append(s + ia[sel])
                keep_b.append(s + ib[sel])
            continue
        for i0 in range(0, L, B):
            ai = min(B, L - i0)
            ha = idh[s + i0 : s + i0 + ai]
            for j0 in range(i0, L, B):
                bj = min(B, L - j0)
                hb = idh[s + j0 : s + j0 + bj]
                hh = combine_hashes(
                    np.repeat(ha, bj), np.tile(hb, ai)
                )
                ok = _bloom_probe(hh, bits, m_bits, k_hashes)
                if j0 == i0:
                    ok &= (
                        np.repeat(np.arange(ai), bj) < np.tile(np.arange(bj), ai)
                    )
                hit = np.flatnonzero(ok)
                if len(hit):
                    keep_a.append(s + i0 + hit // bj)
                    keep_b.append(s + j0 + hit % bj)
    if not keep_a:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(keep_a), np.concatenate(keep_b)


def _shingle_pairs_reduce(max_df: int | None, pair_bloom_ref=None,
                          pair_m_bits: int = 1 << 25, pair_k: int = 4,
                          pair_vals_ref=None):
    """Reduce for the shingle exchange: sort by (sh, id), run-length
    the shingles, drop hot runs (df > max_df), emit locally-combined
    pair rows (a, b, na, nb, inter).

    ``pair_bloom_ref`` (object-store ref to a candidate-pair bloom
    bitmap) switches pair GENERATION to the bloom-pruned chunked path:
    non-candidate pairs are probed away before they are materialized.
    False positives only add partial rows, which the downstream marker
    join drops — exactness is unaffected."""

    def reduce_fn(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], type=pa.int64()),
                "b": pa.array([], type=pa.int64()),
                "na": pa.array([], type=pa.int64()),
                "nb": pa.array([], type=pa.int64()),
                "inter": pa.array([], type=pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        t = t.sort_by([("sh", "ascending"), ("id", "ascending")]).combine_chunks()
        starts, lens = run_bounds(t["sh"].combine_chunks())
        keep = lens >= 2
        if max_df is not None:
            hot = lens > max_df
            if hot.any():
                print(
                    f"[ngram_jaccard] dropped {int(hot.sum())} hot shingles "
                    f"(df > {max_df}; max df {int(lens.max())})"
                )
            keep &= ~hot
        if pair_bloom_ref is not None:
            import ray

            from .exchange import routing_hash

            bits = ray.get(pair_bloom_ref)
            idh = routing_hash(t["id"])
            id_vals = pair_vals = None
            if pair_vals_ref is not None:
                pair_vals = ray.get(pair_vals_ref)
                id_vals = t["id"].to_numpy(zero_copy_only=False)
            starts2, lens2 = starts.copy(), lens.copy()
            lens2[~keep] = 0
            a_idx, b_idx = _bloom_filtered_pairs(
                idh, starts2, lens2, bits, pair_m_bits, pair_k,
                id_vals=id_vals, pair_vals=pair_vals,
            )
        else:
            a_idx, b_idx = _pair_indices(starts[keep], lens[keep])
        if len(a_idx) == 0:
            return empty
        ids = t["id"].combine_chunks()
        nsh = t["nsh"].combine_chunks()
        pairs = pa.table(
            {
                "a": pc.take(ids, pa.array(a_idx)),
                "b": pc.take(ids, pa.array(b_idx)),
                "na": pc.take(nsh, pa.array(a_idx)),
                "nb": pc.take(nsh, pa.array(b_idx)),
                "one": pa.array(np.ones(len(a_idx), dtype=np.int64)),
            }
        )
        g = pairs.group_by(["a", "b"], use_threads=False).aggregate(
            [("one", "sum"), ("na", "min"), ("nb", "min")]
        )
        return pa.table(
            {
                "a": g["a"],
                "b": g["b"],
                "na": g["na_min"],
                "nb": g["nb_min"],
                "inter": g["one_sum"].cast(pa.int64()),
            }
        )

    return reduce_fn


# per-pair scores from the global intersection and the riding sizes,
# keyed by their output column
_PAIR_SCORES = {
    "jaccard": lambda inter, na, nb: inter / (na + nb - inter),
    "containment": lambda inter, na, nb: inter / np.minimum(na, nb),
}


def _pair_agg_reduce(min_inter: int | None, score: str = "jaccard",
                     min_score: float | None = None):
    """Reduce for the pair exchange: global (a, b) sums, then the
    ``score`` column (a :data:`_PAIR_SCORES` key) rounded half-up to
    6 dp; keeps inter >= ``min_inter`` and score >= ``min_score``."""

    def reduce_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "inter": pa.array([], type=pa.int64()),
                    score: pa.array([], type=pa.float64()),
                }
            )
        g = t.group_by(["a", "b"], use_threads=False).aggregate(
            [("inter", "sum"), ("na", "min"), ("nb", "min")]
        )
        inter = g["inter_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = g["na_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = g["nb_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        val = _round6_up(_PAIR_SCORES[score](inter, na, nb))
        keep = np.ones(len(inter), dtype=bool)
        if min_inter is not None:
            keep &= inter >= min_inter
        if min_score is not None:
            keep &= val >= min_score
        ka = pa.array(keep)
        return pa.table(
            {
                "a": g["a"].filter(ka),
                "b": g["b"].filter(ka),
                "inter": pa.array(inter[keep]),
                score: pa.array(val[keep]),
            }
        )

    return reduce_fn


def _shingle_pair_scores(exploded, max_df: int | None, num_parts: int,
                         min_inter: int | None, score: str = "jaccard",
                         min_score: float | None = None):
    """The two shingle exchanges over exploded (id, sh, nsh) rows: by
    sh, within-run pair partials with hot runs dropped; then by (a, b),
    global sums scored by :func:`_pair_agg_reduce`."""
    st: dict = {}
    partial = spill_exchange(
        exploded, "sh", _shingle_pairs_reduce(max_df), num_parts=num_parts, stats=st
    )
    return spill_exchange(
        partial, ["a", "b"], _pair_agg_reduce(min_inter, score, min_score),
        num_parts=num_parts, cleanup_after=[st["root"]],
    )


def ngram_jaccard_pairs(ds, n: int = 3, min_inter: int = 5, text_col: str = "text",
                        id_col: str = "doc_id", max_df: int = 1000,
                        num_parts: int = 32):
    """Exact token n-gram Jaccard via a shingle inverted index.

    Two spill exchanges, no joins, no driver passes:
      explode (id, sh, nsh)  →  exchange by sh: within-run pairs
      (a, b, na, nb, 1), locally combined  →  exchange by (a, b):
      global intersection sums + Jaccard from the riding sizes.

    ``max_df`` drops shingles shared by more than that many docs before
    pairing (the O(df²) guard); it is part of the operator semantics and
    the SQL oracle applies the same cap.  SQL-expressible;
    oracle-checked in pipelines/driver_queries.py.
    """
    exploded = ds.map_batches(
        lambda b: doc_shingles(b, text_col, id_col, n), batch_format="pyarrow"
    )
    return _shingle_pair_scores(exploded, max_df, num_parts, min_inter)


def containment_pairs(ds, n: int = 3, threshold: float = 0.5,
                      min_inter: int = 1, text_col: str = "text",
                      id_col: str = "doc_id", max_df: int = 1000,
                      num_parts: int = 32):
    """Exact n-gram CONTAINMENT pairs — the asymmetric sibling of
    :func:`ngram_jaccard_pairs` for near-SUPERSET detection: a doc
    embedded verbatim in a much larger one scores low Jaccard (the
    union is large) but containment inter/min(|A|,|B|) ≈ 1 (Broder
    1997's containment coefficient).  Same two-exchange shape and
    ``max_df`` hot-shingle guard; only the final per-pair score
    differs.  SQL-expressible; oracle-checked in
    pipelines/driver_queries.py (gate ``containment_dup``)."""
    exploded = ds.map_batches(
        lambda b: doc_shingles(b, text_col, id_col, n), batch_format="pyarrow"
    )
    return _shingle_pair_scores(exploded, max_df, num_parts, min_inter,
                                "containment", threshold)


def winnow_fingerprint_rows(batch: pa.Table, text_col: str, id_col: str,
                            k: int, w: int) -> pa.Table:
    """Winnowing fingerprints per doc (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS local document fingerprinting algorithm):
    hash every k-token gram (md5-low64, the ``md5_number_lower``
    mirror), slide a window of ``w`` consecutive gram hashes, and
    record the minimum hash of each window.  Guarantee: any shared run
    of w+k-1 tokens between two documents yields at least one shared
    fingerprint, while only ~2/(w+1) of grams are kept — a
    density-bounded LOCAL fingerprint (position-sensitive, unlike
    minhash's global set sketch).  Since the output fingerprint set is
    the DISTINCT selected hashes, the classic rightmost tie-break is
    value-irrelevant (tied window minima are equal hashes) and the
    whole selection vectorizes as w shifted ``np.minimum`` passes.

    Docs with fewer than w grams (fewer than w+k-1 tokens) emit no
    fingerprints — windows are full-width only, mirroring the SQL
    oracle's ``s <= n_grams - w + 1`` frame.

    Output rows ``(id, sh, nsh)``: one row per distinct fingerprint
    hash per doc, with the doc's total distinct fingerprint count
    riding every row (downstream pair construction needs no size join —
    same contract as :func:`doc_shingles`)."""
    empty = pa.table({
        "id": pa.array([], type=pa.int64()),
        "sh": pa.array([], type=pa.uint64()),
        "nsh": pa.array([], type=pa.int64()),
    })
    parents, _pos, terms, nrows = flat_tokens(batch[text_col])
    if nrows == 0:
        return empty
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    L = len(parents)
    G = L - k + 1
    if G <= 0:
        return empty
    grams = pc.binary_join_element_wise(*[terms.slice(j, G) for j in range(k)], " ")
    gvalid = parents[:G] == parents[k - 1: k - 1 + G]
    gp = parents[:G][gvalid]
    hv = md5_digests(grams.filter(pa.array(gvalid))).view("<u8")[:, 1]
    M = len(gp) - w + 1
    if M <= 0:
        return empty
    wvalid = gp[:M] == gp[w - 1: w - 1 + M]
    minv = hv[:M].copy()
    for j in range(1, w):
        np.minimum(minv, hv[j: j + M], out=minv)
    t = pa.table({"p": pa.array(gp[:M][wvalid]), "sh": pa.array(minv[wvalid])})
    d = t.group_by(["p", "sh"], use_threads=False).aggregate([])
    counts = np.zeros(nrows, dtype=np.int64)
    cc = d.group_by("p", use_threads=False).aggregate([([], "count_all")])
    counts[cc["p"].to_numpy(zero_copy_only=False)] = cc["count_all"].to_numpy(
        zero_copy_only=False
    )
    p_out = d["p"].to_numpy(zero_copy_only=False)
    return pa.table({
        "id": pc.take(ids, d["p"]).cast(pa.int64()),
        "sh": d["sh"],
        "nsh": pa.array(counts[p_out]),
    })


def winnow_pairs(ds, *, k: int = 3, w: int = 4, min_shared: int = 2,
                 text_col: str = "text", id_col: str = "doc_id",
                 max_df: int = 1000, num_parts: int = 32):
    """Near-duplicate pairs by shared winnowing fingerprints — the MOSS
    similarity criterion: docs sharing >= ``min_shared`` distinct
    winnowed gram hashes, with the Jaccard of their fingerprint SETS.
    Catches localized clone/boilerplate overlap (a shared w+k-1-token
    run always collides) at ~2/(w+1) of the full-shingle exchange
    volume — winnowing is the bandwidth-reduced sibling of
    :func:`ngram_jaccard_pairs`.

    Same two-spill-exchange shape as ngram_jaccard_pairs (explode →
    exchange by fingerprint: within-run pairs, locally combined →
    exchange by (a, b): global sums); ``max_df`` drops fingerprints
    shared by more than that many docs before pairing (the O(df²)
    guard, part of the operator semantics, mirrored by the oracle).
    SQL-expressible; oracle-checked in pipelines/driver_queries.py."""
    exploded = ds.map_batches(
        lambda b: winnow_fingerprint_rows(b, text_col, id_col, k, w),
        batch_format="pyarrow",
    )
    return _shingle_pair_scores(exploded, max_df, num_parts, min_shared)


def exact_jaccard_for_pair_ds(ds, cand, threshold: float, n: int = 3,
                              text_col: str = "text", id_col: str = "doc_id",
                              num_parts: int = 32,
                              m_bits: int = 1 << 20, k_hashes: int = 4,
                              cleanup_after: list[str] | None = None):
    """Exact distinct-shingle Jaccard for a candidate-pair DATASET
    (columns ``a``, ``b``; duplicate rows allowed), keeping pairs with
    jaccard >= ``threshold`` — the verification stage after LSH
    candidate generation.  The result carries its (a, b, inter,
    jaccard) schema even when no pair survives.  Nothing pair-sized
    ever reaches the driver, so a pathological corpus where every doc
    is a near-dup (candidates ≫ driver RAM) still verifies in bounded
    driver memory:

    1. a Bloom filter of the candidate ids is built distributed (each
       candidate batch sends one m/8-byte bitmap row; the driver ORs
       bitmaps — fixed size regardless of candidate count);
    2. corpus batches drop bloom-NEGATIVE docs locally (a bloom has no
       false negatives) and shingle only the surviving sliver;
    3. the shingle exchange emits within-run co-shingle pair partials
       (a, b, na, nb, inter), generating pairs through a CANDIDATE-PAIR
       bloom (built alongside the id bloom) so a hot shingle shared by
       df candidate docs costs df²/2 probes but only true-pair + fp
       ROWS — without it, template shingles at 878k docs materialized
       tens of GB of non-candidate pair rows per reduce task;
    4. the (a, b) exchange unions those partials with candidate MARKER
       rows and keeps only marker-covered groups — the exact pair
       filter, as a join instead of a broadcast keyset.
    """
    import ray.data as rd

    from .exchange import routing_hash
    from .joins import _bloom_positions

    nbytes = (m_bits + 7) // 8
    out_schema = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("inter", pa.int64()),
            ("jaccard", pa.float64()),
        ]
    )
    # candidates are consumed twice (bloom build + markers): materialize
    # once so the LSH reduce doesn't re-run — output-sized blocks in the
    # object store, never on the driver
    cand = cand.materialize()
    if cand.count() == 0:
        # no candidates (clean corpus): nothing to verify — skip the
        # bloom/exchange machinery whose empty-union schema is undefined
        import shutil

        for r in cleanup_after or []:
            shutil.rmtree(r, ignore_errors=True)
        return rd.from_arrow(out_schema.empty_table())

    pair_m_bits = 1 << 25  # 4 MiB pair bloom; fp ~1e-5 at ~5e5 pairs
    pair_nbytes = pair_m_bits // 8

    def build_bloom(b: pa.Table) -> pa.Table:
        bits = np.zeros(nbytes, dtype=np.uint8)
        pbits = np.zeros(pair_nbytes, dtype=np.uint8)
        if b.num_rows:
            ha, hb = routing_hash(b["a"]), routing_hash(b["b"])
            pos = _bloom_positions(np.concatenate([ha, hb]), m_bits, k_hashes).ravel()
            np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
            ppos = _bloom_positions(combine_hashes(ha, hb), pair_m_bits, k_hashes).ravel()
            np.bitwise_or.at(pbits, ppos >> 3, np.uint8(1) << (ppos & 7).astype(np.uint8))
        return pa.table({
            "bits": pa.array([bits.tobytes()], type=pa.binary()),
            "pbits": pa.array([pbits.tobytes()], type=pa.binary()),
        })

    import ray

    from .joins import bloom_or_tree

    # distributed OR tree-reduce (VERDICT r4 item 5): the per-batch
    # bloom blobs are OR'd where they live — the driver holds only the
    # two final ObjectRefs, never a bitmap byte
    bref, pbref = bloom_or_tree(
        cand.map_batches(build_bloom, batch_format="pyarrow"),
        ["bits", "pbits"], {"bits": nbytes, "pbits": pair_nbytes},
    )

    # hot-shingle guard, exact flavor: when the pair list is BOUNDED
    # (<= cap) and ids are integers, broadcast the deduped (a, b) value
    # arrays so reduce tasks flip hot runs from df²/2 bloom probes to
    # O(P log df) searchsorted — the straggler killer.  Above the cap
    # (the adversarial every-doc-a-dup regime) verification falls back
    # to bloom probing and the driver still never holds the pair list.
    pvref = None
    _PAIR_FETCH_CAP = 5_000_000
    sch = cand.schema()
    a_t = sch.types[sch.names.index("a")]
    if pa.types.is_integer(a_t) and 0 < cand.count() <= _PAIR_FETCH_CAP:
        pdf = cand.to_pandas()
        pa_v = pdf["a"].to_numpy(dtype=np.int64, copy=True)
        pb_v = pdf["b"].to_numpy(dtype=np.int64, copy=True)
        order = np.lexsort((pb_v, pa_v))
        pa_v, pb_v = pa_v[order], pb_v[order]
        first = np.empty(len(pa_v), dtype=bool)
        if len(pa_v):
            first[0] = True
            first[1:] = (pa_v[1:] != pa_v[:-1]) | (pb_v[1:] != pb_v[:-1])
        pvref = ray.put((pa_v[first], pb_v[first]))

    def explode(b: pa.Table) -> pa.Table:
        import ray as _r

        if b.num_rows:
            bm = _r.get(bref)
            pos = _bloom_positions(routing_hash(b[id_col]), m_bits, k_hashes)
            hit = ((bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
            b = b.filter(pa.array(hit))
        return doc_shingles(b, text_col, id_col, n)

    st: dict = {}
    partial = spill_exchange(
        ds.map_batches(explode, batch_format="pyarrow"), "sh",
        _shingle_pairs_reduce(None, pair_bloom_ref=pbref,
                              pair_m_bits=pair_m_bits, pair_k=k_hashes,
                              pair_vals_ref=pvref),
        num_parts=num_parts, stats=st,
    )

    def tag_partial(t: pa.Table) -> pa.Table:
        return t.append_column("is_cand", pa.array(np.zeros(t.num_rows, dtype=np.int8)))

    def tag_marker(t: pa.Table) -> pa.Table:
        m = t.num_rows
        big = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        return pa.table(
            {
                "a": t["a"],
                "b": t["b"],
                "na": pa.array(big),
                "nb": pa.array(big),
                "inter": pa.array(np.zeros(m, dtype=np.int64)),
                "is_cand": pa.array(np.ones(m, dtype=np.int8)),
            }
        )

    def marked_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = t.group_by(["a", "b"], use_threads=False).aggregate(
            [("inter", "sum"), ("na", "min"), ("nb", "min"), ("is_cand", "max")]
        )
        inter = g["inter_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = g["na_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = g["nb_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_c = g["is_cand_max"].to_numpy(zero_copy_only=False)
        # keep candidate pairs that share >= 1 shingle (same rows the
        # keyset-filtered path produced: non-candidates out, zero-
        # intersection candidates produce no partial row there either)
        # and reach the threshold
        jac = _round6_up(inter / np.maximum(na + nb - inter, 1))
        keep = (is_c >= 1) & (inter >= 1) & (jac >= threshold)
        ka = pa.array(keep)
        return pa.table(
            {
                "a": g["a"].filter(ka),
                "b": g["b"].filter(ka),
                "inter": pa.array(inter[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    markers = cand.map_batches(tag_marker, batch_format="pyarrow")
    unioned = partial.map_batches(tag_partial, batch_format="pyarrow").union(markers)
    roots = [st["root"]] + (cleanup_after or [])
    return spill_exchange(unioned, ["a", "b"], marked_reduce,
                          num_parts=num_parts, cleanup_after=roots)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

def _token_hashes(batch: pa.Table, text_col: str):
    """md5-low64 hash of every token of the flat token stream, each
    distinct term hashed once.  Returns (parent doc per token, uint64
    hashes, doc count)."""
    parents, _pos, terms, n = flat_tokens(batch[text_col])
    tcodes = terms.dictionary_encode()
    codes = tcodes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uh = md5_digests(tcodes.dictionary).view("<u8")[:, 1]
    th = uh[codes] if len(codes) else np.zeros(0, dtype=np.uint64)
    return parents, th, n


def _window_hashes(parents: np.ndarray, th: np.ndarray, k: int):
    """Hash of every k-token window inside one doc: token j of the
    window rotated left by j bits, all xor-ed.  Returns (uint64 hashes,
    parent doc per window)."""
    W = len(th) - k + 1
    if W <= 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    sh = np.zeros(W, dtype=np.uint64)
    for j in range(k):
        c = th[j : j + W]
        sh ^= ((c << np.uint64(j)) | (c >> np.uint64(64 - j))) if j else c
    valid = parents[:W] == parents[k - 1 : k - 1 + W]
    return sh[valid], parents[:W][valid]


def _rolling_shingle_hashes(batch: pa.Table, text_col: str, k: int):
    """k-token rolling shingle hashes per doc, vectorized over the flat
    token stream (:func:`_token_hashes`, :func:`_window_hashes`).
    Returns (flat uint64 hashes, per-doc offsets, token counts)."""
    parents, th, n = _token_hashes(batch, text_col)
    counts = np.bincount(parents, minlength=n) if len(parents) else np.zeros(n, dtype=np.int64)
    sh, sh_par = _window_hashes(parents, th, k)
    # short docs (0 < tokens < k): one xor-combined shingle of all tokens
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    short = np.flatnonzero((counts > 0) & (counts < k))
    parts_flat = [sh]
    parts_par = [sh_par]
    if len(short):
        sxor = np.array(
            [np.bitwise_xor.reduce(th[offs[d] : offs[d + 1]]) for d in short],
            dtype=np.uint64,
        )
        parts_flat.append(sxor)
        parts_par.append(short)
    flat = np.concatenate(parts_flat)
    par = np.concatenate(parts_par)
    order = np.argsort(par, kind="stable")
    flat, par = flat[order], par[order]
    sh_counts = np.bincount(par, minlength=n)
    sh_offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=sh_offs[1:])
    return flat, sh_offs, counts


def minhash_signatures(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id",
                       num_perm: int = 64, k: int = 5) -> pa.Table:
    """Per-doc minhash signature (num_perm x uint64) — one affine
    transform + ``minimum.reduceat`` over the flat shingle stream per
    permutation."""
    flat, offs, _counts = _rolling_shingle_hashes(batch, text_col, k)
    n = batch.num_rows
    a, b = _perm_params(num_perm)
    sigs = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(flat):
        nonempty = np.flatnonzero(np.diff(offs) > 0)
        starts = offs[nonempty]
        for p in range(num_perm):
            hv = (a[p] * flat + b[p]) % _P
            sigs[nonempty, p] = np.minimum.reduceat(hv, starts)
    return pa.table(
        {
            id_col: batch[id_col],
            "sig": pa.array(list(sigs), type=pa.list_(pa.uint64(), num_perm)),
        }
    )


def _band_hashes(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint64 band keys: splitmix-chain over each band's
    signature rows (vectorized; collisions only add false candidates,
    which exact verification prunes)."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    seg = sigs.reshape(n, bands, r)
    acc = seg[:, :, 0].copy()
    for j in range(1, r):
        acc = combine_hashes(acc.ravel(), seg[:, :, j].ravel()).reshape(n, bands)
    return acc


_HOT_RUN = 2048          # bucket runs longer than this pre-filter blockwise
_PAIR_CHUNK = 4_000_000  # max candidate pairs materialized at once


def _fsb_bytes(arr, width: int) -> np.ndarray:
    """(n, width) uint8 view of a fixed_size_binary Arrow array."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    raw = np.frombuffer(arr.buffers()[1], dtype=np.uint8)
    return raw[arr.offset * width : (arr.offset + len(arr)) * width].reshape(-1, width)


def _filtered_run_pairs(sigb: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                        min_agree: int) -> tuple[np.ndarray, np.ndarray]:
    """Within-run index pairs (i < j) whose signature sketches agree on
    >= ``min_agree`` of the sketch bytes — the LSH hot-bucket guard.

    Never materializes more than ~``_PAIR_CHUNK`` pair indices at once:
    small runs are batched through :func:`_pair_indices` under a pair
    budget; runs longer than ``_HOT_RUN`` are compared blockwise (the
    agreement matrix is accumulated one sketch-byte position at a time,
    so peak temp is one (B, B) int16 block, not (B, B, width))."""
    width = sigb.shape[1]
    keep_a: list[np.ndarray] = []
    keep_b: list[np.ndarray] = []

    live = lens >= 2
    small = live & (lens <= _HOT_RUN)
    s_starts, s_lens = starts[small], lens[small]
    if len(s_starts):
        ppr = s_lens * (s_lens - 1) // 2
        cum = np.cumsum(ppr)
        lo = 0
        while lo < len(s_starts):
            hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + _PAIR_CHUNK))
            hi = max(hi, lo + 1)
            a_idx, b_idx = _pair_indices(s_starts[lo:hi], s_lens[lo:hi])
            if len(a_idx):
                agree = (sigb[a_idx] == sigb[b_idx]).sum(axis=1)
                ok = agree >= min_agree
                keep_a.append(a_idx[ok])
                keep_b.append(b_idx[ok])
            lo = hi

    B = 4096
    for ri in np.flatnonzero(live & (lens > _HOT_RUN)):
        s, L = int(starts[ri]), int(lens[ri])
        for i0 in range(0, L, B):
            ai = min(B, L - i0)
            A = sigb[s + i0 : s + i0 + ai]
            for j0 in range(i0, L, B):
                bj = min(B, L - j0)
                Bv = sigb[s + j0 : s + j0 + bj]
                ag = np.zeros((ai, bj), dtype=np.int16)
                for p in range(width):
                    ag += A[:, p, None] == Bv[None, :, p]
                hit = ag >= min_agree
                if j0 == i0:  # upper triangle only
                    hit &= np.arange(ai)[:, None] < np.arange(bj)[None, :]
                ii, jj = np.nonzero(hit)
                if len(ii):
                    keep_a.append(s + i0 + ii.astype(np.int64))
                    keep_b.append(s + j0 + jj.astype(np.int64))
    if not keep_a:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(keep_a), np.concatenate(keep_b)


# ---------------------------------------------------------------------------
# banded LSH: one skeleton for MinHash, SimHash and SRP
# ---------------------------------------------------------------------------

def _band_rows(keys: np.ndarray, ids: pa.Array, **per_doc: pa.Array) -> pa.Table:
    """One (band, bhash, id, *per_doc) row per (doc, band): the exploded
    unit of every banded-LSH exchange.  ``keys`` is the (n, bands)
    uint64 band-key matrix; ``ids`` and every ``per_doc`` column hold n
    rows and repeat across the doc's bands."""
    n, bands = keys.shape
    rep = pa.array(np.repeat(np.arange(n), bands))
    return pa.table({
        "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
        "bhash": pa.array(keys.reshape(-1)),
        "id": pc.take(ids, rep),
        **{c: pc.take(v, rep) for c, v in per_doc.items()},
    })


def _bucket_runs(t: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Sort one (band, bhash) exchange partition by (combined band key,
    id) and run-length it: each run is one LSH bucket, ids ascending."""
    k = combine_hashes(
        t["band"].to_numpy(zero_copy_only=False).astype(np.uint64),
        t["bhash"].to_numpy(zero_copy_only=False).astype(np.uint64),
    )
    order = pc.sort_indices(
        pa.table({"k": k, "id": t["id"]}),
        sort_keys=[("k", "ascending"), ("id", "ascending")],
    )
    starts, lens = run_bounds(k[order.to_numpy()])
    return t.take(order).combine_chunks(), starts, lens


def _min_per_pair(t: pa.Table, col: str | None = None) -> pa.Table:
    """Collapse (a, b) rows (one per shared band) to one, keeping the
    minimum ``col``; with no score column, the distinct (a, b)."""
    if t.num_rows == 0:
        return t
    g = t.group_by(["a", "b"], use_threads=False).aggregate(
        [(col, "min")] if col else []
    )
    if col is None:
        return g
    return pa.table({"a": g["a"], "b": g["b"], col: g[f"{col}_min"]})


def _banded_pairs(rows, num_parts: int, score, score_field: pa.Field):
    """Scored pairs from exploded band rows.  The (band, bhash) exchange
    pairs every two rows of a bucket run (i < j in (key, id) order),
    scores them with ``score(t, a_idx, b_idx) -> (values, keep)`` and
    keeps each pair's minimum ``score_field`` within the partition;
    an (a, b) exchange then keeps the minimum across partitions."""
    empty = pa.schema([("a", pa.int64()), ("b", pa.int64()), score_field]).empty_table()

    def bucket_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        t, starts, lens = _bucket_runs(t)
        a_idx, b_idx = _pair_indices(starts[lens >= 2], lens[lens >= 2])
        vals, keep = score(t, a_idx, b_idx)
        if not keep.any():
            return empty
        ids = t["id"]
        pairs = pa.table({
            "a": pc.take(ids, pa.array(a_idx[keep])),
            "b": pc.take(ids, pa.array(b_idx[keep])),
            score_field.name: pa.array(vals[keep]),
        })
        return _min_per_pair(pairs, score_field.name)

    st: dict = {}
    cands = spill_exchange(
        rows, ["band", "bhash"], bucket_reduce, num_parts=num_parts, stats=st
    )
    return spill_exchange(
        cands, ["a", "b"], lambda t: _min_per_pair(t, score_field.name),
        num_parts=num_parts, cleanup_after=[st["root"]],
    )


def _minhash_band_rows(batch: pa.Table, text_col: str, id_col: str,
                       num_perm: int, bands: int, k: int) -> pa.Table:
    """(band, bhash, id, sig8) rows for one batch — the exploded unit of
    :func:`minhash_dedup_pairs` and the persisted and probed unit of the
    incremental index.  ``sig8`` is the low byte of each minhash value,
    the sketch the hot-bucket guard compares.  Ids are cast to int64,
    the contract of every caller."""
    sigt = minhash_signatures(batch, text_col, id_col, num_perm, k)
    sigs = np.asarray(sigt["sig"].combine_chunks().flatten()).reshape(-1, num_perm)
    # all-max sentinel = doc with no shingles: must not pair
    sel = np.flatnonzero(~(sigs == np.iinfo(np.uint64).max).all(axis=1))
    sk = (sigs[sel] & np.uint64(0xFF)).astype(np.uint8)
    return _band_rows(
        _band_hashes(sigs[sel].astype(np.uint64), bands),
        pc.take(sigt[id_col].combine_chunks().cast(pa.int64()), pa.array(sel)),
        sig8=pa.Array.from_buffers(
            pa.binary(num_perm), len(sel), [None, pa.py_buffer(sk.tobytes())]
        ),
    )


def _sketch_min_agree(num_perm: int, threshold: float) -> int:
    """Sketch bytes a candidate pair must share to survive the
    hot-bucket guard: ``num_perm`` x ``threshold / 2``, rounded up."""
    return int(np.ceil(num_perm * (threshold / 2.0)))


def minhash_dedup_pairs(ds, threshold: float = 0.5, k: int = 3,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_perm: int = 64, bands: int = 32,
                        num_parts: int = 32):
    """Near-dup pairs by MinHash+LSH with exact verification: candidate
    pairs from banded LSH, exact distinct-shingle Jaccard computed for
    each candidate, keep jaccard >= threshold.

    explode (band, bhash, id, sig8) → exchange by (band, bhash):
    sketch-filtered within-bucket pairs → exact verification.

    With bands=32 (r=2) the probability of missing a pair at
    jaccard >= 0.5 is (1 - j^2)^32 <= 7e-5 — and the whole pipeline is
    deterministic (seeded hashers), so the output is stable across runs
    and layouts.  Every emitted row satisfies the exact SQL predicate,
    which is how the driver oracle checks it.

    CONTRACT: ``id_col`` holds int64 ids, and each id must uniquely
    identify a text.  One id mapping to several different texts makes
    per-doc sizes (na/nb) ill-defined and the output
    partition-layout-dependent (observed on a corpus whose derived ids
    collided) — dedupe or re-key upstream first.

    HOT-BUCKET GUARD: the bucket reduce drops within-run pairs whose
    ``sig8`` sketches (the low byte of each minhash value) agree on
    fewer than ceil(num_perm * threshold / 2) positions BEFORE they
    become rows.  Rationale (measured on the 878k synthetic code
    corpus): template code makes r=2 band
    buckets of 10^3-10^4 docs whose pairwise Jaccard is 0.03-0.12 —
    all-pairs expansion is ~1.7e9 candidate rows and killed the reduce
    task, while a sketch cutoff at est >= 0.25 keeps 8e-5 of hot-bucket
    pairs and 2.8e-3 of small-bucket pairs.  With num_perm=64 a TRUE
    pair at j >= 0.5 is dropped with prob P[Binom(64, ~0.5) < 16] ≈
    2e-5 — below the banding's own miss probability, and deterministic,
    so oracle parity is preserved.  Sketch byte collisions (1/256 per
    non-equal value) only bias TOWARD keeping.

    Candidates stay a DATASET end-to-end: verification routes them
    through :func:`exact_jaccard_for_pair_ds` (bloom id filter + marker
    join), so the driver never holds the pair list — a corpus where
    every doc is a near-dup verifies in bounded driver memory.  Its
    marker join also collapses the candidates' cross-band duplicates,
    so no distinct exchange runs."""
    min_agree = _sketch_min_agree(num_perm, threshold)

    def bucket_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64())})
        t, starts, lens = _bucket_runs(t)
        a_idx, b_idx = _filtered_run_pairs(
            _fsb_bytes(t["sig8"], num_perm), starts, lens, min_agree
        )
        ids = t["id"]
        return _min_per_pair(pa.table(
            {"a": pc.take(ids, pa.array(a_idx)), "b": pc.take(ids, pa.array(b_idx))}
        ))

    st: dict = {}
    cand = spill_exchange(
        ds.map_batches(
            lambda b: _minhash_band_rows(b, text_col, id_col, num_perm, bands, k),
            batch_format="pyarrow",
        ),
        ["band", "bhash"], bucket_reduce, num_parts=num_parts, stats=st,
    )
    return exact_jaccard_for_pair_ds(
        ds, cand, threshold, n=k, text_col=text_col, id_col=id_col,
        num_parts=num_parts, cleanup_after=[st["root"]],
    )


# ---------------------------------------------------------------------------
# incremental near-dup: persisted minhash band index + probe
# ---------------------------------------------------------------------------
#
# The daily-ingest path of a production curation pipeline: the corpus's
# banded minhash signatures are persisted ONCE as hash-partitioned
# parquet (the IVF-bucket pattern from functions/similarity.py), and
# each new batch of documents probes only the partitions its own band
# hashes route to — the corpus text is never re-shingled, and the
# corpus side of the LSH exchange is never recomputed.  This is the
# near-dup analog of the reference's incremental claim sync
# (/root/reference/app/jobs/chainquery/chainquery.go:94-166: new rows
# are synced against the EXISTING index, not a rebuild).


def _doc_shingle_hash_sets(batch: pa.Table, text_col: str, k: int):
    """Per-doc SORTED DISTINCT k-shingle hashes, string-set semantics:
    only valid full windows count (docs with < k tokens have the empty
    set, exactly like :func:`doc_shingles` — the synthetic short-doc
    shingle that minhash signatures use is excluded).  Returns
    (flat sorted-distinct uint64 hashes, per-doc offsets)."""
    parents, th, n = _token_hashes(batch, text_col)
    sh, par = _window_hashes(parents, th, k)
    # sort by (doc, hash) then drop per-doc duplicates
    order = np.lexsort((sh, par))
    sh, par = sh[order], par[order]
    if len(sh):
        keep = np.empty(len(sh), dtype=bool)
        keep[0] = True
        np.logical_or(par[1:] != par[:-1], sh[1:] != sh[:-1], out=keep[1:])
        sh, par = sh[keep], par[keep]
    counts = np.bincount(par, minlength=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    return sh, offs


def _cross_pair_indices(pstarts, plens, sstarts, slens) -> tuple[np.ndarray, np.ndarray]:
    """Cross-side index pairs for matched runs: every probe row of run r
    pairs with every stored row of the matching stored run (vectorized
    across runs, the cross sibling of :func:`_pair_indices`)."""
    counts = (plens * slens).astype(np.int64)
    M = int(counts.sum())
    if M == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    run_of_pair = np.repeat(np.arange(len(counts)), counts)
    cum = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    off = np.arange(M, dtype=np.int64) - cum[run_of_pair]
    sl = slens[run_of_pair]
    ai = pstarts[run_of_pair] + off // sl
    bi = sstarts[run_of_pair] + off % sl
    return ai, bi


def minhash_index_write(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = 64,
                        bands: int = 32, k: int = 3, num_parts: int = 32) -> dict:
    """Persist a corpus's banded minhash signatures as a PROBE-ABLE
    index: one map pass computes (band, bhash, id, sig8) rows and
    spills them hash-partitioned by (band, bhash) — ``part =
    combine_hashes(routing_hash(band), routing_hash(bhash)) %
    num_parts``, the exact :class:`_SpillMap` routing, so a probe
    recomputes the partition from its own rows.  ``meta.json`` (written
    atomically LAST, so its presence marks the index complete) records
    the parameters and the per-partition file manifest — probes read
    only manifest-listed files, making the write idempotent under task
    retries.  No shuffle: the index is exactly one map pass over the
    corpus, O(corpus) work, O(num_perm x bands) bytes per doc.

    The same pass also persists each doc's sorted distinct shingle-hash
    set (string-window semantics, :func:`_doc_shingle_hash_sets`)
    partitioned by ``routing_hash(id) % num_parts`` — the probe
    exact-verifies candidates from the stored sets and NEVER touches
    corpus text.  Ids are int64."""
    import json

    from .exchange import _SpillMap

    sig_root = os.path.join(index_dir, "sig")
    sh_root = os.path.join(index_dir, "shingles")
    os.makedirs(sig_root, exist_ok=True)
    os.makedirs(sh_root, exist_ok=True)
    sig_spill = _SpillMap(["band", "bhash"], num_parts, sig_root)
    sh_spill = _SpillMap("id", num_parts, sh_root)

    def explode(b: pa.Table) -> pa.Table:
        rows = sig_spill(_minhash_band_rows(b, text_col, id_col, num_perm, bands, k))
        rows = rows.append_column(
            "kind", pa.array(["sig"] * rows.num_rows, type=pa.string())
        )
        flat, offs = _doc_shingle_hash_sets(b, text_col, k)
        nsh = np.diff(offs)
        blob_offs = (offs * 8).astype(np.int64)
        sh_tbl = pa.table({
            "id": b[id_col].cast(pa.int64()) if b.num_rows else pa.array([], type=pa.int64()),
            "nsh": pa.array(nsh.astype(np.int64)),
            "blob": pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), b.num_rows,
                [None, pa.py_buffer(blob_offs.tobytes()), pa.py_buffer(flat.tobytes())],
            ),
        })
        rows2 = sh_spill(sh_tbl)
        rows2 = rows2.append_column(
            "kind", pa.array(["sh"] * rows2.num_rows, type=pa.string())
        )
        return pa.concat_tables([rows, rows2])

    manifest = ds.map_batches(explode, batch_format="pyarrow").take_all()
    part_files: dict[int, list[str]] = {}
    sh_files: dict[int, list[str]] = {}
    for r in manifest:
        p = int(r["part"])
        if p >= 0:
            (part_files if r["kind"] == "sig" else sh_files).setdefault(p, []).append(r["file"])
    meta = {
        "num_perm": num_perm, "bands": bands, "k": k, "num_parts": num_parts,
        "parts": {str(p): sorted(fs) for p, fs in part_files.items()},
        "shingle_parts": {str(p): sorted(fs) for p, fs in sh_files.items()},
    }
    atomic_write_bytes(
        os.path.join(index_dir, "meta.json"),
        json.dumps(meta, sort_keys=True).encode(),
    )
    return meta


def _stored_verify(new_ds, cand, index_dir: str, meta: dict, threshold: float,
                   *, text_col: str, id_col: str,
                   cleanup_after: list[str] | None = None):
    """Exact-verify candidate (a=new, b=corpus) pairs from the index's
    SHINGLE STORE: pairs exchange by b's store partition, each reduce
    reads only its partition's manifest-listed set files, and the probe
    batch's own sets ride a single probe-sized broadcast.  Corpus text
    is never read."""
    import ray

    from .exchange import routing_hash

    P = meta["num_parts"]
    k = meta["k"]
    sh_parts = {int(p): fs for p, fs in meta["shingle_parts"].items()}
    sh_root = os.path.join(index_dir, "shingles")
    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64()),
         ("jaccard", pa.float64())]
    )

    # probe-side sets: sorted distinct hashes per new doc, one broadcast
    new_sets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for b in new_ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        flat, offs = _doc_shingle_hash_sets(b, text_col, k)
        ids = b[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        new_sets.append((ids, offs, flat))
    all_ids = np.concatenate([s[0] for s in new_sets] or [np.zeros(0, dtype=np.int64)])
    order = np.argsort(all_ids, kind="stable")
    # flatten into (sorted ids, per-doc offsets, flat hashes)
    lens = np.concatenate([np.diff(s[1]) for s in new_sets] or [np.zeros(0, dtype=np.int64)])
    flats = [s[2] for s in new_sets]
    flat_all = np.concatenate(flats) if flats else np.zeros(0, dtype=np.uint64)
    # reorder per-doc slices by sorted id order
    starts = np.zeros(len(all_ids) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    sorted_ids = all_ids[order]
    sorted_lens = lens[order]
    soffs = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(sorted_lens, out=soffs[1:])
    sflat = np.empty(len(flat_all), dtype=np.uint64)
    pos = 0
    for j in order:
        ln = int(lens[j])
        sflat[pos:pos + ln] = flat_all[starts[j]:starts[j] + ln]
        pos += ln
    nref = ray.put((sorted_ids, soffs, sflat))

    def verify_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = int(routing_hash(t["b"])[0] % np.uint64(P))
        files = sh_parts.get(g)
        if not files:
            return out_schema.empty_table()
        s = pa.concat_tables(
            [pq.read_table(os.path.join(sh_root, f"part={g}", f)) for f in files]
        ).combine_chunks()
        t = t.group_by(["a", "b"], use_threads=False).aggregate([])
        av = t["a"].to_numpy(zero_copy_only=False)
        bv = t["b"].to_numpy(zero_copy_only=False)
        sid = s["id"].to_numpy(zero_copy_only=False)
        s_ord = np.argsort(sid, kind="stable")
        sid_s = sid[s_ord]
        blob = s["blob"].combine_chunks()
        boffs = np.frombuffer(blob.buffers()[1], dtype=np.int64)[
            blob.offset : blob.offset + len(blob) + 1
        ] // 8
        bflat = np.frombuffer(blob.buffers()[2], dtype=np.uint64)
        nsh_b = s["nsh"].to_numpy(zero_copy_only=False)

        import ray as _r

        pids, poffs, pflat = _r.get(nref)
        pa_pos = np.searchsorted(pids, av)
        sb_pos = np.searchsorted(sid_s, bv)
        n = len(av)
        inter = np.zeros(n, dtype=np.int64)
        na = np.zeros(n, dtype=np.int64)
        nb = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for j in range(n):  # pairs are output-sized; per-pair work is C-speed
            pi, si = int(pa_pos[j]), int(sb_pos[j])
            if pi >= len(pids) or pids[pi] != av[j]:
                continue
            if si >= len(sid_s) or sid_s[si] != bv[j]:
                continue
            srow = int(s_ord[si])
            A = pflat[poffs[pi]:poffs[pi + 1]]
            B = bflat[boffs[srow]:boffs[srow + 1]]
            na_j = int(poffs[pi + 1] - poffs[pi])
            if len(A) and len(B):
                small, big = (A, B) if len(A) <= len(B) else (B, A)
                hit = np.searchsorted(big, small)
                inb = hit < len(big)
                inter[j] = int((big[hit[inb]] == small[inb]).sum())
            na[j] = na_j
            nb[j] = int(nsh_b[srow])
            ok[j] = True
        jac = _round6_up(inter / np.maximum(na + nb - inter, 1))
        keep = ok & (inter >= 1) & (jac >= threshold)
        return pa.table(
            {
                "a": pa.array(av[keep]),
                "b": pa.array(bv[keep]),
                "inter": pa.array(inter[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return spill_exchange(cand, "b", verify_reduce, num_parts=P,
                          cleanup_after=cleanup_after)


def minhash_index_probe(new_ds, index_dir: str, *, threshold: float = 0.5,
                        text_col: str = "text", id_col: str = "doc_id"):
    """Near-dup pairs (a=new doc, b=corpus doc) of a NEW batch against a
    persisted :func:`minhash_index_write` index, exact-verified.

    1. the new batch (typically ≪ corpus) explodes to (band, bhash, id,
       sig8) rows and is exchanged by the index's own partition
       function;
    2. each reduce task reads ONLY its partition's manifest-listed
       signature files, sorts both sides by the combined band-hash key,
       and emits cross-side candidate pairs per matching key run —
       pre-filtered by the sig8 sketch at ``threshold/2`` agreement
       (the hot-bucket guard of :func:`minhash_dedup_pairs`: miss prob
       ~2e-5 at j >= 0.5, below the banding's own (1-j^2)^32 <= 7e-5);
    3. candidate pairs are exchanged by the corpus doc's shingle-store
       partition and each reduce computes exact jaccard from the STORED
       sorted hash sets plus the probe batch's own sets (broadcast once,
       probe-sized) — corpus text is NEVER touched, and only
       candidate-bearing shingle partitions are read.  Stored sets are
       64-bit shingle hashes, so the result equals the string-shingle
       definition up to hash collisions (~nsh²/2⁶⁴ per pair,
       deterministic, content-addressed).

    CONTRACT: int64 ids, unique across BOTH sides (new ids must not
    collide with corpus ids).  New-vs-new pairs inside the batch are
    not emitted — run :func:`minhash_dedup_pairs` on the batch for
    those.  Cost per probe: one map pass over the new batch + reads of
    the touched index partitions."""
    import json

    from .exchange import routing_hash

    with open(os.path.join(index_dir, "meta.json")) as fh:
        meta = json.load(fh)
    # a corpus with no full shingle window stores {}: present, and it
    # probes to zero pairs; a missing key is not a complete index
    if "shingle_parts" not in meta:
        raise ValueError(f"{index_dir}/meta.json has no shingle_parts")
    num_perm, bands, k = meta["num_perm"], meta["bands"], meta["k"]
    P = meta["num_parts"]
    part_files = {int(p): fs for p, fs in meta["parts"].items()}
    min_agree = _sketch_min_agree(num_perm, threshold)
    sig_root = os.path.join(index_dir, "sig")
    pair_empty = pa.table(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
    )

    def explode(b: pa.Table) -> pa.Table:
        return _minhash_band_rows(b, text_col, id_col, num_perm, bands, k)

    def _key(t: pa.Table) -> np.ndarray:
        return combine_hashes(routing_hash(t["band"]), routing_hash(t["bhash"]))

    def probe_reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_empty
        kh = _key(t)
        g = int(kh[0] % np.uint64(P))
        files = part_files.get(g)
        if not files:
            return pair_empty
        s = pa.concat_tables(
            [pq.read_table(os.path.join(sig_root, f"part={g}", f)) for f in files]
        ).combine_chunks()
        sk = _key(s)
        s_ord = np.argsort(sk, kind="stable")
        sk_s = sk[s_ord]
        p_ord = np.argsort(kh, kind="stable")
        kh_s = kh[p_ord]
        pch = np.empty(len(kh_s), dtype=bool)
        pch[0] = True
        np.not_equal(kh_s[1:], kh_s[:-1], out=pch[1:])
        pstarts = np.flatnonzero(pch)
        plens = np.diff(np.append(pstarts, len(kh_s)))
        pkeys = kh_s[pstarts]
        lo = np.searchsorted(sk_s, pkeys, side="left")
        hi = np.searchsorted(sk_s, pkeys, side="right")
        hit = hi > lo
        if not hit.any():
            return pair_empty
        pstarts, plens = pstarts[hit], plens[hit]
        sstarts, slens = lo[hit], (hi - lo)[hit]
        psig = _fsb_bytes(t["sig8"], num_perm)[p_ord]
        ssig = _fsb_bytes(s["sig8"], num_perm)[s_ord]
        pids = t["id"].to_numpy(zero_copy_only=False)[p_ord]
        sids = s["id"].to_numpy(zero_copy_only=False)[s_ord]
        # chunk matched runs under the pair budget (a hot template run
        # still costs plen*slen probes, but only once per probe batch
        # and only sketch-agreeing ROWS survive)
        keep_a: list[np.ndarray] = []
        keep_b: list[np.ndarray] = []
        ppr = (plens * slens).astype(np.int64)
        cum = np.cumsum(ppr)
        i = 0
        while i < len(pstarts):
            j = int(np.searchsorted(cum, (cum[i - 1] if i else 0) + _PAIR_CHUNK))
            j = max(j, i + 1)
            ai, bi = _cross_pair_indices(pstarts[i:j], plens[i:j], sstarts[i:j], slens[i:j])
            if len(ai):
                agree = (psig[ai] == ssig[bi]).sum(axis=1)
                ok = agree >= min_agree
                ai, bi = ai[ok], bi[ok]
            if len(ai):
                keep_a.append(pids[ai])
                keep_b.append(sids[bi])
            i = j
        if not keep_a:
            return pair_empty
        pairs = pa.table(
            {"a": pa.array(np.concatenate(keep_a)), "b": pa.array(np.concatenate(keep_b))}
        )
        # collapse cross-band duplicates within the partition (the
        # downstream verify collapses the rest)
        return _min_per_pair(pairs)

    st: dict = {}
    cand = spill_exchange(
        new_ds.map_batches(explode, batch_format="pyarrow"),
        ["band", "bhash"], probe_reduce, num_parts=P, stats=st,
    )
    return _stored_verify(
        new_ds, cand, index_dir, meta, threshold,
        text_col=text_col, id_col=id_col, cleanup_after=[st["root"]],
    )


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash_signatures(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """64-bit simhash over the token stream (occurrence-weighted bitwise
    majority; md5-low64 token hashes so the oracle can recompute the
    signature in SQL), vectorized: 64 ``add.reduceat`` passes.

    Docs with zero tokens are EXCLUDED (they have no signature; the SQL
    definition likewise produces no row for them)."""
    parents, th, n = _token_hashes(batch, text_col)
    counts = np.bincount(parents, minlength=n) if len(parents) else np.zeros(n, dtype=np.int64)
    nonempty = np.flatnonzero(counts > 0)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    sims = np.zeros(len(nonempty), dtype=np.uint64)
    if len(th):
        starts = offs[nonempty]
        for bit in range(64):
            pm = ((th >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2 - 1
            tot = np.add.reduceat(pm, starts)
            sims |= (tot > 0).astype(np.uint64) << np.uint64(bit)
    ids = batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col]
    return pa.table(
        {id_col: pc.take(ids, pa.array(nonempty)), "simhash": pa.array(sims)}
    )


def simhash_candidates(ds, text_col: str = "text", id_col: str = "doc_id",
                       max_hamming: int = 3, bands: int = 4,
                       num_parts: int = 32):
    """ALL pairs with simhash hamming distance <= max_hamming, via the
    pigeonhole band trick: with ``bands`` disjoint segments and
    max_hamming < bands, any qualifying pair agrees exactly on >= 1
    segment — recall is exactly 1, so this equals the quadratic
    definition and is SQL-oracle-checkable."""
    seg_bits = 64 // bands
    mask = np.uint64((1 << seg_bits) - 1)
    shifts = np.arange(bands, dtype=np.uint64) * np.uint64(seg_bits)

    def explode(batch: pa.Table) -> pa.Table:
        sig = simhash_signatures(batch, text_col, id_col)
        s = sig["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return _band_rows(
            (s[:, None] >> shifts[None, :]) & mask,
            sig[id_col].combine_chunks(), simhash=sig["simhash"].combine_chunks(),
        )

    def hamming(t: pa.Table, a_idx: np.ndarray, b_idx: np.ndarray):
        sims = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ham = popcount64(sims[a_idx] ^ sims[b_idx])
        return ham, ham <= max_hamming

    return _banded_pairs(ds.map_batches(explode, batch_format="pyarrow"), num_parts,
                         hamming, pa.field("hamming", pa.int64()))


# ---------------------------------------------------------------------------
# embedding cosine pairs (exact, blocked)
# ---------------------------------------------------------------------------

def embedding_cosine_pairs(ds, threshold: float = 0.95, id_col: str = "vec_id",
                           vec_col: str = "embedding", block_rows: int = 4096):
    """Exact embedding-cosine pairs (a < b, cos >= threshold) via
    BLOCKED all-pairs: rows are grouped into normalized blocks held in
    the object store, and one task per block PAIR computes a (block x
    block) matmul — no task ever holds the full matrix, memory per task
    is 2 blocks, and the O(N²) compute is spread across B(B+1)/2
    independent tasks.  This is the exact path (a low threshold cannot
    be served exactly by LSH/IVF pruning without recall loss); for
    high-threshold near-dup at scale, :func:`embedding_lsh_pairs` prunes
    candidates with SRP band buckets first.
    """
    import os
    import uuid

    import pyarrow.parquet as pq
    import ray.data as rd

    from .exchange import xchg_base
    root = os.path.join(xchg_base(), "emb-" + uuid.uuid4().hex[:16])
    os.makedirs(root, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        """Map side: normalize and persist one row block; only file
        names flow to the driver (no row data leaves the workers)."""
        import hashlib as _h

        if batch.num_rows == 0:
            return pa.table({"file": pa.array([], type=pa.string())})
        emb = batch[vec_col].combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        m = flat.reshape(batch.num_rows, -1)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "id": pa.array(ids),
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(m.reshape(-1)), m.shape[1]
                ),
            }
        )
        data = spill_bytes(t)
        # unique per attempt (manifest-listed, so identical blocks never
        # collapse and failed-attempt orphans are ignored)
        fname = f"{uuid.uuid4().hex[:16]}-{_h.sha256(data).hexdigest()[:12]}.parquet"
        atomic_write_bytes(os.path.join(root, fname), data)
        return pa.table({"file": pa.array([fname], type=pa.string())})

    files = sorted(
        r["file"]
        for r in ds.map_batches(
            write_block, batch_format="pyarrow", batch_size=block_rows
        ).take_all()
    )
    if not files:
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "cos": pa.array([], type=pa.float64()),
                }
            )
        )

    def _load(fname: str):
        t = pq.read_table(os.path.join(root, fname))
        ids = t["id"].to_numpy(zero_copy_only=False)
        vec = t["vec"].combine_chunks()
        m = np.asarray(vec.flatten(), dtype=np.float64).reshape(len(t), -1)
        return ids, m

    def block_pair(b: pa.Table) -> pa.Table:
        outs = []
        for i, j in zip(b["i"].to_pylist(), b["j"].to_pylist()):
            ids_a, ma = _load(files[i])
            ids_b, mb = _load(files[j]) if j != i else (ids_a, ma)
            cos = ma @ mb.T
            if i == j:
                iu = np.triu_indices(len(ids_a), k=1)
                sel = cos[iu] >= threshold
                aa, bb = ids_a[iu[0][sel]], ids_b[iu[1][sel]]
                cc = cos[iu][sel]
            else:
                r, c = np.nonzero(cos >= threshold)
                aa, bb, cc = ids_a[r], ids_b[c], cos[r, c]
            lo = np.minimum(aa, bb)
            hi = np.maximum(aa, bb)
            outs.append(
                pa.table(
                    {
                        "a": pa.array(lo),
                        "b": pa.array(hi),
                        "cos": pa.array(np.round(cc, 6)),
                    }
                )
            )
        return pa.concat_tables(outs)

    items = [
        {"i": i, "j": j}
        for i in range(len(files))
        for j in range(i, len(files))
    ]
    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        block_pair, batch_format="pyarrow", batch_size=None
    )


def _srp_band_keys(m: np.ndarray, num_planes: int, bands: int,
                   seed: int = 1234) -> np.ndarray:
    """(n, bands) uint64 signed-random-projection band keys of the
    row-normalized matrix ``m``: bit j of band b is the sign of the
    projection on seeded plane b*r + j, with r = num_planes // bands."""
    r = num_planes // bands
    planes = np.random.RandomState(seed).standard_normal((num_planes, m.shape[1]))
    bits = ((m @ planes.T) > 0)[:, : bands * r].reshape(len(m), bands, r)
    return np.bitwise_or.reduce(
        bits.astype(np.uint64) << np.arange(r, dtype=np.uint64), axis=2
    )


def _srp_band_rows(batch: pa.Table, id_col: str, vec_col: str, num_planes: int,
                   bands: int, seed: int = 1234) -> pa.Table:
    """(band, bhash, id, vec) rows: SRP band keys of the normalized
    vectors, which ride the exchange for exact in-bucket cosine."""
    if batch.num_rows == 0:
        return pa.table({
            "band": pa.array([], type=pa.int32()),
            "bhash": pa.array([], type=pa.uint64()),
            "id": pa.array([], type=pa.int64()),
            "vec": pa.array([], type=pa.list_(pa.float64())),
        })
    emb = batch[vec_col].combine_chunks()
    m = np.asarray(emb.flatten(), dtype=np.float64).reshape(batch.num_rows, -1)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    n, dim = m.shape
    return _band_rows(
        _srp_band_keys(m, num_planes, bands, seed),
        pa.array(batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)),
        vec=pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * dim), pa.array(m.reshape(-1))
        ),
    )


def embedding_lsh_pairs(ds, threshold: float = 0.9, id_col: str = "vec_id",
                        vec_col: str = "embedding", num_planes: int = 16,
                        bands: int = 4, num_parts: int = 32):
    """Approximate HIGH-threshold cosine near-dup pairs: signed random
    projections (Charikar'02 SimHash for angles) → banded buckets →
    EXACT cosine verification inside each bucket — fully distributed
    (normalized vectors ride through the exchange; no driver pass, no
    full-matrix broadcast).

    Recall for a pair at angle θ with r planes/band and b bands is
    1 - (1 - (1-θ/π)^r)^b; at cos ≥ 0.9 (θ ≤ 26°) with r=4, b=4 that is
    ≈ 0.97.  Every emitted pair is exactly verified (precision 1 vs the
    threshold), so this is the scale path when the threshold is high;
    :func:`embedding_cosine_pairs` stays the exact path for low
    thresholds, where no sublinear method can keep recall 1.
    """
    def cosine(t: pa.Table, a_idx: np.ndarray, b_idx: np.ndarray):
        mat = np.asarray(t["vec"].combine_chunks().flatten()).reshape(t.num_rows, -1)
        ids = t["id"].to_numpy(zero_copy_only=False)
        cos = np.einsum("ij,ij->i", mat[a_idx], mat[b_idx])
        return np.round(cos, 6), (cos >= threshold) & (ids[a_idx] != ids[b_idx])

    rows = ds.map_batches(
        lambda b: _srp_band_rows(b, id_col, vec_col, num_planes, bands),
        batch_format="pyarrow",
    )
    return _banded_pairs(rows, num_parts, cosine, pa.field("cos", pa.float64()))


# ---------------------------------------------------------------------------
# Duplicate clusters: distributed connected components over candidate pairs
# ---------------------------------------------------------------------------

def _to_np(col):
    """Arrow column -> numpy (zero-copy ints, object strings)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(arr.type):
        return arr.to_numpy(zero_copy_only=False)
    return np.asarray(arr.to_pylist(), dtype=object)


def _star_reduce(large: bool):
    """Vectorized star step over one exchange partition: sort (u, v),
    dedupe, run-length by u, emit the round's edges per run with pure
    numpy (works for int and string node ids)."""

    def reduce_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], type=t["u"].type),
                    "b": pa.array([], type=t["v"].type),
                }
            )
        t = t.sort_by([("u", "ascending"), ("v", "ascending")]).combine_chunks()
        u = _to_np(t["u"])
        v = _to_np(t["v"])
        # dedupe consecutive duplicates of (u, v)
        if len(u) > 1:
            dup = np.empty(len(u), dtype=bool)
            dup[0] = True
            dup[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
            u, v = u[dup], v[dup]
        change = np.empty(len(u), dtype=bool)
        change[0] = True
        change[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(change)
        lens = np.diff(np.append(starts, len(u)))
        run_of = np.repeat(np.arange(len(starts)), lens)
        u_run = u[starts]
        vmin_run = v[starts]  # v sorted within run
        if large:
            m_run = np.minimum(u_run, vmin_run)
            sel = v > u
            out_a = v[sel]
            out_b = m_run[run_of[sel]]
        else:
            # oriented input (u = hi, v = lo): m = min neighbor; emit
            # (x, m) for every other small neighbor plus (u, m)
            m_run = vmin_run
            first_of_run = np.zeros(len(u), dtype=bool)
            first_of_run[starts] = True
            sel = ~first_of_run  # drop one copy of the min neighbor
            out_a = np.concatenate([v[sel], u_run])
            out_b = np.concatenate([m_run[run_of[sel]], m_run])
        return pa.table({"a": pa.array(out_a), "b": pa.array(out_b)})

    return reduce_fn


def _star_round(edges, large: bool, num_parts: int, stats: dict | None = None,
                digest: bool = False):
    """One alternating-star round (Kiveris et al., SoCC'14): a spill
    exchange keyed by the star center u with a vectorized per-run
    reduce.  With ``digest=True``, the exchange's map pass also folds a
    multiset digest of its (prepped) input edges into
    ``stats["digest"]`` — the fixed-point detector rides the exchange
    for free instead of costing its own dataset pass; ``stats["root"]``
    lets the caller GC the round's spills once consumed."""

    def undirect(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pa.concat_arrays([b["a"].combine_chunks(), b["b"].combine_chunks()]),
                "v": pa.concat_arrays([b["b"].combine_chunks(), b["a"].combine_chunks()]),
            }
        )

    def orient_to_max(b: pa.Table) -> pa.Table:
        hi = pc.max_element_wise(b["a"], b["b"])
        lo = pc.min_element_wise(b["a"], b["b"])
        return pa.table({"u": hi, "v": lo})

    prep = undirect if large else orient_to_max
    return spill_exchange(
        edges.map_batches(prep, batch_format="pyarrow"),
        "u",
        _star_reduce(large),
        num_parts=num_parts,
        digest_cols=("u", "v") if digest else None,
        stats=stats,
        # an edge-free graph reaches the fixed point with zero spills;
        # the lazy map's schema is unknowable then, so declare it
        empty_schema=pa.schema([("u", pa.int64()), ("v", pa.int64())]),
    )


def connected_components(edges, nodes, max_rounds: int = 32, num_parts: int = 32):
    """Connected components over an edge Dataset with columns (a, b);
    returns Dataset[(id, cluster)] where cluster is the minimum node id
    of the component.  Alternating large-star / small-star rounds, each
    a spill exchange keyed by node id with a vectorized per-run star
    step, until the edge multiset is stable; then a min-label aggregate
    and a union with self-labels for isolated nodes.

    Two dataset executions per round: the large-star exchange's map
    pass (which also digests its input — i.e. the previous round's
    output — for the fixed-point check) and the small-star exchange's
    map pass.  Star outputs stay LAZY: each round's output lineage is
    just the reduce re-read over its on-disk spill partitions, consumed
    exactly once per round, so a ``materialize()`` would add a full
    extra execution per round for nothing (only the final round's
    output is read twice — once by the convergence-check map pass,
    once by the label aggregate).

    ``nodes`` is a Dataset with column ``id`` covering every node
    (edges may touch a subset)."""
    import shutil

    cur = edges
    prev_sig = None
    cur_root = None  # our own spill root behind `cur` (None for the input)
    for _ in range(max_rounds):
        st: dict = {}
        big = _star_round(cur, large=True, num_parts=num_parts, stats=st, digest=True)
        # st["digest"] is over undirect(cur) — a multiset function of
        # cur's edge multiset, so equality detects the star fixed point
        if st["digest"] == prev_sig:
            # the just-spilled large round is discarded; its spills are dead
            shutil.rmtree(st["root"], ignore_errors=True)
            break
        prev_sig = st["digest"]
        sst: dict = {}
        new_cur = _star_round(big, large=False, num_parts=num_parts, stats=sst)
        # the small map pass consumed big's spills, and the large map
        # pass consumed the previous round's output — both roots are
        # dead now (labels only ever read the FINAL round's root):
        # scratch stays bounded at ~2 edge sets however many rounds run
        shutil.rmtree(st["root"], ignore_errors=True)
        if cur_root:
            shutil.rmtree(cur_root, ignore_errors=True)
        cur, cur_root = new_cur, sst["root"]

    labels = cur.map_batches(
        lambda b: pa.table({"id": b["a"], "cluster": b["b"]}), batch_format="pyarrow"
    )
    lab = labels.union(
        nodes.map_batches(
            lambda b: pa.table({"id": b["id"], "cluster": b["id"]}),
            batch_format="pyarrow",
        )
    )

    # per-id min resolves (star label) vs (self label); isolated nodes
    # keep themselves.  Same spill-exchange pattern as the star rounds
    # (a groupby here would all-to-all-sort dozens of tiny blocks).
    def min_label(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select(["id", "cluster"])
        t = t.sort_by([("id", "ascending"), ("cluster", "ascending")]).combine_chunks()
        starts, _lens = run_bounds(t["id"].combine_chunks())
        return t.take(pa.array(starts)).select(["id", "cluster"])

    # the label-exchange map pass fully consumes the final round's
    # spills; only the (output-sized) label root outlives the call
    return spill_exchange(lab, "id", min_label, num_parts=num_parts,
                          cleanup_after=[cur_root] if cur_root else None)


def substring_dup_docs(ds, *, k: int, text_col: str = "text",
                       id_col: str = "doc_id", num_parts: int = 16):
    """Exact substring-duplication detection — the 'shared k-token
    run' test of Lee et al. 2022 ("Deduplicating Training Data Makes
    Language Models Better", the suffix-array ExactSubstr criterion,
    restated over k-token grams): flag every document with the number
    of its distinct k-grams that appear verbatim in at least one OTHER
    document.  Catches cross-document boilerplate / quotation overlap
    that set-similarity (Jaccard) misses when the shared run is a
    small fraction of both documents.

    Scale shape: stage 1 emits distinct (gram, doc) pairs per doc with
    the vectorized :func:`doc_shingles` kernel; ONE exchange
    co-locates grams; the reduce keeps only rows of grams with >= 2
    docs (run length over the sorted partition — (gram, doc) pairs
    are globally distinct because a doc lives in one row); a small
    groupby-sum counts flagged grams per doc.  Shuffled volume is the
    distinct gram-doc table (same order as the tokenized corpus); no
    document PAIR is ever materialized, so a gram shared by d docs
    costs d rows, never d²."""
    from ray.data.aggregate import Sum

    from .exchange import spill_exchange

    empty_pairs = pa.table({
        "id": pa.array([], type=pa.int64()),
        "sh": pa.array([], type=pa.string()),
    })

    def pairs(b: pa.Table) -> pa.Table:
        t = doc_shingles(b, text_col, id_col, k)
        if t.num_rows == 0:
            return empty_pairs
        return pa.table({"id": t["id"].cast(pa.int64()), "sh": t["sh"]})

    empty_flagged = pa.table({
        "id": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    })

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_flagged
        t = t.sort_by([("sh", "ascending")])
        sh = t["sh"]
        sh = sh.combine_chunks() if isinstance(sh, pa.ChunkedArray) else sh
        starts, lens = run_bounds(sh)
        keep = np.repeat(lens >= 2, lens)
        ids = t["id"].to_numpy(zero_copy_only=False)[keep]
        if len(ids) == 0:
            return empty_flagged
        # partial per-doc count within the partition (the downstream
        # groupby-sum sees <= one row per (partition, doc))
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table({"id": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    flagged = spill_exchange(
        ds.map_batches(pairs, batch_format="pyarrow"), "sh", reduce,
        num_parts=num_parts,
    )
    out = flagged.groupby("id").aggregate(Sum("n", alias_name="n_dup_grams"))
    return out.map_batches(
        lambda b: pa.table({
            id_col: b["id"].cast(pa.int64()),
            "n_dup_grams": b["n_dup_grams"].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )


def substring_dup_spans(ds, *, k: int, text_col: str = "text",
                        id_col: str = "doc_id", num_parts: int = 16):
    """Maximal cross-document duplicated substring SPANS — the
    positional companion of :func:`substring_dup_docs` and the
    actionable ExactSubstr output (Lee et al. 2022 remove the
    duplicated BYTES, not the whole doc): for every document, the
    maximal token ranges covered by k-grams that appear verbatim in
    >= 2 DISTINCT documents.  Output one row per span
    ``(doc_id, s, e, len)`` with ``s`` the 1-based first token of the
    span and ``e`` its exclusive end — exactly the ranges a
    substring-level dedup pass cuts out of the training text.

    Scale shape: stage 1 emits EVERY gram occurrence ``(gram, doc,
    pos)`` (token-stream-sized, the same order as the postings build's
    exchange); ONE exchange co-locates grams and its reduce keeps only
    occurrences of grams seen in >= 2 distinct docs (run bounds over
    the sorted partition — vectorized, no per-gram Python); a second
    exchange routes the surviving occurrences (duplication-sized, not
    corpus-sized) by doc and merges overlapping/adjacent gram
    intervals ``[pos, pos+k)`` into maximal spans with one lexsort +
    break-mask pass per partition.  No doc pair and no driver-side
    row data anywhere; a gram shared by d docs costs d rows, never d².
    """
    empty_occ = pa.table({
        "sh": pa.array([], type=pa.string()),
        "id": pa.array([], type=pa.int64()),
        "pos": pa.array([], type=pa.int64()),
    })

    def occ(b: pa.Table) -> pa.Table:
        parents, pos0, terms, _n = flat_tokens(b[text_col])
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        L = len(parents)
        G = L - k + 1
        if G <= 0:
            return empty_occ
        grams = pc.binary_join_element_wise(*[terms.slice(j, G) for j in range(k)], " ")
        valid = parents[:G] == parents[k - 1: k - 1 + G]
        va = pa.array(valid)
        return pa.table({
            "sh": grams.filter(va),
            "id": pc.take(ids, pa.array(parents[:G][valid])).cast(pa.int64()),
            # 1-based gram start position, mirroring the SQL oracle's
            # range(1, len-k+2) subscripts
            "pos": pa.array(pos0[:G][valid] + 1),
        })

    empty_kept = pa.table({
        "id": pa.array([], type=pa.int64()),
        "pos": pa.array([], type=pa.int64()),
    })

    def mark(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_kept
        t = t.sort_by([("sh", "ascending"), ("id", "ascending")])
        starts, lens = run_bounds(t["sh"].combine_chunks())
        ids = t["id"].to_numpy(zero_copy_only=False)
        # distinct docs per gram run = count of id-change boundaries
        newdoc = np.empty(len(ids), dtype=np.int64)
        newdoc[0] = 1
        newdoc[1:] = (ids[1:] != ids[:-1]).astype(np.int64)
        newdoc[starts] = 1
        ndocs = np.add.reduceat(newdoc, starts)
        keep = np.repeat(ndocs >= 2, lens)
        kept = t.filter(pa.array(keep))
        return pa.table({"id": kept["id"], "pos": kept["pos"]})

    empty_spans = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "s": pa.array([], type=pa.int64()),
        "e": pa.array([], type=pa.int64()),
        "len": pa.array([], type=pa.int64()),
    })

    def spans(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_spans
        ids = t["id"].to_numpy(zero_copy_only=False)
        pos = t["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, ids))
        i, p = ids[order], pos[order]
        # intervals [p, p+k) merge when the next start is <= prev + k
        # (overlapping OR adjacent coverage — one contiguous dup region)
        brk = np.empty(len(i), dtype=bool)
        brk[0] = True
        brk[1:] = (i[1:] != i[:-1]) | (p[1:] > p[:-1] + k)
        st = np.flatnonzero(brk)
        last = np.append(st[1:], len(i)) - 1
        s = p[st]
        e = p[last] + k
        return pa.table({
            "doc_id": pa.array(i[st]),
            "s": pa.array(s),
            "e": pa.array(e),
            "len": pa.array(e - s),
        })

    st1: dict = {}
    kept = spill_exchange(
        ds.map_batches(occ, batch_format="pyarrow"), "sh", mark,
        num_parts=num_parts, stats=st1,
    )
    return spill_exchange(kept, "id", spans, num_parts=num_parts,
                          cleanup_after=[st1["root"]])


def substring_scrub(ds_factory, *, k: int, text_col: str = "text",
                    id_col: str = "doc_id", num_parts: int = 16):
    """Apply the ExactSubstr spans: CUT every duplicated token range
    out of each document (Lee et al. 2022 remove the duplicated bytes,
    not the whole doc) and rebuild the text from the kept tokens in
    order.  Output one row per doc: (doc_id, n_tokens, n_cut,
    text_clean), text_clean the space-joined kept tokens ('' when the
    whole doc was duplicated or empty).

    ``ds_factory()`` must return a fresh (id, text) Dataset per pass
    (one pass feeds the span computation, one carries the documents).
    Scale shape: the span pipeline's two exchanges, plus ONE doc-keyed
    exchange carrying tagged doc rows + span rows (spans are
    duplication-sized); the reduce applies all of a doc's spans with a
    vectorized coverage diff over the flat token stream — no per-doc
    Python, no driver-side row data."""
    import ray.data as rd

    spans_ds = substring_dup_spans(ds_factory(), k=k, text_col=text_col,
                                   id_col=id_col, num_parts=num_parts)
    tagged_spans = spans_ds.map_batches(
        lambda b: pa.table({
            "id": b["doc_id"].cast(pa.int64()),
            "s": b["s"].cast(pa.int64()),
            "e": b["e"].cast(pa.int64()),
            "text": pa.nulls(b.num_rows, type=pa.string()),
        }),
        batch_format="pyarrow",
    )
    tagged_docs = ds_factory().map_batches(
        lambda b: pa.table({
            "id": b[id_col].cast(pa.int64()),
            "s": pa.array(np.full(b.num_rows, -1, dtype=np.int64)),
            "e": pa.array(np.full(b.num_rows, -1, dtype=np.int64)),
            "text": b[text_col],
        }),
        batch_format="pyarrow",
    )

    empty_out = pa.table({
        id_col: pa.array([], type=pa.int64()),
        "n_tokens": pa.array([], type=pa.int64()),
        "n_cut": pa.array([], type=pa.int64()),
        "text_clean": pa.array([], type=pa.string()),
    })

    def scrub(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_out
        is_doc = pc.is_valid(t["text"])
        docs = t.filter(is_doc)
        sp = t.filter(pc.invert(is_doc))
        if docs.num_rows == 0:
            return empty_out
        docs = docs.sort_by([("id", "ascending")]).combine_chunks()
        ids_d = docs["id"].to_numpy(zero_copy_only=False)
        parents, _pos, terms, n = flat_tokens(docs["text"])
        counts = np.bincount(parents, minlength=n).astype(np.int64)
        doc_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=doc_start[1:])
        total = int(doc_start[-1])
        cut = np.zeros(total + 1, dtype=np.int64)
        if sp.num_rows:
            sid = sp["id"].to_numpy(zero_copy_only=False)
            row = np.searchsorted(ids_d, sid)
            # spans whose doc landed in this partition (they always do —
            # same routing key — but guard against stray ids)
            ok = (row < len(ids_d)) & (ids_d[np.minimum(row, len(ids_d) - 1)] == sid)
            row = row[ok]
            s1 = sp["s"].to_numpy(zero_copy_only=False)[ok] - 1   # 0-based
            e1 = sp["e"].to_numpy(zero_copy_only=False)[ok] - 1   # exclusive, 0-based
            g0 = doc_start[row] + s1
            g1 = np.minimum(doc_start[row] + e1, doc_start[row + 1])
            np.add.at(cut, g0, 1)
            np.add.at(cut, g1, -1)
        covered = np.cumsum(cut[:-1]) > 0
        keep = ~covered
        if n and total:
            # clip: a trailing empty doc's start == total would be an
            # out-of-range reduceat index; its count is zeroed below
            idx = np.minimum(doc_start[:-1], total - 1)
            kept_counts = np.add.reduceat(keep.astype(np.int64), idx)
            kept_counts[counts == 0] = 0  # reduceat artifact on empty docs
        else:
            kept_counts = np.zeros(n, dtype=np.int64)
        kept_terms = (
            terms.filter(pa.array(keep)) if total else pa.array([], type=pa.string())
        )
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offs[1:])
        lists = pa.LargeListArray.from_arrays(pa.array(offs), kept_terms)
        clean = pc.binary_join(lists, " ")
        return pa.table({
            id_col: pa.array(ids_d),
            "n_tokens": pa.array(counts),
            "n_cut": pa.array(counts - kept_counts),
            "text_clean": clean,
        })

    return spill_exchange(tagged_docs.union(tagged_spans), "id", scrub,
                          num_parts=num_parts)


# ---------------------------------------------------------------------------
# Boilerplate segment removal (CCNet / RefinedWeb line-level dedup)
# ---------------------------------------------------------------------------

_BP_TRIM = " \t\r\x0b\x0c"  # explicit charset so the SQL oracle can mirror it


def boilerplate_strip(ds, *, min_docs: int, min_len: int = 8, sep: str = "\n",
                      text_col: str = "text", id_col: str = "doc_id",
                      num_parts: int = 16):
    """Corpus-level boilerplate removal: split every document into
    ``sep``-separated segments (lines for real text), and strip each
    ELIGIBLE segment (trimmed length >= ``min_len``) whose trimmed form
    occurs in >= ``min_docs`` DISTINCT documents — the line-level dedup
    of CCNet (Wenzek et al. 2020) / RefinedWeb, which removes nav bars,
    cookie banners and license headers that whole-doc dedup never sees.
    Output: one row per doc with (doc_id, n_segments, n_removed,
    text_clean), ``text_clean`` the kept segments re-joined by ``sep``
    in original order (byte-lossless when nothing is removed).

    Scale shape: two spill exchanges, both streaming corpus-sized rows
    — segments routed by trimmed text (reduce counts distinct docs per
    segment inside its partition and marks rows; exact-STRING
    semantics, the routing hash only co-locates), then marked rows
    routed by doc id (reduce rebuilds each doc's text from sorted
    (id, idx) runs, fully vectorized via LargeListArray + binary_join).
    No segment's doc list is ever driver-materialized; a segment shared
    by d docs costs d rows, never d²."""

    def explode(b: pa.Table) -> pa.Table:
        txt = b[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        lst = pc.split_pattern(txt, sep)
        lines = pc.list_flatten(lst)
        lens = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
        parents = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        offs = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        idx = np.arange(len(lines), dtype=np.int64) - offs[:-1][parents]
        t = pc.utf8_trim(lines, _BP_TRIM)
        elig = pc.greater_equal(pc.utf8_length(t), min_len)
        return pa.table({
            "id": pc.take(ids, pa.array(parents)).cast(pa.int64()),
            "idx": pa.array(idx),
            "line": lines,
            "t": t,
            "elig": elig,
        })

    marked_schema = pa.schema([
        ("id", pa.int64()), ("idx", pa.int64()),
        ("line", pa.string()), ("keep", pa.bool_()),
    ])

    def mark(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return marked_schema.empty_table()
        el = t.filter(t["elig"])
        if el.num_rows:
            d = el.select(["t", "id"]).group_by(["t", "id"], use_threads=False).aggregate([])
            cnt = d.group_by("t", use_threads=False).aggregate([([], "count_all")])
            bad = cnt.filter(pc.greater_equal(cnt["count_all"], min_docs))["t"]
            keep = pc.invert(pc.and_(
                t["elig"].combine_chunks(),
                pc.is_in(t["t"].combine_chunks(), value_set=bad.combine_chunks()),
            ))
        else:
            keep = pa.array(np.ones(t.num_rows, dtype=bool))
        return pa.table({"id": t["id"], "idx": t["idx"], "line": t["line"],
                         "keep": keep}).cast(marked_schema)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_segments", pa.int64()),
        ("n_removed", pa.int64()), ("text_clean", pa.string()),
    ])

    def rebuild(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.sort_by([("id", "ascending"), ("idx", "ascending")]).combine_chunks()
        ids = t["id"].combine_chunks()
        starts, lens = run_bounds(ids)
        keep = t["keep"].combine_chunks().to_numpy(zero_copy_only=False)
        n_rem = np.add.reduceat((~keep).astype(np.int64), starts)
        kept_counts = lens - n_rem
        offs = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offs[1:])
        kept_lines = t["line"].combine_chunks().filter(pa.array(keep))
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offs, type=pa.int64()), kept_lines),
            sep,
        )
        return pa.table({
            "doc_id": ids.take(pa.array(starts)),
            "n_segments": pa.array(lens.astype(np.int64)),
            "n_removed": pa.array(n_rem),
            "text_clean": joined,
        }).cast(out_schema)

    stats1: dict = {}
    marked = spill_exchange(
        ds.map_batches(explode, batch_format="pyarrow"), "t", mark,
        num_parts=num_parts, stats=stats1,
    )
    # the id-exchange's map pass fully consumes the segment exchange's
    # spills — GC them as soon as that happens (bounded live frontier)
    return spill_exchange(marked, "id", rebuild, num_parts=num_parts,
                          cleanup_after=[stats1["root"]])
