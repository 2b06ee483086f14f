"""Frequency sketches: Misra-Gries heavy hitters with exact recount.

The scale problem: "top-K most frequent keys" over 100 TB normally
shuffles the full (key, count) partial-aggregate table — fine for a
bounded vocabulary, a scale-killer when the key domain is huge
(n-grams, URLs, join keys).  The classic fix (Misra & Gries 1982;
Metwally et al. "space-saving", ICDT'05) bounds the per-batch summary
at S entries: decrement-compress each batch's counts so at most S keys
survive, shuffle only those, then verify the survivors with one exact
recount pass restricted to the candidate set (broadcast membership
probe — no second shuffle over the full domain).

Exactness argument (this operator returns the EXACT top-K or falls
back, never an approximation):

- A Misra-Gries decrement of a batch's exact counts subtracts
  d_b <= total_b / (S+1) from every key, so each key's sketch count
  undercounts its batch count by at most d_b, and summing sketches
  across batches undercounts any key by at most
  eps = sum_b d_b <= N / (S+1)  (N = total occurrences).
- Candidates are the top-M keys of the summed sketch.  Any
  NON-candidate key has sketch count <= cutoff (the M-th candidate's
  sketch count), hence true count <= cutoff + eps.
- Therefore if the exact-recounted K-th candidate count exceeds
  cutoff + eps, no missed key can displace the top-K: the result is
  provably exact.  Otherwise the operator logs and falls back to the
  plain full partial-aggregate path (exact by construction).

Reference parity note: the reference engine has no sketch operators
(it delegates ranking to Elasticsearch); this is part of the
beyond-reference training-data toolkit (hot n-grams, boilerplate
detection, hot-key discovery for join salting).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import flat_tokens

# sentinel keys riding the same shuffle (tokenizer output never
# contains a NUL byte): exact global occurrence total, and the summed
# Misra-Gries decrements — the ACTUAL undercount bound, far tighter
# than the worst-case N/(S+1) when batch vocabularies fit the sketch
_N_KEY = "\x00N"
_D_KEY = "\x00D"


def bigram_counts(batch: pa.Table, text_col: str) -> pa.Table:
    """(key, c) bigram counts for one batch, fully vectorized: two
    slices of the flat token stream joined by one Arrow kernel, window
    validity by parent equality, counted with an Arrow group_by."""
    parents, _pos, terms, _n = flat_tokens(batch[text_col])
    W = len(parents) - 1
    if W <= 0:
        return pa.table({"key": pa.array([], type=pa.string()),
                         "c": pa.array([], type=pa.int64())})
    bg = pc.binary_join_element_wise(terms.slice(0, W), terms.slice(1, W), " ")
    valid = parents[:W] == parents[1:]
    t = pa.table({"key": bg.filter(pa.array(valid))})
    agg = t.group_by("key", use_threads=False).aggregate([([], "count_all")])
    return pa.table({"key": agg["key"], "c": agg["count_all"].cast(pa.int64())})


def mg_compress(counts: pa.Table, sketch_size: int) -> tuple[pa.Table, int]:
    """Misra-Gries decrement on an exact (key, c) table: subtract the
    (S+1)-th largest count from every entry and keep the positive
    remainder — at most S keys survive.  Returns (compressed, d) where
    d is the decrement actually applied (0 when nothing was dropped)."""
    if counts.num_rows <= sketch_size:
        return counts, 0
    c = counts["c"].to_numpy(zero_copy_only=False)
    d = int(np.partition(c, len(c) - (sketch_size + 1))[len(c) - (sketch_size + 1)])
    keep = c > d
    return (
        pa.table({"key": counts["key"].filter(pa.array(keep)), "c": pa.array(c[keep] - d)}),
        d,
    )


def _full_exact(ds, k: int, text_col: str, counter):
    """Exact fallback: the plain full partial-aggregate shuffle."""
    from ray.data.aggregate import Sum

    full = (
        ds.map_batches(lambda b: counter(b, text_col), batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="cnt"))
        .to_pandas()
        .sort_values(["cnt", "key"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    full["cnt"] = full["cnt"].astype("int64")
    return full


def heavy_hitters(
    ds,
    k: int,
    *,
    text_col: str = "text",
    sketch_size: int = 4096,
    counter=bigram_counts,
    candidate_margin: int = 64,
):
    """Exact top-``k`` keys (count desc, key asc tie-break) over the
    stream ``counter`` extracts per batch — Misra-Gries candidates +
    exact recount, with a provable-exactness check and a full-aggregate
    fallback.  Returns a pandas DataFrame (key, cnt); a top-k result is
    driver-sized by definition.

    Shuffle volume: <= sketch_size + 1 rows per input batch (stage 1)
    and the candidate recount partials (<= candidates per batch,
    stage 2) — never the full key domain.  The candidate set
    (~4k + margin keys) is broadcast once via ``ray.put``.
    """
    import ray
    from ray.data.aggregate import Sum

    def stage1(b: pa.Table) -> pa.Table:
        cnt = counter(b, text_col)
        out, d = mg_compress(cnt, sketch_size)
        tot = int(pc.sum(cnt["c"]).as_py() or 0)
        # sentinel rows ride the same shuffle: groupby-sum yields the
        # exact global N and the exact summed decrement (the actual
        # undercount bound) with no separate counting pass
        return pa.table(
            {
                "key": pa.concat_arrays(
                    [out["key"].combine_chunks(), pa.array([_N_KEY, _D_KEY])]
                ),
                "c": pa.concat_arrays(
                    [out["c"].combine_chunks(), pa.array([tot, d], type=pa.int64())]
                ),
            }
        )

    # the summed summary is the compact post-shuffle state (<= surviving
    # keys); materialize it once — it is consumed twice below
    summary = (
        ds.map_batches(stage1, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="c"))
        .materialize()
    )
    sent = summary.map_batches(
        lambda b: b.filter(pc.is_in(b["key"], value_set=pa.array([_N_KEY, _D_KEY]))),
        batch_format="pyarrow",
    ).to_pandas()
    if sent.empty:
        return _full_exact(ds, k, text_col, counter)
    n_total = int(sent.loc[sent["key"] == _N_KEY, "c"].sum())
    eps = int(sent.loc[sent["key"] == _D_KEY, "c"].sum())
    m = max(4 * k, k + candidate_margin)
    # driver pulls only the top-(m+1) sketch rows, never the whole
    # summed summary
    top_sketch = (
        summary.map_batches(
            lambda b: b.filter(
                pc.invert(pc.is_in(b["key"], value_set=pa.array([_N_KEY, _D_KEY])))
            ),
            batch_format="pyarrow",
        )
        .sort(["c", "key"], descending=[True, False])
        .limit(m + 1)
        .to_pandas()
    )
    # secondary key sort: ties at the cutoff would otherwise pick an
    # arbitrary candidate subset — the RESULT stays exact either way
    # (the cutoff+eps check covers missed keys) but whether the sketch
    # path or the full-aggregate fallback runs must not vary between
    # identical runs
    if len(top_sketch) <= m:
        cutoff = 0  # every key that survived any sketch is a candidate
        cand = top_sketch["key"]
    else:
        cutoff = int(top_sketch["c"].iloc[m])  # best sketch count a missed key can have
        cand = top_sketch["key"].head(m)
    cand_ref = ray.put(pa.array(sorted(cand), type=pa.string()))

    def recount(b: pa.Table) -> pa.Table:
        cnt = counter(b, text_col)
        hit = cnt.filter(pc.is_in(cnt["key"], value_set=ray.get(cand_ref)))
        return pa.table({"key": hit["key"], "c": hit["c"]})

    exact = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="cnt"))
        .to_pandas()
        .sort_values(["cnt", "key"], ascending=[False, True])
        .reset_index(drop=True)
    )
    top = exact.head(k).copy()
    if len(top) >= k and int(top["cnt"].iloc[-1]) > cutoff + eps:
        top["cnt"] = top["cnt"].astype("int64")
        return top.reset_index(drop=True)

    # data too flat for the sketch to be conclusive at this S: exact
    # fallback via the full partial-aggregate shuffle (standard escape
    # hatch; correctness over cleverness)
    print(
        f"[heavy_hitters] sketch inconclusive (kth={0 if len(top) < k else int(top['cnt'].iloc[-1])}, "
        f"cutoff={cutoff}, eps={eps}, N={n_total}) — exact fallback"
    )
    return _full_exact(ds, k, text_col, counter)


def kmv_distinct(ds, *, k: int = 64, text_col: str = "text",
                 group_col: str = "lang", num_parts: int = 8):
    """Per-group approximate distinct-token count via the k-minimum-
    values sketch (Bar-Yossef et al. RANDOM'02): each batch contributes
    its k smallest distinct md5-low64 token hashes per group, the merge
    keeps the k smallest of the union, and the estimator is
    ``(k-1) * 2^64 // h_k`` (exact count when a group has fewer than k
    distinct hashes).  All arithmetic is integer, and the estimate is
    a deterministic function of the distinct-hash SET — independent of
    batch layout and execution order — so the SQL oracle reproduces it
    bit-for-bit with ``md5_number_lower``.

    Shuffle volume: <= k rows per group per batch; the full token
    stream never enters an exchange (the point at 100 TB, where
    count-distinct via groupby would shuffle the whole vocabulary).
    """
    from ..analysis import flat_tokens as _ft
    from ..util import md5_digests, run_bounds
    from .exchange import spill_exchange

    empty = pa.table({group_col: pa.array([], type=pa.string()),
                      "hv": pa.array([], type=pa.uint64())})

    def partial(b: pa.Table) -> pa.Table:
        parents, _pos, terms, _n = _ft(b[text_col])
        if len(parents) == 0:
            return empty
        grp = b[group_col]
        grp = grp.combine_chunks() if isinstance(grp, pa.ChunkedArray) else grp
        gcodes = grp.dictionary_encode()
        gidx = gcodes.indices.to_numpy(zero_copy_only=False)[parents]
        tcodes = terms.dictionary_encode()
        uh = md5_digests(tcodes.dictionary).view("<u8")[:, 1]
        hv = uh[tcodes.indices.to_numpy(zero_copy_only=False)]
        # distinct (group, hash) pairs, then k smallest hashes per group
        pair = np.unique(np.stack([gidx.astype(np.uint64), hv], axis=1), axis=0)
        g, h = pair[:, 0], pair[:, 1]
        starts, counts = run_bounds(g)
        keep = (np.arange(len(g)) - np.repeat(starts, counts)) < k
        gd = gcodes.dictionary.to_pylist()
        return pa.table({
            group_col: pa.array([gd[int(i)] for i in g[keep]], type=pa.string()),
            "hv": pa.array(h[keep], type=pa.uint64()),
        })

    out_schema = pa.table({group_col: pa.array([], type=pa.string()),
                           "est_distinct": pa.array([], type=pa.int64())})

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema
        t = t.group_by([group_col, "hv"]).aggregate([]).sort_by(
            [(group_col, "ascending"), ("hv", "ascending")]
        )
        grps = t[group_col].to_pylist()
        hv = t["hv"].to_numpy(zero_copy_only=False)
        rows_g, rows_e = [], []
        i = 0
        while i < len(grps):
            j = i
            while j < len(grps) and grps[j] == grps[i]:
                j += 1
            cnt = j - i
            if cnt < k:
                est = cnt
            else:
                est = (k - 1) * (1 << 64) // int(hv[i + k - 1])
            rows_g.append(grps[i])
            rows_e.append(est)
            i = j
        return pa.table({group_col: pa.array(rows_g, type=pa.string()),
                         "est_distinct": pa.array(rows_e, type=pa.int64())})

    pds = ds.map_batches(partial, batch_format="pyarrow")
    return spill_exchange(pds, group_col, merge, num_parts=num_parts)


def group_topn_min(ds, *, group_col: str, val_col: str, n: int, num_parts: int = 8):
    """Per-group ``n`` smallest values of ``val_col`` — the bounded-
    summary primitive behind quota sampling (cap documents per domain /
    repo): each batch contributes at most ``n`` values per group, the
    exchange merge keeps the ``n`` smallest of the union.  Shuffle
    volume is <= n rows per group per batch; the payload table never
    enters the exchange (recover full rows downstream by broadcasting
    the per-group cutoff — the n-th smallest — and filtering).

    Values are assumed distinct per group (true for row ids, the quota
    use case); repeated values count once per occurrence.  int64
    values, string groups.  Beyond-reference curation op (the
    reference has no sampling; SURVEY §2.6 '— not built' row)."""
    from ..util import run_bounds
    from .exchange import spill_exchange

    empty = pa.table({group_col: pa.array([], type=pa.string()),
                      val_col: pa.array([], type=pa.int64())})

    def _runlimit(grp_codes: np.ndarray, vals: np.ndarray, dictionary) -> pa.Table:
        """Keep the n smallest vals per group (inputs unsorted)."""
        order = np.lexsort((vals, grp_codes))
        g, v = grp_codes[order], vals[order]
        starts, counts = run_bounds(g)
        keep = (np.arange(len(g)) - np.repeat(starts, counts)) < n
        return pa.table({
            group_col: pc.take(dictionary, pa.array(g[keep])),
            val_col: pa.array(v[keep], type=pa.int64()),
        })

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        grp = b[group_col]
        grp = grp.combine_chunks() if isinstance(grp, pa.ChunkedArray) else grp
        gcodes = grp.dictionary_encode()
        return _runlimit(
            gcodes.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            b[val_col].to_numpy(zero_copy_only=False).astype(np.int64),
            gcodes.dictionary,
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        grp = t[group_col]
        grp = grp.combine_chunks() if isinstance(grp, pa.ChunkedArray) else grp
        gcodes = grp.dictionary_encode()
        return _runlimit(
            gcodes.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            t[val_col].to_numpy(zero_copy_only=False).astype(np.int64),
            gcodes.dictionary,
        )

    pds = ds.map_batches(partial, batch_format="pyarrow")
    return spill_exchange(pds, group_col, merge, num_parts=num_parts)
