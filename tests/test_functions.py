"""Training-data ops: dedup estimators, IVF recall, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _docs_table(rows):
    return pa.table(
        {
            "doc_id": pa.array(list(range(len(rows))), type=pa.int64()),
            "text": pa.array(rows, type=pa.string()),
        }
    )


BASE = "the quick brown fox jumps over the lazy dog and runs far away into the woods tonight again"
NEAR = BASE.replace("lazy", "sleepy")
OTHER = "completely different content about database engines and vectorized execution pipelines"


def test_minhash_estimates_jaccard():
    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.dedup import minhash_signatures

    t = _docs_table([BASE, NEAR, OTHER])
    sig = minhash_signatures(t, num_perm=128, k=3)
    sigs = np.asarray(sig["sig"].combine_chunks().flatten()).reshape(3, 128)

    def shingle_set(s, k=3):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}

    true_j = len(shingle_set(BASE) & shingle_set(NEAR)) / len(shingle_set(BASE) | shingle_set(NEAR))
    est = (sigs[0] == sigs[1]).mean()
    assert abs(est - true_j) < 0.15
    assert (sigs[0] == sigs[2]).mean() < 0.2


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data as rd

    from lighthouse_ray.functions.dedup import minhash_dedup_pairs

    rows = [BASE, NEAR, OTHER, "unrelated text about parquet readers and arrow batches ok"]
    out = minhash_dedup_pairs(
        rd.from_arrow(_docs_table(rows)), threshold=0.3, k=3
    ).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (2, 3) not in pairs
    # emitted jaccard values are EXACT (verified), not estimates
    from lighthouse_ray.analysis import tokenize_text

    def shset(s):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    want = len(shset(BASE) & shset(NEAR)) / len(shset(BASE) | shset(NEAR))
    got = out[(out["a"] == 0) & (out["b"] == 1)]["jaccard"].iloc[0]
    assert got == pytest.approx(want, abs=1e-6)


def test_minhash_adversarial_all_near_dups(ray_session):
    """Pathological corpus: EVERY doc is a near-dup of every other, so
    candidate pairs are O(N²) — the case the streamed verification
    (bloom id filter + marker join) exists for.  All emitted jaccards
    must equal the brute-force exact values; no pair may be missing at
    this jaccard level (r=2, bands=32: miss prob < 1e-9 per pair)."""
    import itertools

    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.dedup import minhash_dedup_pairs

    base = "the quick brown fox jumps over the lazy dog while reading parquet files "
    rows = [base * 3 + f"suffix token {i}" for i in range(24)]
    out = (
        minhash_dedup_pairs(
            rd.from_arrow(_docs_table(rows)).repartition(5), threshold=0.5, k=3
        )
        .to_pandas()
        .sort_values(["a", "b"])
    )

    def shset(s):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    sets = [shset(s) for s in rows]
    want = {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        jac = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
        if jac >= 0.5:
            want[(i, j)] = round(jac, 6)
    got = {(int(r.a), int(r.b)): r.jaccard for r in out.itertuples()}
    assert set(got) == set(want)          # all ~N²/2 near-dup pairs found
    assert len(want) >= 200               # the corpus really is adversarial
    for p, jac in want.items():
        assert got[p] == pytest.approx(jac, abs=1e-6)


def test_incremental_neardup_probe(ray_session, tmp_path):
    """Persisted band index + probe: new docs near-dup against an
    EXISTING corpus index, without re-shingling the corpus.  Emitted
    pairs must equal the brute-force exact cross-side jaccards, the
    probe must touch only manifest-listed partitions, and a second
    probe against the same index must work (the incremental contract)."""
    import json
    import os

    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.dedup import (
        minhash_index_probe,
        minhash_index_write,
    )

    base = "the quick brown fox jumps over the lazy dog while reading parquet files "
    corpus_rows = [base * 3 + f"corpus tail {i}" for i in range(12)] + [OTHER]
    new_rows = [base * 3 + "incoming tail x", OTHER + " with a new suffix token", "entirely fresh content"]
    corpus = pa.table({
        "doc_id": pa.array(list(range(len(corpus_rows))), type=pa.int64()),
        "text": pa.array(corpus_rows, type=pa.string()),
    })
    new = pa.table({
        "doc_id": pa.array([100 + i for i in range(len(new_rows))], type=pa.int64()),
        "text": pa.array(new_rows, type=pa.string()),
    })
    idx = str(tmp_path / "sigidx")
    meta = minhash_index_write(rd.from_arrow(corpus).repartition(3), idx, num_parts=8)
    assert sum(len(v) for v in meta["parts"].values()) > 0

    out = minhash_index_probe(rd.from_arrow(new), idx, threshold=0.5).to_pandas()

    def shset(s):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    want = {}
    for ni, nrow in zip([100, 101, 102], new_rows):
        for ci, crow in enumerate(corpus_rows):
            a, b = shset(nrow), shset(crow)
            jac = len(a & b) / len(a | b)
            if jac >= 0.5:
                want[(ni, ci)] = (len(a & b), round(jac, 6))
    got = {(int(r.a), int(r.b)): (int(r.inter), r.jaccard) for r in out.itertuples()}
    assert set(got) == set(want)
    assert len(want) >= 12  # every corpus template doc pairs with new doc 100
    for p, (inter, jac) in want.items():
        assert got[p][0] == inter
        assert got[p][1] == pytest.approx(jac, abs=1e-6)

    # second probe against the SAME persisted index (no rebuild)
    out2 = minhash_index_probe(rd.from_arrow(new), idx, threshold=0.5).to_pandas()
    assert len(out2) == len(out)

    # an empty corpus stores no shingle partition ({}): it probes to
    # zero pairs, while a meta.json without the key is refused
    empty_idx = str(tmp_path / "emptyidx")
    meta0 = minhash_index_write(rd.from_arrow(corpus.slice(0, 0)), empty_idx, num_parts=4)
    assert meta0["shingle_parts"] == {}
    assert len(minhash_index_probe(rd.from_arrow(new), empty_idx).to_pandas()) == 0
    del meta0["shingle_parts"]
    with open(os.path.join(empty_idx, "meta.json"), "w") as fh:
        json.dump(meta0, fh)
    with pytest.raises(ValueError, match="shingle_parts"):
        minhash_index_probe(rd.from_arrow(new), empty_idx)


def test_neardup_empty_results_keep_pair_schema(ray_session, tmp_path):
    """A near-dup run that finds no pair returns the same (a, b, inter,
    jaccard) columns and types as a run with pairs."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import (
        minhash_dedup_pairs,
        minhash_index_probe,
        minhash_index_write,
    )

    def schema_of(ds):
        s = ds.schema()
        return s and pa.schema(list(zip(s.names, s.types)))

    pairs = minhash_dedup_pairs(rd.from_arrow(_docs_table([BASE, NEAR])), threshold=0.3, k=3)
    assert pairs.count() == 1
    want = schema_of(pairs)
    assert want.names == ["a", "b", "inter", "jaccard"]
    none = minhash_dedup_pairs(rd.from_arrow(_docs_table([BASE, OTHER])), threshold=0.3, k=3)
    assert none.count() == 0 and schema_of(none) == want

    idx = str(tmp_path / "idx")
    minhash_index_write(rd.from_arrow(_docs_table([BASE])), idx, num_parts=4)
    new = pa.table({"doc_id": pa.array([100], type=pa.int64()), "text": pa.array([OTHER])})
    probe = minhash_index_probe(rd.from_arrow(new), idx, threshold=0.3)
    assert probe.count() == 0 and schema_of(probe) == want


def test_collect_keeps_empty_pair_columns(ray_session):
    """``collect`` of a near-dup run that finds no pair is a zero-row
    table with the typed pair columns, where ``to_pandas()`` has none."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import minhash_dedup_pairs
    from lighthouse_ray.util import collect

    none = minhash_dedup_pairs(rd.from_arrow(_docs_table([BASE, OTHER])), threshold=0.3, k=3)
    got = collect(none)
    assert got.num_rows == 0
    assert got.schema == pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64()), ("jaccard", pa.float64())]
    )
    assert list(got.to_pandas().columns) == ["a", "b", "inter", "jaccard"]


def test_checker_keeps_empty_dataset_columns(ray_session):
    """The oracle checker turns a gate's zero-row Dataset into a frame
    with the Dataset's columns (``Dataset.to_pandas()`` has none)."""
    import ray.data as rd

    from scripts.check_driver_queries import to_pandas

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.string())})
    assert list(to_pandas(rd.from_arrow(empty)).columns) == ["a", "b"]


def test_simhash_near_dup(ray_session):
    import ray.data as rd

    from lighthouse_ray.functions.dedup import simhash_candidates, simhash_signatures

    t = _docs_table([BASE, NEAR, OTHER])
    sig = simhash_signatures(t)
    s = sig["simhash"].to_numpy(zero_copy_only=False)
    ham01 = bin(int(s[0]) ^ int(s[1])).count("1")
    ham02 = bin(int(s[0]) ^ int(s[2])).count("1")
    assert ham01 < ham02

    out = simhash_candidates(
        rd.from_arrow(_docs_table([BASE, BASE + " x", OTHER])), max_hamming=3
    ).to_pandas()
    assert (0, 1) in set(zip(out["a"], out["b"]))


def test_ngram_jaccard_exact(ray_session):
    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.dedup import ngram_jaccard_pairs

    rows = [BASE, NEAR, OTHER]
    out = ngram_jaccard_pairs(rd.from_arrow(_docs_table(rows)), n=3, min_inter=1).to_pandas()

    def shset(s):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    want = len(shset(BASE) & shset(NEAR)) / len(shset(BASE) | shset(NEAR))
    row = out[(out["a"] == 0) & (out["b"] == 1)]
    assert len(row) == 1
    assert row["jaccard"].iloc[0] == pytest.approx(want, abs=1e-6)


def test_containment_pairs_bruteforce(ray_session):
    """containment_pairs equals brute force: inter/min(|A|, |B|) over
    distinct 3-shingles, shingles with df > max_df dropped before
    pairing, sizes counted over every shingle.  Doc 0 sits verbatim
    inside the much longer doc 1 (containment 1, Jaccard well under
    the threshold); docs 2-4 share only a hot shingle."""
    import itertools

    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.dedup import containment_pairs

    inner = "alpha beta gamma delta epsilon zeta"
    rows = [
        inner,
        " ".join(f"pre{i}" for i in range(20)) + f" {inner} " + " ".join(f"post{i}" for i in range(20)),
        "common shared phrase only2",
        "common shared phrase only3",
        "common shared phrase only4",
        "pre3 pre4 pre5 and something else entirely different here",
    ]
    tau, max_df = 0.5, 2
    out = containment_pairs(
        rd.from_arrow(_docs_table(rows)).repartition(3), n=3, threshold=tau,
        max_df=max_df, num_parts=4,
    ).to_pandas()

    def shset(s):
        toks = tokenize_text(s)
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    sets = [shset(r) for r in rows]
    df: dict = {}
    for s in sets:
        for sh in s:
            df[sh] = df.get(sh, 0) + 1
    hot = {sh for sh, c in df.items() if c > max_df}
    assert "common shared phrase" in hot
    want = {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        inter = len((sets[i] & sets[j]) - hot)
        cont = np.floor(inter / min(len(sets[i]), len(sets[j])) * 1e6 + 0.5) / 1e6
        if inter >= 1 and cont >= tau:
            want[(i, j)] = (inter, cont)
    got = {(int(r.a), int(r.b)): (int(r.inter), r.containment) for r in out.itertuples()}
    assert set(got) == set(want) == {(0, 1)}
    for p, (inter, cont) in want.items():
        assert got[p][0] == inter
        assert got[p][1] == pytest.approx(cont, abs=1e-6)
    # the sub-document pair is a containment hit, not a Jaccard one
    assert len(sets[0] & sets[1]) / len(sets[0] | sets[1]) < tau


def test_winnow_guarantee_and_density(ray_session):
    """Winnowing's core guarantee (Schleimer et al. 2003): any shared
    run of w+k-1 tokens yields >= 1 shared fingerprint; and the
    selected density is bounded (far below one fingerprint per gram
    for long docs).  Docs shorter than w+k-1 tokens emit nothing."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import (
        winnow_fingerprint_rows,
        winnow_pairs,
    )

    k, w = 3, 4
    run = " ".join(f"com{i}" for i in range(w + k - 1))  # exactly w+k-1 tokens
    a = " ".join(f"aaa{i}" for i in range(40)) + " " + run + " " + " ".join(
        f"aab{i}" for i in range(40)
    )
    b = " ".join(f"bbb{i}" for i in range(40)) + " " + run + " " + " ".join(
        f"bbc{i}" for i in range(40)
    )
    other = " ".join(f"zzz{i}" for i in range(80))
    pairs = winnow_pairs(
        rd.from_arrow(_docs_table([a, b, other])), k=k, w=w, min_shared=1
    ).to_pandas()
    assert set(zip(pairs["a"], pairs["b"])) == {(0, 1)}

    t = _docs_table([other])
    fp = winnow_fingerprint_rows(t, "text", "doc_id", k, w)
    n_grams = 80 - k + 1
    # expected density ~= 2/(w+1); allow generous slack but require a cut
    assert 0 < fp.num_rows < 0.75 * n_grams
    assert fp["nsh"][0].as_py() == fp.num_rows

    short = _docs_table([" ".join(f"s{i}" for i in range(w + k - 2))])
    assert winnow_fingerprint_rows(short, "text", "doc_id", k, w).num_rows == 0


def test_ivf_recall_vs_brute_force(ray_session):
    import pyarrow.parquet as pq
    import ray.data as rd

    from lighthouse_ray.functions.similarity import brute_force_topk, ivf_index, ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    brute = brute_force_topk(ds, q, k=10).to_pandas()
    brute_ids = set(brute["vec_id"].tolist())

    idx = ivf_index(rd.read_parquet(f"{SF}/embeddings.parquet"), n_clusters=8)
    # probing every bucket must reproduce brute force exactly
    approx_all = ivf_topk(idx, q, k=10, nprobe=8)
    assert set(approx_all["vec_id"].tolist()) == brute_ids
    # nprobe=4 should still get decent recall
    approx = ivf_topk(idx, q, k=10, nprobe=4)
    recall = len(set(approx["vec_id"]) & brute_ids) / 10
    assert recall >= 0.5


def test_lang_id_deterministic(ray_session):
    import ray.data as rd

    from lighthouse_ray.functions.textstats import lang_id

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog is in the house",
                    "der Hund und die Katze ist nicht da",
                    "zzz qqq www",
                ]
            ),
        }
    )
    out = lang_id(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert out["pred_lang"].tolist() == ["en", "de", "und"]


def test_multimodal_stage(ray_session):
    """Distributed decode over genuinely valid synthesized images; a
    payload no decoder understands fails the stage with ValueError."""
    import ray.data as rd

    from lighthouse_ray.functions.multimodal import (
        extract_media_meta,
        synth_bmp,
        synth_png,
    )
    from lighthouse_ray.util import collect

    t = pa.table(
        {
            "media_id": pa.array(["a", "b", "c"], type=pa.string()),
            "payload": pa.array(
                [synth_png(17, 9, 3, seed=1), synth_png(5, 40, 4, seed=2),
                 synth_bmp(13, 7, seed=3)],
                type=pa.large_binary(),
            ),
        }
    )
    out = extract_media_meta(rd.from_arrow(t)).to_pandas().sort_values("media_id")
    assert out["width"].tolist() == [17, 5, 13]
    assert out["height"].tolist() == [9, 40, 7]
    assert out["channels"].tolist() == [3, 4, 3]
    assert out["format"].tolist() == ["png", "png", "bmp"]

    junk = pa.table({
        "media_id": pa.array(["x"], type=pa.string()),
        "payload": pa.array([b"not an image"], type=pa.large_binary()),
    })
    # collect hands the decoder's ValueError over as itself
    with pytest.raises(ValueError, match="unrecognized image container"):
        collect(extract_media_meta(rd.from_arrow(junk)))


def test_connected_components_vs_bfs(ray_session):
    import ray.data as rd

    from lighthouse_ray.functions.dedup import connected_components

    # chain, triangle+tail, isolated nodes, two-node component
    edges = [("a", "b"), ("b", "c"), ("c", "d"),
             ("p", "q"), ("q", "r"), ("p", "r"), ("r", "s"),
             ("x", "y")]
    nodes = sorted({n for e in edges for n in e} | {"lonely1", "lonely2"})

    # reference: BFS
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for n in nodes:
        if n in want:
            continue
        comp, stack = [], [n]
        seen = {n}
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        m = min(comp)
        for u in comp:
            want[u] = m

    eds = rd.from_items([{"a": a, "b": b} for a, b in edges])
    nds = rd.from_items([{"id": n} for n in nodes])
    got = {r["id"]: r["cluster"] for r in connected_components(eds, nds).take_all()}
    assert got == want


def test_connected_components_int_ids(ray_session):
    import ray.data as rd

    from lighthouse_ray.functions.dedup import connected_components

    edges = [(1, 2), (2, 3), (10, 11)]
    nodes = [1, 2, 3, 10, 11, 99]
    eds = rd.from_items([{"a": a, "b": b} for a, b in edges])
    nds = rd.from_items([{"id": n} for n in nodes])
    got = {r["id"]: r["cluster"] for r in connected_components(eds, nds).take_all()}
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 99: 99}


def test_connected_components_long_path(ray_session):
    """A path graph is the slow-convergence case for star algorithms;
    must still collapse to one component within the round budget."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import connected_components

    n = 40
    ids = [f"n{i:03d}" for i in range(n)]
    eds = rd.from_items([{"a": ids[i], "b": ids[i + 1]} for i in range(n - 1)])
    nds = rd.from_items([{"id": i} for i in ids])
    got = {r["id"]: r["cluster"] for r in connected_components(eds, nds).take_all()}
    assert set(got.values()) == {ids[0]}


def test_spill_exchange_preserves_multisets(ray_session):
    """Identical-content batches must NOT collapse: the exchange names
    spill files per attempt and reduces only manifest-listed files
    (regression: content-addressed names merged byte-identical spills
    from different batches and silently dropped duplicates)."""
    import ray.data as rd

    from lighthouse_ray.functions.exchange import spill_exchange

    # 6 single-row blocks, all identical -> identical spill content
    items = [{"k": 1, "v": 1}] * 6
    ds = rd.from_items(items, override_num_blocks=6)
    out = spill_exchange(
        ds,
        "k",
        lambda t: pa.table({"n": pa.array([t.num_rows], type=pa.int64())}),
        num_parts=4,
    ).take_all()
    assert sum(r["n"] for r in out) == 6


def test_ngram_jaccard_hot_shingle_capped(ray_session):
    """One shingle shared by every doc must not blow up into O(N^2)
    pairs: with df > max_df it is dropped before pairing, so only the
    genuinely-similar pair (sharing many rare shingles) survives."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import ngram_jaccard_pairs

    hot = "common header line here"  # 4 tokens -> 2 hot 3-gram shingles
    n = 120
    rows = [f"{hot} unique{i} filler{i} token{i} word{i}" for i in range(n)]
    # one genuinely similar pair sharing a long rare tail
    tail = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows[5] = f"{hot} {tail} one"
    rows[7] = f"{hot} {tail} two"
    ds = rd.from_arrow(_docs_table(rows))
    out = ngram_jaccard_pairs(ds, n=3, min_inter=3, max_df=50).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert (5, 7) in pairs
    # no pair exists solely through the hot shingles
    assert len(pairs) == 1


def test_embedding_lsh_pairs_recall(ray_session):
    """SRP-LSH candidates + exact verification: precision 1 vs the
    threshold by construction; recall vs brute force high at cos>=0.9."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import embedding_lsh_pairs

    rng = np.random.RandomState(7)
    base = rng.standard_normal((40, 32))
    rows, ids = [], []
    vid = 0
    for i in range(40):
        rows.append(base[i]); ids.append(vid); vid += 1
        if i % 4 == 0:  # planted near-duplicate
            rows.append(base[i] + 0.05 * rng.standard_normal(32)); ids.append(vid); vid += 1
    m = np.stack(rows)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = mn @ mn.T
    iu = np.triu_indices(len(m), 1)
    exact = {(int(ids[iu[0][k]]), int(ids[iu[1][k]])): cos[iu][k]
             for k in range(len(iu[0])) if cos[iu][k] >= 0.9}
    assert len(exact) >= 10

    t = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in rows],
                                   type=pa.list_(pa.float64())),
        }
    )
    out = embedding_lsh_pairs(
        rd.from_arrow(t), threshold=0.9, num_planes=16, bands=8, num_parts=8
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["a"], out["b"])}
    # every emitted pair is exactly above threshold (verified)
    assert got <= set(exact)
    # banded SRP recall at this margin should be essentially total
    assert len(got & set(exact)) / len(exact) >= 0.9
    for _, row in out.iterrows():
        assert row["cos"] == pytest.approx(
            round(float(exact[(int(row["a"]), int(row["b"]))]), 6), abs=2e-6
        )


def test_exchange_ops_layout_independent(ray_session):
    """Exchange-based ops must give identical results regardless of the
    input's block layout (keys are content values, partition counts are
    config — nothing may depend on batch boundaries)."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import ngram_jaccard_pairs, simhash_candidates

    rows = [BASE, NEAR, BASE + " extra tail words here", OTHER,
            "yet another unrelated document about stream processing engines"] * 8
    t = _docs_table(rows)

    def run(nblocks, fn, **kw):
        ds = rd.from_arrow(t).repartition(nblocks)
        out = fn(ds, **kw).to_pandas()
        return sorted(map(tuple, out.itertuples(index=False)))

    for fn, kw in [
        (ngram_jaccard_pairs, dict(n=3, min_inter=2, num_parts=5)),
        (simhash_candidates, dict(num_parts=3)),
    ]:
        a = run(1, fn, **kw)
        b = run(7, fn, **kw)
        assert a == b, fn.__name__
        assert len(a) > 0, fn.__name__


def test_json_props_null_skip_parity(ray_session):
    """The JSON value parser (M1) must drop malformed JSON, JSON-null
    values, and missing keys identically to the DuckDB oracle's
    TRY_CAST formulation — pinned here on crafted rows the synthetic
    corpus doesn't contain."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.pipelines.driver_queries import SQL_JSON_PROPS, q_json_props

    df = pd.DataFrame(
        {
            "event_type": ["a", "a", "a", "b", "b", "b", "c", "c"],
            "props": [
                '{"k": 3}', '{"k": null}', "not json",   # keep, skip, skip
                None, '{"x": 1}', '{"k": "7"}',          # skip, skip, keep (string number)
                '{"k": 0}', "",                           # keep, skip
            ],
        }
    )
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(os.path.join(d, "events.parquet"))
        got = (
            q_json_props(d)
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{os.path.join(d, 'events.parquet')}')"
        )
        want = con.execute(SQL_JSON_PROPS).df().sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["n"].tolist() == [1, 1, 1] and got["sum_k"].tolist() == [3, 7, 0]


def _events_table(rows):
    """rows: (event_id, user_id, ts_us, event_type, value)"""
    import pandas as pd

    return pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "ts": pa.array(
                pd.to_datetime([r[2] for r in rows], unit="us"), type=pa.timestamp("us")
            ),
            "event_type": pa.array([r[3] for r in rows], type=pa.string()),
            "value": pa.array([r[4] for r in rows], type=pa.float64()),
        }
    )


def test_asof_join_edges(ray_session):
    """Equal-ts tie goes to the max right event_id; an equal-ts right
    row IS visible; no prior right row -> NULL; keys never leak."""
    import ray.data as rd

    from lighthouse_ray.functions.windows import asof_join

    H = 3_600_000_000
    rows = [
        # user 1: two purchases at the SAME ts (ids 10, 11) then a click at that ts
        (10, 1, 5 * H, "purchase", 1.0),
        (11, 1, 5 * H, "purchase", 2.0),
        (20, 1, 5 * H, "click", 0.0),     # ties: sees purchase 11 -> 2.0
        (21, 1, 4 * H, "click", 0.0),     # before any purchase -> NULL
        (22, 1, 9 * H, "click", 0.0),     # after -> still 2.0
        # user 2: purchase much earlier than user 1's clicks; its own click
        (30, 2, 1 * H, "purchase", 7.0),
        (31, 2, 2 * H, "click", 0.0),     # -> 7.0
        # user 3: click only, no purchases at all -> NULL
        (40, 3, 6 * H, "click", 0.0),
    ]
    out = {
        int(r["event_id"]): r["asof_value"]
        for r in asof_join(
            rd.from_arrow(_events_table(rows)).repartition(3),
            left_type="click", right_type="purchase", num_parts=4,
        ).take_all()
    }
    assert out[20] == 2.0 and out[22] == 2.0 and out[31] == 7.0
    assert out[21] is None and out[40] is None


def test_sessionize_edges(ray_session):
    """A gap EXACTLY equal to gap_us stays in the same session; a gap
    one microsecond larger starts a new one; session_idx restarts per
    user; duration is last-minus-first within the session."""
    import ray.data as rd

    from lighthouse_ray.functions.windows import sessionize

    G = 1_000_000  # 1 s gap
    rows = [
        (1, 1, 0, "view", 0.0),
        (2, 1, G, "view", 0.0),          # gap == G: same session
        (3, 1, 2 * G + 1, "view", 0.0),  # gap == G+1: NEW session
        (4, 2, 0, "view", 0.0),          # other user: its own session 1
    ]
    got = sorted(
        (int(r["user_id"]), int(r["session_idx"]), int(r["n_events"]), int(r["dur_us"]))
        for r in sessionize(
            rd.from_arrow(_events_table(rows)).repartition(2), gap_us=G, num_parts=3
        ).take_all()
    )
    assert got == [(1, 1, 2, G), (1, 2, 1, 0), (2, 1, 1, 0)]


def test_window_ops_layout_independent(ray_session):
    """window_agg / asof_join / sessionize results must not depend on
    the input's block layout."""
    import ray.data as rd

    from lighthouse_ray.functions.windows import asof_join, sessionize, tumbling_window_agg

    rng = __import__("numpy").random.RandomState(7)
    rows = [
        (i, int(rng.randint(0, 5)), int(rng.randint(0, 10)) * 3_600_000_000,
         ["click", "purchase", "view"][int(rng.randint(0, 3))],
         float(round(float(rng.rand()) * 100, 2)))
        for i in range(200)
    ]
    t = _events_table(rows)

    def run(nblocks, fn, **kw):
        out = fn(rd.from_arrow(t).repartition(nblocks), **kw).to_pandas()
        out = out[sorted(out.columns)].astype(str)
        return sorted(map(tuple, out.itertuples(index=False)))

    for fn, kw in [
        (tumbling_window_agg, {}),
        (asof_join, dict(left_type="click", right_type="purchase", num_parts=5)),
        (sessionize, dict(gap_us=2 * 3_600_000_000, num_parts=5)),
    ]:
        a = run(1, fn, **kw)
        b = run(9, fn, **kw)
        assert a == b and len(a) > 0, fn.__name__


def test_range_join_count_edges(ray_session):
    """Both window bounds are inclusive (a click exactly at ts-W and
    one exactly at ts both count); other users' clicks never leak;
    left events with no clicks emit 0."""
    import ray.data as rd

    from lighthouse_ray.functions.windows import range_join_count

    H = 3_600_000_000
    rows = [
        (1, 1, 0 * H, "click", 0.0),      # exactly at ts-W (W=2h): counts
        (2, 1, 1 * H, "click", 0.0),      # inside: counts
        (3, 1, 2 * H, "click", 0.0),      # exactly at ts: counts
        (4, 1, 3 * H, "click", 0.0),      # after: no
        (10, 1, 2 * H, "purchase", 0.0),  # window [0h, 2h] -> 3
        (5, 2, 1 * H, "click", 0.0),      # other user
        (11, 2, 9 * H, "purchase", 0.0),  # nothing in [7h, 9h] -> 0
    ]
    got = {
        int(r["event_id"]): int(r["n_in_window"])
        for r in range_join_count(
            rd.from_arrow(_events_table(rows)).repartition(3),
            left_type="purchase", right_type="click", window_us=2 * H, num_parts=4,
        ).take_all()
    }
    assert got == {10: 3, 11: 0}


def test_exchange_scratch_bounded(ray_session, tmp_path, monkeypatch):
    """Chained exchanges must GC their predecessors' spill roots: a
    full ngram->CC pipeline may leave at most its output-sized tail
    roots behind (the caller-held lazy reduces), never one root per
    exchange/round.  Runs against a private exchange base so pipelines
    running concurrently on the box can't pollute the count."""
    import os

    import ray.data as rd

    from lighthouse_ray.functions.dedup import connected_components, ngram_jaccard_pairs

    root = str(tmp_path / "xchg")
    monkeypatch.setenv("LIGHTHOUSE_RAY_XCHG_ROOT", root)
    before = set(os.listdir(root)) if os.path.isdir(root) else set()
    rows = [BASE, NEAR, BASE + " tail", OTHER, "another unrelated stream doc"] * 10
    docs = rd.from_arrow(_docs_table(rows))
    pairs = ngram_jaccard_pairs(docs, n=3, min_inter=2, num_parts=4)
    edges = pairs.map_batches(lambda b: b.select(["a", "b"]), batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda b: pa.table({"id": b["doc_id"]}), batch_format="pyarrow"
    )
    out = connected_components(edges, nodes, num_parts=4)
    assert out.count() == 50
    after = set(os.listdir(root))
    # tail roots: the pair exchange (edges' lineage) + the label exchange
    assert len(after - before) <= 2, sorted(after - before)


def test_window_ops_randomized_vs_duckdb(ray_session):
    """Randomized parity for asof_join / range_join_count / sessionize
    against their DuckDB formulations, on an event table with FORCED
    timestamp collisions (coarse ts grid) so every tie-break path runs."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.functions.windows import asof_join, range_join_count, sessionize

    rng = np.random.RandomState(1234)
    n = 600
    H = 3_600_000_000
    ts_us = rng.randint(0, 48, size=n) * H  # 48 hourly slots -> heavy ties
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 8, size=n).astype(np.int64),
            "ts": pd.to_datetime(ts_us, unit="us"),
            "event_type": np.array(["click", "purchase", "view"])[rng.randint(0, 3, size=n)],
            "value": np.round(rng.rand(n) * 100, 2),
        }
    )
    t = pa.Table.from_pandas(df, preserve_index=False).set_column(
        2, "ts", pa.Table.from_pandas(df[["ts"]])["ts"].cast(pa.timestamp("us"))
    )
    ds = rd.from_arrow(t).repartition(5)
    con = duckdb.connect()
    con.register("events", df)

    def canon(got):
        got = got[sorted(got.columns)].copy()
        for c in got.columns:
            got[c] = got[c].astype(str)
        return sorted(map(tuple, got.itertuples(index=False)))

    got = canon(asof_join(ds, "click", "purchase", num_parts=4).to_pandas())
    want = canon(con.execute("""
        WITH p AS (SELECT user_id, ts, max_by(value, event_id) AS value
                   FROM events WHERE event_type='purchase' GROUP BY user_id, ts)
        SELECT c.event_id, c.user_id, p.value AS asof_value
        FROM (SELECT event_id, user_id, ts FROM events WHERE event_type='click') c
        ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts >= p.ts
    """).df())
    assert got == want

    got = canon(range_join_count(ds, "purchase", "click", window_us=5 * H, num_parts=4).to_pandas())
    want = canon(con.execute("""
        SELECT p.event_id, p.user_id, CAST(count(c.event_id) AS BIGINT) AS n_in_window
        FROM (SELECT event_id, user_id, ts FROM events WHERE event_type='purchase') p
        LEFT JOIN (SELECT event_id, user_id, ts FROM events WHERE event_type='click') c
          ON c.user_id = p.user_id AND c.ts BETWEEN p.ts - INTERVAL 5 HOUR AND p.ts
        GROUP BY p.event_id, p.user_id
    """).df())
    assert got == want

    gap = 3 * H
    got = canon(sessionize(ds, gap_us=gap, num_parts=4).to_pandas())
    want = canon(con.execute(f"""
        WITH o AS (
          SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                 CASE WHEN lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                        OR epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) > {gap}
                      THEN 1 ELSE 0 END AS new_s
          FROM events
        ), s AS (
          SELECT user_id, ts_us,
                 sum(new_s) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                                  ROWS UNBOUNDED PRECEDING) AS sess
          FROM o
        )
        SELECT user_id, CAST(sess AS BIGINT) AS session_idx,
               CAST(count(*) AS BIGINT) AS n_events,
               CAST(max(ts_us) - min(ts_us) AS BIGINT) AS dur_us
        FROM s GROUP BY user_id, sess
    """).df())
    assert got == want


def test_knn_graph_blocked_vs_bruteforce(ray_session):
    """knn_graph with tiny blocks (forcing many block pairs and
    partial-topk merges) must equal the single-matrix brute force, with
    self excluded and (round6 desc, id asc) ranking."""
    import ray.data as rd

    from lighthouse_ray.functions.similarity import knn_graph

    rng = np.random.RandomState(3)
    n, d, k = 40, 8, 3
    m = rng.randn(n, d)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1)), d
            ).cast(pa.list_(pa.float64())),
        }
    )
    got = {}
    for r in knn_graph(
        rd.from_arrow(t).repartition(6), k=k, block_rows=7, num_parts=4
    ).take_all():
        got.setdefault(int(r["vec_id"]), []).append((int(r["nn_id"]), float(r["cos"])))
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = np.round(mn @ mn.T, 6)
    np.fill_diagonal(cos, -np.inf)
    for i in range(n):
        order = np.lexsort((np.arange(n), -cos[i]))[:k]
        want = [(int(j), float(cos[i, j])) for j in order]
        assert got[i] == want, i


def test_shuffle_join_inner_and_left(ray_session):
    """Reduce-side shuffle join: inner and left-outer vs a pandas merge,
    including duplicate keys on both sides (cross products) and
    unmatched rows, independent of block layout."""
    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.functions.joins import shuffle_join

    rng = np.random.RandomState(11)
    left = pd.DataFrame(
        {"k": rng.randint(0, 20, size=100).astype(np.int64),
         "lv": np.arange(100, dtype=np.int64)}
    )
    right = pd.DataFrame(
        {"k": rng.randint(5, 25, size=60).astype(np.int64),
         "rv": np.arange(1000, 1060, dtype=np.int64)}
    )

    def canon(df):
        df = df[sorted(df.columns)].astype("float64")  # nulls -> NaN uniform
        return sorted(map(tuple, df.fillna(-1).itertuples(index=False)))

    for how in ("inner", "left", "outer"):
        got = shuffle_join(
            rd.from_pandas(left).repartition(7),
            rd.from_pandas(right).repartition(3),
            key="k", lcols=["lv"], rcols=["rv"], how=how, num_parts=5,
        ).to_pandas()
        want = left.merge(right, on="k", how=how)
        assert canon(got) == canon(want), how

    # outer + hot_keys is rejected (replicated right hot rows would
    # duplicate lone emissions)
    import pytest

    with pytest.raises(ValueError, match="hot_keys"):
        shuffle_join(
            rd.from_pandas(left), rd.from_pandas(right),
            key="k", lcols=["lv"], rcols=["rv"], how="outer", hot_keys=[5],
        )


def test_chunk_and_percentiles_edges(ray_session):
    """Edge coverage the sf corpora may miss: docs shorter than one
    chunk, exactly one chunk, and a stride-aligned length; percentile
    ranks on tiny per-group distributions — both vs DuckDB."""
    import os
    import tempfile

    import duckdb
    import pandas as pd

    from lighthouse_ray.pipelines.driver_queries import (
        CHUNK_SIZE, CHUNK_STRIDE, SQL_CHUNK_TEXT, SQL_PERCENTILES,
        q_chunk_text, q_percentiles,
    )

    words = lambda k: " ".join(f"tok{i}" for i in range(k))
    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "",                              # empty -> no chunks
                "single",                        # 1 token
                words(CHUNK_SIZE),               # exactly one window
                words(CHUNK_SIZE + 1),           # spills into chunk 1
                words(CHUNK_STRIDE * 3),         # stride-aligned
                words(200),
            ],
            "lang": ["en", "en", "de", "de", "fr", "fr"],
            "n_chars": np.array([0, 6, 17, 401, 83, 83], dtype=np.int64),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(os.path.join(d, "documents.parquet"))
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{os.path.join(d, 'documents.parquet')}')"
        )

        def canon(got):
            got = got[sorted(got.columns)].copy()
            for c in got.columns:
                got[c] = got[c].astype(str)
            return sorted(map(tuple, got.itertuples(index=False)))

        assert canon(q_chunk_text(d).to_pandas()) == canon(con.execute(SQL_CHUNK_TEXT).df())
        assert canon(q_percentiles(d).to_pandas()) == canon(con.execute(SQL_PERCENTILES).df())


def test_shuffle_join_salted_hot_key(ray_session):
    """The salted skew path must produce exactly the plain join's
    multiset — every (hot-left x hot-right) pair exactly once across
    the salt buckets — for inner and left joins."""
    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.functions.joins import shuffle_join

    rng = np.random.RandomState(5)
    # key 7 is hot: half of the left rows, several right rows
    lk = np.where(rng.rand(200) < 0.5, 7, rng.randint(0, 20, size=200)).astype(np.int64)
    left = pd.DataFrame({"k": lk, "lv": np.arange(200, dtype=np.int64)})
    rk = np.where(rng.rand(40) < 0.3, 7, rng.randint(10, 25, size=40)).astype(np.int64)
    right = pd.DataFrame({"k": rk, "rv": np.arange(1000, 1040, dtype=np.int64)})

    def canon(df):
        df = df[sorted(df.columns)].astype("float64")
        return sorted(map(tuple, df.fillna(-1).itertuples(index=False)))

    for how in ("inner", "left"):
        got = shuffle_join(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(2),
            key="k", lcols=["lv"], rcols=["rv"], how=how, num_parts=6,
            hot_keys=[7], salt=4,
        ).to_pandas()
        want = left.merge(right, on="k", how=how)
        assert canon(got) == canon(want), how


def test_curation_ops_vs_bruteforce(ray_session):
    """decontaminate / repetition_stats / curation_funnel pinned against
    a pure-Python reference at sf0.001 — independent of the DuckDB
    oracle the driver uses."""
    import collections
    import hashlib
    import random

    import pyarrow.parquet as pq

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.pipelines.driver_queries import (
        CUR_LANGS, CUR_MAX_TOK, CUR_MIN_TOK, CUR_STOP_CAP, DECON_MOD, DECON_N,
        STOPWORDS, q_curation_funnel, q_decontaminate, q_repetition_stats,
    )

    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text", "lang"])
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    langs = docs["lang"].to_pylist()
    toks = {d: tokenize_text(t) for d, t in zip(ids, texts)}

    # decontaminate: flagged docs (and only those) share >=1 benchmark shingle
    def shingles(ts):
        return {" ".join(ts[i : i + DECON_N]) for i in range(len(ts) - DECON_N + 1)}

    bench = set().union(*(shingles(ts) for d, ts in toks.items() if d % DECON_MOD == 0))
    want = {
        d: len(shingles(ts) & bench)
        for d, ts in toks.items()
        if d % DECON_MOD != 0 and shingles(ts) & bench
    }
    got = q_decontaminate(SF).to_pandas()
    assert dict(zip(got.doc_id, got.n_overlap)) == want and len(want) > 0

    # repetition_stats: spot-check 25 docs against a Counter reference
    rs = q_repetition_stats(SF).to_pandas().set_index("doc_id")
    for d in random.Random(0).sample(ids, 25):
        ts = toks[d]
        bgs = [" ".join(ts[i : i + 2]) for i in range(len(ts) - 1)]
        if not bgs:
            assert d not in rs.index
            continue
        c = collections.Counter(bgs)
        row = rs.loc[d]
        assert row.n_bigrams == len(bgs)
        assert abs(row.top_bigram_frac - round(max(c.values()) / len(bgs), 6)) < 1e-9
        dup = sum(v for v in c.values() if v > 1)
        assert abs(row.dup_bigram_frac - round(dup / len(bgs), 6)) < 1e-9

    # curation funnel: quality bounds + lang allowlist + min-doc_id dedup
    kept = {}
    for d, t, lang in zip(ids, texts, langs):
        ts = toks[d]
        n = len(ts)
        ratio = sum(x in STOPWORDS for x in ts) / max(n, 1)
        if CUR_MIN_TOK <= n <= CUR_MAX_TOK and ratio <= CUR_STOP_CAP and lang in CUR_LANGS:
            h = hashlib.md5(t.encode()).hexdigest()
            if h not in kept or d < kept[h][0]:
                kept[h] = (d, lang, n)
    agg = {}
    for _d, lang, n in kept.values():
        a = agg.setdefault(lang, [0, 0])
        a[0] += 1
        a[1] += n
    gotf = q_curation_funnel(SF).to_pandas()
    assert {r.lang: [r.n_docs, r.n_tokens] for r in gotf.itertuples()} == agg


def test_heavy_hitters_sketch_exact(ray_session):
    """Misra-Gries heavy hitters: the compress bound holds, and the
    operator returns the EXACT top-k both on the comfortable path
    (sketch >= vocab) and with a tiny sketch that forces per-batch
    decrements (where the conclusiveness check / fallback must still
    yield the exact answer)."""
    import collections

    import pyarrow.parquet as pq
    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.sketch import bigram_counts, heavy_hitters, mg_compress

    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    want = collections.Counter()
    for t in docs["text"].to_pylist():
        ts = tokenize_text(t)
        want.update(" ".join(ts[i : i + 2]) for i in range(len(ts) - 1))
    top_want = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    # compress bound: <= S survivors, undercount of any key <= d
    cnt = bigram_counts(docs, "text")
    comp, d = mg_compress(cnt, 32)
    assert comp.num_rows <= 32 and d > 0
    orig = dict(zip(cnt["key"].to_pylist(), cnt["c"].to_pylist()))
    for key, c in zip(comp["key"].to_pylist(), comp["c"].to_pylist()):
        assert orig[key] - c == d

    ds = rd.from_arrow(docs).repartition(8)
    for s in (4096, 64):  # comfortable and decrement-forcing sketches
        got = heavy_hitters(ds, 10, sketch_size=s)
        assert list(zip(got["key"], got["cnt"])) == top_want, s


def test_training_layout_ops_vs_bruteforce(ray_session):
    """shuffle_shards is a permutation with dense per-shard ranks that
    match a brute-force sort, and seq_pack's offsets equal the
    brute-force per-bucket running totals — on an id set with gaps and
    across a multi-partition input."""
    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.functions.packing import seq_pack, shuffle_key, shuffle_shards

    rng = np.random.default_rng(7)
    ids = np.unique(rng.integers(0, 100_000, size=900)).astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids)})
    got = (
        shuffle_shards(rd.from_arrow(t).repartition(7), n_shards=5, num_parts=6)
        .to_pandas()
        .sort_values(["shard", "pos"])
        .reset_index(drop=True)
    )
    assert sorted(got["doc_id"]) == sorted(ids)  # permutation, nothing lost
    key = shuffle_key(ids)
    order = np.lexsort((ids, key, key % 5))
    want = pd.DataFrame({"doc_id": ids[order], "shard": (key % 5)[order]})
    want["pos"] = want.groupby("shard").cumcount()
    pd.testing.assert_frame_equal(
        got[["doc_id", "shard", "pos"]],
        want.sort_values(["shard", "pos"]).reset_index(drop=True),
        check_dtype=False,
    )

    n_tok = rng.integers(0, 500, size=len(ids)).astype(np.int64)  # incl. empty docs
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids), "n_tokens": pa.array(n_tok)})).repartition(7)
    gotp = seq_pack(ds, seq_len=128, n_buckets=4, num_parts=6).to_pandas()
    gotp = gotp.sort_values("doc_id").reset_index(drop=True)
    df = pd.DataFrame({"doc_id": ids, "bucket": ids % 4, "n_tokens": n_tok}).sort_values("doc_id")
    df["start_tok"] = df.groupby("bucket")["n_tokens"].cumsum() - df["n_tokens"]
    df["seq_id"] = df["start_tok"] // 128
    df["seq_off"] = df["start_tok"] % 128
    pd.testing.assert_frame_equal(gotp, df.reset_index(drop=True), check_dtype=False)


def test_kmeans_vs_bruteforce_with_empty_cluster(ray_session):
    """Quantized Lloyd matches a single-process reference implementing
    the same integer algorithm, on data engineered so a seed cluster
    empties after the first update (duplicated seed points) and across
    a multi-partition input."""
    import ray.data as rd

    from lighthouse_ray.functions.clustering import _assign, _quantize, kmeans_assign

    rng = np.random.default_rng(11)
    # two tight blobs + duplicated points at the low ids: seeds 0..3
    # sit nearly on top of each other, so some seed clusters empty out
    base = np.concatenate([
        np.tile(rng.normal(0.3, 0.01, size=(1, 6)), (4, 1)),
        rng.normal(-0.2, 0.02, size=(60, 6)),
        rng.normal(0.35, 0.02, size=(60, 6)),
    ]).astype(np.float32)
    ids = np.arange(len(base), dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(list(base), type=pa.list_(pa.float32()))})
    k, iters = 4, 3
    got = (kmeans_assign(rd.from_arrow(t).repartition(5), k=k, iters=iters)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))

    q = _quantize(base, 1000, 1000)
    cent = q[np.argsort(ids)[:k]].copy()
    for _ in range(iters - 1):
        a, _ = _assign(q, cent)
        for c in range(k):
            sel = a == c
            if sel.any():
                n, s = int(sel.sum()), q[sel].sum(axis=0)
                cent[c] = (2 * s + n) // (2 * n)
    a, d2 = _assign(q, cent)
    assert got["cluster"].tolist() == a.tolist()
    assert got["d2"].tolist() == d2.tolist()
    assert len(set(a)) < k  # the engineered empty cluster actually happened


def test_bloom_anti_join_exact_under_false_positives(ray_session):
    """bloom_anti_join returns the exact anti-join even with a filter
    sized to force heavy false positives (m_bits=64), and with an
    honest filter the bloom actually prunes (most keeps never enter
    the exchange)."""
    import ray.data as rd

    from lighthouse_ray.functions.joins import bloom_anti_join

    rng = np.random.default_rng(3)
    big_keys = rng.integers(0, 5000, size=4000).astype(np.int64)
    big = pa.table({"k": pa.array(big_keys),
                    "v": pa.array(np.arange(4000, dtype=np.int64))})
    bad = np.unique(rng.choice(np.unique(big_keys), size=800, replace=False))
    keys = pa.table({"k": pa.array(bad)})
    want = {(int(k), int(v)) for k, v in zip(big_keys, np.arange(4000))
            if int(k) not in set(bad.tolist())}

    for m_bits in (64, 1 << 16):  # collision-saturated and honest
        stats = {}
        got = bloom_anti_join(
            rd.from_arrow(big).repartition(5), rd.from_arrow(keys).repartition(3),
            key="k", cols=["v"], m_bits=m_bits, num_parts=6, stats=stats,
        ).to_pandas()
        assert {(int(r.k), int(r.v)) for r in got.itertuples()} == want, m_bits
        if m_bits == 1 << 16:
            n_fast = stats["fast_keeps"].count()
            n_cand = stats["candidates"].count()
            assert n_fast + n_cand == 4000
            assert n_fast > 0.8 * len(want)  # the bloom really pruned


def test_kmv_distinct_accuracy_and_exact_small_groups(ray_session):
    """KMV estimate is within the theoretical error band for a large
    group, EXACT for a group with fewer than k distinct tokens, and
    layout-independent (same answer at different partitionings)."""
    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.sketch import kmv_distinct

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(3000)]
    big_rows = [" ".join(rng.choice(vocab, size=40)) for _ in range(400)]
    small_rows = ["alpha beta gamma delta", "beta gamma", "alpha epsilon"]
    t = pa.table({
        "lang": pa.array(["big"] * len(big_rows) + ["tiny"] * len(small_rows)),
        "text": pa.array(big_rows + small_rows),
    })
    outs = []
    for parts in (3, 9):
        got = (kmv_distinct(rd.from_arrow(t).repartition(parts), k=64)
               .to_pandas().set_index("lang")["est_distinct"])
        outs.append(got)
        truth = len({tok for r in big_rows for tok in tokenize_text(r)})
        assert abs(got["big"] - truth) / truth < 0.30  # ~2/sqrt(64) band
        assert got["tiny"] == 5  # < k distinct -> exact by definition
    assert outs[0].equals(outs[1])  # layout-independent


def test_pii_scrub_vs_python_re(ray_session):
    """The scrub pipeline matches a plain-Python re reference on text
    with real PII shapes (emails, IPs, numbers, adjacent and
    overlapping-pattern cases), applied in the same pattern order."""
    import re

    from lighthouse_ray.pipelines.driver_queries import PII_PATTERNS

    rows = [
        "contact john.doe+spam@example.co.uk or 10.0.0.1 now",
        "ids 12345 and 99, ip 192.168.1.255, mail a@b.io",
        "no pii here at all",
        "edge 999.999.999.999 1.2.3.4.5 x@y.z",
        "",
    ]
    t = pa.table({"event_id": pa.array(range(len(rows)), type=pa.int64()),
                  "props": pa.array(rows)})

    def ref(s):
        n = 0
        for pat, rep in PII_PATTERNS:
            n += len(re.findall(pat, s))
            s = re.sub(pat, rep, s)
        return s, n

    # drive the same kernel sequence the gate uses, over the table
    import pyarrow.compute as _pc

    s = t["props"]
    total = np.zeros(len(rows), dtype=np.int64)
    for pat, rep in PII_PATTERNS:
        total += _pc.count_substring_regex(s, pat).to_numpy(zero_copy_only=False)
        s = _pc.replace_substring_regex(s, pattern=pat, replacement=rep)
    for i, r in enumerate(rows):
        ws, wn = ref(r)
        assert s[i].as_py() == ws, r
        assert int(total[i]) == wn, r


def test_repetition_stats_rounding_tie_matches_sql(ray_session, tmp_path):
    """A 129-distinct-token doc has 128 bigrams each with count 1, so
    top_bigram_frac = 1/128 * 1e6 = an exact .5 tie where np.round
    (half-to-even) and DuckDB round() (half-away) disagree; both sides
    must use the shared floor(x*1e6 + 0.5) rule."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_REPETITION_STATS,
        q_repetition_stats,
    )

    text = " ".join(f"tok{i}" for i in range(129))
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()), "text": pa.array([text])})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = q_repetition_stats(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(SQL_REPETITION_STATS).df()
    assert (1 / 128 * 1e6) % 1 == 0.5  # the case really is a tie
    assert got["top_bigram_frac"].iloc[0] == want["top_bigram_frac"].iloc[0]
    assert got["top_bigram_frac"].iloc[0] == 0.007813  # half-up, not half-even


def test_quality_stats_rounding_tie_matches_sql(ray_session, tmp_path):
    """One stopword among 128 tokens: stop_ratio = 1/128 — the same
    .5e-6 tie class, fixed with the same shared rounding rule."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.pipelines.driver_queries import SQL_QUALITY_STATS, q_quality_stats

    text = "the " + " ".join(f"tok{i}" for i in range(127))
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()), "text": pa.array([text])})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = q_quality_stats(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(SQL_QUALITY_STATS).df()
    assert got["n_tokens"].iloc[0] == 128
    assert got["stop_ratio"].iloc[0] == want["stop_ratio"].iloc[0]
    assert got["stop_ratio"].iloc[0] == 0.007813
    assert got["mean_tok_len"].iloc[0] == want["mean_tok_len"].iloc[0]


def test_model_score_rounding_tie_matches_sql():
    """Any 128-token document makes z/128 * 1e6 an exact .5 tie (z is
    always odd there), where np.round (half-to-even) and SQL round
    (half-away) disagree — the stage must match DuckDB bit-for-bit via
    the shared floor(x*1e6 + 0.5) rule."""
    import duckdb

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_MODEL_SCORE,
        QualityModelStage,
        QM_BIAS,
        QM_W_CHARS,
        QM_W_STOP,
        QM_W_TOK,
    )

    text = " ".join(f"tok{i}" for i in range(128))
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "text": pa.array([text])})
    stage = QualityModelStage((QM_W_TOK, QM_W_STOP, QM_W_CHARS, QM_BIAS))
    got = stage(t)["quality_score"][0].as_py()

    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(SQL_MODEL_SCORE).fetchone()[1]
    assert got == want
    # and the case really exercises a tie: the unrounded score lands
    # exactly on a .5e-6 boundary (odd z over a power-of-two count)
    n_chars = sum(len(f"tok{i}") for i in range(128))
    z = QM_W_TOK * 128 + QM_W_CHARS * n_chars + QM_BIAS
    assert z % 2 == 1 and (z / 128 * 1e6) % 1 == 0.5


def test_tfidf_rounding_tie_matches_sql(ray_session, tmp_path):
    """tf*n/df is a pure integer ratio, so power-of-two df makes exact
    .5e-6 ties: 129 docs with term 'hot' in 128 of them scores
    1*129/128 = 1.0078125 — np.round (half-even) would emit 1.007812
    while DuckDB round() emits 1.007813.  Both sides must use the
    shared floor(x*1e6 + 0.5) rule."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_TFIDF_KEYWORDS,
        q_tfidf_keywords,
    )

    rows = [f"hot filler{i}" for i in range(128)] + ["cold alone"]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), type=pa.int64()),
        "text": pa.array(rows),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        q_tfidf_keywords(str(tmp_path)).to_pandas()
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = (
        con.execute(SQL_TFIDF_KEYWORDS).df()
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    )
    assert (129 / 128 * 1e6) % 1 == 0.5  # the case really is a tie
    hot = got[got["term"] == "hot"]["score"]
    assert len(hot) == 128 and (hot == 1.007813).all()  # half-up, not half-even
    assert len(got) == len(want)
    for c in ("doc_id", "term", "score"):
        assert list(got[c]) == list(want[c]), c


def test_ngram_jaccard_rounding_tie_matches_sql(ray_session, tmp_path):
    """Jaccard 5/640 is an exact .5e-6 tie (0.0078125): two docs with a
    7-token shared prefix and unique tails sized so na=322, nb=323,
    inter=5, union=640.  np.round (half-to-even) gives 0.007812 while
    DuckDB round() gives 0.007813 — both sides must use the shared
    floor(x*1e6 + 0.5) rule (same class ADVICE flagged for
    repetition_stats; this covers the jaccard family)."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_NGRAM_JACCARD,
        q_ngram_jaccard,
    )

    common = " ".join(f"com{i}" for i in range(7))
    a = common + " " + " ".join(f"aaa{i}" for i in range(317))
    b = common + " " + " ".join(f"bbb{i}" for i in range(318))
    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array([a, b])})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = q_ngram_jaccard(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(SQL_NGRAM_JACCARD).df()
    assert (5 / 640 * 1e6) % 1 == 0.5  # the case really is a tie
    assert len(got) == 1 and len(want) == 1
    assert int(got["inter"].iloc[0]) == 5
    assert got["jaccard"].iloc[0] == want["jaccard"].iloc[0]
    assert got["jaccard"].iloc[0] == 0.007813  # half-up, not half-even


def test_driver_contract_consistency():
    """queries() and oracle_sql() stay in lockstep: identical key sets
    and every oracle SQL plans against the driver's table views (an
    EXPLAIN catches syntax/column drift without executing anything)."""
    import os

    import duckdb

    import __ray_entry__ as m

    qs, sqls = m.queries(), m.oracle_sql()
    assert set(qs) == set(sqls)
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        p = f"{SF}/{t}.parquet"
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    for name, sql in sqls.items():
        con.execute("EXPLAIN " + sql)  # raises on any parse/bind error


@pytest.mark.parametrize(
    "gate", ["multimodal_meta", "audio_meta", "video_meta", "video_frames", "spell_suggest"]
)
def test_gate_matches_oracle(ray_session, gate):
    """Each gate equals its DuckDB oracle, compared as
    ``scripts/check_driver_queries.py`` compares: canonical frames with
    equal columns and row count, then values to 1e-9.  Every gate here
    reads only ``documents``."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as m
    from scripts.check_driver_queries import canon, to_pandas

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    got = canon(to_pandas(m.queries()[gate](SF)))
    want = canon(con.execute(m.oracle_sql()[gate]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=1e-9, atol=1e-9)


def test_levenshtein_batch_matches_duckdb():
    """``util.edit_distance`` over a batch of Arrow terms is exact
    Levenshtein (DuckDB ``levenshtein()`` is the oracle), including a
    sliced array (nonzero Arrow offset)."""
    import duckdb

    from lighthouse_ray.util import edit_distance, string_buffers

    words = ["window", "windows", "widow", "merge", "win", "sor", "", "s0rt", "sort"]
    rows = np.arange(len(words))
    for q in ["sor", "windwo", "a"]:
        got = list(edit_distance(*string_buffers(pa.array(words)), rows, q))
        want = [
            r[0]
            for r in duckdb.sql(
                f"SELECT levenshtein(w, '{q}') FROM (SELECT unnest({words}) AS w)"
            ).fetchall()
        ]
        assert got == want
        sliced = pa.array(["pad", *words]).slice(1)
        assert list(edit_distance(*string_buffers(sliced), rows, q)) == want


def test_group_topn_min_across_batches(ray_session):
    """The bounded summary keeps each group's n smallest values no
    matter how rows are split across batches; a group with fewer than
    n values keeps them all."""
    import ray.data as rd

    from lighthouse_ray.functions.sketch import group_topn_min

    rows = [{"g": f"g{i % 3}", "v": i} for i in range(100)] + [
        {"g": "rare", "v": 7_000}
    ]
    ds = rd.from_items(rows).repartition(13)
    got = group_topn_min(ds, group_col="g", val_col="v", n=4).to_pandas()
    got = got.sort_values(["g", "v"]).reset_index(drop=True)
    want = {
        "g0": [0, 3, 6, 9],
        "g1": [1, 4, 7, 10],
        "g2": [2, 5, 8, 11],
        "rare": [7_000],
    }
    for g, vals in want.items():
        assert list(got[got["g"] == g]["v"]) == vals
    assert len(got) == 13


def test_highlight_window_edges(ray_session, tmp_path):
    """First-occurrence snippets clamp at both document edges and pick
    the FIRST hit when the term repeats."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_HIGHLIGHT_SNIPPET,
        q_highlight_snippet,
    )

    docs = [
        "merge a b c d",          # hit at doc start
        "a b c d merge",          # hit at doc end
        "a merge b merge c",      # repeated: first occurrence wins
        "no hit here",            # filtered out
        "merge",                  # single-token doc
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        q_highlight_snippet(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [0, 1, 2, 4]
    assert list(got["snippet"]) == [
        "merge a b",
        "c d merge",
        "a merge b merge",
        "merge",
    ]
    assert list(got["pos"]) == [0, 4, 1, 0]
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(SQL_HIGHLIGHT_SNIPPET).df().sort_values("doc_id")
    assert list(want["snippet"]) == list(got["snippet"])


def test_substring_dup_catches_contained_run(ray_session, tmp_path):
    """A k-token run copied into an otherwise different document is
    flagged on both docs; Jaccard-dissimilar docs still count."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.functions.dedup import substring_dup_docs

    run = "alpha beta gamma delta"  # 4 tokens, k=4
    docs = [
        f"{run} unrelated tail words here",               # shares the run
        f"prefix words {run}",                            # shares the run
        "totally different content with no overlap at",   # clean
        "short",                                          # < k tokens
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    import ray.data as rd

    got = (
        substring_dup_docs(rd.read_parquet(str(tmp_path / "documents.parquet")), k=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [0, 1]
    assert list(got["n_dup_grams"]) == [1, 1]


def test_substring_dup_spans_merge_and_positions(ray_session, tmp_path):
    """Overlapping duplicated k-grams merge into one maximal span with
    exact 1-based token positions; within-doc-only repeats don't count
    (cross-doc criterion); results match the SQL oracle."""
    import duckdb
    import pyarrow.parquet as pq

    from lighthouse_ray.functions.dedup import substring_dup_spans

    # docs 0/1 share a 6-token run -> with k=4 that is three overlapping
    # duplicated grams per doc, merging into ONE span of len 6.
    run = "alpha beta gamma delta eps zeta"
    docs = [
        f"x1 x2 {run} y1 y2",            # span at tokens 3..8
        f"{run} z1 z2 z3",               # span at tokens 1..6
        "w1 w2 w3 w4 w1 w2 w3 w4",       # within-doc repeat only: no span
        "short text",                     # < k tokens
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    import ray.data as rd

    got = (
        substring_dup_spans(rd.read_parquet(str(tmp_path / "documents.parquet")), k=4)
        .to_pandas().sort_values(["doc_id", "s"]).reset_index(drop=True)
    )
    assert got.to_dict("list") == {
        "doc_id": [0, 1], "s": [3, 1], "e": [9, 7], "len": [6, 6]
    }

    # randomized corpus vs the registered oracle SQL (k=SUB_K=8)
    import numpy as _np

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_DUP_SUBSTR_SPANS,
        q_dup_substr_spans,
    )

    rng = _np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(12)]
    # plant shared runs (>= SUB_K tokens) into random filler so the
    # cross-doc duplicated-span machinery actually fires
    runs = [" ".join(rng.choice(vocab, size=rng.randint(9, 14))) for _ in range(5)]
    rows = []
    for i in range(60):
        toks = list(rng.choice(vocab, size=rng.randint(5, 40)))
        if i % 3 == 0:
            r = runs[rng.randint(len(runs))].split()
            at = rng.randint(len(toks) + 1)
            toks = toks[:at] + r + toks[at:]
        rows.append(" ".join(toks))
    t2 = pa.table({
        "doc_id": pa.array(range(len(rows)), type=pa.int64()),
        "text": pa.array(rows),
    })
    pq.write_table(t2, str(tmp_path / "documents.parquet"))
    got2 = (
        q_dup_substr_spans(str(tmp_path)).to_pandas()
        .sort_values(["doc_id", "s"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t2)
    want2 = (
        con.execute(SQL_DUP_SUBSTR_SPANS).df()
        .sort_values(["doc_id", "s"]).reset_index(drop=True)
    )
    assert len(got2) == len(want2) and len(got2) > 0
    for c in ("doc_id", "s", "e", "len"):
        assert list(got2[c]) == list(want2[c]), c


def test_unigram_xent_oov_floor(ray_session, tmp_path):
    """With the vocab cap binding, OOV tokens score at ln(1/total) and
    the per-doc mean matches a hand computation."""
    import math

    import pyarrow.parquet as pq

    from lighthouse_ray.functions.textstats import unigram_xent

    # corpus: 'a' x6, 'b' x3, 'c' x1 -> total 10; vocab=2 keeps a, b
    docs = ["a a a b", "a a a b b c"]
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(docs),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    import ray.data as rd

    got = (
        unigram_xent(rd.read_parquet(str(tmp_path / "documents.parquet")), vocab=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    lp_a, lp_b, lp_oov = math.log(6 / 10), math.log(3 / 10), math.log(1 / 10)
    want0 = -(3 * lp_a + lp_b) / 4
    want1 = -(3 * lp_a + 2 * lp_b + lp_oov) / 6
    import numpy as _np

    r6 = lambda x: _np.floor(x * 1e6 + 0.5) / 1e6
    assert list(got["xent"]) == [r6(want0), r6(want1)]


def test_semdedup_within_cluster_keep_first(ray_session):
    """Near-identical vectors landing in one cluster keep only the
    smallest id; cross-cluster near-dups are NOT compared (the
    SemDeDup contract)."""
    import ray.data as rd

    from lighthouse_ray.functions.clustering import semdedup

    rows = [
        {"vec_id": 0, "embedding": [1.0, 0.0]},
        {"vec_id": 1, "embedding": [0.999, 0.01]},   # near-dup of 0
        {"vec_id": 2, "embedding": [0.0, 1.0]},
        {"vec_id": 3, "embedding": [0.01, 0.999]},   # near-dup of 2
        {"vec_id": 4, "embedding": [-1.0, 0.0]},
    ]
    got = (
        semdedup(rd.from_items(rows), k=2, iters=2, threshold=0.95)
        .to_pandas()
        .sort_values("vec_id")
    )
    assert set(got["vec_id"]) == {0, 2, 4}


def test_filtered_run_pairs_hot_run_blockwise():
    """The LSH hot-bucket guard: a run longer than _HOT_RUN goes through
    the blockwise path; both paths must return exactly the pairs whose
    sketch agreement >= min_agree, and nothing else."""
    from lighthouse_ray.functions.dedup import _HOT_RUN, _filtered_run_pairs

    rng = np.random.RandomState(11)
    L = 4596  # > _HOT_RUN (blockwise path) and > the 4096 block size
    assert L > _HOT_RUN
    width, min_agree = 16, 12
    sigb = rng.randint(0, 256, size=(L + 40, width)).astype(np.uint8)
    # plant agreeing groups: a pair inside the hot run, a pair spanning
    # block boundary 4096, and a triple in the small run [L, L+40)
    sigb[7] = sigb[3]
    sigb[4100] = sigb[4090]
    sigb[L + 5] = sigb[L + 2]
    sigb[L + 9, :13] = sigb[L + 2, :13]  # 13 >= min_agree agreement
    starts = np.array([0, L], dtype=np.int64)
    lens = np.array([L, 40], dtype=np.int64)
    a, b = _filtered_run_pairs(sigb, starts, lens, min_agree)
    got = set(zip(a.tolist(), b.tolist()))
    # brute-force expectation
    want = set()
    for s, ln in zip(starts, lens):
        blk = sigb[s : s + ln]
        ag = (blk[:, None, :] == blk[None, :, :]).sum(2)
        ii, jj = np.nonzero(ag >= min_agree)
        want |= {(s + i, s + j) for i, j in zip(ii, jj) if i < j}
    assert got == want
    assert (3, 7) in got and (4090, 4100) in got and (L + 2, L + 5) in got


def test_bloom_filtered_pairs_hot_run_pair_list():
    """Verification hot-shingle guard: a run longer than _HOT_RUN uses
    the candidate pair-list flip (O(P log df)); results must equal the
    brute-force 'pairs with both endpoints in the run' set, and the
    small-run bloom path must cover every candidate pair it contains."""
    from lighthouse_ray.functions.joins import _bloom_positions
    from lighthouse_ray.functions.dedup import (
        _HOT_RUN,
        _bloom_filtered_pairs,
        combine_hashes,
    )
    from lighthouse_ray.functions.exchange import splitmix64

    rng = np.random.RandomState(5)
    L_hot, L_small = _HOT_RUN + 700, 37
    n = L_hot + L_small
    # sorted int64 ids per run (global sort within each run slice)
    ids = np.concatenate([
        np.sort(rng.choice(10_000_000, size=L_hot, replace=False)),
        np.sort(rng.choice(10_000_000, size=L_small, replace=False)),
    ]).astype(np.int64)
    starts = np.array([0, L_hot], dtype=np.int64)
    lens = np.array([L_hot, L_small], dtype=np.int64)
    idh = splitmix64(ids.astype(np.uint64))

    # candidate pairs: some inside the hot run, one in the small run,
    # some spanning runs (never produced), some absent ids
    cand = [
        (ids[3], ids[900]), (ids[2500], ids[2600]), (ids[0], ids[L_hot - 1]),
        (ids[L_hot + 2], ids[L_hot + 30]),
        (ids[5], ids[L_hot + 5]),      # spans runs -> no emission
        (123, 456),                    # ids not present
    ]
    pa_v = np.array(sorted(min(a, b) for a, b in cand), dtype=np.int64)
    pb_v = np.array([max(a, b) for a, b in sorted(cand, key=lambda p: min(p))], dtype=np.int64)
    m_bits, k_hashes = 1 << 16, 4
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    hh = combine_hashes(splitmix64(pa_v.astype(np.uint64)), splitmix64(pb_v.astype(np.uint64)))
    pos = _bloom_positions(hh, m_bits, k_hashes).ravel()
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))

    a_idx, b_idx = _bloom_filtered_pairs(
        idh, starts, lens, bits, m_bits, k_hashes,
        id_vals=ids, pair_vals=(pa_v, pb_v),
    )
    got = {(ids[i], ids[j]) for i, j in zip(a_idx, b_idx)}
    # expected: candidate pairs whose BOTH endpoints sit in one run
    want = set()
    for a, b in cand:
        a, b = min(a, b), max(a, b)
        for s, ln in zip(starts, lens):
            run = set(ids[s : s + ln].tolist())
            if a in run and b in run:
                want.add((a, b))
    assert want <= got  # bloom fp may add extras in the small run only
    extras = got - want
    for a, b in extras:  # extras must at least be same-run (i < j) pairs
        assert any(a in set(ids[s:s+ln].tolist()) and b in set(ids[s:s+ln].tolist())
                   for s, ln in zip(starts, lens))


def test_boilerplate_strip_lines(ray_session):
    """Line-level boilerplate removal: cross-doc repeated lines stripped,
    order-preserving rebuild, trimming charset honored, short lines immune,
    all-removed docs come back as empty text."""
    import ray.data as rd

    from lighthouse_ray.functions.dedup import boilerplate_strip

    banner = "subscribe to our newsletter"
    docs = [
        (1, f"alpha unique line\n{banner}\nbody one"),
        (2, f" {banner}\t\nbody two"),          # trims to the same banner
        (3, f"{banner}\nbody three\nok"),
        (4, banner),                             # the whole doc is boilerplate
        (5, ""),                                 # empty doc survives
        (6, "zz\nzz\nzz"),                       # short line (<8) never stripped
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    out = {
        r["doc_id"]: r
        for r in boilerplate_strip(ds, min_docs=3, min_len=8).take_all()
    }
    assert out[1]["text_clean"] == "alpha unique line\nbody one"
    assert out[1]["n_segments"] == 3 and out[1]["n_removed"] == 1
    assert out[2]["text_clean"] == "body two"
    assert out[3]["text_clean"] == "body three\nok"
    assert out[4]["text_clean"] == "" and out[4]["n_removed"] == 1
    assert out[5]["text_clean"] == "" and out[5]["n_segments"] == 1
    assert out[5]["n_removed"] == 0
    assert out[6]["text_clean"] == "zz\nzz\nzz"  # short lines immune

    # nothing-removed docs rebuild byte-lossless (incl. consecutive seps)
    weird = "a\n\n  b \nc"
    ds2 = rd.from_items([{"doc_id": 9, "text": weird}])
    (r,) = boilerplate_strip(ds2, min_docs=2, min_len=8).take_all()
    assert r["text_clean"] == weird and r["n_removed"] == 0


def _flagship_bm25():
    """Pure-Python BM25 of the flagship query over sf0.001's documents,
    independent of the index and of the DuckDB oracle: ``[(doc_id,
    lang, tokens, score)]`` for every matching doc, raw score."""
    import math

    import pyarrow.parquet as pq

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.pipelines.driver_queries import B, BM25_QUERY, K1

    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text", "lang"])
    toks = [tokenize_text(t) for t in docs["text"].to_pylist()]
    terms = tokenize_text(BM25_QUERY)
    n = len(toks)
    avgdl = sum(len(ts) for ts in toks) / n
    df = {t: sum(1 for ts in toks if t in ts) for t in terms}
    idf = {t: math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5)) for t in terms}

    rows = []
    for d, lang, ts in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist(), toks):
        dl = len(ts)
        score, hit = 0.0, False
        for t in terms:
            tf = ts.count(t)
            if tf:
                hit = True
                score += idf[t] * tf * (K1 + 1) / (tf + K1 * (1 - B + B * dl / avgdl))
        if hit:
            rows.append((d, lang, ts, score))
    return rows


def _r6(x: float) -> float:
    import math

    return math.floor(x * 1e6 + 0.5) / 1e6


def test_collapse_topk_vs_bruteforce(ray_session):
    """ES field collapsing (gate collapse_topk) pinned against a pure-
    Python BM25 + argmax-per-lang reference at sf0.001 — independent of
    the DuckDB oracle the driver uses."""
    from lighthouse_ray.pipelines.driver_queries import q_collapse_topk

    best: dict[str, tuple[float, int]] = {}
    for d, lang, _ts, score in _flagship_bm25():
        s6 = _r6(score)
        cur = best.get(lang)
        # score desc, doc_id asc
        if cur is None or (-s6, d) < (-cur[0], cur[1]):
            best[lang] = (s6, d)

    want = sorted(
        ((lang, d, s) for lang, (s, d) in best.items()),
        key=lambda r: (-r[2], r[1]),
    )[:10]
    got = q_collapse_topk(SF)
    assert [(r.lang, r.doc_id, r.score) for r in got.itertuples()] == want
    # one hit per collapse key, keys unique
    assert got.lang.is_unique and len(got) == len(want)


def test_group_topk_hits_vs_bruteforce(ray_session):
    """ES top_hits per lang (gate group_topk_hits): the top-2 hits of
    every lang by (6-dp score desc, doc_id asc), pinned against the
    pure-Python BM25 at sf0.001."""
    from lighthouse_ray.pipelines.driver_queries import q_group_topk_hits

    by_lang: dict[str, list[tuple[float, int]]] = {}
    for d, lang, _ts, score in _flagship_bm25():
        by_lang.setdefault(lang, []).append((-_r6(score), d))
    want = sorted(
        (lang, d, -neg) for lang, hits in by_lang.items() for neg, d in sorted(hits)[:2]
    )
    # the cut is live: some lang has more hits than it keeps
    assert any(len(hits) > 2 for hits in by_lang.values())
    got = q_group_topk_hits(SF)
    assert sorted((r.lang, r.doc_id, r.score) for r in got.itertuples()) == want


def test_boosting_topk_vs_bruteforce(ray_session):
    """ES boosting query (gate boosting_topk): positive BM25, docs with
    the negative term demoted ×negative_boost — pinned against a pure-
    Python reference at sf0.001."""
    from lighthouse_ray.pipelines.driver_queries import (
        BOOSTING_NEG_FACTOR, BOOSTING_NEG_TERM, q_boosting_topk,
    )

    hits = _flagship_bm25()
    rows = [
        (d, _r6(score * BOOSTING_NEG_FACTOR if BOOSTING_NEG_TERM in ts else score))
        for d, _lang, ts, score in hits
    ]
    want = sorted(rows, key=lambda r: (-r[1], r[0]))[:10]
    got = q_boosting_topk(SF)
    assert [(r.doc_id, r.score) for r in got.itertuples()] == want
    # the demotion is live: it reorders the undemoted top-10
    plain = sorted(((d, _r6(score)) for d, _l, _t, score in hits), key=lambda r: (-r[1], r[0]))[:10]
    assert [d for d, _ in want] != [d for d, _ in plain]


def test_phrase_slop_and_fuzzy_vs_bruteforce(ray_session):
    """Index-backed sloppy phrase (gate phrase_slop) and fuzzy match
    (gate fuzzy_match) pinned against pure-Python references at
    sf0.001: greedy in-order alignment with displacement <= slop, and
    AUTO-distance expansion with per-term max over expansions."""
    import math

    import pyarrow.parquet as pq

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.pipelines.driver_queries import (
        B, FUZZY_QUERY, K1, PHRASE_SLOP, PHRASE_SLOP_TERMS,
        q_fuzzy_match, q_phrase_slop,
    )

    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    toks = {d: tokenize_text(t) for d, t in zip(ids, docs["text"].to_pylist())}
    n = len(ids)
    avgdl = sum(len(t) for t in toks.values()) / n

    def idf(df):
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    # --- sloppy phrase reference -----------------------------------------
    t1, t2 = PHRASE_SLOP_TERMS
    df1 = sum(1 for ts in toks.values() if t1 in ts)
    df2 = sum(1 for ts in toks.values() if t2 in ts)
    want = {}
    for d, ts in toks.items():
        p1 = [i for i, t in enumerate(ts) if t == t1]
        p2 = [i for i, t in enumerate(ts) if t == t2]
        tfp = 0
        for p in p1:
            nxt = [q for q in p2 if q > p]
            if nxt and min(nxt) - p - 1 <= PHRASE_SLOP:
                tfp += 1
        if tfp:
            dl = len(ts)
            s = (idf(df1) + idf(df2)) * tfp * (K1 + 1) / (
                tfp + K1 * (1 - B + B * dl / avgdl)
            )
            want[d] = math.floor(s * 1e6 + 0.5) / 1e6
    got = q_phrase_slop(SF)
    assert {r.doc_id: r.score for r in got.itertuples()} == want
    assert want  # non-degenerate on this corpus

    # --- fuzzy match reference -------------------------------------------
    vocab = sorted({t for ts in toks.values() for t in ts})

    def ed(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            ndp = [i] + [0] * len(b)
            for j, cb in enumerate(b, 1):
                ndp[j] = min(dp[j] + 1, ndp[j - 1] + 1, dp[j - 1] + (ca != cb))
            dp = ndp
        return dp[-1]

    qterms = tokenize_text(FUZZY_QUERY)
    rows = {}
    multi = False
    for d, ts in toks.items():
        dl = len(ts)
        total, hit = 0.0, False
        for qt in qterms:
            maxd = 0 if len(qt) < 3 else (1 if len(qt) < 6 else 2)
            exps = [v for v in vocab if ed(v, qt) <= maxd] or [qt]
            multi = multi or len(exps) > 1
            best = 0.0
            for e in exps:
                tf = ts.count(e)
                if tf:
                    hit = True
                    dfe = sum(1 for xs in toks.values() if e in xs)
                    best = max(
                        best,
                        idf(dfe) * tf * (K1 + 1)
                        / (tf + K1 * (1 - B + B * dl / avgdl)),
                    )
            total += best
        if hit:
            rows[d] = math.floor(total * 1e6 + 0.5) / 1e6
    top = sorted(rows.items(), key=lambda r: (-r[1], r[0]))[:10]
    got = q_fuzzy_match(SF)
    assert [(r.doc_id, r.score) for r in got.itertuples()] == top
    assert multi  # at least one query term expanded to >1 terms


def test_bigram_xent_capped_model_and_short_docs(ray_session):
    """bigram_xent vs a pure-Python reference with a CAPPED model
    (uni_vocab/bi_vocab below the true vocabulary) so the OOV floors —
    c(w1 w2)=0 outside the bigram model, c(w1)=1 outside the unigram
    model — are actually exercised; docs with <2 tokens are dropped."""
    import math

    import pandas as pd
    import ray.data as rd

    from lighthouse_ray.analysis import tokenize_text
    from lighthouse_ray.functions.textstats import bigram_xent

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "a b a b c",
            "a b c d e",
            "e d c b a",
            "single",      # 1 token -> dropped
            "",            # 0 tokens -> dropped
            "a a a a a a",
        ],
    })
    got = bigram_xent(
        rd.from_pandas(df).repartition(3), uni_vocab=3, bi_vocab=4
    ).to_pandas().set_index("doc_id")["xent"].to_dict()

    toks = {d: tokenize_text(t) for d, t in zip(df.doc_id, df.text)}
    uni: dict = {}
    bi: dict = {}
    for ts in toks.values():
        for w in ts:
            uni[w] = uni.get(w, 0) + 1
        for w1, w2 in zip(ts, ts[1:]):
            bi[(w1, w2)] = bi.get((w1, w2), 0) + 1
    v = len(uni)
    um = dict(sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))[:3])
    bm = dict(sorted(bi.items(), key=lambda kv: (-kv[1], kv[0]))[:4])
    want = {}
    for d, ts in toks.items():
        if len(ts) < 2:
            continue
        lps = [
            math.log((bm.get((w1, w2), 0) + 1.0) / (um.get(w1, 1) + float(v)))
            for w1, w2 in zip(ts, ts[1:])
        ]
        want[d] = math.floor(-sum(lps) / len(lps) * 1e6 + 0.5) / 1e6
    assert got == want
    assert 3 not in got and 4 not in got
    # the caps bit: at least one bigram and one unigram fell out of model
    assert len(bi) > 4 and len(uni) > 3


def test_hll_distinct_raw_branch_vs_sql(ray_session):
    """hll_distinct on a corpus with enough distinct terms that the RAW
    HyperLogLog estimator fires (the sf corpora's tiny vocabulary always
    takes the linear-counting branch): bit-identical vs the DuckDB
    oracle, and within the ~±3.3% expected error for m=1024."""
    import os
    import tempfile

    import duckdb
    import pandas as pd

    from lighthouse_ray.pipelines.driver_queries import (
        SQL_HLL_DISTINCT, q_hll_distinct,
    )

    rng = np.random.RandomState(7)
    texts = []
    for d in range(40):
        words = [f"w{rng.randint(0, 8000):05d}" for _ in range(200)]
        texts.append(" ".join(words))
    df = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": texts,
        "lang": ["en"] * 40,
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
    })
    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(os.path.join(d, "documents.parquet"))
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{os.path.join(d, 'documents.parquet')}')"
        )
        want = con.execute(SQL_HLL_DISTINCT).df()
        got = q_hll_distinct(d)
        assert list(got.lang) == list(want.lang)
        assert list(got.n_exact) == list(want.n_exact)
        assert list(got.hll_est) == list(want.hll_est)
        n, est = int(got.n_exact[0]), float(got.hll_est[0])
        assert n > 2560 * 1.5          # raw branch territory
        assert abs(est - n) / n < 0.1  # sane estimate


def test_spill_exchange_ignores_orphan_files(ray_session, tmp_path):
    """Failed-attempt spill files are invisible: the reduce reads ONLY
    manifest-listed files, so an orphan parquet dropped into a part
    directory (a crashed task's leftover) cannot change results —
    the Spark-style shuffle-output-registration contract."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from lighthouse_ray.functions.exchange import spill_exchange

    t = pa.table({"k": pa.array([1, 2, 1, 3], type=pa.int64()),
                  "v": pa.array([10, 20, 30, 40], type=pa.int64())})

    def reduce_fn(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"k": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64())})
        g = part.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": g["k"], "s": g["v_sum"]})

    root = str(tmp_path / "xroot")
    # seed an orphan BEFORE the run in a directory the exchange will use
    os.makedirs(os.path.join(root, "part=0"), exist_ok=True)
    orphan = pa.table({"k": pa.array([1], type=pa.int64()),
                       "v": pa.array([10 ** 6], type=pa.int64())})
    pq.write_table(orphan, os.path.join(root, "part=0", "deadbeef-orphan.parquet"))

    out = spill_exchange(rd.from_arrow(t), "k", reduce_fn, num_parts=2,
                         spill_root=root).to_pandas().sort_values("k")
    assert dict(zip(out["k"], out["s"])) == {1: 40, 2: 20, 3: 40}


def test_late_window_agg_watermark_semantics(ray_session):
    """Hand-computed watermark/lateness: processing in arrival order,
    wm = running max event-time, dropped iff ts < wm - lateness."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lighthouse_ray.functions.windows import late_window_agg

    D = 86_400_000_000  # one day in us
    # arrival order: e0 (day 10) -> e1 (day 3, lag 7d: LATE) ->
    # e2 (day 8, lag 2d: kept) -> e3 (day 12) -> e4 (day 9, lag 3d: kept)
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array(np.array([10, 3, 8, 12, 9], dtype=np.int64) * D).cast(
            pa.timestamp("us")),
        "value": pa.array([1.0, 1.0, 1.0, 1.0, 1.0]),
        "arrival": pa.array([100, 200, 300, 400, 500], type=pa.int64()),
    })
    out = late_window_agg(rd.from_arrow(t).repartition(3),
                          lateness_us=5 * D, bucket_size=150).to_pandas()
    total_late = int(out["n_late"].sum())
    total_kept = int(out["n_kept"].sum())
    assert (total_late, total_kept) == (1, 4)
    day3 = out[out["window"] == pa.scalar(3 * D, type=pa.timestamp("us")).as_py()]
    assert int(day3["n_late"].iloc[0]) == 1 and int(day3["n_kept"].iloc[0]) == 0


def test_bloom_or_tree_equals_serial_or(ray_session):
    """Distributed OR tree-reduce == driver-serial OR, across enough
    blocks to force interior tree levels; driver sees only refs."""
    import numpy as np
    import ray
    import ray.data as rd

    from lighthouse_ray.functions.joins import bloom_or_tree

    nbytes, pbytes = 256, 64
    rng = np.random.RandomState(5)
    rows_a = [rng.randint(0, 256, nbytes).astype(np.uint8) for _ in range(40)]
    rows_b = [rng.randint(0, 256, pbytes).astype(np.uint8) for _ in range(40)]
    t = pa.table({
        "bits": pa.array([r.tobytes() for r in rows_a], type=pa.binary()),
        "pbits": pa.array([r.tobytes() for r in rows_b], type=pa.binary()),
    })
    ds = rd.from_arrow(t).repartition(17)  # many blocks -> tree depth > 1
    bref, pbref = bloom_or_tree(ds, ["bits", "pbits"],
                                {"bits": nbytes, "pbits": pbytes}, fanin=3)
    want_a = np.zeros(nbytes, dtype=np.uint8)
    want_b = np.zeros(pbytes, dtype=np.uint8)
    for r in rows_a:
        want_a |= r
    for r in rows_b:
        want_b |= r
    assert np.array_equal(ray.get(bref), want_a)
    assert np.array_equal(ray.get(pbref), want_b)

    # single-column + empty-input paths
    (zref,) = bloom_or_tree(rd.from_arrow(t.select(["bits"]).slice(0, 0)),
                            ["bits"], {"bits": nbytes})
    assert not ray.get(zref).any()


def test_percolate_semantics(ray_session):
    """Reverse search: bool.must, minimum_should_match, analyzer on the
    query side (camelCase split), empty-match queries, n_matched."""
    import ray.data as rd

    from lighthouse_ray.functions.percolate import percolate

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "import tokenizer merge",          # merge; import
            "merge the index and the index",   # merge+index (dup terms once)
            "parser buffer flush buffer",      # 3 distinct of the 2of3 set
            "nothing relevant here",
        ]),
    })
    out = percolate(rd.from_arrow(docs), [
        ("must_merge_index", "merge index", None),
        ("two_of_three", "parser buffer flush", 2),
        ("camel", "importTokenizer", None),
        ("never", "zzzabsent", None),
    ]).to_pandas().sort_values(["query_id", "doc_id"]).reset_index(drop=True)
    got = list(zip(out["query_id"], out["doc_id"], out["n_matched"]))
    assert got == [
        ("camel", 1, 2),             # import + tokenizer (split from camelCase)
        ("must_merge_index", 2, 2),
        ("two_of_three", 3, 3),
    ]
