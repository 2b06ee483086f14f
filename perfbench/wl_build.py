"""``build`` workload: repeated ``build_index`` over a seeded corpus.

The throughput path corpus -> analysis -> build stages (docstore,
ordmap_compact, hot_terms, postings, segments).  The query and state
layers do no work here.  A traced run also times the gate subset
(``gates.py``) after the builds, for the per-layer ``gates.*`` metrics.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import gates
from harness import NUM_CPUS, dir_bytes, median, workdir
from inputs import corpus, read_corpus

N_ROWS = 20_000  # generator rows; ~10% collapse as upserts / README keys
STAGES = ("docstore", "ordmap_compact", "hot_terms", "postings", "segments")
CONTENT_SAMPLE = 32
RAY_STARTS = 3  # setup_s is Ray start (median of these) + program import


def config():
    from lighthouse_ray.config import IndexConfig

    return IndexConfig(num_doc_parts=8, num_term_shards=16)


def shard_digests(manifest: dict) -> dict:
    return {k: v["sha256"] for k, v in manifest["stages"]["segments"]["shards"].items()}


def stage_layers(manifests: list[dict]) -> dict:
    """Per-layer build metrics from the manifests ``build_index`` writes:
    median stage seconds, plus the (deterministic) row and byte counts."""
    m = manifests[-1]["stages"]
    out = {f"build.{s}_s": (median([x["stages"][s]["sec"] for x in manifests]), "s")
           for s in STAGES}
    out["build.postings_rows"] = (m["postings"]["rows"], "count")
    out["build.postings_bytes"] = (m["postings"]["bytes"], "bytes")
    out["build.segment_bytes"] = (sum(v["bytes"] for v in m["segments"]["shards"].values()), "bytes")
    out["build.hot_terms"] = (len(m["hot_terms"]["terms"]), "count")
    return out


def ray_floor_s(source) -> float:
    """Identity ``map_batches`` over the same input: the per-pipeline floor."""
    import ray.data as rd

    ds = source if isinstance(source, rd.Dataset) else rd.read_parquet(
        source, override_num_blocks=max(NUM_CPUS * 2, 16))
    t0 = time.perf_counter()
    ds.map_batches(lambda b: b, batch_format="pyarrow").materialize()
    return time.perf_counter() - t0


def check_content(res, index_dir: str, table) -> None:
    """A sample of stored documents must hash to their source rows."""
    from lighthouse_ray.index import IndexReader

    # (repo, path, commit) repeats in the corpus (README.md keys), so a
    # stored document must match one of the source rows under its key
    src: dict[tuple, set] = {}
    for r, p, c, x in zip(table["repo"].to_pylist(), table["path"].to_pylist(),
                          table["commit"].to_pylist(), table["content"].to_pylist()):
        src.setdefault((r, p, c), set()).add(hashlib.sha256(x.encode()).hexdigest())
    reader = IndexReader(index_dir)
    meta = reader.docmeta()
    step = max(len(meta) // CONTENT_SAMPLE, 1)
    for o in range(0, len(meta), step)[:CONTENT_SAMPLE]:
        row = meta.iloc[o]
        got = hashlib.sha256(reader.doc_content(o).encode()).hexdigest()
        want = src.get((row["repo"], row["path"], row["commit"]), set())
        res.check(got in want and got == row["content_sha256"],
                  f"doc {o} content differs from source")


def run(res, seed: int, seconds: float, tracer, ray_init_s: float) -> None:
    src = corpus(N_ROWS, seed)
    t0 = time.perf_counter()
    from lighthouse_ray.build import build_index

    import_s = time.perf_counter() - t0
    cfg = config()
    idx = os.path.join(workdir("scratch"), f"build-{os.getpid()}")
    try:
        warm = build_index(src, idx, cfg)  # untimed: first Ray Data job pays worker start-up
        digests = shard_digests(warm.manifest)

        def one() -> tuple[float, object]:
            t = time.perf_counter()
            r = build_index(src, idx, cfg)
            wall = time.perf_counter() - t
            res.check(shard_digests(r.manifest) == digests, "shard sha256 differs across builds")
            return wall, r

        walls, manifests, docs = run_timed(one, seconds, tracer, "build.build_index")
        table = read_corpus(src)
        check_content(res, idx, table)

        res.metric("setup_s", ray_init_s + import_s, "s")
        rates = [d / w for d, w in zip(docs, walls)]
        res.metric("throughput_per_s", median(rates), "1/s")
        res.metric("latency_p50_ms", 1000 * median(walls), "ms")
        src_bytes = table.nbytes
        res.report.update({
            "build_docs_per_s": median(rates),
            "index_bytes_per_source_byte": dir_bytes(idx) / src_bytes,
            "slowest_build_s": max(walls),
            "n_docs": docs[-1], "source_rows": table.num_rows, "builds": len(walls),
            "build_s": walls,
            "stage_s": {s: median([m["stages"][s]["sec"] for m in manifests]) for s in STAGES},
        })
        if tracer is not None:
            layers = stage_layers(manifests)
            layers["build.ray_floor_s"] = (ray_floor_s(src), "s")
            import pyarrow.parquet as pq

            t = time.perf_counter()
            pq.read_table(src)
            layers["build.read_floor_s"] = (time.perf_counter() - t, "s")
            from lighthouse_ray.analysis import flat_tokens

            t = time.perf_counter()
            flat_tokens(table["content"])
            tok_s = time.perf_counter() - t
            layers["analysis.flat_tokens_s"] = (tok_s, "s")
            post_s = layers["build.postings_s"][0]
            layers["build.postings_kernel_frac"] = (tok_s / (post_s * NUM_CPUS), "ratio")
            res.layers.update(layers)
            gates.measure(res, seed, seconds, tracer)
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def run_timed(one, seconds: float, tracer, span: str, min_ops: int = 3):
    """Call ``one()`` until ``seconds`` pass (at least ``min_ops`` times).
    In a traced run the first half of the calls runs untraced and the
    second half inside a span, and the median difference is the tracing
    overhead."""
    walls, manifests, docs = [], [], []
    plain: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and time.perf_counter() >= deadline - seconds / 2
        if traced:
            with tracer.span(span):
                wall, r = one()
        else:
            wall, r = one()
            plain.append(wall)
        walls.append(wall)
        manifests.append(r.manifest)
        docs.append(r.n_docs)
    if tracer is not None:
        t_walls = walls[len(plain):]
        if plain and t_walls:
            tracer.overhead = median(t_walls) / median(plain) - 1
    return walls, manifests, docs
