"""Seeded benchmark inputs, cached under ``.perfbench/inputs``.

Every input is a pure function of ``(generator version, size, seed)``:
the corpus rows, the search request stream, the sync waves and the gate
tables.  Generation is paid once per key and never inside a timed
region; the program under test only ever sees the generated files.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import workdir

GEN_VERSION = 1  # bump when any generator below changes its output
CHUNK = 2500  # corpus rows per generated file (one Ray task each)


def _cached(name: str) -> tuple[str, bool]:
    path = os.path.join(workdir("inputs"), name)
    return path, os.path.exists(os.path.join(path, ".complete"))


def _mark(path: str) -> None:
    with open(os.path.join(path, ".complete"), "w") as f:
        f.write("ok\n")


# -- corpus ------------------------------------------------------------------


def _gen_corpus_part(lo: int, hi: int, out: str) -> str:
    from lighthouse_ray.corpus import gen_rows_range

    pq.write_table(pa.table(gen_rows_range(lo, hi)), out + ".tmp")
    os.replace(out + ".tmp", out)
    return out


def corpus(n_rows: int, seed: int) -> str:
    """Directory of parquet files holding corpus rows for the generator
    indices ``[seed * n_rows, (seed + 1) * n_rows)`` — a contiguous range,
    so every seed carries the same share of the generator's outliers."""
    import ray

    from lighthouse_ray.corpus import CORPUS_VERSION

    path, done = _cached(f"corpus-c{CORPUS_VERSION}-g{GEN_VERSION}-n{n_rows}-s{seed}")
    if done:
        return path
    os.makedirs(path, exist_ok=True)
    base = (seed % 100_000) * n_rows
    task = ray.remote(num_cpus=1)(_gen_corpus_part)
    ray.get([
        task.remote(base + lo, base + min(lo + CHUNK, n_rows),
                    os.path.join(path, f"part-{k:04d}.parquet"))
        for k, lo in enumerate(range(0, n_rows, CHUNK))
    ])
    _mark(path)
    return path


def read_corpus(path: str) -> pa.Table:
    return pq.read_table(path)


# -- token statistics (the benchmark's own tokenizer) --------------------------

_CAMEL1 = r"([A-Z]+)([A-Z][a-z])"
_CAMEL2 = r"([a-z0-9])([A-Z])"


def _flat_terms(content: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, pa.Array]:
    """(parent row, term) for every token: camel-split, lowercase, split
    on non-alphanumerics — the documented analyzer rules, restated."""
    x = pc.replace_substring_regex(content, pattern=_CAMEL1, replacement=r"\1 \2")
    x = pc.replace_substring_regex(x, pattern=_CAMEL2, replacement=r"\1 \2")
    toks = pc.split_pattern_regex(pc.utf8_lower(x), pattern=r"[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parents = pc.list_parent_indices(toks).to_numpy()
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "")
    return parents[keep.to_numpy(zero_copy_only=False)], flat.filter(keep)


# -- search request stream ---------------------------------------------------

SORTS = ["release_time", "^release_time", "effective_amount", "view_cnt"]


def _term_pools(corpus_dir: str, seed: int) -> dict:
    path, done = _cached(f"terms-g{GEN_VERSION}-{os.path.basename(corpus_dir)}")
    f = os.path.join(path, "terms.json")
    if done:
        with open(f) as fh:
            return json.load(fh)
    os.makedirs(path, exist_ok=True)
    content = read_corpus(corpus_dir)["content"]
    parents, terms = _flat_terms(content)
    t = pa.table({"d": parents, "t": terms})
    df = t.group_by(["d", "t"]).aggregate([]).group_by("t").aggregate([("d", "count")])
    order = np.argsort(-df["d_count"].to_numpy(), kind="stable")
    names = df["t"].to_numpy(zero_copy_only=False)[order]
    dfs = df["d_count"].to_numpy()[order]
    sel = names[(dfs >= 8) & (dfs <= 512)]
    # adjacent token pairs inside one document (for quoted phrases)
    rng = np.random.RandomState(seed)
    idx = rng.randint(0, len(terms) - 1, size=4000)
    idx = idx[parents[idx] == parents[idx + 1]]
    flat = terms.to_numpy(zero_copy_only=False)
    pools = {
        "dense": [str(x) for x in names[:40]],
        "selective": sorted(str(x) for x in sel),
        "pairs": [[str(flat[i]), str(flat[i + 1])] for i in idx],
        "prefixable": sorted(str(x) for x in names[dfs >= 8] if len(x) >= 5),
    }
    with open(f, "w") as fh:
        json.dump(pools, fh)
    _mark(path)
    return pools


def search_stream(corpus_dir: str, seed: int, n: int) -> list[dict]:
    """``n`` distinct requests in the documented class mix.  Each item is
    ``{"cls", "path", "params"}`` with ``params`` the HTTP query string
    arguments (values as strings)."""
    pools = _term_pools(corpus_dir, seed)
    rng = random.Random(seed * 7919 + 1)
    seen: set[tuple] = set()
    out: list[dict] = []
    while len(out) < n:
        u = rng.random()
        if u < 0.20:
            term = rng.choice(pools["prefixable"])
            item = ("autocomplete", "/autocomplete", {"s": term[: rng.randint(3, 5)]})
        elif u < 0.40:
            a, b = rng.sample(pools["dense"], 2)
            item = ("dense", "/search", {"s": f"{a} {b}"})
        elif u < 0.50:
            lead = rng.choice(pools["selective"])
            p1, p2 = rng.choice(pools["pairs"])
            item = ("phrase", "/search", {"s": f'{lead} "{p1} {p2}"'})
        elif u < 0.60:
            terms = rng.sample(pools["selective"], 2) + [rng.choice(pools["dense"])]
            item = ("filtered", "/search", {
                "s": " ".join(terms),
                "nsfw": rng.choice(["false", "true"]),
                "claimType": rng.choice(["file", "channel"]),
                "sort_by": rng.choice(SORTS),
            })
        else:
            item = ("selective", "/search", {"s": " ".join(rng.sample(pools["selective"], 3))})
        key = (item[1], tuple(sorted(item[2].items())))
        if key in seen:
            continue
        seen.add(key)
        out.append({"cls": item[0], "path": item[1], "params": item[2]})
    return out


# -- sync source waves ---------------------------------------------------------

CORPUS_COLS = ["repo", "path", "commit", "lang", "content"]


def _latest_per_key(t: pa.Table) -> pa.Table:
    """One row per logical (repo, path) key: the last one in row order."""
    keys = [f"{r}\0{p}" for r, p in zip(t["repo"].to_pylist(), t["path"].to_pylist())]
    last: dict[str, int] = {}
    for i, k in enumerate(keys):
        last[k] = i
    return t.take(pa.array(sorted(last.values())))


def sync_plan(corpus_dir: str, seed: int, n_base: int, wave: int, n_waves: int) -> dict:
    """Base rows plus ``n_waves`` waves of ``wave`` rows each.

    A wave is 40% updates of live keys (content taken from another
    corpus row), 50% inserts of keys not yet synced and 10% deletes of
    live keys.  Ids increase across waves; wave ``k`` is stamped
    ``modified_at = 1000 * k + 500``, which is at or after the ``now`` of
    tick ``k - 1`` (``1000 * k``) so the watermark filter passes it.
    Returns ``{"base": Table, "waves": [Table], "final": Table}``, every
    table in the source schema (corpus columns + id/modified_at/deleted)
    except ``final``, the logical live rows after the last wave."""
    rows = _latest_per_key(read_corpus(corpus_dir).select(CORPUS_COLS))
    n_ins = wave // 2
    n_del = wave // 10
    n_upd = wave - n_ins - n_del
    need = n_base + n_waves * n_ins
    if rows.num_rows < need:
        raise ValueError(f"corpus has {rows.num_rows} keys, plan needs {need}")
    rng = np.random.RandomState(seed)
    order = rng.permutation(rows.num_rows)
    rows = rows.take(pa.array(order))
    live = {i: i for i in range(n_base)}  # key row -> content row
    next_new = n_base
    next_id = 1
    content = rows["content"]

    def table(key_rows, content_rows, deleted, stamp) -> pa.Table:
        nonlocal next_id
        ids = np.arange(next_id, next_id + len(key_rows), dtype=np.int64)
        next_id += len(key_rows)
        t = rows.take(pa.array(key_rows, type=pa.int64())).select(CORPUS_COLS[:4])
        return t.append_column("content", content.take(pa.array(content_rows, type=pa.int64()))) \
            .append_column("id", pa.array(ids)) \
            .append_column("modified_at", pa.array(np.full(len(ids), stamp, dtype=np.int64))) \
            .append_column("deleted", pa.array(deleted, type=pa.bool_()))

    base = table(list(range(n_base)), list(range(n_base)), [False] * n_base, 500)
    waves = []
    for k in range(1, n_waves + 1):
        keys = sorted(live)
        pick = rng.choice(len(keys), size=n_upd + n_del, replace=False)
        upd = [keys[i] for i in pick[:n_upd]]
        dele = [keys[i] for i in pick[n_upd:]]
        ins = list(range(next_new, next_new + n_ins))
        next_new += n_ins
        donors = rng.randint(0, rows.num_rows, size=n_upd).tolist()
        key_rows = upd + ins + dele
        content_rows = donors + ins + dele
        deleted = [False] * (n_upd + n_ins) + [True] * n_del
        # interleave so each keyset batch mixes updates, inserts and deletes
        perm = rng.permutation(len(key_rows))
        waves.append(table([key_rows[i] for i in perm], [content_rows[i] for i in perm],
                           [deleted[i] for i in perm], 1000 * k + 500))
        for r, c in zip(upd, donors):
            live[r] = c
        for r in ins:
            live[r] = r
        for r in dele:
            del live[r]
    keys = sorted(live)
    final = rows.take(pa.array(keys, type=pa.int64())).select(CORPUS_COLS[:4]).append_column(
        "content", content.take(pa.array([live[k] for k in keys], type=pa.int64())))
    return {"base": base, "waves": waves, "final": final}


# -- gate tables ---------------------------------------------------------------

_WORDS = ("merge window customer spark part group stream filter the sort scan "
          "vector join query big hash column data agg table line small slow key "
          "fast order row value a batch").split()
_LANGS = ["en", "zh", "es", "de", "fr"]
_LANG_P = [0.44, 0.15, 0.15, 0.14, 0.12]
_EVENT_TYPES = ["signup", "error", "click", "view", "purchase"]


def gate_tables(seed: int, n_docs: int, n_events: int) -> str:
    """``documents`` and ``events`` parquet tables with the column types
    and value shapes of the repository's testdata tables (TESTDATA.md)."""
    path, done = _cached(f"tables-g{GEN_VERSION}-d{n_docs}-e{n_events}-s{seed}")
    if done:
        return path
    os.makedirs(path, exist_ok=True)
    rng = np.random.RandomState(seed)

    words = np.asarray(_WORDS)
    texts = []
    for i in range(n_docs):
        if i > 10 and rng.rand() < 0.02:  # near-duplicate of an earlier doc
            texts.append(texts[rng.randint(0, i)] + " dup")
        else:
            texts.append(" ".join(words[rng.randint(0, len(words), size=rng.randint(8, 90))]))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(rng.choice(_LANGS, size=n_docs, p=_LANG_P)),
        "source": pa.array([f"src{i}" for i in rng.randint(0, 20, size=n_docs)]),
        "n_chars": pa.array(np.asarray([len(t) for t in texts], dtype=np.int64)),
    }), os.path.join(path, "documents.parquet"))

    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    span = 30 * 86400 * 10**6
    ts = np.sort(t0 + rng.randint(0, span, size=n_events))
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.randint(0, max(n_events // 66, 2), size=n_events).astype(np.int64)),
        "event_type": pa.array(rng.choice(_EVENT_TYPES, size=n_events)),
        "value": pa.array(np.round(rng.exponential(50.0, size=n_events), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.randint(0, 100, size=n_events)]),
    }), os.path.join(path, "events.parquet"))
    _mark(path)
    return path
