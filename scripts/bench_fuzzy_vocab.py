"""Fuzzy-expansion timing at an 878k-term vocabulary (VERDICT r4 item 7
evidence).

The fuzzy scan is purely dictionary-sized (reader-local, no Ray), so
the benchmark synthesizes an 878k-term identifier-style vocabulary of
the same shape as the round-3 878k-doc content field and times the
served ``fuzzy_candidates`` path (length-bucket slice + charmask
prefilter, then the bit-parallel ``util.edit_distance`` kernel over
the survivors) per novel query term.  Each query's time is split into
the kernel's share and the prefilter's (the rest).
``tests/test_fuzzy_scan.py`` checks that path against brute force.
Prints one JSON line.

Usage: python scripts/bench_fuzzy_vocab.py [n_terms] [syllable|dense]
       # defaults: 878_000 syllable
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lighthouse_ray import util  # noqa: E402
from lighthouse_ray.index import reader as reader_mod  # noqa: E402
from lighthouse_ray.index.reader import IndexReader  # noqa: E402

ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789"
SYLL = ["to", "ken", "iz", "er", "set", "get", "han", "dle", "buf",
        "fer", "in", "dex", "map", "re", "duce", "par", "se", "scan",
        "wri", "te", "que", "ry", "node", "part", "col", "row"]


class _VocabReader:
    """IndexReader's dictionary/fuzzy machinery over an in-memory vocab."""

    def __init__(self, vocab):
        self._dictionary = {"content": np.unique(np.asarray(vocab, dtype=object))}

    field_dictionary = lambda self, field: self._dictionary[field]  # noqa: E731
    _fuzzy_scan_state = IndexReader._fuzzy_scan_state
    fuzzy_candidates = IndexReader.fuzzy_candidates


# English-ish letter frequencies: vocabularies whose terms draw from the
# same few common letters defeat the charmask bound (masks all overlap)
FREQ_LETTERS = "eeeeetttaaooiinnsshhrrdlcumwfgypbvk"


def _gen_vocab(profile: str, n_terms: int, rng) -> set[str]:
    vocab = set()
    if profile == "syllable":
        while len(vocab) < n_terms:
            w = "".join(rng.choice(SYLL) for _ in range(rng.randint(2, 6)))
            if rng.random() < 0.2:
                w += str(rng.randint(0, 99))
            vocab.add(w)
    else:  # "dense": letters-only identifiers, natural letter frequencies
        while len(vocab) < n_terms:
            vocab.add("".join(rng.choice(FREQ_LETTERS)
                              for _ in range(rng.randint(9, 18))))
    return vocab


def _gen_queries(profile: str, vocab, qrng, n=40):
    queries = []
    while len(queries) < n:
        if profile == "syllable":
            q = "".join(qrng.choice(SYLL) for _ in range(qrng.randint(3, 5)))[:16]
        else:
            q = "".join(qrng.choice(FREQ_LETTERS)
                        for _ in range(qrng.randint(10, 16)))
        if len(q) >= 9 and q not in vocab:
            queries.append(q)
    return queries


def main() -> int:
    n_terms = int(sys.argv[1]) if len(sys.argv) > 1 else 878_000
    profile = sys.argv[2] if len(sys.argv) > 2 else "syllable"
    rng = random.Random(42)
    vocab = _gen_vocab(profile, n_terms, rng)
    r = _VocabReader(sorted(vocab))

    queries = _gen_queries(profile, vocab, random.Random(7))

    t0 = time.time()
    r._fuzzy_scan_state("content")
    t_state = time.time() - t0

    kernel_s = []

    def timed_kernel(*args):
        t0 = time.perf_counter()
        out = util.edit_distance(*args)
        kernel_s.append(time.perf_counter() - t0)
        return out

    reader_mod.edit_distance = timed_kernel
    per_q, per_kernel = [], []
    for q in queries:
        maxd = 2 if len(q) >= 6 else 1
        kernel_s.clear()
        t0 = time.perf_counter()
        r.fuzzy_candidates("content", q, maxd)
        per_q.append(time.perf_counter() - t0)
        per_kernel.append(sum(kernel_s))
    arr = sorted(per_q)
    mean_ms = 1000 * sum(arr) / len(arr)
    kernel_ms = 1000 * sum(per_kernel) / len(per_kernel)
    print(json.dumps({
        "profile": profile, "n_terms": n_terms, "n_queries": len(queries),
        "build_scan_state_s": round(t_state, 3),
        "p50_s": round(arr[len(arr) // 2], 4),
        "mean_s": round(mean_ms / 1000, 4),
        "max_s": round(arr[-1], 4),
        "prefilter_ms_per_q": round(mean_ms - kernel_ms, 2),
        "kernel_ms_per_q": round(kernel_ms, 2),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
