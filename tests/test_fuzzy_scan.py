"""Fuzzy expansion conformance: ``util.edit_distance`` (the bit-parallel
Levenshtein kernel) and ``IndexReader.fuzzy_candidates`` (length and
charmask prefilters, then the kernel) must agree exactly with a
brute-force Levenshtein over randomized vocabularies (all terms
[a-z0-9] by tokenizer construction)."""

import random

import numpy as np
import pyarrow as pa
import pytest


def _lev(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


class _FakeReader:
    """Borrow IndexReader.fuzzy_candidates/field_dictionary unbound, backed
    by an in-memory vocabulary (no index on disk needed)."""

    def __init__(self, vocab):
        self._dictionary = {"content": np.unique(np.asarray(vocab, dtype=object))}

    def field_dictionary(self, field):
        return self._dictionary[field]

    def _fuzzy_scan_state(self, field):
        from lighthouse_ray.index.reader import IndexReader

        return IndexReader._fuzzy_scan_state(self, field)

    def fuzzy_candidates(self, field, term, maxd):
        from lighthouse_ray.index.reader import IndexReader

        return IndexReader.fuzzy_candidates(self, field, term, maxd)


ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789"


def _mutate(rng, s: str, edits: int, alpha: str = ALPHA) -> str:
    """``s`` after ``edits`` random substitutions, deletions or insertions."""
    s = list(s)
    for _ in range(edits):
        op = rng.randrange(3)
        p = rng.randrange(len(s)) if s else 0
        if op == 0 and s:
            s[p] = rng.choice(alpha)
        elif op == 1 and len(s) > 4:
            del s[p]
        else:
            s.insert(p, rng.choice(alpha))
    return "".join(s)


@pytest.mark.parametrize("seed", [1, 2])
def test_edit_distance_matches_bruteforce(seed):
    """The kernel equals brute force for an empty query, queries of 1,
    63, 64, 65 and 130 bytes (one word, a full word, one bit past it,
    three words), empty rows, rows far longer than the query, a row
    subset out of order, and a sliced Arrow array."""
    from lighthouse_ray.util import edit_distance, string_buffers

    rng = random.Random(seed)
    for m in (0, 1, 63, 64, 65, 130):
        for alpha in ("ab", ALPHA):
            q = "".join(rng.choice(alpha) for _ in range(m))
            rows = ["", q, q[::-1], q[1:], q + q[:3]]
            rows += [_mutate(rng, q, rng.randint(1, 6), alpha) for _ in range(12)]
            rows += ["".join(rng.choice(alpha) for _ in range(rng.randint(0, m + 40)))
                     for _ in range(12)]
            want = [_lev(q, r) for r in rows]
            data, offs = string_buffers(pa.array(["pad", *rows]).slice(1))
            assert offs[0] == 3
            assert edit_distance(data, offs, np.arange(len(rows)), q).tolist() == want
            pick = rng.sample(range(len(rows)), 9)
            assert edit_distance(data, offs, pick, q).tolist() == [want[i] for i in pick]
            assert edit_distance(data, offs, [], q).tolist() == []


def _random_vocab(seed):
    rng = random.Random(seed)
    vocab = [
        "".join(rng.choice(ALPHA) for _ in range(rng.randint(1, 12)))
        for _ in range(4000)
    ]
    long_q = "".join(rng.choice(ALPHA) for _ in range(70))
    return vocab, ["merge", "mrege", "x", "abcdefghijkl", "a1b2", vocab[7], vocab[99][:4], long_q]


def _same_length_vocab():
    """9,000 terms within 4 substitutions of one 8-byte base."""
    rng = random.Random(9)
    base = "abcdefgh"
    vocab = {base}
    while len(vocab) < 9000:
        s = list(base)
        for _ in range(rng.randint(1, 4)):
            s[rng.randrange(len(s))] = rng.choice(ALPHA)
        vocab.add("".join(s))
    return sorted(vocab), [base]


def _near_miss_vocab():
    """Long terms, 200 edits of each within 3, plus unrelated terms of
    similar lengths."""
    rng = random.Random(21)
    vocab = set()
    base_terms = ["tokenizerstage", "spillexchange", "minorcompaction",
                  "fuzzycandidates", "triangularmatrix"]
    for b in base_terms:
        vocab.add(b)
        for _ in range(200):
            vocab.add(_mutate(rng, b, rng.randint(1, 3)))
    for _ in range(3000):
        vocab.add("".join(rng.choice(ALPHA) for _ in range(rng.randint(10, 18))))
    return sorted(vocab), base_terms + ["tokenizrestage", "spilexchange", "fuzzycandidatez"]


def _long_query_vocab():
    """Queries of 70 and 130 bytes (two and three 64-bit words) among
    their own edits."""
    rng = random.Random(65)
    bases = ["".join(rng.choice(ALPHA) for _ in range(n)) for n in (70, 130)]
    vocab = set(bases)
    for b in bases:
        for _ in range(100):
            vocab.add(_mutate(rng, b, rng.randint(1, 3)))
    return sorted(vocab), bases + [_mutate(rng, b, 1) for b in bases]


CASES = {
    "1": lambda: _random_vocab(1),
    "2": lambda: _random_vocab(2),
    "3": lambda: _random_vocab(3),
    "same_length": _same_length_vocab,
    "near_misses": _near_miss_vocab,
    "repeated_grams": lambda: (
        ["aaaaaaaaaaa", "aaaaaaaaaab", "aaaaabaaaaa", "bbbbbbbbbbb"], ["aaaaaaaaaaa"]
    ),
    "long_query": _long_query_vocab,
}


@pytest.mark.parametrize("case", list(CASES))
def test_fuzzy_matches_bruteforce(case):
    vocab, queries = CASES[case]()
    r = _FakeReader(vocab)
    d = r.field_dictionary("content")
    for q in queries:
        dist = [_lev(q, t) for t in d]
        for maxd in (0, 1, 2):
            got = r.fuzzy_candidates("content", q, maxd)
            want = [t for t, k in zip(d, dist) if k <= maxd]
            assert got == want, (q, maxd, got[:5], want[:5])


def test_fuzzy_empty_term_and_tiny_vocab():
    r = _FakeReader(["a", "ab", "abc"])
    assert r.fuzzy_candidates("content", "", 1) == ["a"]
    assert r.fuzzy_candidates("content", "", 2) == ["a", "ab"]
    assert r.fuzzy_candidates("content", "zzzz", 0) == []


def test_fuzzy_memo_bounded():
    """The fuzzy memo keeps at most 65,536 (field, term) entries, and a
    repeated term is answered from it without a dictionary scan."""
    from lighthouse_ray.query.scoring import Scorer

    class _CountingReader:
        n_docs, k1, b = 1, 1.2, 0.75
        calls = 0

        def fuzzy_candidates(self, field, term, maxd):
            self.calls += 1
            return [term]

    r = _CountingReader()
    sc = Scorer(r)
    for i in range(70_000):
        sc.fuzzy_expand("content", f"term{i}")
    assert r.calls == 70_000
    assert len(sc._fuzzy_cache) <= 65_536
    assert sc.fuzzy_expand("content", "term69999") == ["term69999"]
    assert r.calls == 70_000
