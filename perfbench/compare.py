"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are each a ``runs.jsonl`` written by ``run.py`` (or a
directory holding one).  For every workload x end-to-end metric it
prints both medians, the quartiles, the bound from ``BENCHMARK.json``
and a verdict:

- ``better``: AFTER wins at least nine tenths of the pairs (runs paired
  by seed, else by order) and the medians differ by more than BEFORE's
  own quartile spread;
- ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every AFTER run reads better than every BEFORE run;
- ``unchanged``: otherwise.

Traced runs (``--trace 1``) are compared layer by layer: the median of
each per-layer metric on both sides and its change, plus the tracing
overhead (end-to-end metrics measured while traced against the untraced
medians of the same side).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def values(runs: list[dict], trace: int) -> dict:
    """(workload, metric) -> [(seed, value)] in run order."""
    out = defaultdict(list)
    for r in runs:
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append((r["seed"], m["value"]))
    return out


def verdict(a: list[tuple], b: list[tuple], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    va, vb = [v for _s, v in a], [v for _s, v in b]
    qa, qb = quartiles(va), quartiles(vb)
    ma, mb = qa[1], qb[1]
    by_seed_a = dict(a)
    pairs = [(by_seed_a[s], v) for s, v in b if s in by_seed_a] or list(zip(va, vb))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if sign * (mb - ma) / ma < -bound:
        return "worse"
    all_better = min(sign * y for y in vb) > max(sign * x for x in va)
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    if spread > bound and not all_better:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return "better"
    return "unchanged"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    before, after = load(argv[0]), load(argv[1])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    va, vb = values(before, 0), values(after, 0)
    print(f"{'workload':<9} {'metric':<18} {'before':>10} {'after':>10} {'change':>8} "
          f"{'before q1..q3':>21} {'after q1..q3':>21} {'bound':>6}  verdict")
    for (w, name) in sorted(set(va) & set(vb)):
        if name not in e2e:
            continue
        m = e2e[name]
        a, b = va[(w, name)], vb[(w, name)]
        qa, qb = quartiles([v for _s, v in a]), quartiles([v for _s, v in b])
        change = (qb[1] - qa[1]) / qa[1]
        print(f"{w:<9} {name:<18} {fmt(qa[1]):>10} {fmt(qb[1]):>10} {change:>+8.1%} "
              f"{fmt(qa[0]) + '..' + fmt(qa[2]):>21} {fmt(qb[0]) + '..' + fmt(qb[2]):>21} "
              f"{m['bound']:>6}  {verdict(a, b, m['better'], m['bound'])}  "
              f"(n={len(a)}/{len(b)})")

    ta, tb = values(before, 1), values(after, 1)
    shared = sorted(set(ta) & set(tb))
    if shared:
        print("\nper layer (traced runs, medians)")
        for (w, name) in shared:
            a = statistics.median(v for _s, v in ta[(w, name)])
            b = statistics.median(v for _s, v in tb[(w, name)])
            if a == 0 and b == 0:
                continue
            change = f"{(b - a) / a:+.1%}" if a else "new"
            print(f"  {w:<9} {name:<34} {fmt(a):>10} -> {fmt(b):>10}  {change}")
    for label, runs, untraced in (("before", before, va), ("after", after, vb)):
        over = defaultdict(list)
        for r in runs:
            for name, m in r.get("report", {}).get("e2e_while_traced", {}).items():
                base = [v for _s, v in untraced.get((r["workload"], name), [])]
                if base and name != "setup_s":
                    over[(r["workload"], name)].append(m["value"] / statistics.median(base) - 1)
        if over:
            print(f"\ntracing overhead, {label} (traced / untraced median - 1)")
            for (w, name), xs in sorted(over.items()):
                print(f"  {w:<9} {name:<18} {statistics.median(xs):+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
