"""In-memory spans and counts, recorded from the benchmark's own files.

A traced run wraps public functions of the program (and a few engine
phases) with :meth:`Tracer.wrap`; each call becomes a span with a name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end of the run.  A span's self time is its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, t0, t1)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []
        self.request = None  # request id stamped on new spans
        self.overhead: float | None = None  # traced / untraced op latency - 1

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else 0
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, parent, self.request, name, t0, t1))

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.
        ``on_result(tracer, args, kwargs, result)`` may record counts."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(tracer, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def restore(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for _sid, parent, _rq, _n, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, _parent, _rq, name, t0, t1 in self.spans:
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["total_s"] += t1 - t0
            d["self_s"] += (t1 - t0) - child[sid]
        return out

    def self_s(self, name: str) -> float:
        return self.totals().get(name, {}).get("self_s", 0.0)

    def total_s(self, name: str) -> float:
        return self.totals().get(name, {}).get("total_s", 0.0)

    def calls(self, name: str) -> int:
        return self.totals().get(name, {}).get("calls", 0)

    def dump(self, path: str) -> None:
        """Write every span and count as JSON (once, at the end of a run)."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump({
                "spans": [
                    {"id": sid, "parent": parent, "request": rq, "name": name,
                     "start_s": t0 - base, "end_s": t1 - base}
                    for sid, parent, rq, name, t0, t1 in self.spans
                ],
                "counts": dict(self.counts),
                "totals": self.totals(),
            }, f)
