"""Serving layer: query actors holding warm segment readers.

The reference serves /search from a process holding a long-lived ES
client over an index whose shard count is a setting (app/app.go:48-53,
claims.go:12 ``number_of_shards``); our analog for a Ray cluster is
:class:`SearchService`, a grid of ``num_partitions`` (K) ordinal ranges
× ``num_replicas`` (R) warm copies of each.  Every cell is one
:class:`SearchReplica` actor holding a warm :class:`SearchEngine`
(segment caches, doclens, fuzzy matrices, request TTL cache).  On a
multi-node cluster replicas spread across nodes (SPREAD scheduling);
here they share the single node.

A request picks one replica row round-robin (R scales query
THROUGHPUT).  With K = 1 the row is one full-index replica and the
request is a single actor call.  With K > 1 every range of the row
scores its slice concurrently and the coordinator merges the partial
top-k (K scales single-query LATENCY).  Collection stats stay global in
each range view (``RangeReader``), so the merged result is bit-identical
to the unpartitioned engine's.

This is the one place raw ``@ray.remote`` is justified instead of a
Dataset op: a query is a low-latency point lookup against shared warm
state, not a batch transform.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pandas as pd
import ray

from ..util import top_k
from .engine import SearchError

# straggler hedging (K > 1, R >= 2): once the quorum of ranges has
# answered, laggards get this multiple of the elapsed time (at least
# HEDGE_MIN_S) before they are duplicated onto their standby
HEDGE_FACTOR = 1.0
HEDGE_MIN_S = 0.02
# upper bound on how long shutdown() waits for killed replicas to die
SHUTDOWN_WAIT_S = 30.0


@ray.remote
class SearchReplica:
    """One warm engine over the ordinal range [lo, hi) of the index.

    A replica whose range is the whole index holds the plain
    ``IndexReader``; any other holds a ``RangeReader`` view.
    ``debug_delay_s`` is test-only fault injection (a synthetic
    straggler for the hedging test); it defaults off and adds no
    per-request work when 0."""

    def __init__(self, index_dir: str, lo: int, hi: int, special_map: dict | None = None,
                 cache_ttl: float = 300.0, debug_delay_s: float = 0.0):
        from ..index import IndexReader, RangeReader
        from .engine import SearchEngine

        reader = IndexReader(index_dir)
        if (lo, hi) != (0, reader.n_docs):
            reader = RangeReader(reader, lo, hi)
        self.engine = SearchEngine(reader, special_map=special_map, cache_ttl=cache_ttl)
        # pay all lazy loads (doclens, docmeta, dictionaries, fuzzy scan
        # state) at actor startup, never on a user query; replicas of a
        # grid warm concurrently
        self.engine.r.prewarm()
        self._delay = debug_delay_s

    def search(self, **kwargs):
        if self._delay:
            time.sleep(self._delay)
        return self.engine.search(**kwargs)

    def autocomplete(self, **kwargs):
        return self.engine.autocomplete(**kwargs)

    def status(self):
        return self.engine.status()


def _get(refs):
    """``ray.get`` that re-raises a replica's :class:`SearchError` as
    itself (the request's own validation failure, not a server fault)."""
    try:
        return ray.get(refs)
    except ray.exceptions.RayTaskError as e:
        if isinstance(e.cause, SearchError):
            raise e.cause from None
        raise


class SearchService:
    """A ``num_partitions`` × ``num_replicas`` grid of warm replicas.

    ``self.replicas`` is the flat row-major grid: row ``r`` holds the K
    range replicas ``replicas[r*K : (r+1)*K]``, one per ordinal range.

    STRAGGLER HEDGING (K > 1, R >= 2): the coordinator waits for all K
    ranges, so one slow replica sets the request's latency.  Once ~75%
    of the ranges have answered, laggards get a grace window
    proportional to the elapsed time and are then DUPLICATED onto the
    next replica in their column; the coordinator takes whichever copy
    answers first.  Both copies hold the same deterministic range view,
    so the merged result is bit-identical either way.
    """

    def __init__(self, index_dir: str, num_partitions: int = 1, num_replicas: int = 2,
                 special_map: dict | None = None, cache_ttl: float = 300.0):
        from ..util import read_json

        n_docs = int(read_json(os.path.join(index_dir, "stats.json"))["n_docs"])
        self.bounds = [round(i * n_docs / num_partitions) for i in range(num_partitions + 1)]
        self.num_partitions = num_partitions
        self.num_replicas = num_replicas
        self.replicas = [
            SearchReplica.options(scheduling_strategy="SPREAD").remote(
                index_dir, self.bounds[k], self.bounds[k + 1], special_map, cache_ttl
            )
            for _row in range(num_replicas)
            for k in range(num_partitions)
        ]
        self._rr = itertools.count()

    def _row(self) -> int:
        return next(self._rr) % self.num_replicas

    def _cells(self, row: int) -> list:
        k = self.num_partitions
        return self.replicas[row * k : (row + 1) * k]

    def _gather(self, row: int, futs: list, call: dict) -> list:
        """All K partial results of ``row``, racing stragglers against
        the next row's replica of the same range when there is one."""
        if self.num_replicas < 2:
            return _get(futs)
        t0 = time.monotonic()
        quorum = max(1, len(futs) - max(1, len(futs) // 4))
        ray.wait(list(futs), num_returns=quorum)
        grace = max(HEDGE_MIN_S, (time.monotonic() - t0) * HEDGE_FACTOR)
        _done, pending = ray.wait(list(futs), num_returns=len(futs), timeout=grace)
        if not pending:
            return _get(futs)
        standby = self._cells((row + 1) % self.num_replicas)
        idx_of = {f: i for i, f in enumerate(futs)}
        winners = list(futs)
        for f in pending:
            i = idx_of[f]
            hedged = standby[i].search.remote(**call)
            first, _rest = ray.wait([f, hedged], num_returns=1)
            winners[i] = first[0]  # the loser's result is discarded
        return _get(winners)

    # -- /search ------------------------------------------------------------

    def _start_search(self, kwargs: dict) -> tuple:
        """Put one request in flight on a round-robin row; returns the
        state :meth:`_finish_search` gathers — split so :meth:`msearch`
        can start EVERY request before gathering any."""
        row = self._row()
        cells = self._cells(row)
        if self.num_partitions == 1:
            return row, [cells[0].search.remote(**kwargs)], kwargs, None
        # each range returns its unpaged top from+size; the merge needs
        # the sort key column, so inject it into include and strip it
        # afterwards if the caller didn't ask for it
        call = dict(kwargs, _partial=True)
        sort_by, include = kwargs.get("sort_by"), kwargs.get("include")
        inject = None
        if sort_by is not None:
            field = sort_by.lstrip("^")
            inc_list = [c for c in (include.split(",") if include else []) if c]
            if field not in inc_list and field not in ("name", "claimId"):
                inject = field
                call["include"] = ",".join(inc_list + [field])
        return row, [r.search.remote(**call) for r in cells], call, inject

    def _finish_search(self, row: int, futs: list, call: dict,
                       inject: str | None) -> pd.DataFrame:
        if self.num_partitions == 1:
            return _get(futs[0])
        df = pd.concat(self._gather(row, futs, call), ignore_index=True)
        sort_by = call.get("sort_by")
        if len(df):
            k_from = call.get("from_") or 0
            size = call.get("size")
            k_size = size if size is not None else 10
            if sort_by is not None:
                field = sort_by.lstrip("^")
                order = np.lexsort(
                    (df["claimId"].to_numpy(), df[field].to_numpy())
                )  # (field, claimId) asc — engine.py:192
                if not sort_by.startswith("^"):
                    order = order[::-1]
            else:
                order = top_k(df["score"].to_numpy(), df["claimId"].to_numpy(),
                              k_from + k_size)
            df = df.iloc[order[k_from : k_from + k_size]].reset_index(drop=True)
        if inject is not None and inject in df.columns:
            df = df.drop(columns=[inject])
        return df

    def search(self, **kwargs) -> pd.DataFrame:
        return self._finish_search(*self._start_search(kwargs))

    def msearch(self, requests: list[dict]) -> list[dict]:
        """ES ``_msearch`` analog: every request is in flight before any
        is gathered, and each item is isolated like ES's per-item
        ``responses`` array — one bad request yields its own 400 (or
        500) entry without failing the batch."""
        started = [self._start_search(req) for req in requests]
        out: list[dict] = []
        for st in started:
            try:
                out.append({"status": 200, "hits": self._finish_search(*st)})
            except SearchError as e:
                out.append({"status": 400, "error": str(e)})
            except Exception as e:  # noqa: BLE001 — per-item isolation
                out.append({"status": 500, "error": str(e)})
        return out

    # -- /autocomplete ------------------------------------------------------

    def autocomplete(self, s: str | None = None, size: int | None = None,
                     from_: int | None = None, nsfw: bool | None = None) -> list[str]:
        kw = dict(s=s, size=size, from_=from_, nsfw=nsfw)
        cells = self._cells(self._row())
        if self.num_partitions == 1:
            return _get(cells[0].autocomplete.remote(**kw))
        parts = _get([r.autocomplete.remote(_scored=True, **kw) for r in cells])
        names = [n for p in parts for n in p[0]]
        scores = np.asarray([v for p in parts for v in p[1]], dtype=np.float64)
        doc_ids = np.asarray([d for p in parts for d in p[2]], dtype=object)
        k_from = from_ or 0
        k_size = size if size is not None else 10
        order = top_k(scores, doc_ids, k_from + k_size)
        seen: set[str] = set()
        out: list[str] = []
        for i in order[k_from:]:
            nm = names[int(i)]
            if nm not in seen:  # ordered dedup (auto_complete.go:126-131)
                seen.add(nm)
                out.append(nm)
        return out

    # -- /status ------------------------------------------------------------

    def status(self):
        return _get(self._cells(self._row())[0].status.remote())

    def shutdown(self):
        """Kill every replica and return once each is dead.  ``ray.kill``
        is asynchronous, so a call sent right after it may still be
        answered: each replica is polled until a call on it raises
        ``RayActorError``, for at most ``SHUTDOWN_WAIT_S`` in all."""
        for r in self.replicas:
            ray.kill(r)
        deadline = time.monotonic() + SHUTDOWN_WAIT_S
        for r in self.replicas:
            while time.monotonic() < deadline:
                try:
                    ray.get(r.status.remote(), timeout=max(deadline - time.monotonic(), 0.0))
                except ray.exceptions.RayActorError:
                    break
                except ray.exceptions.GetTimeoutError:
                    pass
                time.sleep(0.01)
        self.replicas = []
