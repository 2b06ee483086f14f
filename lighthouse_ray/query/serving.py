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
from .engine import first_names
from .request import AutocompleteRequest, SearchRequest, msearch_item

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

    def search(self, req: SearchRequest):
        if self._delay:
            time.sleep(self._delay)
        return self.engine.search(req)

    def autocomplete(self, req: AutocompleteRequest):
        return self.engine.autocomplete(req)

    def autocomplete_ranked(self, req: AutocompleteRequest):
        return self.engine.autocomplete_ranked(req)

    def status(self):
        return self.engine.status()


def _merge(req: SearchRequest, part: SearchRequest, frames: list) -> pd.DataFrame:
    """``req``'s page of the K ranges' answers to ``part``, its
    :meth:`~SearchRequest.for_partition` form.  Columns are read by
    position, since a request may project one name twice."""
    df = pd.concat(frames, ignore_index=True)
    cols = part.columns()
    ids = df.iloc[:, cols.index("claimId")].to_numpy()
    if req.sort_by is None:
        order = top_k(df["score"].to_numpy(), ids, req.from_ + req.size)
    else:
        field = req.sort_by.lstrip("^")
        key = cols.index(field) if field in cols else df.columns.get_loc(field)  # debug's ordinal
        order = np.lexsort((ids, df.iloc[:, key].to_numpy()))  # (field, claimId) asc
        if not req.sort_by.startswith("^"):
            order = order[::-1]
    df = df.iloc[order[req.from_ : req.from_ + req.size]].reset_index(drop=True)
    if len(cols) > len(req.columns()):  # drop the sort field added for the merge
        df = df.iloc[:, [i for i in range(df.shape[1]) if i != key]]
    return df


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

    def _gather(self, row: int, futs: list, part: SearchRequest) -> list:
        """All K partial results of ``row``, racing stragglers against
        the next row's replica of the same range when there is one."""
        if self.num_replicas < 2:
            return ray.get(futs)
        t0 = time.monotonic()
        quorum = max(1, len(futs) - max(1, len(futs) // 4))
        ray.wait(list(futs), num_returns=quorum)
        grace = max(HEDGE_MIN_S, (time.monotonic() - t0) * HEDGE_FACTOR)
        _done, pending = ray.wait(list(futs), num_returns=len(futs), timeout=grace)
        if not pending:
            return ray.get(futs)
        standby = self._cells((row + 1) % self.num_replicas)
        idx_of = {f: i for i, f in enumerate(futs)}
        winners = list(futs)
        for f in pending:
            i = idx_of[f]
            hedged = standby[i].search.remote(part)
            first, _rest = ray.wait([f, hedged], num_returns=1)
            winners[i] = first[0]  # the loser's result is discarded
        return ray.get(winners)

    # -- /search ------------------------------------------------------------

    def _start_search(self, req: SearchRequest):
        """Put one request in flight on a round-robin row; returns the
        function that gathers its answer — split so :meth:`msearch` can
        start EVERY request before gathering any."""
        row = self._row()
        cells = self._cells(row)
        if self.num_partitions == 1:
            fut = cells[0].search.remote(req)
            return lambda: ray.get(fut)
        # each range answers the unpaged top from+size, with the sort
        # field among its columns for the merge
        part = req.for_partition()
        futs = [r.search.remote(part) for r in cells]
        return lambda: _merge(req, part, self._gather(row, futs, part))

    def search(self, request: SearchRequest | None = None, /, **kw) -> pd.DataFrame:
        return self._start_search(SearchRequest.of(request or kw))()

    def msearch(self, requests: list) -> list[dict]:
        """ES ``_msearch`` analog: every request (a :class:`SearchRequest`
        or its keyword dict) is in flight before any is gathered, and
        each item is isolated like ES's per-item ``responses`` array —
        one bad request yields its own 400 (or 500) entry without
        failing the batch."""
        # an item whose request is invalid keeps its 400 here; each
        # other item holds the function that gathers its hits
        started = [msearch_item(lambda r=r: self._start_search(SearchRequest.of(r)))
                   for r in requests]
        return [msearch_item(item["hits"]) if item["status"] == 200 else item
                for item in started]

    # -- /autocomplete ------------------------------------------------------

    def autocomplete(self, request: AutocompleteRequest | None = None, /, **kw) -> list[str]:
        req = AutocompleteRequest.of(request or kw)
        cells = self._cells(self._row())
        if self.num_partitions == 1:
            return ray.get(cells[0].autocomplete.remote(req))
        top = pd.concat(ray.get([r.autocomplete_ranked.remote(req) for r in cells]),
                        ignore_index=True)
        order = top_k(top["score"].to_numpy(), top["claimId"].to_numpy(), req.from_ + req.size)
        # ordered dedup of the page (auto_complete.go:126-131)
        return first_names(top["name"].to_numpy()[order[req.from_ :]])

    # -- /status ------------------------------------------------------------

    def status(self):
        return ray.get(self._cells(self._row())[0].status.remote())

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
