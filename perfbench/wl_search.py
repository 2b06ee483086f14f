"""``search`` workload: HTTP traffic through the served read path.

``LighthouseHTTPServer`` -> ``SearchService`` (2 replicas, request cache
on as shipped) -> ``SearchEngine`` over an index of the seeded corpus.
Sender threads in this process each hold one keep-alive connection.

Timed phases, after warm-up:

1. open loop at NOMINAL_RATE req/s for two thirds of the run; each
   request is timed from its due time, so a stall also delays the
   requests queued behind it;
2. closed loop with CLIENTS senders for the last third: the rate the
   served path sustains (``search_max_qps``).

Every response body must equal, byte for byte, the body built from an
in-process ``SearchEngine`` answer to the same request, computed before
timing starts.  The build layer does no work in the timed phases.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time
from urllib.parse import urlencode

from harness import NUM_CPUS, Phases, median, quantile, rss_mb, tail_percentile, workdir
from inputs import corpus, search_stream

N_ROWS = 20_000
NOMINAL_RATE = 30.0  # req/s, open loop
CLIENTS = 4  # sender threads, one keep-alive connection each
LIMIT_P99_MS = 200.0  # latency limit a sustained rate must meet
SETUPS = 3  # server set-ups per run; setup_s is their median
WARM_REQUESTS = 120
CAPACITY_POOL = 500  # requests precomputed for the closed-loop phase
REPLAY = 120  # requests replayed layer by layer in a traced run


def engine_kwargs(params: dict) -> dict:
    """HTTP query arguments -> ``SearchEngine.search`` keyword arguments."""
    kw = {"s": params["s"]}
    if "nsfw" in params:
        kw["nsfw"] = params["nsfw"] == "true"
    if "claimType" in params:
        kw["claim_type"] = params["claimType"]
    if "sort_by" in params:
        kw["sort_by"] = params["sort_by"]
    return kw


def answer(engine, req: dict):
    """The in-process answer to one request, as the server returns it."""
    if req["path"] == "/autocomplete":
        return engine.autocomplete(s=req["params"]["s"])
    df = engine.search(**engine_kwargs(req["params"]))
    if "score" in df.columns:
        df = df.drop(columns=["score"])
    return df.to_dict(orient="records")


def body(obj) -> bytes:
    return json.dumps(obj, indent=2, default=str).encode()


def call_service(service, req: dict):
    if req["path"] == "/autocomplete":
        return service.autocomplete(s=req["params"]["s"])
    return service.search(**engine_kwargs(req["params"]))


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, req: dict) -> tuple[int, bytes]:
        self.conn.request("GET", req["path"] + "?" + urlencode(req["params"]))
        r = self.conn.getresponse()
        return r.status, r.read()

    def close(self) -> None:
        self.conn.close()


def start_server(index_dir: str):
    """Spawn the served path and wait until it answers; returns
    (server, seconds to ready)."""
    import ray

    from lighthouse_ray.query.http_server import LighthouseHTTPServer

    t0 = time.perf_counter()
    srv = LighthouseHTTPServer(index_dir, num_replicas=2).start()
    ray.get([r.status.remote() for r in srv.service.replicas])  # prewarmed
    c = Client(srv.port)
    try:
        status, _ = c.get({"path": "/test", "params": {}})
    finally:
        c.close()
    if status != 200:
        srv.stop()
        raise RuntimeError(f"/test answered {status}")
    return srv, time.perf_counter() - t0


def _senders(port: int, work, n_threads: int) -> None:
    """Run ``work(client, lock)`` on ``n_threads`` threads and join them."""
    lock = threading.Lock()
    errors: list[BaseException] = []

    def loop():
        c = Client(port)
        try:
            work(c, lock)
        except BaseException as e:  # noqa: BLE001 - re-raised after join
            errors.append(e)
        finally:
            c.close()

    threads = [threading.Thread(target=loop, daemon=True) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        if t.is_alive():
            raise RuntimeError("sender thread did not finish")
    if errors:
        raise errors[0]


def open_loop(port: int, reqs: list[dict], rate: float) -> list[tuple]:
    """Send ``reqs`` at ``rate`` req/s; returns (index, due, sent, done,
    status, body) per request."""
    out: list[tuple] = []
    nxt = iter(range(len(reqs)))
    t0 = time.perf_counter() + 0.05

    def work(c: Client, lock: threading.Lock) -> None:
        while True:
            with lock:
                i = next(nxt, None)
            if i is None:
                return
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, data = c.get(reqs[i])
            done = time.perf_counter()
            with lock:
                out.append((i, due, sent, done, status, data))

    _senders(port, work, CLIENTS)
    return out


def closed_loop(port: int, reqs: list[dict], seconds: float) -> tuple[list[tuple], float]:
    """Each sender issues its next request as soon as the last returns,
    until ``seconds`` pass or ``reqs`` run out; returns the per-request
    (index, start, done, status, body) and the phase wall."""
    out: list[tuple] = []
    nxt = iter(range(len(reqs)))
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def work(c: Client, lock: threading.Lock) -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = next(nxt, None)
            if i is None:
                return
            start = time.perf_counter()
            status, data = c.get(reqs[i])
            done = time.perf_counter()
            with lock:
                out.append((i, start, done, status, data))

    _senders(port, work, CLIENTS)
    return out, max(d for _i, _s, d, _st, _b in out) - t0


def _answer_chunk(index_dir: str, reqs: list[dict]) -> list[bytes]:
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine

    engine = SearchEngine(IndexReader(index_dir))
    return [body(answer(engine, r)) for r in reqs]


def expected_bodies(index_dir: str, reqs: list[dict]) -> list[bytes]:
    """In-process ``SearchEngine`` answers, one engine per Ray task."""
    import ray

    task = ray.remote(num_cpus=1)(_answer_chunk)
    step = -(-len(reqs) // NUM_CPUS)
    parts = ray.get([task.remote(index_dir, reqs[i:i + step])
                     for i in range(0, len(reqs), step)])
    return [b for part in parts for b in part]


def replica_rss_mb(service) -> float:
    import ray

    pids = ray.get([r.__ray_call__.remote(lambda _self: os.getpid()) for r in service.replicas])
    return sum(rss_mb(p) for p in pids)


def run(res, seed: int, seconds: float, tracer, ray_init_s: float) -> None:
    from lighthouse_ray.build import build_index

    from wl_build import config

    src = corpus(N_ROWS, seed)
    idx = os.path.join(workdir("scratch"), f"search-{os.getpid()}")
    srv = None
    phase = Phases(res)
    try:
        build_index(src, idx, config())
        phase("index_build")
        n_nominal = int(NOMINAL_RATE * seconds * 2 / 3)
        stream = search_stream(src, seed, WARM_REQUESTS + n_nominal + CAPACITY_POOL + REPLAY)
        warm = stream[:WARM_REQUESTS]
        nominal = stream[WARM_REQUESTS:WARM_REQUESTS + n_nominal]
        pool = stream[WARM_REQUESTS + n_nominal:WARM_REQUESTS + n_nominal + CAPACITY_POOL]
        replay = stream[len(stream) - REPLAY:]

        expected = expected_bodies(idx, nominal + pool)
        phase("expected_answers")

        setups = []
        for k in range(SETUPS):
            srv, s = start_server(idx)
            setups.append(s)
            if k + 1 < SETUPS:
                srv.stop()
                srv = None
        res.metric("setup_s", ray_init_s + median(setups), "s")
        phase("server_setups")

        # warm-up: segment shards load lazily on first use (prewarm
        # covers doclens, docmeta and dictionaries only)
        warm_out, _ = closed_loop(srv.port, warm, 60.0)
        for _i, _st, _d, status, _b in warm_out:
            res.check(status == 200, "warm-up request failed")
        warm_ms = [1000 * (d - s) for _i, s, d, _st, _b in warm_out]
        rss = replica_rss_mb(srv.service)
        phase("warm_up")

        nom = open_loop(srv.port, nominal, NOMINAL_RATE)
        for i, _due, _sent, _done, status, data in nom:
            res.check(status == 200 and data == expected[i], f"nominal request {i} wrong")
        cap, cap_wall = closed_loop(srv.port, pool, seconds / 3)
        for i, _start, _done, status, data in cap:
            res.check(status == 200 and data == expected[len(nominal) + i],
                      f"capacity request {i} wrong")
        phase("timed")

        lat = {"search": [], "autocomplete": []}
        for i, due, _sent, done, _st, _b in nom:
            kind = "autocomplete" if nominal[i]["path"] == "/autocomplete" else "search"
            lat[kind].append(1000 * (done - due))
        lag = [1000 * (sent - due) for _i, due, sent, _d, _st, _b in nom]
        cap_lat = [1000 * (d - s) for _i, s, d, _st, _b in cap]
        qps = len(cap) / cap_wall
        sp = tail_percentile(len(lat["search"]))
        ap = tail_percentile(len(lat["autocomplete"]))
        res.metric("throughput_per_s", qps, "1/s")
        res.metric("latency_p50_ms", median(lat["search"]), "ms")
        by_cls: dict[str, list] = {}
        for i, due, _sent, done, _st, _b in nom:
            by_cls.setdefault(nominal[i]["cls"], []).append(1000 * (done - due))
        res.report.update({
            "search_p50_ms": median(lat["search"]),
            f"search_p{sp}_ms": quantile(lat["search"], sp / 100),
            "search_samples": len(lat["search"]),
            "search_max_qps": qps,
            "capacity_p99_ms": quantile(cap_lat, 0.99),
            "warm_up_p50_ms": median(warm_ms), "warm_up_p90_ms": quantile(warm_ms, 0.9),
            "capacity_meets_limit": quantile(cap_lat, 0.99) <= LIMIT_P99_MS,
            "autocomplete_p50_ms": median(lat["autocomplete"]),
            f"autocomplete_p{ap}_ms": quantile(lat["autocomplete"], ap / 100),
            "autocomplete_samples": len(lat["autocomplete"]),
            "serve_rss_mb": rss,
            "nominal_rate": NOMINAL_RATE, "clients": CLIENTS,
            "class_p50_ms": {k: median(v) for k, v in by_cls.items()},
        })
        keys = [(r["path"], tuple(sorted(r["params"].items()))) for r in stream]
        res.layers.update({
            "search.gen_lag_p99_ms": (quantile(lag, 0.99), "ms"),
            "search.repeat_frac": (1 - len(set(keys)) / len(keys), "ratio"),
            "search.serve_rss_mb": (rss, "MB"),
        })
        if tracer is not None:
            trace_layers(res, tracer, srv, idx, replay, warm)
    finally:
        if srv is not None:
            srv.stop()
        shutil.rmtree(idx, ignore_errors=True)


def trace_layers(res, tracer, srv, idx: str, replay: list[dict], warm: list[dict]) -> None:
    """Replay requests one at a time through HTTP, through a direct
    ``SearchService`` call and through an in-process engine (untraced,
    then traced with spans on its phases, the scorer and the reader).
    Both in-process engines are warmed like the replicas first."""
    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine, engine as engine_mod, scoring

    cold_ms: list[float] = []

    def warmed():
        e = SearchEngine(IndexReader(idx))
        e.r.prewarm()
        for r in warm:
            t = time.perf_counter()
            answer(e, r)
            cold_ms.append(1000 * (time.perf_counter() - t))
        return e

    http_ms, svc_ms, plain_ms = [], [], []
    plain, traced = warmed(), warmed()
    c = Client(srv.port)
    try:
        for r in replay:
            t = time.perf_counter()
            status, _ = c.get(r)
            http_ms.append(1000 * (time.perf_counter() - t))
            res.check(status == 200, "replayed request failed")
            t = time.perf_counter()
            call_service(srv.service, r)
            svc_ms.append(1000 * (time.perf_counter() - t))
            t = time.perf_counter()
            answer(plain, r)
            plain_ms.append(1000 * (time.perf_counter() - t))
    finally:
        c.close()

    hits = {"n": 0}

    def count_mask(tr, _a, _k, out):
        tr.counts["query.scoring.candidates"] += int(out.mask.sum())

    def count_hits(_tr, _a, _k, out):
        hits["n"] += len(out)

    E, S, R = engine_mod.SearchEngine, scoring.Scorer, IndexReader
    tracer.wrap(E, "search", "query.engine", count_hits)
    tracer.wrap(E, "autocomplete", "query.engine", count_hits)
    tracer.wrap(E, "_filter_mask", "query.engine.filter")
    tracer.wrap(E, "_general_scores_explained", "query.engine.clauses")
    tracer.wrap(E, "_project", "query.engine.project")
    for m in ("match", "match_fuzzy", "phrase", "phrase_prefix"):
        tracer.wrap(S, m, f"query.scoring.{m}", count_mask)
    tracer.wrap(R, "lookup", "index.lookup")
    tracer.wrap(R, "fuzzy_candidates", "index.fuzzy_candidates")
    tracer.wrap(R, "expand_prefix", "index.expand_prefix")
    tracer.wrap(engine_mod, "tokenize_text", "analysis.tokenize_text")
    traced_ms = []
    try:
        for k, r in enumerate(replay):
            tracer.request = k
            t = time.perf_counter()
            answer(traced, r)
            traced_ms.append(1000 * (time.perf_counter() - t))
    finally:
        tracer.request = None
        tracer.restore()

    n = len(replay)
    tot = tracer.totals()

    def per_req_ms(name: str, key: str = "total_s") -> float:
        return 1000 * tot.get(name, {}).get(key, 0.0) / n

    tracer.overhead = median(traced_ms) / median(plain_ms) - 1
    # prewarm leaves segment shards to load on first use: the first pass
    # of a fresh engine over the warm-up requests against a warmed one
    res.report["engine_cold_p50_ms"] = median(cold_ms)
    res.report["engine_warm_p50_ms"] = median(plain_ms)
    layers = {
        "query.http_server.self_ms": median(http_ms) - median(svc_ms),
        "query.serving.self_ms": median(svc_ms) - median(plain_ms),
        "query.engine.self_ms": per_req_ms("query.engine", "self_s"),
        "query.engine.filter_ms": per_req_ms("query.engine.filter"),
        "query.engine.project_ms": per_req_ms("query.engine.project"),
        "analysis.tokenize_text_ms": per_req_ms("analysis.tokenize_text"),
        "index.lookup_ms": per_req_ms("index.lookup"),
        "index.fuzzy_candidates_ms": per_req_ms("index.fuzzy_candidates"),
        "index.expand_prefix_ms": per_req_ms("index.expand_prefix"),
    }
    for m in ("match", "match_fuzzy", "phrase", "phrase_prefix"):
        layers[f"query.scoring.{m}_ms"] = per_req_ms(f"query.scoring.{m}")
    res.layers.update({k: (v, "ms") for k, v in layers.items()})
    res.layers["index.lookup_calls"] = (tracer.counts["index.lookup.calls"] / n, "count")
    res.layers["query.scoring.candidates_per_hit"] = (
        tracer.counts["query.scoring.candidates"] / max(hits["n"], 1), "ratio")
