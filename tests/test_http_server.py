"""HTTP front-end e2e: the reference's smoke shape (app/test/test.go:18-35)
plus routes/headers/metrics (app/app.go:66-117, actions/routes.go:36-46)."""

import http.client
import json
import statistics
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from lighthouse_ray.config import IndexConfig
from lighthouse_ray.corpus import gen_corpus

CFG = IndexConfig(num_doc_parts=8, num_term_shards=16, salt_range=64, df_sample_mod=10)


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    import ray.data as rd

    from lighthouse_ray.build import build_index

    idx = str(tmp_path_factory.mktemp("http") / "index")
    build_index(rd.from_arrow(gen_corpus(250)), idx, CFG)
    return idx


@pytest.fixture(scope="module")
def server(index_dir):
    from lighthouse_ray.query.http_server import LighthouseHTTPServer

    srv = LighthouseHTTPServer(index_dir, port=0, num_replicas=1).start()
    yield srv
    srv.stop()


def _get(srv, path):
    url = f"http://127.0.0.1:{srv.port}{path}"
    with urllib.request.urlopen(url, timeout=30) as r:
        return r.status, dict(r.headers), r.read()


def test_search_smoke_shape(server):
    """The reference e2e asserts a JSON array of {name, claimId}
    (test.go:12-15,30); score is excluded unless requested."""
    q = urllib.parse.quote("merge segment")
    status, headers, body = _get(server, f"/search?s={q}&size=3")
    assert status == 200
    assert headers["Access-Control-Allow-Origin"] == "*"
    assert headers["X-Content-Type-Options"] == "nosniff"
    results = json.loads(body)
    assert isinstance(results, list) and len(results) >= 1
    assert set(results[0].keys()) == {"name", "claimId"}

    # parity with the engine through the replica + HTTP layers
    status, _h, body2 = _get(server, f"/search?s={q}&size=3&score=true")
    withscore = json.loads(body2)
    assert [r["claimId"] for r in withscore] == [r["claimId"] for r in results]
    assert all("score" in r for r in withscore)


def test_search_params_and_validation(server):
    status, _h, body = _get(server, "/search?s=merge+segment&size=2&from=1&resolve=true")
    rows = json.loads(body)
    assert status == 200 and len(rows) <= 2
    assert "channel" in rows[0] and "title" in rows[0]  # resolve columns

    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/search?s=ab")  # length < 3 (search.go:57)
    assert ei.value.code == 400
    assert "error" in json.loads(ei.value.read())

    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/search?s=merge+segment&size=20000")  # size > 10000
    assert ei.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/nope")
    assert ei.value.code == 404


def test_autocomplete_and_status_routes(server):
    status, _h, body = _get(server, "/autocomplete?s=imp&size=5")
    names = json.loads(body)
    assert status == 200 and isinstance(names, list)

    status, _h, body = _get(server, "/status")
    st = json.loads(body)
    assert status == 200 and st["count"] > 0

    status, _h, body = _get(server, "/")
    assert json.loads(body) == "Welcome to Lighthouse!"
    status, _h, body = _get(server, "/test")
    assert json.loads(body) == "ok"


def test_metrics_exposition(server):
    # the requests above must be counted; errors too
    status, headers, body = _get(server, "/metrics")
    assert status == 200
    text = body.decode()
    assert "lighthouse_search_errors" in text
    assert 'lighthouse_request_count{path="/search"}' in text
    assert "lighthouse_request_duration_seconds_sum" in text
    # error counter reflects the 400/404s driven earlier
    errline = [l for l in text.splitlines() if l.startswith("lighthouse_search_errors ")][0]
    assert int(errline.split()[-1]) >= 3


def test_msearch_bulk_endpoint(server):
    """POST /msearch (ES _msearch analog): NDJSON body with an ES-style
    header line, two valid searches and one invalid — per-item error
    isolation, parity with the equivalent GET /search results."""
    srv = server
    body = "\n".join([
        "{}",                                   # ES header line, skipped
        json.dumps({"s": "import", "size": 3}),
        json.dumps({"s": "merge segment", "size": 2, "score": True}),
        json.dumps({"size": 5}),                # invalid: s is required
    ])
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}/msearch",
        data=body.encode(),
        headers={"Content-Type": "application/x-ndjson"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=60) as r:
        out = json.loads(r.read())
    rs = out["responses"]
    assert len(rs) == 3
    assert rs[0]["status"] == 200 and len(rs[0]["hits"]) == 3
    assert rs[1]["status"] == 200 and len(rs[1]["hits"]) == 2
    assert all("score" in h for h in rs[1]["hits"])      # score=True kept
    assert all("score" not in h for h in rs[0]["hits"])  # default dropped
    assert rs[2]["status"] == 400 and "required" in rs[2]["error"]

    # parity with the single-search route
    single = json.loads(urllib.request.urlopen(
        f"http://127.0.0.1:{srv.port}/search?"
        + urllib.parse.urlencode({"s": "import", "size": 3}), timeout=60).read())
    assert rs[0]["hits"] == single

    # empty body is a top-level 400
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}/msearch", data=b"\n",
        method="POST")
    with pytest.raises(urllib.error.HTTPError) as ei:
        urllib.request.urlopen(req, timeout=30)
    assert ei.value.code == 400


def test_post_unknown_path_and_bad_json(server):
    srv = server
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}/search", data=b"{}", method="POST")
    with pytest.raises(urllib.error.HTTPError) as ei:
        urllib.request.urlopen(req, timeout=30)
    assert ei.value.code == 404  # POST is only /msearch
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}/msearch", data=b"not json\n", method="POST")
    with pytest.raises(urllib.error.HTTPError) as ei:
        urllib.request.urlopen(req, timeout=30)
    assert ei.value.code == 400


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_msearch_invalid_content_length_is_400(server, length):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.putrequest("POST", "/msearch")
        conn.putheader("Content-Length", length)
        conn.endheaders(b'{"s": "import"}\n')
        r = conn.getresponse()
        assert r.status == 400
        assert "Content-Length" in json.loads(r.read())["error"]
    finally:
        conn.close()


def test_keepalive_requests_single_send_no_stall(server, monkeypatch):
    """Back-to-back requests on one keep-alive connection must not wait
    for the client's delayed ACK (~40 ms each when a response goes out
    as a header write plus a body write on a Nagle socket): every
    response is one write, and the median round trip stays far below
    the stall."""
    handler = server._httpd.RequestHandlerClass
    writes: list[int] = []
    setup = handler.setup

    class CountingWriter:
        def __init__(self, inner):
            self._inner = inner

        def write(self, b):
            writes.append(len(b))
            return self._inner.write(b)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def counting_setup(self):
        setup(self)
        self.wfile = CountingWriter(self.wfile)

    monkeypatch.setattr(handler, "setup", counting_setup)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        for path in ("/", "/search?s=merge+segment&size=3"):
            walls = []
            for _ in range(30):
                writes.clear()
                t0 = time.perf_counter()
                conn.request("GET", path)
                r = conn.getresponse()
                body = r.read()
                walls.append(time.perf_counter() - t0)
                assert r.status == 200 and body
                assert len(writes) == 1, (path, writes)
            assert statistics.median(walls) < 0.010, (path, sorted(walls))
    finally:
        conn.close()


def test_grid_server_parity_and_stop_kills_replicas(index_dir):
    """A 2 × 2 grid behind HTTP answers /search byte-identically to an
    in-process engine, and ``stop()`` kills every replica actor."""
    import ray

    from lighthouse_ray.index import IndexReader
    from lighthouse_ray.query import SearchEngine
    from lighthouse_ray.query.http_server import LighthouseHTTPServer

    engine = SearchEngine(IndexReader(index_dir))
    srv = LighthouseHTTPServer(index_dir, port=0, num_partitions=2, num_replicas=2).start()
    handles = list(srv.service.replicas)
    try:
        assert len(handles) == 4
        for params, kw in [
            ({"s": "merge segment", "size": 5}, dict(s="merge segment", size=5)),
            ({"s": "import", "size": 4, "from": 2}, dict(s="import", size=4, from_=2)),
            ({"s": "merge segment", "size": 6, "sort_by": "^release_time"},
             dict(s="merge segment", size=6, sort_by="^release_time")),
        ]:
            df = engine.search(**kw).drop(columns=["score"])
            want = json.dumps(df.to_dict(orient="records"), indent=2, default=str).encode()
            _status, _h, body = _get(srv, "/search?" + urllib.parse.urlencode(params))
            assert body == want, params
    finally:
        srv.stop()
    for h in handles:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.status.remote(), timeout=60)
