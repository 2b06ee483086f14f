"""HTTP front-end for the search service.

Mirrors the reference's API server (app/app.go:66-117,
app/actions/routes.go:36-46): routes ``/`` ``/test`` ``/search``
``/autocomplete`` ``/status`` plus ``/metrics`` (Prometheus text
exposition, app/internal/metrics/metrics.go), the response headers the
reference sets (CORS ``*``, nosniff, CSP), bare-JSON bodies on success
and ``{"error": ...}`` with HTTP 400 on validation failures
(app/app.go:96-101).

Request parameters follow app/actions/search/search.go:26-49 —
``s size from channel channel_id related_to sort_by include
contentType mediaType claimType nsfw free_only resolve claim_id score
source debug`` (camelCase aliases accepted).  GET query strings and
``/msearch`` lines are parsed and validated by the one request contract
in :mod:`.request` (search.go:56-63), before the request reaches the
replica grid.

The handler is a thin stdlib ``ThreadingHTTPServer`` over
:class:`.serving.SearchService`, a partitions × replicas grid of warm
Ray actors that the server owns and stops: each request thread
round-robins a replica row and blocks on ``ray.get`` — the Python
analog of the reference's long-lived ES client behind net/http.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .request import AutocompleteRequest, SearchError, SearchRequest

# app/app.go:71-79
RESPONSE_HEADERS = {
    "Access-Control-Allow-Methods": "GET, POST, OPTIONS",
    "Content-Type": "application/json; charset=utf-8",
    "X-Content-Type-Options": "nosniff",
    "Content-Security-Policy": "default-src 'none'",
    "Server": "lighthouse_ray",
    "Access-Control-Allow-Origin": "*",
}


class Metrics:
    """Minimal Prometheus-style counters/histogram sums (the
    lighthouse_search_errors / *_duration analogs of
    app/internal/metrics/metrics.go)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.errors = 0
        self.duration_sum: dict[str, float] = {}
        self.duration_count: dict[str, int] = {}

    def observe(self, path: str, seconds: float, error: bool):
        with self._lock:
            self.requests[path] = self.requests.get(path, 0) + 1
            self.duration_sum[path] = self.duration_sum.get(path, 0.0) + seconds
            self.duration_count[path] = self.duration_count.get(path, 0) + 1
            if error:
                self.errors += 1

    def render(self) -> str:
        with self._lock:
            lines = [
                "# HELP lighthouse_search_errors The error count per api",
                "# TYPE lighthouse_search_errors counter",
                f"lighthouse_search_errors {self.errors}",
                "# HELP lighthouse_request_count Requests per route",
                "# TYPE lighthouse_request_count counter",
            ]
            for p, n in sorted(self.requests.items()):
                lines.append(f'lighthouse_request_count{{path="{p}"}} {n}')
            lines += [
                "# HELP lighthouse_request_duration_seconds Request durations",
                "# TYPE lighthouse_request_duration_seconds summary",
            ]
            for p in sorted(self.duration_sum):
                lines.append(
                    f'lighthouse_request_duration_seconds_sum{{path="{p}"}} '
                    f"{self.duration_sum[p]:.6f}"
                )
                lines.append(
                    f'lighthouse_request_duration_seconds_count{{path="{p}"}} '
                    f"{self.duration_count[p]}"
                )
        return "\n".join(lines) + "\n"


def _records(df, req: SearchRequest) -> list[dict]:
    """Hits as JSON records, with the score column only when ``score``
    or ``debug`` asks for it."""
    if not (req.score or req.debug) and "score" in df.columns:
        df = df.drop(columns=["score"])
    return df.to_dict(orient="records")


def _served(item: dict, req: SearchRequest) -> dict:
    """One msearch response item, its hits as :func:`_records`."""
    if item["status"] != 200:
        return item
    return {"status": 200, "hits": _records(item["hits"], req)}


def make_handler(service, metrics: Metrics):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(self, status: int, body):
            self._reply(status, json.dumps(body, indent=2, default=str).encode(),
                        RESPONSE_HEADERS)

        def _reply(self, status: int, data: bytes, headers: dict):
            """Write status line, headers and body with ONE send: a
            separate body write would sit behind the client's delayed
            ACK of the header segment (~40 ms per keep-alive request)."""
            head = [f"{self.protocol_version} {status} {self.responses[status][0]}",
                    f"Date: {self.date_time_string()}"]
            head += [f"{k}: {v}" for k, v in headers.items()]
            head.append(f"Content-Length: {len(data)}")
            self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data)

        def do_OPTIONS(self):
            self._reply(204, b"", RESPONSE_HEADERS)

        def do_POST(self):
            """POST /msearch — the ES ``_msearch`` bulk endpoint: NDJSON
            body, one JSON object of /search query params per line (ES
            header lines — empty objects or index/preference-only — are
            accepted and skipped); responds ``{"responses": [...]}`` with
            per-item status/error isolation, exactly the ES shape.  A
            line that is not a valid request is its own 400 item."""
            start = time.monotonic()
            path = urlparse(self.path).path
            error = False
            try:
                if path != "/msearch":
                    error = True
                    self._send(404, {"error": "404 Not Found"})
                    return
                length = self.headers.get("Content-Length", "0")
                if not (length.isascii() and length.isdigit()):
                    # the body's extent is unknown: answer, then drop the
                    # connection rather than parse the body as a request
                    self.close_connection = True
                    raise SearchError(f"invalid Content-Length {length!r}")
                body = self.rfile.read(int(length)).decode("utf-8", "replace")
                items = []
                for line in body.splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise SearchError("msearch lines must be JSON objects")
                    if not obj or set(obj) <= {"index", "preference"}:
                        continue  # ES-style header line
                    try:
                        items.append(SearchRequest.parse(obj))
                    except SearchError as e:
                        items.append({"status": 400, "error": str(e)})
                if not items:
                    raise SearchError("msearch body has no request lines")
                served = iter(service.msearch(
                    [r for r in items if isinstance(r, SearchRequest)]))
                responses = [r if isinstance(r, dict) else _served(next(served), r)
                             for r in items]
                self._send(200, {"responses": responses})
            except (json.JSONDecodeError, SearchError) as e:
                error = True
                self._send(400, {"error": str(e)})
            except Exception as e:  # noqa: BLE001
                error = True
                self._send(500, {"error": f"internal: {e}"})
            finally:
                metrics.observe(path, time.monotonic() - start, error)

        def do_GET(self):
            start = time.monotonic()
            url = urlparse(self.path)
            path = url.path
            q = parse_qs(url.query, keep_blank_values=True)
            error = False
            try:
                if path == "/":
                    self._send(200, "Welcome to Lighthouse!")  # default.go:12
                elif path == "/test":
                    self._send(200, "ok")  # default.go:20
                elif path == "/search":
                    req = SearchRequest.parse(q)
                    self._send(200, _records(service.search(req), req))
                elif path == "/autocomplete":
                    self._send(200, service.autocomplete(AutocompleteRequest.parse(q)))
                elif path == "/status":
                    self._send(200, service.status())
                elif path == "/metrics":
                    self._reply(200, metrics.render().encode(),
                                {"Content-Type": "text/plain; version=0.0.4"})
                else:
                    error = True
                    self._send(404, {"error": "404 Not Found"})  # default.go:15
            except SearchError as e:
                error = True
                self._send(400, {"error": str(e)})
            except Exception as e:  # server error (app.go:86-88)
                error = True
                self._send(500, {"error": f"internal: {e}"})
            finally:
                metrics.observe(path, time.monotonic() - start, error)

    return Handler


class LighthouseHTTPServer:
    """Owns the listening socket, a serving thread and the replica grid.

    >>> srv = LighthouseHTTPServer(index_dir, port=50005)
    >>> srv.start()          # non-blocking; .port has the bound port
    >>> ...
    >>> srv.stop()
    """

    def __init__(self, index_dir: str, host: str = "127.0.0.1", port: int = 0,
                 num_partitions: int = 1, num_replicas: int = 2,
                 special_map: dict | None = None):
        from .serving import SearchService

        self.service = SearchService(
            index_dir, num_partitions=num_partitions, num_replicas=num_replicas,
            special_map=special_map,
        )
        self.metrics = Metrics()
        self._httpd = ThreadingHTTPServer(
            (host, port), make_handler(self.service, self.metrics)
        )
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self):
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="lighthouse-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self):
        self._httpd.serve_forever()

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)
        self.service.shutdown()
