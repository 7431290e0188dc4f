"""Stdlib HTTP front-end for the always-on sweep service.

A :class:`http.server.ThreadingHTTPServer` (one thread per connection,
no third-party framework) exposing :class:`~repro.serving.service.SweepService`
as JSON endpoints:

======  ======================  ===============================================
Method  Path                    Meaning
======  ======================  ===============================================
GET     ``/``                   Minimal HTML index describing the API
GET     ``/api/health``         Liveness probe
POST    ``/api/sweep``          Submit points; ``"wait": true`` blocks for rows
GET     ``/api/jobs``           Job index (id, status, point count)
GET     ``/api/jobs/<id>``      One job's status / results / batch composition
POST    ``/api/experiment``     Run a registry experiment with overrides
GET     ``/api/verdict``        Probabilistic classification (``family``, ``n``)
POST    ``/api/bias-sweep``     Parametric coin-bias hitting-time sweep
GET     ``/api/report``         Campaign-store summary (``dir=<store root>``)
GET     ``/api/caches``         Cache / dispatcher observability counters
======  ======================  ===============================================

Handler threads only *submit and wait*; execution happens on the single
dispatcher thread, which is what lets concurrent tenants' requests fuse
into one code matrix.  Client errors (:class:`~repro.errors.ServingError`)
map to HTTP 400 (404 for unknown jobs/paths); everything else is a 500
with the exception type in the body.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServingError
from repro.serving.service import ServiceConfig, SweepService

__all__ = ["SweepHTTPServer", "make_server", "serve"]

_MAX_BODY = 4 * 1024 * 1024

_INDEX = """<!doctype html>
<html><head><title>repro sweep service</title></head>
<body>
<h1>repro sweep service</h1>
<p>Always-on serving tier for the Devismes&ndash;Tixeuil&ndash;Yamashita
reproduction: concurrent sweep submissions fuse into one code matrix,
and compiled tables, chains, and LU factorizations stay warm
across requests.</p>
<ul>
<li>GET /api/health</li>
<li>POST /api/sweep &mdash; {"points": [{"family": "Q1", "n": 8,
"trials": 100, "seed": 7}], "wait": true}</li>
<li>GET /api/jobs, GET /api/jobs/&lt;id&gt;</li>
<li>POST /api/experiment &mdash; {"experiment": "Q1", "params": {...}}</li>
<li>GET /api/verdict?family=Q1&amp;n=4</li>
<li>POST /api/bias-sweep &mdash; {"family": "herman-random-bit",
"n": 5, "biases": [0.3, 0.5]}</li>
<li>GET /api/report?dir=&lt;campaign store&gt;</li>
<li>GET /api/caches</li>
</ul>
</body></html>
"""


class SweepHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`SweepService`."""

    daemon_threads = True

    def __init__(self, address, service: SweepService) -> None:
        self.service = service
        super().__init__(address, _Handler)

    def shutdown(self) -> None:  # also stop the dispatcher thread
        super().shutdown()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    server: SweepHTTPServer

    # Silence per-request stderr lines; the CLI reports the bind once.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def _reply(self, status: int, payload, content_type="application/json"):
        body = (
            payload.encode()
            if isinstance(payload, str)
            else (json.dumps(payload, allow_nan=False) + "\n").encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _body(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            raise ServingError(
                f"Content-Length must be an integer, got {header!r}"
            ) from None
        if length < 0:
            raise ServingError(f"Content-Length must be >= 0, got {length}")
        if length > _MAX_BODY:
            raise ServingError(
                f"request body too large ({length} > {_MAX_BODY} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServingError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServingError(f"invalid JSON body: {error}") from None

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except ServingError as error:
            self._error(
                404 if "unknown job" in str(error) else 400, str(error)
            )
        except ReproError as error:
            self._error(400, f"{type(error).__name__}: {error}")
        except Exception as error:  # keep the server alive
            self._error(500, f"{type(error).__name__}: {error}")
        else:
            self._reply(status, payload)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlparse(self.path)
        query = {
            key: values[-1] for key, values in parse_qs(url.query).items()
        }
        service = self.server.service
        path = url.path.rstrip("/") or "/"
        if path == "/":
            self._reply(200, _INDEX, content_type="text/html; charset=utf-8")
        elif path == "/api/health":
            self._reply(200, {"status": "ok"})
        elif path == "/api/jobs":
            self._dispatch(lambda: (200, service.job_index()))
        elif path.startswith("/api/jobs/"):
            job_id = path.removeprefix("/api/jobs/")
            self._dispatch(lambda: (200, service.job_snapshot(job_id)))
        elif path == "/api/verdict":
            self._dispatch(
                lambda: (
                    200,
                    service.verdict(
                        query.get("family", ""), _int_query(query, "n")
                    ),
                )
            )
        elif path == "/api/report":
            self._dispatch(
                lambda: (200, service.report(query.get("dir", "")))
            )
        elif path == "/api/caches":
            self._dispatch(lambda: (200, service.cache_stats()))
        else:
            self._error(404, f"unknown path {url.path!r}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlparse(self.path)
        service = self.server.service
        path = url.path.rstrip("/")
        if path == "/api/sweep":
            self._dispatch(lambda: self._post_sweep(service))
        elif path == "/api/experiment":
            self._dispatch(lambda: self._post_experiment(service))
        elif path == "/api/bias-sweep":
            self._dispatch(lambda: (200, service.bias_sweep(self._body())))
        else:
            self._error(404, f"unknown path {url.path!r}")

    # ------------------------------------------------------------------
    def _post_sweep(self, service: SweepService):
        payload = self._body()
        if not isinstance(payload, dict):
            raise ServingError("submission must be a JSON object")
        wait = payload.pop("wait", False)
        timeout = payload.pop("timeout", 300.0)
        if not isinstance(wait, bool):
            raise ServingError(f"'wait' must be a boolean, got {wait!r}")
        if isinstance(timeout, bool) or not isinstance(
            timeout, (int, float)
        ) or not 0 < timeout <= 3600:
            raise ServingError(
                f"'timeout' must be a number of seconds in (0, 3600],"
                f" got {timeout!r}"
            )
        if wait:
            return 200, service.run_sweep(payload, timeout=float(timeout))
        return 202, service.submit_sweep(payload).snapshot()

    def _post_experiment(self, service: SweepService):
        payload = self._body()
        if not isinstance(payload, dict):
            raise ServingError("experiment request must be a JSON object")
        unknown = set(payload) - {"experiment", "params"}
        if unknown:
            raise ServingError(
                f"unknown experiment fields {sorted(unknown)}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServingError("'params' must be a JSON object")
        return 200, service.experiment(payload.get("experiment"), params)


def _int_query(query: dict, key: str) -> int:
    value = query.get(key)
    if value is None:
        raise ServingError(f"missing query parameter {key!r}")
    try:
        return int(value)
    except ValueError:
        raise ServingError(
            f"query parameter {key!r} must be an integer, got {value!r}"
        ) from None


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
) -> SweepHTTPServer:
    """Bind (``port=0`` picks a free port) without entering the loop —
    the tests' entry point: ``server.server_address`` has the bound
    port, ``serve_forever()`` runs on a thread of the caller's choice."""
    return SweepHTTPServer((host, port), SweepService(config))


def serve(
    host: str = "127.0.0.1",
    port: int = 8008,
    config: ServiceConfig | None = None,
) -> None:
    """Run the service in the foreground until interrupted."""
    server = make_server(host, port, config)
    bound_host, bound_port = server.server_address[:2]
    print(f"sweep service listening on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
