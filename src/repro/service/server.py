"""Stdlib-only asyncio HTTP server for the admission-control service.

``python -m repro serve`` binds this server.  Endpoints:

* ``POST /v1/admit``  — one task set + ``m`` + algorithm → verdict and the
  serialized partition (:mod:`repro.core.serialization` format);
* ``POST /v1/bounds`` — D-PUB evaluation for one task set;
* ``POST /v1/batch``  — many admit items, fanned out over the
  :mod:`repro.runner` pool;
* ``GET /healthz``    — liveness + drain state;
* ``GET /metrics``    — request counts, latency percentiles, cache stats
  and the :mod:`repro.perf.telemetry` counters, as JSON;
  ``GET /metrics?format=prometheus`` serves the counters, request counts
  and latency quantiles in the Prometheus text exposition.

Production behaviours, in the order a request meets them:

1. **Backpressure** — at most ``queue_limit`` requests in flight; beyond
   that the server answers ``429`` immediately (``503`` while draining)
   instead of queueing unboundedly.
2. **Validation** — structured 400 bodies listing every bad field
   (:mod:`repro.service.validation`); malformed JSON never raises past the
   handler.
3. **One worker call** — an admit or bounds request is parsed and
   validated on the loop, then makes one worker-thread call
   (:meth:`~repro.service.handlers.AdmissionService.answer`): probe the
   canonical-hash cache, analyse on a miss, store the body.  Repeat
   requests are served byte-identically with ``X-Repro-Cache: hit``.
4. **Deadline + degradation** — that call runs under
   ``analysis_timeout``; on deadline the admit verdict falls back to the
   paper's utilization-bound test and the body is marked
   ``"degraded": true`` (a sound sufficient-only answer beats a 504).
   The degraded body is never cached; the orphaned worker still stores
   the exact body it computes, so a later repeat hits.
5. **Clean drain** — SIGTERM/SIGINT stop the listener, finish in-flight
   work, then exit 0.

The HTTP surface is deliberately minimal (HTTP/1.1, ``Content-Length``
bodies, keep-alive, one transport write per response) — enough for load
balancers, ``curl`` and the bundled :mod:`repro.service.loadgen`, with
zero dependencies.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union
from urllib.parse import unquote

from repro.perf.telemetry import COUNTERS
from repro.service.handlers import AdmissionService, ServiceConfig
from repro.service.validation import RequestValidationError

__all__ = ["AdmissionServer", "run"]

_JSON = {"Content-Type": "application/json"}
_PROM = {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}

#: A response body: JSON-serializable dict, or pre-rendered text
#: (the Prometheus exposition).
_Body = Union[Dict[str, object], str]


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """Split a request target into ``(path, query_params)``.

    Minimal by design: ``&``-separated ``key=value`` pairs, percent
    decoding, last key wins.  Routing always happens on the bare path.
    """
    path, sep, query = target.partition("?")
    params: Dict[str, str] = {}
    if sep:
        for pair in query.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[unquote(key)] = unquote(value)
    return path, params


#: Longest wait for a client to stop sending after a protocol error.
_LINGER_S = 1.0

#: Most header lines one request may carry (``http.client._MAXHEADERS``).
_MAX_HEADERS = 100

#: Every routed ``"METHOD path"``.  A request matching none of them is
#: accounted under the one ``"other"`` endpoint label, so clients cannot
#: grow ``/metrics`` by inventing methods or paths.
_ROUTES = frozenset({
    "GET /healthz", "GET /metrics", "POST /v1/admit", "POST /v1/bounds",
    "POST /v1/batch",
})
_PATHS = frozenset(route.split(" ", 1)[1] for route in _ROUTES)


def _prom_sample(name: str, value: float, **labels: str) -> str:
    """One exposition sample line ``repro_<name>{k="v",...} <value>``:
    integral values print bare, label values are escaped."""
    number = str(int(value)) if value == int(value) else repr(value)
    if not labels:
        return f"repro_{name} {number}"
    inner = ",".join(
        f'{key}="{_prom_escape(labels[key])}"' for key in sorted(labels)
    )
    return f"repro_{name}{{{inner}}} {number}"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _HTTPError(Exception):
    """Transport-level protocol error → immediate error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class _Request:
    method: str
    path: str
    version: str
    headers: Dict[str, str]
    body: bytes
    params: Dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"


@dataclass
class _Stats:
    """Per-instance request accounting behind ``/metrics``."""

    total: int = 0
    by_status: Dict[int, int] = field(default_factory=dict)
    by_endpoint: Dict[str, int] = field(default_factory=dict)
    latencies_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=4096))

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        self.total += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
        self.latencies_ms.append(seconds * 1e3)

    def latency_percentiles(self) -> Dict[str, float]:
        """Percentiles over the last 4096 latencies; ``count`` is every
        observation so far, so it never stops growing."""
        if not self.latencies_ms:
            return {"count": 0}
        data = sorted(self.latencies_ms)

        def pct(q: float) -> float:
            idx = min(len(data) - 1, int(q * (len(data) - 1) + 0.5))
            return round(data[idx], 4)

        return {
            "count": self.total,
            "p50": pct(0.50),
            "p90": pct(0.90),
            "p99": pct(0.99),
            "max": round(data[-1], 4),
        }


class AdmissionServer:
    """One listening admission-control server instance.

    Usable three ways: :func:`run` (blocking, what the CLI does),
    ``await start()`` / ``await stop()`` inside an existing event loop
    (what the tests do), or ``await serve_until_shutdown()`` which also
    installs signal handlers.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = AdmissionService(self.config)
        self.stats = _Stats()
        self.port: Optional[int] = None  # resolved after bind (port 0 ok)
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._draining = False
        # Created in start() so they bind to the serving loop even on
        # Python 3.9, where Event() captures a loop at construction.
        self._shutdown: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, min(8, self.config.queue_limit)),
            thread_name_prefix="repro-analysis",
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, *, drain_timeout: float = 10.0) -> None:
        """Stop accepting, wait for in-flight requests, release resources."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
            except asyncio.TimeoutError:
                pass  # give up on stragglers; executor shutdown is non-blocking
        self._executor.shutdown(wait=False)
        self.service.close()  # flush/close the durable cache tier, if any

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (flips to drain mode)."""
        self._draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Start, install SIGTERM/SIGINT handlers, serve, drain, return."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed: List[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # non-Unix loops
                pass
        print(  # repro-lint: disable=R8 (operator-facing startup banner)
            f"admission service listening on "
            f"http://{self.config.host}:{self.port} "
            f"(queue_limit={self.config.queue_limit}, "
            f"analysis_timeout={self.config.analysis_timeout:g}s, "
            f"cache_size={self.config.cache_size}, jobs={self.config.jobs}, "
            f"store={self.config.store_path or 'none'})",
            flush=True,
        )
        try:
            await self._shutdown.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()
            print("admission service drained, bye", flush=True)  # repro-lint: disable=R8 (operator-facing shutdown notice)

    # -- connection / protocol plumbing ------------------------------------

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # longer than the StreamReader limit (64 KiB)
            raise _HTTPError(431, "request line or header too long") from None

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(400, "malformed request line")
        method, path, version = parts
        headers: Dict[str, str] = {}
        for count in range(_MAX_HEADERS + 1):
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            if count == _MAX_HEADERS:
                raise _HTTPError(
                    431, f"more than {_MAX_HEADERS} header lines"
                )
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HTTPError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _HTTPError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HTTPError(400, "malformed Content-Length")
        if length > self.config.max_body_bytes:
            raise _HTTPError(
                413, f"body too large: {length} > {self.config.max_body_bytes}"
            )
        body = await reader.readexactly(length) if length else b""
        path, params = _split_target(path)
        return _Request(method, path, version, headers, body, params)

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: _Body,
        *,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Unknown")
        if isinstance(body, str):  # pre-rendered text (Prometheus)
            payload = body.encode("utf-8")
            headers = dict(_PROM)
        else:
            payload = json.dumps(body).encode("utf-8") + b"\n"
            headers = dict(_JSON)
        headers["Content-Length"] = str(len(payload))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        if extra_headers:
            headers.update(extra_headers)
        head = [f"HTTP/1.1 {status} {reason}"]
        head.extend(f"{k}: {v}" for k, v in headers.items())
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )
        await writer.drain()

    @staticmethod
    async def _linger(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close, then discard what the client is still sending.

        After a protocol error part of the request may be unread; closing
        on unread bytes resets the connection, and the reset can reach
        the client before it has read the error response.
        """
        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        writer.write_eof()
        try:
            await asyncio.wait_for(discard(), timeout=_LINGER_S)
        except asyncio.TimeoutError:
            pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    await self._write_response(
                        writer, exc.status,
                        {"error": "protocol", "message": exc.message},
                        keep_alive=False,
                    )
                    await self._linger(reader, writer)
                    break
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                if request is None:
                    break
                status, body, extra = await self._handle_request(request)
                keep_alive = request.keep_alive and not self._draining
                await self._write_response(
                    writer, status, body,
                    keep_alive=keep_alive, extra_headers=extra,
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- request handling ---------------------------------------------------

    async def _handle_request(
        self, request: _Request
    ) -> Tuple[int, _Body, Optional[Dict[str, str]]]:
        start = time.perf_counter()
        COUNTERS.svc_requests += 1
        status, body, extra = await self._shed_or_dispatch(request)
        elapsed = time.perf_counter() - start
        endpoint = f"{request.method} {request.path}"
        if endpoint not in _ROUTES:
            endpoint = "other"
        self.stats.record(endpoint, status, elapsed)
        return status, body, extra

    async def _shed_or_dispatch(
        self, request: _Request
    ) -> Tuple[int, _Body, Optional[Dict[str, str]]]:
        # Load shedding happens before any work is queued.
        if request.method == "POST":
            if self._draining:
                COUNTERS.svc_backpressure += 1
                return 503, {"error": "draining"}, None
            if self._inflight >= self.config.queue_limit:
                COUNTERS.svc_backpressure += 1
                body: Dict[str, object] = {
                    "error": "backpressure",
                    "inflight": self._inflight,
                    "queue_limit": self.config.queue_limit,
                }
                return 429, body, {"Retry-After": "1"}

        self._inflight += 1
        self._idle.clear()
        try:
            return await self._dispatch(request)
        except RequestValidationError as exc:
            COUNTERS.svc_validation_errors += 1
            return 400, exc.to_payload(), None
        except Exception as exc:  # noqa: BLE001 — the server must not die
            return 500, {
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }, None
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, _Body, Optional[Dict[str, str]]]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._healthz_body(), None
        if route == ("GET", "/metrics"):
            if request.params.get("format") == "prometheus":
                return 200, self.metrics_prometheus(), None
            # Tier stats hit the sqlite back store; keep that off the loop.
            cache_stats = await self._offload(self.service.cache.stats)
            return 200, self.metrics_body(cache_stats), None
        if route == ("POST", "/v1/admit"):
            return await self._handle_admit(request)
        if route == ("POST", "/v1/bounds"):
            return await self._handle_bounds(request)
        if route == ("POST", "/v1/batch"):
            return await self._handle_batch(request)
        if request.path in _PATHS:
            return 405, {"error": "method not allowed"}, None
        return 404, {"error": "not found", "path": request.path}, None

    @staticmethod
    def _parse_json(request: _Request) -> object:
        try:
            return json.loads(request.body or b"null")
        except json.JSONDecodeError as exc:
            raise RequestValidationError(
                [{"field": "body", "message": f"invalid JSON: {exc}"}]
            ) from None

    async def _run_with_deadline(self, fn, fallback):
        """Run *fn* in a worker thread under the analysis deadline.

        Returns ``(result, degraded)``.  On deadline the (cheap, loop-side)
        *fallback* supplies the answer.  The orphaned worker thread runs
        *fn* to the end in the background: its return value is dropped,
        but its side effects (the cache store in
        :meth:`AdmissionService.answer`) still happen.
        """
        loop = asyncio.get_running_loop()
        try:
            result = await asyncio.wait_for(
                loop.run_in_executor(self._executor, fn),
                timeout=self.config.analysis_timeout,
            )
            return result, False
        except asyncio.TimeoutError:
            COUNTERS.svc_timeouts += 1
            return fallback(), True

    async def _offload(self, fn, *args):
        """Run a cache/store touch in the worker pool (R9 discipline).

        The tiered cache's back store is sqlite: ``get``/``put``/``stats``
        do point reads and commits that stall every open connection when
        run on the event loop.  Admit and bounds touch the cache inside
        their one :meth:`_run_with_deadline` call; ``/metrics`` stats and
        batch planning come through this hop.  Only pure in-memory state
        may stay loop-side.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, lambda: fn(*args)
        )

    async def _answer(self, key: str, compute, fallback):
        """One worker call: cache probe, *compute* on a miss, store."""
        (hit, body), _ = await self._run_with_deadline(
            lambda: self.service.answer(key, compute),
            lambda: (False, fallback()),
        )
        return 200, body, {"X-Repro-Cache": "hit" if hit else "miss"}

    async def _handle_admit(self, request: _Request):
        payload = self._parse_json(request)
        admit_request, key = self.service.prepare_admit(payload)
        return await self._answer(
            key,
            lambda: self.service.compute_admit(admit_request),
            lambda: self.service.degraded_admit(admit_request),
        )

    async def _handle_bounds(self, request: _Request):
        payload = self._parse_json(request)
        bounds_request, key = self.service.prepare_bounds(payload)
        return await self._answer(
            key,
            lambda: self.service.compute_bounds(bounds_request),
            lambda: {"error": "deadline", "degraded": True},
        )

    async def _handle_batch(self, request: _Request):
        payload = self._parse_json(request)
        # prepare_batch probes the cache per item — worker pool, not loop.
        plan = await self._offload(self.service.prepare_batch, payload)
        pending = len(plan.pending_indices())
        # Deadline scales with the amount of uncached work in the batch.
        deadline = self.config.analysis_timeout * max(1, pending)
        loop = asyncio.get_running_loop()
        degraded = False
        if pending:
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(
                        self._executor, self.service.compute_batch, plan
                    ),
                    timeout=deadline,
                )
            except asyncio.TimeoutError:
                COUNTERS.svc_timeouts += 1
                self.service.degraded_batch(plan)
                degraded = True
        body = self.service.batch_body(plan)
        body["degraded"] = degraded
        return 200, body, None

    # -- introspection bodies ----------------------------------------------

    def _healthz_body(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "queue_limit": self.config.queue_limit,
        }

    def metrics_body(self, cache_stats: Dict[str, object]) -> Dict[str, object]:
        """The ``/metrics`` JSON document.

        ``cache_stats`` must be pre-fetched by the caller *off the event
        loop* — the tiered cache's stats read the sqlite back store, so
        this body builder deliberately cannot reach the cache itself.
        """
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "inflight": self._inflight,
            "draining": self._draining,
            "requests": {
                "total": self.stats.total,
                "by_status": {str(k): v for k, v in
                              sorted(self.stats.by_status.items())},
                "by_endpoint": dict(sorted(self.stats.by_endpoint.items())),
            },
            "latency_ms": self.stats.latency_percentiles(),
            "cache": cache_stats,
            "degraded_total": COUNTERS.svc_degraded,
            "timeouts_total": COUNTERS.svc_timeouts,
            "backpressure_total": COUNTERS.svc_backpressure,
            "validation_errors_total": COUNTERS.svc_validation_errors,
            "counters": COUNTERS.summary(),
        }

    def metrics_prometheus(self) -> str:
        """``/metrics?format=prometheus``: the text exposition (0.0.4).

        The telemetry counters as one labeled family, the server gauges,
        per-endpoint/per-status request counters, and request latency as
        a summary read from the record behind the JSON ``latency_ms``.
        """
        counters = COUNTERS.snapshot()
        lines = [
            "# HELP repro_events_total repro.perf.telemetry hot-path "
            "event counters",
            "# TYPE repro_events_total counter",
        ]
        lines += [
            _prom_sample("events_total", counters[event], event=event)
            for event in sorted(counters)
        ]
        gauges = {
            "draining": 1 if self._draining else 0,
            "inflight": self._inflight,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
        }
        for name in sorted(gauges):
            lines.append(f"# TYPE repro_{name} gauge")
            lines.append(_prom_sample(name, gauges[name]))
        lines.append("# TYPE repro_http_requests counter")
        lines += [
            _prom_sample("http_requests", count, endpoint=endpoint)
            for endpoint, count in sorted(self.stats.by_endpoint.items())
        ]
        lines.append("# TYPE repro_http_responses counter")
        lines += [
            _prom_sample("http_responses", count, status=str(code))
            for code, count in sorted(self.stats.by_status.items())
        ]
        latency = self.stats.latency_percentiles()
        lines.append("# TYPE repro_http_request_ms summary")
        for q, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            if key in latency:  # absent before the first request
                lines.append(
                    _prom_sample("http_request_ms", latency[key], quantile=q)
                )
        lines.append(_prom_sample("http_request_ms_count", latency["count"]))
        return "\n".join(lines) + "\n"


def run(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    server = AdmissionServer(config)
    try:
        asyncio.run(server.serve_until_shutdown())
    except KeyboardInterrupt:  # pragma: no cover — belt and braces
        pass
    return 0
