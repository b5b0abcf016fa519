"""serve-mix: a spawned ``python -m repro serve`` under an open-loop mix.

Requests come due at a fixed rate, three ``/v1/admit`` (rmts) to one
``/v1/bounds``, from one process over two keep-alive connections.  Every
request carries its own task set (n=12, M=4, U_M drawn from 0.55-1.0),
so the result cache never hits.  A request is timed from its due time
to its response, which counts the wait a stalled server imposes on the
requests behind it; how late the generator itself ran is reported
apart, and a run whose generator fell behind is invalid.

The server runs as is in both modes.  The traced run adds in-process
replays of the same payloads through ``AdmissionService`` with the
layer wrappers installed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    InvalidRun,
    Report,
    percentile,
    probe_slowness,
    proc_peak_rss_mb,
    program_env,
)
from perfbench.layers import (
    check_twins,
    counters_delta,
    counters_snapshot,
    install_core,
    report_core,
    report_trace,
)
from perfbench.spans import Tracer

HOST = "127.0.0.1"
#: Requests per second.  The cold closed-loop capacity of this mix with
#: two connections is about 490 req/s on a 2-core host that has its
#: cores to itself, and about two thirds of that when other tenants of
#: the machine slow it down; a quarter of the former keeps the server
#: out of overload in both states, so the tail measures the program.
RATE = 120.0
CONNECTIONS = 2
PROCESSORS = 4
N_TASKS = 12
U_RANGE = (0.55, 1.0)
#: Request i goes to /v1/bounds when i % 4 == 3, else to /v1/admit.
BOUNDS_EVERY = 4
WARMUP_REQUESTS = 40
#: Past this generator lateness (p99) the run measured the host.
MAX_LAG_P99_MS = 20.0
#: Requests of each kind the traced run replays in-process.
REPLAY_PER_KIND = 150
#: The client probes the host speed when no request is in flight and
#: the next one is due this much later, at most once per PROBE_EVERY_S;
#: a request's slowness is the median probe of its second.
PROBE_GAP_S = 2e-3
PROBE_EVERY_S = 0.05

Payload = Tuple[str, bytes]


def make_payloads(seed: int, count: int, stream: int = 0) -> List[Payload]:
    """*count* request bodies, a pure function of ``(seed, stream)``."""
    from repro.taskgen.generators import TaskSetGenerator

    generator = TaskSetGenerator(n=N_TASKS, period_model="loguniform")
    levels = np.random.default_rng([seed, stream, 0]).uniform(*U_RANGE, count)
    out: List[Payload] = []
    for i, u in enumerate(levels):
        taskset = generator.generate(
            u_norm=float(u),
            processors=PROCESSORS,
            seed=np.random.default_rng([seed, stream, 1, i]),
        )
        body: Dict[str, object] = {
            "tasks": [{"cost": t.cost, "period": t.period} for t in taskset],
            "processors": PROCESSORS,
        }
        kind = "bounds" if i % BOUNDS_EVERY == BOUNDS_EVERY - 1 else "admit"
        if kind == "admit":
            body["algorithm"] = "rmts"
        out.append((kind, json.dumps(body).encode()))
    return out


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` child; stopped by :meth:`stop`.

    ``setup_s`` is the time from spawn to the first answer on
    ``/healthz``, scaled by the host slowness probed around it.
    """

    def __init__(self) -> None:
        with socket.socket() as sock:
            sock.bind((HOST, 0))
            self.port = sock.getsockname()[1]
        slow = probe_slowness()
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", HOST, "--port", str(self.port)],
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.DEVNULL,
        )
        try:
            self._wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        elapsed = perf_counter() - started
        self.setup_s = elapsed / ((slow + probe_slowness()) / 2)

    def _wait_ready(self, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                with urllib.request.urlopen(self.url("/healthz"), timeout=1.0):
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def url(self, path: str) -> str:
        return f"http://{HOST}:{self.port}{path}"

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url("/metrics"), timeout=10.0) as resp:
            return json.load(resp)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# Open-loop load generator
# ---------------------------------------------------------------------------


class _Connection:
    """A keep-alive HTTP/1.1 connection; one request in flight at most."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        return cls(*await asyncio.open_connection(HOST, port))

    async def post(self, path: str, body: bytes) -> Tuple[int, Dict[str, str], bytes]:
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await self.reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, data

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Outcome:
    """Per-request record of one open-loop run (times from perf_counter)."""

    def __init__(self, count: int) -> None:
        self.due = [0.0] * count
        self.lag = [0.0] * count
        self.done = [0.0] * count
        self.status = [0] * count
        self.cache = [""] * count
        self.body: List[Optional[bytes]] = [None] * count
        self.error: List[str] = [""] * count
        self.probe_at: List[float] = []
        self.probes: List[float] = []

    def probe(self) -> None:
        self.probe_at.append(perf_counter())
        self.probes.append(probe_slowness(loops=1))

    def slowness(self) -> List[float]:
        """Each request's host slowness: the median probe of the second
        it came due in, or of the whole run where that second has none."""
        at = np.asarray(self.probe_at) - self.due[0]
        probes = np.asarray(self.probes)
        second = np.floor(at).astype(int)
        by_second = {
            int(k): float(np.median(probes[second == k])) for k in set(second)
        }
        overall = float(np.median(probes))
        return [
            by_second.get(int(due - self.due[0]), overall) for due in self.due
        ]


async def _open_loop(port: int, payloads: List[Payload], rate: float) -> Outcome:
    """Send *payloads* due at *rate* per second over ``CONNECTIONS``
    connections; a request waits for a free connection after its due
    time, and that wait counts in its latency."""
    out = Outcome(len(payloads))
    queue: asyncio.Queue = asyncio.Queue()
    conns = [await _Connection.open(port) for _ in range(CONNECTIONS)]
    inflight = 0
    next_due = next_probe = 0.0

    async def worker(conn: _Connection) -> None:
        nonlocal inflight, next_probe
        while True:
            i = await queue.get()
            if i is None:
                return
            kind, body = payloads[i]
            try:
                out.status[i], headers, out.body[i] = await conn.post(
                    f"/v1/{kind}", body
                )
                out.cache[i] = headers.get("x-repro-cache", "")
            except (OSError, ValueError, IndexError,
                    asyncio.IncompleteReadError) as exc:
                out.error[i] = f"{type(exc).__name__}: {exc}"
                await conn.close()
                conn = await _Connection.open(port)
            out.done[i] = now = perf_counter()
            inflight -= 1
            if inflight == 0 and now >= next_probe and next_due - now > PROBE_GAP_S:
                out.probe()
                next_probe = now + PROBE_EVERY_S

    workers = [asyncio.ensure_future(worker(c)) for c in conns]
    try:
        out.probe()
        start = perf_counter() + 0.05
        for i in range(len(payloads)):
            next_due = due = start + i / rate
            out.due[i] = due
            wait = due - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            out.lag[i] = perf_counter() - due
            inflight += 1
            queue.put_nowait(i)
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.wait_for(asyncio.gather(*workers), timeout=120)
        out.probe()
    finally:
        for task in workers:
            task.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        for conn in conns:
            await conn.close()
    return out


async def _closed_loop(port: int, payloads: List[Payload]) -> None:
    """Warm-up: send *payloads* back to back on one connection."""
    conn = await _Connection.open(port)
    try:
        for kind, body in payloads:
            await conn.post(f"/v1/{kind}", body)
    finally:
        await conn.close()


# ---------------------------------------------------------------------------
# Checks and in-process replay
# ---------------------------------------------------------------------------


def _oracle_failures(payloads: List[Payload], out: Outcome) -> List[int]:
    """Indices of requests that failed: non-200, transport error, cache
    hit, degraded, or a body that differs from the in-process oracle."""
    from repro.analysis.algorithms import PARTITIONERS
    from repro.core.task import TaskSet
    from repro.service.handlers import compute_bounds_body

    failed = []
    for i, (kind, raw) in enumerate(payloads):
        if out.error[i] or out.status[i] != 200 or out.cache[i] == "hit":
            failed.append(i)
            continue
        got = json.loads(out.body[i])
        taskset = TaskSet.from_dicts(json.loads(raw)["tasks"])
        if kind == "admit":
            ok = (
                got.get("degraded") is False
                and got.get("admitted")
                == PARTITIONERS["rmts"](taskset, PROCESSORS).success
            )
        else:
            expected = compute_bounds_body(taskset, PROCESSORS)
            ok = got == json.loads(json.dumps(expected))
        if not ok:
            failed.append(i)
    return failed


def _encode(body: dict) -> bytes:
    """The server's response encoding."""
    return json.dumps(body).encode("utf-8") + b"\n"


def _replay_set(payloads: List[Payload]) -> List[Payload]:
    admits = [p for p in payloads if p[0] == "admit"][:REPLAY_PER_KIND]
    bounds = [p for p in payloads if p[0] == "bounds"][:REPLAY_PER_KIND]
    return admits + bounds


def _replay(service, payloads: List[Payload], encode) -> float:
    """Run *payloads* through ``AdmissionService`` as the server does,
    minus HTTP and the cache; return the wall time."""
    start = perf_counter()
    for kind, raw in payloads:
        data = json.loads(raw)
        if kind == "admit":
            request, _ = service.prepare_admit(data)
            encode(service.compute_admit(request))
        else:
            request, _ = service.prepare_bounds(data)
            encode(service.compute_bounds(request))
    return perf_counter() - start


def _traced_replay(report: Report, seed: int, payloads: List[Payload]) -> None:
    from repro.service.handlers import AdmissionService

    service = AdmissionService()
    replayed = _replay_set(payloads)
    untraced_wall = _replay(service, replayed, _encode)
    tracer = Tracer()
    for method in ("prepare_admit", "compute_admit",
                   "prepare_bounds", "compute_bounds"):
        tracer.patch(AdmissionService, method, f"service.{method}")
    replay = tracer.wrap(_replay, "service.replay")
    install_core(tracer)
    before = counters_snapshot()
    try:
        traced_wall = replay(service, replayed, tracer.wrap(_encode, "service.encode"))
    finally:
        tracer.restore()
    delta = counters_delta(before)

    report.set("service.replay.requests", len(replayed))
    for name in ("prepare_admit", "compute_admit", "prepare_bounds",
                 "compute_bounds", "encode"):
        report.set(
            f"service.{name}.p50_ms",
            percentile(tracer.durations(f"service.{name}"), 50) * 1e3,
        )
    report_core(report, tracer, delta)
    report_trace(report, tracer, traced_wall, untraced_wall, seed)
    check_twins(
        report, tracer, delta, exercised=["core.partition.schedulable_with"]
    )


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def run(report: Report, *, seed: int, seconds: float, trace: bool) -> dict:
    count = max(BOUNDS_EVERY, int(round(RATE * seconds)))
    payloads = make_payloads(seed, count)
    warmup = make_payloads(seed, WARMUP_REQUESTS, stream=1)

    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server()
            setups.append(server.setup_s)
        asyncio.run(_closed_loop(server.port, warmup))
        # A collection pass over the stored responses would stall the
        # generator for milliseconds; the client collects after the run.
        gc.disable()
        try:
            out = asyncio.run(_open_loop(server.port, payloads, RATE))
        finally:
            gc.enable()
        server_metrics = server.metrics()
        peak_rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    lag_p99_ms = percentile(out.lag, 99) * 1e3
    if lag_p99_ms > MAX_LAG_P99_MS:
        raise InvalidRun(
            f"generator lateness p99 {lag_p99_ms:.2f} ms > {MAX_LAG_P99_MS} ms"
        )
    latency = [d - due for d, due in zip(out.done, out.due)]
    kinds = [kind for kind, _ in payloads]
    report.attempted = count

    if not trace:
        report.set("setup_s", statistics.median(setups),
                   f"median of {len(setups)} spawns to ready")
        report.set(
            "ops_per_s",
            count / (max(out.done) - out.due[0]),
            f"achieved, offered {RATE:g}/s",
        )
        report.timings(
            latency, out.slowness(), BOUNDS_EVERY, "per request from its due time"
        )
        report.set("peak_rss_mb", peak_rss, "server VmHWM")
    _report_serving(report, out, latency, kinds, server_metrics, lag_p99_ms)

    failed = _oracle_failures(payloads, out)
    report.failed = len(failed)
    report.check(
        "responses 200, uncached, not degraded, equal to the oracle",
        not failed,
        f"{count - len(failed)}/{count}",
    )
    if not trace:
        return report.result()
    _traced_replay(report, seed, payloads)
    return report.result(
        not_run=("taskgen.", "analysis.", "runner.", "sweep.", "cluster.")
    )


def _report_serving(report, out, latency, kinds, server_metrics, lag_p99_ms):
    """The endpoint split and the server's own view (printed every run,
    part of the result in the traced run)."""
    for kind in ("admit", "bounds"):
        ms = [1e3 * t for t, k in zip(latency, kinds) if k == kind]
        report.set(f"serve.{kind}_p50_ms", percentile(ms, 50))
        report.set(f"serve.{kind}_p99_ms", percentile(ms, 99))
        report.set(f"serve.{kind}_samples", len(ms))
    server_p50 = float(server_metrics["latency_ms"]["p50"])
    counters = server_metrics["counters"]
    report.set("service.server_p50_ms", server_p50, "from /metrics")
    report.set(
        "service.transport_p50_ms",
        percentile(latency, 50) * 1e3 - server_p50,
        "client p50 - server p50",
    )
    report.set("service.cache_hits", counters["svc_cache_hits"])
    report.set("service.degraded", counters["svc_degraded"])
    report.set("service.backpressure", counters["svc_backpressure"])
    report.set("loadgen.sent", len(latency))
    report.set("loadgen.lag_p99_ms", lag_p99_ms)
