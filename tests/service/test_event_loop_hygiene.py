"""The serving path's thread and transport discipline.

The flow analysis (R9) proved every async handler could reach the
store-backed cache's sqlite calls *on the event-loop thread* through
``TieredCache``.  Admit and bounds now touch the cache only inside their
one worker-thread call (``AdmissionService.answer``); batch planning and
the ``/metrics`` stats read go through ``AdmissionServer._offload``.
These tests record the thread running each cache method while real
requests are in flight and assert it is never the loop thread.  They
also pin the cost of the path: one executor submit per admit or bounds
request, hit or miss, and one transport write per response.  A worker
orphaned by the deadline still stores its exact body.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import threading
from typing import Dict, List, Tuple

import pytest

from repro.service.server import AdmissionServer

from tests.service.conftest import http_request, run_async, running_server

pytestmark = pytest.mark.service


def _spy_cache(server, calls: List[str]) -> None:
    """Wrap the live cache so each touch records its thread ident."""
    cache = server.service.cache
    loop_thread = threading.get_ident()  # called from inside the loop

    def record(name: str) -> None:
        where = "loop" if threading.get_ident() == loop_thread else "worker"
        calls.append(f"{name}:{where}")

    real_get, real_put, real_stats = cache.get, cache.put, cache.stats

    def spy_get(key):
        record("get")
        return real_get(key)

    def spy_put(key, value):
        record("put")
        return real_put(key, value)

    def spy_stats():
        record("stats")
        return real_stats()

    cache.get, cache.put, cache.stats = spy_get, spy_put, spy_stats


class TestCacheTouchesOffLoop:
    def test_admit_and_metrics_never_touch_cache_on_loop(
        self, tasks_payload
    ):
        calls: List[str] = []

        async def scenario():
            async with running_server() as server:
                _spy_cache(server, calls)
                payload = {"tasks": tasks_payload, "processors": 2}
                # miss (get + put), hit (get), then the stats read.
                await http_request(server.port, "POST", "/v1/admit", payload)
                await http_request(server.port, "POST", "/v1/admit", payload)
                await http_request(server.port, "GET", "/metrics")

        run_async(scenario())
        kinds = {c.split(":")[0] for c in calls}
        assert {"get", "put", "stats"} <= kinds, calls
        on_loop = [c for c in calls if c.endswith(":loop")]
        assert on_loop == [], f"cache touched on the event loop: {on_loop}"

    def test_bounds_cache_probe_runs_on_worker(self):
        calls: List[str] = []

        async def scenario():
            async with running_server() as server:
                _spy_cache(server, calls)
                await http_request(
                    server.port, "POST", "/v1/bounds",
                    {"tasks": [[1, 4], [2, 8]], "theta_max": 4},
                )

        run_async(scenario())
        assert any(c.startswith("get:") for c in calls), calls
        assert all(c.endswith(":worker") for c in calls), calls


class TestMetricsBodyIsolation:
    def test_metrics_body_requires_precomputed_stats(self):
        """The body builder must not be able to reach the cache itself.

        ``cache_stats`` has no default: the only way to build the metrics
        body is with stats fetched by the caller (via ``_offload``), so
        the R9 fix cannot silently regress to an inline fallback.
        """
        params = inspect.signature(
            AdmissionServer.metrics_body
        ).parameters
        assert "cache_stats" in params
        assert params["cache_stats"].default is inspect.Parameter.empty


def _count_submits(server) -> List[str]:
    """Wrap the server's executor so each submit records its callable."""
    calls: List[str] = []
    real_submit = server._executor.submit

    def submit(fn, *args, **kwargs):
        calls.append(getattr(fn, "__qualname__", repr(fn)))
        return real_submit(fn, *args, **kwargs)

    server._executor.submit = submit
    return calls


class TestOneWorkerCall:
    @pytest.mark.parametrize("path,payload", [
        ("/v1/admit", {"tasks": [[1, 4], [2, 8]], "processors": 2}),
        ("/v1/bounds", {"tasks": [[1, 4], [2, 8]], "processors": 2}),
    ])
    def test_miss_and_hit_each_submit_once(self, path, payload):
        async def scenario():
            async with running_server() as server:
                submits = _count_submits(server)
                out = []
                for _ in range(2):  # cold, then the cache hit
                    _, headers, _ = await http_request(
                        server.port, "POST", path, payload
                    )
                    out.append((headers["x-repro-cache"], list(submits)))
                    submits.clear()
                return out

        (cold, cold_submits), (hit, hit_submits) = run_async(scenario())
        assert (cold, hit) == ("miss", "hit")
        assert len(cold_submits) == 1, cold_submits
        assert len(hit_submits) == 1, hit_submits

    def test_orphaned_worker_stores_its_exact_body(self, tasks_payload):
        async def scenario():
            async with running_server(
                analysis_timeout=0.05, inject_delay=0.2
            ) as server:
                payload = {"tasks": tasks_payload, "processors": 2}
                first = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                await asyncio.sleep(0.3)  # the orphan finishes and stores
                again = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                return first, again

        (s1, h1, b1), (s2, h2, b2) = run_async(scenario())
        assert (s1, s2) == (200, 200)
        assert h1["x-repro-cache"] == "miss"
        assert b1["degraded"] is True
        assert h2["x-repro-cache"] == "hit"
        assert b2["degraded"] is False
        assert b2["decided_by"] != "utilization-bound"
        assert b2["partition"] is not None


class TestOneWritePerResponse:
    def test_each_response_is_one_transport_write(
        self, monkeypatch, tasks_payload
    ):
        writes: List[Tuple[int, bytes]] = []
        real_write = asyncio.StreamWriter.write

        def spy_write(writer, data):
            writes.append(
                (writer.transport.get_extra_info("sockname")[1], bytes(data))
            )
            return real_write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", spy_write)
        requests = [
            ("POST", "/v1/admit", {"tasks": tasks_payload, "processors": 2}),
            ("POST", "/v1/admit", {"tasks": tasks_payload, "processors": 2}),
            ("POST", "/v1/bounds", {"tasks": tasks_payload}),
            ("POST", "/v1/admit", {"tasks": [[-1, 4]]}),
            ("GET", "/healthz", None),
            ("GET", "/metrics", None),
        ]

        async def scenario():
            async with running_server() as server:
                per_request: List[List[bytes]] = []
                for method, path, body in requests:
                    writes.clear()
                    await http_request(server.port, method, path, body)
                    per_request.append(
                        [data for port, data in writes if port == server.port]
                    )
                return per_request

        for (_, path, _), sent in zip(requests, run_async(scenario())):
            assert len(sent) == 1, (path, sent)
            head, sep, body = sent[0].partition(b"\r\n\r\n")
            assert sep and head.startswith(b"HTTP/1.1 ")
            headers: Dict[str, str] = dict(
                line.split(": ", 1)
                for line in head.decode("latin-1").split("\r\n")[1:]
            )
            assert int(headers["Content-Length"]) == len(body)
            json.loads(body)
