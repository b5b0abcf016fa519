"""End-to-end endpoint tests against a real server on an ephemeral port."""

import asyncio

import pytest

from repro.perf.telemetry import COUNTERS

from tests.service.conftest import http_request, run_async, running_server

pytestmark = pytest.mark.service


class TestAdmit:
    def test_happy_path_returns_partition(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 2},
                )

        status, headers, body = run_async(scenario())
        assert status == 200
        assert body["admitted"] is True
        assert body["degraded"] is False
        assert headers["x-repro-cache"] == "miss"
        part = body["partition"]
        assert part["format"] == "repro-partition-v1"
        assert len(part["processors"]) == 2
        assert body["unassigned_tids"] == []

    def test_rejection_lists_unassigned(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 1},
                )

        status, _, body = run_async(scenario())
        assert status == 200
        assert body["admitted"] is False
        assert body["partition"] is None
        assert body["unassigned_tids"]

    def test_cache_hit_returns_identical_body(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                payload = {"tasks": tasks_payload, "processors": 2}
                first = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                second = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                metrics = await http_request(server.port, "GET", "/metrics")
                return first, second, metrics

        (s1, h1, b1), (s2, h2, b2), (_, _, metrics) = run_async(scenario())
        assert (s1, s2) == (200, 200)
        assert h1["x-repro-cache"] == "miss"
        assert h2["x-repro-cache"] == "hit"
        assert b1 == b2
        assert metrics["cache"]["hits"] >= 1

    def test_validation_error_is_structured_400(self):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": [[-1, 4]], "processors": 0},
                )

        status, _, body = run_async(scenario())
        assert status == 400
        assert body["error"] == "validation"
        fields = {d["field"] for d in body["details"]}
        assert "tasks[0].cost" in fields and "processors" in fields

    def test_malformed_json_is_400_not_500(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                blob = b"{not json"
                writer.write(
                    (
                        "POST /v1/admit HTTP/1.1\r\n"
                        f"Content-Length: {len(blob)}\r\n"
                        "Connection: close\r\n\r\n"
                    ).encode() + blob
                )
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                writer.close()
                return status

        assert run_async(scenario()) == 400

    def test_timeout_degrades_to_bound_verdict(self, tasks_payload):
        # inject_delay far beyond the analysis deadline forces the
        # degraded path: the response must be the utilization-bound
        # verdict (admitted for this low-utilization set), not an error.
        before = COUNTERS.svc_timeouts

        async def scenario():
            async with running_server(
                analysis_timeout=0.05, inject_delay=0.5
            ) as server:
                payload = {"tasks": tasks_payload, "processors": 2}
                first = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                again = await http_request(
                    server.port, "POST", "/v1/admit", payload
                )
                return first, again

        (status, _, body), (_, h2, b2) = run_async(scenario())
        assert status == 200
        assert body["degraded"] is True
        assert body["decided_by"] == "utilization-bound"
        assert body["admitted"] is True          # U_M = 0.5625 <= bound
        assert body["partition"] is None
        # degraded bodies are never cached — the retry recomputes
        assert h2["x-repro-cache"] == "miss"
        assert b2["degraded"] is True
        assert COUNTERS.svc_timeouts >= before + 2


class TestBounds:
    def test_bounds_body(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/bounds",
                    {"tasks": tasks_payload, "processors": 2},
                )

        status, _, body = run_async(scenario())
        assert status == 200
        assert body["harmonic_chains"] == 1
        assert body["best_bound"] == pytest.approx(1.0)
        assert body["guaranteed_schedulable"] is True
        assert set(body["bounds"]) >= {"L&L", "HC"}

    def test_bounds_cached(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                payload = {"tasks": tasks_payload}
                await http_request(server.port, "POST", "/v1/bounds", payload)
                return await http_request(
                    server.port, "POST", "/v1/bounds", payload
                )

        _, headers, _ = run_async(scenario())
        assert headers["x-repro-cache"] == "hit"


class TestBatch:
    def test_mixed_batch(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/batch",
                    {
                        "processors": 2,
                        "items": [
                            {"tasks": tasks_payload},
                            {"tasks": [[-3, 4]]},
                            {"tasks": [[2, 4], [2, 4]], "processors": 1},
                        ],
                    },
                )

        status, _, body = run_async(scenario())
        assert status == 200
        assert body["count"] == 3
        assert [r["status"] for r in body["results"]] == [200, 400, 200]
        assert body["results"][0]["admitted"] is True
        assert body["results"][1]["error"] == "validation"
        assert body["degraded"] is False

    def test_batch_shares_cache_with_admit(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 2},
                )
                hits_before = server.service.cache.hits
                await http_request(
                    server.port, "POST", "/v1/batch",
                    {"processors": 2, "items": [{"tasks": tasks_payload}]},
                )
                return hits_before, server.service.cache.hits

        hits_before, hits_after = run_async(scenario())
        assert hits_after == hits_before + 1

    def test_batch_envelope_validation(self):
        async def scenario():
            async with running_server() as server:
                return await http_request(
                    server.port, "POST", "/v1/batch", {"items": []}
                )

        status, _, body = run_async(scenario())
        assert status == 400
        assert body["error"] == "validation"


class TestBackpressure:
    def test_queue_limit_sheds_with_429(self, tasks_payload):
        async def scenario():
            async with running_server(
                queue_limit=1, inject_delay=0.3, analysis_timeout=5.0
            ) as server:
                payload = {"tasks": tasks_payload, "processors": 2}

                async def one():
                    return await http_request(
                        server.port, "POST", "/v1/admit", payload
                    )

                results = await asyncio.gather(*(one() for _ in range(4)))
                metrics = await http_request(server.port, "GET", "/metrics")
                return results, metrics

        results, (_, _, metrics) = run_async(scenario())
        statuses = sorted(r[0] for r in results)
        assert statuses.count(200) >= 1
        assert 429 in statuses
        rejected = [r for r in results if r[0] == 429]
        assert all(r[2]["error"] == "backpressure" for r in rejected)
        assert all("retry-after" in r[1] for r in rejected)
        assert metrics["backpressure_total"] >= 1

    def test_draining_returns_503(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                server.request_shutdown()
                return await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 2},
                )

        status, _, body = run_async(scenario())
        assert status == 503
        assert body["error"] == "draining"


class TestIntrospection:
    def test_healthz(self):
        async def scenario():
            async with running_server() as server:
                return await http_request(server.port, "GET", "/healthz")

        status, _, body = run_async(scenario())
        assert status == 200
        assert body["status"] == "ok"

    def test_metrics_shape(self, tasks_payload):
        async def scenario():
            async with running_server() as server:
                await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 2},
                )
                return await http_request(server.port, "GET", "/metrics")

        status, _, body = run_async(scenario())
        assert status == 200
        assert body["requests"]["total"] >= 1
        assert "POST /v1/admit" in body["requests"]["by_endpoint"]
        assert body["latency_ms"]["count"] >= 1
        assert body["latency_ms"]["p50"] <= body["latency_ms"]["p99"]
        assert body["cache"]["misses"] >= 1
        assert "rta_calls" in body["counters"]

    def test_unknown_route_404_wrong_method_405(self):
        async def scenario():
            async with running_server() as server:
                a = await http_request(server.port, "GET", "/nope")
                b = await http_request(server.port, "GET", "/v1/admit")
                return a[0], b[0]

        assert run_async(scenario()) == (404, 405)

    def test_unrouted_requests_share_one_endpoint_label(self):
        # Clients choose the method and path; a request matching no route
        # must not add a /metrics key (or Prometheus series) of its own.
        def prometheus_series(text):
            return [
                line for line in text.splitlines()
                if line.startswith("repro_http_requests{")
            ]

        async def scenario():
            async with running_server() as server:
                port = server.port
                await http_request(port, "GET", "/metrics")
                _, _, before = await http_request(port, "GET", "/metrics")
                _, _, prom_before = await http_request(
                    port, "GET", "/metrics?format=prometheus", raw=True
                )
                for i in range(20):
                    await http_request(port, "GET", f"/nope/{i}")
                await http_request(port, "BREW", "/coffee")
                await http_request(port, "POST", "/healthz")
                gone = [
                    await http_request(
                        port, "POST", "/v1/depart", {"tenant": 0}
                    ),
                    await http_request(port, "GET", "/v1/cluster"),
                ]
                _, _, after = await http_request(port, "GET", "/metrics")
                _, _, prom_after = await http_request(
                    port, "GET", "/metrics?format=prometheus", raw=True
                )
                return before, prom_before, after, prom_after, gone

        before, prom_before, after, prom_after, gone = run_async(scenario())
        assert [status for status, _, _ in gone] == [404, 404]
        keys_before = before["requests"]["by_endpoint"]
        keys_after = after["requests"]["by_endpoint"]
        assert len(keys_after) <= len(keys_before) + 1
        assert keys_after["other"] == 24
        assert not any("nope" in key for key in keys_after)
        assert not any("depart" in key or "cluster" in key for key in keys_after)
        series = prometheus_series(prom_after)
        assert len(series) <= len(prometheus_series(prom_before)) + 1
        assert 'repro_http_requests{endpoint="other"} 24' in series


class TestProtocolLimits:
    @pytest.mark.parametrize("where,size", [
        ("line", 70_000), ("header", 70_000), ("header", 1_000_000),
    ])
    def test_oversize_line_is_431_and_close(self, caplog, where, size):
        # Over the StreamReader's 64 KiB line limit: the client must get
        # a 431 and a clean close, not an empty reply and a logged
        # traceback.
        filler = "a" * size
        if where == "line":
            head = f"GET /{filler} HTTP/1.1\r\n\r\n"
        else:
            head = f"GET /healthz HTTP/1.1\r\nX-Big: {filler}\r\n\r\n"

        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(head.encode())
                await writer.drain()
                reply = await reader.read()  # up to the server's close
                writer.close()
                await writer.wait_closed()
                # the server still answers on a fresh connection
                status, _, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
                return reply, status

        reply, status = run_async(scenario())
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert b"Connection: close" in reply
        assert b'"error": "protocol"' in reply
        assert status == 200
        assert "longer than limit" not in caplog.text
        assert "exceed the limit" not in caplog.text

    @pytest.mark.parametrize("count,expected", [(100, 200), (101, 431)])
    def test_header_count_is_capped(self, count, expected):
        # Same cap as http.client: 100 header lines are served, 101 get a
        # 431 and a close instead of a headers dict that keeps growing.
        lines = [f"X-H{i}: v" for i in range(count - 1)]
        lines.append("Connection: close")
        head = "GET /healthz HTTP/1.1\r\n" + "\r\n".join(lines) + "\r\n\r\n"

        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(head.encode())
                await writer.drain()
                reply = await reader.read()  # up to the server's close
                writer.close()
                await writer.wait_closed()
                status, _, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
                return reply, status

        reply, status = run_async(scenario())
        assert reply.startswith(f"HTTP/1.1 {expected} ".encode())
        assert b"Connection: close" in reply
        assert status == 200


class TestDrain:
    def test_shutdown_finishes_inflight_work(self, tasks_payload):
        # A request that is mid-analysis when shutdown is requested must
        # still complete; the listener closes afterwards.
        async def scenario():
            async with running_server(inject_delay=0.2) as server:
                task = asyncio.create_task(
                    http_request(
                        server.port, "POST", "/v1/admit",
                        {"tasks": tasks_payload, "processors": 2},
                    )
                )
                await asyncio.sleep(0.05)       # request is now in flight
                server.request_shutdown()
                status, _, body = await task
                return status, body

        status, body = run_async(scenario())
        assert status == 200
        assert body["admitted"] is True
