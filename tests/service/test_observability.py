"""Service ↔ observability integration: the /metrics exposition."""

import pytest

from repro.obs import metrics, use_metrics
from tests.obs.test_prometheus import parse_exposition
from tests.service.conftest import http_request, run_async, running_server

pytestmark = [pytest.mark.service, pytest.mark.obs]


def test_metrics_default_stays_json(tasks_payload):
    async def scenario():
        async with running_server() as server:
            status, headers, body = await http_request(
                server.port, "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert "uptime_seconds" in body

    run_async(scenario())


def test_prometheus_exposition_is_parseable(tasks_payload):
    async def scenario():
        async with running_server() as server:
            # generate some traffic first so labeled series exist
            await http_request(
                server.port, "POST", "/v1/admit",
                {"tasks": tasks_payload, "processors": 2},
            )
            await http_request(server.port, "GET", "/healthz")
            status, headers, text = await http_request(
                server.port, "GET", "/metrics?format=prometheus", raw=True
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert "version=0.0.4" in headers["content-type"]
            samples, types = parse_exposition(text)
            assert types["repro_events_total"] == "counter"
            assert types["repro_inflight"] == "gauge"
            endpoints = {
                labels["endpoint"]
                for name, labels, _ in samples
                if name == "repro_http_requests"
            }
            assert "POST /v1/admit" in endpoints
            assert "GET /healthz" in endpoints
            statuses = {
                labels["status"]
                for name, labels, _ in samples
                if name == "repro_http_responses"
            }
            assert "200" in statuses

    run_async(scenario())


def test_query_string_does_not_break_routing():
    async def scenario():
        async with running_server() as server:
            status, _, body = await http_request(
                server.port, "GET", "/healthz?probe=1"
            )
            assert status == 200 and body["status"] == "ok"
            status, _, body = await http_request(
                server.port, "GET", "/metrics?format=json"
            )
            assert status == 200 and "uptime_seconds" in body
            status, _, _ = await http_request(
                server.port, "GET", "/nope?x=1"
            )
            assert status == 404

    run_async(scenario())


def test_prometheus_histograms_fill_while_metrics_armed(tasks_payload):
    async def scenario():
        async with running_server() as server:
            # the harmonic set is pre-accepted; the second one runs RTA
            for tasks in (tasks_payload, [[3, 5], [3, 7], [4, 9], [5, 11]]):
                await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks, "processors": 2},
                )
            _, _, text = await http_request(
                server.port, "GET", "/metrics?format=prometheus", raw=True
            )
            return text

    metrics.reset()
    with use_metrics(True):
        text = run_async(scenario())
    samples, _ = parse_exposition(text)
    by_name = {name for name, _, _ in samples}
    assert "repro_http_request_seconds_count" in by_name
    counts = {
        name: value for name, labels, value in samples
        if name.endswith("_count")
    }
    assert int(counts["repro_http_request_seconds_count"]) >= 1
    assert int(counts["repro_admit_latency_seconds_count"]) >= 1
    assert int(counts["repro_rta_iterations_count"]) >= 1
    metrics.reset()
