"""The /metrics endpoint: JSON by default, Prometheus text on request."""

import re

import pytest

from repro.perf.telemetry import COUNTERS
from repro.service.server import _prom_sample, _Stats
from tests.service.conftest import http_request, run_async, running_server

pytestmark = pytest.mark.service

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def parse_exposition(text):
    """Parse the 0.0.4 text format into samples + per-family types.

    Returns ``(samples, types)`` where samples is a list of
    ``(name, labels_dict, value_str)`` and types maps family → TYPE.
    Raises AssertionError on any line that is neither a comment nor a
    well-formed sample — the test's definition of "valid exposition".
    """
    samples = []
    types = {}
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        labels = dict(
            (m.group("key"), m.group("value"))
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        )
        value = match.group("value")
        assert value == "+Inf" or float(value) is not None
        samples.append((match.group("name"), labels, value))
    return samples, types


def _series(samples, name):
    return [(labels, value) for n, labels, value in samples if n == name]


def _exposition_after_traffic(tasks_payload):
    """Serve a few requests, then render both /metrics bodies in-process
    with no request in between: ``(samples, types, json_body)``."""

    async def scenario():
        async with running_server() as server:
            for _ in range(3):
                await http_request(
                    server.port, "POST", "/v1/admit",
                    {"tasks": tasks_payload, "processors": 2},
                )
            await http_request(server.port, "GET", "/healthz")
            await http_request(server.port, "GET", "/nope")
            text = server.metrics_prometheus()
            return text, server.metrics_body({})

    text, body = run_async(scenario())
    samples, types = parse_exposition(text)
    return samples, types, body


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


def test_counters_become_one_labeled_family(tasks_payload):
    samples, types, _ = _exposition_after_traffic(tasks_payload)
    assert types["repro_events_total"] == "counter"
    events = {
        labels["event"]: int(value)
        for labels, value in _series(samples, "repro_events_total")
    }
    assert set(events) == set(COUNTERS.snapshot())
    assert events["svc_requests"] >= 5


def test_gauges_and_labeled_counters(tasks_payload):
    samples, types, body = _exposition_after_traffic(tasks_payload)
    for gauge in ("inflight", "uptime_seconds", "draining"):
        assert types[f"repro_{gauge}"] == "gauge"
    (_, inflight), = _series(samples, "repro_inflight")
    (_, draining), = _series(samples, "repro_draining")
    assert int(inflight) == 0 and int(draining) == 0
    assert types["repro_http_requests"] == "counter"
    requests = _series(samples, "repro_http_requests")
    assert ({"endpoint": "POST /v1/admit"}, "3") in requests
    assert ({"endpoint": "GET /healthz"}, "1") in requests
    assert ({"endpoint": "other"}, "1") in requests
    responses = {
        labels["status"]: value
        for labels, value in _series(samples, "repro_http_responses")
    }
    assert responses == {
        code: str(count) for code, count in body["requests"]["by_status"].items()
    }


def test_label_values_are_escaped():
    line = _prom_sample("weird", 1, k='a"b\\c\nd')
    assert line == 'repro_weird{k="a\\"b\\\\c\\nd"} 1'
    # the newline in the value must not break the physical line
    assert len(line.splitlines()) == 1


def test_latency_summary_is_the_json_latency_record(tasks_payload):
    samples, types, body = _exposition_after_traffic(tasks_payload)
    latency = body["latency_ms"]
    assert latency["count"] == 5
    assert types["repro_http_request_ms"] == "summary"
    quantiles = {
        labels["quantile"]: float(value)
        for labels, value in _series(samples, "repro_http_request_ms")
    }
    assert quantiles == {
        "0.5": latency["p50"], "0.9": latency["p90"], "0.99": latency["p99"],
    }
    (_, count), = _series(samples, "repro_http_request_ms_count")
    assert int(count) == latency["count"]


def test_latency_count_is_every_observation():
    """``count`` keeps growing past the 4096-sample percentile window, as
    a Prometheus ``_count`` must."""
    stats = _Stats()
    for i in range(5000):
        stats.record("admit", 200, i * 1e-6)
    latency = stats.latency_percentiles()
    assert latency["count"] == 5000 == stats.total
    assert len(stats.latencies_ms) == 4096
    assert latency["max"] == round(4999 * 1e-3, 4)
