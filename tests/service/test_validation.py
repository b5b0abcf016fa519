"""Structured request validation: every malformed field, no tracebacks."""

import math

import pytest

from repro._util.validation import as_finite_float, as_int
from repro.service.handlers import AdmissionService, ServiceConfig
from repro.service.validation import (
    MAX_PROCESSORS,
    MAX_TASKS,
    RequestValidationError,
    parse_admit_request,
    parse_taskset_payload,
)

pytestmark = pytest.mark.service


class TestCoercions:
    def test_finite_float_accepts_numbers(self):
        assert as_finite_float("x", 3) == 3.0
        assert as_finite_float("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [True, False, None, "abc", [], {},
                                     float("nan"), float("inf")])
    def test_finite_float_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be"):
            as_finite_float("x", bad)

    def test_int_accepts_integral_float(self):
        assert as_int("m", 4.0) == 4

    @pytest.mark.parametrize("bad", [True, 4.5, "4", None])
    def test_int_rejects(self, bad):
        with pytest.raises(ValueError, match="m must be"):
            as_int("m", bad)

    def test_int_range(self):
        with pytest.raises(ValueError, match=">= 1"):
            as_int("m", 0, low=1)


class TestTasksetPayload:
    def test_pairs_and_dicts(self):
        ts = parse_taskset_payload([[1, 4], {"cost": 2, "period": 8, "name": "b"}])
        assert len(ts) == 2
        assert ts.total_utilization == pytest.approx(0.5)

    @pytest.mark.parametrize("rows,field", [
        ([[-1, 4]], "tasks[0].cost"),              # negative cost
        ([[0, 4]], "tasks[0].cost"),               # zero cost
        ([[5, 4]], "tasks[0]"),                    # cost > period
        ([[1, -4]], "tasks[0].period"),            # negative period
        ([[1, "x"]], "tasks[0].period"),           # non-numeric
        ([{"cost": True, "period": 4}], "tasks[0].cost"),   # boolean
        ([{"period": 4}], "tasks[0].cost"),        # missing field
        ([[1, 2, 3]], "tasks[0]"),                 # wrong arity
        ("nope", "tasks"),                         # not a list
        ([], "tasks"),                             # empty
    ])
    def test_rejections_name_the_field(self, rows, field):
        with pytest.raises(RequestValidationError) as exc_info:
            parse_taskset_payload(rows)
        fields = [e["field"] for e in exc_info.value.errors]
        assert field in fields

    def test_nan_rejected(self):
        with pytest.raises(RequestValidationError):
            parse_taskset_payload([[math.nan, 4]])

    def test_all_errors_collected(self):
        with pytest.raises(RequestValidationError) as exc_info:
            parse_taskset_payload([[-1, 4], [1, 4], [9, 4]])
        fields = [e["field"] for e in exc_info.value.errors]
        assert fields == ["tasks[0].cost", "tasks[2]"]

    def test_one_line_summary(self):
        with pytest.raises(RequestValidationError) as exc_info:
            parse_taskset_payload([[-1, 4], [9, 4]])
        message = str(exc_info.value)
        assert "\n" not in message
        assert "+1 more" in message

    def test_task_limit(self):
        rows = [[1, 4]] * (MAX_TASKS + 1)
        with pytest.raises(RequestValidationError, match="too many tasks"):
            parse_taskset_payload(rows)


class TestAdmitRequest:
    def test_happy_path(self):
        req = parse_admit_request(
            {"tasks": [[1, 4]], "processors": 2, "algorithm": "spa2"}
        )
        assert req.processors == 2
        assert req.algorithm == "spa2"
        assert len(req.taskset) == 1

    def test_algorithm_defaults_to_rmts(self):
        req = parse_admit_request({"tasks": [[1, 4]], "processors": 1})
        assert req.algorithm == "rmts"

    def test_unknown_algorithm(self):
        with pytest.raises(RequestValidationError, match="unknown algorithm"):
            parse_admit_request(
                {"tasks": [[1, 4]], "processors": 1, "algorithm": "zap"}
            )

    @pytest.mark.parametrize("m", [None, 0, -1, 2.5, "four", True])
    def test_bad_processors(self, m):
        payload = {"tasks": [[1, 4]], "algorithm": "rmts"}
        if m is not None:
            payload["processors"] = m
        with pytest.raises(RequestValidationError) as exc_info:
            parse_admit_request(payload)
        assert any(e["field"] == "processors" for e in exc_info.value.errors)

    def test_processor_limit(self):
        payload = {"tasks": [[1, 4]], "processors": MAX_PROCESSORS + 1}
        with pytest.raises(RequestValidationError, match="<= 4096"):
            parse_admit_request(payload)

    def test_non_object_body(self):
        with pytest.raises(RequestValidationError):
            parse_admit_request([1, 2, 3])

    def test_errors_from_all_sections_combined(self):
        with pytest.raises(RequestValidationError) as exc_info:
            parse_admit_request(
                {"tasks": [[-1, 4]], "processors": 0, "algorithm": "zap"}
            )
        fields = {e["field"] for e in exc_info.value.errors}
        assert {"algorithm", "processors", "tasks[0].cost"} <= fields

    def test_payload_shape_is_stable(self):
        with pytest.raises(RequestValidationError) as exc_info:
            parse_admit_request({})
        payload = exc_info.value.to_payload()
        assert payload["error"] == "validation"
        assert all(set(d) == {"field", "message"} for d in payload["details"])


class TestBoundsRequest:
    @pytest.mark.parametrize("extra,expected", [
        ({}, 0), ({"processors": MAX_PROCESSORS}, MAX_PROCESSORS),
    ])
    def test_good_processors(self, extra, expected):
        request, _ = AdmissionService().prepare_bounds(
            {"tasks": [[1, 4]], **extra}
        )
        assert request.processors == expected

    @pytest.mark.parametrize("m", [0, -1, 2.5, True, MAX_PROCESSORS + 1,
                                   10**30])
    def test_bad_processors(self, m):
        with pytest.raises(RequestValidationError) as exc_info:
            AdmissionService().prepare_bounds(
                {"tasks": [[1, 4]], "processors": m}
            )
        assert [e["field"] for e in exc_info.value.errors] == ["processors"]


class TestServiceConfig:
    """Settings that would degrade, shed or reject every request are
    refused when the configuration is built."""

    @pytest.mark.parametrize("field, value", [
        ("analysis_timeout", float("nan")),
        ("analysis_timeout", float("inf")),
        ("analysis_timeout", 0.0),
        ("analysis_timeout", -1.0),
        ("queue_limit", 0),
        ("queue_limit", -3),
        ("max_batch", 0),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_smallest_working_values_accepted(self):
        config = ServiceConfig(analysis_timeout=1e-3, queue_limit=1, max_batch=1)
        assert (config.queue_limit, config.max_batch) == (1, 1)
