"""SLO histogram bucketing: the bisected index equals the linear scan."""

import math

import pytest

from repro.cluster.simulator import (
    MIGRATION_BOUNDS,
    UTIL_BOUNDS,
    WAIT_BOUNDS,
    _bucket_index,
)

pytestmark = pytest.mark.churn


def _linear_bucket(bounds, value):
    """The reference: the first bound at or above *value*, else overflow
    (NaN compares false everywhere, so it overflows too)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def _probes(bounds):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values.append(math.nextafter(float(bounds[0]), -math.inf))
    values.append(float(bounds[0]) - 1.0)
    values.append(math.nextafter(float(bounds[-1]), math.inf))
    values.append(float(bounds[-1]) * 2.0 + 1.0)
    for bound in bounds:
        bound = float(bound)
        values.extend(
            (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
        )
    return values


@pytest.mark.parametrize(
    "bounds",
    [WAIT_BOUNDS, UTIL_BOUNDS, MIGRATION_BOUNDS],
    ids=["wait", "util", "migration"],
)
def test_bisect_equals_linear_scan(bounds):
    for value in _probes(bounds):
        assert _bucket_index(bounds, value) == _linear_bucket(bounds, value), value


def test_nan_goes_to_the_overflow_bucket():
    for bounds in (WAIT_BOUNDS, UTIL_BOUNDS, MIGRATION_BOUNDS):
        assert _bucket_index(bounds, math.nan) == len(bounds)
