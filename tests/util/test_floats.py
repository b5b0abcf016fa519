"""Unit tests for the shared float-comparison policy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util.floats import (
    EPS,
    approx_ge,
    approx_gt,
    approx_le,
    approx_lt,
    is_close,
    is_integer_multiple,
    pairwise_sum,
    safe_ceil,
)


class TestIsClose:
    def test_equal_values(self):
        assert is_close(1.0, 1.0)

    def test_within_absolute_tolerance(self):
        assert is_close(0.0, EPS / 2)

    def test_within_relative_tolerance(self):
        assert is_close(1e12, 1e12 * (1 + 1e-10))

    def test_clearly_different(self):
        assert not is_close(1.0, 1.001)

    def test_sign_matters(self):
        assert not is_close(1.0, -1.0)


class TestApproxComparisons:
    def test_le_strict(self):
        assert approx_le(1.0, 2.0)

    def test_le_boundary(self):
        assert approx_le(1.0 + EPS / 2, 1.0)

    def test_le_violated(self):
        assert not approx_le(1.01, 1.0)

    def test_ge_strict(self):
        assert approx_ge(2.0, 1.0)

    def test_ge_boundary(self):
        assert approx_ge(1.0 - EPS / 2, 1.0)

    def test_lt_excludes_boundary(self):
        assert not approx_lt(1.0 - EPS / 2, 1.0)

    def test_lt_holds_when_clearly_less(self):
        assert approx_lt(0.9, 1.0)

    def test_gt_excludes_boundary(self):
        assert not approx_gt(1.0 + EPS / 2, 1.0)

    def test_gt_holds_when_clearly_greater(self):
        assert approx_gt(1.1, 1.0)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_le_and_gt_partition_the_line(self, x):
        assert approx_le(x, 0.0) != approx_gt(x, 0.0)


class TestIsIntegerMultiple:
    def test_exact_multiple(self):
        assert is_integer_multiple(4.0, 12.0)

    def test_equal_periods(self):
        assert is_integer_multiple(5.0, 5.0)

    def test_non_multiple(self):
        assert not is_integer_multiple(4.0, 10.0)

    def test_smaller_than_divisor(self):
        assert not is_integer_multiple(10.0, 4.0)

    def test_float_noise_tolerated(self):
        base = 0.1
        assert is_integer_multiple(base, base * 3 * (1 + 1e-9))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_integer_multiple(0.0, 1.0)
        with pytest.raises(ValueError):
            is_integer_multiple(1.0, -1.0)

    @given(
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        st.integers(min_value=1, max_value=50),
    )
    def test_constructed_multiples_always_pass(self, base, k):
        assert is_integer_multiple(base, base * k)


class TestSafeCeil:
    def test_plain_ceiling(self):
        assert safe_ceil(2.3) == 3

    def test_integer_input(self):
        assert safe_ceil(4.0) == 4

    def test_epsilon_above_integer_rounds_down(self):
        assert safe_ceil(3.0 + 1e-12) == 3

    def test_clearly_above_integer_rounds_up(self):
        assert safe_ceil(3.01) == 4

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_never_below_floor(self, x):
        assert safe_ceil(x) >= math.floor(x)


class TestPairwiseSum:
    """``pairwise_sum`` must equal ``np.sum`` bit for bit, in every regime
    numpy's reduction has: left-to-right below 8 terms, eight interleaved
    lanes up to 128, recursive halving above."""

    @pytest.mark.parametrize("n", range(0, 201))
    def test_matches_numpy_sum_for_every_length(self, n):
        rng = np.random.default_rng(n)
        # Mixed magnitudes make every reordering visible in the last ulp.
        xs = (rng.random(n) * 10.0 ** rng.uniform(-9, 9, size=n)).tolist()
        assert pairwise_sum(xs) == float(np.sum(np.array(xs)))

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 127, 128, 129, 200])
    def test_matches_numpy_sum_on_utilization_like_values(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(50):
            costs = rng.uniform(0.01, 5.0, size=n)
            periods = rng.uniform(4.0, 400.0, size=n)
            ratios = costs / periods
            assert pairwise_sum(ratios.tolist()) == float(ratios.sum())

    def test_plain_running_sum_would_differ(self):
        """The replica is needed: a left-to-right sum disagrees with
        ``np.sum`` on some inputs of 8 or more terms."""
        rng = np.random.default_rng(7)
        differs = 0
        for _ in range(200):
            xs = (rng.random(24) * 10.0 ** rng.uniform(-6, 6, size=24)).tolist()
            running = 0.0
            for x in xs:
                running += x
            differs += running != float(np.sum(np.array(xs)))
        assert differs > 0
