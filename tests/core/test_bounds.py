"""Unit and property tests for the parametric utilization bound library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import (
    ALL_BOUNDS,
    ConstantBound,
    HarmonicChainBound,
    LiuLaylandBound,
    RBound,
    TBound,
    best_bound_value,
    harmonic_chain_count,
    harmonic_chains,
    light_task_threshold,
    ll_bound,
    rmts_bound_cap,
    scaled_periods,
    theoretical_limits,
)
from repro.core.task import Task, TaskSet
from repro.taskgen.periods import harmonic_periods, k_chain_periods

from tests.conftest import taskset_strategy


class TestLLBound:
    def test_single_task(self):
        assert ll_bound(1) == pytest.approx(1.0)

    def test_two_tasks(self):
        assert ll_bound(2) == pytest.approx(2 * (math.sqrt(2) - 1))

    def test_three_tasks_is_77_98(self):
        assert ll_bound(3) == pytest.approx(0.7798, abs=1e-4)

    def test_limit_is_ln2(self):
        assert ll_bound(10**7) == pytest.approx(math.log(2), abs=1e-6)

    def test_empty(self):
        assert ll_bound(0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ll_bound(-1)

    @given(st.integers(min_value=1, max_value=500))
    def test_monotone_decreasing(self, n):
        assert ll_bound(n + 1) <= ll_bound(n) + 1e-12


class TestThresholds:
    def test_light_threshold_limit(self):
        # Theta/(1+Theta) -> ln2/(1+ln2) ~ 40.94 %
        assert light_task_threshold(10**6) == pytest.approx(0.4094, abs=1e-3)

    def test_cap_limit(self):
        # 2 Theta/(1+Theta) -> 81.88 %
        assert rmts_bound_cap(10**6) == pytest.approx(0.8188, abs=1e-3)

    def test_cap_is_twice_threshold(self):
        for n in (1, 2, 5, 100):
            assert rmts_bound_cap(n) == pytest.approx(
                2 * light_task_threshold(n)
            )

    def test_theoretical_limits_dict(self):
        limits = theoretical_limits()
        assert limits["ll"] == pytest.approx(math.log(2))
        assert limits["rmts_cap"] == pytest.approx(
            2 * math.log(2) / (1 + math.log(2))
        )


class TestScaledPeriods:
    def test_all_in_factor_two_band(self):
        sp = scaled_periods([10, 25, 70, 400])
        assert max(sp) / min(sp) < 2.0 + 1e-9
        assert max(sp) == pytest.approx(400.0)

    def test_power_of_two_harmonic_collapses(self):
        sp = scaled_periods([5, 10, 20, 40])
        assert np.allclose(sp, 40.0)

    def test_sorted_ascending(self):
        sp = scaled_periods([100, 30, 55])
        assert list(sp) == sorted(sp)

    def test_empty(self):
        assert scaled_periods([]) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_periods([1.0, 0.0])


class TestHarmonicChains:
    def test_single_chain(self):
        chains = harmonic_chains([4, 8, 16, 32])
        assert len(chains) == 1
        assert sorted(chains[0]) == [0, 1, 2, 3]

    def test_two_chains(self):
        # {4, 8} and {6, 18} are harmonic internally, not across.
        assert harmonic_chain_count([4, 8, 6, 18]) == 2

    def test_equal_periods_chain_together(self):
        assert harmonic_chain_count([5, 5, 5]) == 1

    def test_pairwise_incomparable(self):
        assert harmonic_chain_count([5, 7, 11]) == 3

    def test_empty(self):
        assert harmonic_chain_count([]) == 0
        assert harmonic_chains([]) == []

    def test_chains_partition_indices(self):
        periods = [4, 6, 8, 12, 9, 27]
        chains = harmonic_chains(periods)
        flat = sorted(i for c in chains for i in c)
        assert flat == list(range(len(periods)))

    def test_chains_internally_harmonic(self):
        periods = [4, 6, 8, 12, 9, 27, 16, 18]
        for chain in harmonic_chains(periods):
            vals = sorted(periods[i] for i in chain)
            for a, b in zip(vals, vals[1:]):
                assert b % a == 0 or b == a

    def test_minimality_vs_bruteforce_small(self):
        # Dilworth: min chains = max antichain; {4,6,9} has antichain {4,6,9}
        assert harmonic_chain_count([4, 6, 9, 12, 36]) <= 3

    @given(st.integers(min_value=1, max_value=5), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_k_chain_counts(self, k, seed):
        rng = np.random.default_rng(seed)
        periods = k_chain_periods(k + 4, k, rng)
        assert harmonic_chain_count(periods) == k

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_harmonic_counts_one(self, seed):
        rng = np.random.default_rng(seed)
        periods = harmonic_periods(8, rng)
        assert harmonic_chain_count(periods) == 1


def _brute_force_chain_cover(periods):
    """Fewest chains of pairwise-dividing integer periods, by search."""
    best = [len(periods)]

    def place(i, chains):
        if len(chains) >= best[0]:
            return
        if i == len(periods):
            best[0] = len(chains)
            return
        p = periods[i]
        for chain in chains:
            if all(p % q == 0 or q % p == 0 for q in chain):
                chain.append(p)
                place(i + 1, chains)
                chain.pop()
        chains.append([p])
        place(i + 1, chains)
        chains.pop()

    place(0, [])
    return best[0]


#: Harmonic-rich period strategy: small divisor-dense integers.
_rich_periods = st.lists(
    st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27, 36, 48]),
    min_size=1,
    max_size=8,
)


class TestChainCoverOracle:
    @given(_rich_periods)
    @settings(max_examples=200, deadline=None)
    def test_count_matches_brute_force(self, periods):
        assert harmonic_chain_count(periods) == _brute_force_chain_cover(
            periods
        )

    @given(_rich_periods)
    @settings(max_examples=200, deadline=None)
    def test_chains_partition_into_harmonic_chains(self, periods):
        chains = harmonic_chains(periods)
        flat = sorted(i for chain in chains for i in chain)
        assert flat == list(range(len(periods)))
        for chain in chains:
            vals = sorted(periods[i] for i in chain)
            for a, b in zip(vals, vals[1:]):
                assert b % a == 0

    def test_1024_harmonic_tasks_do_not_recurse(self):
        from repro.service.handlers import compute_bounds_body

        ts = TaskSet.from_pairs(
            [(0.001, float(2 ** (i % 11))) for i in range(1024)]
        )
        body = compute_bounds_body(ts, 4)
        assert body["harmonic_chains"] == 1
        assert body["bounds"]["HC"]["value"] == 1.0


class TestBoundObjects:
    def test_ll_bound_object(self, general_set):
        assert LiuLaylandBound().value(general_set) == pytest.approx(
            ll_bound(len(general_set))
        )

    def test_hc_bound_harmonic_is_one(self, harmonic_set):
        assert HarmonicChainBound().value(harmonic_set) == pytest.approx(1.0)

    def test_tbound_harmonic_power2_is_one(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 8), (1, 16)])
        assert TBound().value(ts) == pytest.approx(1.0)

    def test_rbound_harmonic_power2_is_one(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 8), (1, 16)])
        assert RBound().value(ts) == pytest.approx(1.0)

    def test_rbound_two_task_worst_case(self):
        # r = sqrt(2) minimizes the 2-task R-bound at 2(sqrt(2)-1).
        ts = TaskSet.from_pairs([(0.1, 1.0), (0.1, math.sqrt(2))])
        assert RBound().value(ts) == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-9)

    def test_constant_bound(self):
        ts = TaskSet.from_pairs([(1, 4)])
        assert ConstantBound(0.9).value(ts) == 0.9

    def test_constant_bound_validates(self):
        with pytest.raises(ValueError):
            ConstantBound(0.0)
        with pytest.raises(ValueError):
            ConstantBound(1.5)

    def test_capped_value(self, harmonic_set):
        hc = HarmonicChainBound()
        assert hc.capped_value(harmonic_set) == pytest.approx(
            rmts_bound_cap(len(harmonic_set))
        )

    def test_best_bound_value(self, harmonic_set):
        assert best_bound_value(harmonic_set) == pytest.approx(1.0)

    def test_best_bound_empty_menu_rejected(self, harmonic_set):
        with pytest.raises(ValueError):
            best_bound_value(harmonic_set, [])

    def test_empty_set_values(self):
        empty = TaskSet([])
        for bound in ALL_BOUNDS:
            assert bound.value(empty) == pytest.approx(1.0)


class TestBoundProperties:
    @given(taskset_strategy(min_tasks=1, max_tasks=10))
    @settings(max_examples=50, deadline=None)
    def test_ordering_tbound_rbound_ll(self, ts):
        """More period information never hurts: T >= R >= Theta(N)."""
        t = TBound().value(ts)
        r = RBound().value(ts)
        theta = ll_bound(len(ts))
        assert t >= r - 1e-9
        assert r >= theta - 1e-9

    @given(taskset_strategy(min_tasks=1, max_tasks=10))
    @settings(max_examples=50, deadline=None)
    def test_all_bounds_in_unit_range(self, ts):
        for bound in ALL_BOUNDS:
            v = bound.value(ts)
            assert 0.0 < v <= 1.0 + 1e-9

    @given(taskset_strategy(min_tasks=2, max_tasks=8))
    @settings(max_examples=30, deadline=None)
    def test_bounds_depend_only_on_periods(self, ts):
        """Deflating costs never changes the bound value (Lemma 1 basis)."""
        deflated = ts.scaled_costs(0.5)
        for bound in ALL_BOUNDS:
            assert bound.value(ts) == pytest.approx(bound.value(deflated))

    @given(taskset_strategy(min_tasks=1, max_tasks=8))
    @settings(max_examples=30, deadline=None)
    def test_hc_bound_ge_ll(self, ts):
        assert HarmonicChainBound().value(ts) >= ll_bound(len(ts)) - 1e-9
