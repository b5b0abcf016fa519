"""Tests for the baseline algorithms: SPA1/SPA2, strict partitioned RM,
global RM-US and the Dhall construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines.global_rm import (
    dhall_taskset,
    rm_us_priority_order,
    rm_us_schedulable,
    rm_us_threshold,
    rm_us_utilization_bound,
)
from repro.core.baselines.partitioned import FitHeuristic, partition_no_split
from repro.core.baselines.spa import partition_spa1, partition_spa2
from repro.core.bounds import ll_bound
from repro.core.task import TaskSet
from repro.taskgen.generators import TaskSetGenerator


class TestSPA1:
    def test_accepts_below_ll_bound(self):
        gen = TaskSetGenerator(n=8, period_model="loguniform").light()
        for seed in range(6):
            ts = gen.generate(u_norm=ll_bound(8) - 0.02, processors=2, seed=seed)
            assert partition_spa1(ts, 2).success

    def test_never_accepts_above_threshold_capacity(self):
        """Total capacity under SPA1 is M * Theta(N) — hard ceiling."""
        gen = TaskSetGenerator(n=8, period_model="loguniform").light()
        for seed in range(6):
            ts = gen.generate(u_norm=ll_bound(8) + 0.05, processors=2, seed=seed)
            assert not partition_spa1(ts, 2).success

    def test_processor_utilization_capped_at_theta(self):
        gen = TaskSetGenerator(n=10, period_model="loguniform").light()
        theta = ll_bound(10)
        ts = gen.generate(u_norm=theta - 0.01, processors=2, seed=3)
        result = partition_spa1(ts, 2)
        for proc in result.processors:
            assert proc.utilization <= theta + 1e-9

    def test_label(self, harmonic_set):
        assert partition_spa1(harmonic_set, 2).algorithm.startswith("SPA1")


class TestSPA2:
    def test_accepts_below_ll_bound_general_sets(self):
        gen = TaskSetGenerator(n=8, period_model="loguniform")
        for seed in range(6):
            ts = gen.generate(u_norm=ll_bound(8) - 0.02, processors=2, seed=seed)
            assert partition_spa2(ts, 2).success, f"seed {seed}"

    def test_heavy_tasks_handled(self):
        ts = TaskSet.from_pairs([(6, 10), (1, 20), (1, 40)])
        result = partition_spa2(ts, 2)
        assert result.success

    def test_valid_partitions(self):
        gen = TaskSetGenerator(n=8, period_model="loguniform")
        for seed in range(6):
            ts = gen.generate(u_norm=0.65, processors=2, seed=seed)
            result = partition_spa2(ts, 2)
            if result.success:
                assert result.validate() == []

    def test_label(self, harmonic_set):
        assert partition_spa2(harmonic_set, 2).algorithm.startswith("SPA2")


class TestPartitionedNoSplit:
    def test_first_fit_simple(self, harmonic_set):
        result = partition_no_split(harmonic_set, 2)
        assert result.success
        assert result.validate() == []
        assert not result.split_tids()

    def test_heuristics_all_work(self, harmonic_set):
        for h in FitHeuristic:
            result = partition_no_split(harmonic_set, 2, heuristic=h)
            assert result.success, h

    def test_ll_admission_weaker_than_rta(self):
        gen = TaskSetGenerator(n=8, period_model="loguniform")
        for seed in range(8):
            ts = gen.generate(u_norm=0.7, processors=2, seed=seed)
            ll_ok = partition_no_split(ts, 2, admission="ll").success
            rta_ok = partition_no_split(ts, 2, admission="rta").success
            if ll_ok:
                assert rta_ok

    def test_unknown_admission_rejected(self, harmonic_set):
        with pytest.raises(ValueError):
            partition_no_split(harmonic_set, 2, admission="vibes")

    @pytest.mark.parametrize("heuristic", list(FitHeuristic))
    def test_unknown_admission_rejected_before_any_probe(self, heuristic):
        # With no task to place, no probe would ever check the mode.
        with pytest.raises(ValueError, match="unknown admission test"):
            partition_no_split(TaskSet([]), 2, heuristic=heuristic,
                               admission="bogus")

    def test_cannot_place_heavy_overload(self):
        ts = TaskSet.from_pairs([(9, 10), (9, 10), (9, 10)])
        result = partition_no_split(ts, 2)
        assert not result.success
        assert len(result.unassigned_tids) == 1

    def test_worst_fit_spreads_load(self):
        ts = TaskSet.from_pairs([(1, 10), (1, 10), (1, 10), (1, 10)])
        result = partition_no_split(
            ts, 4, heuristic=FitHeuristic.WORST_FIT
        )
        assert all(len(p.subtasks) == 1 for p in result.processors)

    def test_best_fit_concentrates_load(self):
        ts = TaskSet.from_pairs([(1, 10), (1, 12), (1, 14), (1, 16)])
        result = partition_no_split(ts, 4, heuristic=FitHeuristic.BEST_FIT)
        used = [p for p in result.processors if p.subtasks]
        assert len(used) == 1

    def test_priority_order_mode(self, harmonic_set):
        result = partition_no_split(
            harmonic_set, 2, decreasing_utilization=False
        )
        assert result.success

    def test_rejects_zero_processors(self, harmonic_set):
        with pytest.raises(ValueError):
            partition_no_split(harmonic_set, 0)


class TestRMUS:
    def test_threshold_values(self):
        assert rm_us_threshold(1) == pytest.approx(1.0)
        assert rm_us_threshold(4) == pytest.approx(0.4)

    def test_bound_values(self):
        assert rm_us_utilization_bound(1) == pytest.approx(1.0)
        assert rm_us_utilization_bound(4) == pytest.approx(1.6)

    def test_schedulable_test(self):
        ts = TaskSet.from_pairs([(1, 10)] * 4)  # U = 0.4
        assert rm_us_schedulable(ts, 4)
        heavy = TaskSet.from_pairs([(5, 10)] * 8)  # U = 4.0 > 1.6
        assert not rm_us_schedulable(heavy, 4)

    def test_priority_order_promotes_heavy(self):
        ts = TaskSet.from_pairs([(1, 2), (9, 10)])  # U: 0.5, 0.9; zeta(2)=0.5
        order = rm_us_priority_order(ts, 2)
        heavy_tid = max(ts, key=lambda t: t.utilization).tid
        assert order[0] == heavy_tid

    def test_priority_order_is_permutation(self):
        gen = TaskSetGenerator(n=7, period_model="loguniform")
        ts = gen.generate(u_norm=0.5, processors=2, seed=0)
        order = rm_us_priority_order(ts, 2)
        assert sorted(order) == [t.tid for t in ts]

    def test_rejects_bad_processors(self):
        with pytest.raises(ValueError):
            rm_us_utilization_bound(0)


class TestDhallTaskset:
    def test_structure(self):
        ts = dhall_taskset(4, 0.05)
        assert len(ts) == 5
        # the long task has the longest period -> lowest RM priority
        assert ts[-1].cost == pytest.approx(1.0)
        assert ts[-1].period == pytest.approx(1.05)

    def test_utilization_shrinks_with_epsilon(self):
        big = dhall_taskset(4, 0.2).normalized_utilization(4)
        small = dhall_taskset(4, 0.001).normalized_utilization(4)
        assert small < big

    def test_validates_epsilon(self):
        with pytest.raises(ValueError):
            dhall_taskset(4, 0.0)
        with pytest.raises(ValueError):
            dhall_taskset(4, 0.7)

    def test_validates_processors(self):
        with pytest.raises(ValueError):
            dhall_taskset(0, 0.1)


class TestBaselineRelationships:
    @given(st.integers(0, 3_000))
    @settings(max_examples=20, deadline=None)
    def test_spa1_acceptance_implies_rmts_light_acceptance(self, seed):
        """Exact-RTA admission is strictly more permissive per processor,
        and both use the same ordering/placement, so SPA1 success must
        imply RM-TS/light success."""
        from repro.core.rmts_light import partition_rmts_light

        rng = np.random.default_rng(seed)
        gen = TaskSetGenerator(n=8, period_model="loguniform").light()
        ts = gen.generate(
            u_norm=float(rng.uniform(0.5, 0.75)), processors=2, seed=rng
        )
        if partition_spa1(ts, 2).success:
            assert partition_rmts_light(ts, 2).success
