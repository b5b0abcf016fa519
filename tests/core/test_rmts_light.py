"""Unit, integration and property tests for RM-TS/light (Section IV)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import (
    HarmonicChainBound,
    light_task_threshold,
    ll_bound,
)
from repro.core.rmts_light import is_light_task_set, partition_rmts_light
from repro.core.task import SubtaskKind, Task, TaskSet
from repro.taskgen.generators import TaskSetGenerator


class TestIsLightTaskSet:
    def test_light_set(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8), (3, 12)])  # max U = 0.25
        assert is_light_task_set(ts)

    def test_heavy_task_detected(self):
        ts = TaskSet.from_pairs([(3, 4), (1, 8)])
        assert not is_light_task_set(ts)

    def test_threshold_uses_set_size(self):
        # U = 0.42 is heavy for large N (threshold -> 0.409) but light for
        # N=1 (threshold = 0.5).
        single = TaskSet.from_pairs([(4.2, 10)])
        assert is_light_task_set(single)


class TestBasicPartitioning:
    def test_trivial_fits_one_processor(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 8)])
        result = partition_rmts_light(ts, 1)
        assert result.success
        assert result.validate() == []

    def test_needs_more_than_capacity_fails(self):
        ts = TaskSet.from_pairs([(3, 4), (3, 4), (3, 4)])  # U = 2.25
        result = partition_rmts_light(ts, 2)
        assert not result.success
        assert result.unassigned_tids

    def test_split_occurs_when_needed(self, tight_harmonic_set):
        result = partition_rmts_light(tight_harmonic_set, 2)
        assert result.success
        assert result.validate() == []

    def test_rejects_zero_processors(self, harmonic_set):
        with pytest.raises(ValueError):
            partition_rmts_light(harmonic_set, 0)

    def test_algorithm_label(self, harmonic_set):
        result = partition_rmts_light(harmonic_set, 2)
        assert result.algorithm.startswith("RM-TS/light")

    def test_info_fields(self, harmonic_set):
        result = partition_rmts_light(harmonic_set, 2)
        assert "light" in result.info
        assert result.info["assignment_order"] == "increasing"


class TestAssignmentOrderInvariants:
    def test_bodies_highest_priority_on_host(self):
        """Lemma 2: with increasing-priority assignment, every body subtask
        has the highest priority on its host processor."""
        gen = TaskSetGenerator(n=12, period_model="loguniform").light()
        for seed in range(8):
            ts = gen.generate(u_norm=0.92, processors=4, seed=seed)
            result = partition_rmts_light(ts, 4)
            if not result.success:
                continue
            for proc in result.processors:
                for body in proc.body_subtasks():
                    top = proc.highest_priority_subtask()
                    assert top == body

    def test_at_most_one_body_per_processor(self):
        gen = TaskSetGenerator(n=16, period_model="loguniform").light()
        for seed in range(8):
            ts = gen.generate(u_norm=0.95, processors=4, seed=seed)
            result = partition_rmts_light(ts, 4)
            for proc in result.processors:
                assert len(proc.body_subtasks()) <= 1

    def test_full_processors_only_after_split_or_exhaustion(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 8)])
        result = partition_rmts_light(ts, 4)
        assert all(not p.full for p in result.processors)


class TestUtilizationBoundTheorem:
    """Theorem 8: light sets with U_M <= Lambda(tau) always partition."""

    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_light_harmonic_sets_at_full_utilization(self, seed):
        m = 2
        n = 8
        gen = TaskSetGenerator(n=n, period_model="harmonic", tmin=8.0).light()
        ts = gen.generate(u_norm=1.0, processors=m, seed=seed)
        assert is_light_task_set(ts)
        assert HarmonicChainBound().value(ts) == pytest.approx(1.0)
        result = partition_rmts_light(ts, m)
        assert result.success, "Theorem 8 violated (Lambda = 100%)"
        assert result.validate() == []

    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_light_general_sets_at_ll_bound(self, seed):
        m = 2
        n = 8
        gen = TaskSetGenerator(n=n, period_model="loguniform").light()
        ts = gen.generate(u_norm=ll_bound(n), processors=m, seed=seed)
        result = partition_rmts_light(ts, m)
        assert result.success, "Theorem 8 violated (Lambda = Theta(N))"


class TestFailureAccounting:
    def test_failure_reports_unassigned_and_full(self):
        # Light per-task but far too much total utilization.
        ts = TaskSet.from_pairs([(2, 8)] * 12)  # U = 3.0 on 2 procs
        result = partition_rmts_light(ts, 2)
        assert not result.success
        assert all(p.full for p in result.processors)
        # the assigned utilization should be near capacity of 2 processors
        assert result.total_assigned_utilization > 1.8

    def test_failed_partition_processors_still_schedulable(self):
        ts = TaskSet.from_pairs([(2, 8)] * 12)
        result = partition_rmts_light(ts, 2)
        for proc in result.processors:
            assert proc.is_schedulable()


class TestAblationKnobs:
    def test_unknown_order_rejected(self, harmonic_set):
        with pytest.raises(ValueError):
            partition_rmts_light(harmonic_set, 2, assignment_order="sideways")

    def test_unknown_placement_rejected(self, harmonic_set):
        with pytest.raises(ValueError):
            partition_rmts_light(harmonic_set, 2, placement="random")

    def test_decreasing_order_runs(self, harmonic_set):
        result = partition_rmts_light(
            harmonic_set, 2, assignment_order="decreasing"
        )
        assert result.info["assignment_order"] == "decreasing"

    def test_first_fit_concentrates_load(self):
        ts = TaskSet.from_pairs([(1, 10), (1, 12), (1, 14)])
        wf = partition_rmts_light(ts, 3, placement="worst_fit")
        ff = partition_rmts_light(ts, 3, placement="first_fit")
        wf_loads = sorted(p.utilization for p in wf.processors)
        ff_loads = sorted(p.utilization for p in ff.processors)
        assert max(ff_loads) >= max(wf_loads)
        # worst-fit spreads: every processor gets one task
        assert all(u > 0 for u in wf_loads)


class TestRandomizedValidation:
    @given(st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_partitions_always_validate(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 4 * m))
        gen = TaskSetGenerator(n=n, period_model="loguniform")
        ts = gen.generate(
            u_norm=float(rng.uniform(0.4, 1.0)), processors=m, seed=rng
        )
        result = partition_rmts_light(ts, m)
        if result.success:
            assert result.validate() == []
