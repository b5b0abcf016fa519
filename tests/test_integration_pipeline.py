"""End-to-end integration scenarios across the whole library.

Each test tells a complete user story: workload -> bounds -> partitioning
-> validation -> simulation -> sensitivity, exercising the public API the
way the examples do (but assertively).
"""

import math

import pytest

from repro import (
    HarmonicChainBound,
    TaskSet,
    best_bound_value,
    partition_rmts,
    partition_rmts_light,
)
from repro.analysis import (
    breakdown_utilization,
    critical_scaling_factor,
    overhead_tolerance,
    partition_scaling_factor,
)
from repro.core.bounds import harmonize_periods, rmts_bound_cap
from repro.core.serialization import partition_from_dict, partition_to_dict
from repro.sim import simulate_partition
from repro.taskgen import build_workload


def minimum_processors(test, taskset, max_processors=64):
    """Smallest M from ``ceil(U)`` up that *test* accepts, else None."""
    lower = max(1, math.ceil(taskset.total_utilization))
    return next(
        (m for m in range(lower, max_processors + 1) if test(taskset, m)), None
    )


class TestAvionicsStory:
    """Size a flight controller: bounds first, then exact, then margins."""

    def test_full_story(self):
        ts = build_workload("avionics", u_norm=0.7, processors=4, seed=0)

        # 1. instant design-time answer from the harmonic 100% bound
        lam = min(best_bound_value(ts), rmts_bound_cap(len(ts)))
        assert best_bound_value(ts) == pytest.approx(1.0)  # harmonic

        # 2. exact sizing: the bound promises ceil(U / lam) cores
        promised = minimum_processors(
            lambda t, m: t.normalized_utilization(m) <= lam, ts
        )
        exact = minimum_processors(
            lambda t, m: partition_rmts_light(t, m).success, ts
        )
        assert exact is not None and exact <= promised

        # 3. the chosen design validates, simulates, and has margin
        part = partition_rmts_light(ts, exact)
        assert part.validate() == []
        assert simulate_partition(part).ok
        assert partition_scaling_factor(part, tolerance=1e-4) >= 1.0 - 1e-6


class TestAutomotiveStory:
    """Non-harmonic industrial workload through RM-TS with pre-assignment."""

    def test_full_story(self):
        ts = build_workload("automotive", u_norm=0.8, processors=4, seed=7)
        part = partition_rmts(ts, 4, dedicate_over_bound=False)
        assert part.success
        assert part.validate() == []
        sim = simulate_partition(part, horizon=5000.0, record_trace=True)
        assert sim.ok
        assert sim.trace.check_all() == []
        # the design survives realistic preemption costs at this load
        tol = overhead_tolerance(part, horizon=5000.0, max_overhead=0.5,
                                 tolerance=5e-3)
        assert tol >= 0.0  # reported, possibly zero at tight packings


class TestHarmonizationStory:
    """Sr specialization turns a mediocre guarantee into 100%."""

    def test_full_story(self):
        periods = [10.0, 10.2, 20.4, 20.5, 40.8, 41.0, 80.0, 81.6]
        from repro.core.task import Task

        ts = TaskSet(Task(cost=0.2 * p, period=p) for p in periods)
        before = best_bound_value(ts)
        h = harmonize_periods(ts)
        after = HarmonicChainBound().value(h)
        assert after == pytest.approx(1.0)
        assert after > before
        part = partition_rmts_light(h, 2)
        assert part.success
        assert simulate_partition(part).ok


class TestBreakdownConsistency:
    def test_breakdown_matches_direct_acceptance(self):
        """The breakdown search and direct acceptance agree at the edge."""
        ts = build_workload("robotics", u_norm=0.5, processors=2, seed=1)
        accept = lambda t, m: partition_rmts(
            t, m, dedicate_over_bound=False
        ).success
        edge = breakdown_utilization(accept, ts, 2, tolerance=1e-3)
        below = ts.scaled_costs(
            (edge - 5e-3) / ts.normalized_utilization(2)
        )
        assert accept(below, 2)


class TestSerializationStory:
    def test_design_artifact_roundtrip(self):
        """Partition, ship as JSON, reload, re-verify, re-simulate."""
        ts = build_workload("infotainment", u_norm=0.7, processors=4, seed=2)
        part = partition_rmts(ts, 4, dedicate_over_bound=False)
        assert part.success
        payload = partition_to_dict(part)
        again = partition_from_dict(payload)
        assert again.validate() == []
        assert simulate_partition(again, horizon=5000.0).ok
