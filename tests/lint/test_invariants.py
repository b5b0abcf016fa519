"""Runtime invariant sanitizer tests.

The sanitizer must (a) stay silent when disarmed, (b) trip with a clear
:class:`InvariantViolation` on deliberately corrupted structures when
armed, and (c) be switchable both via ``perf.config`` and the
``REPRO_DEBUG_INVARIANTS`` environment variable.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro._util.invariants import (
    InvariantViolation,
    check_partition,
    check_response_monotonicity,
    check_taskset,
    invariants_enabled,
)
from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Subtask, TaskSet
from repro.perf.config import use_debug_invariants

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]

NAN = float("nan")


def _fake_task(cost, period):
    return SimpleNamespace(cost=cost, period=period, tid=99)


class TestCheckTaskset:
    def test_accepts_valid_utilizations(self):
        check_taskset([_fake_task(1.0, 4.0), _fake_task(4.0, 4.0)])

    def test_rejects_overutilized_task(self):
        with pytest.raises(InvariantViolation, match="outside"):
            check_taskset([_fake_task(5.0, 4.0)])

    def test_rejects_zero_utilization(self):
        with pytest.raises(InvariantViolation):
            check_taskset([_fake_task(0.0, 4.0)])


class TestResponseMonotonicity:
    def test_accepts_nondecreasing(self):
        check_response_monotonicity([1.0, 1.0, 2.5])

    def test_rejects_decrease(self):
        with pytest.raises(InvariantViolation, match="decreased"):
            check_response_monotonicity([1.0, 2.0, 1.5])

    def test_nan_slots_are_skipped(self):
        check_response_monotonicity([1.0, NAN, 2.0])

    def test_decrease_across_nan_still_caught(self):
        with pytest.raises(InvariantViolation, match="decreased"):
            check_response_monotonicity([2.0, NAN, 1.0])

    def test_deadline_bound_enforced(self):
        with pytest.raises(InvariantViolation, match="deadline"):
            check_response_monotonicity([1.0, 5.0], deadlines=[2.0, 4.0])

    def test_deadline_boundary_tolerated(self):
        # Exactly at the deadline is schedulable, not a violation.
        check_response_monotonicity([2.0, 4.0], deadlines=[2.0, 4.0])


def _corrupt_partition(**kwargs):
    """Partition claiming success while a whole task is unassigned."""
    ts = TaskSet.from_pairs([(1, 4), (2, 8)])
    proc = ProcessorState(index=0)
    proc.add(ts[0])  # ts[1] is silently dropped
    return dict(
        algorithm="corrupt",
        taskset=ts,
        processors=[proc],
        success=True,
        **kwargs,
    )


class TestCheckPartition:
    def test_trips_on_corrupted_partition(self):
        with use_debug_invariants(False):
            part = PartitionResult(**_corrupt_partition())
        with pytest.raises(InvariantViolation, match="corrupt"):
            check_partition(part)

    def test_construction_trips_when_armed(self):
        with use_debug_invariants(True):
            with pytest.raises(InvariantViolation):
                PartitionResult(**_corrupt_partition())

    def test_construction_silent_when_disarmed(self):
        with use_debug_invariants(False):
            PartitionResult(**_corrupt_partition())

    def test_failed_partitions_are_exempt(self):
        with use_debug_invariants(True):
            ts = TaskSet.from_pairs([(1, 4), (2, 8)])
            proc = ProcessorState(index=0)
            proc.add(ts[0])
            PartitionResult(
                algorithm="gave-up",
                taskset=ts,
                processors=[proc],
                success=False,
                unassigned_tids=[1],
            )

    def test_synthetic_partitions_opt_out(self):
        with use_debug_invariants(True):
            PartitionResult(**_corrupt_partition(info={"synthetic": True}))

    def test_well_formed_partition_passes_armed(self):
        with use_debug_invariants(True):
            ts = TaskSet.from_pairs([(1, 4), (2, 8)])
            p0, p1 = ProcessorState(index=0), ProcessorState(index=1)
            p0.add(ts[0])
            p1.add(ts[1])
            part = PartitionResult(
                algorithm="manual",
                taskset=ts,
                processors=[p0, p1],
                success=True,
            )
        check_partition(part)


class TestToggles:
    def test_context_manager_arms_and_restores(self):
        before = invariants_enabled()
        with use_debug_invariants(True):
            assert invariants_enabled()
        with use_debug_invariants(False):
            assert not invariants_enabled()
        assert invariants_enabled() == before

    @pytest.mark.parametrize(
        "value, expected",
        [("1", "True"), ("true", "True"), ("", "False"), ("0", "False")],
    )
    def test_env_var_initialises_the_flag(self, value, expected):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_DEBUG_INVARIANTS"] = value
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.perf import config; print(config.debug_invariants)",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


class TestRtaIntegration:
    def test_rta_passes_under_armed_sanitizer(self):
        from repro.core.rta import response_times

        with use_debug_invariants(True):
            ts = TaskSet.from_pairs([(1, 4), (2, 8), (3, 12)])
            result = response_times([Subtask.whole(t) for t in ts])
        values = [r for r in result.responses if not math.isnan(r)]
        assert values == sorted(values)
