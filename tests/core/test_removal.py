"""Departure-path bit-identity: removing a task from live partition
state must leave exactly the state a survivor-only history would have
produced (the churn simulator's correctness hinges on this)."""

import pytest

from repro.core import partition
from repro.core.partition import ProcessorRole, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rta import RTAContext
from repro.core.task import SubtaskKind, Task
from repro.taskgen.generators import TaskSetGenerator


def _taskset(seed=7, n=12, u_norm=0.7, processors=4):
    return TaskSetGenerator(n=n).generate(
        u_norm=u_norm, processors=processors, seed=seed
    )


def _fresh_from_survivors(proc):
    """A processor that only ever admitted *proc*'s current subtasks,
    in the same list order."""
    fresh = ProcessorState(index=proc.index)
    for sub in proc.subtasks:
        fresh.add(sub.parent, sub.cost, sub.deadline, sub.index, sub.kind)
    return fresh


class TestProcessorRemoveParent:
    def test_util_bit_identical_to_survivor_history(self):
        ts = _taskset()
        result = partition_rmts(ts, 4)
        victim = max(
            (t for t in ts), key=lambda t: t.utilization
        ).tid
        for proc in result.processors:
            proc.remove_parent(victim)
            fresh = _fresh_from_survivors(proc)
            # Exact float equality, not approx: both sides accumulate
            # left-to-right over the same list.
            assert proc._util == fresh._util
            assert proc.utilization == fresh.utilization

    def test_admission_probes_match_survivor_history(self):
        ts = _taskset(seed=11)
        result = partition_rmts(ts, 4)
        victim = ts[0].tid
        probe = Task(cost=5.0, period=100.0, tid=9999)
        for proc in result.processors:
            proc.remove_parent(victim)
            fresh = _fresh_from_survivors(proc)
            assert proc.schedulable_with(probe) == fresh.schedulable_with(
                probe
            )
            assert proc.is_schedulable() == fresh.is_schedulable()

    def test_remove_unknown_tid_is_noop(self):
        ts = _taskset()
        result = partition_rmts(ts, 4)
        proc = result.processors[0]
        before = list(proc.subtasks)
        before_util = proc._util
        assert proc.remove_parent(10**9) == 0
        assert proc.subtasks == before
        assert proc._util == before_util

    def test_removing_body_unfreezes_full_processor(self):
        task = Task(cost=30.0, period=100.0, tid=1)
        other = Task(cost=10.0, period=200.0, tid=2)
        proc = ProcessorState(index=0, full=True)
        proc.add(task, 20.0, 40.0, 1, SubtaskKind.BODY)
        proc.add(other)
        assert proc.remove_parent(1) == 1
        assert not proc.full
        assert [s.parent.tid for s in proc.subtasks] == [2]

    def test_removing_pre_assigned_task_releases_processor(self):
        task = Task(cost=40.0, period=100.0, tid=3)
        proc = ProcessorState(
            index=0,
            role=ProcessorRole.PRE_ASSIGNED,
            pre_assigned_tid=3,
        )
        proc.add(task)
        proc.remove_parent(3)
        assert proc.role is ProcessorRole.NORMAL
        assert proc.pre_assigned_tid is None


def _compensated_sum(values, start=0):
    """Python 3.12's builtin ``sum`` over floats: Neumaier-compensated,
    so it can differ from the left-to-right sum ``add()`` accumulates."""
    total = float(start)
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


class TestUtilizationSummationOrder:
    """``remove_parent`` re-sums the survivors left to right whatever the
    interpreter's builtin ``sum`` does: the 3.12 compensated ``sum`` is
    patched in, and the result must still be the ``add()`` history's."""

    def test_compensated_sum_differs_on_this_data(self):
        assert _compensated_sum([0.1, 0.2, 0.3]) == 0.6
        assert (0.1 + 0.2) + 0.3 == 0.6000000000000001

    def test_remove_parent_sums_left_to_right(self, monkeypatch):
        monkeypatch.setattr(partition, "sum", _compensated_sum, raising=False)
        proc = ProcessorState(index=0)
        for tid, cost in enumerate((1.0, 2.0, 3.0, 2.5)):
            proc.add(Task(cost=cost, period=10.0, tid=tid))
        assert proc.remove_parent(3) == 1
        fresh = _fresh_from_survivors(proc)
        assert proc._util.hex() == fresh._util.hex()
        assert proc._util == 0.6000000000000001


class TestSnapshotRestore:
    def test_restore_undoes_adds_exactly(self):
        ts = _taskset(seed=5, n=10, u_norm=0.5, processors=2)
        proc = ProcessorState(index=0)
        for task in ts[:4]:
            proc.add(task)
        assert proc.schedulable_with(ts[4])
        rows = proc.rows
        before = (list(rows), proc._util, proc._ctx)
        snapshot = proc.snapshot()
        for task in ts[4:7]:
            proc.add(task)
        proc.restore(snapshot)
        assert proc.rows is rows and rows == before[0]
        assert proc._util == before[1]
        ctx, want = proc._ctx, RTAContext.from_rows(rows)
        assert ctx is not before[2]  # the copy, untouched by the adds
        assert (ctx.costs, ctx.periods, ctx.deadlines, ctx.prio_list) == (
            want.costs, want.periods, want.deadlines, want.prio_list
        )
        assert ctx.ratios == want.ratios and ctx.util_sum == want.util_sum
        assert ctx._memo is None

    def test_restore_without_context(self):
        proc = ProcessorState(index=0)
        snapshot = proc.snapshot()
        proc.add(Task(cost=1.0, period=10.0, tid=0))
        proc.restore(snapshot)
        assert proc.rows == [] and proc._util == 0.0 and proc._ctx is None


class TestPartitionRemoveReadmit:
    def test_remove_records_and_validate_skips_departed(self):
        ts = _taskset()
        result = partition_rmts(ts, 4)
        victim = ts[2].tid
        pieces = result.remove_task(victim)
        assert pieces >= 1
        assert result.removed_tids() == [victim]
        assert result.validate() == []
        assert result.processors_hosting(victim) == []

    def test_remove_is_idempotent_in_the_record(self):
        ts = _taskset()
        result = partition_rmts(ts, 4)
        victim = ts[2].tid
        result.remove_task(victim)
        assert result.remove_task(victim) == 0
        assert result.removed_tids() == [victim]

    @pytest.mark.parametrize("seed", [0, 3, 11, 19])
    def test_round_trip_matches_fresh_survivor_partition_util(self, seed):
        """Removing every task of one 'tenant' must leave per-processor
        utilizations bit-identical to partitions that only ever saw the
        survivors (list-order float accumulation on both sides)."""
        ts = _taskset(seed=seed)
        result = partition_rmts(ts, 4)
        departed = {ts[0].tid, ts[1].tid}
        for tid in sorted(departed):
            result.remove_task(tid)
        assert result.validate() == []
        for proc in result.processors:
            fresh = _fresh_from_survivors(proc)
            assert proc._util == fresh._util
            assert proc.rta_context().schedulable == (
                fresh.rta_context().schedulable
            )
