"""Failure injection: every class of partition corruption must be caught.

``PartitionResult.validate`` is the safety net the rest of the repository
leans on (tests, experiments, CLI).  These tests corrupt known-good
partitions in targeted ways and assert the corresponding violation is
reported — so a silent weakening of the validator cannot slip through.
"""

import copy

import pytest

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rta import is_schedulable
from repro.core.task import Subtask, SubtaskKind, Task, TaskSet


@pytest.fixture
def good_partition(tight_harmonic_set):
    part = partition_rmts(tight_harmonic_set, 2)
    assert part.success and part.validate() == []
    return part


def rebuild_subtask(sub, **overrides):
    fields = dict(
        cost=sub.cost,
        period=sub.period,
        deadline=sub.deadline,
        parent=sub.parent,
        index=sub.index,
        kind=sub.kind,
    )
    fields.update(overrides)
    return Subtask(**fields)


def replace_piece(proc, i, sub):
    """Swap piece *i* of *proc* for *sub* through the ``subtasks`` setter
    (reads return a fresh list, so in-place edits would be lost)."""
    subs = proc.subtasks
    subs[i] = sub
    proc.subtasks = subs


def find_split_pieces(part):
    tid = part.split_tids()[0]
    locs = []
    for proc in part.processors:
        for i, sub in enumerate(proc.subtasks):
            if sub.parent.tid == tid:
                locs.append((proc, i, sub))
    return sorted(locs, key=lambda x: x[2].index)


class TestCostCorruption:
    def test_inflated_piece_cost_detected(self, good_partition):
        locs = find_split_pieces(good_partition)
        proc, i, sub = locs[0]
        replace_piece(proc, i, rebuild_subtask(sub, cost=sub.cost + 0.5))
        errors = good_partition.validate()
        assert any("inconsistent" in e for e in errors)

    def test_deflated_piece_cost_detected(self, good_partition):
        locs = find_split_pieces(good_partition)
        proc, i, sub = locs[-1]
        replace_piece(proc, i, rebuild_subtask(sub, cost=sub.cost * 0.5))
        errors = good_partition.validate()
        assert any("inconsistent" in e for e in errors)


class TestDeadlineCorruption:
    def test_wrong_tail_deadline_detected(self, good_partition):
        locs = find_split_pieces(good_partition)
        proc, i, sub = locs[-1]
        assert sub.kind is SubtaskKind.TAIL
        replace_piece(proc, i, rebuild_subtask(sub, deadline=sub.period))
        errors = good_partition.validate()
        assert any("inconsistent" in e for e in errors)


class TestPlacementCorruption:
    def test_dropped_task_detected(self, good_partition):
        victim = None
        for proc in good_partition.processors:
            for sub in proc.subtasks:
                if sub.kind is SubtaskKind.WHOLE:
                    victim = (proc, sub)
        proc, sub = victim
        proc.subtasks = [s for s in proc.subtasks if s != sub]
        errors = good_partition.validate()
        assert any("unassigned" in e for e in errors)

    def test_duplicate_piece_on_processor_detected(self, good_partition):
        locs = find_split_pieces(good_partition)
        proc_a, _, sub_a = locs[0]
        proc_b, _, sub_b = locs[1]
        # move the second piece onto the first piece's processor
        proc_b.subtasks = [s for s in proc_b.subtasks if s != sub_b]
        proc_a.subtasks = proc_a.subtasks + [sub_b]
        errors = good_partition.validate()
        assert any("multiple pieces" in e for e in errors)


class TestScheduleCorruption:
    def test_overloaded_processor_detected(self, good_partition):
        proc = good_partition.processors[0]
        intruder = Task(cost=3.0, period=4.0, tid=999)
        proc.subtasks = proc.subtasks + [Subtask.whole(intruder)]
        errors = good_partition.validate()
        assert any("RTA" in e for e in errors)

    def test_in_place_replacement_behind_a_warm_context_detected(
        self, good_partition
    ):
        """Rule 5 re-runs exact RTA from scratch: replacing a row in
        place leaves the processor's warm context describing the old
        contents, and validation must not trust it."""
        proc, i = next(
            (proc, i)
            for proc in good_partition.processors
            for i, sub in enumerate(proc.subtasks)
            if sub.kind is SubtaskKind.WHOLE
        )
        assert proc.is_schedulable()  # warms the cached context
        row = proc.rows[i]
        proc.rows[i] = row._replace(cost=0.99 * row.period)
        assert proc.is_schedulable()  # the stale context still says yes
        assert not is_schedulable(proc.subtasks)
        errors = good_partition.validate()
        assert f"processor {proc.index}: fails exact RTA" in errors

    def test_body_priority_violation_detected(self):
        # hand-build: a body subtask sharing a processor with a
        # higher-priority whole task
        ts = TaskSet.from_pairs([(1, 4), (6, 12)])
        hi, lo = ts[0], ts[1]
        p0 = ProcessorState(index=0)
        p0.add(hi)
        p0.add(lo, 2, 12, 1, SubtaskKind.BODY)
        p1 = ProcessorState(index=1)
        p1.add(lo, 4, 10, 2, SubtaskKind.TAIL)
        part = PartitionResult(
            algorithm="corrupt", taskset=ts, processors=[p0, p1],
            success=True,
        )
        errors = part.validate()
        assert any("highest-priority" in e for e in errors)


class TestSuccessFlagIntegrity:
    def test_false_success_with_unassigned_detected(self, tight_harmonic_set):
        part = partition_rmts(tight_harmonic_set, 2)
        # claim success while secretly dropping a whole task
        victim_proc = None
        for proc in part.processors:
            for i, sub in enumerate(proc.subtasks):
                if sub.kind is SubtaskKind.WHOLE:
                    proc.subtasks = proc.subtasks[:i] + proc.subtasks[i + 1:]
                    victim_proc = proc
                    break
            if victim_proc:
                break
        assert part.success
        assert part.validate()  # not silent
