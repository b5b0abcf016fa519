"""Unit tests for admission policies and the shared Assign routine."""

import pytest

from repro.core.admission import ExactRTAAdmission, ThresholdAdmission
from repro.core.assign import assign_piece
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.task import SubtaskKind, Task


def proc_with(pairs, start_tid=10):
    proc = ProcessorState(index=0)
    for i, (c, t) in enumerate(pairs):
        proc.add(Task(cost=c, period=t, tid=start_tid + i))
    return proc


class TestExactRTAAdmission:
    def test_fits_uses_rta(self):
        policy = ExactRTAAdmission()
        proc = proc_with([(2, 4)])
        assert policy.fits(proc, Task(cost=2, period=8, tid=0))
        assert not policy.fits(proc, Task(cost=5, period=8, tid=0))

    def test_split_cost_positive_on_partial_room(self):
        policy = ExactRTAAdmission()
        proc = proc_with([(2, 4)])
        piece = PendingPiece(Task(cost=6.0, period=8.0, tid=0))
        c = policy.split_cost(proc, piece)
        assert 0 < c < 6.0

    def test_method_validated(self):
        with pytest.raises(ValueError):
            ExactRTAAdmission(method="magic")

    def test_describe(self):
        assert "points" in ExactRTAAdmission().describe()
        assert "binary" in ExactRTAAdmission(method="binary").describe()


class TestThresholdAdmission:
    def test_fits_below_threshold(self):
        policy = ThresholdAdmission(0.7)
        proc = proc_with([(2, 10)])  # U = 0.2
        assert policy.fits(proc, Task(cost=4, period=10, tid=0))
        assert not policy.fits(proc, Task(cost=6, period=10, tid=0))

    def test_boundary_counts_as_fit(self):
        policy = ThresholdAdmission(0.5)
        proc = proc_with([(2, 10)])
        assert policy.fits(proc, Task(cost=3, period=10, tid=0))

    def test_split_fills_exactly_to_threshold(self):
        policy = ThresholdAdmission(0.6)
        proc = proc_with([(2, 10)])  # U = 0.2 -> headroom 0.4
        piece = PendingPiece(Task(cost=9.0, period=10.0, tid=0))
        assert policy.split_cost(proc, piece) == pytest.approx(4.0)

    def test_split_capped_by_piece_cost(self):
        policy = ThresholdAdmission(0.9)
        proc = proc_with([(1, 10)])
        piece = PendingPiece(Task(cost=2.0, period=10.0, tid=0))
        assert policy.split_cost(proc, piece) == pytest.approx(2.0)

    def test_no_headroom_gives_zero(self):
        policy = ThresholdAdmission(0.2)
        proc = proc_with([(2, 10)])
        piece = PendingPiece(Task(cost=2.0, period=10.0, tid=0))
        assert policy.split_cost(proc, piece) == 0.0

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            ThresholdAdmission(0.0)
        with pytest.raises(ValueError):
            ThresholdAdmission(1.5)


class TestAssignPiece:
    def test_entire_fit(self):
        proc = proc_with([(2, 4)])
        piece = PendingPiece(Task(cost=2.0, period=8.0, tid=0))
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert outcome.completed and not outcome.filled
        assert piece.cost == 0.0
        assert len(proc.subtasks) == 2
        assert not proc.full

    def test_split_marks_full_and_keeps_remainder(self):
        proc = proc_with([(2, 4)])
        piece = PendingPiece(Task(cost=7.0, period=8.0, tid=0))
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert not outcome.completed and outcome.filled
        assert proc.full
        assert piece.cost == pytest.approx(7.0 - outcome.placed_cost)
        assert piece.index == 2
        body = proc.subtasks[-1]
        assert body.kind is SubtaskKind.BODY

    def test_nothing_fits(self):
        proc = proc_with([(2, 4), (4, 8)])  # U = 1.0
        piece = PendingPiece(Task(cost=4.0, period=8.0, tid=0))
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert not outcome.completed and outcome.filled
        assert outcome.placed_cost == 0.0
        assert piece.cost == 4.0
        assert len(proc.subtasks) == 2

    def test_threshold_split(self):
        proc = proc_with([(3, 10)])
        piece = PendingPiece(Task(cost=9.0, period=10.0, tid=0))
        outcome = assign_piece(piece, proc, ThresholdAdmission(0.7))
        assert not outcome.completed
        assert outcome.placed_cost == pytest.approx(4.0)
        assert proc.utilization == pytest.approx(0.7)

    def test_processor_still_schedulable_after_split(self):
        proc = proc_with([(1, 3), (2, 9)])
        piece = PendingPiece(Task(cost=15.0, period=20.0, tid=0))
        assign_piece(piece, proc, ExactRTAAdmission())
        assert proc.is_schedulable()
