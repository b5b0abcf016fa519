"""Direct tests of the shared Assign routine (Algorithm 2)."""

import pytest

from repro.core.admission import ExactRTAAdmission, ThresholdAdmission
from repro.core.assign import AssignOutcome, assign_piece
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.task import SubtaskKind, Task


def proc_with(pairs, start_tid=10):
    proc = ProcessorState(index=0)
    for i, (c, t) in enumerate(pairs):
        proc.add(Task(cost=c, period=t, tid=start_tid + i))
    return proc


class TestOutcomeAccounting:
    def test_entire_fit_placed_cost(self):
        proc = proc_with([(1, 4)])
        piece = PendingPiece(Task(cost=2.0, period=8.0, tid=0))
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert outcome == AssignOutcome(
            completed=True, filled=False, placed_cost=2.0
        )

    def test_split_placed_cost_matches_body(self):
        proc = proc_with([(2, 4)])
        piece = PendingPiece(Task(cost=7.0, period=8.0, tid=0))
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        body = proc.subtasks[-1]
        assert outcome.placed_cost == pytest.approx(body.cost)
        assert body.cost + piece.cost == pytest.approx(7.0)

    def test_boundary_promotion_to_entire_fit(self):
        """When MaxSplit admits (numerically) the entire remainder, the
        piece is finalized rather than split into a sliver + remainder,
        and the processor is still marked full (it has a bottleneck).
        The fits/split disagreement is a one-ulp race between two exact
        procedures, so it is exercised with a stub policy."""

        class BoundaryPolicy:
            def fits(self, proc, candidate):
                return False

            def split_cost(self, proc, piece):
                return piece.cost  # "everything fits after all"

            def describe(self):
                return "boundary-stub"

        proc = proc_with([(5, 10)])
        piece = PendingPiece(Task(cost=5.0, period=10.0, tid=0))
        outcome = assign_piece(piece, proc, BoundaryPolicy())
        assert outcome.completed and outcome.filled
        assert proc.subtasks[-1].kind is SubtaskKind.WHOLE
        assert piece.cost == 0.0
        assert proc.full

    def test_nothing_fits_leaves_piece_untouched(self):
        proc = proc_with([(2, 4), (4, 8)])  # U = 1
        piece = PendingPiece(Task(cost=3.0, period=8.0, tid=0))
        before = piece.cost
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert outcome.placed_cost == 0.0
        assert piece.cost == before
        assert piece.index == 1
        assert proc.full


class TestSplitChainAcrossProcessors:
    def test_three_processor_chain(self):
        """A fat task walks across three partially loaded processors.

        Each resident (1,4) admits at most ~3 units of a top-priority
        newcomer (R = 1 + c <= 4), so cost 8 completes on processor 3.
        """
        procs = [proc_with([(1.0, 4)], start_tid=10 + i) for i in range(3)]
        piece = PendingPiece(Task(cost=8.0, period=12.0, tid=0))
        placed = []
        for proc in procs:
            outcome = assign_piece(piece, proc, ExactRTAAdmission())
            placed.append(outcome.placed_cost)
            if outcome.completed:
                break
        assert sum(placed) == pytest.approx(8.0)
        assert piece.cost == 0.0
        # the synthetic deadline shrank monotonically along the chain
        kinds = [
            s.kind for proc in procs for s in proc.subtasks if s.priority == 0
        ]
        assert kinds.count(SubtaskKind.TAIL) == 1

    def test_deadlines_shrink_along_chain(self):
        procs = [proc_with([(1.0, 4)], start_tid=10 + i) for i in range(3)]
        piece = PendingPiece(Task(cost=8.0, period=12.0, tid=0))
        deadlines = []
        for proc in procs:
            deadlines.append(piece.deadline)
            if assign_piece(piece, proc, ExactRTAAdmission()).completed:
                break
        assert deadlines == sorted(deadlines, reverse=True)
