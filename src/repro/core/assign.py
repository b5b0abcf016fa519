"""The ``Assign`` routine shared by all partitioning skeletons.

Algorithm 2 of the paper: try to place the pending piece entirely on the
selected processor; if that fails, split it via MaxSplit, assign the
maximal front part, and mark the processor full — the remainder travels on
to the next processor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.floats import EPS
from repro.core.admission import AdmissionPolicy
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rta import response_time

__all__ = ["AssignOutcome", "assign_piece"]


def _body_response(
    proc: ProcessorState, piece: PendingPiece, cost: float
) -> float:
    """Worst-case response of the about-to-be-assigned body on *proc*.

    Equals *cost* when the body is highest-priority there (Lemma 2 — the
    only case in RM-TS/light and RM-TS phase 2).  In RM-TS phase 3 a
    pre-assigned task with higher priority may interfere; Eq. 1 then needs
    the actual RTA response.  The interference set is final: the processor
    is marked full by the split, so nothing is added later.

    Falls back to *cost* if exact RTA rejects the body outright — that
    only happens under threshold admission (the SPA baselines), whose
    analysis ([16]) keeps its own accounting.
    """
    hp = [s for s in proc.subtasks if s.priority < piece.task.tid]
    if not hp:
        return cost
    r = response_time(
        cost,
        [float(s.cost) for s in hp],
        [float(s.period) for s in hp],
        piece.deadline,
    )
    return r if r is not None else cost


@dataclass(frozen=True)
class AssignOutcome:
    """What happened when a piece met a processor."""

    #: The piece was fully placed; move on to the next task.
    completed: bool
    #: The processor was marked full (a split happened or nothing fit).
    filled: bool
    #: Cost placed on this processor (0 when nothing fit).
    placed_cost: float
    #: The piece can never be placed anywhere: its Eq. 1 synthetic
    #: deadline has been consumed entirely by body responses.  The caller
    #: must drop the task as unassigned.
    infeasible: bool = False


def assign_piece(
    piece: PendingPiece, proc: ProcessorState, policy: AdmissionPolicy
) -> AssignOutcome:
    """Run Assign(tau_i^k, P_q) with the given admission policy.

    Mutates *piece* (splitting off a body part) and *proc* (receiving a
    subtask, possibly becoming full).  Never leaves either in an
    inconsistent state:

    * entire fit  -> piece consumed, processor unchanged otherwise;
    * split       -> body subtask (maximal front part) added, processor
      full, piece keeps the remainder with an updated synthetic deadline;
    * nothing fits -> processor full, piece untouched.

    A split cost within tolerance of the full remaining cost is promoted to
    an entire assignment (the admission test and MaxSplit can disagree by a
    float ulp exactly at the boundary); the processor is still marked full
    since it is at its bottleneck.
    """
    if piece.deadline <= EPS:
        # Preceding body responses consumed the whole period (possible
        # only in ablation modes that void Lemma 2); the remainder cannot
        # meet any deadline anywhere.
        return AssignOutcome(
            completed=False, filled=False, placed_cost=0.0, infeasible=True
        )
    candidate = piece.as_candidate()
    if policy.fits(proc, candidate):
        proc.add(piece.finalize(candidate))
        return AssignOutcome(completed=True, filled=False, placed_cost=candidate.cost)

    cost = policy.split_cost(proc, piece)
    proc.full = True
    if cost >= piece.cost - max(EPS, 1e-9 * piece.cost):
        # Boundary case: MaxSplit admits the entire remainder.
        placed = piece.cost
        proc.add(piece.finalize(candidate))
        return AssignOutcome(completed=True, filled=True, placed_cost=placed)
    if cost <= EPS:
        return AssignOutcome(completed=False, filled=True, placed_cost=0.0)
    response = _body_response(proc, piece, cost)
    body = piece.split_off(cost, response)
    if body is None:
        return AssignOutcome(completed=False, filled=True, placed_cost=0.0)
    proc.add(body)
    return AssignOutcome(completed=False, filled=True, placed_cost=body.cost)
