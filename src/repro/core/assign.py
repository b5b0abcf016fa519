"""The ``Assign`` routine shared by all partitioning skeletons.

Algorithm 2 of the paper: try to place the pending piece entirely on the
selected processor; if that fails, split it via MaxSplit, assign the
maximal front part, and mark the processor full — the remainder travels on
to the next processor.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple, cast

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
    # The rows in append order: the interference sum adds in that order.
    priority = piece.priority
    hp = [row for row in proc.rows if row.priority < priority]
    if not hp:
        return cost
    r = response_time(
        cost,
        [float(row.cost) for row in hp],
        [float(row.period) for row in hp],
        piece.deadline,
    )
    return r if r is not None else cost


class AssignOutcome(NamedTuple):
    """What happened when a piece met a processor (a named tuple: one is
    built per Assign call, and a tuple is the cheapest immutable record)."""

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


#: Builds an ``AssignOutcome`` from a tuple in C, skipping the namedtuple's
#: Python-level ``__new__`` (one Assign call builds one outcome).
_new_outcome = cast(
    Callable[[type, Tuple[bool, bool, float, bool]], AssignOutcome], tuple.__new__
)
#: The outcomes that place nothing (shared: a tuple is immutable).
_INFEASIBLE = AssignOutcome(completed=False, filled=False, placed_cost=0.0, infeasible=True)
_NOTHING_FITS = AssignOutcome(completed=False, filled=True, placed_cost=0.0)


def assign_piece(
    piece: PendingPiece, proc: ProcessorState, policy: AdmissionPolicy
) -> AssignOutcome:
    """Run Assign(tau_i^k, P_q) with the given admission policy.

    Mutates *piece* (splitting off a body part) and *proc* (receiving a
    subtask, possibly becoming full).  Never leaves either in an
    inconsistent state:

    * entire fit  -> piece consumed, processor unchanged otherwise;
    * split       -> body piece (maximal front part) added, processor
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
        return _INFEASIBLE
    # The piece is its own admission candidate and commits by value.
    if policy.fits(proc, piece):
        return _new_outcome(AssignOutcome, (True, False, piece.commit(proc), False))

    cost = policy.split_cost(proc, piece)
    proc.full = True
    remainder = piece.cost
    if cost >= remainder - max(EPS, 1e-9 * remainder):
        # Boundary case: MaxSplit admits the entire remainder.
        return _new_outcome(AssignOutcome, (True, True, piece.commit(proc), False))
    if cost <= EPS:
        return _NOTHING_FITS
    response = _body_response(proc, piece, cost)
    placed = piece.split_off(proc, cost, response)
    return _new_outcome(AssignOutcome, (False, True, placed, False))
