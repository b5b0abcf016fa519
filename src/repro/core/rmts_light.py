"""RM-TS/light — the paper's first algorithm (Section IV).

Partitioning (Algorithm 1):

1. tasks are visited in **increasing priority order** (lowest priority
   first, i.e. longest period first);
2. at each step the non-full processor with the **minimal assigned
   utilization** is selected (worst-fit);
3. the piece is assigned entirely if exact RTA admits it, otherwise it is
   split via MaxSplit — the maximal front part stays, the processor becomes
   full, and the remainder continues at the head of the queue.

Guarantee (Theorem 8): for any *light* task set (every task utilization at
most ``Theta/(1+Theta)``), any deflatable parametric utilization bound
``Lambda(tau)`` computed from the original task set is a valid normalized
utilization bound: ``U_M(tau) <= Lambda(tau)`` implies a successful
partition (hence schedulability, Lemma 4).

The bound never appears in the algorithm itself — it is purely an analysis
artifact — so :func:`partition_rmts_light` takes no bound argument.  The
admission policy defaults to exact RTA; passing a
:class:`~repro.core.admission.ThresholdAdmission` turns the skeleton into
SPA1 of [16] (see :mod:`repro.core.baselines.spa`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.admission import AdmissionPolicy, ExactRTAAdmission
from repro.core.assign import assign_piece
from repro.core.bounds import light_task_threshold
from repro.core.partition import (
    PartitionResult,
    PendingPiece,
    ProcessorState,
    least_utilized,
)
from repro.core.task import TaskSet

__all__ = ["partition_rmts_light", "is_light_task_set"]


def is_light_task_set(taskset: TaskSet) -> bool:
    """Definition 1: every task utilization at most ``Theta/(1+Theta)``.

    ``Theta`` is the Liu & Layland bound for the task set's own size.
    The RM-TS/light *guarantee* only covers light sets; the algorithm
    itself runs on any input (it may simply fail to partition).
    """
    return taskset.is_light(light_task_threshold(len(taskset)))


def partition_rmts_light(
    taskset: TaskSet,
    processors: int,
    *,
    policy: Optional[AdmissionPolicy] = None,
    algorithm_name: str = "RM-TS/light",
    assignment_order: str = "increasing",
    placement: str = "worst_fit",
) -> PartitionResult:
    """Partition *taskset* onto *processors* processors with RM-TS/light.

    Parameters
    ----------
    taskset:
        The task set (already in RM priority order by construction).
    processors:
        Number of identical processors ``M``.
    policy:
        Admission policy; defaults to exact RTA with the scheduling-points
        MaxSplit.  Threshold admission reproduces SPA1.
    algorithm_name:
        Label recorded in the result (baselines reuse this skeleton).
    assignment_order:
        ``"increasing"`` (the paper's choice — lowest priority first, which
        is what makes body subtasks highest-priority on their hosts,
        Lemma 2) or ``"decreasing"`` — an **ablation only**; it voids the
        utilization-bound guarantee.
    placement:
        ``"worst_fit"`` (the paper's choice — minimal assigned utilization,
        required by the bound proof) or ``"first_fit"`` — ablation only.

    Returns
    -------
    A :class:`~repro.core.partition.PartitionResult`; ``success`` is True
    iff every task was fully assigned.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    if assignment_order not in ("increasing", "decreasing"):
        raise ValueError(f"unknown assignment_order {assignment_order!r}")
    if placement not in ("worst_fit", "first_fit"):
        raise ValueError(f"unknown placement {placement!r}")
    policy = policy or ExactRTAAdmission()
    procs = [ProcessorState(index=q) for q in range(processors)]

    # Increasing priority order: TaskSet stores highest priority first.
    ordered = (
        list(reversed(taskset.tasks))
        if assignment_order == "increasing"
        else list(taskset.tasks)
    )
    queue: Deque[PendingPiece] = deque([PendingPiece(t) for t in ordered])

    dead_tids = set()
    # Processors only leave the open set (assign_piece may mark its target
    # full), so it is maintained incrementally rather than rebuilt per piece.
    open_procs = [p for p in procs if not p.full]
    while queue and open_procs:
        piece = queue[0]
        # open_procs stays in index order, so the first minimum breaks
        # ties by index.
        if placement == "worst_fit":
            target = least_utilized(open_procs)
        else:
            target = open_procs[0]
        outcome = assign_piece(piece, target, policy)
        if target.full:
            open_procs.remove(target)
        if outcome.completed:
            queue.popleft()
        elif outcome.infeasible:
            dead_tids.add(piece.task.tid)
            queue.popleft()

    unassigned = sorted({piece.task.tid for piece in queue} | dead_tids)
    return PartitionResult(
        algorithm=f"{algorithm_name}[{policy.describe()}]",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=unassigned,
        info={
            "light": is_light_task_set(taskset),
            "policy": policy.describe(),
            "assignment_order": assignment_order,
            "placement": placement,
        },
    )
