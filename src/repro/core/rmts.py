"""RM-TS — the paper's general algorithm (Section V).

RM-TS removes RM-TS/light's restriction to light task sets by adding a
**pre-assignment** phase for heavy tasks.  A heavy task ``tau_i``
(``U_i > Theta/(1+Theta)``) is pre-assigned to a processor of its own when
the *pre-assign condition* (Eq. 8) holds:

    ``sum_{j > i} U_j  <=  (|P(tau_i)| - 1) * Lambda(tau)``

i.e. when the total utilization of lower-priority tasks is small enough
that the heavy task's tail would otherwise end up with low priority on its
host.  ``|P(tau_i)|`` is the number of processors still marked *normal*
when ``tau_i`` is inspected, so at most ``M`` tasks are ever pre-assigned.

The partitioning then runs in three phases (Algorithm 3):

1. pre-assign qualifying heavy tasks, in decreasing priority order, each
   to the minimal-index normal processor (which becomes *pre-assigned*);
2. assign the remaining tasks to **normal** processors exactly like
   RM-TS/light (worst-fit, increasing priority order, split on overflow);
3. assign what is left to the **pre-assigned** processors first-fit,
   always choosing the non-full pre-assigned processor with the **largest
   index** (= hosting the lowest-priority pre-assigned task), filling it
   completely before moving on.

Guarantee: with ``Lambda(tau)`` capped at ``2 Theta/(1+Theta)``
(~81.8 % as N grows), ``U_M(tau) <= Lambda(tau)`` implies a successful
partition for *any* task set.

Tasks whose individual utilization exceeds ``Lambda(tau)`` are placed on
dedicated processors (footnote 5 of the paper) before phase 1.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Union

from repro._util.floats import EPS, approx_le
from repro.core.admission import AdmissionPolicy, ExactRTAAdmission
from repro.core.assign import assign_piece
from repro.core.bounds import (
    ParametricUtilizationBound,
    LiuLaylandBound,
    light_task_threshold,
    rmts_bound_cap,
)
from repro.core.partition import (
    PartitionResult,
    PendingPiece,
    ProcessorRole,
    ProcessorState,
    least_utilized,
)
from repro.core.task import TaskSet

__all__ = [
    "partition_rmts",
    "pre_assign_condition",
    "resolve_bound_value",
]


def resolve_bound_value(
    taskset: TaskSet,
    bound: Union[ParametricUtilizationBound, float, None],
    *,
    cap: bool = True,
) -> float:
    """Evaluate the D-PUB for *taskset*, optionally applying the RM-TS cap.

    *bound* may be a bound object, a plain float (a pre-computed
    ``Lambda(tau)``), or ``None`` (defaults to the Liu & Layland bound).
    """
    if bound is None:
        bound = LiuLaylandBound()
    raw = bound.value(taskset) if isinstance(bound, ParametricUtilizationBound) else float(bound)
    if not 0.0 < raw <= 1.0 + EPS:
        raise ValueError(f"bound value must lie in (0, 1], got {raw}")
    if cap:
        return min(raw, rmts_bound_cap(len(taskset)))
    return raw


def pre_assign_condition(
    lower_priority_utilization: float,
    normal_processors: int,
    bound_value: float,
) -> bool:
    """Eq. 8: ``sum_{j>i} U_j <= (|P(tau_i)| - 1) * Lambda(tau)``."""
    return approx_le(
        lower_priority_utilization, (normal_processors - 1) * bound_value
    )


def partition_rmts(
    taskset: TaskSet,
    processors: int,
    *,
    bound: Union[ParametricUtilizationBound, float, None] = None,
    policy: Optional[AdmissionPolicy] = None,
    cap_bound: bool = True,
    dedicate_over_bound: bool = True,
    algorithm_name: str = "RM-TS",
) -> PartitionResult:
    """Partition *taskset* onto *processors* processors with RM-TS.

    Parameters
    ----------
    taskset, processors:
        The task set and the platform size ``M``.
    bound:
        The D-PUB ``Lambda(tau)`` driving the pre-assign condition; a bound
        object, a float, or ``None`` for the L&L bound.
    policy:
        Admission policy for phases 2 and 3 (default: exact RTA).
        Threshold admission reproduces SPA2 of [16].
    cap_bound:
        Apply the ``min(Lambda, 2 Theta/(1+Theta))`` cap required by the
        worst-case guarantee (on by default; disable only for ablations).
    dedicate_over_bound:
        Give tasks with ``U_i > Lambda(tau)`` a dedicated processor each
        (footnote 5).  When disabled such tasks flow through the normal
        phases (no worst-case guarantee, occasionally better average case).
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    policy = policy or ExactRTAAdmission()
    lam = resolve_bound_value(taskset, bound, cap=cap_bound)
    tasks = taskset.tasks
    # ``Task.utilization``, evaluated once per task for all phases.
    utils = [t.cost / t.period for t in tasks]
    heavy_cutoff = light_task_threshold(len(tasks)) + EPS

    procs = [ProcessorState(index=q) for q in range(processors)]

    # -- Phase 0: dedicated processors for tasks above the bound ------------
    dedicated_tids: List[int] = []
    overflow_tids: List[int] = []
    if dedicate_over_bound:
        over_cut = lam + EPS
        over = [i for i, u in enumerate(utils) if u > over_cut]
        # Decreasing utilization, ties in priority order.
        over.sort(key=lambda i: -utils[i])
        # Use the highest-index processors so pre-assignment keeps choosing
        # minimal indices among the remaining normal ones, as in the paper.
        free = list(range(processors - 1, -1, -1))
        for i in over:
            task = tasks[i]
            if not free:
                overflow_tids.append(task.tid)
                continue
            q = free.pop(0)
            procs[q].role = ProcessorRole.DEDICATED
            procs[q].full = True
            procs[q].pre_assigned_tid = task.tid
            procs[q].add(task)
            dedicated_tids.append(task.tid)
    if dedicated_tids or overflow_tids:
        skip = set(dedicated_tids) | set(overflow_tids)
        active = [i for i in range(len(tasks)) if tasks[i].tid not in skip]
    else:
        active = list(range(len(tasks)))

    # -- Phase 1: pre-assignment of heavy tasks ------------------------------
    # Decreasing priority order = ascending tid.  The lower-priority
    # utilization sum in Eq. 8 ranges over all lower-priority tasks of the
    # (non-dedicated part of the) task set, accumulated from the lowest
    # priority up.
    suffix = [0.0] * len(active)
    suffix_util = 0.0
    for k in range(len(active) - 1, -1, -1):
        suffix[k] = suffix_util
        suffix_util += utils[active[k]]

    # Roles are final once set, and procs is in index order, so the
    # normal processors stay an index-ordered list that only loses its
    # head.
    normal_procs = [p for p in procs if p.role is ProcessorRole.NORMAL]
    pre_assigned_tids: List[int] = []
    remaining: List[int] = []
    for k, i in enumerate(active):
        if utils[i] > heavy_cutoff and normal_procs and pre_assign_condition(
            suffix[k], len(normal_procs), lam
        ):
            task = tasks[i]
            target = normal_procs.pop(0)
            target.role = ProcessorRole.PRE_ASSIGNED
            target.pre_assigned_tid = task.tid
            target.add(task)
            pre_assigned_tids.append(task.tid)
        else:
            remaining.append(i)

    # -- Phase 2: remaining tasks onto normal processors (worst-fit) --------
    # Processors only ever *leave* the open set (assign_piece may mark its
    # target full), so the candidate lists are maintained incrementally
    # instead of being rebuilt per piece.  No normal processor is full yet.
    queue: Deque[PendingPiece] = deque(
        [PendingPiece(tasks[i]) for i in reversed(remaining)]
    )
    dead_tids = set()
    open_normal = normal_procs
    while queue and open_normal:
        piece = queue[0]
        target = least_utilized(open_normal)  # index order: ties by index
        outcome = assign_piece(piece, target, policy)
        if target.full:
            open_normal.remove(target)
        if outcome.completed:
            queue.popleft()
        elif outcome.infeasible:
            dead_tids.add(piece.priority)
            queue.popleft()

    # -- Phase 3: remaining tasks onto pre-assigned processors (first-fit,
    # largest index = lowest-priority pre-assigned task first) --------------
    open_pre = [
        p for p in procs if p.role is ProcessorRole.PRE_ASSIGNED and not p.full
    ]
    while queue and open_pre:
        piece = queue[0]
        target = open_pre[-1]
        outcome = assign_piece(piece, target, policy)
        if target.full:
            open_pre.pop()
        if outcome.completed:
            queue.popleft()
        elif outcome.infeasible:
            dead_tids.add(piece.priority)
            queue.popleft()

    unassigned = sorted(
        {piece.priority for piece in queue} | set(overflow_tids) | dead_tids
    )
    label = policy.describe()
    return PartitionResult(
        algorithm=f"{algorithm_name}[{label}]",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=unassigned,
        info={
            "bound_value": lam,
            "pre_assigned_tids": pre_assigned_tids,
            "dedicated_tids": dedicated_tids,
            "policy": label,
        },
    )
