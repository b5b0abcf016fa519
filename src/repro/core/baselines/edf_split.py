"""Semi-partitioned EDF with window-constrained migration (EDF-WM style).

The paper's related work credits EDF-based semi-partitioned algorithms
(Kato et al.) with the prior state-of-the-art bound (~65 %) before the
fixed-priority line caught up.  This module implements the window-split
scheme those algorithms share, as the EDF-side comparator for experiment
E13:

* tasks are first assigned whole, first-fit, admitted by the **exact
  demand-bound-function test** (:func:`repro.core.baselines.edf.edf_schedulable`);
* a task that fits nowhere whole is split into ``k`` pieces with equal
  time windows ``w = T / k``: piece ``j`` may only execute inside the
  ``j``-th window of each period, i.e. it behaves on its host processor
  like an independent sporadic task ``<C_j, T, D = w>``;
* for each candidate ``k`` the maximal admissible piece cost on every
  processor is found by bisection over the DBF test, and the ``k`` most
  capable processors are used; the first ``k`` that covers ``C`` wins.

At run time each processor schedules its pieces by EDF on the pieces'
*window deadlines* (the simulator's ``scheduler="edf"`` mode); the
precedence chain guarantees piece ``j`` is ready no later than its window
opens, because piece ``j-1`` completes by the end of window ``j-1``.

The window model is deliberately conservative (windows don't adapt to
actual completion times), matching the analysis in the EDF-WM family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._util.floats import EPS
from repro.core.baselines.edf import edf_schedulable
from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Subtask, SubtaskKind, Task, TaskSet

__all__ = ["max_edf_piece_cost", "partition_edf_split"]


def max_edf_piece_cost(
    existing: Sequence[Subtask],
    task: Task,
    window: float,
    *,
    iterations: int = 60,
) -> float:
    """Largest cost ``c`` such that a piece ``<c, T, D=window>`` of *task*
    passes the exact DBF test alongside *existing* on one processor.

    Monotone in ``c``, so bisection against :func:`edf_schedulable` is
    exact up to float precision.  Capped at ``window`` (a piece cannot
    exceed its own window) and at ``task.cost``.
    """
    if window <= 0:
        return 0.0
    hi = min(task.cost, window)

    def feasible(c: float) -> bool:
        piece = Subtask(
            cost=c,
            period=task.period,
            deadline=window,
            parent=task,
            index=1,
            kind=SubtaskKind.BODY,
        )
        return edf_schedulable(list(existing) + [piece])

    if feasible(hi):
        return hi
    lo = 0.0
    for _ in range(iterations):
        if hi - lo <= max(1e-12, 1e-10 * task.cost):
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _try_split(
    procs: List[ProcessorState], task: Task, k: int
) -> Optional[List[Tuple[ProcessorState, float]]]:
    """Window-split *task* into *k* equal windows across processors.

    Returns the chosen ``(processor, piece_cost)`` list in execution order
    when the k most capable processors can jointly cover ``C``, else None.
    """
    window = task.period / k
    capacity: List[Tuple[float, ProcessorState]] = []
    for proc in procs:
        c = max_edf_piece_cost(proc.subtasks, task, window)
        if c > EPS:
            capacity.append((c, proc))
    capacity.sort(key=lambda pair: (-pair[0], pair[1].index))
    chosen = capacity[:k]
    if len(chosen) < k or sum(c for c, _ in chosen) < task.cost - EPS:
        return None
    assignment: List[Tuple[ProcessorState, float]] = []
    remaining = task.cost
    for c, proc in chosen:
        take = min(c, remaining)
        if take > EPS:
            assignment.append((proc, take))
        remaining -= take
        if remaining <= EPS:
            break
    if remaining > EPS:
        return None
    return assignment


def partition_edf_split(
    taskset: TaskSet,
    processors: int,
    *,
    max_pieces: Optional[int] = None,
) -> PartitionResult:
    """Semi-partitioned EDF (window-constrained migration).

    Parameters
    ----------
    taskset, processors:
        The workload and platform size.
    max_pieces:
        Cap on the number of windows a task may be split into
        (default: the number of processors).
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    limit = max_pieces if max_pieces is not None else processors
    if limit < 2:
        limit = 2
    procs = [ProcessorState(index=q) for q in range(processors)]

    unassigned: List[int] = []
    split_tids: List[int] = []
    # Decreasing utilization: fat tasks are the ones that need splitting,
    # and placing them while processors are empty maximizes window room.
    for task in sorted(taskset.tasks, key=lambda t: (-t.utilization, t.tid)):
        whole = Subtask.whole(task)
        target = next(
            (p for p in procs if edf_schedulable(p.subtasks + [whole])),
            None,
        )
        if target is not None:
            target.add(task)
            continue
        placed = False
        for k in range(2, min(limit, processors) + 1):
            assignment = _try_split(procs, task, k)
            if assignment is None:
                continue
            window = task.period / k
            for j, (proc, cost) in enumerate(assignment, start=1):
                kind = (
                    SubtaskKind.TAIL
                    if j == len(assignment)
                    else SubtaskKind.BODY
                )
                proc.add(task, cost, window, j, kind)
            split_tids.append(task.tid)
            placed = True
            break
        if not placed:
            unassigned.append(task.tid)

    return PartitionResult(
        algorithm="EDF-WS",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=sorted(unassigned),
        info={"scheduler": "edf", "split_tids": sorted(split_tids)},
    )
