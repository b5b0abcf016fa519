"""Strict partitioned RM scheduling (no task splitting).

The classic bin-packing approach the paper's related-work section bounds at
50 % worst-case utilization: every task is assigned entirely to one
processor by a fit heuristic, and the assignment is admitted by either
exact RTA or the L&L utilization test.

Included as the non-splitting baseline in the acceptance-ratio experiments
(E3): the gap between ``partition_no_split`` and the semi-partitioned
algorithms quantifies what task splitting buys.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.core.partition import (
    PartitionResult,
    ProcessorState,
    least_utilized,
)
from repro.core.rta import liu_layland_test_holds
from repro.core.task import Subtask, Task, TaskSet

__all__ = ["FitHeuristic", "partition_no_split"]


class FitHeuristic(enum.Enum):
    """Bin-packing heuristic for choosing among feasible processors."""

    #: Lowest-index feasible processor.
    FIRST_FIT = "ff"
    #: Feasible processor with the minimal assigned utilization.
    WORST_FIT = "wf"
    #: Feasible processor with the maximal assigned utilization.
    BEST_FIT = "bf"


def _ll_admits(proc: ProcessorState, candidate: Task) -> bool:
    """L&L utilization test of *proc* with *candidate* added."""
    return liu_layland_test_holds(proc.subtasks + [Subtask.whole(candidate)])


def partition_no_split(
    taskset: TaskSet,
    processors: int,
    *,
    heuristic: FitHeuristic = FitHeuristic.FIRST_FIT,
    admission: str = "rta",
    decreasing_utilization: bool = True,
) -> PartitionResult:
    """Partition without splitting, using *heuristic* + *admission*.

    Parameters
    ----------
    heuristic:
        Processor choice among those that admit the task.
    admission:
        ``"rta"`` (exact) or ``"ll"`` (L&L utilization test per processor).
    decreasing_utilization:
        Sort tasks by decreasing utilization before assigning (the usual
        FFD/WFD/BFD convention); otherwise keep RM priority order.

    Unassignable tasks are collected and the partition reported as failed —
    there is no splitting fallback by design.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    # Resolved per call, not at import, so the lookup sees the class
    # attribute as it is now.
    admits: Callable[[ProcessorState, Task], bool]
    if admission == "rta":
        admits = ProcessorState.schedulable_with
    elif admission == "ll":
        admits = _ll_admits
    else:
        raise ValueError(f"unknown admission test: {admission!r}")
    procs = [ProcessorState(index=q) for q in range(processors)]

    tasks = list(taskset.tasks)
    if decreasing_utilization:
        # ``(-U, tid)`` order: the tasks are in tid order and a reverse
        # sort is stable, so equal utilizations keep it.
        utils = [t.cost / t.period for t in tasks]
        order = sorted(range(len(tasks)), key=utils.__getitem__, reverse=True)
        tasks = [tasks[i] for i in order]

    first_fit = heuristic is FitHeuristic.FIRST_FIT
    unassigned: List[int] = []
    for task in tasks:
        target: Optional[ProcessorState] = None
        if first_fit:
            # First-fit only needs the first feasible processor, so stop
            # probing at the first admit.
            for proc in procs:
                if admits(proc, task):
                    target = proc
                    break
        else:
            feasible = [p for p in procs if admits(p, task)]
            if feasible:
                if heuristic is FitHeuristic.WORST_FIT:
                    target = least_utilized(feasible)  # index order
                else:  # BEST_FIT: most loaded feasible processor
                    target = max(
                        feasible, key=lambda p: (p.utilization, -p.index)
                    )
        if target is None:
            unassigned.append(task.tid)
        else:
            target.add(task)

    name = f"P-RM-{heuristic.value.upper()}D" if decreasing_utilization else (
        f"P-RM-{heuristic.value.upper()}"
    )
    return PartitionResult(
        algorithm=f"{name}[{admission}]",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=sorted(unassigned),
        info={"heuristic": heuristic.value, "admission": admission},
    )
