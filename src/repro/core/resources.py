"""Shared resources: critical sections and priority-ceiling blocking.

Real systems share locks; the paper analyzes independent tasks, and
extending its bounds to resource sharing is the natural follow-up (the
semi-partitioned resource-sharing literature, e.g. MPCP/MSRP, builds on
exactly the pieces implemented here).  This module provides the classic
*uniprocessor* machinery and applies it to strict partitioned scheduling:

* :class:`CriticalSection` / :class:`ResourceModel` — which task uses
  which resource, for how long (outermost critical sections);
* :func:`pcp_blocking_terms` — per-task blocking bounds under the
  Priority Ceiling Protocol (equivalently SRP) on one processor: each
  task can be blocked at most once, by the longest critical section of a
  lower-priority task accessing a resource with ceiling at or above its
  priority;
* :func:`partition_no_split_with_resources` — strict partitioned RM whose
  admission runs blocking-aware exact RTA
  (:func:`repro.core.rta_ext.is_schedulable_with_blocking`), with
  resource-*local* blocking only (tasks sharing a resource are not forced
  onto one processor; a remote section simply never blocks because PCP
  blocking is per-processor under partitioned scheduling with
  processor-local resources — the model MSRP calls local resources).

Task *splitting* with shared resources is explicitly out of scope — the
paper's synthetic-deadline argument does not compose with blocking, and no
claim is made here; experiment E14 therefore studies the no-split case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro._util.floats import EPS
from repro._util.validation import check_positive, check_nonnegative
from repro.core.baselines.partitioned import FitHeuristic
from repro.core.partition import PartitionResult, ProcessorState
from repro.core.rta_ext import is_schedulable_with_blocking
from repro.core.task import Subtask, TaskSet

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CriticalSection",
    "ResourceModel",
    "pcp_blocking_terms",
    "partition_no_split_with_resources",
    "random_resource_model",
]


@dataclass(frozen=True)
class CriticalSection:
    """One outermost critical section: task *tid* holds *resource* for
    *length* time units per job."""

    tid: int
    resource: str
    length: float

    def __post_init__(self) -> None:
        check_positive("length", self.length)


@dataclass
class ResourceModel:
    """The resource-usage side of a task set."""

    sections: List[CriticalSection] = field(default_factory=list)

    def add(self, tid: int, resource: str, length: float) -> None:
        self.sections.append(
            CriticalSection(tid=tid, resource=resource, length=length)
        )

    def resources(self) -> List[str]:
        return sorted({cs.resource for cs in self.sections})

    def sections_of(self, tid: int) -> List[CriticalSection]:
        return [cs for cs in self.sections if cs.tid == tid]

    def users_of(self, resource: str) -> List[int]:
        return sorted({cs.tid for cs in self.sections if cs.resource == resource})

    def max_section_of(self, tid: int) -> float:
        """Longest single critical section of task *tid* (0 if none)."""
        return max((cs.length for cs in self.sections_of(tid)), default=0.0)

    def total_section_of(self, tid: int) -> float:
        """Total critical-section time of task *tid* per job."""
        return sum(cs.length for cs in self.sections_of(tid))

    def validate_against(self, taskset: TaskSet) -> List[str]:
        """Sanity checks: known tids, sections fit inside execution times."""
        errors: List[str] = []
        known = {t.tid for t in taskset}
        by_tid: Dict[int, float] = {}
        for cs in self.sections:
            if cs.tid not in known:
                errors.append(f"critical section of unknown task {cs.tid}")
                continue
            by_tid[cs.tid] = by_tid.get(cs.tid, 0.0) + cs.length
        for t in taskset:
            if by_tid.get(t.tid, 0.0) > t.cost + EPS:
                errors.append(
                    f"task {t.tid}: critical sections "
                    f"({by_tid[t.tid]:.3f}) exceed C={t.cost:.3f}"
                )
        return errors


def pcp_blocking_terms(
    subtasks: Sequence[Subtask],
    model: ResourceModel,
) -> List[float]:
    """Per-subtask PCP/SRP blocking bounds on one processor.

    The ceiling of a resource is the highest priority (smallest tid) among
    its *local* users.  Task *i* can be blocked at most once, by the
    longest critical section of a *lower-priority* local task on a
    resource whose ceiling is at or above *i*'s priority.

    Returns blocking terms aligned with *subtasks*.
    """
    local_tids = {s.parent.tid for s in subtasks}
    ceilings: Dict[str, int] = {}
    for resource in model.resources():
        local_users = [t for t in model.users_of(resource) if t in local_tids]
        if local_users:
            ceilings[resource] = min(local_users)

    blocking: List[float] = []
    for sub in subtasks:
        prio = sub.priority
        worst = 0.0
        for cs in model.sections:
            if cs.tid not in local_tids:
                continue
            if cs.tid <= prio:  # not lower priority
                continue
            ceiling = ceilings.get(cs.resource)
            if ceiling is not None and ceiling <= prio:
                worst = max(worst, cs.length)
        blocking.append(worst)
    return blocking


def partition_no_split_with_resources(
    taskset: TaskSet,
    processors: int,
    model: ResourceModel,
    *,
    heuristic: FitHeuristic = FitHeuristic.FIRST_FIT,
    decreasing_utilization: bool = True,
) -> PartitionResult:
    """Strict partitioned RM with blocking-aware exact-RTA admission.

    Resources are processor-local (the task placement determines which
    sections can block which tasks); admission re-derives the blocking
    terms for the tentative placement and runs extended RTA.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    issues = model.validate_against(taskset)
    if issues:
        raise ValueError("; ".join(issues))
    procs = [ProcessorState(index=q) for q in range(processors)]

    def admits(proc: ProcessorState, candidate: Subtask) -> bool:
        subtasks = proc.subtasks + [candidate]
        blocking = pcp_blocking_terms(subtasks, model)
        return is_schedulable_with_blocking(subtasks, blocking)

    tasks = list(taskset.tasks)
    if decreasing_utilization:
        tasks.sort(key=lambda t: (-t.utilization, t.tid))

    unassigned: List[int] = []
    for task in tasks:
        candidate = Subtask.whole(task)
        feasible = [p for p in procs if admits(p, candidate)]
        if not feasible:
            unassigned.append(task.tid)
            continue
        if heuristic is FitHeuristic.FIRST_FIT:
            target = min(feasible, key=lambda p: p.index)
        elif heuristic is FitHeuristic.WORST_FIT:
            target = min(feasible, key=lambda p: (p.utilization, p.index))
        else:
            target = max(feasible, key=lambda p: (p.utilization, -p.index))
        target.add(task)

    return PartitionResult(
        algorithm=f"P-RM-{heuristic.value.upper()}D+PCP",
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=sorted(unassigned),
        info={
            "resources": model.resources(),
            "sections": len(model.sections),
        },
    )


def random_resource_model(
    taskset: TaskSet,
    rng: np.random.Generator,
    *,
    num_resources: int = 2,
    access_probability: float = 0.4,
    section_fraction: float = 0.1,
) -> ResourceModel:
    """A random resource model for experiments.

    Each task uses each resource with *access_probability*; a critical
    section's length is *section_fraction* of the task's execution time
    (scaled by a uniform factor in [0.5, 1.5]), capped so the per-task
    total stays below ``C_i``.
    """
    check_positive("num_resources", num_resources)
    if not 0.0 <= access_probability <= 1.0:
        raise ValueError("access_probability must lie in [0, 1]")
    check_nonnegative("section_fraction", section_fraction)
    model = ResourceModel()
    for task in taskset:
        budget = 0.9 * task.cost
        used = 0.0
        for r in range(num_resources):
            if rng.random() >= access_probability:
                continue
            length = section_fraction * task.cost * float(rng.uniform(0.5, 1.5))
            length = min(length, budget - used)
            if length <= EPS:
                continue
            model.add(task.tid, f"R{r}", length)
            used += length
    return model
