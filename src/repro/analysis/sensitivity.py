"""Sensitivity analysis: how much slack does a design have?

Designers don't just want a yes/no schedulability verdict — they want to
know how far a configuration is from the edge.  This module quantifies
that for both the analysis and the simulation side:

* :func:`critical_scaling_factor` — the largest uniform execution-time
  inflation a processor's subtask set tolerates under exact RTA (the
  classic sensitivity measure; 1.0 means "on the boundary");
* :func:`max_cost_for` — the largest execution time one subtask could
  grow to with everything still schedulable;
* :func:`partition_scaling_factor` — the minimum critical scaling factor
  across a partition's processors (the whole design's margin);
* :func:`overhead_tolerance` — the largest per-preemption overhead a
  partition survives in simulation (used by experiment E11 to probe the
  context-switch-cost argument the paper's related work makes).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.partition import PartitionResult
from repro.core.rta import is_schedulable
from repro.core.task import Subtask
from repro.sim.engine import simulate_partition

__all__ = [
    "critical_scaling_factor",
    "max_cost_for",
    "partition_scaling_factor",
    "overhead_tolerance",
]


def _scaled(subtasks: Sequence[Subtask], factor: float) -> List[Subtask]:
    return [
        Subtask(
            cost=s.cost * factor,
            period=s.period,
            deadline=s.deadline,
            parent=s.parent,
            index=s.index,
            kind=s.kind,
        )
        for s in subtasks
    ]


def critical_scaling_factor(
    subtasks: Sequence[Subtask],
    *,
    tolerance: float = 1e-6,
    max_factor: float = 100.0,
) -> float:
    """Largest uniform cost-scaling keeping the processor schedulable.

    Returns 0.0 if the set is already unschedulable; values > 1 mean
    headroom, < 1 mean the set is infeasible and must shrink.
    """
    if not subtasks:
        return max_factor
    if not is_schedulable(_scaled(subtasks, tolerance)):
        return 0.0
    lo, hi = 0.0, max_factor
    if is_schedulable(_scaled(subtasks, max_factor)):
        return max_factor
    # establish a feasible lower bracket
    probe = 1.0
    while probe > tolerance and not is_schedulable(_scaled(subtasks, probe)):
        probe /= 2.0
    lo = probe
    while hi - lo > tolerance * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if is_schedulable(_scaled(subtasks, mid)):
            lo = mid
        else:
            hi = mid
    return lo


def max_cost_for(
    subtasks: Sequence[Subtask],
    index: int,
    *,
    tolerance: float = 1e-9,
) -> float:
    """Largest execution time subtask *index* could have, all else fixed.

    Upper-bounded by its own (synthetic) deadline; 0.0 when the rest of
    the set is already infeasible without it.
    """
    target = subtasks[index]
    others = [s for i, s in enumerate(subtasks) if i != index]

    def with_cost(c: float) -> List[Subtask]:
        return others + [
            Subtask(
                cost=c,
                period=target.period,
                deadline=target.deadline,
                parent=target.parent,
                index=target.index,
                kind=target.kind,
            )
        ]

    hi = target.deadline
    if is_schedulable(with_cost(hi)):
        return hi
    if not is_schedulable(others):
        return 0.0
    lo = 0.0
    for _ in range(80):
        if hi - lo <= tolerance * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if is_schedulable(with_cost(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def partition_scaling_factor(partition: PartitionResult, **kwargs) -> float:
    """The design margin: min critical scaling factor over processors."""
    factors = [
        critical_scaling_factor(p.subtasks, **kwargs)
        for p in partition.processors
        if p.rows
    ]
    return min(factors) if factors else float("inf")


def overhead_tolerance(
    partition: PartitionResult,
    *,
    horizon: float = None,
    max_overhead: float = 1.0,
    tolerance: float = 1e-3,
) -> float:
    """Largest per-preemption overhead the partition survives in
    simulation (migration overhead applied equally).  Bisection over the
    simulator; 0.0 means even infinitesimal overhead breaks it (a
    processor filled to exactly 100 %)."""

    def survives(delta: float) -> bool:
        sim = simulate_partition(
            partition,
            horizon=horizon,
            preemption_overhead=delta,
            migration_overhead=delta,
            stop_on_miss=True,
        )
        return sim.ok

    if not survives(tolerance):
        return 0.0
    if survives(max_overhead):
        return max_overhead
    lo, hi = tolerance, max_overhead
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return lo
