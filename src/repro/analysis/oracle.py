"""Exact schedulability oracles via exhaustive simulation.

For synchronous periodic task sets with integer parameters, simulating one
hyperperiod from the synchronous release decides RMS schedulability
*exactly* (the critical instant is at time 0 and the schedule repeats).
That makes the simulator a ground-truth oracle against which every
analytical test in this repository can be differential-tested — the
strongest correctness argument available for the RTA and DBF
implementations, run both in the test suite and as a standalone audit
(:func:`differential_audit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Task, TaskSet
from repro.sim.engine import simulate_partition

__all__ = [
    "oracle_schedulable",
    "differential_audit",
    "AuditResult",
    "random_integer_taskset",
]


def oracle_schedulable(
    taskset: TaskSet, *, scheduler: str = "fixed"
) -> Optional[bool]:
    """Ground-truth uniprocessor schedulability by hyperperiod simulation.

    Returns ``None`` when no exact horizon exists (non-integer periods or
    a hyperperiod too large to simulate); otherwise True/False.
    """
    if taskset.total_utilization > 1.0 + 1e-12:
        return False
    hyper = taskset.hyperperiod()
    if hyper is None or hyper > 1e6:
        return None
    proc = ProcessorState(index=0)
    for t in taskset:
        proc.add(t)
    partition = PartitionResult(
        algorithm="oracle",
        taskset=taskset,
        processors=[proc],
        success=True,
        info={"scheduler": scheduler},
    )
    sim = simulate_partition(partition, horizon=float(hyper))
    return sim.ok


def random_integer_taskset(
    rng: np.random.Generator,
    *,
    max_tasks: int = 5,
    max_period: int = 24,
) -> TaskSet:
    """A random task set with small integer parameters and ``U <= 1``.

    Parameters are drawn so hyperperiods stay tiny (LCM of values up to
    *max_period*), making exhaustive simulation instant.
    """
    n = int(rng.integers(2, max_tasks + 1))
    tasks: List[Task] = []
    budget = 1.0
    for _ in range(n):
        period = int(rng.integers(2, max_period + 1))
        max_cost = max(1, int(budget * period))
        if max_cost < 1:
            break
        cost = int(rng.integers(1, max_cost + 1))
        if cost / period > budget + 1e-12:
            continue
        budget -= cost / period
        tasks.append(Task(cost=float(cost), period=float(period)))
    if not tasks:
        tasks.append(Task(cost=1.0, period=float(max_period)))
    return TaskSet(tasks)


@dataclass
class AuditResult:
    """Outcome of a differential audit run."""

    trials: int
    decided: int
    disagreements: List[TaskSet]

    @property
    def clean(self) -> bool:
        return not self.disagreements


def differential_audit(
    analysis: Callable[[TaskSet], bool],
    *,
    trials: int = 200,
    seed: int = 0,
    scheduler: str = "fixed",
    analysis_is_exact: bool = True,
    max_period: int = 24,
) -> AuditResult:
    """Differential-test an analytical schedulability test against the
    simulation oracle on random integer task sets.

    With ``analysis_is_exact=True`` any disagreement is recorded; with
    ``False`` (a sufficient-only test) only *unsafe* errors — analysis
    accepts, oracle rejects — count.
    """
    rng = np.random.default_rng(seed)
    decided = 0
    disagreements: List[TaskSet] = []
    for _ in range(trials):
        ts = random_integer_taskset(rng, max_period=max_period)
        truth = oracle_schedulable(ts, scheduler=scheduler)
        if truth is None:
            continue
        decided += 1
        verdict = analysis(ts)
        if verdict != truth:
            if analysis_is_exact or (verdict and not truth):
                disagreements.append(ts)
    return AuditResult(
        trials=trials, decided=decided, disagreements=disagreements
    )
