"""Uniprocessor RMS simulation — a thin wrapper over the partitioned engine.

The paper's parametric bounds are uniprocessor results first; this wrapper
lets tests and examples cross-validate a bound or an RTA result against an
actual schedule without building a partition by hand.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Subtask, TaskSet
from repro.sim.engine import SimulationResult, simulate_partition

__all__ = ["simulate_uniprocessor", "simulate_subtasks"]


def simulate_uniprocessor(
    taskset: TaskSet,
    *,
    horizon: Optional[float] = None,
    record_trace: bool = False,
    stop_on_miss: bool = False,
) -> SimulationResult:
    """Simulate *taskset* under RMS on a single processor."""
    proc = ProcessorState(index=0)
    for task in taskset:
        proc.add(task)
    partition = PartitionResult(
        algorithm="uniprocessor-RMS",
        taskset=taskset,
        processors=[proc],
        success=True,
    )
    return simulate_partition(
        partition,
        horizon=horizon,
        record_trace=record_trace,
        stop_on_miss=stop_on_miss,
    )


def simulate_subtasks(
    subtasks: Sequence[Subtask],
    taskset: TaskSet,
    *,
    horizon: Optional[float] = None,
    record_trace: bool = False,
) -> SimulationResult:
    """Simulate an explicit subtask list (with synthetic deadlines) on one
    processor — used to cross-check RTA on constrained-deadline inputs.

    Note: deadline misses are judged against the *parent job's* deadline
    (release + period); per-piece response times are reported in
    ``max_piece_response`` for comparison against per-subtask RTA.
    """
    proc = ProcessorState(index=0)
    proc.subtasks = subtasks
    partition = PartitionResult(
        algorithm="uniprocessor-subtasks",
        taskset=taskset,
        processors=[proc],
        success=True,
        # An arbitrary subtask list is not a paper-structured partition;
        # exempt it from the debug sanitizer's well-formedness check.
        info={"synthetic": True},
    )
    return simulate_partition(
        partition, horizon=horizon, record_trace=record_trace
    )
