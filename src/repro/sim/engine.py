"""Discrete-event simulator for partitioned scheduling with task splitting.

Simulates a :class:`~repro.core.partition.PartitionResult` at run time,
exactly as Section IV-A prescribes:

* each processor schedules its assigned (sub)tasks preemptively by the
  tasks' **original RMS priorities**;
* the pieces of a split job respect their precedence chain — piece ``k+1``
  becomes ready the instant piece ``k`` finishes on its (different)
  processor;
* releases are synchronous (all tasks release at time 0) and strictly
  periodic, which is the critical instant for this deterministic model.

The engine is event-driven (no time quantum): time only advances to the
next release, completion or deadline, so a hyperperiod with thousands of
jobs simulates in milliseconds.  It reports deadline misses, per-task and
per-piece maximal observed response times, and (optionally) a full
:class:`~repro.sim.trace.Trace` for invariant checking.

Lemma 4 ("any successfully partitioned task set is schedulable") is
validated empirically by running this engine over accepted partitions —
experiment E7 and a property-based test do exactly that.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple

from repro._util.floats import EPS
from repro.core.partition import PartitionResult
from repro.core.task import Subtask, Task
from repro.sim.model import DeadlineMiss, Job, JobPiece
from repro.sim.trace import ExecutionInterval, Trace

__all__ = ["SimulationResult", "simulate_partition", "default_horizon"]


def _grace(deadline: float) -> float:
    """Boundary tolerance for deadline checks.

    Partitions admitted exactly at a schedulability boundary finish jobs
    *exactly* at their deadlines; accumulated float drift over hundreds of
    events can land a completion a few 1e-8 past a deadline of a few
    hundred.  A relative grace of 1e-7 absorbs that drift while remaining
    physically meaningless (sub-nanosecond at millisecond scales); genuine
    misses overshoot by task-cost magnitudes.
    """
    return 1e-7 * max(1.0, abs(deadline))


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    horizon: float
    misses: List[DeadlineMiss]
    #: max observed job response time (finish - release) per tid.
    max_response: Dict[int, float]
    #: max observed piece response time (finish - ready) per (tid, piece).
    max_piece_response: Dict[Tuple[int, int], float]
    jobs_completed: int
    trace: Optional[Trace] = None
    #: per-tid list of every observed job response time (only populated
    #: with ``collect_responses=True``).
    response_samples: Optional[Dict[int, List[float]]] = None

    @property
    def ok(self) -> bool:
        """True when no deadline was missed within the horizon."""
        return not self.misses

    def response_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-task response statistics (min/mean/p95/max) from the
        collected samples; requires ``collect_responses=True``."""
        if self.response_samples is None:
            raise ValueError(
                "run simulate_partition(collect_responses=True) first"
            )
        import numpy as _np

        stats: Dict[int, Dict[str, float]] = {}
        for tid, samples in sorted(self.response_samples.items()):
            arr = _np.asarray(samples, dtype=float)
            stats[tid] = {
                "count": float(arr.size),
                "min": float(arr.min()),
                "mean": float(arr.mean()),
                "p95": float(_np.quantile(arr, 0.95)),
                "max": float(arr.max()),
            }
        return stats


def default_horizon(taskset, *, cycles: float = 3.0, fallback_periods: float = 20.0) -> float:
    """Simulation horizon: *cycles* hyperperiods when the hyperperiod is
    finite and sane, else *fallback_periods* times the largest period."""
    hp = taskset.hyperperiod()
    tmax = max(t.period for t in taskset)
    if hp is not None and hp <= 1e7:
        return float(cycles) * hp
    return float(fallback_periods) * tmax


def _piece_chains(
    partition: PartitionResult,
) -> Dict[int, List[Tuple[int, Subtask]]]:
    """Per-task ``(processor, subtask)`` chains in execution order."""
    chains: Dict[int, List[Tuple[int, Subtask]]] = {}
    for proc in partition.processors:
        for sub in proc.subtasks:
            chains.setdefault(sub.parent.tid, []).append((proc.index, sub))
    for tid in chains:
        chains[tid].sort(key=lambda pair: pair[1].index)
    return chains


def _non_negative(value: float) -> bool:
    """Finite and ``>= 0`` (False for NaN)."""
    return 0 <= value < inf


def simulate_partition(
    partition: PartitionResult,
    *,
    horizon: Optional[float] = None,
    record_trace: bool = False,
    stop_on_miss: bool = False,
    offsets: Optional[Dict[int, float]] = None,
    preemption_overhead: float = 0.0,
    migration_overhead: float = 0.0,
    scheduler: Optional[str] = None,
    release_model: str = "periodic",
    sporadic_slack: float = 0.5,
    sporadic_seed: int = 0,
    rng=None,
    collect_responses: bool = False,
) -> SimulationResult:
    """Simulate *partition* over ``[0, horizon)``.

    Jobs are released while ``release < horizon``; a deadline miss is
    recorded when a job finishes after its deadline or is still pending
    when its deadline (within the horizon) passes.

    Extensions beyond the paper's idealized model (all default off):

    * ``offsets`` — per-task first-release offsets (tid -> offset).  The
      synchronous case (all zero) is the critical instant, so offsets can
      only help; tests use this as a robustness property.
    * ``preemption_overhead`` — extra execution charged to a piece each
      time it resumes after being preempted (cache-reload/context-switch
      cost), the overhead argument the paper's related work raises against
      Pfair-style schemes.
    * ``migration_overhead`` — extra execution charged to a split task's
      successor piece when it starts on its (different) processor.
    * ``scheduler`` — per-processor dispatching rule: ``"fixed"`` (the
      paper's RMS-priority scheduling) or ``"edf"`` (earliest absolute
      piece deadline first, used by the semi-partitioned EDF baselines;
      a piece's absolute deadline is the job release plus the cumulative
      window of the chain up to and including that piece).  ``None``
      (default) follows the partition's own ``info["scheduler"]``.
    * ``release_model`` — ``"periodic"`` (strict periods, the critical
      pattern) or ``"sporadic"``: consecutive releases are separated by
      ``T * (1 + U(0, sporadic_slack))`` drawn from *rng* (seeded
      Generator; when omitted, one is built from ``sporadic_seed``, so
      the arrival pattern is explicit at the call site and reproducible
      by default).  Sporadic arrivals can only
      reduce interference, so accepted partitions must stay clean — a
      robustness property the tests exercise.

    Raises ``ValueError`` when the partition left tasks unassigned — there
    is nothing meaningful to simulate then.
    """
    if scheduler is None:
        scheduler = partition.scheduler
    if scheduler not in ("fixed", "edf"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    if partition.unassigned_tids:
        raise ValueError(
            f"partition is incomplete (unassigned: {partition.unassigned_tids})"
        )
    if horizon is None:
        horizon = default_horizon(partition.taskset)
    # Written so that NaN fails each check: a NaN horizon simulates
    # nothing and passes vacuously, an infinite one never returns.
    if not 0 < horizon < inf:
        raise ValueError(f"horizon must be a finite number > 0, got {horizon}")
    if not (_non_negative(preemption_overhead)
            and _non_negative(migration_overhead)):
        raise ValueError("overheads must be finite and non-negative")
    offsets = offsets or {}
    if not all(_non_negative(v) for v in offsets.values()):
        raise ValueError("offsets must be finite and non-negative")
    if release_model not in ("periodic", "sporadic"):
        raise ValueError(f"unknown release model {release_model!r}")
    if not _non_negative(sporadic_slack):
        raise ValueError("sporadic_slack must be finite and non-negative")
    if release_model == "sporadic":
        import numpy as _np

        rng = rng if rng is not None else _np.random.default_rng(sporadic_seed)

    chains = _piece_chains(partition)
    tasks: Dict[int, Task] = {t.tid: t for t in partition.taskset}

    # Event heaps.  Releases are generated lazily per task.
    release_heap: List[Tuple[float, int, int]] = []  # (time, tid, job_index)
    deadline_heap: List[Tuple[float, int, Job]] = []
    counter = itertools.count()
    for tid in chains:
        heapq.heappush(release_heap, (float(offsets.get(tid, 0.0)), tid, 0))

    # Per-processor ready queues and running state.
    proc_ids = [p.index for p in partition.processors]
    ready: Dict[int, List[JobPiece]] = {q: [] for q in proc_ids}
    running: Dict[int, Optional[JobPiece]] = {q: None for q in proc_ids}
    run_start: Dict[int, float] = {q: 0.0 for q in proc_ids}

    trace = Trace() if record_trace else None
    misses: List[DeadlineMiss] = []
    max_response: Dict[int, float] = {}
    max_piece_response: Dict[Tuple[int, int], float] = {}
    jobs_completed = 0
    missed_jobs: set = set()
    response_samples: Optional[Dict[int, List[float]]] = (
        {} if collect_responses else None
    )

    def close_interval(q: int, t: float) -> None:
        piece = running[q]
        if piece is None or trace is None:
            return
        trace.record(
            ExecutionInterval(
                processor=q,
                tid=piece.subtask.parent.tid,
                job_index=piece.job.index,
                piece_index=piece.subtask.index,
                start=run_start[q],
                end=t,
            )
        )

    def rank(piece: JobPiece):
        if scheduler == "edf":
            return (piece.abs_deadline, piece.priority)
        return (piece.priority, piece.abs_deadline)

    def dispatch(q: int, t: float) -> None:
        """Let the top-ranked ready piece run on processor q."""
        best: Optional[JobPiece] = None
        for piece in ready[q]:
            if best is None or rank(piece) < rank(best):
                best = piece
        if best is not running[q]:
            preempted = running[q]
            close_interval(q, t)
            if (
                preempted is not None
                and not preempted.done
                and preemption_overhead > 0.0
            ):
                # charged on resume: the preempted piece pays the
                # context-switch / cache-reload cost once more work remains
                preempted.remaining += preemption_overhead
            running[q] = best
            run_start[q] = t

    def on_piece_done(piece: JobPiece, t: float) -> None:
        nonlocal jobs_completed
        q = piece.processor
        ready[q].remove(piece)
        successor = piece.job.complete_piece(piece, t)
        key = (piece.subtask.parent.tid, piece.subtask.index)
        resp = t - (piece.ready_time if piece.ready_time is not None else 0.0)
        if resp > max_piece_response.get(key, -1.0):
            max_piece_response[key] = resp
        if successor is not None:
            if migration_overhead > 0.0:
                successor.remaining += migration_overhead
            ready[successor.processor].append(successor)
        else:
            job = piece.job
            jobs_completed += 1
            response = t - job.release
            tid = job.task.tid
            if response > max_response.get(tid, -1.0):
                max_response[tid] = response
            if response_samples is not None:
                response_samples.setdefault(tid, []).append(response)
            if t > job.deadline + _grace(job.deadline) and (
                (tid, job.index) not in missed_jobs
            ):
                missed_jobs.add((tid, job.index))
                misses.append(
                    DeadlineMiss(
                        tid=tid,
                        job_index=job.index,
                        release=job.release,
                        deadline=job.deadline,
                        finish=t,
                    )
                )

    now = 0.0
    while True:
        # Next event: release, running completion, or deadline check.
        candidates: List[float] = []
        if release_heap:
            candidates.append(release_heap[0][0])
        for q in proc_ids:
            piece = running[q]
            if piece is not None:
                candidates.append(now + piece.remaining)
        if deadline_heap:
            candidates.append(deadline_heap[0][0])
        if not candidates:
            break
        t = min(candidates)
        if t > horizon + EPS:
            break

        # Advance running pieces to t; collect completions.
        delta = t - now
        completed: List[Tuple[int, JobPiece]] = []
        for q in proc_ids:
            piece = running[q]
            if piece is None:
                continue
            piece.remaining -= delta
            if piece.remaining <= EPS:
                piece.remaining = 0.0
                completed.append((q, piece))
        now = t

        for q, piece in completed:
            close_interval(q, t)
            running[q] = None
            on_piece_done(piece, t)

        # Releases due at t.
        while release_heap and release_heap[0][0] <= t + EPS:
            rel, tid, k = heapq.heappop(release_heap)
            task = tasks[tid]
            job = Job(task=task, index=k, release=rel)
            pieces = []
            cum_window = 0.0
            for q, sub in chains[tid]:
                cum_window += sub.deadline
                pieces.append(
                    JobPiece(
                        subtask=sub,
                        job=job,
                        processor=q,
                        remaining=sub.cost,
                        # fixed-priority chains carry synthetic deadlines
                        # relative to deferred readiness; for EDF window
                        # splitting the cumulative window is the piece's
                        # absolute deadline.  Cap at the job deadline.
                        abs_deadline=rel + min(cum_window, task.period),
                    )
                )
            job.pieces = pieces
            first = job.activate()
            ready[first.processor].append(first)
            heapq.heappush(
                deadline_heap,
                (job.deadline + _grace(job.deadline), next(counter), job),
            )
            gap = task.period
            if release_model == "sporadic":
                gap *= 1.0 + float(rng.uniform(0.0, sporadic_slack))
            next_rel = rel + gap
            if next_rel < horizon - EPS:
                heapq.heappush(release_heap, (next_rel, tid, k + 1))

        # Deadline checks due at t (pending jobs past their deadline).
        while deadline_heap and deadline_heap[0][0] <= t + EPS:
            _, _, job = heapq.heappop(deadline_heap)
            key = (job.task.tid, job.index)
            if not job.done and key not in missed_jobs:
                missed_jobs.add(key)
                misses.append(
                    DeadlineMiss(
                        tid=job.task.tid,
                        job_index=job.index,
                        release=job.release,
                        deadline=job.deadline,
                        finish=None,
                    )
                )

        if stop_on_miss and misses:
            for q in proc_ids:
                close_interval(q, t)
            break

        for q in proc_ids:
            dispatch(q, t)

    # Close any still-open intervals at the end of the run.
    if trace is not None and (not stop_on_miss or not misses):
        for q in proc_ids:
            close_interval(q, now)

    return SimulationResult(
        horizon=horizon,
        misses=misses,
        max_response=max_response,
        max_piece_response=max_piece_response,
        jobs_completed=jobs_completed,
        trace=trace,
        response_samples=response_samples,
    )
