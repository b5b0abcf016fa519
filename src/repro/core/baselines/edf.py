"""Partitioned EDF baselines and the demand-bound-function substrate.

The related-work section positions the paper against EDF-based
semi-partitioned schedulers (EKG and successors, with bounds up to 65 %
for priority-driven variants).  For the evaluation's purposes the relevant
comparator is *partitioned* EDF:

* implicit deadlines: a processor is schedulable under EDF **iff** its
  utilization is at most 1 (Liu & Layland), so partitioned EDF is pure
  bin-packing with capacity 1;
* constrained deadlines (needed as soon as synthetic deadlines appear):
  exact analysis via the **demand bound function**
  ``dbf(t) = sum_i max(0, floor((t - D_i)/T_i) + 1) C_i`` checked at every
  absolute deadline up to a bounded horizon (processor-demand criterion of
  Baruah, Rosier & Howell).

Both tests are implemented from scratch here; the partitioner reuses the
fit heuristics of :mod:`repro.core.baselines.partitioned`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro._util.floats import EPS
from repro.core.baselines.partitioned import FitHeuristic
from repro.core.partition import PartitionResult, ProcessorState
from repro.core.task import Subtask, TaskSet

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "demand_bound_function",
    "dbf_test_points",
    "edf_schedulable",
    "partition_edf",
]


def demand_bound_function(subtasks: Sequence[Subtask], t: float) -> float:
    """EDF processor demand of *subtasks* in any interval of length *t*.

    ``dbf(t) = sum_i max(0, floor((t - D_i) / T_i) + 1) * C_i`` — the total
    execution of jobs with both release and deadline inside the interval.
    """
    if t < 0:
        raise ValueError("interval length must be non-negative")
    import numpy as np

    demand = 0.0
    for sub in subtasks:
        jobs = np.floor((t - sub.deadline) / sub.period + EPS) + 1.0
        if jobs > 0:
            demand += jobs * sub.cost
    return float(demand)


def _busy_period(
    subtasks: Sequence[Subtask], *, max_iter: int = 1_000
) -> Optional[float]:
    """Length of the synchronous EDF busy period: the smallest fixed point
    of ``L = sum_i ceil(L / T_i) C_i``.

    It suffices to check the processor-demand criterion for ``t`` inside
    the first busy period (Ripoll, Crespo & Mok), which is usually far
    shorter than the ``slack/(1-U)`` bound and stays finite even at
    ``U = 1`` for period structures with a modest hyperperiod.  Returns
    ``None`` when the iteration fails to converge in *max_iter* steps
    (degenerate float period structures near ``U = 1``).
    """
    import numpy as np

    costs = np.array([s.cost for s in subtasks], dtype=float)
    periods = np.array([s.period for s in subtasks], dtype=float)
    length = float(costs.sum())
    for _ in range(max_iter):
        nxt = float(np.dot(np.ceil(length / periods - EPS), costs))
        if nxt <= length + EPS:
            return length
        length = nxt
    return None


#: Cap on the number of DBF test points; beyond this the exact test would
#: be impractically slow, so the admission conservatively rejects (sound:
#: rejecting never admits an unschedulable set).
_MAX_DBF_POINTS = 250_000


def _dbf_horizon(subtasks: Sequence[Subtask]) -> Optional[float]:
    """A safe, *tight* horizon for the processor-demand criterion.

    ``min(busy period, slack bound)`` — both are valid horizons — and
    always at least the largest deadline.  Returns ``None`` when the set
    is overloaded (``U > 1``) or when no finite horizon of tractable size
    exists (callers must treat that as "reject").
    """
    total_u = sum(s.utilization for s in subtasks)
    if total_u > 1.0 + EPS:
        return None
    d_max = max(s.deadline for s in subtasks)
    candidates = []
    busy = _busy_period(subtasks)
    if busy is not None:
        candidates.append(busy)
    if total_u < 1.0 - 1e-9:
        slack_sum = sum(
            (s.period - s.deadline) * s.utilization for s in subtasks
        )
        candidates.append(slack_sum / (1.0 - total_u))
    if not candidates:
        return None
    horizon = max(d_max, min(candidates))
    est_points = sum(horizon / s.period + 1.0 for s in subtasks)
    if est_points > _MAX_DBF_POINTS:
        return None
    return horizon


def dbf_test_points(
    subtasks: Sequence[Subtask], horizon: float
) -> np.ndarray:
    """All absolute-deadline instants ``D_i + k T_i <= horizon``."""
    import numpy as np

    points: List[float] = []
    for sub in subtasks:
        k_max = int(np.floor((horizon - sub.deadline) / sub.period + EPS))
        if k_max < 0:
            continue
        points.extend(sub.deadline + k * sub.period for k in range(k_max + 1))
    return np.unique(np.asarray(points, dtype=float))


def edf_schedulable(subtasks: Sequence[Subtask]) -> bool:
    """Exact EDF schedulability of one processor's subtask list.

    Implicit-deadline fast path: ``U <= 1`` is necessary and sufficient.
    With constrained deadlines the processor-demand criterion
    ``forall t: dbf(t) <= t`` is checked at every deadline point up to the
    standard horizon.
    """
    if not subtasks:
        return True
    total_u = sum(s.utilization for s in subtasks)
    if total_u > 1.0 + EPS:
        return False
    if all(abs(s.deadline - s.period) <= EPS * s.period for s in subtasks):
        return True  # implicit deadlines: U <= 1 suffices under EDF
    horizon = _dbf_horizon(subtasks)
    if horizon is None:
        return False
    points = dbf_test_points(subtasks, horizon)
    if points.size == 0:
        return True
    # Vectorized demand over all test points at once (hot path of the
    # semi-partitioned EDF bisection).
    import numpy as np

    costs = np.array([s.cost for s in subtasks], dtype=float)
    periods = np.array([s.period for s in subtasks], dtype=float)
    deadlines = np.array([s.deadline for s in subtasks], dtype=float)
    jobs = np.floor((points[:, None] - deadlines[None, :]) / periods[None, :] + EPS) + 1.0
    demand = np.clip(jobs, 0.0, None) @ costs
    return bool(np.all(demand <= points * (1.0 + 1e-12) + EPS))


def partition_edf(
    taskset: TaskSet,
    processors: int,
    *,
    heuristic: FitHeuristic = FitHeuristic.FIRST_FIT,
    decreasing_utilization: bool = True,
) -> PartitionResult:
    """Partitioned EDF without splitting: bin-packing with capacity 1.

    The strongest no-splitting baseline possible — EDF is optimal on each
    processor — yet still subject to the 50 % worst-case limit of strict
    partitioning the paper's related work quotes.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    procs = [ProcessorState(index=q) for q in range(processors)]
    tasks = list(taskset.tasks)
    if decreasing_utilization:
        tasks.sort(key=lambda t: (-t.utilization, t.tid))

    unassigned: List[int] = []
    for task in tasks:
        feasible = [
            p
            for p in procs
            if p.utilization + task.utilization <= 1.0 + EPS
        ]
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
        algorithm=f"P-EDF-{heuristic.value.upper()}"
        + ("D" if decreasing_utilization else ""),
        taskset=taskset,
        processors=procs,
        success=not unassigned,
        unassigned_tids=sorted(unassigned),
        info={"heuristic": heuristic.value, "scheduler": "edf"},
    )
