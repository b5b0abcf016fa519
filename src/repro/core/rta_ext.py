"""Extended response-time analysis: release jitter and blocking terms.

The core admission test (:mod:`repro.core.rta`) implements the paper's
exact RTA for independent tasks with constant release offsets.  Two classic
generalizations are provided here as substrates for the resource-sharing
subsystem and for robustness studies:

* **release jitter** ``J_i``: a job may become ready up to ``J_i`` after
  its nominal release.  Interference from a jittery higher-priority task
  grows to ``ceil((R + J_j) / T_j) C_j`` and the analyzed task's own
  response is measured from the nominal release:
  ``R_i = J_i + w_i`` with ``w_i`` the busy window (Audsley et al.);
* **blocking** ``B_i``: the longest time a lower-priority task can hold a
  resource the analyzed task needs (priority ceiling / SRP: at most one
  outermost critical section), added once to the busy window.

The paper's split subtasks have *deterministic* offsets (body subtasks are
highest-priority on their hosts), so the core analysis needs neither term;
tests use this module to show the jitter-free analysis is the special case
``J = B = 0``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro._util.floats import EPS
from repro.core.task import Subtask

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "response_time_ext",
    "is_schedulable_with_blocking",
]

_MAX_ITER = 10_000


def response_time_ext(
    cost: float,
    hp_costs: np.ndarray,
    hp_periods: np.ndarray,
    deadline: float,
    *,
    hp_jitters: Optional[np.ndarray] = None,
    own_jitter: float = 0.0,
    blocking: float = 0.0,
) -> Optional[float]:
    """Worst-case response time with jitter and blocking terms.

    Solves the smallest fixed point of

        ``w = B + C + sum_j ceil((w + J_j) / T_j) * C_j``

    and returns ``R = J_own + w`` if it meets *deadline*, else ``None``.
    With all extras zero this reduces exactly to
    :func:`repro.core.rta.response_time`.
    """
    if cost <= 0 and blocking <= 0:
        return own_jitter if own_jitter <= deadline + EPS else None
    if blocking < 0 or own_jitter < 0:
        raise ValueError("jitter and blocking must be non-negative")
    import numpy as np

    if hp_jitters is None:
        hp_jitters = np.zeros_like(hp_costs)
    if np.any(hp_jitters < 0):
        raise ValueError("jitters must be non-negative")

    w = blocking + cost + float(hp_costs.sum()) if hp_costs.size else blocking + cost
    bound = deadline - own_jitter + EPS
    if bound < 0:
        return None
    for _ in range(_MAX_ITER):
        if w > bound * (1.0 + 1e-12) + EPS:
            return None
        if hp_costs.size:
            jobs = np.ceil((w + hp_jitters) / hp_periods - EPS)
            w_new = blocking + cost + float(np.dot(jobs, hp_costs))
        else:
            w_new = blocking + cost
        if w_new <= w + EPS:
            response = own_jitter + w_new
            return response if response <= deadline + EPS else None
        w = w_new
    raise RuntimeError("extended RTA fixed point failed to converge")


def is_schedulable_with_blocking(
    subtasks: Sequence[Subtask],
    blocking: Sequence[float],
) -> bool:
    """Exact RTA of a processor where subtask *i* suffers blocking
    ``blocking[i]`` (priority-ceiling style, charged once).

    *subtasks* and *blocking* are parallel sequences; subtasks are analyzed
    in priority order with their own blocking terms.
    """
    if len(subtasks) != len(blocking):
        raise ValueError("need one blocking term per subtask")
    import numpy as np

    order = sorted(range(len(subtasks)), key=lambda i: subtasks[i].priority)
    costs = np.array([subtasks[i].cost for i in order], dtype=float)
    periods = np.array([subtasks[i].period for i in order], dtype=float)
    deadlines = np.array([subtasks[i].deadline for i in order], dtype=float)
    blocks = np.array([float(blocking[i]) for i in order], dtype=float)
    if float((costs / periods).sum()) > 1.0 + EPS:
        return False
    for i in range(costs.size):
        r = response_time_ext(
            costs[i], costs[:i], periods[:i], deadlines[i],
            blocking=blocks[i],
        )
        if r is None:
            return False
    return True
