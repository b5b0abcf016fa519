"""Priority-assignment policies: RM, DM, and Audsley's OPA.

The paper fixes RMS (shorter period = higher priority), which is optimal
for implicit deadlines — but task splitting introduces subtasks with
*constrained* synthetic deadlines, where deadline-monotonic (DM) and, in
full generality, Audsley's Optimal Priority Assignment (OPA) are the
classic uniprocessor tools.  This module provides all three, plus the
machinery to evaluate an assignment with exact RTA:

* :func:`rate_monotonic_order` / :func:`deadline_monotonic_order` — the
  standard static orders;
* :func:`audsley_assign` — bottom-up optimal assignment: a priority level
  is given to any task schedulable at that level; OPA finds a feasible
  assignment iff one exists (for RTA-style analyses independent of the
  relative order of higher-priority tasks);
* :func:`schedulable_with_order` — exact RTA under an explicit order.

These serve as analysis substrates and as a check on the paper's design:
for the subtask sets RM-TS produces, the inherited original-priority order
is already feasible (the tests assert OPA never disagrees on accepted
partitions).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro._util.floats import EPS, pairwise_sum
from repro.core.rta import response_time
from repro.core.task import Subtask

__all__ = [
    "rate_monotonic_order",
    "deadline_monotonic_order",
    "schedulable_with_order",
    "audsley_assign",
]


def rate_monotonic_order(subtasks: Sequence[Subtask]) -> List[int]:
    """Indices of *subtasks* sorted by period (shortest first)."""
    return sorted(
        range(len(subtasks)),
        key=lambda i: (subtasks[i].period, subtasks[i].priority),
    )


def deadline_monotonic_order(subtasks: Sequence[Subtask]) -> List[int]:
    """Indices of *subtasks* sorted by (synthetic) deadline
    (shortest first) — optimal for constrained-deadline task sets among
    static orders when deadlines <= periods (Leung & Whitehead)."""
    return sorted(
        range(len(subtasks)),
        key=lambda i: (subtasks[i].deadline, subtasks[i].priority),
    )


def schedulable_with_order(
    subtasks: Sequence[Subtask], order: Sequence[int]
) -> bool:
    """Exact RTA of *subtasks* under the explicit priority *order*
    (``order[0]`` = highest priority)."""
    if sorted(order) != list(range(len(subtasks))):
        raise ValueError("order must be a permutation of subtask indices")
    costs = [float(subtasks[i].cost) for i in order]
    periods = [float(subtasks[i].period) for i in order]
    deadlines = [float(subtasks[i].deadline) for i in order]
    if pairwise_sum([c / t for c, t in zip(costs, periods)]) > 1.0 + EPS:
        return False
    for i in range(len(order)):
        if response_time(costs[i], costs[:i], periods[:i], deadlines[i]) is None:
            return False
    return True


def audsley_assign(subtasks: Sequence[Subtask]) -> Optional[List[int]]:
    """Audsley's Optimal Priority Assignment.

    Assign priority levels bottom-up: at each level, pick any task whose
    response time meets its deadline when *all remaining* tasks have
    higher priority.  Returns a feasible order (highest priority first) or
    ``None`` when no fixed-priority order is feasible.

    OPA is optimal because RTA's verdict for a task at a level depends
    only on *which* tasks are above it, not their relative order.
    """
    n = len(subtasks)
    remaining = list(range(n))
    order_low_to_high: List[int] = []
    for _level in range(n, 0, -1):
        placed = None
        for idx in remaining:
            others = [j for j in remaining if j != idx]
            hp_costs = [float(subtasks[j].cost) for j in others]
            hp_periods = [float(subtasks[j].period) for j in others]
            r = response_time(
                subtasks[idx].cost, hp_costs, hp_periods, subtasks[idx].deadline
            )
            if r is not None:
                placed = idx
                break
        if placed is None:
            return None
        order_low_to_high.append(placed)
        remaining.remove(placed)
    return list(reversed(order_low_to_high))
