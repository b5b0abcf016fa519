"""MaxSplit: the maximal portion of a (sub)task a processor can accept.

``MaxSplit(tau_i^k, P_q)`` (Definition 3) splits the pending piece into a
first part assigned to ``P_q`` and a remainder, such that

1. after assigning the first part, every (sub)task on ``P_q`` still meets
   its (synthetic) deadline under RMS, and
2. the first part is maximal — afterwards ``P_q`` has a *bottleneck*
   (Definition 2): increasing the highest-priority cost by any epsilon
   would make some task miss its deadline.

Two interchangeable implementations are provided, exactly as the paper
describes (Section IV-A):

* :func:`max_split_binary` — binary search over ``[0, C_i^k]`` using the
  exact RTA admission test as the oracle (monotone in the split cost);
* :func:`max_split_points` — the efficient closed-form variant of [22]:
  for each affected task the maximal admissible cost is computed from the
  Lehoczky/Sha/Ding scheduling points, so only a small set of candidate
  time instants is inspected.

Both handle the general case where the incoming piece is *not* the
highest-priority task on the processor (needed by RM-TS phase 3, where a
pre-assigned heavy task already lives on the target processor).

Performance layer: both variants accept an optional pre-built
:class:`~repro.core.rta.RTAContext` for the existing set, which is how
partitioning calls them.  With a context the fixed existing-set prefix is
analyzed **once per search** instead of once per probe — the binary search
probes through a reusable
:meth:`~repro.core.rta.RTAContext.admission_probe` (warm-started fixed
points, no re-sorting), and the scheduling-points variant turns the
context's priority-sorted lists into arrays once per call and slices them.
The scheduling-point arithmetic itself stays on NumPy (``np.dot``, ``@``)
in both paths: its BLAS reductions do not add in the order of a plain
Python loop, so porting it to lists would break bit-identity with the
reference.  Without a context the rebuild-per-probe code runs; it is the
oracle of the equivalence tests.  Results are bit-identical either way.
"""

from __future__ import annotations

from bisect import bisect_right
from math import floor
from typing import List, Optional, Sequence

import numpy as np

from repro._util.floats import EPS
from repro.core.rta import RTAContext, is_schedulable
from repro.core.partition import PendingPiece
from repro.core.task import Subtask
from repro.perf.telemetry import COUNTERS

__all__ = ["max_split_binary", "max_split_points", "max_split"]

#: Relative precision of the binary-search variant.
_BINARY_REL_TOL = 1e-10


def _candidate(piece: PendingPiece, cost: float) -> Subtask:
    """The piece's front part with the given cost, for admission testing.

    The RTA outcome does not depend on the subtask *kind*, so reusing the
    tail-flavored candidate with an overridden cost is exact.
    """
    base = piece.as_candidate()
    return Subtask(
        cost=cost,
        period=base.period,
        deadline=base.deadline,
        parent=base.parent,
        index=base.index,
        kind=base.kind,
    )


def max_split_binary(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    iterations: int = 64,
    context: Optional[RTAContext] = None,
) -> float:
    """Maximal admissible front cost by binary search over ``[0, C]``.

    The admission predicate ``is_schedulable(existing + front(c))`` is
    monotone non-increasing in ``c`` (more execution demand can only
    increase response times), so bisection is exact up to float precision.
    Returns a *feasible* cost (the lower end of the final bracket), 0.0 if
    nothing fits.

    With *context* the existing-set prefix is analyzed once and every probe
    reuses it; without, each probe rebuilds from scratch (seed behavior).
    """
    COUNTERS.maxsplit_calls += 1
    if piece.cost <= 0:
        return 0.0
    if context is not None:
        if not context.schedulable:
            # Invariant violation upstream: the processor must be
            # schedulable before a split is attempted.
            return 0.0
        cand = piece.as_candidate()
        admit = context.admission_probe(
            cand.period, cand.deadline, cand.priority
        )
    else:
        if not is_schedulable(list(existing)):
            return 0.0

        def admit(cost: float) -> bool:
            return is_schedulable(list(existing) + [_candidate(piece, cost)])

    hi = piece.cost
    if admit(hi):
        return hi
    lo = 0.0
    tol = max(_BINARY_REL_TOL * piece.cost, 1e-14)
    for _ in range(iterations):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if admit(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scheduling_points(periods: np.ndarray, deadline: float) -> np.ndarray:
    """Lehoczky/Sha/Ding test points: every period multiple up to the
    deadline, plus the deadline itself.

    The cumulative workload ``W(t) = C + sum(ceil(t/T_j) C_j)`` only jumps
    at these points, so checking ``W(t) <= t`` there is exact.
    """
    points: List[float] = [deadline]
    for t in periods:
        m = int(np.floor(deadline / t + EPS))
        points.extend(float(t) * k for k in range(1, m + 1))
    return np.unique(np.asarray(points, dtype=float))


def _scheduling_points_fast(periods: List[float], deadline: float) -> np.ndarray:
    """:func:`_scheduling_points` for the context path: identical values
    (same IEEE products, exact dedup, ascending order) built with python
    set/sort instead of ``np.unique``'s array machinery."""
    points = {deadline}
    for t in periods:
        m = floor(deadline / t + EPS)
        points.update(t * k for k in range(1, m + 1))
    return np.array(sorted(points), dtype=float)


def _interference(t: np.ndarray, costs: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """``sum_j ceil(t / T_j) C_j`` for a vector of instants *t*."""
    if costs.size == 0:
        return np.zeros_like(t)
    jobs = np.ceil(t[:, None] / periods[None, :] - EPS)
    return jobs @ costs


def max_split_points(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    context: Optional[RTAContext] = None,
) -> float:
    """Maximal admissible front cost via exact scheduling-point analysis.

    For the incoming piece itself (priority *p*):
    feasible iff some point ``t <= Delta`` satisfies
    ``c + I_hp(t) <= t``, giving ``c <= max_t (t - I_hp(t))``.

    For every task *j* with lower priority than the piece:
    feasible iff some point ``t <= Delta_j`` satisfies
    ``C_j + I_hp(j)(t) + ceil(t/T_p) c <= t``, giving
    ``c <= max_t (t - C_j - I_hp(j)(t)) / ceil(t/T_p)``.

    Higher-priority tasks are unaffected by the newcomer.  The result is
    the minimum over all constraints, clipped to ``[0, C]``.

    With *context* the priority-sorted arrays are read as slices of the
    cached existing-set prefix (no per-call sorting or concatenation).
    """
    COUNTERS.maxsplit_calls += 1
    if piece.cost <= 0:
        return 0.0
    prio = piece.task.tid
    period_new = piece.task.period

    if context is not None:
        # The hp set of the j-th lower-priority task is exactly the sorted
        # prefix of the cached lists — built into arrays once per search,
        # then sliced as zero-copy views without re-sorting.
        pos = bisect_right(context.prio_list, prio)
        period_list = context.periods
        all_costs = np.array(context.costs, dtype=float)
        all_periods = np.array(period_list, dtype=float)
        hp_costs = all_costs[:pos]
        hp_periods = all_periods[:pos]
        lp_costs = context.costs[pos:]
        lp_deadlines = context.deadlines[pos:]
        n_lp = len(lp_costs)

        # The result is min(best, C) in the end, so a constraint whose cap
        # provably reaches C cannot bind.  Evaluating the slack at the
        # single point t = Delta_j lower-bounds the cap (the deadline is
        # always in the point set); if even that clears C — with a margin
        # far above any summation-order ulp between this dot product and
        # the vectorized full evaluation — the whole point enumeration for
        # that constraint is skipped, leaving the final value unchanged.
        skip_at = piece.cost * (1.0 + 1e-9) + 1e-9
        best = np.inf

        dl = piece.deadline
        quick = dl - (
            float(np.dot(np.ceil(dl / hp_periods - EPS), hp_costs))
            if pos
            else 0.0
        )
        if quick < skip_at:
            pts = _scheduling_points_fast(period_list[:pos], dl)
            slack = pts - _interference(pts, hp_costs, hp_periods)
            best = float(slack.max()) if slack.size else dl

        for idx in range(n_lp):
            j = pos + idx
            dl_j = lp_deadlines[idx]
            interf = (
                float(np.dot(np.ceil(dl_j / all_periods[:j] - EPS), all_costs[:j]))
                if j
                else 0.0
            )
            denom_dl = np.ceil(dl_j / period_new - EPS)
            if denom_dl > 0:
                quick = (dl_j - lp_costs[idx] - interf) / denom_dl
                if quick >= skip_at:
                    continue
            pts = _scheduling_points_fast(
                period_list[:j] + [period_new],
                dl_j,
            )
            numer = (
                pts
                - lp_costs[idx]
                - _interference(pts, all_costs[:j], all_periods[:j])
            )
            denom = np.ceil(pts / period_new - EPS)
            with np.errstate(divide="ignore", invalid="ignore"):
                limits = numer / denom
            cap = float(limits.max()) if limits.size else 0.0
            best = min(best, cap)
            if best <= 0.0:
                return 0.0

        return float(min(max(best, 0.0), piece.cost))

    ordered = sorted(existing, key=lambda s: s.priority)
    hp = [s for s in ordered if s.priority < prio]
    lp = [s for s in ordered if s.priority > prio]
    hp_costs = np.array([s.cost for s in hp], dtype=float)
    hp_periods = np.array([s.period for s in hp], dtype=float)

    # Constraint from the incoming piece's own synthetic deadline.
    pts = _scheduling_points(hp_periods, piece.deadline)
    slack = pts - _interference(pts, hp_costs, hp_periods)
    best = float(slack.max()) if slack.size else piece.deadline

    # Constraints from each lower-priority task on the processor.
    for idx, sub in enumerate(lp):
        hp_of_sub_costs = np.concatenate(
            [hp_costs, np.array([s.cost for s in lp[:idx]], dtype=float)]
        )
        hp_of_sub_periods = np.concatenate(
            [hp_periods, np.array([s.period for s in lp[:idx]], dtype=float)]
        )
        pts = _scheduling_points(
            np.concatenate([hp_of_sub_periods, [period_new]]), sub.deadline
        )
        numer = pts - sub.cost - _interference(pts, hp_of_sub_costs, hp_of_sub_periods)
        denom = np.ceil(pts / period_new - EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = numer / denom
        cap = float(limits.max()) if limits.size else 0.0
        best = min(best, cap)
        if best <= 0.0:
            return 0.0

    return float(min(max(best, 0.0), piece.cost))


def max_split(
    existing: Sequence[Subtask],
    piece: PendingPiece,
    *,
    method: str = "points",
    context: Optional[RTAContext] = None,
) -> float:
    """Dispatch to a MaxSplit implementation (``"points"`` or ``"binary"``).

    ``"points"`` is the default: exact and much faster on processors with
    many scheduling points (benchmarked in E10).  *context* (optional) is a
    pre-built analysis context of *existing* enabling the prefix-reusing
    fast path in either variant.
    """
    if method == "points":
        return max_split_points(existing, piece, context=context)
    if method == "binary":
        return max_split_binary(existing, piece, context=context)
    raise ValueError(f"unknown MaxSplit method: {method!r}")
