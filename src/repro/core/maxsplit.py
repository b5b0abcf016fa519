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
  scheduling points (Lehoczky/Sha/Ding, or Bini & Buttazzo's reduced
  set), so only a small set of candidate time instants is inspected.

Both handle the general case where the incoming piece is *not* the
highest-priority task on the processor (needed by RM-TS phase 3, where a
pre-assigned heavy task already lives on the target processor).

Performance layer: both variants accept an optional pre-built
:class:`~repro.core.rta.RTAContext` for the existing set, which is how
partitioning calls them.  With a context the fixed existing-set prefix is
analyzed **once per search** instead of once per probe — the binary search
probes through :meth:`~repro.core.rta.RTAContext.admits` (the cached
fixed points warm-start every probe, no re-sorting), and the
scheduling-points variant reads the context's lists directly, evaluates
Bini & Buttazzo's reduced test-point set, walks the lower-priority
constraints from the lowest priority (usually the binding one) up and
stops scanning as soon as no remaining point or constraint can lower the
result.  Without a context the rebuild-per-probe code runs over the full
point set; it is the oracle of the equivalence tests.  Results are
bit-identical either way.

The arithmetic is plain Python floats.  Each point's interference is
summed with :func:`math.fsum`, which rounds correctly, so a split cost is
the same float on every host (a BLAS reduction adds in an order that
depends on the CPU kernel it picks at run time).
"""

from __future__ import annotations

from bisect import bisect_right
from math import ceil, floor, fsum, inf
from typing import Optional, Sequence, Set

from repro._util.floats import EPS
from repro.core.rta import RTAContext, is_schedulable
from repro.core.partition import PendingPiece
from repro.core.task import Subtask
from repro.perf.telemetry import COUNTERS

__all__ = ["max_split_binary", "max_split_points", "max_split"]

#: Relative precision of the binary-search variant.
_BINARY_REL_TOL = 1e-10


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
        admits = context.admits
        period, deadline, priority = piece.period, piece.deadline, piece.priority

        def admit(cost: float) -> bool:
            return admits(cost, period, deadline, priority)
    else:
        if not is_schedulable(list(existing)):
            return 0.0

        def admit(cost: float) -> bool:
            # The piece's front part (RTA does not read the kind).
            front = Subtask(
                cost, piece.period, piece.deadline, piece.task, piece.index, piece.kind
            )
            return is_schedulable(list(existing) + [front])

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


def _full_points(periods: Sequence[float], deadline: float) -> Set[float]:
    """Lehoczky/Sha/Ding test points: every period multiple up to the
    deadline, plus the deadline itself.

    The cumulative workload ``W(t) = C + sum(ceil(t/T_j) C_j)`` only jumps
    at these points, so checking ``W(t) <= t`` there is exact.
    """
    points = {deadline}
    for t in periods:
        m = floor(deadline / t + EPS)
        points.update(t * k for k in range(1, m + 1))
    return points


def _reduced_points(periods: Sequence[float], deadline: float) -> Set[float]:
    """Bini & Buttazzo's test points ``P_{i-1}(D)`` (IEEE TC 53(11), 2004).

    ``P_0(t) = {t}`` and ``P_j(t) = P_{j-1}(floor(t/T_j) T_j) ∪
    P_{j-1}(t)``: starting from the deadline, each hp period in reverse
    priority order adds the last multiple of itself at or below every
    point found so far.  Every point is one of :func:`_full_points`
    (the same ``T * k`` product).  For periods that ascend in priority
    order some point passes the workload test iff some full point does,
    so both sets give the same largest positive slack (pinned bit for bit
    by the equivalence tests).
    """
    points = {deadline}
    for t in reversed(periods):
        for p in list(points):
            k = floor(p / t + EPS)
            if k:
                points.add(t * k)
    return points


def _interference(t: float, costs: Sequence[float], periods: Sequence[float]) -> float:
    """``sum_j ceil(t / T_j) C_j``, correctly rounded by :func:`math.fsum`
    so the value does not depend on the host's summation order."""
    return fsum([(ceil(t / p - EPS) or 1) * c for c, p in zip(costs, periods)])


def _limit(
    t: float,
    cost_j: float,
    costs: Sequence[float],
    periods: Sequence[float],
    period_new: float,
) -> float:
    """A lower-priority task's cap on the newcomer's cost at instant *t*:
    ``(t - C_j - I_hp(j)(t)) / ceil(t/T_p)``.

    Every job count here is at least one: a synchronous release puts a
    job of every task in any window, even one shorter than ``EPS·T``,
    where ``ceil(t/T - EPS)`` alone would count none.
    """
    # _interference, inlined: this is the innermost call of the search.
    numer = t - cost_j - fsum([(ceil(t / p - EPS) or 1) * c for c, p in zip(costs, periods)])
    jobs = ceil(t / period_new - EPS) or 1
    return numer / jobs


def _demand(t: float, costs: Sequence[float], periods: Sequence[float]) -> float:
    """:func:`_interference` without a list for one or two terms.

    Each term ``ceil(t/T_j) C_j`` is finite and non-negative, and
    ``fsum`` of zero, one or two such terms is ``0.0``, the term, or the
    IEEE sum (a single addition is already correctly rounded), so only
    three or more terms need ``fsum``.
    """
    k = len(costs)
    if k > 2:
        return fsum([(ceil(t / p - EPS) or 1) * c for c, p in zip(costs, periods)])
    if k == 2:
        return ((ceil(t / periods[0] - EPS) or 1) * costs[0]
                + (ceil(t / periods[1] - EPS) or 1) * costs[1])
    if k:
        return (ceil(t / periods[0] - EPS) or 1) * costs[0]
    return 0.0


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
    the minimum over all constraints, clipped to ``[0, C]``.  Every job
    count is at least one (see :func:`_limit`).

    With *context* the hp sets are prefixes of the cached lists and the
    points are Bini–Buttazzo's reduced set (the full set where the periods
    do not ascend in priority order).  Without, every constraint is
    evaluated over the full Lehoczky/Sha/Ding set: the reference the
    reduced path is tested against.
    """
    COUNTERS.maxsplit_calls += 1
    cost = piece.cost
    if cost <= 0:
        return 0.0
    prio = piece.task.tid
    period_new = float(piece.task.period)
    deadline = float(piece.deadline)

    if context is not None:
        pos = bisect_right(context.prio_list, prio)
        costs = context.costs
        periods = context.periods
        deadlines = context.deadlines
        n = len(costs)
        points = (
            _reduced_points
            if context.rm_ordered
            and (pos == 0 or periods[pos - 1] <= period_new)
            and (pos == n or period_new <= periods[pos])
            else _full_points
        )
        # Both early exits leave the result unchanged: a slack never
        # exceeds its instant, and the result is min(best, C), so neither a
        # point at or below the best slack nor a constraint with a cap of
        # at least min(best, C) can lower it.
        hp_costs = costs[:pos]
        hp_periods = periods[:pos]
        # With no hp task the deadline is the only point (the piece above
        # every resident, each RM-TS phase-2 split).
        own = sorted(points(hp_periods, deadline), reverse=True) if pos else (deadline,)
        best = -inf
        for t in own:
            if t <= best:
                break
            slack = t - _demand(t, hp_costs, hp_periods)
            if slack > best:
                best = slack
                if best >= cost:
                    break
        if best <= 0.0:
            return 0.0

        # Lowest priority first: it carries the most interference, so it
        # usually binds, and its cap lowers the bar the looser
        # constraints above it must stay under.  The order cannot change
        # the float: the result is min(C, slack, every cap), and a
        # constraint is skipped only once some point reaches a bar that
        # is never below that minimum.
        for j in range(n - 1, pos - 1, -1):
            dl_j = deadlines[j]
            cost_j = costs[j]
            hp_costs = costs[:j]
            hp_periods = periods[:j]
            bar = min(best, cost)
            # The deadline is always a test point: often it alone clears
            # the bar and the point set is never built.
            numer = dl_j - cost_j - _demand(dl_j, hp_costs, hp_periods)
            jobs = ceil(dl_j / period_new - EPS) or 1
            cap = numer / jobs
            if not cap < bar:
                continue
            with_new = hp_periods[:pos] + [period_new] + hp_periods[pos:]
            pts = points(with_new, dl_j)
            pts.discard(dl_j)  # evaluated above
            terms = list(zip(hp_costs, hp_periods))
            for t in pts:
                # _limit over _demand's sums (the same float), inlined with
                # the list for fsum: this is the innermost loop.
                if j > 2:
                    numer = t - cost_j - fsum([(ceil(t / p - EPS) or 1) * c for c, p in terms])
                else:
                    numer = t - cost_j - _demand(t, hp_costs, hp_periods)
                jobs = ceil(t / period_new - EPS) or 1
                limit = numer / jobs
                if not limit < bar:
                    break
                if limit > cap:
                    cap = limit
            else:
                best = cap
                if best <= 0.0:
                    return 0.0
        return float(min(best, cost))

    ordered = sorted(existing, key=lambda s: s.priority)
    hp = [s for s in ordered if s.priority < prio]
    lp = [s for s in ordered if s.priority > prio]
    hp_costs = [float(s.cost) for s in hp]
    hp_periods = [float(s.period) for s in hp]

    # Constraint from the incoming piece's own synthetic deadline.
    best = max(
        t - _interference(t, hp_costs, hp_periods)
        for t in _full_points(hp_periods, deadline)
    )

    # Constraints from each lower-priority task on the processor.
    for sub in lp:
        cost_j = float(sub.cost)
        cap = max(
            _limit(t, cost_j, hp_costs, hp_periods, period_new)
            for t in _full_points(hp_periods + [period_new], float(sub.deadline))
        )
        best = min(best, cap)
        if best <= 0.0:
            return 0.0
        hp_costs.append(cost_j)
        hp_periods.append(float(sub.period))

    return float(min(max(best, 0.0), cost))


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
    fast path in either variant; with it, *existing* is not read
    (partitioning passes ``()``).
    """
    if method == "points":
        return max_split_points(existing, piece, context=context)
    if method == "binary":
        return max_split_binary(existing, piece, context=context)
    raise ValueError(f"unknown MaxSplit method: {method!r}")
