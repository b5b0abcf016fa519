"""Exact response-time analysis (RTA) for fixed-priority uniprocessor
scheduling with constrained (synthetic) deadlines.

This is the admission test at the heart of both ``RM-TS/light`` and
``RM-TS`` (Section IV-A): a (sub)task ``tau_i^k`` fits on a processor iff
after adding it, *every* (sub)task ``tau_j^h`` on that processor has a
worst-case response time ``R_j^h <= Delta_j^h``.

Soundness of plain periodic interference terms.  Split subtasks are released
with a *constant* offset relative to the parent release: a body subtask has
the highest priority on its host processor (Lemma 2), so its response time
equals its execution time on every job, making the ready time of the next
piece a deterministic shift.  A constant shift keeps the arrival sequence
strictly periodic, so the classic critical-instant interference bound
``ceil(R / T_j) * C_j`` is exact here, and the synthetic deadline absorbs
the shift for the analyzed task itself.

Implementation notes: the fixed-point iteration is the hot path of every
acceptance-ratio sweep, and a processor in the paper's workloads hosts a
handful of subtasks, so the analysis runs on plain Python floats and
lists — NumPy's per-call dispatch would cost more than the arithmetic.
The iteration starts from the standard lower bound ``C_i + sum(C_hp)``
and aborts as soon as the response exceeds the deadline.  Sums that the
array-based code takes with ``np.sum`` go through
:func:`~repro._util.floats.pairwise_sum`, which adds in numpy's order, so
results stay bit-identical to it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, isnan
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, TypeVar

from repro._util.floats import EPS, pairwise_sum
from repro._util.invariants import check_response_monotonicity, invariants_enabled
from repro.core.task import Subtask, SubtaskRow
from repro.perf.telemetry import COUNTERS

__all__ = [
    "response_time",
    "response_times",
    "is_schedulable",
    "RTAResult",
    "RTAContext",
    "first_failure",
    "utilization_headroom",
    "hyperbolic_bound_holds",
    "liu_layland_test_holds",
]

#: Hard cap on fixed-point iterations; with U <= 1 the iteration converges in
#: far fewer steps, this only guards against pathological float cycles.
_MAX_ITER = 10_000

_NAN = float("nan")
_INF = float("inf")
_PRIORITY = attrgetter("priority")

#: What the analysis reads: ``cost``, ``period``, ``deadline``, ``priority``.
_Piece = TypeVar("_Piece", Subtask, SubtaskRow)


def response_time(
    cost: float,
    hp_costs: Sequence[float],
    hp_periods: Sequence[float],
    deadline: float,
    *,
    start: Optional[float] = None,
) -> Optional[float]:
    """Worst-case response time of one task under the given hp interference.

    Parameters
    ----------
    cost:
        Execution time of the analyzed (sub)task.
    hp_costs, hp_periods:
        Execution times and periods of strictly higher-priority (sub)tasks
        sharing the processor.
    deadline:
        The analyzed task's (synthetic) deadline; the iteration aborts and
        returns ``None`` as soon as the response exceeds it (no useful exact
        value beyond that point for admission purposes).
    start:
        Optional warm start.  Sound whenever it is a lower bound on the
        least fixed point — e.g. the task's response time under a *subset*
        of the interference (the iteration map is monotone, so any fixed
        point of the smaller map is a pre-fixed point of the larger one and
        the iteration still converges to the same least fixed point,
        producing the identical float value).

    Returns
    -------
    The smallest fixed point ``R = C + sum(ceil(R/T_j) C_j)`` if it is at
    most ``deadline`` (up to tolerance), else ``None``.  Interference sums
    accumulate left to right over the hp set in the given order.  Each hp
    task counts at least one job: a synchronous release puts one in any
    window, even one shorter than ``EPS·T``, where ``ceil(r/T - EPS)``
    alone would count none.
    """
    COUNTERS.rta_calls += 1
    if cost <= 0:
        return 0.0
    if not len(hp_costs):
        return cost if cost <= deadline + EPS else None
    r = cost
    for c in hp_costs:  # standard warm start: one job of each
        r += c
    if start is not None and start > r:
        r = start
    bound = deadline * (1.0 + 1e-12) + EPS
    iterations = 0
    for _ in range(_MAX_ITER):
        if r > bound:
            COUNTERS.rta_iterations += iterations
            return None
        iterations += 1
        r_new = cost
        for c, t in zip(hp_costs, hp_periods):
            r_new += (ceil(r / t - EPS) or 1) * c
        if r_new <= r + EPS:
            COUNTERS.rta_iterations += iterations
            return r_new if r_new <= bound else None  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
        r = r_new
    raise RuntimeError("RTA fixed point failed to converge")


def _meets_at_deadline(
    cost: float,
    hp_costs: Sequence[float],
    hp_periods: Sequence[float],
    deadline: float,
) -> bool:
    """Whether the workload at the deadline, ``W(D) = C + sum (ceil(D/T_j
    - EPS) or 1) C_j``, is at most ``D``.  ``W(D)`` adds the same terms in
    the same order as :func:`response_time`, so it is the very float one
    step of its iteration map gives at ``D`` (see :class:`RTAContext`)."""
    w = cost
    for c, p in zip(hp_costs, hp_periods):
        w += (ceil(deadline / p - EPS) or 1) * c
    return w <= deadline  # repro-lint: disable=R1 (exact: W(D) is the iteration map's own float at D)


def _fluid_start(cost: float, hp_cost: float, hp_util: float) -> Optional[float]:
    """Warm start for a candidate without a cached fixed point: the fluid
    lower bound of the iteration map, or ``None`` when ``1 - U_hp <=
    1e-6``.

    ``ceil(r/T - EPS) >= r/T - EPS``, so every fixed point satisfies
    ``R >= C - EPS * sum(C_hp) + U_hp * R``.  Without the ``EPS`` term the
    plain fluid bound ``C / (1 - U_hp)`` can overshoot a response that
    lands within the tolerance past a period multiple (merged utilization
    within ``EPS`` above 1).  The final shrink keeps float rounding from
    overshooting the least fixed point: the rounding error of ``1 -
    U_hp`` (about ``n`` ulps of 1) grows relative to it as it shrinks, so
    the margin scales with ``1 / (1 - U_hp)``.
    """
    slack = 1.0 - hp_util
    if slack > 1e-6:
        return (cost - EPS * hp_cost) / slack * (1.0 - 1e-12 - 1e-13 / slack)
    return None


def _sorted_columns(
    subtasks: Sequence[_Piece],
) -> Tuple[List[_Piece], List[float], List[float], List[float]]:
    """*subtasks* (or rows) stably sorted by priority (highest first), with
    their ``(costs, periods, deadlines)`` as float lists in that order."""
    ordered = sorted(subtasks, key=_PRIORITY)
    return (
        ordered,
        [float(s.cost) for s in ordered],
        [float(s.period) for s in ordered],
        [float(s.deadline) for s in ordered],
    )


@dataclass(frozen=True)
class RTAResult:
    """Outcome of analyzing one processor's subtask list.

    ``responses[i]`` is the response time of the i-th subtask in priority
    order, or ``nan`` when the subtask is unschedulable (response exceeds
    its synthetic deadline).  ``schedulable`` is True iff no entry is nan.
    """

    schedulable: bool
    responses: Tuple[float, ...]
    deadlines: Tuple[float, ...]

    @property
    def slacks(self) -> Tuple[float, ...]:
        """``Delta - R`` per subtask (nan where unschedulable)."""
        return tuple(d - r for d, r in zip(self.deadlines, self.responses))


def response_times(subtasks: Sequence[Subtask]) -> RTAResult:
    """Exact RTA of every subtask sharing one processor.

    Subtasks are analyzed in priority order; each one's interference set is
    all strictly-higher-priority subtasks on the processor.  Equal priorities
    cannot occur (one task contributes at most one subtask per processor and
    tids are unique).
    """
    _, costs, periods, deadlines = _sorted_columns(subtasks)
    n = len(costs)
    responses = [_NAN] * n
    ok = True
    for i in range(n):
        r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
        if r is None:
            ok = False
        else:
            responses[i] = r
    if invariants_enabled():
        check_response_monotonicity(responses, deadlines)
    return RTAResult(
        schedulable=ok, responses=tuple(responses), deadlines=tuple(deadlines)
    )


def is_schedulable(subtasks: Sequence[Subtask]) -> bool:
    """Whether every subtask on the processor meets its synthetic deadline.

    Short-circuits on the first failure (cheaper than
    :func:`response_times` inside partitioning loops).  Also applies the
    necessary utilization condition ``sum U <= 1`` up front.
    """
    if not subtasks:
        return True
    _, costs, periods, deadlines = _sorted_columns(subtasks)
    if pairwise_sum([c / t for c, t in zip(costs, periods)]) > 1.0 + EPS:
        return False
    for i in range(len(costs)):
        if response_time(costs[i], costs[:i], periods[:i], deadlines[i]) is None:
            return False
    return True


class RTAContext:
    """Cached analysis context for one processor's *fixed* subtask list.

    Holds the priority-sorted ``(C, T, Delta)`` lists plus the
    last-computed response times, so admission probes stop rebuilding and
    re-sorting per candidate.  A probe against a candidate at sorted
    position ``pos`` reuses the cache twice (Section IV-A structure):

    * subtasks with **higher** priority than the candidate are untouched —
      their interference set is unchanged, so their cached responses remain
      exact and are not re-analyzed;
    * the candidate and every **lower**-priority subtask are re-iterated,
      each warm-started from its previous fixed point (a sound lower bound
      on the new one, see :func:`response_time`), which typically converges
      in one or two iterations.

    Before any fixed point, each slot of a build or a probe (the candidate
    and each lower-priority resident) tries the linear response-time upper
    bound of Bini, Nguyen, Richard & Baruah (IEEE TC 2009)::

        R_ub = (C_i + sum_hp C_j (1 - U_j)) / (1 - sum_hp U_j)

    kept O(1) per slot by running sums along the priority order.  When
    ``U_hp <= 1 - 1e-6`` and ``R_ub <= D_i (1 - 1e-9)`` the slot is
    settled as schedulable: its response stays NaN and
    :func:`response_time` is not called.  This cannot change a decision.
    The exact least fixed point ``R*`` of ``C + sum ceil(R/T_j) C_j`` is at
    most ``R_ub``: every hp job released before ``R*`` completes by
    ``R*``, so its ``k``-th job count satisfies ``(k-1) T_j + C_j <= R*``,
    i.e. ``k C_j <= U_j R* + C_j (1 - U_j)``.  The float iteration never
    counts more than the exact one, since ``max(ceil(r/T - EPS), 1) <=
    ceil(r/T)`` for ``r > 0``, and it climbs from below, so its fixed
    point is at most ``R*``.  The margins absorb rounding in the running
    sums, so a settled slot is one :func:`is_schedulable` accepts too.

    A slot that misses the bound and has no cached response next tries its
    workload at the deadline, the first scheduling point of Lehoczky, Sha
    & Ding (1989): ``W(D) = C_i + sum_hp (ceil(D/T_j - EPS) or 1) C_j``,
    the very float the iteration map gives at ``D``
    (:func:`_meets_at_deadline`).
    When ``W(D) <= D`` exactly, the slot is settled the same way.  This
    cannot change a decision either: each float step of the map
    (division, ``ceil``, product, left-to-right sum) is monotone, so from
    any start ``r <= D`` every iterate stays at most ``W(D) <= D`` and
    :func:`response_time` accepts.  Its starts are at most ``D``: the cold
    start ``C_i + sum C_j`` is at most ``W(D)``, and the fluid start
    (:func:`_fluid_start`) lies below the float fixed point.  A slot with
    a cached response skips the test, since its warm start usually lands
    on the new fixed point at once.  Any other slot runs the exact
    iteration; a lower-priority slot with no cached response warm-starts
    from the fluid lower bound.

    All arithmetic uses the same prefixes, iteration order and sums as
    :func:`is_schedulable` on the merged list, so decisions and response
    values are bit-identical to the rebuild-from-scratch path
    (property-tested in ``tests/core/test_rta_incremental.py``).  A NaN
    response means "not computed" (or settled by either test);
    :meth:`_resolve` fills any NaN slot exactly.

    The context is mutable and has one owner, a
    :class:`~repro.core.partition.ProcessorState`, which updates it in
    place through :meth:`insert` as subtasks are assigned, swaps in a
    :meth:`copy` taken earlier to roll assignments back, and drops it on
    any other mutation (departures).  Between insertions its state only
    moves from "deferred" to "computed" (:meth:`_resolve`, the probe
    memo).  Nothing else may edit the lists: an edit made behind the
    owner's back is caught by the from-scratch check of
    :meth:`PartitionResult.validate
    <repro.core.partition.PartitionResult.validate>`, not by the context.
    """

    __slots__ = (
        "costs",
        "periods",
        "deadlines",
        "ratios",
        "util_sum",
        "prio_list",
        "implicit",
        "rm_ordered",
        "hyper_prod",
        "responses",
        "first_fail",
        "_memo",
    )

    #: ``(cost, period, deadline, priority, merged responses)`` of the last
    #: admitted probe, consumed by :meth:`insert`.
    _memo: Optional[Tuple[float, float, float, int, List[float]]]

    def __init__(self, subtasks: Sequence[_Piece]) -> None:
        self._memo = None
        if not subtasks:
            # An empty processor, the first probe of every partitioning
            # run: the values below are what the general path computes.
            self.costs: List[float] = []
            self.periods: List[float] = []
            self.deadlines: List[float] = []
            self.prio_list: List[int] = []
            self.ratios: List[float] = []
            self.util_sum = 0.0
            self.implicit = True
            self.rm_ordered = True
            self.hyper_prod = 1.0
            self.responses: List[float] = []
            self.first_fail = -1
            return
        ordered, costs, periods, deadlines = _sorted_columns(subtasks)
        self.costs = costs
        self.periods = periods
        self.deadlines = deadlines
        self.prio_list = [s.priority for s in ordered]
        # Per-subtask utilizations (elementwise, so their pairwise sum is
        # float-identical to ``is_schedulable``'s precheck on the same list).
        self.ratios = ratios = [c / t for c, t in zip(costs, periods)]
        self.util_sum = pairwise_sum(ratios)
        # Bini-Buttazzo applies only when every (synthetic) deadline equals
        # its period, i.e. nothing on the processor has been split, AND the
        # priority order is rate monotonic.  Partitioning always satisfies
        # the latter (tids are assigned in RM order), but the context must
        # stay sound for arbitrary priority-consistent inputs.
        self.implicit = all(d == t for d, t in zip(deadlines, periods))  # repro-lint: disable=R1 (exact structural check: unsplit <=> D is literally T)
        self.rm_ordered = all(a <= b for a, b in zip(periods, periods[1:]))
        hyper_prod = _INF
        if self.implicit:
            hyper_prod = 1.0
            for u in ratios:
                hyper_prod *= 1.0 + u
        self.hyper_prod = hyper_prod
        n = len(costs)
        self.responses = responses = [_NAN] * n
        # Index of the first subtask failing exact RTA, or a sentinel:
        # -1 schedulable, -2 the necessary utilization condition fails,
        # -3 analysis deferred (see :meth:`_resolve`).
        self.first_fail = -1
        if n and self.util_sum > 1.0 + EPS:
            self.first_fail = -2
            return
        # Slots the linear response bound or the deadline-point test
        # settles keep a NaN response (see the class docstring); only the
        # others run the fixed point.  ``u_hp`` and ``lin`` are the
        # prefix's ``sum U_j`` and ``sum C_j (1 - U_j)``.
        u_hp = 0.0
        lin = 0.0
        settled = 0
        pointed = 0
        for i in range(n):
            cost_i = costs[i]
            u_i = ratios[i]
            deadline_i = deadlines[i]
            if (
                u_hp <= 1.0 - 1e-6
                and cost_i + lin <= deadline_i * (1.0 - 1e-9) * (1.0 - u_hp)
            ):
                settled += 1
            else:
                hp_costs = costs[:i]
                hp_periods = periods[:i]
                if _meets_at_deadline(cost_i, hp_costs, hp_periods, deadline_i):
                    pointed += 1
                else:
                    r = response_time(cost_i, hp_costs, hp_periods, deadline_i)
                    if r is None:
                        self.first_fail = i
                        break
                    responses[i] = r
            u_hp += u_i
            lin += cost_i * (1.0 - u_i)
        COUNTERS.rta_bound_accepts += settled
        COUNTERS.rta_point_accepts += pointed

    @classmethod
    def from_rows(cls, rows: Sequence[SubtaskRow]) -> "RTAContext":
        """The context of a processor's rows (as built from their subtasks)."""
        return cls(rows)

    def copy(self) -> "RTAContext":
        """An independent copy of the lists and flags, without the probe
        memo: the context a :meth:`ProcessorState.snapshot
        <repro.core.partition.ProcessorState.snapshot>` keeps for rollback."""
        other = RTAContext.__new__(RTAContext)
        other.costs = self.costs.copy()
        other.periods = self.periods.copy()
        other.deadlines = self.deadlines.copy()
        other.ratios = self.ratios.copy()
        other.util_sum = self.util_sum
        other.prio_list = self.prio_list.copy()
        other.implicit = self.implicit
        other.rm_ordered = self.rm_ordered
        other.hyper_prod = self.hyper_prod
        other.responses = self.responses.copy()
        other.first_fail = self.first_fail
        other._memo = None
        return other

    def _resolve(self) -> int:
        """Run the deferred exact RTA of any NaN response slots.

        Lazy insertions (:meth:`insert` on the general path) postpone
        the suffix re-analysis: a body subtask lands on a processor that is
        marked full right after, so the fixed points are usually never
        needed again.  When they are — a later probe, a schedulability
        query, partition validation — this fills the missing slots exactly
        like a fresh build would (same cold starts over the same
        prefixes, hence bit-identical values and failure index).
        """
        costs = self.costs
        periods = self.periods
        deadlines = self.deadlines
        responses = self.responses
        for i in range(len(costs)):
            if not isnan(responses[i]):  # already known
                continue
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            if r is None:
                self.first_fail = i
                return i
            responses[i] = r
        self.first_fail = -1
        return -1

    @property
    def schedulable(self) -> bool:
        """Whether the current contents pass exact RTA (cached)."""
        if self.first_fail == -3:
            self._resolve()
        return self.first_fail == -1

    @property
    def utilization(self) -> float:
        """Assigned utilization, summed in priority order."""
        return self.util_sum

    def admits(
        self, cost: float, period: float, deadline: float, priority: int
    ) -> bool:
        """Incremental admission: would the processor stay schedulable if a
        subtask ``<cost, period, deadline>`` at *priority* joined?

        Decision-identical to ``is_schedulable(subtasks + [candidate])``,
        via (in order): the hyperbolic sufficient accept, the necessary
        utilization reject, and the prefix-reusing exact RTA.  Both the
        partitioner's per-piece test and the MaxSplit binary search's
        probes come through here.
        """
        COUNTERS.admission_probes += 1
        fail = self.first_fail
        if fail != -1 and (fail != -3 or self._resolve() != -1):
            return False
        cost = float(cost)
        period = float(period)
        u_c = cost / period
        pos = bisect_right(self.prio_list, priority)
        costs = self.costs
        periods = self.periods
        n = len(costs)
        # Hyperbolic pre-accept, sound when nothing is split and RM order
        # is kept.  hyper_prod is inf unless everything is
        # implicit-deadline, so the product test alone rules out most
        # probes before the RM checks.
        if (
            self.hyper_prod * (1.0 + u_c) <= 2.0 - 1e-9
            and self.implicit
            and self.rm_ordered
            and deadline == period  # repro-lint: disable=R1 (structural: hyper path needs D literally == T)
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == n or period <= periods[pos])
        ):
            COUNTERS.hyper_accepts += 1
            return True
        ratios = self.ratios
        # Necessary utilization condition.  The cheap cached-sum test is
        # conservative by a margin far above its worst-case summation-order
        # error (~n*eps); only candidates inside the margin band fall back
        # to the merged-order sum that the rebuild path compares.
        approx = self.util_sum + u_c
        if approx > 1.0 + EPS - 1e-10:
            if approx > 1.0 + EPS + 1e-10:
                return False
            m_ratios = ratios.copy()
            m_ratios.insert(pos, u_c)
            if pairwise_sum(m_ratios) > 1.0 + EPS:
                return False
        # Every slot first tries the linear response bound, O(1) on the
        # running hp sums ``u_hp = sum U_j`` and ``lin = sum C_j (1 - U_j)``
        # (see the class docstring); a settled slot keeps a NaN response.
        # The hp lists are built only for a slot that misses the bound.
        responses = self.responses
        deadline = float(deadline)
        u_hp = 0.0
        lin = 0.0
        hp_cost = 0.0
        for j in range(pos):
            c = costs[j]
            u = ratios[j]
            u_hp += u
            lin += c * (1.0 - u)
            hp_cost += c
        merged = responses[:pos]
        pointed = 0
        if u_hp <= 1.0 - 1e-6 and cost + lin <= deadline * (1.0 - 1e-9) * (
            1.0 - u_hp
        ):
            settled = 1
            merged.append(_NAN)
        else:
            settled = 0
            # The candidate's hp set is the unchanged prefix.
            top_costs = costs[:pos]
            top_periods = periods[:pos]
            if _meets_at_deadline(cost, top_costs, top_periods, deadline):
                pointed = 1
                merged.append(_NAN)
            else:
                # The fluid lower bound warm-starts the cold iteration;
                # without interferers the response is the cost and no
                # start is read.
                r = response_time(
                    cost,
                    top_costs,
                    top_periods,
                    deadline,
                    start=_fluid_start(cost, hp_cost, pairwise_sum(ratios[:pos])),
                )
                if r is None:
                    return False
                merged.append(r)
        u_hp += u_c
        lin += cost * (1.0 - u_c)
        hp_cost += cost
        deadlines = self.deadlines
        # The merged hp set of resident i is ``costs[:pos] + [cost] +
        # costs[pos:i]``; once built, the hp lists hold that of resident
        # ``done`` and grow from there (-1: not built yet).
        hp_costs: List[float] = []
        hp_periods: List[float] = []
        done = -1
        for i in range(pos, n):
            cost_i = costs[i]
            u_i = ratios[i]
            deadline_i = deadlines[i]
            if u_hp <= 1.0 - 1e-6 and cost_i + lin <= deadline_i * (1.0 - 1e-9) * (
                1.0 - u_hp
            ):
                settled += 1
                merged.append(_NAN)
            else:
                if done < 0:
                    hp_costs = costs[:pos]
                    hp_costs.append(cost)
                    hp_costs += costs[pos:i]
                    hp_periods = periods[:pos]
                    hp_periods.append(period)
                    hp_periods += periods[pos:i]
                else:
                    hp_costs += costs[done:i]
                    hp_periods += periods[done:i]
                done = i
                # Warm start: one step of the *extended* iteration map
                # applied to the cached fixed point — still a lower bound
                # on the new least fixed point (the map is monotone and the
                # old fixed point lies below it), shrunk so float rounding
                # cannot overshoot.  The iteration then typically starts at
                # its destination, and a start beyond the deadline rejects
                # without a single interference sum.  A slot with no cached
                # fixed point first tries the deadline-point test, then
                # starts from the fluid bound.
                r_prev = responses[i]
                if r_prev != r_prev and _meets_at_deadline(
                    cost_i, hp_costs, hp_periods, deadline_i
                ):
                    pointed += 1
                    merged.append(_NAN)
                else:
                    start = (
                        (r_prev + (ceil(r_prev / period - EPS) or 1) * cost)
                        * (1.0 - 1e-12)
                        if r_prev == r_prev
                        else _fluid_start(cost_i, hp_cost, u_hp)
                    )
                    r = response_time(
                        cost_i, hp_costs, hp_periods, deadline_i, start=start
                    )
                    if r is None:
                        COUNTERS.rta_bound_accepts += settled
                        COUNTERS.rta_point_accepts += pointed
                        return False
                    merged.append(r)
            u_hp += u_i
            lin += cost_i * (1.0 - u_i)
            hp_cost += cost_i
        COUNTERS.rta_bound_accepts += settled
        COUNTERS.rta_point_accepts += pointed
        self._memo = (cost, period, deadline, priority, merged)
        return True

    def insert(
        self, cost: float, period: float, deadline: float, priority: int
    ) -> None:
        """Insert the piece ``<cost, period, deadline>`` at *priority* in
        place — the incremental counterpart of rebuilding the context from
        the extended subtask list.

        The unchanged higher-priority prefix keeps its cached responses
        verbatim; the candidate and the lower-priority suffix are settled
        by the probe memo or the hyperbolic accept when possible, and
        deferred to :meth:`_resolve` otherwise.  Either way the observable
        values are bit-identical to a fresh build (same prefixes, same
        iteration maps, same sums), so
        :meth:`ProcessorState.add <repro.core.partition.ProcessorState.add>`
        maintains its context in O(n) instead of O(n^2) per mutation.
        """
        pos = bisect_right(self.prio_list, priority)
        cost = float(cost)
        period = float(period)
        deadline = float(deadline)
        u_c = cost / period
        periods = self.periods
        n = len(periods) + 1
        old_hyper = self.hyper_prod
        old_fail = self.first_fail
        self.rm_ordered = (
            self.rm_ordered
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == n - 1 or period <= periods[pos])
        )
        self.costs.insert(pos, cost)
        periods.insert(pos, period)
        self.deadlines.insert(pos, deadline)
        ratios = self.ratios
        ratios.insert(pos, u_c)
        self.prio_list.insert(pos, priority)
        self.util_sum = pairwise_sum(ratios)
        self.implicit = implicit = self.implicit and deadline == period  # repro-lint: disable=R1 (structural: split pieces have D < T)
        # Maintained as a running product: the new factor joins last, not
        # at its sorted position, so it may drift from a fresh build's
        # product by ulps, which the pre-accept margin absorbs.
        self.hyper_prod = old_hyper * (1.0 + u_c) if implicit else _INF
        memo = self._memo
        self._memo = None
        if (
            memo is not None
            and memo[0] == cost
            and memo[1] == period
            and memo[2] == deadline  # repro-lint: disable=R1 (memo key: identity of the exact floats probed)
            and memo[3] == priority
        ):
            # The candidate was just admitted through a probe of this very
            # context; its merged fixed points are already exact.
            self.responses = memo[4]
            self.first_fail = -1
            COUNTERS.ctx_memo_hits += 1
            return
        responses = self.responses
        if (
            implicit
            and self.rm_ordered
            and old_fail == -1
            and old_hyper * (1.0 + u_c) <= 2.0 - 1e-9
        ):
            # Hyperbolic sufficient accept: schedulability is settled, so
            # fixed points need not be computed now.  NaN responses mean
            # "no cached value" — later probes cold-start those slots.
            responses[pos:] = [_NAN] * (n - pos)
            self.first_fail = -1
            return
        if self.util_sum > 1.0 + EPS:
            self.responses = [_NAN] * n
            self.first_fail = -2
            return
        if 0 <= old_fail < pos:
            # The old failure is in the unchanged prefix; it fails
            # identically in the extended set.
            responses[old_fail:] = [_NAN] * (n - old_fail)
            return
        # General path: defer the exact analysis.  This case is dominated
        # by body subtasks landing on a processor that is marked full
        # immediately afterwards (Algorithm 2), so the new fixed points are
        # usually never consulted; :meth:`_resolve` computes any slot that
        # is later needed, bit-identically to a fresh build.  The valid
        # prefix responses are kept (NaN slots stay "unknown").
        responses[pos:] = [_NAN] * (n - pos)
        self.first_fail = -3


def first_failure(subtasks: Sequence[Subtask]) -> Optional[Subtask]:
    """Return the highest-priority subtask that misses its deadline, if any.

    Useful for diagnostics and for locating *bottlenecks* (Definition 2) in
    tests: increasing the top-priority cost slightly must make some subtask
    fail on a full processor.
    """
    ordered, costs, periods, deadlines = _sorted_columns(subtasks)
    for i in range(len(costs)):
        if response_time(costs[i], costs[:i], periods[:i], deadlines[i]) is None:
            return ordered[i]
    return None


def utilization_headroom(subtasks: Sequence[Subtask]) -> float:
    """``1 - sum(U)`` for the processor (may be negative)."""
    return 1.0 - float(sum(s.utilization for s in subtasks))


def hyperbolic_bound_holds(subtasks: Sequence[Subtask]) -> bool:
    """Bini-Buttazzo hyperbolic sufficient test ``prod(U_i + 1) <= 2``.

    Provided as a cheap pre-filter for implicit-deadline subtask lists; the
    partitioning algorithms use exact RTA, but tests cross-check that the
    hyperbolic bound never accepts a set exact RTA rejects (it is strictly
    weaker) when all deadlines equal periods.
    """
    prod = 1.0
    for s in subtasks:
        prod *= s.utilization + 1.0
    return prod <= 2.0 + EPS


def liu_layland_test_holds(subtasks: Sequence[Subtask]) -> bool:
    """Classic L&L sufficient test ``sum U <= n(2^{1/n} - 1)``.

    Like :func:`hyperbolic_bound_holds`, only meaningful when every subtask
    has ``Delta = T``; used by tests and by threshold-based baselines.
    """
    n = len(subtasks)
    if n == 0:
        return True
    total = float(sum(s.utilization for s in subtasks))
    return total <= n * (2.0 ** (1.0 / n) - 1.0) + EPS
