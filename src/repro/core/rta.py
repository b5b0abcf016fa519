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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.floats import EPS, pairwise_sum
from repro._util.invariants import check_response_monotonicity, invariants_enabled
from repro.core.task import Subtask
from repro.obs import metrics as _obs_metrics
from repro.perf.telemetry import COUNTERS

__all__ = [
    "response_time",
    "response_times",
    "is_schedulable",
    "RTAResult",
    "RTAContext",
    "rta_arrays",
    "first_failure",
    "utilization_headroom",
    "hyperbolic_bound_holds",
    "liu_layland_test_holds",
]

#: Hard cap on fixed-point iterations; with U <= 1 the iteration converges in
#: far fewer steps, this only guards against pathological float cycles.
_MAX_ITER = 10_000

_NAN = float("nan")
_PRIORITY = attrgetter("priority")


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
    accumulate left to right over the hp set in the given order.
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
            if _obs_metrics.ENABLED:
                _obs_metrics.RTA_ITERATIONS.observe(iterations)
            return None
        iterations += 1
        r_new = cost
        for c, t in zip(hp_costs, hp_periods):
            r_new += ceil(r / t - EPS) * c
        if r_new <= r + EPS:
            COUNTERS.rta_iterations += iterations
            if _obs_metrics.ENABLED:
                _obs_metrics.RTA_ITERATIONS.observe(iterations)
            return r_new if r_new <= bound else None  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
        r = r_new
    raise RuntimeError("RTA fixed point failed to converge")


def _fluid_start(cost: float, hp_cost: float, hp_util: float) -> Optional[float]:
    """Warm start for a candidate without a cached fixed point: the fluid
    lower bound of the iteration map, or ``None`` when ``U_hp >= 1``.

    ``ceil(r/T - EPS) >= r/T - EPS``, so every fixed point satisfies
    ``R >= C - EPS * sum(C_hp) + U_hp * R``.  Without the ``EPS`` term the
    plain fluid bound ``C / (1 - U_hp)`` can overshoot a response that
    lands within the tolerance past a period multiple (merged utilization
    within ``EPS`` above 1).  The final shrink keeps float rounding from
    overshooting the least fixed point.
    """
    if hp_util < 1.0:
        return (cost - EPS * hp_cost) / (1.0 - hp_util) * (1.0 - 1e-12)
    return None


def _sorted_columns(
    subtasks: Sequence[Subtask],
) -> Tuple[List[Subtask], List[float], List[float], List[float]]:
    """*subtasks* stably sorted by priority (highest first), with their
    ``(costs, periods, deadlines)`` as float lists in that order."""
    ordered = sorted(subtasks, key=_PRIORITY)
    return (
        ordered,
        [float(s.cost) for s in ordered],
        [float(s.period) for s in ordered],
        [float(s.deadline) for s in ordered],
    )


def rta_arrays(
    subtasks: Sequence[Subtask],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose *subtasks* into ``(costs, periods, deadlines, priorities)``
    arrays sorted by priority (highest first).

    The sort key is the parent task id, which equals the RMS priority by
    :class:`repro.core.task.TaskSet` construction.
    """
    ordered, costs, periods, deadlines = _sorted_columns(subtasks)
    return (
        np.array(costs, dtype=float),
        np.array(periods, dtype=float),
        np.array(deadlines, dtype=float),
        np.array([s.priority for s in ordered], dtype=int),
    )


@dataclass(frozen=True)
class RTAResult:
    """Outcome of analyzing one processor's subtask list.

    ``responses[i]`` is the response time of the i-th subtask in priority
    order, or ``nan`` when the subtask is unschedulable (response exceeds
    its synthetic deadline).  ``schedulable`` is True iff no entry is nan.
    """

    schedulable: bool
    responses: np.ndarray
    deadlines: np.ndarray

    @property
    def slacks(self) -> np.ndarray:
        """``Delta - R`` per subtask (nan where unschedulable)."""
        return self.deadlines - self.responses


def response_times(subtasks: Sequence[Subtask]) -> RTAResult:
    """Exact RTA of every subtask sharing one processor.

    Subtasks are analyzed in priority order; each one's interference set is
    all strictly-higher-priority subtasks on the processor.  Equal priorities
    cannot occur (one task contributes at most one subtask per processor and
    tids are unique).
    """
    _, costs, periods, deadlines = _sorted_columns(subtasks)
    n = len(costs)
    responses = np.full(n, np.nan)
    ok = True
    for i in range(n):
        r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
        if r is None:
            ok = False
        else:
            responses[i] = r
    deadline_arr = np.array(deadlines, dtype=float)
    if invariants_enabled():
        check_response_monotonicity(responses, deadline_arr)
    return RTAResult(schedulable=ok, responses=responses, deadlines=deadline_arr)


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

    All arithmetic uses the same prefixes, iteration order and sums as
    :func:`is_schedulable` on the merged list, so decisions and response
    values are bit-identical to the rebuild-from-scratch path
    (property-tested in ``tests/core/test_rta_incremental.py``).  A NaN
    response means "not computed".

    The context is logically immutable once built — internal state only
    moves monotonically from "deferred" to "computed" (:meth:`_resolve`,
    the probe memo); :class:`ProcessorState` owns invalidation (any
    mutation of the subtask list drops its cached context).
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
    #: admitted probe, consumed by :meth:`with_subtask`.
    _memo: Optional[Tuple[float, float, float, int, List[float]]]

    def __init__(self, subtasks: Sequence[Subtask]) -> None:
        ordered, costs, periods, deadlines = _sorted_columns(subtasks)
        self.costs = costs
        self.periods = periods
        self.deadlines = deadlines
        self.prio_list = [s.priority for s in ordered]
        # Per-subtask utilizations (elementwise, so their pairwise sum is
        # float-identical to ``is_schedulable``'s precheck on the same list).
        self.ratios = ratios = [c / t for c, t in zip(costs, periods)]
        self.util_sum = pairwise_sum(ratios)
        self._memo = None
        # Bini-Buttazzo applies only when every (synthetic) deadline equals
        # its period, i.e. nothing on the processor has been split, AND the
        # priority order is rate monotonic.  Partitioning always satisfies
        # the latter (tids are assigned in RM order), but the context must
        # stay sound for arbitrary priority-consistent inputs.
        self.implicit = all(d == t for d, t in zip(deadlines, periods))  # repro-lint: disable=R1 (exact structural check: unsplit <=> D is literally T)
        self.rm_ordered = all(a <= b for a, b in zip(periods, periods[1:]))
        hyper_prod = float("inf")
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
        for i in range(n):
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            if r is None:
                self.first_fail = i
                break
            responses[i] = r

    def __len__(self) -> int:
        return len(self.costs)

    def _resolve(self) -> int:
        """Run the deferred exact RTA of any NaN response slots.

        Lazy extensions (:meth:`with_subtask` on the general path) postpone
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

    def _hyper_applies(self, pos: int, period: float, deadline: float) -> bool:
        """Whether the hyperbolic pre-accept is sound for a candidate at
        sorted position *pos*: nothing split, RM order kept."""
        periods = self.periods
        return (
            self.implicit
            and self.rm_ordered
            and deadline == period  # repro-lint: disable=R1 (structural: hyper path needs D literally == T)
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == len(periods) or period <= periods[pos])
        )

    def admission_probe(
        self, period: float, deadline: float, priority: int
    ) -> Callable[[float], bool]:
        """A reusable admission test ``cost -> fits?`` for one candidate
        shape (period/deadline/priority fixed, cost varying).

        Used by the MaxSplit searches, which probe many costs of the same
        candidate: the merged lists are materialized once and only the
        candidate's cost slot is rewritten per probe.
        """
        if self.first_fail == -3:
            self._resolve()
        if self.first_fail != -1:
            return lambda cost: False
        costs = self.costs
        deadlines = self.deadlines
        responses = self.responses
        ratios = self.ratios
        n = len(costs)
        # bisect_right matches the stable sort of the rebuild path with the
        # candidate appended last (ties cannot occur for valid partitions,
        # but the probe must mirror the rebuild path exactly regardless).
        pos = bisect_right(self.prio_list, priority)
        period = float(period)
        hp_costs = costs[:pos]
        hp_periods = self.periods[:pos]
        m_costs = costs.copy()
        m_costs.insert(pos, 0.0)
        m_periods = self.periods.copy()
        m_periods.insert(pos, period)
        m_ratios = ratios.copy()
        m_ratios.insert(pos, 0.0)
        hyper = self._hyper_applies(pos, period, deadline)
        hyper_prod = self.hyper_prod
        util_sum = self.util_sum
        hp_util = pairwise_sum(ratios[:pos])
        hp_cost = 0.0
        for c in hp_costs:
            hp_cost += c
        ctx = self

        def admit(cost: float) -> bool:
            COUNTERS.admission_probes += 1
            u_c = cost / period
            if hyper and hyper_prod * (1.0 + u_c) <= 2.0 - 1e-9:
                # Hyperbolic sufficient accept (Bini-Buttazzo): implies the
                # exact-RTA accept, so the decision is unchanged; the margin
                # keeps float rounding from crossing the bound's edge.
                COUNTERS.hyper_accepts += 1
                return True
            # Necessary condition: cheap cached-sum test with a margin far
            # above its summation-order error; candidates inside the band
            # fall back to the merged-order sum the rebuild path compares
            # (elementwise division commutes with the insertion).
            approx = util_sum + u_c
            if approx > 1.0 + EPS - 1e-10:
                if approx > 1.0 + EPS + 1e-10:
                    return False
                m_ratios[pos] = u_c
                if pairwise_sum(m_ratios) > 1.0 + EPS:
                    return False
            m_costs[pos] = cost
            # The candidate itself: no cached fixed point exists; the fluid
            # bound warm-starts the iteration.
            r = response_time(
                cost,
                hp_costs,
                hp_periods,
                deadline,
                start=_fluid_start(cost, hp_cost, hp_util),
            )
            if r is None:
                return False
            merged = responses[:pos]
            merged.append(r)
            # Lower-priority suffix: warm-start each task with one step of
            # the *extended* iteration map applied to its cached fixed
            # point — still a lower bound on the new least fixed point
            # (the map is monotone and the old fixed point lies below it),
            # shrunk so float rounding cannot overshoot.  The iteration
            # then typically starts at its destination, and a start beyond
            # the deadline rejects without a single interference sum.
            for i in range(pos, n):
                r_prev = responses[i]
                start = (
                    (r_prev + ceil(r_prev / period - EPS) * cost)
                    * (1.0 - 1e-12)
                    if r_prev == r_prev
                    else None
                )
                r = response_time(
                    costs[i],
                    m_costs[: i + 1],
                    m_periods[: i + 1],
                    deadlines[i],
                    start=start,
                )
                if r is None:
                    return False
                merged.append(r)
            # Remember the last admitted candidate's merged responses: when
            # the caller commits it (ProcessorState.add -> with_subtask) the
            # extended context is assembled without re-running any RTA.
            ctx._memo = (cost, period, float(deadline), priority, merged)
            return True

        return admit

    def admits(
        self, cost: float, period: float, deadline: float, priority: int
    ) -> bool:
        """Incremental admission: would the processor stay schedulable if a
        subtask ``<cost, period, deadline>`` at *priority* joined?

        Decision-identical to ``is_schedulable(subtasks + [candidate])``,
        via (in order): the hyperbolic sufficient accept, the necessary
        utilization reject, and the prefix-reusing exact RTA.  Single-shot
        twin of :meth:`admission_probe` without the closure setup.
        """
        COUNTERS.admission_probes += 1
        if self.first_fail == -3:
            self._resolve()
        if self.first_fail != -1:
            return False
        cost = float(cost)
        period = float(period)
        u_c = cost / period
        pos = bisect_right(self.prio_list, priority)
        if (
            self._hyper_applies(pos, period, deadline)
            and self.hyper_prod * (1.0 + u_c) <= 2.0 - 1e-9
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
        # The candidate's hp set is the unchanged prefix — no merged lists
        # needed unless the suffix must be re-checked.  The fluid lower
        # bound warm-starts the cold iteration.
        costs = self.costs
        hp_costs = costs[:pos]
        hp_cost = 0.0
        for c in hp_costs:
            hp_cost += c
        periods = self.periods
        r = response_time(
            cost,
            hp_costs,
            periods[:pos],
            deadline,
            start=_fluid_start(cost, hp_cost, pairwise_sum(ratios[:pos])),
        )
        if r is None:
            return False
        n = len(costs)
        responses = self.responses
        deadlines = self.deadlines
        merged = responses[:pos]
        merged.append(r)
        if pos < n:
            m_costs = costs.copy()
            m_costs.insert(pos, cost)
            m_periods = periods.copy()
            m_periods.insert(pos, period)
            # Suffix warm start: one step of the extended map from the
            # cached fixed point (see :meth:`admission_probe`).
            for i in range(pos, n):
                r_prev = responses[i]
                start = (
                    (r_prev + ceil(r_prev / period - EPS) * cost)
                    * (1.0 - 1e-12)
                    if r_prev == r_prev
                    else None
                )
                r = response_time(
                    costs[i],
                    m_costs[: i + 1],
                    m_periods[: i + 1],
                    deadlines[i],
                    start=start,
                )
                if r is None:
                    return False
                merged.append(r)
        self._memo = (cost, period, float(deadline), priority, merged)
        return True

    def admits_subtask(self, candidate: Subtask) -> bool:
        """:meth:`admits` for a :class:`~repro.core.task.Subtask`."""
        return self.admits(
            candidate.cost,
            candidate.period,
            candidate.deadline,
            candidate.priority,
        )

    def with_subtask(self, candidate: Subtask) -> "RTAContext":
        """A new context with *candidate* inserted — the incremental
        counterpart of rebuilding from the extended subtask list.

        The unchanged higher-priority prefix keeps its cached responses
        verbatim; the candidate and the lower-priority suffix are settled
        by the probe memo or the hyperbolic accept when possible, and
        deferred to :meth:`_resolve` otherwise.  Either way the observable
        values are bit-identical to a fresh build (same prefixes, same
        iteration maps, same sums), so
        :meth:`ProcessorState.add <repro.core.partition.ProcessorState.add>`
        can maintain its cache in O(n) instead of O(n^2) per mutation.
        """
        new = RTAContext.__new__(RTAContext)
        pos = bisect_right(self.prio_list, candidate.priority)
        cost = float(candidate.cost)
        period = float(candidate.period)
        deadline = float(candidate.deadline)
        u_c = cost / period
        periods = self.periods
        # copy + insert: one allocation per list, the cheapest way to
        # build the extended columns at these sizes.
        new.costs = costs = self.costs.copy()
        costs.insert(pos, cost)
        new.periods = new_periods = periods.copy()
        new_periods.insert(pos, period)
        new.deadlines = deadlines = self.deadlines.copy()
        deadlines.insert(pos, deadline)
        new.ratios = ratios = self.ratios.copy()
        ratios.insert(pos, u_c)
        new.prio_list = prio_list = self.prio_list.copy()
        prio_list.insert(pos, candidate.priority)
        new.util_sum = pairwise_sum(ratios)
        new.implicit = self.implicit and deadline == period  # repro-lint: disable=R1 (structural: split pieces have D < T)
        new.rm_ordered = (
            self.rm_ordered
            and (pos == 0 or periods[pos - 1] <= period)
            and (pos == len(periods) or period <= periods[pos])
        )
        # Maintained as a running product: the new factor joins last, not
        # at its sorted position, so it may drift from a fresh build's
        # product by ulps, which the pre-accept margin absorbs.
        new.hyper_prod = (
            self.hyper_prod * (1.0 + u_c) if new.implicit else float("inf")
        )
        new._memo = None
        n = len(ratios)
        memo = self._memo
        if (
            memo is not None
            and memo[0] == cost
            and memo[1] == period
            and memo[2] == deadline  # repro-lint: disable=R1 (memo key: identity of the exact floats probed)
            and memo[3] == candidate.priority
        ):
            # The candidate was just admitted through a probe of this very
            # context; its merged fixed points are already exact.
            new.responses = memo[4]
            new.first_fail = -1
            COUNTERS.ctx_memo_hits += 1
            return new
        if (
            new.implicit
            and new.rm_ordered
            and self.first_fail == -1
            and self.hyper_prod * (1.0 + u_c) <= 2.0 - 1e-9
        ):
            # Hyperbolic sufficient accept: schedulability is settled, so
            # fixed points need not be computed now.  NaN responses mean
            # "no cached value" — later probes cold-start those slots.
            new.responses = self.responses[:pos] + [_NAN] * (n - pos)
            new.first_fail = -1
            return new
        if new.util_sum > 1.0 + EPS:
            new.responses = [_NAN] * n
            new.first_fail = -2
            return new
        if 0 <= self.first_fail < pos:
            # The old failure is in the unchanged prefix; it fails
            # identically in the extended set.
            keep = self.first_fail
            new.responses = self.responses[:keep] + [_NAN] * (n - keep)
            new.first_fail = keep
            return new
        # General path: defer the exact analysis.  This case is dominated
        # by body subtasks landing on a processor that is marked full
        # immediately afterwards (Algorithm 2), so the new fixed points are
        # usually never consulted; :meth:`_resolve` computes any slot that
        # is later needed, bit-identically to a fresh build.  The valid
        # prefix responses are kept (NaN slots stay "unknown").
        new.responses = self.responses[:pos] + [_NAN] * (n - pos)
        new.first_fail = -3
        return new


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
