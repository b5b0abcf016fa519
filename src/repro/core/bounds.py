"""Parametric utilization bounds (PUBs) for uniprocessor RMS.

Section III of the paper lists the bounds generalized to multiprocessors by
``RM-TS/light`` and ``RM-TS``:

* the Liu & Layland bound ``Theta(N) = N (2^{1/N} - 1)``,
* the harmonic-chain bound ``K (2^{1/K} - 1)`` of Kuo & Mok, where *K* is
  the number of harmonic chains (the 100 % bound for harmonic task sets is
  the ``K = 1`` special case),
* the T-Bound and R-Bound of Lauzac, Melhem & Mossé, based on *scaled
  periods*.

All of these are **deflatable** (Lemma 1): the value computed from the
original task set's parameters remains a valid bound for any task set
obtained by decreasing execution times — the property required for
partitioned scheduling, where each processor sees a cost-deflated subset.
Every bound here depends only on periods and the task count, which makes
deflatability immediate; the test suite verifies it empirically against
exact RTA.

The minimum number of harmonic chains is computed exactly as a minimum
chain cover of the period divisibility order via Dilworth's theorem
(maximum bipartite matching on the transitively-closed relation).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._util.floats import EPS, is_integer_multiple, pairwise_sum
from repro.core.task import TaskSet

__all__ = [
    "ll_bound",
    "light_task_threshold",
    "rmts_bound_cap",
    "rmts_guaranteed",
    "scaled_periods",
    "harmonic_chain_count",
    "harmonic_chains",
    "ParametricUtilizationBound",
    "LiuLaylandBound",
    "HarmonicChainBound",
    "TBound",
    "RBound",
    "ConstantBound",
    "SpecializationBound",
    "harmonize_periods",
    "best_bound_value",
    "BoundEvaluation",
    "evaluate_bounds",
    "theoretical_limits",
    "ALL_BOUNDS",
]


def ll_bound(n: int) -> float:
    """Liu & Layland bound ``Theta(N) = N (2^{1/N} - 1)``.

    Monotonically decreasing in *N*, approaching ``ln 2 ~= 0.6931``.
    ``Theta(0)`` is defined as 1.0 (an empty set is trivially schedulable)
    and ``Theta(1) = 1``.
    """
    if n < 0:
        raise ValueError("task count must be non-negative")
    if n == 0:
        return 1.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def light_task_threshold(n: int) -> float:
    """``Theta / (1 + Theta)`` — the light-task cutoff of Definition 1.

    Approaches ``ln 2 / (1 + ln 2) ~= 40.9 %`` as ``N -> inf``.
    """
    theta = ll_bound(n)
    return theta / (1.0 + theta)


def rmts_guaranteed(u_norm: float, lam: float) -> bool:
    """The RM-TS guarantee verdict ``U_M <= Lambda`` (Theorem 8).

    *lam* is the capped bound ``min(Lambda(tau), 2Theta/(1+Theta))``;
    the comparison allows the package's absolute tolerance ``EPS``.
    """
    return bool(u_norm <= lam + EPS)


def rmts_bound_cap(n: int) -> float:
    """``2 Theta / (1 + Theta)`` — the cap on D-PUBs usable by RM-TS.

    Approaches ``2 ln 2 / (1 + ln 2) ~= 81.8 %`` as ``N -> inf``
    (Section V: RM-TS achieves ``min(Lambda(tau), 2Theta/(1+Theta))``).
    """
    theta = ll_bound(n)
    return 2.0 * theta / (1.0 + theta)


# ---------------------------------------------------------------------------
# Scaled periods (Lauzac, Melhem & Mossé) and harmonic chain analysis
# ---------------------------------------------------------------------------


def _octave(ratio: float) -> int:
    """``floor(log2(ratio))``, forgiving ratios an ``EPS`` below a power
    of two."""
    return math.floor(math.log2(ratio) + EPS)


#: ``frexp`` mantissas below this are at least ``1.4e-8`` (in ``log2``)
#: under the next power of two, well clear of the ``EPS`` forgiveness.
_OCTAVE_SAFE = 1.0 - 1e-8


def scaled_periods(periods: Sequence[float]) -> List[float]:
    """Scaled periods ``T'_i = T_i * 2^{floor(log2(T_max / T_i))}``.

    Every scaled period lands in ``(T_max / 2, T_max]``; for a harmonic set
    whose period ratios are powers of two, all scaled periods coincide.
    Returned sorted ascending (the order the T-Bound formula expects).
    """
    ps = [float(p) for p in periods]
    if any(p <= 0 for p in ps):
        raise ValueError("periods must be positive")
    tmax = max(ps, default=0.0)
    return sorted(math.ldexp(p, _octave(tmax / p)) for p in ps)


def harmonic_chains(
    periods: Sequence[float], *, rel: float = 1e-6
) -> List[List[int]]:
    """Partition task indices into a *minimum* number of harmonic chains.

    A chain is a set of periods that pairwise divide one another.  The
    minimum chain cover of the divisibility partial order is computed via
    Dilworth's theorem: it equals ``N - |maximum matching|`` on the
    bipartite graph of the (transitively closed) divisibility relation.
    Divisibility is transitive, so sorting by period and linking every
    comparable pair already yields the closure.

    Returns a list of chains, each a list of indices into *periods*.
    """
    ps = list(periods)
    n = len(ps)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: ps[i])
    # adj[a]: sorted positions b > a whose period is a multiple of a's.
    adj: List[List[int]] = [
        [
            b
            for b in range(a + 1, n)
            if is_integer_multiple(ps[order[a]], ps[order[b]], rel=rel)
        ]
        for a in range(n)
    ]
    succ = _max_matching(adj)
    # Follow successor links to reconstruct the chains.
    has_pred = set(v for v in succ if v >= 0)
    chains: List[List[int]] = []
    for start in range(n):
        if start in has_pred:
            continue
        chain = [order[start]]
        cur = start
        while succ[cur] >= 0:
            cur = succ[cur]
            chain.append(order[cur])
        chains.append(chain)
    return chains


def _max_matching(adj: List[List[int]]) -> List[int]:
    """Hopcroft-Karp maximum matching of ``n`` left onto ``n`` right vertices.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u``.
    Returns ``mate[u]``, the right vertex matched to ``u`` or ``-1``.
    Both searches are iterative: the augmenting paths of a fully harmonic
    set are as long as the set, deeper than Python's recursion limit.
    """
    n = len(adj)
    mate = [-1] * n
    owner = [-1] * n  # right vertex -> matched left vertex
    for left in range(n):  # greedy start: most sets need no augmentation
        for right in adj[left]:
            if owner[right] < 0:
                mate[left], owner[right] = right, left
                break
    while True:
        # BFS: layer the left vertices by alternating distance from the
        # free ones; stop when no free right vertex is reachable.
        layer = [-1] * n
        queue = [left for left in range(n) if mate[left] < 0]
        for left in queue:
            layer[left] = 0
        reachable = False
        for left in queue:  # the list grows while it is walked
            for right in adj[left]:
                nxt = owner[right]
                if nxt < 0:
                    reachable = True
                elif layer[nxt] < 0:
                    layer[nxt] = layer[left] + 1
                    queue.append(nxt)
        if not reachable:
            return mate
        # DFS along the layers from each free left vertex, augmenting
        # the first path found; dead ends leave the layering.
        cursor = [0] * n
        for root in range(n):
            if mate[root] >= 0:
                continue
            stack = [root]
            while stack:
                left = stack[-1]
                if cursor[left] >= len(adj[left]):
                    layer[left] = -1
                    stack.pop()
                    continue
                right = adj[left][cursor[left]]
                cursor[left] += 1
                nxt = owner[right]
                if nxt < 0:
                    for node in stack:
                        matched = adj[node][cursor[node] - 1]
                        mate[node], owner[matched] = matched, node
                    break
                if layer[nxt] == layer[left] + 1:
                    stack.append(nxt)


def harmonic_chain_count(periods: Sequence[float], *, rel: float = 1e-6) -> int:
    """Minimum number of harmonic chains covering *periods* (``K``)."""
    return max(1, len(harmonic_chains(periods, rel=rel))) if len(periods) else 0


# ---------------------------------------------------------------------------
# Bound objects
# ---------------------------------------------------------------------------


class ParametricUtilizationBound(ABC):
    """A deflatable parametric utilization bound ``Lambda(tau)``.

    ``value(taskset)`` applies the bound function to the task set's
    parameters; the result is a utilization threshold valid for uniprocessor
    RMS on the set *and on any cost-deflation of it* (Lemma 1).  The
    multiprocessor algorithms use the value as a per-processor threshold in
    their guarantees and (for RM-TS) in the pre-assignment condition.
    """

    #: Short identifier used in tables and experiment output.
    name: str = "PUB"

    @abstractmethod
    def value(self, taskset: TaskSet) -> float:
        """The bound ``Lambda(tau)`` computed from *taskset*'s parameters."""

    def capped_value(self, taskset: TaskSet) -> float:
        """``min(Lambda(tau), 2 Theta/(1+Theta))`` — what RM-TS can achieve."""
        return min(self.value(taskset), rmts_bound_cap(len(taskset)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LiuLaylandBound(ParametricUtilizationBound):
    """``Theta(N) = N (2^{1/N} - 1)`` — the baseline D-PUB."""

    name = "L&L"

    def value(self, taskset: TaskSet) -> float:
        return ll_bound(len(taskset))


class HarmonicChainBound(ParametricUtilizationBound):
    """Kuo & Mok's ``K (2^{1/K} - 1)`` with *K* = number of harmonic chains.

    ``K = 1`` (fully harmonic) gives the 100 % bound the paper's first
    instantiation uses.
    """

    name = "HC"

    def value(self, taskset: TaskSet) -> float:
        # K = 0 for the empty set, and Theta(0) = 1.
        return ll_bound(harmonic_chain_count([t.period for t in taskset]))


class TBound(ParametricUtilizationBound):
    """Lauzac et al.'s period-aware bound on scaled periods.

    ``T-Bound = sum_{i<N} T'_{i+1}/T'_i + 2 T'_1/T'_N - N`` with ``T'``
    the sorted scaled periods.  Equals 1 when all scaled periods coincide
    (power-of-two harmonic sets) and never falls below ``Theta(N)``.
    """

    name = "T-Bound"

    def value(self, taskset: TaskSet) -> float:
        n = len(taskset)
        if n == 0:
            return 1.0
        sp = scaled_periods([t.period for t in taskset])
        ratio_sum = pairwise_sum([b / a for a, b in zip(sp, sp[1:])])
        return ratio_sum + 2.0 * (sp[0] / sp[-1]) - n


class RBound(ParametricUtilizationBound):
    """Lauzac et al.'s bound using only the scaled-period spread ``r``.

    ``R-Bound = (N-1)(r^{1/(N-1)} - 1) + 2/r - 1`` with
    ``r = T'_max / T'_min`` in ``[1, 2)`` (scaled periods all lie within a
    factor-two band).  Sanity anchors: ``r = 1`` (power-of-two harmonic)
    gives 1.0; ``r -> 2`` degrades to the L&L bound of ``N - 1`` tasks.
    More abstract (hence never larger) than the T-Bound.
    """

    name = "R-Bound"

    def value(self, taskset: TaskSet) -> float:
        n = len(taskset)
        if n == 0:
            return 1.0
        sp = scaled_periods([t.period for t in taskset])
        r = sp[-1] / sp[0]
        if n == 1:
            return 2.0 / r - 1.0
        return (n - 1) * (r ** (1.0 / (n - 1)) - 1.0) + 2.0 / r - 1.0


class SpecializationBound(ParametricUtilizationBound):
    """Han & Tyan's Sr/DCT bound: specialize periods onto a ``b * 2^k``
    grid and exploit the 100 % harmonic bound.

    For a base ``b``, each period is rounded *down* to
    ``T'_i = b * 2^{floor(log2(T_i / b))}`` — the transformed set is
    harmonic, shortening a period only inflates demand, so schedulability
    of the transformed set implies schedulability of the original.  The
    per-task inflation is ``f_i = T_i / T'_i in [1, 2)``, and

        ``U(tau) <= 1 / max_i f_i(b)``

    guarantees the transformed utilization stays at most 1.  The bound
    maximizes over every task period as the candidate base (the classic
    Sr sweep).  Anchors: harmonic power-of-two sets give 1.0; the value
    always lies in ``(1/2, 1]``; like every bound here it reads only
    periods, hence is deflatable.
    """

    name = "Sr-Bound"

    def value(self, taskset: TaskSet) -> float:
        n = len(taskset)
        if n == 0:
            return 1.0
        periods = [float(t.period) for t in taskset]
        best = 0.0
        for _, worst in _worst_inflations(periods):
            best = max(best, 1.0 / worst)
        return min(best, 1.0)


def _grid(period: float, base: float) -> float:
    """The ``base * 2^k`` grid value at or just below *period*; periods
    smaller than the base use negative exponents (the grid extends down)."""
    return math.ldexp(base, _octave(period / base))


def _worst_inflations(periods: Sequence[float]) -> List[Tuple[float, float]]:
    """``(base, max_i T_i / T'_i)`` for each distinct period as the grid
    base, in ascending base order.

    ``T_i / T'_i`` is ``x / 2^k`` for ``x = T_i / base`` and ``k`` its
    :func:`_octave`, and dividing by a power of two is exact.  So ``x``
    has the ``frexp`` mantissa ``m`` of the quotient of the two periods'
    mantissas, and while ``m`` stays below :data:`_OCTAVE_SAFE` the ratio
    is exactly ``2 m``.  Rounded division is monotone, so the largest
    ``m`` comes from the largest mantissa at or above the base's or the
    largest one below it: two divisions per base, not one per period.  A
    base whose largest ``m`` is not safely below 1 is evaluated period
    by period.
    """
    frexp = math.frexp
    mantissas = sorted(frexp(p)[0] for p in periods)
    out = []
    for base in sorted(set(periods)):
        mb = frexp(base)[0]
        top = frexp(mantissas[-1] / mb)[0]
        below = bisect_left(mantissas, mb)
        if below:
            top = max(top, frexp(mantissas[below - 1] / mb)[0])
        if top < _OCTAVE_SAFE:
            worst = 2.0 * top
        else:
            worst = max(p / _grid(p, base) for p in periods)
        out.append((base, worst))
    return out


def harmonize_periods(taskset: TaskSet, base: Optional[float] = None) -> TaskSet:
    """Han-Tyan period specialization: the harmonic task set obtained by
    rounding every period down to the ``base * 2^k`` grid.

    With no *base* given, the base maximizing the Sr bound (minimizing the
    worst inflation) is chosen.  The result is harmonic (single chain),
    has pointwise ``T'_i <= T_i`` and the same costs, so its
    schedulability implies the original's — and it qualifies for the
    paper's 100 % multiprocessor bound when light (E1).  Raises
    ``ValueError`` if any cost no longer fits its shortened period.
    """
    if len(taskset) == 0:
        return taskset
    periods = [float(t.period) for t in taskset]
    if base is None:
        best_base, best_worst = None, float("inf")
        for candidate, worst in _worst_inflations(periods):
            if worst < best_worst:
                best_base, best_worst = candidate, worst
        base = best_base
    if base <= 0:
        raise ValueError("base period must be positive")
    from repro.core.task import Task

    return TaskSet(
        Task(cost=t.cost, period=_grid(p, base), name=t.name)
        for t, p in zip(taskset, periods)
    )


class ConstantBound(ParametricUtilizationBound):
    """A fixed threshold, e.g. the 100 % bound for known-harmonic systems.

    Useful to instantiate the paper's examples directly and as an ablation
    (feeding RM-TS a bound above the cap exercises the ``min(...)``).
    """

    name = "const"

    def __init__(self, value: float, name: str = "const") -> None:
        if not 0.0 < value <= 1.0 + EPS:
            raise ValueError("constant bound must lie in (0, 1]")
        self._value = float(value)
        self.name = name

    def value(self, taskset: TaskSet) -> float:
        return self._value


#: The bound menu evaluated by experiment E6.
ALL_BOUNDS: List[ParametricUtilizationBound] = [
    LiuLaylandBound(),
    HarmonicChainBound(),
    TBound(),
    RBound(),
    SpecializationBound(),
]


def best_bound_value(
    taskset: TaskSet,
    bounds: Optional[Iterable[ParametricUtilizationBound]] = None,
) -> float:
    """The largest applicable D-PUB value for *taskset*.

    Any maximum of valid utilization bounds is itself a valid bound, so a
    designer would always pick the best available one; experiment drivers
    use this as the default ``Lambda(tau)``.
    """
    menu = list(bounds) if bounds is not None else ALL_BOUNDS
    if not menu:
        raise ValueError("need at least one bound")
    return max(b.value(taskset) for b in menu)


@dataclass(frozen=True)
class BoundEvaluation:
    """Every bound of :data:`ALL_BOUNDS` evaluated once for one task set."""

    #: ``K``, the minimum number of harmonic chains.
    chains: int
    #: ``Lambda(tau)`` per bound name, in menu order.
    values: Dict[str, float]
    #: ``2 Theta/(1+Theta)`` for the set's task count.
    cap: float

    def capped(self, name: str) -> float:
        """What RM-TS can achieve with bound *name* (its ``capped_value``)."""
        return min(self.values[name], self.cap)

    @property
    def best(self) -> float:
        """The largest D-PUB value (:func:`best_bound_value`)."""
        return max(self.values.values())

    @property
    def lam(self) -> float:
        """``min(best D-PUB, 2Theta/(1+Theta))``, the RM-TS guarantee."""
        return min(self.best, self.cap)


def evaluate_bounds(taskset: TaskSet) -> BoundEvaluation:
    """One pass over :data:`ALL_BOUNDS` that computes ``K`` once.

    The menu's harmonic-chain bound reuses the chain count instead of
    covering the periods a second time; every value equals the bound's
    own ``value(taskset)``.
    """
    chains = harmonic_chain_count([t.period for t in taskset])
    values: Dict[str, float] = {}
    for bound in ALL_BOUNDS:
        if isinstance(bound, HarmonicChainBound):
            values[bound.name] = ll_bound(chains)
        else:
            values[bound.name] = bound.value(taskset)
    return BoundEvaluation(
        chains=chains, values=values, cap=rmts_bound_cap(len(taskset))
    )


def theoretical_limits() -> Dict[str, float]:
    """Asymptotic constants quoted in the paper's introduction/footnote 1.

    Returns a dict with ``ll`` (= ln 2 ~ 69.3 %), ``light_threshold``
    (~40.9 %) and ``rmts_cap`` (~81.8 %).
    """
    ln2 = math.log(2.0)
    return {
        "ll": ln2,
        "light_threshold": ln2 / (1.0 + ln2),
        "rmts_cap": 2.0 * ln2 / (1.0 + ln2),
    }
