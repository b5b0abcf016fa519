"""Property tests: the linear response-time bound never settles a slot
that exact RTA would reject.

``RTAContext`` settles a slot without a fixed point when Bini, Nguyen,
Richard & Baruah's bound ``(C + sum C_j (1 - U_j)) / (1 - U_hp)`` clears
its deadline.  Such a slot keeps a NaN response, so these tests check
every NaN slot of a build or a probe against :func:`response_time` on the
same hp set, and every decision against :func:`is_schedulable`, on three
corpora: ``random_subtasks``, ``many_subtasks`` (8-40 pieces),
near-full harmonic processors whose responses land on a release, and
processors on which the bound is exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rta import RTAContext, is_schedulable, response_time, response_times
from repro.core.task import Subtask, Task
from repro.perf.telemetry import COUNTERS
from tests.core.test_rta_incremental import (
    admits,
    insert,
    many_subtasks,
    random_subtasks,
    same_columns,
    same_floats,
)

seeds = st.integers(min_value=0, max_value=10_000)


def linear_bound(costs, periods, i):
    """``(R_ub, U_hp)`` of slot *i* under the slots above it."""
    u_hp = 0.0
    lin = 0.0
    for c, t in zip(costs[:i], periods[:i]):
        u = c / t
        u_hp += u
        lin += c * (1.0 - u)
    if u_hp >= 1.0:
        return float("inf"), u_hp
    return (costs[i] + lin) / (1.0 - u_hp), u_hp


def near_full_subtasks(seed: int):
    """A harmonic processor filled to ``U = 1``, so ``U_hp`` of its
    low-priority slots comes close to 1 and the exact
    response of its lowest-priority task lands on a release ``k T_j`` of
    every interferer.

    The lowest-priority task's utilization ``delta`` is log-uniform over
    ``[1e-9, 0.1]``, so ``U_hp`` falls on both sides of the bound's
    ``1 - 1e-6`` cap; its cost is nudged by a few ``1e-9`` either way.
    About a third of the slots get the deadline ``R_ub / (1 - 1e-9)``
    moved by a few ulps, where the bound's settle test flips.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    base = float(rng.uniform(2.0, 20.0))
    periods = base * 2.0 ** np.sort(rng.integers(0, 6, size=n))
    delta = 10.0 ** -float(rng.uniform(1.0, 9.0))
    utils = rng.dirichlet(np.ones(n - 1)) * (1.0 - delta)
    costs = [float(u * t) for u, t in zip(utils, periods)]
    # ``EPS``-sized nudges tip the lowest task's response (the release
    # ``T_n``) over the RTA's tolerance or keep it inside.
    last = float(delta * periods[-1])
    costs.append(max(last + 1e-9 * int(rng.integers(-3, 4)), last / 2))
    periods = [float(t) for t in periods]
    subs = []
    for tid, (cost, t) in enumerate(zip(costs, periods)):
        deadline = t
        r_ub, u_hp = linear_bound(costs, periods, tid)
        if u_hp < 1.0 and rng.random() < 0.35:
            edge = r_ub / (1.0 - 1e-9) * (1.0 + int(rng.integers(-3, 4)) * 2.0**-52)
            if cost <= edge <= t:
                deadline = edge
        task = Task(cost=cost, period=t, tid=2 * tid)
        subs.append(Subtask(cost=cost, period=t, deadline=deadline, parent=task))
    return subs


def tight_bound_subtasks(seed: int):
    """A processor on which the bound is nearly exact.  Under one
    interferer ``(C_1, T_1)`` a task of cost ``(k-1)(T_1 - C_1) + e``
    finishes together with the interferer's ``k``-th job, at ``(k-1) T_1 +
    C_1 + e``; ``R_ub`` is larger by only ``e U_1 / (1 - U_1)``.  ``e =
    1e-8 T_1`` is large enough for ``ceil(r/T - EPS)`` to count that job.
    The task's deadline is ``R_ub`` moved by a few ``1e-8`` either way,
    around the margin the settle test keeps; two light tasks below it take
    a probe's suffix path."""
    rng = np.random.default_rng(seed)
    t1 = float(rng.uniform(2.0, 20.0))
    c1 = float(rng.uniform(0.05, 0.6)) * t1
    k = int(rng.integers(2, 6))
    cost = (k - 1) * (t1 - c1) + 1e-8 * t1
    period = k * t1
    r_ub, _ = linear_bound([c1, cost], [t1, period], 1)
    deadline = min(period, r_ub * (1.0 + 1e-8 * int(rng.integers(-5, 6))))
    rows = [(c1, t1, t1), (cost, period, deadline)]
    for _ in range(2):
        t = float(rng.uniform(period, 4.0 * period))
        rows.append((float(rng.uniform(1e-4, 0.05)) * t, t, t))
    subs = []
    for tid, (c, t, d) in enumerate(rows):
        task = Task(cost=c, period=t, tid=2 * tid)
        subs.append(Subtask(cost=c, period=t, deadline=d, parent=task))
    return subs


CORPORA = {
    "random": random_subtasks,
    "many": many_subtasks,
    "near_full": near_full_subtasks,
    "tight": tight_bound_subtasks,
}


def assert_settled_slots_schedulable(costs, periods, deadlines, responses, upto):
    """Every NaN slot below *upto* passes exact RTA on its own hp set;
    returns how many there were."""
    settled = 0
    for i in range(upto):
        if responses[i] != responses[i]:
            settled += 1
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            assert r is not None, i
    return settled


@pytest.mark.parametrize("corpus", sorted(CORPORA))
class TestBoundSettlesOnlySchedulableSlots:
    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_build(self, corpus, seed):
        """A build's NaN slots before its verdict are exactly the ones the
        bound or the deadline-point test settled, each accepted by exact
        RTA, and the verdict and every resolved response equal the
        one-shot oracle's."""
        subs = CORPORA[corpus](seed)
        before = COUNTERS.snapshot()
        ctx = RTAContext(subs)
        delta = COUNTERS.delta_since(before)
        counted = delta["rta_bound_accepts"] + delta["rta_point_accepts"]
        assert ctx.schedulable == is_schedulable(subs)
        fail = ctx.first_fail
        analysed = {-1: len(subs), -2: 0}.get(fail, fail)
        settled = assert_settled_slots_schedulable(
            ctx.costs, ctx.periods, ctx.deadlines, ctx.responses, analysed
        )
        assert settled == counted
        if fail != -2:
            assert ctx._resolve() == fail
            reference = response_times(subs).responses
            same_floats(ctx.responses[:analysed], reference[:analysed])

    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_admits(self, corpus, seed):
        """A probe of any member against the others decides like the
        oracle; an accepted probe's NaN slots pass exact RTA on the merged
        hp sets, its computed ones equal the oracle's, and committing it
        leaves the context a fresh build gives."""
        subs = CORPORA[corpus](seed)
        k = int(np.random.default_rng(seed + 5).integers(0, len(subs)))
        candidate = subs[k]
        ctx = RTAContext(subs[:k] + subs[k + 1:])
        got = admits(ctx, candidate)
        assert got == is_schedulable(subs)
        if not got:
            return
        fresh = RTAContext(subs)
        if ctx._memo is not None:  # not a hyperbolic accept
            probed = ctx._memo[4]
            assert_settled_slots_schedulable(
                fresh.costs, fresh.periods, fresh.deadlines, probed, len(subs)
            )
            reference = response_times(subs).responses
            for r, want in zip(probed, reference):
                assert r != r or r == want
        insert(ctx, candidate)
        same_columns(ctx, fresh)
        assert ctx.schedulable and fresh.schedulable
        ctx._resolve()
        fresh._resolve()
        same_floats(ctx.responses, fresh.responses)


def test_tight_corpus_reaches_both_sides():
    """The tight corpus has analyzed slots exact RTA accepts and rejects,
    and settles some of the accepted ones."""
    verdicts = set()
    settled = 0
    for seed in range(100):
        ctx = RTAContext(tight_bound_subtasks(seed)[:2])
        verdicts.add(ctx.first_fail)
        settled += ctx.first_fail == -1 and ctx.responses[1] != ctx.responses[1]
    assert verdicts == {-1, 1}
    assert settled


def test_near_full_corpus_reaches_both_sides():
    """The near-full corpus puts slots on both sides of the bound's
    utilization cap and of its deadline edge, and processors on both sides
    of schedulability, so the properties above see every case."""
    verdicts = set()
    over_cap = 0
    settled_at_edge = missed_at_edge = 0
    for seed in range(300):
        subs = near_full_subtasks(seed)
        verdicts.add(is_schedulable(subs))
        costs = [s.cost for s in subs]
        periods = [s.period for s in subs]
        for i, sub in enumerate(subs):
            r_ub, u_hp = linear_bound(costs, periods, i)
            over_cap += u_hp > 1.0 - 1e-6
            if sub.deadline != sub.period and u_hp <= 1.0 - 1e-6:
                if r_ub <= sub.deadline * (1.0 - 1e-9):
                    settled_at_edge += 1
                else:
                    missed_at_edge += 1
    assert verdicts == {True, False}
    assert over_cap and settled_at_edge and missed_at_edge
