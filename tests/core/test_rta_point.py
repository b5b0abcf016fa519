"""Property tests: the deadline-point test never settles a slot that exact
RTA would reject, and the fluid warm start never overshoots.

``RTAContext`` settles a slot that misses the linear response bound and
has no cached response when its workload at the deadline, ``W(D) = C +
sum (ceil(D/T_j - EPS) or 1) C_j``, is at most ``D``.  Such a slot keeps
a NaN response.  These tests check that the cold :func:`response_time`
of every NaN slot of a build or an accepted probe is at most its
deadline, on processors with merged hp sets (a probe's candidate above
residents), split residents (``D < T``) and priority orders that are not
rate monotonic, and that each decision equals :func:`is_schedulable`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.floats import EPS
from repro.core.partition import ProcessorState
from repro.core.rta import (
    RTAContext,
    _fluid_start,
    is_schedulable,
    response_time,
)
from repro.core.task import Subtask, Task
from repro.perf.telemetry import COUNTERS
from tests.core.test_rta_bound import CORPORA
from tests.core.test_rta_incremental import admits, merged

seeds = st.integers(min_value=0, max_value=10_000)


def loaded_subtasks(seed: int):
    """Processors loaded to ``U`` in ``[0.75, 1.0]`` where the linear bound
    is loose: a third of the pieces are split (``D < T``, down to their
    cost), and every other processor draws its priority order at random
    instead of by period."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    total = float(rng.uniform(0.75, 1.0))
    utils = rng.dirichlet(np.ones(n)) * total
    periods = np.exp(rng.uniform(np.log(2.0), np.log(200.0), size=n))
    if rng.random() < 0.5:
        periods = np.sort(periods)
    subs = []
    for tid in range(n):
        t = float(periods[tid])
        cost = float(max(utils[tid], 1e-4) * t)
        deadline = t
        if rng.random() < 0.35:
            deadline = float(min(t, cost + rng.uniform(0.0, 1.0) * (t - cost)))
        task = Task(cost=cost, period=t, tid=2 * tid)
        subs.append(Subtask(cost=cost, period=t, deadline=deadline, parent=task))
    return subs


POINT_CORPORA = dict(CORPORA, loaded=loaded_subtasks)


def assert_nan_slots_meet_deadline(costs, periods, deadlines, responses, upto):
    """The cold response of every NaN slot below *upto* is at most its
    deadline, on the slot's own hp set."""
    for i in range(upto):
        if responses[i] != responses[i]:
            r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
            assert r is not None and r <= deadlines[i], (i, r, deadlines[i])


@pytest.mark.parametrize("corpus", sorted(POINT_CORPORA))
class TestPointSettlesOnlySchedulableSlots:
    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_build(self, corpus, seed):
        subs = POINT_CORPORA[corpus](seed)
        ctx = RTAContext(subs)
        assert ctx.schedulable == is_schedulable(subs)
        fail = ctx.first_fail
        analysed = {-1: len(subs), -2: 0}.get(fail, fail)
        assert_nan_slots_meet_deadline(
            ctx.costs, ctx.periods, ctx.deadlines, ctx.responses, analysed
        )

    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_admits(self, corpus, seed):
        """A probe of one member against the others: the candidate's hp
        set is the residents' prefix and each lower resident's is merged
        with the candidate."""
        subs = POINT_CORPORA[corpus](seed)
        k = int(np.random.default_rng(seed + 5).integers(0, len(subs)))
        ctx = RTAContext(subs[:k] + subs[k + 1:])
        got = admits(ctx, subs[k])
        assert got == is_schedulable(subs)
        if got and ctx._memo is not None:  # not a hyperbolic accept
            fresh = RTAContext(subs)
            assert_nan_slots_meet_deadline(
                fresh.costs, fresh.periods, fresh.deadlines, ctx._memo[4],
                len(subs),
            )


def test_corpora_reach_the_point_test():
    """Builds and probes over the corpora settle slots by the point test,
    so the properties above are not vacuous."""
    before = COUNTERS.snapshot()
    for seed in range(60):
        subs = loaded_subtasks(seed)
        RTAContext(subs)
        admits(RTAContext(subs[1:]), subs[0])
    delta = COUNTERS.delta_since(before)
    assert delta["rta_point_accepts"] > 0
    assert delta["rta_bound_accepts"] > 0


class TestFluidStartNearFullProcessors:
    def test_candidate_at_the_utilization_edge_is_admitted(self):
        """A processor holds (0.5, 1) and (1e-6, 1); a candidate between
        them filling it to ``1 + EPS`` is schedulable.  The old fixed
        ``1 - 1e-12`` shrink let the fluid start of the lowest task
        overshoot, because ``1 - U_hp`` is about 1e-6 there."""
        proc = ProcessorState(index=0)
        high = Task(cost=0.5, period=1.0, tid=0)
        low = Task(cost=1e-6, period=1.0, tid=10)
        proc.add(high)
        proc.add(low)
        cand = Task(cost=1.0 + EPS - 0.5 - 1e-6, period=1.0, tid=5)
        want = is_schedulable([Subtask.whole(t) for t in (high, cand, low)])
        assert want
        assert proc.schedulable_with(cand) == want

    def test_no_start_when_hp_utilization_is_within_1e6_of_one(self):
        for u_hp in (1.0 - 5e-7, 1.0, 1.5):
            assert _fluid_start(1.0, 0.5, u_hp) is None
        assert _fluid_start(1.0, 0.5, 1.0 - 2e-6) is not None

    @given(
        seed=seeds,
        exponent=st.floats(min_value=4.0, max_value=9.0),
        offset=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_admits_agrees_with_is_schedulable_near_full(
        self, seed, exponent, offset
    ):
        """Residents of one common period leave the lowest one a small
        utilization ``gap`` (log-uniform in ``[1e-9, 1e-4]``); a candidate
        above it fills the processor to within a few ``EPS`` of ``1 +
        EPS``, where the lowest slot's response lands within the tolerance
        past a release, and ``1 - U_hp`` of that slot is about ``gap``.
        Round periods keep the sums exact enough for the edge to be hit;
        the old shrink failed about 4% of these draws."""
        gap = 10.0 ** -exponent
        offset *= EPS
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        period = float(rng.choice([1.0, 2.0, 10.0, rng.uniform(1.0, 50.0)]))
        utils = rng.dirichlet(np.ones(n)) * 0.5
        subs = [
            Subtask.whole(Task(cost=float(u) * period, period=period, tid=2 * i))
            for i, u in enumerate(utils)
        ]
        low = Task(cost=gap * period, period=period, tid=2 * n + 2)
        subs.append(Subtask.whole(low))
        proc = ProcessorState(index=0)
        for sub in subs:
            proc.add(sub.parent)
        cost = (1.0 + EPS + offset - proc.utilization) * period
        if cost <= 0:
            return
        cand = Task(cost=cost, period=period, tid=2 * n + 1)
        want = is_schedulable(merged(subs, Subtask.whole(cand)))
        assert proc.schedulable_with(cand) == want
        assert admits(RTAContext(subs), Subtask.whole(cand)) == want

