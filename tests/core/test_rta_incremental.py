"""Property tests: the incremental RTA context vs the one-shot analysis.

The cached-context admission path (`RTAContext.admits`, `with_subtask`,
lazy deferred resolution) must be *decision- and value-identical* to the
straightforward rebuild-per-probe path (`is_schedulable`,
`response_times`, `max_split(..., context=None)`), which is kept as the
reference oracle.  These tests drive both on randomized processors —
random seeds come from hypothesis, the processor contents from a NumPy
generator derived from them, so failures replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.floats import EPS
from repro.core.admission import ExactRTAAdmission
from repro.core.maxsplit import max_split
from repro.core.partition import ProcessorState
from repro.core.rta import RTAContext, is_schedulable, response_times
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.baselines import partition_no_split
from repro.core.task import Subtask, Task
from repro.taskgen.generators import TaskSetGenerator

seeds = st.integers(min_value=0, max_value=10_000)


def random_subtasks(seed: int, n=None, constrained=True):
    """Priority-sorted random subtasks, some with synthetic deadlines."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(1, 7))
    subs = []
    for tid in range(n):
        period = float(rng.uniform(4.0, 64.0))
        cost = float(rng.uniform(0.05, 0.45) * period)
        deadline = period
        if constrained and rng.random() < 0.4:
            deadline = float(min(period, max(cost, 0.6 * period)))
        # Even tids: leaves the odd slots free for a candidate, so priority
        # collisions (impossible on a real processor) cannot occur.
        task = Task(cost=cost, period=period, tid=2 * tid)
        subs.append(
            Subtask(cost=cost, period=period, deadline=deadline, parent=task)
        )
    return subs


def random_candidate(seed: int, n_existing: int) -> Subtask:
    rng = np.random.default_rng(seed + 777)
    period = float(rng.uniform(4.0, 64.0))
    cost = float(rng.uniform(0.05, 0.6) * period)
    # Any priority slot: above, between, or below the existing (even) tids.
    tid = 2 * int(rng.integers(0, n_existing + 1)) - 1
    task = Task(cost=cost, period=period, tid=tid)
    deadline = period if rng.random() < 0.6 else float(max(cost, 0.7 * period))
    return Subtask(cost=cost, period=period, deadline=deadline, parent=task)


def many_subtasks(seed: int, n_min: int = 8, n_max: int = 40, period=None):
    """Processors of 8..40 subtasks: the pairwise-sum regime of the
    utilization sums (n >= 8) and hp sets past 16 interferers.

    Utilizations split a total drawn around 1 so sets land on both sides
    of schedulability; periods are log-uniform so interference varies.
    A fixed *period* gives every subtask that period and an implicit
    deadline instead: exact RTA then accepts exactly up to ``U = 1``
    within its tolerance, the same edge the utilization precheck tests.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    total = float(rng.uniform(0.55, 1.02))
    utils = rng.dirichlet(np.ones(n)) * total
    if period is not None:
        periods = np.full(n, float(period))
    else:
        periods = np.sort(
            np.exp(rng.uniform(np.log(4.0), np.log(400.0), size=n))
        )
    subs = []
    for tid in range(n):
        t = float(periods[tid])
        cost = float(max(utils[tid], 1e-4) * t)
        deadline = t
        if period is None and rng.random() < 0.2:
            deadline = float(min(t, max(cost, 0.8 * t)))
        task = Task(cost=cost, period=t, tid=2 * tid)
        subs.append(Subtask(cost=cost, period=t, deadline=deadline, parent=task))
    return subs


def small_candidate(seed: int, n_existing: int) -> Subtask:
    """A light candidate at any priority slot (keeps large sets in play)."""
    rng = np.random.default_rng(seed + 991)
    period = float(np.exp(rng.uniform(np.log(4.0), np.log(400.0))))
    cost = float(rng.uniform(0.001, 0.08) * period)
    tid = 2 * int(rng.integers(0, n_existing + 1)) - 1
    task = Task(cost=cost, period=period, tid=tid)
    deadline = period if rng.random() < 0.7 else float(max(cost, 0.8 * period))
    return Subtask(cost=cost, period=period, deadline=deadline, parent=task)


def merged(subtasks, candidate):
    return sorted(subtasks + [candidate], key=lambda s: s.priority)


def same_floats(got, want):
    """Element-wise bit equality with NaN matching NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a != a and b != b) or a == b


class TestContextMatchesOneShot:
    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_schedulable_flag(self, seed):
        subs = random_subtasks(seed)
        assert RTAContext(subs).schedulable == is_schedulable(subs)

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_responses_match_where_computed(self, seed):
        """Every cached response equals the one-shot value bit-for-bit.

        The context may leave responses NaN past the first failure (or
        where analysis was deferred and never needed); wherever it *does*
        hold a number, it must be the exact same float.
        """
        subs = random_subtasks(seed)
        ctx = RTAContext(subs)
        ctx.schedulable  # force deferred resolution
        reference = response_times(subs).responses
        for got, want in zip(ctx.responses, reference):
            if got == got:  # not NaN
                assert got == want

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_admits_equals_rebuild(self, seed):
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        expected = is_schedulable(merged(subs, candidate))
        assert ctx.admits_subtask(candidate) == expected

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_with_subtask_equals_fresh_build(self, seed):
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        grown = RTAContext(subs).with_subtask(candidate)
        fresh = RTAContext(merged(subs, candidate))
        assert grown.schedulable == fresh.schedulable
        # After resolution both contexts expose the same computed values.
        for got, want in zip(grown.responses, fresh.responses):
            if got == got and want == want:
                assert got == want
        assert grown.util_sum == pytest.approx(fresh.util_sum, abs=1e-12)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_admits_then_with_subtask_stays_consistent(self, seed):
        """The probe memo fast path must not corrupt the grown context."""
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        if not ctx.admits_subtask(candidate):
            return
        grown = ctx.with_subtask(candidate)
        assert grown.schedulable
        fresh = RTAContext(merged(subs, candidate))
        assert fresh.schedulable
        for got, want in zip(grown.responses, fresh.responses):
            if got == got and want == want:
                assert got == want


class TestLargeProcessors:
    """Context vs oracle where ``random_subtasks`` never goes: 8..40
    subtasks per processor, so sums take numpy's pairwise order and the
    lowest-priority fixed points see up to 39 interferers."""

    @given(seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_build_matches_oracle(self, seed):
        subs = many_subtasks(seed)
        ctx = RTAContext(subs)
        assert ctx.schedulable == is_schedulable(subs)
        reference = response_times(subs).responses.tolist()
        if ctx.first_fail == -1:
            same_floats(ctx.responses, reference)
        elif ctx.first_fail >= 0:
            same_floats(
                ctx.responses[: ctx.first_fail], reference[: ctx.first_fail]
            )

    @given(seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_admits_equals_rebuild(self, seed):
        subs = many_subtasks(seed)
        candidate = small_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        assert ctx.admits_subtask(candidate) == is_schedulable(
            merged(subs, candidate)
        )

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_with_subtask_equals_fresh_build(self, seed):
        subs = many_subtasks(seed)
        candidate = small_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        ctx.admits_subtask(candidate)  # may arm the probe memo
        grown = ctx.with_subtask(candidate)
        fresh = RTAContext(merged(subs, candidate))
        assert grown.schedulable == fresh.schedulable
        assert grown.util_sum == fresh.util_sum
        assert grown.first_fail == fresh.first_fail
        if fresh.schedulable:
            grown._resolve()
            same_floats(grown.responses, fresh.responses)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_utilization_band_uses_merged_order(self, seed):
        """Candidates whose cached-sum estimate lands inside the band
        around ``1 + EPS`` are decided by the merged-order pairwise sum,
        exactly like the oracle's precheck.  With one common period exact
        RTA accepts right up to that edge, so both sides of it occur."""
        period = 1.0
        subs = many_subtasks(seed, period=period)
        ctx = RTAContext(subs)
        if ctx.util_sum >= 0.99:
            return
        tid = 2 * int(np.random.default_rng(seed).integers(0, len(subs) + 1)) - 1
        probe = ctx.admission_probe(period, period, tid)
        # A few ulps either side of the edge: where summation order flips
        # the precheck, so a running sum would disagree with the oracle.
        for ulps in range(-8, 9):
            u_c = 1.0 + EPS - ctx.util_sum + ulps * 2.0**-52
            cost = u_c * period
            candidate = Subtask(
                cost=cost, period=period, deadline=period,
                parent=Task(cost=cost, period=period, tid=tid),
            )
            expected = is_schedulable(merged(subs, candidate))
            assert ctx.admits_subtask(candidate) == expected
            assert probe(cost) == expected


def _scratch_schedulable_with(self, candidate):
    return is_schedulable(self.subtasks + [candidate])


def _scratch_is_schedulable(self):
    return is_schedulable(self.subtasks)


def _scratch_split_cost(self, proc, piece):
    return max_split(proc.subtasks, piece, method=self.method, context=None)


class TestEndToEndPartitionEquality:
    """Partitioning on the cached context is indistinguishable from the
    from-scratch reference (every probe rebuilt, MaxSplit without a
    context), patched in per test."""

    algorithms = [
        ("rmts", lambda ts, m: partition_rmts(ts, m)),
        ("rmts_star", lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False)),
        ("rmts_light", lambda ts, m: partition_rmts_light(ts, m)),
        ("p_rm_ffd", lambda ts, m: partition_no_split(ts, m)),
    ]

    @pytest.mark.parametrize("name,algo", algorithms, ids=[a[0] for a in algorithms])
    def test_partitions_identical(self, name, algo, monkeypatch):
        gen = TaskSetGenerator(n=12, period_model="loguniform")
        for seed in range(8):
            for u_norm in (0.7, 0.85, 0.97):
                ts = gen.generate(u_norm=u_norm, processors=4, seed=seed)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        ProcessorState, "schedulable_with",
                        _scratch_schedulable_with,
                    )
                    patch.setattr(
                        ProcessorState, "is_schedulable",
                        _scratch_is_schedulable,
                    )
                    patch.setattr(
                        ExactRTAAdmission, "split_cost", _scratch_split_cost
                    )
                    legacy = algo(ts, 4)
                incremental = algo(ts, 4)
                assert legacy.success == incremental.success
                assert legacy.unassigned_tids == incremental.unassigned_tids
                for p_legacy, p_inc in zip(
                    legacy.processors, incremental.processors
                ):
                    assert [
                        (s.cost, s.period, s.deadline, s.priority)
                        for s in p_legacy.subtasks
                    ] == [
                        (s.cost, s.period, s.deadline, s.priority)
                        for s in p_inc.subtasks
                    ]
