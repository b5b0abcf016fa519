"""Property tests: the incremental RTA context vs the one-shot analysis.

The cached-context admission path (`RTAContext.admits`, in-place
`insert`, lazy deferred resolution) must be *decision- and
value-identical* to the straightforward rebuild-per-probe path
(`is_schedulable`, `response_times`, `max_split(..., context=None)`),
which is kept as the reference oracle.  These tests drive both on randomized processors —
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
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rta import RTAContext, is_schedulable, response_times
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.baselines import partition_no_split
from repro.core.task import Subtask, Task
from repro.perf.telemetry import COUNTERS
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


def admits(ctx, sub):
    """``RTAContext.admits`` on a subtask's values."""
    return ctx.admits(sub.cost, sub.period, sub.deadline, sub.priority)


def insert(ctx, sub):
    """``RTAContext.insert`` of a subtask's values."""
    ctx.insert(sub.cost, sub.period, sub.deadline, sub.priority)


def as_subtask(candidate):
    """The subtask an admission candidate (a whole task or a pending
    piece's remainder) becomes when committed."""
    if isinstance(candidate, PendingPiece):
        return Subtask(
            cost=candidate.cost, period=candidate.period,
            deadline=candidate.deadline, parent=candidate.task,
            index=candidate.index, kind=candidate.kind,
        )
    return Subtask.whole(candidate)


def same_floats(got, want):
    """Element-wise bit equality with NaN matching NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a != a and b != b) or a == b


def same_columns(got, want):
    """The sorted columns and everything derived from them are
    bit-identical.  The running hyperbolic product is not compared: it
    multiplies in insertion order, which the pre-accept margin absorbs."""
    assert got.costs == want.costs
    assert got.periods == want.periods
    assert got.deadlines == want.deadlines
    assert got.ratios == want.ratios
    assert got.prio_list == want.prio_list
    assert got.util_sum == want.util_sum
    assert got.implicit == want.implicit
    assert got.rm_ordered == want.rm_ordered


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
        assert admits(ctx, candidate) == expected

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_insert_equals_fresh_build(self, seed):
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        grown = RTAContext(subs)
        insert(grown, candidate)
        fresh = RTAContext(merged(subs, candidate))
        same_columns(grown, fresh)
        assert grown.schedulable == fresh.schedulable
        assert grown.first_fail == fresh.first_fail
        if fresh.schedulable:
            grown._resolve()
            fresh._resolve()
            same_floats(grown.responses, fresh.responses)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_admits_then_insert_stays_consistent(self, seed):
        """The probe memo fast path must not corrupt the grown context."""
        subs = random_subtasks(seed)
        candidate = random_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        if not admits(ctx, candidate):
            return
        insert(ctx, candidate)
        assert ctx._memo is None
        fresh = RTAContext(merged(subs, candidate))
        assert fresh.schedulable and ctx.schedulable
        same_columns(ctx, fresh)
        # A hyperbolic accept arms no memo and leaves the suffix NaN.
        ctx._resolve()
        fresh._resolve()
        same_floats(ctx.responses, fresh.responses)

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_insert_sequence_equals_fresh_build(self, seed):
        """Several in-place insertions, probed or not, leave the same
        context a fresh build of the final contents gives."""
        subs = random_subtasks(seed, n=6)
        ctx = RTAContext(subs[:2])
        for i, sub in enumerate(subs[2:]):
            if i % 2:
                admits(ctx, sub)  # may arm the probe memo
            insert(ctx, sub)
        fresh = RTAContext(subs)
        same_columns(ctx, fresh)
        assert ctx.schedulable == fresh.schedulable
        assert ctx.first_fail == fresh.first_fail
        if fresh.schedulable:
            ctx._resolve()
            fresh._resolve()
            same_floats(ctx.responses, fresh.responses)


    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_inserts_into_empty_context_equal_fresh_build(self, seed):
        """An empty processor's context (built without sorting or
        analysis) grows into the context a fresh build gives."""
        subs = random_subtasks(seed, n=5)
        ctx = RTAContext([])
        assert ctx.schedulable and ctx.util_sum == 0.0
        assert ctx.hyper_prod == 1.0 and ctx.implicit and ctx.rm_ordered
        for i, sub in enumerate(subs):
            if i % 2 == 0:
                admits(ctx, sub)  # may arm the probe memo
            insert(ctx, sub)
        fresh = RTAContext(subs)
        same_columns(ctx, fresh)
        assert ctx.schedulable == fresh.schedulable
        assert ctx.first_fail == fresh.first_fail
        if fresh.schedulable:
            ctx._resolve()
            fresh._resolve()
            same_floats(ctx.responses, fresh.responses)


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
        reference = list(response_times(subs).responses)
        # Slots the response bound settled stay NaN until resolved.
        fail = ctx.first_fail
        if fail != -2:
            assert ctx._resolve() == fail
        if fail == -1:
            same_floats(ctx.responses, reference)
        elif fail >= 0:
            same_floats(ctx.responses[:fail], reference[:fail])

    @given(seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_admits_equals_rebuild(self, seed):
        subs = many_subtasks(seed)
        candidate = small_candidate(seed, len(subs))
        ctx = RTAContext(subs)
        assert admits(ctx, candidate) == is_schedulable(
            merged(subs, candidate)
        )

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_insert_equals_fresh_build(self, seed):
        subs = many_subtasks(seed)
        candidate = small_candidate(seed, len(subs))
        grown = RTAContext(subs)
        admits(grown, candidate)  # may arm the probe memo
        insert(grown, candidate)
        fresh = RTAContext(merged(subs, candidate))
        same_columns(grown, fresh)
        assert grown.schedulable == fresh.schedulable
        assert grown.first_fail == fresh.first_fail
        if fresh.schedulable:
            grown._resolve()
            fresh._resolve()
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
            assert admits(ctx, candidate) == expected
            assert ctx.admits(cost, period, period, tid) == expected


def _scratch_schedulable_with(self, candidate):
    return is_schedulable(self.subtasks + [as_subtask(candidate)])


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


def add(proc, sub):
    """``ProcessorState.add`` of a subtask's values."""
    proc.add(sub.parent, sub.cost, sub.deadline, sub.index, sub.kind)


def loaded_processor(subs):
    proc = ProcessorState(index=0)
    for sub in subs:
        add(proc, sub)
    return proc


def random_piece(seed: int, n_existing: int) -> PendingPiece:
    """A pending piece at any priority slot; sometimes already split, so
    its synthetic deadline is shorter than its period."""
    candidate = random_candidate(seed, n_existing)
    piece = PendingPiece(candidate.parent)
    rng = np.random.default_rng(seed + 313)
    if rng.random() < 0.5:
        cost = float(rng.uniform(0.1, 0.6)) * piece.cost
        piece.split_off(ProcessorState(index=1), cost)
    return piece


class TestLeanAdmissionPath:
    """The probe shortcuts of ``ProcessorState.schedulable_with`` answer
    exactly like the context they bypass."""

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_piece_probe_equals_subtask_probe(self, seed):
        """A pending piece probes like the subtask it would become: the
        same decision as the context's value probe and the from-scratch
        oracle, one probe counted, and committing it leaves the context a
        fresh build of the grown contents gives."""
        subs = random_subtasks(seed)
        piece = random_piece(seed, len(subs))
        sub = as_subtask(piece)
        proc = loaded_processor(subs)
        if seed % 2:  # half the time the context is warm already
            proc.rta_context()
        before = COUNTERS.snapshot()
        got = proc.schedulable_with(piece)
        assert COUNTERS.delta_since(before)["admission_probes"] == 1
        assert got == admits(RTAContext(subs), sub)
        assert got == is_schedulable(merged(subs, sub))
        if got:
            piece.commit(proc)
            assert proc.subtasks == subs + [sub]
            ctx, fresh = proc.rta_context(), RTAContext(subs + [sub])
            same_columns(ctx, fresh)
            ctx._resolve()
            fresh._resolve()
            same_floats(ctx.responses, fresh.responses)

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_utilization_check_agrees_with_admits(self, seed):
        """Candidates whose utilization lands within 3e-10 of ``1 + EPS``
        on top of the running sum: the early reject fires above the
        margin, and every decision equals ``RTAContext.admits`` and the
        from-scratch oracle.  With one common period exact RTA accepts
        right up to the edge, so both decisions occur."""
        period = 1.0
        subs = many_subtasks(seed, period=period)
        if loaded_processor(subs).utilization >= 0.99:
            return
        tid = 2 * int(np.random.default_rng(seed).integers(0, len(subs) + 1)) - 1
        seen = set()
        for offset in np.linspace(-3e-10, 3e-10, 25):
            proc = loaded_processor(subs)
            cost = (1.0 + EPS + float(offset) - proc.utilization) * period
            candidate = Subtask(
                cost=cost, period=period, deadline=period,
                parent=Task(cost=cost, period=period, tid=tid),
            )
            got = proc.schedulable_with(candidate.parent)
            assert got == admits(RTAContext(subs), candidate)
            assert got == is_schedulable(merged(subs, candidate))
            early = proc.utilization + cost / period > 1.0 + EPS + 2e-10
            # The early reject never fetches (or builds) the context.
            assert (proc._ctx is None) == early
            seen.add(got)
        assert seen == {True, False}

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_add_keeps_the_one_context(self, seed):
        """``add`` updates the processor's one context in place; the
        context object is never replaced while tasks are only added."""
        subs = random_subtasks(seed, n=6)
        proc = ProcessorState(index=0)
        ctx = proc.rta_context()
        for sub in subs:
            admits(ctx, sub)  # may arm the probe memo
            add(proc, sub)
            assert proc.rta_context() is ctx
        same_columns(ctx, RTAContext(subs))


def skip_check_value(ctx, pos, deadline, cost_j, j, period_new):
    """One constraint's value at its own deadline, the first test point
    MaxSplit evaluates (``j is None`` for the piece's own constraint).
    A piece cost at or below it ends that constraint's scan early."""
    from math import ceil, fsum

    stop = pos if j is None else j
    interference = fsum(
        ceil(deadline / t - EPS) * c
        for c, t in zip(ctx.costs[:stop], ctx.periods[:stop])
    )
    if j is None:
        return deadline - interference
    return (deadline - cost_j - interference) / ceil(deadline / period_new - EPS)


class TestMaxSplitSkipBoundary:
    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_context_equals_reference_at_the_skip_boundary(self, seed):
        """Piece costs a few ulps either side of where a constraint's
        early exit flips: the context path (reduced points, early exits)
        returns the same float as ``context=None`` on both sides."""
        from bisect import bisect_right

        from repro.core.maxsplit import max_split_points

        subs = random_subtasks(seed)
        ctx = RTAContext(subs)
        rng = np.random.default_rng(seed + 4242)
        tid = 2 * int(rng.integers(0, len(subs) + 1)) - 1
        pos = bisect_right(ctx.prio_list, tid)
        period = float(rng.uniform(4.0, 64.0))
        # The piece's own constraint, or the lowest-priority one.
        if pos == len(subs) or rng.random() < 0.3:
            target = skip_check_value(ctx, pos, period, 0.0, None, period)
        else:
            j = len(subs) - 1
            target = skip_check_value(
                ctx, pos, ctx.deadlines[j], ctx.costs[j], j, period
            )
        if not 1e-6 < target < period:
            return
        costs = [target]
        for _ in range(4):
            costs.append(float(np.nextafter(costs[-1], np.inf)))
            costs.insert(0, float(np.nextafter(costs[0], -np.inf)))
        sides = {cost <= target for cost in costs}
        # Coarser steps too, where the constraint is far from the exit and
        # usually binds.
        costs += [f * target for f in (0.5, 0.9, 1.1, 1.5) if f * target < period]
        for cost in costs:
            piece = PendingPiece(Task(cost=cost, period=period, tid=tid))
            assert max_split_points(subs, piece, context=ctx) == (
                max_split_points(subs, piece, context=None)
            )
        assert sides == {True, False}
