"""Unit and property tests for MaxSplit (Definitions 2 and 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.maxsplit import max_split, max_split_binary, max_split_points
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rta import is_schedulable
from repro.core.task import Subtask, Task, TaskSet
from repro.taskgen.generators import TaskSetGenerator


def loaded_processor(pairs, start_tid=0):
    proc = ProcessorState(index=0)
    for i, (c, t) in enumerate(pairs):
        proc.add(Task(cost=c, period=t, tid=start_tid + i))
    return proc


def piece_for(cost, period, tid=100):
    return PendingPiece(Task(cost=cost, period=period, tid=tid))


class TestMaxSplitBasics:
    def test_empty_processor_accepts_everything(self):
        piece = piece_for(3.0, 10.0)
        assert max_split_points([], piece) == pytest.approx(3.0)
        assert max_split_binary([], piece) == pytest.approx(3.0)

    def test_zero_cost_piece(self):
        proc = loaded_processor([(1, 4)])
        piece = piece_for(1.0, 10.0)
        piece.cost = 0.0
        assert max_split_points(proc.subtasks, piece) == 0.0
        assert max_split_binary(proc.subtasks, piece) == 0.0

    def test_full_processor_gives_zero(self):
        # Processor at U=1 with (2,4),(2,8),(4,16): nothing more fits.
        proc = loaded_processor([(2, 4), (2, 8), (4, 16)], start_tid=1)
        piece = piece_for(5.0, 16.0, tid=0)  # highest priority newcomer
        assert max_split_points(proc.subtasks, piece) == pytest.approx(0.0)
        assert max_split_binary(proc.subtasks, piece) <= 1e-8

    def test_exact_fill_to_capacity(self):
        # (2,4) alone; a newcomer with T=4 can fill to C=2 exactly:
        # afterwards both (2,4)s use the full processor.
        proc = loaded_processor([(2, 4)], start_tid=1)
        piece = piece_for(4.0, 4.0, tid=0)
        c = max_split_points(proc.subtasks, piece)
        assert c == pytest.approx(2.0)

    def test_respects_own_synthetic_deadline(self):
        # No existing tasks, but the piece has a shortened deadline.
        piece = piece_for(8.0, 10.0)
        piece.split_off(ProcessorState(index=1), 3.0)  # deadline now 7, remaining 5
        c = max_split_points([], piece)
        assert c == pytest.approx(5.0)  # still fits: cost 5 <= deadline 7

    def test_deadline_binds_before_cost(self):
        piece = piece_for(9.0, 10.0)
        piece.split_off(ProcessorState(index=1), 4.0)  # deadline 6, remaining 5
        proc = loaded_processor([(3, 6)], start_tid=200)  # lower priority
        # newcomer (tid=100) outranks (3,6); its own deadline is 6.
        c = max_split_points(proc.subtasks, piece)
        # lower-priority task (3,6): needs c <= 3 by its deadline 6.
        assert c == pytest.approx(3.0)

    def test_dispatcher(self):
        proc = loaded_processor([(1, 4)])
        piece = piece_for(10.0, 20.0, tid=50)
        assert max_split(proc.subtasks, piece, method="points") == pytest.approx(
            max_split(proc.subtasks, piece, method="binary"), abs=1e-6
        )
        with pytest.raises(ValueError):
            max_split(proc.subtasks, piece, method="nope")


class TestMaxSplitDefinition:
    """MaxSplit must satisfy Definition 3: feasible, and maximal
    (assigning the result leaves a bottleneck on the processor)."""

    def _assert_definition(self, proc, piece):
        c = max_split_points(proc.subtasks, piece)

        def with_cost(x):
            return proc.subtasks + [
                Subtask(cost=x, period=piece.period, deadline=piece.deadline,
                        parent=piece.task, index=piece.index, kind=piece.kind)
            ]

        if c > 0:
            assert is_schedulable(with_cost(c)), "MaxSplit result infeasible"
        bump = max(1e-6, 1e-6 * piece.cost)
        if c + bump <= piece.cost:
            assert not is_schedulable(with_cost(c + bump)), (
                "MaxSplit not maximal: a larger portion still fits"
            )

    def test_definition_on_crafted_processors(self):
        cases = [
            ([(1, 4), (2, 10)], (6.0, 12.0)),
            ([(2, 5)], (10.0, 11.0)),
            ([(1, 3), (1, 7), (2, 13)], (20.0, 40.0)),
        ]
        for pairs, (cost, period) in cases:
            proc = loaded_processor(pairs, start_tid=101)
            piece = piece_for(cost, period, tid=0)
            self._assert_definition(proc, piece)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_definition_on_random_processors(self, seed):
        rng = np.random.default_rng(seed)
        gen = TaskSetGenerator(n=int(rng.integers(2, 7)),
                               period_model="loguniform")
        ts = gen.generate(u_norm=0.5, processors=1, seed=rng)
        proc = ProcessorState(index=0)
        for t in ts:
            # shift tids so the incoming piece (tid=0) has top priority
            proc.add(Task(cost=t.cost, period=t.period, tid=t.tid + 1))
        period = float(rng.uniform(20, 2000))
        piece = piece_for(float(rng.uniform(0.2, 0.95)) * period, period, tid=0)
        self._assert_definition(proc, piece)


class TestMaxSplitAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_binary_equals_points(self, seed):
        rng = np.random.default_rng(seed)
        gen = TaskSetGenerator(n=int(rng.integers(2, 8)),
                               period_model="loguniform")
        ts = gen.generate(u_norm=0.6, processors=1, seed=rng)
        proc = ProcessorState(index=0)
        for t in ts:
            proc.add(t)
        period = float(rng.uniform(20, 2000))
        # tid below / above the existing range exercises both priority
        # cases (tids must be unique — they are priorities).
        tid = -1 if rng.random() < 0.5 else 10_000
        piece = piece_for(float(rng.uniform(0.2, 0.9)) * period, period, tid=tid)
        c_pts = max_split_points(proc.subtasks, piece)
        c_bin = max_split_binary(proc.subtasks, piece)
        assert c_bin == pytest.approx(c_pts, abs=1e-6 * max(1.0, piece.cost))


class TestMaxSplitLowPriorityNewcomer:
    def test_newcomer_below_existing_priorities(self):
        """Phase-3 case: the incoming piece is NOT highest priority."""
        # Existing high-priority heavy task (pre-assigned style).
        proc = loaded_processor([(3, 10)], start_tid=0)
        piece = piece_for(30.0, 40.0, tid=5)  # lower priority than tid 0
        c = max_split_points(proc.subtasks, piece)
        # feasibility: with cost c, R = c + interference of (3,10) <= 40.
        assert c > 0
        assert is_schedulable(
            proc.subtasks
            + [Subtask(cost=c, period=40.0, deadline=40.0, parent=piece.task,
                       index=1, kind=piece.kind)]
        )

    def test_harmonic_fill_through_lower_priority_constraint(self):
        # Existing (2,4) and (2,8); a top-priority (C,8) newcomer can take
        # exactly C=2: the processor then runs at U=1 with harmonic
        # periods, and (2,8)'s response hits its deadline exactly.
        proc = ProcessorState(index=0)
        proc.add(Task(cost=2.0, period=4.0, tid=1))
        proc.add(Task(cost=2.0, period=8.0, tid=2))
        piece = piece_for(4.0, 8.0, tid=0)
        assert max_split_points(proc.subtasks, piece) == pytest.approx(2.0)

    def test_saturated_lower_priority_task_gives_zero(self):
        # (2,4) + (4,8) already uses U=1; any newcomer cost breaks (4,8).
        proc = ProcessorState(index=0)
        proc.add(Task(cost=2.0, period=4.0, tid=1))
        proc.add(Task(cost=4.0, period=8.0, tid=2))
        piece = piece_for(4.0, 8.0, tid=0)
        assert max_split_points(proc.subtasks, piece) == pytest.approx(0.0)


def rm_processor(rng, n, *, newcomer_slot):
    """Random RM-ordered subtasks (priority = period order) with light and
    heavy utilizations and some synthetic deadlines, leaving the tid
    ``2 * newcomer_slot - 1`` free for a newcomer at that slot."""
    periods = np.sort(rng.uniform(4.0, 200.0, size=n + 1))
    subs = []
    for i, period in enumerate(periods):
        if i == newcomer_slot:
            continue
        period = float(period)
        u = rng.uniform(0.02, 0.25) if rng.random() < 0.6 else rng.uniform(0.3, 0.8)
        deadline = period if rng.random() < 0.6 else period * rng.uniform(0.5, 1.0)
        cost = min(float(u) * period, float(deadline))
        task = Task(cost=cost, period=period, tid=2 * i)
        subs.append(Subtask(cost=cost, period=period, deadline=float(deadline),
                            parent=task))
    return subs, float(periods[newcomer_slot])


class TestReducedTestPoints:
    """With a context, MaxSplit evaluates Bini & Buttazzo's reduced test
    points; without, the full Lehoczky/Sha/Ding set.  The split cost must
    be the same float either way, including for pieces below a
    higher-priority (pre-assigned) task and pieces already split."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_context_path_equals_full_set_reference(self, seed):
        from repro.core.rta import RTAContext

        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 7))
        slot = int(rng.integers(0, n + 1))
        subs, period = rm_processor(rng, n, newcomer_slot=slot)
        ctx = RTAContext(subs)
        if not ctx.schedulable:
            return
        piece = piece_for(float(rng.uniform(0.1, 0.95)) * period, period,
                          tid=2 * slot - 1)
        if rng.random() < 0.4:  # a tail: synthetic deadline below T
            piece.split_off(ProcessorState(index=1),
                            float(rng.uniform(0.1, 0.6)) * piece.cost)
        assert max_split_points(subs, piece, context=ctx) == (
            max_split_points(subs, piece, context=None)
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_reduced_points_are_full_points(self, seed):
        from repro.core.maxsplit import _full_points, _reduced_points

        rng = np.random.default_rng(seed)
        periods = sorted(float(p) for p in rng.uniform(1.0, 100.0,
                                                       size=int(rng.integers(0, 7))))
        deadline = float(rng.uniform(1.0, 150.0))
        reduced = _reduced_points(periods, deadline)
        assert deadline in reduced
        assert reduced <= _full_points(periods, deadline)

    def test_rmts_phase3_split_costs_equal_full_set_reference(self, monkeypatch):
        """RM-TS on heavy/light sets with an uncapped bound, which
        pre-assigns several heavy tasks and so reaches phase-3 splits
        below a higher-priority pre-assigned task: every split cost
        equals the full-set reference."""
        from bisect import bisect_right

        from repro.core.admission import ExactRTAAdmission
        from repro.core.rmts import partition_rmts

        seen = {"calls": 0, "below_hp": 0, "pre_assigned": 0}
        real = ExactRTAAdmission.split_cost

        def checked(self, proc, piece):
            got = real(self, proc, piece)
            ctx = proc.rta_context()
            assert got == max_split_points(proc.subtasks, piece, context=None)
            seen["calls"] += 1
            if bisect_right(ctx.prio_list, piece.priority):
                seen["below_hp"] += 1
            return got

        monkeypatch.setattr(ExactRTAAdmission, "split_cost", checked)
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 2, 3 * m + 4))
            periods = rng.uniform(5.0, 200.0, size=n)
            heavy = rng.random(n) < 0.5
            utils = np.where(heavy, rng.uniform(0.45, 0.95, size=n),
                             rng.uniform(0.05, 0.3, size=n))
            ts = TaskSet.from_pairs(zip((utils * periods).tolist(),
                                        periods.tolist()))
            if ts.normalized_utilization(m) > 1.0:
                continue
            for bound in (1.0, 0.9):
                for dedicate in (True, False):
                    result = partition_rmts(ts, m, bound=bound, cap_bound=False,
                                            dedicate_over_bound=dedicate)
                    seen["pre_assigned"] += len(result.info["pre_assigned_tids"])
        assert seen["below_hp"] > 0 and seen["pre_assigned"] > 0, seen


def any_processor(rng, n, *, rm_ordered):
    """Random subtasks with priorities ``2, 4, ..., 2n`` (odd tids are
    free for a newcomer), periods RM-ordered or shuffled against the
    priorities, a total utilization of 0.3-0.9 split at random, and some
    synthetic deadlines below the period (the residue of earlier
    splits)."""
    periods = rng.uniform(4.0, 200.0, size=n)
    if rm_ordered:
        periods = np.sort(periods)
    shares = rng.exponential(size=n)
    utils = shares / max(shares.sum(), 1e-9) * rng.uniform(0.3, 0.9)
    subs = []
    for i, (period, u) in enumerate(zip(periods.tolist(), utils.tolist())):
        deadline = period if rng.random() < 0.6 else period * rng.uniform(0.5, 1.0)
        cost = min(float(u) * period, float(deadline))
        task = Task(cost=cost, period=period, tid=2 * (i + 1))
        subs.append(Subtask(cost=cost, period=period, deadline=float(deadline),
                            parent=task))
    return subs


class TestContextPathBitIdentity:
    """The context path walks the lower-priority constraints from the
    lowest priority up and sums short interference lists without
    ``fsum``; neither may change the float.  Each case compares it with
    the from-scratch full-point-set reference by ``float.hex``."""

    @staticmethod
    def _assert_identical(subs, piece):
        from repro.core.rta import RTAContext

        ctx = RTAContext(subs)
        if not ctx.schedulable:
            return False
        got = max_split_points((), piece, context=ctx)
        want = max_split_points(subs, piece, context=None)
        assert got.hex() == want.hex()
        return True

    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_any_rank_any_period_order(self, seed):
        # Ranks above every resident (RM-TS phase 2) and below some
        # (phase 3); shuffled periods take the full point set.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 8))
        subs = any_processor(rng, n, rm_ordered=rng.random() < 0.5)
        period = float(rng.uniform(4.0, 200.0))
        rank = 0 if rng.random() < 0.5 else int(rng.integers(0, n + 1))
        piece = piece_for(float(rng.uniform(0.05, 0.95)) * period, period,
                          tid=2 * rank + 1)
        if rng.random() < 0.4:  # a tail: synthetic deadline below T
            piece.split_off(ProcessorState(index=1),
                            float(rng.uniform(0.1, 0.6)) * piece.cost)
        self._assert_identical(subs, piece)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_zero_job_points(self, seed):
        # A newcomer period beyond every resident deadline / EPS: every
        # point of every constraint lies within EPS·T of zero, where the
        # tolerant count is 0 and both paths must count one job instead.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        subs = any_processor(rng, n, rm_ordered=rng.random() < 0.5)
        if rng.random() < 0.3:
            # A resident that exactly fills its deadline: a zero numerator.
            t = subs[-1].parent
            subs[-1] = Subtask(cost=subs[-1].deadline, period=t.period,
                               deadline=subs[-1].deadline,
                               parent=Task(cost=subs[-1].deadline,
                                           period=t.period, tid=t.tid))
        period = float(rng.uniform(1e12, 1e13))
        piece = piece_for(float(rng.uniform(0.05, 0.95)) * period, period, tid=1)
        self._assert_identical(subs, piece)

    def test_zero_numerator_constraint_is_ignored(self):
        # (2,4) then (4,8) at priority below the newcomer: the last
        # resident's deadline 8 is met exactly, so its numerator at t=8 is
        # zero, and the newcomer's one job in that window caps it at 0
        # on both paths.
        subs = [
            Subtask(cost=2.0, period=4.0, deadline=4.0,
                    parent=Task(cost=2.0, period=4.0, tid=2)),
            Subtask(cost=4.0, period=8.0, deadline=8.0,
                    parent=Task(cost=4.0, period=8.0, tid=4)),
        ]
        piece = piece_for(1e12, 1e13, tid=1)
        assert self._assert_identical(subs, piece)
        assert max_split_points(subs, piece) == 0.0
