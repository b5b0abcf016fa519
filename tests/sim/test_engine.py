"""Tests for the partitioned discrete-event simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.rta import response_times
from repro.core.task import Subtask, SubtaskKind, Task, TaskSet
from repro.sim.engine import default_horizon, simulate_partition
from repro.taskgen.generators import TaskSetGenerator

from tests.conftest import integer_taskset_strategy


def uni_partition(taskset):
    proc = ProcessorState(index=0)
    for t in taskset:
        proc.add(t)
    return PartitionResult(
        algorithm="test", taskset=taskset, processors=[proc], success=True
    )


class TestDefaultHorizon:
    def test_uses_hyperperiod_when_integer(self):
        ts = TaskSet.from_pairs([(1, 4), (1, 6)])
        assert default_horizon(ts, cycles=2) == pytest.approx(24.0)

    def test_falls_back_for_irrational(self):
        ts = TaskSet.from_pairs([(1, 3.7)])
        assert default_horizon(ts, fallback_periods=10) == pytest.approx(37.0)


class TestSingleProcessor:
    def test_simple_schedulable_set(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8)])
        sim = simulate_partition(uni_partition(ts), horizon=32.0)
        assert sim.ok
        assert sim.jobs_completed == 8 + 4

    def test_response_times_match_rta(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8), (2, 16)])
        sim = simulate_partition(uni_partition(ts), horizon=64.0)
        # synchronous release: max observed response == RTA exactly
        assert sim.max_response[0] == pytest.approx(1.0)
        assert sim.max_response[1] == pytest.approx(3.0)
        assert sim.max_response[2] == pytest.approx(6.0)

    def test_overload_misses(self):
        ts = TaskSet.from_pairs([(3, 4), (3, 8)])
        sim = simulate_partition(uni_partition(ts), horizon=32.0)
        assert not sim.ok
        assert any(m.tid == 1 for m in sim.misses)

    def test_boundary_meets_deadline_exactly(self):
        # (2,4),(2,8),(4,16): U=1; tau2 finishes exactly at t=16.
        ts = TaskSet.from_pairs([(2, 4), (2, 8), (4, 16)])
        sim = simulate_partition(uni_partition(ts), horizon=48.0)
        assert sim.ok
        assert sim.max_response[2] == pytest.approx(16.0)

    def test_stop_on_miss(self):
        ts = TaskSet.from_pairs([(3, 4), (3, 8)])
        sim = simulate_partition(
            uni_partition(ts), horizon=1000.0, stop_on_miss=True
        )
        assert len(sim.misses) == 1

    def test_incomplete_partition_rejected(self):
        ts = TaskSet.from_pairs([(1, 4)])
        part = uni_partition(ts)
        part.unassigned_tids = [0]
        with pytest.raises(ValueError):
            simulate_partition(part)

    def test_bad_horizon_rejected(self):
        ts = TaskSet.from_pairs([(1, 4)])
        with pytest.raises(ValueError):
            simulate_partition(uni_partition(ts), horizon=0.0)


class TestSplitTaskExecution:
    def _split_partition(self):
        """tau0=(2,4) and tau1=(6,12) split as body(2)@P1, tail(4)@P0."""
        ts = TaskSet.from_pairs([(2, 4), (6, 12)])
        t0, t1 = ts[0], ts[1]
        p0 = ProcessorState(index=0)
        p0.add(t0)
        p0.add(t1, 4, 10, 2, SubtaskKind.TAIL)
        p1 = ProcessorState(index=1)
        p1.add(t1, 2, 12, 1, SubtaskKind.BODY)
        return PartitionResult(
            algorithm="test", taskset=ts, processors=[p0, p1], success=True
        )

    def test_split_task_meets_deadlines(self):
        sim = simulate_partition(self._split_partition(), horizon=48.0)
        assert sim.ok

    def test_precedence_respected_in_trace(self):
        sim = simulate_partition(
            self._split_partition(), horizon=48.0, record_trace=True
        )
        assert sim.trace.check_all() == []

    def test_tail_ready_deferred_by_body(self):
        sim = simulate_partition(
            self._split_partition(), horizon=48.0, record_trace=True
        )
        by_task = sim.trace.by_task()
        tail_ivs = [i for i in by_task[1]
                    if i.piece_index == 2 and i.job_index == 0]
        body_ivs = [i for i in by_task[1]
                    if i.piece_index == 1 and i.job_index == 0]
        # job 0's body runs [0,2] (alone on P1); its tail starts at >= 2.
        assert min(i.start for i in tail_ivs) >= 2.0 - 1e-9
        assert max(i.end for i in body_ivs) == pytest.approx(2.0)

    def test_executed_time_per_job_equals_cost(self):
        sim = simulate_partition(
            self._split_partition(), horizon=24.0, record_trace=True
        )
        per_job = sim.trace.executed_per_job()
        assert per_job[(1, 0)] == pytest.approx(6.0)
        assert per_job[(0, 0)] == pytest.approx(2.0)


class TestPartitionIntegration:
    @given(st.integers(0, 3_000))
    @settings(max_examples=15, deadline=None)
    def test_accepted_rmts_partitions_never_miss(self, seed):
        """Lemma 4, empirically."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        gen = TaskSetGenerator(n=3 * m, period_model="discrete")
        ts = gen.generate(
            u_norm=float(rng.uniform(0.6, 0.92)), processors=m, seed=rng
        )
        part = partition_rmts(ts, m)
        if not part.success:
            return
        sim = simulate_partition(part, record_trace=True)
        assert sim.ok, f"deadline miss in accepted partition (seed {seed})"
        assert sim.trace.check_all() == []

    @given(st.integers(0, 3_000))
    @settings(max_examples=15, deadline=None)
    def test_observed_responses_bounded_by_rta(self, seed):
        rng = np.random.default_rng(seed)
        m = 2
        gen = TaskSetGenerator(n=6, period_model="discrete")
        ts = gen.generate(
            u_norm=float(rng.uniform(0.6, 0.9)), processors=m, seed=rng
        )
        part = partition_rmts_light(ts, m)
        if not part.success:
            return
        sim = simulate_partition(part)
        rta = part.response_time_report()
        for proc in part.processors:
            result = rta[proc.index]
            ordered = sorted(proc.subtasks, key=lambda s: s.priority)
            for sub, resp in zip(ordered, result.responses):
                observed = sim.max_piece_response.get(
                    (sub.parent.tid, sub.index)
                )
                if observed is not None:
                    assert observed <= resp + 1e-6

    @given(integer_taskset_strategy(min_tasks=2, max_tasks=5, max_period=12))
    @settings(max_examples=25, deadline=None)
    def test_uniproc_sim_agrees_with_rta(self, ts):
        """Exact RTA and hyperperiod simulation agree on schedulability
        (synchronous release is the critical instant)."""
        if ts.total_utilization > 1.0:
            return
        subs = [Subtask.whole(t) for t in ts]
        analysis = response_times(subs)
        sim = simulate_partition(
            uni_partition(ts), horizon=float(ts.hyperperiod())
        )
        assert analysis.schedulable == sim.ok
        if analysis.schedulable:
            ordered = sorted(subs, key=lambda s: s.priority)
            for sub, resp in zip(ordered, analysis.responses):
                assert sim.max_response[sub.parent.tid] <= resp + 1e-9
