"""Edge cases of the partitioned discrete-event engine."""

import pytest

from repro.core.partition import PartitionResult, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.task import SubtaskKind, Task, TaskSet
from repro.sim.engine import simulate_partition

from tests.sim.test_engine import uni_partition


NAN = float("nan")
INF = float("inf")


class TestNonFiniteArguments:
    """NaN passes ``<= 0``-style checks: a NaN horizon simulated nothing
    and reported a clean run, an infinite horizon or a NaN offset never
    returned, and a NaN or infinite slack died inside NumPy."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": NAN},
            {"horizon": INF},
            {"horizon": 0.0},
            {"preemption_overhead": NAN},
            {"preemption_overhead": INF},
            {"migration_overhead": NAN},
            {"migration_overhead": INF},
            {"offsets": {0: NAN}},
            {"offsets": {0: INF}},
            {"offsets": {0: -1.0}},
            {"release_model": "sporadic", "sporadic_slack": NAN},
            {"release_model": "sporadic", "sporadic_slack": INF},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejected(self, kwargs):
        kwargs.setdefault("horizon", 20.0)
        ts = TaskSet.from_pairs([(1, 4), (2, 10)])
        with pytest.raises(ValueError, match="finite"):
            simulate_partition(uni_partition(ts), **kwargs)


class TestDegenerateInputs:
    def test_horizon_shorter_than_first_period(self):
        ts = TaskSet.from_pairs([(1, 10)])
        sim = simulate_partition(uni_partition(ts), horizon=5.0)
        # one job released at 0, completes at 1, deadline at 10 > horizon
        assert sim.ok
        assert sim.jobs_completed == 1

    def test_horizon_exactly_one_period(self):
        ts = TaskSet.from_pairs([(2, 8)])
        sim = simulate_partition(uni_partition(ts), horizon=8.0)
        assert sim.jobs_completed == 1
        assert sim.max_response[0] == pytest.approx(2.0)

    def test_empty_processor_in_partition(self):
        ts = TaskSet.from_pairs([(1, 4)])
        p0 = ProcessorState(index=0)
        p0.add(ts[0])
        p1 = ProcessorState(index=1)  # idle processor
        part = PartitionResult(
            algorithm="t", taskset=ts, processors=[p0, p1], success=True
        )
        sim = simulate_partition(part, horizon=16.0, record_trace=True)
        assert sim.ok
        assert sim.trace.busy_time(1) == 0.0

    def test_single_task_full_utilization(self):
        ts = TaskSet.from_pairs([(10, 10)])
        sim = simulate_partition(uni_partition(ts), horizon=50.0)
        assert sim.ok
        assert sim.max_response[0] == pytest.approx(10.0)

    def test_very_many_jobs(self):
        ts = TaskSet.from_pairs([(1, 2), (2, 1000)])
        sim = simulate_partition(uni_partition(ts), horizon=10_000.0)
        assert sim.ok
        assert sim.jobs_completed == 5000 + 10


class TestThreeWaySplitExecution:
    def _three_piece_partition(self):
        """A task split across three processors: body, body, tail."""
        ts = TaskSet.from_pairs([(3, 4), (3, 4), (9, 12)])
        t_hi1, t_hi2, t_split = ts[0], ts[1], ts[2]
        p0 = ProcessorState(index=0)
        p0.add(t_hi1)
        p0.add(t_split, 1, 12, 1, SubtaskKind.BODY)
        p1 = ProcessorState(index=1)
        p1.add(t_hi2)
        p1.add(t_split, 1, 11, 2, SubtaskKind.BODY)
        p2 = ProcessorState(index=2)
        p2.add(t_split, 7, 10, 3, SubtaskKind.TAIL)
        return PartitionResult(
            algorithm="t", taskset=ts, processors=[p0, p1, p2], success=True,
            # Deliberately non-Lemma-2 structure (bodies are not highest
            # priority) to exercise engine generality; opt out of the
            # debug sanitizer's well-formedness check.
            info={"synthetic": True},
        )

    def test_chain_executes_in_order(self):
        part = self._three_piece_partition()
        sim = simulate_partition(part, horizon=48.0, record_trace=True)
        assert sim.trace.check_piece_order() == []
        assert sim.trace.check_all() == []

    def test_migration_count_is_pieces_minus_one_per_job(self):
        part = self._three_piece_partition()
        sim = simulate_partition(part, horizon=48.0, record_trace=True)
        # 4 jobs of the split task in 48 time units, 2 migrations each
        assert sim.trace.migrations() == 4 * 2

    def test_piece_responses_reported_per_index(self):
        part = self._three_piece_partition()
        sim = simulate_partition(part, horizon=48.0)
        tid = 2
        assert (tid, 1) in sim.max_piece_response
        assert (tid, 2) in sim.max_piece_response
        assert (tid, 3) in sim.max_piece_response


class TestSimultaneousEvents:
    def test_release_and_completion_coincide(self):
        # (2,4): completion at 2; (2,2)?? choose (1,2),(2,4):
        # tau0 completes at 1; tau0 rereleases at 2 exactly when tau1
        # may be running; all boundaries integer-aligned.
        ts = TaskSet.from_pairs([(1, 2), (2, 4)])
        sim = simulate_partition(uni_partition(ts), horizon=40.0)
        assert sim.ok
        assert sim.max_response[1] == pytest.approx(4.0)

    def test_all_tasks_same_period(self):
        ts = TaskSet.from_pairs([(1, 6), (2, 6), (3, 6)])
        sim = simulate_partition(uni_partition(ts), horizon=36.0)
        assert sim.ok
        # they execute back to back: responses 1, 3, 6
        assert sim.max_response[0] == pytest.approx(1.0)
        assert sim.max_response[1] == pytest.approx(3.0)
        assert sim.max_response[2] == pytest.approx(6.0)


class TestRepeatedSimulationIsPure:
    def test_same_partition_object_reusable(self, tight_harmonic_set):
        part = partition_rmts(tight_harmonic_set, 2)
        a = simulate_partition(part, horizon=96.0)
        b = simulate_partition(part, horizon=96.0)
        assert a.max_response == b.max_response
        assert a.jobs_completed == b.jobs_completed
