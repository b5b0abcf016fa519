"""The processor row store: rows are the only piece store on the
partitioning path, and ``Subtask`` objects exist only where a partition
is read.

* Random sequences of ``add``, ``remove_parent``, probes and context
  warm-ups leave a processor whose materialized ``subtasks`` equal a plain
  list maintained alongside, whose running utilization is bit-identical
  to the list-order sum, and whose context equals a fresh
  ``RTAContext`` of that list.
* On a fixed E3 task set the sweep's four algorithms build no
  ``Subtask`` until ``.subtasks`` or ``validate()`` is read, and churn
  runs build none at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.algorithms import standard_algorithms
from repro.core.baselines import FitHeuristic, partition_no_split
from repro.core.baselines.spa import partition_spa2
from repro.core.partition import ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rta import RTAContext
from repro.core.task import Subtask, SubtaskKind, Task
from repro.taskgen.generators import TaskSetGenerator
from tests.core.test_rta_incremental import same_columns, same_floats

#: The task pool a processor draws its pieces from (tids = priorities).
POOL = [
    Task(cost=1.0, period=float(p), tid=tid)
    for tid, p in enumerate((3.7, 5.3, 6.1, 9.9, 12.7, 15.1, 21.3, 24.9, 39.1, 51.7))
]

#: Slots pick among the tasks absent from (add, probe) or present on
#: (remove) the processor, so every op acts.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 99),
            st.floats(0.02, 0.4),  # utilization of the piece
            st.floats(0.5, 1.0),  # deadline as a share of the period
            st.sampled_from(list(SubtaskKind)),
        ),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(st.just("probe"), st.integers(0, 99), st.floats(0.01, 0.5)),
        st.just(("warm",)),
    ),
    max_size=30,
)


def check_against(proc, subtasks):
    assert proc.subtasks == subtasks
    assert proc.utilization == float(sum(s.utilization for s in subtasks))
    got, fresh = proc.rta_context(), RTAContext(subtasks)
    same_columns(got, fresh)
    assert got.schedulable == fresh.schedulable
    assert got.first_fail == fresh.first_fail
    if fresh.schedulable:
        got._resolve()
        fresh._resolve()
        same_floats(got.responses, fresh.responses)


class TestRowStoreEqualsSubtaskList:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_add_remove_sequences(self, sequence):
        proc = ProcessorState(index=0)
        subtasks = []  # the list a processor of Subtask objects would hold
        for op in sequence:
            present = [s.parent for s in subtasks]
            absent = [t for t in POOL if t not in present]
            if op[0] == "add" and absent:  # one piece per task and processor
                _, slot, util, share, kind = op
                task = absent[slot % len(absent)]
                cost = util * task.period
                deadline = max(cost, share * task.period)
                proc.add(task, cost, deadline, 1, kind)
                subtasks.append(
                    Subtask(cost=cost, period=task.period, deadline=deadline,
                            parent=task, index=1, kind=kind)
                )
            elif op[0] == "remove" and present:
                tid = present[op[1] % len(present)].tid
                removed = proc.remove_parent(tid)
                kept = [s for s in subtasks if s.parent.tid != tid]
                assert removed == len(subtasks) - len(kept)
                subtasks = kept
            elif op[0] == "probe" and absent:
                task = absent[op[1] % len(absent)]
                # May arm the context's probe memo for the next add.
                proc.schedulable_with(
                    Task(cost=op[2] * task.period, period=task.period,
                         tid=task.tid)
                )
            elif op[0] == "warm":
                proc.rta_context()
            assert proc.subtasks == subtasks
            assert proc.utilization == float(
                sum(s.utilization for s in subtasks)
            )
        check_against(proc, subtasks)

    def test_setter_replaces_rows_and_context(self):
        proc = ProcessorState(index=0)
        proc.add(POOL[0])
        proc.rta_context()
        subtasks = [Subtask.whole(POOL[3]), Subtask.whole(POOL[1])]
        proc.subtasks = subtasks
        check_against(proc, subtasks)

    def test_reads_are_fresh_copies(self):
        proc = ProcessorState(index=0)
        proc.add(POOL[0])
        proc.subtasks.append(Subtask.whole(POOL[1]))
        assert proc.subtasks == [Subtask.whole(POOL[0])]


@pytest.fixture
def subtask_builds(monkeypatch):
    """Count every ``Subtask`` construction (its validation hook)."""
    built = []
    original = Subtask.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Subtask, "__post_init__", counting)
    return built


class TestNoSubtaskOnTheHotPath:
    """The E3 sweep configuration (M=8, n=24, log-uniform periods) at a
    level where RM-TS splits: partitioning builds no ``Subtask``."""

    ALGORITHMS = {
        "RM-TS": lambda ts, m: partition_rmts(ts, m),
        "RM-TS*": lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False),
        "SPA2": partition_spa2,
        "P-RM-FFD": lambda ts, m: partition_no_split(
            ts, m, heuristic=FitHeuristic.FIRST_FIT
        ),
    }

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_partitioning_builds_no_subtask(self, name, subtask_builds):
        ts = TaskSetGenerator(n=24, period_model="loguniform").generate(
            u_norm=0.85, processors=8, seed=3
        )
        result = self.ALGORITHMS[name](ts, 8)
        assert subtask_builds == []
        pieces = sum(len(p.rows) for p in result.processors)
        assert pieces >= len(ts) - len(result.unassigned_tids)
        if name.startswith("RM-TS"):
            assert result.success and result.split_tids()
        assert result.validate() == []
        assert len(subtask_builds) > 0
        before = len(subtask_builds)
        materialized = [s for p in result.processors for s in p.subtasks]
        assert len(subtask_builds) - before == pieces == len(materialized)

    def test_sweep_menu_builds_no_subtask(self, subtask_builds):
        ts = TaskSetGenerator(n=24, period_model="loguniform").generate(
            u_norm=0.9, processors=8, seed=5
        )
        for test in standard_algorithms().values():
            test(ts, 8)
        assert subtask_builds == []

    @pytest.mark.parametrize(
        "policy", ["ff-rta", "bf-rejoin", "compact", "repart:rmts"]
    )
    def test_churn_events_build_no_subtask(self, policy, subtask_builds):
        """Fit admission, compaction, placement and repartitioning read
        rows: a churn run (with migrations and departures) builds none."""
        from repro.cluster.events import ChurnConfig
        from repro.cluster.simulator import simulate_churn

        result = simulate_churn(
            ChurnConfig(policy=policy, processors=4, horizon=40,
                        arrival_rate=0.018, seed=5)
        )
        assert result.metrics.departures > 0
        if policy in ("compact", "repart:rmts"):
            assert result.metrics.migrations > 0
        assert subtask_builds == []
