"""A fit policy's admission is a transaction.

A rejected ``FitPolicy.admit`` restores the snapshots of the processors
it touched instead of withdrawing its trial placements.  After any
sequence of accepted and rejected admits and departures, every live
processor must equal a fresh build from its own rows: the rows, the
utilization accumulator's bits, the analysis context's columns, its
verdict and its responses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import ChurnConfig
from repro.cluster.policies import make_policy
from repro.cluster.state import ClusterState
from repro.core.partition import ProcessorState
from repro.core.rta import RTAContext
from repro.core.task import Task, TaskSet
from tests.cluster.pools import bind_tasksets

pytestmark = pytest.mark.churn

FIT_POLICIES = ("ff-rta", "bf-rta", "wf-rta", "bf-rejoin", "compact")


def _same_floats(got, want):
    assert [x.hex() for x in got] == [x.hex() for x in want]


def assert_matches_fresh_build(proc):
    fresh = ProcessorState(index=proc.index)
    for row in proc.rows:
        fresh.add(row.parent, row.cost, row.deadline, row.index, row.kind)
    assert proc.rows == fresh.rows
    assert proc._util.hex() == fresh._util.hex()
    if proc._ctx is None:
        return  # the next probe builds it from the rows
    # A copy, so resolving deferred slots cannot steer the run under test.
    got = proc._ctx.copy()
    want = RTAContext.from_rows(proc.rows)
    assert got.costs == want.costs
    assert got.periods == want.periods
    assert got.deadlines == want.deadlines
    assert got.ratios == want.ratios
    assert got.prio_list == want.prio_list
    assert got.util_sum.hex() == want.util_sum.hex()
    assert got.implicit == want.implicit
    assert got.rm_ordered == want.rm_ordered
    assert got.schedulable == want.schedulable
    assert got.first_fail == want.first_fail
    if want.schedulable:
        got._resolve()
        want._resolve()
        _same_floats(got.responses, want.responses)


def _observable(state):
    return (
        [list(p.rows) for p in state.processors],
        [p._util.hex() for p in state.processors],
        list(state.hosts.items()),
        list(state.residents.items()),
    )


def drive(seed, policy_name, steps=30):
    """Random admits (some rejected) and departures on one live state,
    checked after every step; returns the number of rejections."""
    rng = np.random.default_rng(seed)
    config = ChurnConfig(
        policy=policy_name,
        processors=int(rng.integers(1, 4)),
        seed=seed,
        tasks_per_set=int(rng.integers(2, 7)),
        u_set=float(rng.uniform(0.3, 0.9)),
        k=int(rng.integers(0, 3)),
    )
    policy = make_policy(config)
    state = ClusterState.fresh(config, live=True)
    tenant = 0
    rejected = 0
    for _ in range(steps):
        if state.residents and rng.random() < 0.35:
            residents = list(state.residents)
            state.apply_withdraw(residents[int(rng.integers(len(residents)))])
            policy.on_departure(state)
        else:
            before = _observable(state)
            outcome = policy.admit(
                state, tenant, rejoin=bool(rng.random() < 0.5)
            )
            if outcome is None:
                rejected += 1
                assert _observable(state) == before
            tenant += 1
        for proc in state.processors:
            assert_matches_fresh_build(proc)
    return rejected


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy_name=st.sampled_from(FIT_POLICIES),
)
@settings(max_examples=60, deadline=None)
def test_admit_reject_depart_sequences_equal_fresh_builds(seed, policy_name):
    drive(seed, policy_name)


@pytest.mark.parametrize("policy_name", FIT_POLICIES)
def test_rejections_roll_back_partial_placements(policy_name, monkeypatch):
    """The seeded runs do exercise rollback: rejections happen, and some
    of them restore a processor that had taken part of the tenant."""
    restores = []
    real_restore = ProcessorState.restore

    def counting_restore(self, snapshot):
        restores.append(self.index)
        real_restore(self, snapshot)

    monkeypatch.setattr(ProcessorState, "restore", counting_restore)
    rejected = sum(drive(seed, policy_name) for seed in range(8))
    assert rejected > 0
    assert restores


def test_partial_placement_rolls_back_without_analysis(monkeypatch):
    """A tenant whose first task fits and whose second does not: the
    rollback keeps the processor's context, so nothing is rebuilt."""
    config = ChurnConfig(policy="ff-rta", processors=1)
    policy = make_policy(config)
    state = ClusterState.fresh(config, live=True)
    bind_tasksets(state, {
        0: TaskSet([Task(cost=4.0, period=10.0)]),
        1: TaskSet([Task(cost=1.0, period=10.0), Task(cost=30.0, period=50.0)]),
    })
    assert policy.admit(state, 0, rejoin=False) is not None
    proc = state.processors[0]
    before = (list(proc.rows), proc._util, proc._ctx)
    builds = []
    monkeypatch.setattr(
        RTAContext, "from_rows", classmethod(lambda cls, rows: builds.append(1))
    )
    assert policy.admit(state, 1, rejoin=False) is None
    assert (proc.rows, proc._util) == before[:2]
    assert proc._ctx is not None and proc._ctx is not before[2]
    assert policy.admit(state, 1, rejoin=False) is None
    assert builds == []
    monkeypatch.undo()
    assert_matches_fresh_build(proc)
