"""Cluster task identity and the journaled op vocabulary."""

import math

import pytest

from repro.cluster import state as state_module
from repro.cluster.events import ChurnConfig, tenant_taskset
from repro.cluster.state import (
    ClusterState,
    cluster_tasks,
    cluster_tid,
    decode_tid,
)
from repro.core.task import Task

pytestmark = pytest.mark.churn


class TestClusterTid:
    def test_roundtrip(self):
        tid = cluster_tid(123.456789, tenant=42, local=7)
        assert decode_tid(tid) == (42, 7)

    def test_rm_order_across_tenants(self):
        # Shorter period wins regardless of tenant index.
        assert cluster_tid(10.0, 999, 0) < cluster_tid(11.0, 0, 0)
        # Equal periods tie-break by arrival order, then local index.
        assert cluster_tid(10.0, 0, 5) < cluster_tid(10.0, 1, 0)
        assert cluster_tid(10.0, 3, 0) < cluster_tid(10.0, 3, 1)

    def test_int64_envelope(self):
        # Largest encodable tid stays a signed 64-bit integer.
        assert cluster_tid(10_000.0, 10**6 - 1, 99) < 2**63

    def test_tenant_range_validated(self):
        with pytest.raises(ValueError):
            cluster_tid(10.0, 10**6, 0)
        with pytest.raises(ValueError):
            cluster_tid(10.0, -1, 0)

    def test_cluster_tasks_preserve_shape(self):
        config = ChurnConfig(tasks_per_set=3)
        ts = tenant_taskset(config, 5)
        tasks = cluster_tasks(5, ts)
        assert [t.cost for t in tasks] == [t.cost for t in ts]
        assert [t.period for t in tasks] == [t.period for t in ts]
        assert [decode_tid(t.tid) for t in tasks] == [
            (5, t.tid) for t in ts
        ]
        assert tasks[0].name == "t5.0"


class TestClusterStateOps:
    def _live(self, processors=2):
        return ClusterState.fresh(
            ChurnConfig(processors=processors), live=True
        )

    def test_place_and_withdraw_roundtrip(self):
        state = self._live()
        tasks = state.tasks_of(0)
        hosts = [[i % 2] for i in range(len(tasks))]
        state.apply_place(0, hosts)
        assert state.resident_order() == [0]
        assert state.utilization() > 0.0
        assert state.hosts[(0, 0)] == (0,)
        removed = state.apply_withdraw(0)
        assert removed == len(tasks)
        assert state.resident_order() == []
        assert state.utilization() == 0.0
        assert not state.hosts

    def test_withdraw_asks_only_recorded_hosts(self, monkeypatch):
        from repro.core.partition import ProcessorState

        state = self._live(processors=4)
        tasks = state.tasks_of(0)
        state.apply_place(0, [[1] for _ in tasks])
        asked = []
        real = ProcessorState.remove_parent

        def spy(proc, tid):
            asked.append(proc.index)
            return real(proc, tid)

        monkeypatch.setattr(ProcessorState, "remove_parent", spy)
        assert state.apply_withdraw(0) == len(tasks)
        assert asked == [1] * len(tasks)
        assert all(not p.subtasks for p in state.processors)

    def test_withdraw_unknown_tenant_is_noop(self):
        state = self._live()
        assert state.apply_withdraw(77) == 0

    def test_migrate_moves_one_task(self):
        state = self._live()
        tasks = state.tasks_of(0)
        state.apply_place(0, [[0] for _ in tasks])
        before_src = state.processors[0].utilization
        state.apply_migrate(0, 1, 0, 1)
        assert state.hosts[(0, 1)] == (1,)
        assert state.processors[0].utilization < before_src
        assert state.processors[1].utilization > 0.0

    def test_place_host_count_mismatch_rejected(self):
        state = self._live()
        with pytest.raises(ValueError):
            state.apply_place(0, [[0]])  # tasks_per_set defaults to 4

    def test_install_is_repart_only(self):
        live = self._live()
        with pytest.raises(ValueError):
            live.apply_install([], {})
        state = ClusterState.fresh(ChurnConfig(processors=2), live=False)
        tasks = state.tasks_of(0)
        host_map = {f"0:{i}": [i % 2] for i in range(len(tasks))}
        state.apply_install([0], host_map)
        assert state.resident_order() == [0]
        assert state.hosts[(0, 1)] == (1,)
        with pytest.raises(ValueError):
            state.apply_migrate(0, 0, 0, 1)  # no live processors

    def test_install_equals_the_journaled_install(self):
        config = ChurnConfig(processors=3)
        hosts = {(2, 0): (1,), (0, 1): (0, 2), (0, 0): (2,), (2, 1): (0,)}
        direct = ClusterState.fresh(config, live=False)
        direct.install([2, 0], dict(hosts))
        replayed = ClusterState.fresh(config, live=False)
        replayed.apply_install(
            [2, 0], {f"{t}:{i}": list(h) for (t, i), h in hosts.items()}
        )
        assert direct.resident_order() == replayed.resident_order() == [2, 0]
        assert list(direct.hosts.items()) == list(replayed.hosts.items())
        assert direct.utilization() == replayed.utilization()
        with pytest.raises(ValueError):
            ClusterState.fresh(config, live=True).install([], {})

    def test_apply_op_dispatch_matches_direct_calls(self):
        a = self._live()
        b = self._live()
        hosts = [[0] for _ in a.tasks_of(0)]
        a.apply_place(0, hosts)
        b.apply_op(["place", 0, hosts])
        assert a.hosts == b.hosts
        assert a.utilization() == b.utilization()
        with pytest.raises(ValueError):
            a.apply_op(["rebalance", 0])

    def test_utilization_sums_left_to_right(self, monkeypatch):
        """List order, not the compensated builtin ``sum`` of 3.12+."""
        monkeypatch.setattr(
            state_module, "sum", lambda values, start=0: math.fsum(values) + start,
            raising=False,
        )
        state = self._live(processors=3)
        for proc, cost in zip(state.processors, (1.0, 2.0, 3.0)):
            proc.add(Task(cost=cost, period=10.0, tid=int(cost)))
        assert state.utilization() == ((0.1 + 0.2) + 0.3) / 3
        repart = ClusterState.fresh(ChurnConfig(processors=3), live=False)
        repart.residents[0] = tuple(
            Task(cost=c, period=10.0, tid=i) for i, c in enumerate((1.0, 2.0, 3.0))
        )
        assert repart.utilization() == ((0.1 + 0.2) + 0.3) / 3

    def test_tasks_of_cached(self):
        state = self._live()
        generated = state.tasks_of(9)
        assert state.tasks_of(9) is generated
        assert generated == cluster_tasks(9, tenant_taskset(state.config, 9))
