"""Policy registry, admission rollback, and migration-budget bounds."""

import pytest

from repro.analysis.algorithms import PARTITIONERS
from repro.cluster.events import ChurnConfig
from repro.cluster.policies import CHURN_POLICIES, make_policy
from repro.cluster.simulator import simulate_churn
from repro.cluster.state import ClusterState
from repro.core.task import Task, TaskSet
from tests.cluster.pools import bind_tasksets

pytestmark = pytest.mark.churn


class TestRegistry:
    def test_registry_spans_partitioners(self):
        for name in PARTITIONERS:
            assert f"repart:{name}" in CHURN_POLICIES

    def test_incremental_and_churn_aware_variants_present(self):
        for name in ("ff-rta", "bf-rta", "wf-rta", "bf-rejoin", "compact"):
            assert name in CHURN_POLICIES

    def test_make_policy_sets_name_and_liveness(self):
        policy = make_policy(ChurnConfig(policy="compact"))
        assert policy.name == "compact"
        assert policy.live
        repart = make_policy(ChurnConfig(policy="repart:rmts"))
        assert not repart.live

    def test_unknown_policy_lists_known_names(self):
        with pytest.raises(ValueError, match="ff-rta"):
            make_policy(ChurnConfig(policy="round-robin"))

    @pytest.mark.parametrize("name", sorted(CHURN_POLICIES))
    def test_every_policy_simulates(self, name):
        config = ChurnConfig(
            policy=name, processors=2, horizon=6, arrival_rate=0.02
        )
        result = simulate_churn(config)
        assert result.events_total == 12
        assert result.metrics.arrivals == 6
        assert (
            result.metrics.admitted
            + result.metrics.rejected
            + result.metrics.queued
            >= result.metrics.arrivals - result.metrics.readmitted
        )


class TestFitAdmission:
    def _setup(self, policy_name, processors=1):
        config = ChurnConfig(policy=policy_name, processors=processors)
        policy = make_policy(config)
        state = ClusterState.fresh(config, live=policy.live)
        return policy, state

    def test_rejection_rolls_back_bit_exact(self):
        policy, state = self._setup("ff-rta", processors=1)
        assert policy.admit(state, 0, rejoin=False) is not None
        before_util = [p._util for p in state.processors]
        before_subtasks = [list(p.subtasks) for p in state.processors]
        # One processor at u_set=0.5 cannot take many more tenants; find
        # a tenant that gets rejected and check nothing changed.
        rejected = None
        for tenant in range(1, 10):
            if policy.admit(state, tenant, rejoin=False) is None:
                rejected = tenant
                break
            before_util = [p._util for p in state.processors]
            before_subtasks = [list(p.subtasks) for p in state.processors]
        assert rejected is not None
        assert [p._util for p in state.processors] == before_util
        assert [list(p.subtasks) for p in state.processors] == before_subtasks
        assert rejected not in state.residents

    def test_admission_outcome_ops_replay(self):
        policy, state = self._setup("bf-rta", processors=2)
        outcome = policy.admit(state, 0, rejoin=False)
        assert outcome is not None and outcome.migrations == 0
        replayed = ClusterState.fresh(state.config, live=True)
        for op in outcome.ops:
            replayed.apply_op(op)
        assert replayed.hosts == state.hosts
        assert replayed.utilization() == state.utilization()


class TestMigrationBudget:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_compact_respects_k_per_departure(self, k):
        config = ChurnConfig(
            policy="compact", processors=4, horizon=30,
            arrival_rate=0.018, k=k,
        )
        result = simulate_churn(config)
        counts = result.metrics.migration_counts
        from repro.cluster.simulator import MIGRATION_BOUNDS

        for i, bound in enumerate(MIGRATION_BOUNDS):
            if bound > k:
                assert counts[i] == 0, (
                    f"departure event migrated more than k={k}"
                )
        assert counts[len(MIGRATION_BOUNDS)] == 0  # overflow bin

    def test_compact_zero_budget_never_migrates(self):
        config = ChurnConfig(
            policy="compact", processors=4, horizon=30,
            arrival_rate=0.018, k=0,
        )
        assert simulate_churn(config).metrics.migrations == 0

    def test_repartition_budget_zero_freezes_placement(self):
        # With k=0, a repartitioner can only admit placements that keep
        # every existing task exactly where it was.
        config = ChurnConfig(
            policy="repart:rmts", processors=4, horizon=20,
            arrival_rate=0.018, k=0,
        )
        assert simulate_churn(config).metrics.migrations == 0


def _reference_union(state, extra):
    """The union as first written: fresh ``Task(cost, period)`` copies,
    and ownership from replaying ``TaskSet``'s sort."""
    raw, owners = [], []
    tenants = state.resident_order()
    if extra is not None:
        tenants.append(extra)
    for tenant in tenants:
        for local, task in enumerate(state.tasks_of(tenant)):
            raw.append(Task(cost=task.cost, period=task.period))
            owners.append((tenant, local))
    union = TaskSet(raw)
    order = sorted(range(len(raw)), key=lambda i: (raw[i].period, i))
    return union, {new_tid: owners[i] for new_tid, i in enumerate(order)}


def _loaded_state(policy_name, seed, tenants=6):
    """A repartition state of *tenants* admitted draws (no equal
    periods), and its policy."""
    config = ChurnConfig(
        policy=policy_name, processors=4, seed=seed, tasks_per_set=5, k=99,
    )
    policy = make_policy(config)
    state = ClusterState.fresh(config, live=False)
    for tenant in range(tenants):
        policy.admit(state, tenant, rejoin=False)
    return policy, state


def _reference_hosts(policy, state, extra):
    """``(tenant, local) -> hosts`` of the reference union's partition."""
    union, owners = _reference_union(state, extra)
    result = policy._partition(union, policy.config.processors)
    if not result.success:
        return None
    hosting = result.host_map()
    return {owner: tuple(hosting[tid]) for tid, owner in owners.items()}


class TestRepartitionUnion:
    @pytest.mark.parametrize("seed", range(6))
    def test_union_reuses_the_residents_tasks(self, seed):
        """Without equal periods the union is the residents' own cluster
        tasks in tid order, each owned by the tenant its tid encodes, in
        the reference union's order."""
        policy, state = _loaded_state("repart:rmts", seed)
        assert state.residents
        for extra in (None, 11):
            union, owners = policy._union(state, extra)
            own = {
                (tenant, local): task
                for tenant in list(state.residents) + [extra]
                if tenant is not None
                for local, task in enumerate(state.tasks_of(tenant))
            }
            assert all(own[owner] is task for task, owner in zip(union, owners))
            assert len(union) == len(own)
            want, want_owners = _reference_union(state, extra)
            assert owners == [want_owners[t.tid] for t in want]
            assert [(t.cost.hex(), t.period.hex()) for t in union] == [
                (t.cost.hex(), t.period.hex()) for t in want
            ]

    @pytest.mark.parametrize("name", sorted(
        n for n in CHURN_POLICIES if n.startswith("repart:")
    ))
    @pytest.mark.parametrize("seed", range(3))
    def test_every_partitioner_places_like_the_reference(self, name, seed):
        """Every ``repart:<name>`` partitioner gives the reused union the
        host map it gives the reference construction."""
        policy, state = _loaded_state(name, seed, tenants=8)
        for extra in (None, 13):
            union, owners = policy._union(state, extra)
            result = policy._partition(union, policy.config.processors)
            want = _reference_hosts(policy, state, extra)
            assert result.success == (want is not None)
            if want is None:
                continue
            hosting = result.host_map()
            got = {
                owner: tuple(hosting[task.tid])
                for task, owner in zip(union, owners)
            }
            assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_union_matches_reference_construction(self, seed):
        """With equal periods the union falls back to the reference
        construction: fresh tasks, tids ``0..N-1``, ties in residency
        order."""
        config = ChurnConfig(
            policy="repart:rmts", processors=4, seed=seed, tasks_per_set=5,
            k=99,
        )
        policy = make_policy(config)
        state = ClusterState.fresh(config, live=False)
        # Equal periods across tenants: the tie order must survive.
        shared = TaskSet(
            [Task(cost=1.0, period=20.0), Task(cost=2.0, period=50.0)]
        )
        bind_tasksets(state, {1: shared, 3: shared})
        for tenant in range(6):
            policy.admit(state, tenant, rejoin=False)
        assert {1, 3} <= set(state.residents)
        for extra in (None, 11):
            union, owners = policy._union(state, extra)
            want, want_mapping = _reference_union(state, extra)
            assert dict(enumerate(owners)) == want_mapping
            assert [(t.cost.hex(), t.period.hex(), t.tid) for t in union] == [
                (t.cost.hex(), t.period.hex(), t.tid) for t in want
            ]
