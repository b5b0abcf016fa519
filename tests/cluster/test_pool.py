"""The tenant pool: grid cells share tenants' task sets and timeline
draws, and what they read is bit-identical to a fresh build."""

import gc
import random
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from repro.cluster.events import (
    _POOL_SLOTS,
    ChurnConfig,
    ChurnEvent,
    build_event_timeline,
    pool_of,
    tenant_pool,
    tenant_taskset,
)
from repro.cluster.state import ClusterState, cluster_tasks
from repro.cluster.sweep import run_churn_grid
from repro.runner import cell_rng
from repro.taskgen.generators import TaskSetGenerator
from tests.cluster.pools import bind_tasksets

pytestmark = pytest.mark.churn


@pytest.fixture(autouse=True)
def _cold_pools():
    tenant_pool.cache_clear()
    yield
    tenant_pool.cache_clear()


def _fresh_lifetime(config, tenant):
    """Lifetime as drawn straight from its stream, no pool."""
    if config.lifetime_model == "fixed":
        return config.mean_lifetime
    rng = cell_rng(config.seed, 1, tenant)
    if config.lifetime_model == "pareto":
        x_m = config.mean_lifetime * (2.0 - 1.0) / 2.0
        return float(x_m * (1.0 + rng.pareto(2.0)))
    return float(rng.exponential(config.mean_lifetime))


def _fresh_timeline(config):
    """The timeline drawn straight from its streams, no pool."""
    arrivals = []
    if config.arrival_model == "trace":
        for tenant, (time, lifetime) in enumerate(config.trace):
            if lifetime <= 0.0:
                lifetime = _fresh_lifetime(config, tenant)
            arrivals.append((tenant, float(time), float(lifetime)))
    else:
        now = 0.0
        for tenant in range(config.horizon):
            gap = cell_rng(config.seed, 0, tenant).exponential(
                1.0 / config.arrival_rate
            )
            now += float(gap)
            arrivals.append((tenant, now, _fresh_lifetime(config, tenant)))
    events = [ChurnEvent(t, "arrival", k) for k, t, _ in arrivals]
    events.extend(ChurnEvent(t + life, "departure", k) for k, t, life in arrivals)
    return sorted(events, key=lambda e: e.sort_key)


def _hex_events(events):
    return [(float(e.time).hex(), e.kind, e.tenant) for e in events]


def _hex_tasks(taskset):
    return [(t.cost.hex(), t.period.hex(), t.tid, t.name) for t in taskset]


def _random_config(rng):
    kwargs = dict(
        seed=rng.randrange(10**4),
        horizon=rng.randrange(1, 30),
        arrival_rate=10 ** rng.uniform(-4, 1),
        mean_lifetime=10 ** rng.uniform(0, 4),
        lifetime_model=rng.choice(["exponential", "pareto", "fixed"]),
        u_set=rng.uniform(0.05, 1.0),
        tasks_per_set=rng.randrange(1, 8),
        period_model=rng.choice(["loguniform", "uniform", "harmonic"]),
        policy=rng.choice(["ff-rta", "compact", "repart:rmts"]),
    )
    if rng.random() < 0.2:
        kwargs["arrival_model"] = "trace"
        kwargs["trace"] = tuple(
            (rng.uniform(0.0, 100.0), rng.choice([0.0, rng.uniform(1, 50)]))
            for _ in range(rng.randrange(1, 6))
        )
    return ChurnConfig(**kwargs)


class TestPooledEqualsFresh:
    def test_randomized_configs_bit_identical(self):
        rng = random.Random(2024)
        configs = [_random_config(rng) for _ in range(40)]
        # Read every config twice, the second pass from warm pools.
        for _ in range(2):
            for config in configs:
                assert _hex_events(build_event_timeline(config)) == (
                    _hex_events(_fresh_timeline(config))
                )
                state = ClusterState.fresh(config, live=False)
                for tenant in range(min(config.horizon, 6)):
                    assert _hex_tasks(state.taskset_of(tenant)) == (
                        _hex_tasks(tenant_taskset(config, tenant))
                    )

    def test_rate_change_reuses_draws_exactly(self):
        base = ChurnConfig(horizon=20, seed=5)
        build_event_timeline(base)
        for rate in (0.001, 0.014, 0.3, 7.0):
            config = replace(base, arrival_rate=rate)
            assert _hex_events(build_event_timeline(config)) == (
                _hex_events(_fresh_timeline(config))
            )


class TestPoolKey:
    @pytest.mark.parametrize(
        "change",
        [
            {"policy": "repart:rmts"},
            {"arrival_rate": 0.5},
            {"k": 0},
            {"queue_limit": 1},
            {"max_wait": 3.0},
            {"processors": 2},
        ],
    )
    def test_shared_when_only_the_cell_differs(self, change):
        base = ChurnConfig(seed=3)
        assert pool_of(replace(base, **change)) is pool_of(base)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"u_set": 0.25},
            {"tasks_per_set": 5},
            {"period_model": "uniform"},
            {"tmin": 20.0},
            {"tmax": 500.0},
        ],
    )
    def test_separate_when_the_tenants_differ(self, change):
        base = ChurnConfig(seed=3)
        assert pool_of(replace(base, **change)) is not pool_of(base)


class TestReuseAndBounds:
    def test_serial_grid_generates_each_tenant_once(self, monkeypatch):
        calls = []
        original = TaskSetGenerator.generate

        def counted(generator, **kwargs):
            calls.append(kwargs)
            return original(generator, **kwargs)

        monkeypatch.setattr(TaskSetGenerator, "generate", counted)
        base = ChurnConfig(processors=4, horizon=10, seed=11)
        rows = run_churn_grid(
            base,
            ["ff-rta", "bf-rejoin", "compact", "repart:rmts"],
            [0.008, 0.014, 0.018],
            jobs=1,
        )
        assert len(rows) == 12
        assert len(calls) == base.horizon

    def test_cells_share_cluster_tasks_but_not_primed_ones(self):
        """A state primed with sets of its own (bound to a fresh pool)
        reads those; every other state still shares the grid's tasks."""
        base = ChurnConfig(processors=4, seed=11)
        live = ClusterState.fresh(base, live=True)
        repart = ClusterState.fresh(
            replace(base, policy="repart:rmts", arrival_rate=0.5), live=False
        )
        tasks = live.tasks_of(4)
        assert repart.tasks_of(4) is tasks
        assert tasks == cluster_tasks(4, tenant_taskset(base, 4))
        bind_tasksets(repart, {4: tenant_taskset(replace(base, seed=12), 4)})
        primed = repart.tasks_of(4)
        assert primed != tasks
        assert pool_of(base).tasks(4) is tasks
        assert live.tasks_of(4) is tasks

    def test_pools_bounded_after_many_seeds(self):
        first = weakref.ref(pool_of(ChurnConfig(seed=0, horizon=5)))
        for seed in range(1, 40):
            config = ChurnConfig(seed=seed, horizon=5)
            build_event_timeline(config)
            ClusterState.fresh(config, live=False).taskset_of(0)
        assert tenant_pool.cache_info().currsize <= _POOL_SLOTS
        gc.collect()
        assert first() is None

    def test_state_keeps_its_pool_after_eviction(self):
        config = ChurnConfig(seed=77)
        state = ClusterState.fresh(config, live=False)
        before = state.taskset_of(2)
        tenant_pool.cache_clear()
        assert state.taskset_of(2) is before

    def test_threads_filling_pools_never_mix(self):
        configs = [ChurnConfig(seed=seed, u_set=u) for seed, u in
                   ((1, 0.5), (2, 0.5), (1, 0.3))]
        # Three threads per configuration: more threads than cores, some
        # racing on one pool's tenants, others on other keys.
        workers = [config for config in configs for _ in range(3)]
        barrier = threading.Barrier(len(workers))
        seen = [None] * len(workers)
        timelines = [None] * len(workers)

        def fill(slot, config):
            state = ClusterState.fresh(config, live=False)
            barrier.wait(timeout=30)
            timelines[slot] = build_event_timeline(config)
            seen[slot] = [state.taskset_of(t) for t in range(30)]

        threads = [
            threading.Thread(target=fill, args=(slot, config))
            for slot, config in enumerate(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, config in enumerate(workers):
            assert [_hex_tasks(ts) for ts in seen[slot]] == [
                _hex_tasks(tenant_taskset(config, t)) for t in range(30)
            ]
            assert _hex_events(timelines[slot]) == (
                _hex_events(_fresh_timeline(config))
            )


class TestSharedTimeline:
    """Each arrival stream's sorted timeline is built once per pool; what
    every caller reads equals a build on a fresh pool."""

    @pytest.mark.parametrize("arrival_model", ["poisson", "trace"])
    @pytest.mark.parametrize("lifetime_model", ["exponential", "pareto", "fixed"])
    def test_equals_a_build_on_a_fresh_pool(self, arrival_model, lifetime_model):
        trace = ((3.0, 0.0), (1.5, 40.0), (7.25, 0.0), (1.5, 2.0))
        config = ChurnConfig(
            seed=9, horizon=25, arrival_rate=0.05, mean_lifetime=90.0,
            lifetime_model=lifetime_model, arrival_model=arrival_model,
            trace=trace if arrival_model == "trace" else (),
        )
        first = build_event_timeline(config)
        for other in ("ff-rta", "compact", "repart:rmts"):
            assert build_event_timeline(replace(config, policy=other)) == first
        tenant_pool.cache_clear()
        assert _hex_events(first) == _hex_events(build_event_timeline(config))
        assert _hex_events(first) == _hex_events(_fresh_timeline(config))

    def test_one_entry_per_arrival_stream(self):
        base = ChurnConfig(seed=2, horizon=15)
        for policy in ("ff-rta", "bf-rejoin", "compact", "repart:rmts"):
            for rate in (0.008, 0.014, 0.018):
                build_event_timeline(replace(base, policy=policy, arrival_rate=rate))
        assert len(pool_of(base)._timelines) == 3

    def test_callers_cannot_change_the_shared_copy(self):
        config = ChurnConfig(seed=4, horizon=12)
        want = _hex_events(build_event_timeline(config))
        mine = build_event_timeline(config)
        mine.reverse()
        mine.pop()
        mine.append(ChurnEvent(0.0, "arrival", 99))
        mine.sort(key=lambda e: e.tenant)
        again = build_event_timeline(config)
        assert again is not mine
        assert _hex_events(again) == want

    def test_rebuild_after_cache_clear_is_identical(self):
        config = ChurnConfig(seed=6, horizon=20, lifetime_model="pareto")
        before = _hex_events(build_event_timeline(config))
        tenant_pool.cache_clear()
        assert not pool_of(config)._timelines
        assert _hex_events(build_event_timeline(config)) == before
