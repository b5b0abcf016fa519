"""Event-timeline determinism and the churn configuration contract."""

import pytest

from repro.cluster.events import (
    ChurnConfig,
    build_event_timeline,
    churn_config_key,
    tenant_taskset,
)

pytestmark = pytest.mark.churn


class TestChurnConfig:
    def test_defaults_validate(self):
        ChurnConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"processors": 0},
            {"tasks_per_set": 0},
            {"tasks_per_set": 100},
            {"arrival_model": "bursty"},
            {"lifetime_model": "weibull"},
            {"arrival_model": "trace"},  # no trace rows
            {"arrival_rate": 0.0},
            {"u_set": -0.1},
            {"k": -1},
            {"max_wait": 0.0},
            {"tmax": 20_000.0},  # tids stay below 2**63
            {"horizon": 10**6 + 1},
            {"arrival_rate": float("nan")},
            {"arrival_rate": float("inf")},
            {"mean_lifetime": float("inf")},
            {"max_wait": float("nan")},
            {"max_wait": float("inf")},
            {"u_set": float("inf")},
            {"u_set": float("nan")},
            {"tmin": float("nan")},
            {"tmax": float("nan")},
            {"arrival_model": "trace", "trace": ((float("nan"), 1.0),)},
            {"arrival_model": "trace", "trace": ((1.0, float("inf")),)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChurnConfig(**kwargs)

    def test_offered_load_littles_law(self):
        config = ChurnConfig(
            processors=4, arrival_rate=0.02, mean_lifetime=400.0, u_set=0.5
        )
        assert config.offered_load() == pytest.approx(1.0)


class TestTimeline:
    def test_deterministic_and_balanced(self):
        config = ChurnConfig(horizon=50)
        a = build_event_timeline(config)
        b = build_event_timeline(config)
        assert a == b
        assert len(a) == 100
        assert sum(1 for e in a if e.kind == "arrival") == 50

    def test_sorted_with_departure_priority_on_ties(self):
        config = ChurnConfig(horizon=30)
        events = build_event_timeline(config)
        keys = [e.sort_key for e in events]
        assert keys == sorted(keys)
        # Departures sort before arrivals at equal times.
        assert ChurnConfig().horizon  # sanity on defaults
        from repro.cluster.events import ChurnEvent

        dep = ChurnEvent(time=5.0, kind="departure", tenant=9)
        arr = ChurnEvent(time=5.0, kind="arrival", tenant=1)
        assert dep.sort_key < arr.sort_key

    def test_each_tenant_arrives_then_departs(self):
        config = ChurnConfig(horizon=20)
        first = {}
        for event in build_event_timeline(config):
            if event.tenant not in first:
                assert event.kind == "arrival"
                first[event.tenant] = event.time

    def test_trace_model_uses_rows(self):
        config = ChurnConfig(
            arrival_model="trace",
            trace=((1.0, 10.0), (2.0, 0.0)),  # second falls back to model
            horizon=1,
        )
        events = build_event_timeline(config)
        arrivals = [e for e in events if e.kind == "arrival"]
        assert [e.time for e in arrivals] == [1.0, 2.0]
        departures = {e.tenant: e.time for e in events if e.kind == "departure"}
        assert departures[0] == 11.0
        assert departures[1] > 2.0

    @pytest.mark.parametrize("model", ["exponential", "pareto", "fixed"])
    def test_lifetime_models_positive(self, model):
        config = ChurnConfig(horizon=40, lifetime_model=model)
        events = build_event_timeline(config)
        arrive = {e.tenant: e.time for e in events if e.kind == "arrival"}
        for e in events:
            if e.kind == "departure":
                assert e.time > arrive[e.tenant]

    def test_fixed_lifetime_exact(self):
        config = ChurnConfig(
            horizon=5, lifetime_model="fixed", mean_lifetime=7.0
        )
        events = build_event_timeline(config)
        arrive = {e.tenant: e.time for e in events if e.kind == "arrival"}
        for e in events:
            if e.kind == "departure":
                assert e.time == arrive[e.tenant] + 7.0


class TestConfigKeyAndTasksets:
    def test_key_stable_and_parameter_sensitive(self):
        base = ChurnConfig()
        assert churn_config_key(base) == churn_config_key(ChurnConfig())
        assert churn_config_key(base) != churn_config_key(
            ChurnConfig(seed=1)
        )
        assert churn_config_key(base) != churn_config_key(
            ChurnConfig(policy="compact")
        )
        assert churn_config_key(base) != churn_config_key(
            ChurnConfig(arrival_rate=0.021)
        )

    def test_key_is_pinned(self):
        # Journals written by earlier versions must keep resuming.
        assert churn_config_key(ChurnConfig()) == (
            "a322c8746b374d8afb80a1c67d8def42a852d84ea02d722a516b7a85c7969e67"
        )
        assert churn_config_key(ChurnConfig(
            arrival_model="trace", trace=((0.0, 50.0), (1.5, 0.0)),
            policy="bf-rejoin",
        )) == (
            "f51268da94922d263ef6567a49134a4f5a64df289525e840880d266187e5f7bc"
        )

    def test_int_and_float_fields_share_a_key(self):
        assert ChurnConfig(mean_lifetime=400) == ChurnConfig(
            mean_lifetime=400.0
        )
        assert churn_config_key(ChurnConfig(mean_lifetime=400)) == \
            churn_config_key(ChurnConfig(mean_lifetime=400.0))
        assert churn_config_key(ChurnConfig(
            arrival_model="trace", trace=((0, 50), (1.5, 0))
        )) == churn_config_key(ChurnConfig(
            arrival_model="trace", trace=((0.0, 50.0), (1.5, 0.0))
        ))

    def test_tenant_taskset_deterministic_and_independent(self):
        config = ChurnConfig(tasks_per_set=4, u_set=0.5)
        a = tenant_taskset(config, 3)
        b = tenant_taskset(config, 3)
        assert [(t.cost, t.period) for t in a] == [
            (t.cost, t.period) for t in b
        ]
        assert a.total_utilization == pytest.approx(0.5, abs=1e-9)
        other = tenant_taskset(config, 4)
        assert [(t.cost, t.period) for t in a] != [
            (t.cost, t.period) for t in other
        ]
