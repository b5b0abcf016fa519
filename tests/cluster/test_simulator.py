"""The determinism acceptance criteria: jobs invariance, byte-identical
journals, and bit-identical kill/resume."""

import json

import pytest

from repro.cluster.events import ChurnConfig, churn_config_key, tenant_pool
from repro.cluster.simulator import ChurnMetrics, simulate_churn
from repro.cluster.sweep import grid_by_policy, run_churn_grid
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted

pytestmark = pytest.mark.churn

_POLICIES = ["ff-rta", "bf-rejoin", "compact"]
_RATES = [0.014, 0.018]


def _config(**kwargs):
    base = dict(processors=4, horizon=25, arrival_rate=0.018,
                policy="compact")
    base.update(kwargs)
    return ChurnConfig(**base)


class TestMetrics:
    def test_state_roundtrip_exact(self):
        result = simulate_churn(_config())
        state = result.metrics.as_state()
        clone = ChurnMetrics.from_state(json.loads(json.dumps(state)))
        assert clone.as_state() == state
        assert clone.slo_summary() == result.metrics.slo_summary()

    def test_derived_slos(self):
        metrics = ChurnMetrics()
        assert metrics.rejection_ratio() == 0.0
        assert metrics.steady_state_utilization() == 0.0
        assert metrics.migrations_per_departure() == 0.0
        metrics.arrivals = 10
        metrics.rejected = 2
        metrics.queue_timeouts = 1
        metrics.departures = 4
        metrics.migrations = 6
        assert metrics.rejection_ratio() == pytest.approx(0.3)
        assert metrics.migrations_per_departure() == pytest.approx(1.5)

    def test_time_weighted_utilization(self):
        metrics = ChurnMetrics()
        metrics.advance_time(10.0, 0.0)   # [0, 10) at utilization 0
        metrics.advance_time(20.0, 0.5)   # [10, 20) at utilization 0.5
        metrics.advance_time(20.0, 0.9)   # no time passes
        assert metrics.steady_state_utilization() == pytest.approx(0.25)


class TestJobsInvariance:
    def test_grid_identical_at_any_jobs_level(self):
        base = _config(horizon=15)
        # Cold pools before each leg: forked workers would otherwise
        # inherit the serial leg's tenants and never generate any.
        tenant_pool.cache_clear()
        serial = run_churn_grid(base, _POLICIES, _RATES, jobs=1)
        tenant_pool.cache_clear()
        parallel = run_churn_grid(base, _POLICIES, _RATES, jobs=2)
        assert serial == parallel
        assert set(grid_by_policy(serial)) == set(_POLICIES)


class TestJournal:
    def test_journal_byte_identical_across_runs(self, tmp_path):
        config = _config(horizon=15)
        namespace = "churn:" + churn_config_key(config)
        blobs = []
        for name in ("a.db", "b.db"):
            path = str(tmp_path / name)
            simulate_churn(config, store=path)
            with ResultStore(path) as store:
                blobs.append(
                    json.dumps(
                        store.get_namespace(namespace), sort_keys=True
                    )
                )
        assert blobs[0] == blobs[1]

    def test_journal_records_have_replayable_shape(self, tmp_path):
        config = _config(horizon=8)
        path = str(tmp_path / "j.db")
        result = simulate_churn(config, store=path)
        with ResultStore(path) as store:
            journal = store.get_namespace(result.namespace)
        assert len(journal) == result.events_total
        record = journal["0"]
        assert set(record) == {
            "time", "kind", "tenant", "ops", "queue", "metrics"
        }
        assert journal[str(result.events_total - 1)]["metrics"] == (
            result.metrics.as_state()
        )


class TestKillResume:
    @pytest.mark.parametrize("policy", ["compact", "repart:rmts"])
    def test_resume_is_bit_identical(self, policy, tmp_path):
        config = _config(policy=policy, horizon=12)
        full = simulate_churn(config)
        path = str(tmp_path / "kill.db")
        cutoff = full.events_total // 2
        with pytest.raises(BudgetExhausted) as exc:
            simulate_churn(config, store=path, max_new_events=cutoff)
        assert exc.value.completed == cutoff
        assert exc.value.total == full.events_total
        progress = {}
        resumed = simulate_churn(
            config, store=path, resume=True, progress=progress
        )
        assert progress["events_resumed"] == cutoff
        assert progress["events_computed"] == full.events_total - cutoff
        assert resumed.metrics.as_state() == full.metrics.as_state()

    def test_resumed_journal_matches_uninterrupted_journal(self, tmp_path):
        config = _config(horizon=12)
        namespace = "churn:" + churn_config_key(config)
        straight = str(tmp_path / "straight.db")
        simulate_churn(config, store=straight)
        killed = str(tmp_path / "killed.db")
        with pytest.raises(BudgetExhausted):
            simulate_churn(config, store=killed, max_new_events=5)
        simulate_churn(config, store=killed, resume=True)
        blobs = []
        for path in (straight, killed):
            with ResultStore(path) as store:
                blobs.append(
                    json.dumps(
                        store.get_namespace(namespace), sort_keys=True
                    )
                )
        assert blobs[0] == blobs[1]

    def test_resume_of_complete_run_computes_nothing(self, tmp_path):
        config = _config(horizon=8)
        path = str(tmp_path / "done.db")
        first = simulate_churn(config, store=path)
        progress = {}
        again = simulate_churn(
            config, store=path, resume=True, progress=progress
        )
        assert progress["events_computed"] == 0
        assert progress["events_resumed"] == first.events_total
        assert again.metrics.as_state() == first.metrics.as_state()
