"""Frontier-mapper tests: bisection, Wilson verdicts, jobs invariance."""

from dataclasses import replace

import pytest

from repro.search.adversarial import AdversarialConfig
from repro.search.config import SearchConfig, search_config_key
from repro.search.frontier import map_frontier
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.search


def quick_config(**overrides) -> SearchConfig:
    base = dict(
        algorithm="rmts",
        generator=TaskSetGenerator(n=12),
        processors=4,
        seed=0,
        u_min=0.6,
        half_width=0.05,
        batch=10,
        max_samples_per_level=40,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestMapFrontier:
    def test_bracket_meets_target_half_width(self):
        result = map_frontier(quick_config())
        config = result.config
        assert config.u_min <= result.lo <= result.hi <= config.u_max
        assert result.interval_half_width <= config.half_width + 1e-12
        assert result.lo <= result.u_star <= result.hi

    def test_probe_accounting_matches_levels(self):
        result = map_frontier(quick_config())
        assert result.probes_total == sum(v.samples for v in result.levels)
        assert result.probes_resumed == 0
        assert result.probes_computed == result.probes_total

    def test_level_verdicts_are_confidence_backed(self):
        result = map_frontier(quick_config())
        config = result.config
        for verdict in result.levels:
            assert 0 < verdict.samples <= config.max_samples_per_level
            assert 0 <= verdict.accepted <= verdict.samples
            assert 0.0 <= verdict.ci_lo <= verdict.ci_hi <= 1.0
            if verdict.decided:
                # The Wilson interval excluded the target level.
                assert verdict.ci_lo > config.level or (
                    verdict.ci_hi < config.level
                )
                assert verdict.above == (verdict.ci_lo > config.level)

    def test_degenerate_range_below_frontier(self):
        # SPA2's frontier sits near Theta(12) ~= 0.714; the whole
        # [0.9, 1.0] range is rejected, so the bracket collapses low.
        result = map_frontier(
            quick_config(algorithm="spa2", u_min=0.9, u_max=1.0)
        )
        assert result.lo == result.hi == 0.9

    def test_degenerate_range_above_frontier(self):
        result = map_frontier(quick_config(u_min=0.55, u_max=0.65))
        assert result.lo == result.hi == 0.65

    def test_frontier_orders_algorithms(self):
        rmts = map_frontier(quick_config())
        spa2 = map_frontier(quick_config(algorithm="spa2"))
        assert rmts.u_star > spa2.u_star

    def test_grid_equivalent_and_efficiency(self):
        result = map_frontier(quick_config())
        config = result.config
        points = int(
            (config.u_max - config.u_min) / (2.0 * config.half_width)
        ) + 1
        assert result.grid_equivalent_calls == (
            points * config.max_samples_per_level
        )
        assert result.efficiency_vs_grid == pytest.approx(
            result.grid_equivalent_calls / result.probes_total
        )

    def test_jobs_invariance(self):
        serial = map_frontier(quick_config())
        parallel = map_frontier(quick_config(), jobs=2)
        assert parallel.as_dict() == serial.as_dict()

    def test_seed_changes_probes_not_contract(self):
        a = map_frontier(quick_config())
        b = map_frontier(quick_config(seed=1))
        assert a.as_dict() != b.as_dict()
        assert abs(a.u_star - b.u_star) < 0.2


class TestSearchConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            quick_config(algorithm="nonesuch")

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            quick_config(u_min=0.9, u_max=0.8)

    def test_rejects_batch_above_cap(self):
        with pytest.raises(ValueError):
            quick_config(batch=50, max_samples_per_level=40)

    def test_namespace_keys_on_probe_identity_only(self):
        config = quick_config()
        # Search-policy fields do not change the probe values, so they
        # must not change the journal namespace (cross-search dedup).
        assert search_config_key(
            replace(config, level=0.9, half_width=0.01, batch=5)
        ) == search_config_key(config)
        # Probe-identity fields must.
        assert search_config_key(
            replace(config, seed=1)
        ) != search_config_key(config)
        assert search_config_key(
            replace(config, algorithm="spa2")
        ) != search_config_key(config)

    def test_namespace_digests_are_pinned(self):
        # Journals written by earlier versions must keep resuming.
        config = SearchConfig(
            algorithm="rmts", generator=TaskSetGenerator(n=12),
            processors=4, seed=0,
        )
        assert search_config_key(config) == (
            "ae985b55cf231fbde6e2f1d0ee00b9ad86713285a32908825196aa064726a831"
        )
        assert AdversarialConfig().namespace() == (
            "search:"
            "bbedc96f19016f4927d879bcb9828cfd6469241cf39ea6737c78874ba8498cc4"
        )

    def test_equal_generators_share_a_namespace(self):
        config = quick_config()
        int_periods = replace(
            config, generator=replace(config.generator, tmin=10, tmax=1000)
        )
        assert int_periods == config
        assert search_config_key(int_periods) == search_config_key(config)
