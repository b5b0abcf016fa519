"""Tests for TaskSetGenerator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import harmonic_chain_count, light_task_threshold
from repro.taskgen.generators import TaskSetGenerator, make_rng


class TestMakeRng:
    def test_from_int(self):
        assert isinstance(make_rng(3), np.random.Generator)

    def test_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestConfigValidation:
    def test_bad_n(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(n=0)

    def test_bad_models(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(util_model="magic")
        with pytest.raises(ValueError):
            TaskSetGenerator(period_model="magic")

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(max_util=1.5)

    @pytest.mark.parametrize("model", ["loguniform", "uniform"])
    @pytest.mark.parametrize(
        "tmin, tmax",
        [
            (10.0, float("inf")),
            (float("nan"), 1000.0),
            (0.0, 1000.0),
            (-5.0, 1000.0),
            (100.0, 100.0),
            (200.0, 100.0),
        ],
    )
    def test_bad_period_range_fails_at_construction(self, model, tmin, tmax):
        with pytest.raises(ValueError):
            TaskSetGenerator(period_model=model, tmin=tmin, tmax=tmax)

    @pytest.mark.parametrize("model", ["harmonic", "kchain"])
    @pytest.mark.parametrize("tmin", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_base_period_fails_at_construction(self, model, tmin):
        with pytest.raises(ValueError):
            TaskSetGenerator(period_model=model, tmin=tmin)

    def test_bad_chain_count(self):
        with pytest.raises(ValueError):
            TaskSetGenerator(period_model="kchain", k=0)

    def test_unread_period_fields_are_not_checked(self):
        # harmonic and kchain read only tmin, discrete reads neither.
        TaskSetGenerator(period_model="harmonic", tmin=8.0, tmax=2.0)
        TaskSetGenerator(period_model="discrete", tmin=0.0, tmax=0.0)
        TaskSetGenerator(period_model="loguniform", k=0)

    def test_float_fields_are_coerced(self):
        gen = TaskSetGenerator(n=8, tmin=10, tmax=1000, max_util=1)
        assert (gen.tmin, gen.tmax, gen.max_util) == (10.0, 1000.0, 1.0)
        assert all(
            type(v) is float for v in (gen.tmin, gen.tmax, gen.max_util)
        )
        assert gen == TaskSetGenerator(n=8, max_util=1.0)
        a = gen.generate(u_norm=0.7, processors=2, seed=3)
        b = TaskSetGenerator(n=8, max_util=1.0).generate(
            u_norm=0.7, processors=2, seed=3
        )
        assert [(t.cost, t.period) for t in a] == [
            (t.cost, t.period) for t in b
        ]


class TestGeneration:
    def test_requested_utilization_hit(self):
        gen = TaskSetGenerator(n=10)
        ts = gen.generate(u_norm=0.8, processors=4, seed=0)
        assert ts.normalized_utilization(4) == pytest.approx(0.8)
        assert len(ts) == 10

    def test_light_factory(self):
        gen = TaskSetGenerator(n=12).light()
        ts = gen.generate(u_norm=0.9, processors=4, seed=0)
        assert ts.max_utilization <= light_task_threshold(12) + 1e-9

    def test_with_cap(self):
        gen = TaskSetGenerator(n=10).with_cap(0.3)
        ts = gen.generate(u_norm=0.6, processors=4, seed=0)
        assert ts.max_utilization <= 0.3 + 1e-9

    def test_harmonic_period_model(self):
        gen = TaskSetGenerator(n=8, period_model="harmonic")
        ts = gen.generate(u_norm=0.5, processors=2, seed=0)
        assert ts.is_harmonic()

    def test_kchain_period_model(self):
        gen = TaskSetGenerator(n=9, period_model="kchain", k=3)
        ts = gen.generate(u_norm=0.5, processors=2, seed=0)
        assert harmonic_chain_count([t.period for t in ts]) == 3

    def test_randfixedsum_model(self):
        gen = TaskSetGenerator(n=10, util_model="randfixedsum").with_cap(0.4)
        ts = gen.generate(u_norm=0.9, processors=4, seed=0)
        assert ts.normalized_utilization(4) == pytest.approx(0.9)
        assert ts.max_utilization <= 0.4 + 1e-9

    def test_uunifast_falls_back_when_cap_tight(self):
        """Tight cap regimes silently switch to RandFixedSum."""
        gen = TaskSetGenerator(n=12, util_model="uunifast").with_cap(0.35)
        ts = gen.generate(u_norm=1.0, processors=4, seed=0)  # 4.0/4.2 of max
        assert ts.normalized_utilization(4) == pytest.approx(1.0)

    def test_deterministic_per_seed(self):
        gen = TaskSetGenerator(n=6)
        a = gen.generate(u_norm=0.5, processors=2, seed=9)
        b = gen.generate(u_norm=0.5, processors=2, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        gen = TaskSetGenerator(n=6)
        a = gen.generate(u_norm=0.5, processors=2, seed=1)
        b = gen.generate(u_norm=0.5, processors=2, seed=2)
        assert a != b


class TestBatchAndStream:
    def test_batch_count(self):
        gen = TaskSetGenerator(n=5)
        sets = gen.batch(u_norm=0.5, processors=2, count=7, seed=0)
        assert len(sets) == 7
        assert len({s for s in sets}) > 1  # independent draws

    def test_stream_yields(self):
        gen = TaskSetGenerator(n=5)
        it = gen.stream(u_norm=0.5, processors=2, seed=0)
        first, second = next(it), next(it)
        assert first != second

    @given(st.integers(0, 1_000), st.floats(min_value=0.2, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_generated_sets_always_valid(self, seed, u_norm):
        gen = TaskSetGenerator(n=8)
        ts = gen.generate(u_norm=u_norm, processors=2, seed=seed)
        assert len(ts) == 8
        assert ts.normalized_utilization(2) == pytest.approx(u_norm, rel=1e-6)
        assert all(0 < t.utilization <= 1 for t in ts)
