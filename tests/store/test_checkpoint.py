"""Resume determinism: interrupted sweeps continue bit-identically.

The load-bearing property is that a sweep interrupted at an arbitrary
cell boundary and later resumed produces *byte-identical* curves to an
uninterrupted run — and recomputes only the unfinished cells, which the
``rta_calls`` counter delta makes observable.
"""

import pytest

from repro.analysis.acceptance import (
    acceptance_sweep,
    evaluate_sweep_cell,
    sweep_config_key,
)
from repro.analysis.algorithms import standard_algorithms
from repro.perf.telemetry import COUNTERS
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.store

# Small but non-degenerate: utilizations high enough that acceptance
# actually varies (curves of all 1.0 would vacuously "match").
GEN = TaskSetGenerator(n=6, period_model="loguniform")
ALGOS = standard_algorithms()
SWEEP_KWARGS = dict(
    processors=2,
    u_grid=[0.75, 0.88, 0.96],
    samples=5,
    seed=7,
)
TOTAL_CELLS = len(SWEEP_KWARGS["u_grid"]) * SWEEP_KWARGS["samples"]


def reference_sweep():
    return acceptance_sweep(ALGOS, GEN, **SWEEP_KWARGS)


class TestEquivalence:
    def test_no_store_matches_acceptance_sweep(self):
        # The store-less sweep is the plain reduction of the cell worker.
        payload = (GEN, list(ALGOS.values()), SWEEP_KWARGS["processors"],
                   SWEEP_KWARGS["seed"])
        samples = SWEEP_KWARGS["samples"]
        expected = {name: [] for name in ALGOS}
        for level, u in enumerate(SWEEP_KWARGS["u_grid"]):
            rows = [evaluate_sweep_cell(payload, (level, u, sample))
                    for sample in range(samples)]
            for column, name in enumerate(ALGOS):
                expected[name].append(
                    sum(row[column] for row in rows) / samples
                )
        progress = {}
        result = acceptance_sweep(
            ALGOS, GEN, progress=progress, **SWEEP_KWARGS
        )
        assert result.curves == expected
        assert progress == dict(cells_total=TOTAL_CELLS, cells_resumed=0,
                                cells_computed=TOTAL_CELLS)

    def test_journaled_run_matches_acceptance_sweep(self, store):
        result = acceptance_sweep(ALGOS, GEN, store=store, **SWEEP_KWARGS)
        assert result.curves == reference_sweep().curves
        assert len(store) == TOTAL_CELLS

    def test_curves_vary_across_the_grid(self):
        # guard against the vacuous all-ones configuration
        curves = reference_sweep().curves
        assert any(len(set(curve)) > 1 for curve in curves.values())

    def test_store_accepts_a_path(self, store_path):
        result = acceptance_sweep(ALGOS, GEN, store=store_path, **SWEEP_KWARGS)
        assert result.curves == reference_sweep().curves
        with ResultStore(store_path) as st:
            assert len(st) == TOTAL_CELLS


class TestInterruptAndResume:
    def test_budget_raises_after_journaling(self, store):
        with pytest.raises(BudgetExhausted) as exc:
            acceptance_sweep(
                ALGOS, GEN, store=store, max_new_cells=7, **SWEEP_KWARGS
            )
        assert exc.value.completed == 7
        assert exc.value.total == TOTAL_CELLS
        assert len(store) == 7  # everything computed so far is durable

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_is_bit_identical(self, store, jobs):
        progress = {}
        with pytest.raises(BudgetExhausted):
            acceptance_sweep(
                ALGOS, GEN, store=store, max_new_cells=7,
                jobs=jobs, **SWEEP_KWARGS
            )
        resumed = acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, jobs=jobs,
            progress=progress, **SWEEP_KWARGS
        )
        assert resumed.curves == reference_sweep().curves
        assert progress["cells_resumed"] == 7
        assert progress["cells_computed"] == TOTAL_CELLS - 7

    def test_resume_recomputes_only_unfinished_cells(self, store):
        # Counter evidence: the analysis work of the resumed run is the
        # work of the missing cells, not the whole sweep.
        before_full = COUNTERS.snapshot()
        acceptance_sweep(ALGOS, GEN, **SWEEP_KWARGS)
        full_rta = COUNTERS.delta_since(before_full)["rta_calls"]
        assert full_rta > 0

        with pytest.raises(BudgetExhausted):
            acceptance_sweep(
                ALGOS, GEN, store=store, max_new_cells=7, **SWEEP_KWARGS
            )
        before_resume = COUNTERS.snapshot()
        acceptance_sweep(ALGOS, GEN, store=store, resume=True, **SWEEP_KWARGS)
        resume_rta = COUNTERS.delta_since(before_resume)["rta_calls"]
        assert 0 < resume_rta < full_rta

    def test_warm_resume_computes_nothing(self, store):
        acceptance_sweep(ALGOS, GEN, store=store, **SWEEP_KWARGS)
        progress = {}
        before = COUNTERS.snapshot()
        warm = acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, progress=progress,
            **SWEEP_KWARGS
        )
        warm_rta = COUNTERS.delta_since(before)["rta_calls"]
        assert warm.curves == reference_sweep().curves
        assert progress["cells_computed"] == 0
        assert progress["cells_resumed"] == TOTAL_CELLS
        assert warm_rta == 0

    def test_without_resume_flag_the_journal_is_ignored(self, store):
        acceptance_sweep(ALGOS, GEN, store=store, **SWEEP_KWARGS)
        progress = {}
        acceptance_sweep(
            ALGOS, GEN, store=store, resume=False, progress=progress,
            **SWEEP_KWARGS
        )
        assert progress["cells_resumed"] == 0
        assert progress["cells_computed"] == TOTAL_CELLS


class TestConfigKey:
    def test_every_parameter_matters(self):
        base = dict(
            processors=2, u_grid=[0.7, 0.8], samples=5, seed=0,
        )
        key = sweep_config_key(["A", "B"], GEN, **base)
        assert key == sweep_config_key(["A", "B"], GEN, **base)
        variants = [
            sweep_config_key(["A"], GEN, **base),
            sweep_config_key(["B", "A"], GEN, **base),
            sweep_config_key(["A", "B"], GEN, **{**base, "processors": 4}),
            sweep_config_key(["A", "B"], GEN, **{**base, "samples": 6}),
            sweep_config_key(["A", "B"], GEN, **{**base, "seed": 1}),
            sweep_config_key(
                ["A", "B"], GEN, **{**base, "u_grid": [0.7, 0.81]}
            ),
            sweep_config_key(
                ["A", "B"], TaskSetGenerator(n=7, period_model="loguniform"),
                **base
            ),
        ]
        assert key not in variants
        assert len(set(variants)) == len(variants)

    def test_float_grid_is_hashed_exactly(self):
        base = dict(processors=2, samples=5, seed=0)
        a = sweep_config_key(["A"], GEN, u_grid=[0.1 + 0.2], **base)
        b = sweep_config_key(["A"], GEN, u_grid=[0.3], **base)
        assert a != b  # 0.1+0.2 != 0.3 in IEEE-754, and the key knows

    def test_equal_generators_share_a_namespace(self):
        base = dict(processors=2, u_grid=[0.7], samples=1, seed=0)
        assert TaskSetGenerator(n=8, tmin=10) == \
            TaskSetGenerator(n=8, tmin=10.0)
        assert sweep_config_key(
            ["A"], TaskSetGenerator(n=8, tmin=10, tmax=1000), **base
        ) == sweep_config_key(
            ["A"], TaskSetGenerator(n=8, tmin=10.0, tmax=1000.0), **base
        )

    def test_different_configs_do_not_share_cells(self, store):
        acceptance_sweep(ALGOS, GEN, store=store, **SWEEP_KWARGS)
        # same store file, different seed: nothing to resume from
        progress = {}
        other = dict(SWEEP_KWARGS, seed=SWEEP_KWARGS["seed"] + 1)
        with pytest.raises(BudgetExhausted):
            acceptance_sweep(
                ALGOS, GEN, store=store, resume=True, max_new_cells=1,
                progress=progress, **other
            )
        assert progress.get("cells_resumed", 0) == 0


class TestValidation:
    def test_rejects_empty_algorithms(self):
        with pytest.raises(ValueError):
            acceptance_sweep({}, GEN, **SWEEP_KWARGS)

    def test_rejects_zero_samples(self):
        bad = dict(SWEEP_KWARGS, samples=0)
        with pytest.raises(ValueError):
            acceptance_sweep(ALGOS, GEN, **bad)

    @pytest.mark.parametrize(
        "journal_only", [{"max_new_cells": 1}, {"resume": True}],
        ids=["max_new_cells", "resume"],
    )
    def test_journal_options_need_a_store(self, journal_only):
        """A budget or resume flag without a store would silently do
        nothing (a full sweep), so it is rejected before any cell runs."""
        before = COUNTERS.snapshot()
        with pytest.raises(ValueError, match="need a store"):
            acceptance_sweep(ALGOS, GEN, **journal_only, **SWEEP_KWARGS)
        assert COUNTERS.delta_since(before)["rta_calls"] == 0


#: A journal as the previous sweep implementation wrote it: namespace
#: ``sweep:<key>`` with ``level:sample`` keys and ``[0/1, ...]`` rows,
#: one column per algorithm of ``standard_algorithms()``.
PARENT_KWARGS = dict(processors=2, u_grid=[0.8, 0.88], samples=3, seed=7)
PARENT_NAMESPACE = (
    "sweep:fbbd8a5569bd7554b60e9675b029756f1eee5544dc25b82bf52555109af158eb"
)
PARENT_ROWS = {
    "0:0": [1, 0, 1], "0:1": [1, 0, 1], "0:2": [1, 0, 1],
    "1:0": [1, 0, 1], "1:1": [1, 0, 0], "1:2": [1, 0, 1],
}


class TestStoredFormat:
    def test_namespace_digests_are_pinned(self):
        key = sweep_config_key(list(ALGOS), GEN, **PARENT_KWARGS)
        assert "sweep:" + key == PARENT_NAMESPACE
        assert sweep_config_key(
            list(ALGOS), GEN, **SWEEP_KWARGS
        ) == "02e0a0b5f29e2c4989a207f6be2f85c13508ad3047c9fdcf655405564ea50b4d"
        assert sweep_config_key(
            ["A", "B"], TaskSetGenerator(n=8, period_model="harmonic").light(),
            processors=4, u_grid=[0.7, 0.8], samples=3, seed=1,
        ) == "4bfc419a7f2e7d365a4f25c87f1da3dcc0ca6ed063b95bbfd5d221fc1ab3d2a2"

    def test_hand_written_journal_resumes_without_recomputing(self, store):
        store.put_many(PARENT_NAMESPACE, PARENT_ROWS)
        progress = {}
        before = COUNTERS.snapshot()
        resumed = acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, progress=progress,
            **PARENT_KWARGS
        )
        assert COUNTERS.delta_since(before)["rta_calls"] == 0
        assert progress["cells_computed"] == 0
        assert progress["cells_resumed"] == len(PARENT_ROWS)
        assert resumed.curves == acceptance_sweep(
            ALGOS, GEN, **PARENT_KWARGS
        ).curves

    def test_fresh_journal_matches_the_stored_format(self, store):
        acceptance_sweep(ALGOS, GEN, store=store, **PARENT_KWARGS)
        assert store.get_namespace(PARENT_NAMESPACE) == PARENT_ROWS

    def test_rows_of_another_width_are_recomputed(self, store):
        bad = dict(PARENT_ROWS, **{"1:1": [1, 0], "1:2": "junk"})
        store.put_many(PARENT_NAMESPACE, bad)
        progress = {}
        resumed = acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, progress=progress,
            **PARENT_KWARGS
        )
        assert progress["cells_computed"] == 2
        assert progress["cells_resumed"] == len(PARENT_ROWS) - 2
        assert resumed.curves == acceptance_sweep(
            ALGOS, GEN, **PARENT_KWARGS
        ).curves

    def test_recomputed_rows_replace_distrusted_ones(self, store):
        """The recomputed rows are written over the bad ones, so the next
        resume trusts every row and computes nothing."""
        bad = dict(PARENT_ROWS, **{"1:1": [1, 0], "1:2": "junk"})
        store.put_many(PARENT_NAMESPACE, bad)
        acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, **PARENT_KWARGS
        )
        assert store.get_namespace(PARENT_NAMESPACE) == PARENT_ROWS
        progress = {}
        acceptance_sweep(
            ALGOS, GEN, store=store, resume=True, progress=progress,
            **PARENT_KWARGS
        )
        assert progress["cells_computed"] == 0
        assert progress["cells_resumed"] == len(PARENT_ROWS)
