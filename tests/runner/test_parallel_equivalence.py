"""Equivalence tests for the parallel sweep runner.

The contract: any sweep result is a pure function of its seed — worker
count, chunking and execution order must be unobservable.  These tests
pin that down for E3/E4-shaped configurations (scaled down so they run in
tier-1 time) and for the runner primitives themselves.
"""

from __future__ import annotations

import pytest

from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import (
    rmts_light_test,
    rmts_test,
    standard_algorithms,
)
from repro.analysis.breakdown import average_breakdown
from repro.core.baselines.spa import partition_spa1
from repro.perf.telemetry import COUNTERS
from repro.runner import cell_rng, chunked_map, pool, resolve_jobs
from repro.taskgen.generators import TaskSetGenerator


def _square(payload, item):
    return payload * item * item


def _count_probes(payload, item):
    COUNTERS.admission_probes += item
    return item


class TestRunnerPrimitives:
    def test_cell_rng_deterministic_and_independent(self):
        a1 = cell_rng(42, 3, 7).random(4)
        a2 = cell_rng(42, 3, 7).random(4)
        b = cell_rng(42, 7, 3).random(4)
        c = cell_rng(43, 3, 7).random(4)
        assert (a1 == a2).all()
        assert not (a1 == b).all()
        assert not (a1 == c).all()

    def test_chunked_map_preserves_order(self):
        items = list(range(23))
        expected = [_square(2, i) for i in items]
        assert chunked_map(_square, items, payload=2, jobs=1) == expected
        assert (
            chunked_map(_square, items, payload=2, jobs=2, chunksize=3)
            == expected
        )

    def test_chunked_map_accepts_closures_in_payload(self):
        # Closures cannot be pickled; they must reach workers by fork
        # inheritance.  This is exactly how acceptance tests travel.
        bound = 10
        fn = lambda x: x + bound  # noqa: E731
        out = chunked_map(_call_payload, [1, 2, 3], payload=fn, jobs=2)
        assert out == [11, 12, 13]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_counter_deltas_merge_to_serial_totals(self):
        gen = TaskSetGenerator(n=8, period_model="loguniform")
        algorithms = {"RM-TS": rmts_test(None)}

        def run(jobs):
            before = COUNTERS.snapshot()
            acceptance_sweep(
                algorithms,
                gen,
                processors=2,
                u_grid=[0.7, 0.9],
                samples=4,
                seed=5,
                jobs=jobs,
            )
            return COUNTERS.delta_since(before)

        serial = run(1)
        parallel = run(2)
        assert serial["rta_calls"] > 0
        assert parallel == serial

    def test_worker_chunk_ships_its_own_delta(self):
        COUNTERS.admission_probes += 5  # inherited from the parent
        index, out, delta = pool._worker_chunk(_count_probes, 2, [1, 3])
        assert (index, out) == (2, [1, 3])
        assert delta["admission_probes"] == 4
        assert not any(v for k, v in delta.items() if k != "admission_probes")


def _call_payload(payload, item):
    return payload(item)


class TestSweepEquivalence:
    def test_e3_shaped_bit_identical(self):
        """General sets, full standard menu + RM-TS* (E3 shape, scaled)."""
        gen = TaskSetGenerator(n=12, period_model="loguniform")
        algorithms = standard_algorithms()
        algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
        kwargs = dict(
            processors=4,
            u_grid=[0.65, 0.8, 0.92],
            samples=6,
            seed=0,
        )
        serial = acceptance_sweep(algorithms, gen, jobs=1, **kwargs)
        parallel = acceptance_sweep(algorithms, gen, jobs=3, **kwargs)
        assert serial.curves == parallel.curves
        assert serial.u_grid == parallel.u_grid
        assert serial.samples == parallel.samples
        assert serial.processors == parallel.processors

    def test_e4_shaped_bit_identical(self):
        """Light sets, RM-TS/light vs SPA1 (E4 shape, scaled)."""
        gen = TaskSetGenerator(n=16, period_model="loguniform").light()
        algorithms = {
            "RM-TS/light": rmts_light_test(),
            "SPA1": lambda ts, m: partition_spa1(ts, m).success,
        }
        kwargs = dict(
            processors=4,
            u_grid=[0.7, 0.85],
            samples=6,
            seed=2,
        )
        serial = acceptance_sweep(algorithms, gen, jobs=1, **kwargs)
        parallel = acceptance_sweep(algorithms, gen, jobs=2, **kwargs)
        assert serial.curves == parallel.curves

    def test_breakdown_bit_identical(self):
        gen = TaskSetGenerator(n=10, period_model="loguniform")
        kwargs = dict(processors=2, samples=6, seed=1, tolerance=5e-3)
        serial = average_breakdown(rmts_test(None), gen, jobs=1, **kwargs)
        parallel = average_breakdown(rmts_test(None), gen, jobs=2, **kwargs)
        assert serial.values == parallel.values


@pytest.mark.perf_smoke
def test_perf_smoke_tiny_parallel_sweep():
    """Pool plumbing canary: 2 levels x 4 samples on 2 workers.

    Small enough for tier-1, real enough to catch a broken executor,
    chunker, or counter merge (the parallel result must match serial and
    actually exercise the RTA counters).
    """
    gen = TaskSetGenerator(n=8, period_model="loguniform")
    algorithms = standard_algorithms()
    before = COUNTERS.snapshot()
    parallel = acceptance_sweep(
        algorithms,
        gen,
        processors=2,
        u_grid=[0.7, 0.9],
        samples=4,
        seed=0,
        jobs=2,
    )
    delta = COUNTERS.delta_since(before)
    serial = acceptance_sweep(
        algorithms,
        gen,
        processors=2,
        u_grid=[0.7, 0.9],
        samples=4,
        seed=0,
        jobs=1,
    )
    assert parallel.curves == serial.curves
    assert delta["rta_calls"] > 0, "worker counter deltas were not merged"
