"""Histogram deltas must survive the fork pool.

The acceptance criterion of the observability layer: the RTA-iteration
histogram of a ``--jobs N`` sweep merges bit-identically to the serial
run, and with metrics off the pool ships no histogram delta at all.
"""

import pytest

from repro.analysis.acceptance import acceptance_sweep
from repro.core.bounds import best_bound_value, rmts_bound_cap
from repro.obs import metrics, use_metrics
from repro.runner import pool
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.obs


def _algorithms():
    # A real RTA-driven test plus a cheap bound test, so the sweep
    # exercises the instrumented response_time() kernel.
    from repro.analysis.algorithms import standard_algorithms

    return standard_algorithms()


def _run_sweep(jobs):
    metrics.reset()
    gen = TaskSetGenerator(n=8)
    with use_metrics(True):
        sweep = acceptance_sweep(
            _algorithms(),
            gen,
            processors=2,
            u_grid=[0.7, 0.8],
            samples=4,
            seed=7,
            jobs=jobs,
        )
    rta_state = metrics.histogram("rta_iterations").state()
    metrics.reset()
    return sweep, rta_state


def test_rta_iteration_histogram_merges_bit_exactly():
    serial_sweep, serial_state = _run_sweep(jobs=1)
    parallel_sweep, parallel_state = _run_sweep(jobs=2)
    assert parallel_sweep.curves == serial_sweep.curves
    assert serial_state["counts"] == parallel_state["counts"]
    # iteration counts are integers, so even the float sum is bit-exact
    assert serial_state["sum"] == parallel_state["sum"]
    assert sum(serial_state["counts"]) > 0


def _observe_twice(payload, item):
    metrics.RTA_ITERATIONS.observe(item)
    metrics.RTA_ITERATIONS.observe(item)
    return item


def test_worker_chunk_ships_only_its_own_histogram_delta():
    metrics.reset()
    with use_metrics(True):
        metrics.RTA_ITERATIONS.observe(5)  # "inherited" from the parent
        _, out, _, delta = pool._worker_chunk(_observe_twice, 0, [1, 3])
    metrics.reset()
    assert out == [1, 3]
    assert set(delta) == {"rta_iterations"}
    assert sum(delta["rta_iterations"]["counts"]) == 4
    assert delta["rta_iterations"]["sum"] == 8.0


def test_disabled_observability_ships_nothing_through_the_pool():
    metrics.reset()
    with use_metrics(False):
        _, _, _, delta = pool._worker_chunk(_observe_twice, 0, [1])
        acceptance_sweep(
            _algorithms(),
            TaskSetGenerator(n=6),
            processors=2,
            u_grid=[0.7],
            samples=4,
            seed=1,
            jobs=2,
        )
    assert delta is None
    assert metrics.histogram("rta_iterations").count == 0


def test_bounds_kernels_still_agree_after_instrumentation():
    # Sanity: instrumentation must not perturb analysis results.
    gen = TaskSetGenerator(n=8)
    ts = gen.generate(u_norm=0.7, processors=2, seed=3)
    with use_metrics(True):
        on = (best_bound_value(ts), rmts_bound_cap(len(ts)))
    with use_metrics(False):
        off = (best_bound_value(ts), rmts_bound_cap(len(ts)))
    assert on == off
