"""churn: the E16 churn grid, run in-process and serially, no store.

Policies ff-rta, bf-rejoin, compact and repart:rmts each meet the three
arrival rates of the committed ``BENCH_churn.json`` (offered loads of
roughly 0.4, 0.7 and 0.9 on 4 processors).  The loop runs whole grid
passes, each on fresh tenant timelines, so a run of any length keeps
the policy and load mix fixed.  One operation is one churn event;
events are not timed singly, so an event's time is its cell's mean.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import List, Optional

from perfbench.common import (
    MANIFEST,
    Report,
    digest,
    load_json,
    median_fresh_setup,
    pin_to_one_cpu,
    probe_slowness,
    self_peak_rss_mb,
    slowness_between,
)
from perfbench.layers import (
    check_twins,
    counters_delta,
    counters_snapshot,
    install_core,
    report_core,
    report_layers,
    report_trace,
)
from perfbench.spans import Tracer

POLICIES = ("ff-rta", "bf-rejoin", "compact", "repart:rmts")
RATES = (0.008, 0.014, 0.018)
PROCESSORS = 4
#: Tenant arrivals per cell (twice as many events), as committed.
HORIZON = 60
#: Grid passes the traced run makes per second asked; fixed, so that
#: per-layer counts repeat at the same seed.
TRACE_PASSES_PER_S = 0.3

POLICY_LAYERS = ("cluster.policy.admit", "cluster.policy.on_departure")


def build():
    """The grid's configurations for one seed (what set-up imports)."""
    from repro.cluster.events import ChurnConfig
    from repro.cluster.sweep import churn_grid_configs

    def grid(seed: int):
        base = ChurnConfig(processors=PROCESSORS, horizon=HORIZON, seed=seed)
        return churn_grid_configs(base, POLICIES, RATES)

    return grid


def _pass_seed(seed: int, index: int) -> int:
    """Tenant-timeline seed of grid pass *index* of a run at *seed*."""
    return seed * 100_003 + index


def _run_passes(simulate, grid, seed: int, passes: Optional[int] = None,
                deadline: Optional[float] = None, probe=None):
    """Simulate grid passes in order; stop after *passes* or at *deadline*.

    With *probe*, the host slowness is probed between cells.  Returns
    the results, each cell's time and slowness, and the total wall.
    """
    results = []
    times: List[float] = []
    probes: List[float] = []
    start = perf_counter()
    indices = itertools.count() if passes is None else range(passes)
    for index in indices:
        for config in grid(_pass_seed(seed, index)):
            probes.append(probe() if probe is not None else 1.0)
            t0 = perf_counter()
            results.append(simulate(config))
            t1 = perf_counter()
            times.append(t1 - t0)
        if deadline is not None and t1 >= deadline:
            break
    probes.append(probe() if probe is not None else 1.0)
    slowness = slowness_between(probes, range(len(times)))
    return results, (times, slowness), perf_counter() - start


def _check(report: Report, grid, results) -> None:
    """Output checks, outside the timed region."""
    from repro.cluster.simulator import simulate_churn

    recorded = load_json(MANIFEST)["churn"]
    states = [
        simulate_churn(config).metrics.as_state()
        for config in grid(recorded["seed"])
    ]
    report.check(
        "ChurnMetrics.as_state digest at the recorded seed",
        digest(states) == recorded["metrics_digest"],
        f"seed {recorded['seed']}, {len(states)} cells",
    )
    bad = [
        r for r in results
        if r.metrics.arrivals != HORIZON
        or r.events_total != r.events_processed
        or r.metrics.departures > r.metrics.admitted
    ]
    report.failed += sum(r.events_total for r in bad)
    report.check(
        "every cell ran its whole timeline",
        not bad,
        f"{len(results) - len(bad)}/{len(results)} cells",
    )


def _install_policies(tracer: Tracer) -> None:
    """Wrap ``admit``/``on_departure`` on each policy class defining it."""
    from repro.cluster import policies

    for cls in (
        policies.ChurnPolicy,
        policies.FitPolicy,
        policies.CompactPolicy,
        policies.RepartitionPolicy,
    ):
        for method in ("admit", "on_departure"):
            if method in cls.__dict__:
                tracer.patch(cls, method, f"cluster.policy.{method}")


def run(report: Report, *, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    from repro.cluster.simulator import simulate_churn

    grid = build()
    simulate_churn(grid(seed + 1_000_003)[-1])  # warm-up, unrelated seed

    if not trace:
        setup = median_fresh_setup("perfbench.churn")
        results, (times, slowness), _ = _run_passes(
            simulate_churn,
            grid,
            seed,
            deadline=perf_counter() + seconds,
            probe=probe_slowness,
        )
        events = [r.events_total for r in results]
        report.attempted = sum(events)
        report.set("setup_s", setup, "median of fresh import + build")
        report.timings(
            [t / n for t, n in zip(times, events)],
            slowness,
            len(POLICIES) * len(RATES),
            f"per event, as its cell's mean over {len(results)} cells",
            work=[1] * len(events),
        )
        report.set("peak_rss_mb", self_peak_rss_mb())
        _check(report, grid, results)
        return report.result()

    passes = max(1, int(round(seconds * TRACE_PASSES_PER_S)))
    _, _, untraced_wall = _run_passes(simulate_churn, grid, seed, passes)
    tracer = Tracer()
    simulate = tracer.wrap(simulate_churn, "cluster.simulate_churn")
    install_core(tracer)
    _install_policies(tracer)
    before = counters_snapshot()
    try:
        results, _, traced_wall = _run_passes(simulate, grid, seed, passes)
    finally:
        tracer.restore()
    delta = counters_delta(before)
    report.attempted = sum(r.events_total for r in results)

    report_layers(report, tracer, POLICY_LAYERS)
    report.set("cluster.events", delta["cl_events"])
    arrivals = sum(r.metrics.arrivals for r in results)
    report.set("cluster.arrivals", arrivals)
    report.set("cluster.migrations", delta["cl_migrations"])
    report.set("cluster.readmits", delta["cl_readmits"])
    report.set("cluster.queue_timeouts", delta["cl_queue_timeouts"])
    report.set(
        "cluster.admit_ratio",
        sum(r.metrics.admitted for r in results) / arrivals,
        "base cluster.arrivals",
    )
    report_core(report, tracer, delta)
    report_trace(report, tracer, traced_wall, untraced_wall, seed)
    check_twins(
        report,
        tracer,
        delta,
        exercised=["core.partition.schedulable_with", "core.partition.rta_context"],
    )
    _check(report, grid, results)
    return report.result(
        not_run=(
            "analysis.", "runner.", "sweep.", "service.", "serve.", "loadgen."
        )
    )
