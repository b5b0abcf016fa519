"""sweep-e3: the paper's E3 acceptance sweep as a serial closed loop.

The configuration is the committed ``BENCH_sweep.json`` one: M=8, n=24,
log-uniform periods, the 19 levels U_M = 0.55 .. 1.0 and the algorithms
RM-TS, SPA2, P-RM-FFD and RM-TS*.  The loop calls the program's own
cell worker, ``repro.analysis.acceptance.evaluate_sweep_cell``, sample
by sample across the whole grid, so every stretch of the run spans all
utilization levels, including the band where acceptance flips and
rejected sets cost the most admission probes.  One operation is one
cell: one task set through all four algorithms.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

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

PROCESSORS = 8
N_TASKS = 3 * PROCESSORS
U_GRID = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
#: Per-layer name -> the sweep's algorithm label.
ALGORITHMS = {
    "rmts": "RM-TS",
    "spa2": "SPA2",
    "p-rm-ffd": "P-RM-FFD",
    "rmts-star": "RM-TS*",
}
#: Every this many timed cells, an RM-TS acceptance is re-validated.
VALIDATE_STRIDE = 25
#: Rounds (one cell per level) the traced run evaluates per second
#: asked; fixed, so that per-layer counts repeat at the same seed.
TRACE_ROUNDS_PER_S = 4

Cell = Tuple[int, float, int]


def build():
    """The sweep's generator and algorithm menu (what set-up imports)."""
    from repro.analysis.algorithms import rmts_test, standard_algorithms
    from repro.taskgen.generators import TaskSetGenerator

    generator = TaskSetGenerator(n=N_TASKS, period_model="loguniform")
    algorithms = standard_algorithms()
    algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
    return generator, {label: algorithms[label] for label in ALGORITHMS.values()}


def _cells(rounds: Optional[int] = None):
    samples = itertools.count() if rounds is None else range(rounds)
    for sample in samples:
        for level, u in enumerate(U_GRID):
            yield level, u, sample


def _run_cells(evaluate, payload, cells, deadline: Optional[float] = None,
               probe=None):
    """Evaluate *cells* in order; stop at *deadline* (perf_counter).

    With *probe*, the host slowness is probed between rounds.  Returns
    the cells done, their rows, each cell's time and slowness, and the
    total wall.
    """
    done: List[Cell] = []
    rows: List[tuple] = []
    times: List[float] = []
    rounds: List[int] = []
    probes: List[float] = []
    start = perf_counter()
    for cell in cells:
        if cell[0] == 0:
            probes.append(probe() if probe is not None else 1.0)
        t0 = perf_counter()
        rows.append(evaluate(payload, cell))
        t1 = perf_counter()
        times.append(t1 - t0)
        rounds.append(len(probes) - 1)
        done.append(cell)
        if deadline is not None and t1 >= deadline:
            break
    probes.append(probe() if probe is not None else 1.0)
    slowness = slowness_between(probes, rounds)
    return done, rows, (times, slowness), perf_counter() - start


def _curves(cells: List[Cell], rows: List[tuple], samples: int) -> Dict[str, List[float]]:
    """Acceptance curves of the first *samples* rounds of *rows*."""
    labels = list(ALGORITHMS.values())
    accepted = np.zeros((len(U_GRID), len(labels)))
    for (level, _, sample), row in zip(cells, rows):
        if sample < samples:
            accepted[level] += row
    return {
        label: [float(x) / samples for x in accepted[:, column]]
        for column, label in enumerate(labels)
    }


def _check(report: Report, seed: int, cells: List[Cell], rows: List[tuple]) -> None:
    """Output checks, outside the timed region."""
    from repro.analysis.acceptance import acceptance_sweep
    from repro.analysis.algorithms import PARTITIONERS
    from repro.runner import cell_rng

    generator, algorithms = build()
    recorded = load_json(MANIFEST)["sweep-e3"]

    def sweep(samples: int, seed_: int) -> Dict[str, List[float]]:
        return acceptance_sweep(
            algorithms,
            generator,
            processors=PROCESSORS,
            u_grid=U_GRID,
            samples=samples,
            seed=seed_,
        ).curves

    got = digest(sweep(recorded["samples"], recorded["seed"]))
    report.check(
        "curves digest at the recorded seed",
        got == recorded["curves_digest"],
        f"seed {recorded['seed']}, {recorded['samples']} samples/level",
    )
    rounds = min(2, len(cells) // len(U_GRID))
    same = rounds >= 1 and _curves(cells, rows, rounds) == sweep(rounds, seed)
    report.check(
        "timed cells equal acceptance_sweep", same, f"first {rounds} round(s)"
    )

    rmts_column = list(ALGORITHMS.values()).index("RM-TS")
    bad = checked = 0
    for index in range(0, len(cells), VALIDATE_STRIDE):
        level, u, sample = cells[index]
        if not rows[index][rmts_column]:
            continue
        taskset = generator.generate(
            u_norm=u, processors=PROCESSORS, seed=cell_rng(seed, level, sample)
        )
        result = PARTITIONERS["rmts"](taskset, PROCESSORS)
        checked += 1
        if not result.success or result.validate() != []:
            bad += 1
    report.failed += bad
    report.check(
        "RM-TS partitions validate",
        checked > 0 and bad == 0,
        f"{checked - bad}/{checked} accepted cells of every {VALIDATE_STRIDE}th",
    )


def run(report: Report, *, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    from repro.analysis import acceptance

    generator, algorithms = build()
    labels = list(ALGORITHMS.values())
    payload = (generator, [algorithms[label] for label in labels], PROCESSORS, seed)
    # Warm-up outside the timed region: one round on an unrelated seed.
    warm = (generator, payload[1], PROCESSORS, seed + 1_000_003)
    _run_cells(acceptance.evaluate_sweep_cell, warm, _cells(1))

    if not trace:
        setup = median_fresh_setup("perfbench.sweep_e3")
        cells, rows, (times, slowness), _ = _run_cells(
            acceptance.evaluate_sweep_cell,
            payload,
            _cells(),
            deadline=perf_counter() + seconds,
            probe=probe_slowness,
        )
        report.attempted = len(cells)
        report.set("setup_s", setup, "median of fresh import + build")
        report.timings(
            times, slowness, len(U_GRID), "per sweep cell", work=[1] * len(cells)
        )
        report.set("peak_rss_mb", self_peak_rss_mb())
        _check(report, seed, cells, rows)
        return report.result()

    rounds = max(1, int(round(seconds * TRACE_ROUNDS_PER_S)))
    _, _, _, untraced_wall = _run_cells(
        acceptance.evaluate_sweep_cell, payload, _cells(rounds)
    )
    tracer = Tracer()
    traced_payload = (
        generator,
        [
            tracer.wrap(algorithms[label], f"sweep.algo.{name}")
            for name, label in ALGORITHMS.items()
        ],
        PROCESSORS,
        seed,
    )
    evaluate = tracer.wrap(acceptance.evaluate_sweep_cell, "analysis.sweep_cell")
    install_core(tracer)
    before = counters_snapshot()
    try:
        cells, rows, _, traced_wall = _run_cells(
            evaluate, traced_payload, _cells(rounds)
        )
    finally:
        tracer.restore()
    delta = counters_delta(before)
    report.attempted = len(cells)

    report_layers(
        report,
        tracer,
        ["analysis.sweep_cell"] + [f"sweep.algo.{name}" for name in ALGORITHMS],
    )
    report.set(
        "runner.overhead_s",
        traced_wall - tracer.busy("analysis.sweep_cell"),
        "wall - sum of cells",
    )
    report_core(report, tracer, delta)
    report_trace(report, tracer, traced_wall, untraced_wall, seed)
    check_twins(report, tracer, delta, exercised=["core.maxsplit.max_split"])
    _check(report, seed, cells, rows)
    return report.result(not_run=("service.", "serve.", "loadgen.", "cluster."))
