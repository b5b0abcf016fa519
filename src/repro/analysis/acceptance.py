"""Acceptance-ratio experiments: the paper's evaluation methodology.

An *acceptance ratio* curve reports, for each normalized utilization level
``U_M``, the fraction of randomly generated task sets an algorithm
schedules.  This is the standard presentation in the semi-partitioned
scheduling literature (and in the companion paper [16]); the reproduction's
experiment suite E1–E4 is built on the sweep implemented here.

The sweep generates *fresh, identical* task sets for every algorithm at
each utilization level (same seeds), so curves are directly comparable —
differences are algorithmic, never sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.tables import Table
from repro.core.task import TaskSet
from repro.runner import cell_rng, chunked_map
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "AcceptanceTest",
    "acceptance_ratio",
    "acceptance_sweep",
    "evaluate_sweep_cell",
    "SweepResult",
]

#: An acceptance test maps (taskset, processors) -> accepted?
AcceptanceTest = Callable[[TaskSet, int], bool]


def acceptance_ratio(
    test: AcceptanceTest,
    tasksets: Sequence[TaskSet],
    processors: int,
) -> float:
    """Fraction of *tasksets* accepted by *test* on ``M = processors``."""
    if not tasksets:
        raise ValueError("need at least one task set")
    accepted = sum(1 for ts in tasksets if test(ts, processors))
    return accepted / len(tasksets)


@dataclass
class SweepResult:
    """Result of an acceptance-ratio sweep: one curve per algorithm."""

    u_grid: List[float]
    processors: int
    samples: int
    curves: Dict[str, List[float]]

    def table(self, title: str = "") -> Table:
        """As a printable/CSV table: one row per utilization level."""
        names = list(self.curves)
        t = Table(["U_M"] + names, title=title)
        for i, u in enumerate(self.u_grid):
            t.add_row([u] + [self.curves[name][i] for name in names])
        return t

    def dominates(self, better: str, worse: str, *, slack: float = 0.0) -> bool:
        """Whether curve *better* is pointwise >= curve *worse* - slack."""
        return all(
            b >= w - slack
            for b, w in zip(self.curves[better], self.curves[worse])
        )

    def crossover(self, name: str, level: float = 0.5) -> Optional[float]:
        """First grid utilization where the curve drops below *level*."""
        for u, ratio in zip(self.u_grid, self.curves[name]):
            if ratio < level:
                return u
        return None

    def area(self, name: str) -> float:
        """Trapezoidal area under the curve (a scalar quality score)."""
        return float(np.trapezoid(self.curves[name], self.u_grid))


def evaluate_sweep_cell(payload, cell: Tuple[int, float, int]) -> Tuple[bool, ...]:
    """Worker for one (level, sample) cell: every algorithm, one task set.

    Module-level so the parallel runner can dispatch it by name; the task
    set is built *inside* the worker from the cell's own seed, so nothing
    heavier than three numbers crosses a process boundary.  Also the unit
    of work the checkpointed :func:`repro.store.checkpoint.run_sweep`
    journals — a cell's result is a pure function of ``(payload, cell)``,
    which is what makes resumed sweeps bit-identical.
    """
    generator, tests, processors, seed = payload
    level_idx, u_norm, sample_idx = cell
    taskset = generator.generate(
        u_norm=u_norm,
        processors=processors,
        seed=cell_rng(seed, level_idx, sample_idx),
    )
    return tuple(bool(test(taskset, processors)) for test in tests)


def acceptance_sweep(
    algorithms: Mapping[str, AcceptanceTest],
    generator: TaskSetGenerator,
    *,
    processors: int,
    u_grid: Sequence[float],
    samples: int = 100,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Acceptance-ratio curves for several algorithms on shared workloads.

    For each utilization level, *samples* task sets are generated from
    *generator* and every algorithm is evaluated on the **same** sets.
    Each (level, sample) cell is seeded independently via
    :func:`repro.runner.cell_rng`, so the result is a pure function of
    ``seed`` — ``jobs > 1`` fans the cells out over a process pool and
    produces bit-identical curves to the serial path.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if samples < 1:
        raise ValueError("need at least one sample per level")
    names = list(algorithms)
    payload = (generator, [algorithms[n] for n in names], processors, seed)
    cells = [
        (level_idx, float(u_norm), sample_idx)
        for level_idx, u_norm in enumerate(u_grid)
        for sample_idx in range(samples)
    ]
    rows = chunked_map(evaluate_sweep_cell, cells, payload=payload, jobs=jobs)
    curves: Dict[str, List[float]] = {name: [] for name in names}
    for level_idx in range(len(u_grid)):
        block = rows[level_idx * samples : (level_idx + 1) * samples]
        for column, name in enumerate(names):
            accepted = sum(1 for row in block if row[column])
            curves[name].append(accepted / samples)
    return SweepResult(
        u_grid=[float(u) for u in u_grid],
        processors=processors,
        samples=samples,
        curves=curves,
    )
