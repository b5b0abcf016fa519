"""Acceptance-ratio experiments: the paper's evaluation methodology.

An *acceptance ratio* curve reports, for each normalized utilization level
``U_M``, the fraction of randomly generated task sets an algorithm
schedules.  This is the standard presentation in the semi-partitioned
scheduling literature (and in the companion paper [16]); the reproduction's
experiment suite E1–E4 is built on the sweep implemented here.

The sweep generates *fresh, identical* task sets for every algorithm at
each utilization level (same seeds), so curves are directly comparable —
differences are algorithmic, never sampling noise.

Given a result store, the sweep journals its cells one utilization level
per batch and ``resume=True`` skips the finished ones.  Resumed curves
are *bit-identical* to uninterrupted ones: a cell's result is a pure
function of the sweep configuration and the cell index (see
:func:`evaluate_sweep_cell`), so a journaled row and a recomputed one
are the same bytes, reduced by the same arithmetic.  The namespace of a
sweep's cells is ``sweep:`` plus :func:`sweep_config_key`.  Algorithms
participate in it by *name* only: renaming an algorithm invalidates its
checkpoints, while changing its *implementation* does not — run
``python -m repro store gc``/``verify`` after algorithm changes, or use
a fresh store file per code version.  The store is imported only when a
sweep is given one, so a store-less sweep never loads ``sqlite3``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._util.keys import content_key
from repro._util.tables import Table
from repro.core.task import TaskSet
from repro.runner import cell_rng, chunked_map
from repro.taskgen.generators import TaskSetGenerator

if TYPE_CHECKING:
    from repro.store.backend import ResultStore

__all__ = [
    "AcceptanceTest",
    "acceptance_ratio",
    "acceptance_sweep",
    "evaluate_sweep_cell",
    "sweep_config_key",
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
    of work a journaled sweep checkpoints — a cell's result is a pure
    function of ``(payload, cell)``, which is what makes resumed sweeps
    bit-identical.
    """
    generator, tests, processors, seed = payload
    level_idx, u_norm, sample_idx = cell
    taskset = generator.generate(
        u_norm=u_norm,
        processors=processors,
        seed=cell_rng(seed, level_idx, sample_idx),
    )
    return tuple(bool(test(taskset, processors)) for test in tests)


def _journal_row(payload, cell: Tuple[int, float, int]) -> List[int]:
    """Worker of a journaled sweep: one cell's verdicts as ``0``/``1``."""
    return [int(flag) for flag in evaluate_sweep_cell(payload, cell)]


def _cell_key(level_idx: int, _u_norm: float, sample_idx: int) -> str:
    return f"{level_idx}:{sample_idx}"


def sweep_config_key(
    algorithm_names: Sequence[str],
    generator: TaskSetGenerator,
    *,
    processors: int,
    u_grid: Sequence[float],
    samples: int,
    seed: int,
) -> str:
    """Content key of one sweep configuration (its journal namespace is
    ``sweep:`` plus this key)."""
    return content_key(
        "acceptance_sweep",
        algorithms=list(algorithm_names),
        generator=asdict(generator),
        processors=int(processors),
        u_grid=[float(u) for u in u_grid],
        samples=int(samples),
        seed=int(seed),
    )


def acceptance_sweep(
    algorithms: Mapping[str, AcceptanceTest],
    generator: TaskSetGenerator,
    *,
    processors: int,
    u_grid: Sequence[float],
    samples: int = 100,
    seed: int = 0,
    jobs: int = 1,
    store: Optional[Union[ResultStore, str]] = None,
    resume: bool = False,
    max_new_cells: Optional[int] = None,
    progress: Optional[Dict[str, int]] = None,
) -> SweepResult:
    """Acceptance-ratio curves for several algorithms on shared workloads.

    For each utilization level, *samples* task sets are generated from
    *generator* and every algorithm is evaluated on the **same** sets.
    Each (level, sample) cell is seeded independently via
    :func:`repro.runner.cell_rng`, so the result is a pure function of
    ``seed`` — ``jobs > 1`` fans the cells out over a process pool and
    produces bit-identical curves to the serial path.

    With a *store* (a :class:`~repro.store.backend.ResultStore` or a
    path), completed cells are journaled one utilization level per
    batch, and ``resume=True`` loads the journal first and computes only
    the missing cells; the curves are bit-identical either way.
    ``max_new_cells`` bounds how many new cells a journaled sweep may
    compute; hitting it raises
    :class:`~repro.store.journal.BudgetExhausted` after the journal
    write; without a store, ``resume`` and ``max_new_cells`` raise
    ``ValueError``.  *progress*, when given, is filled with
    ``cells_total``/``cells_resumed``/``cells_computed``.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if samples < 1:
        raise ValueError("need at least one sample per level")
    if store is None and (resume or max_new_cells is not None):
        raise ValueError("resume and max_new_cells need a store")
    names = list(algorithms)
    payload = (generator, [algorithms[n] for n in names], processors, seed)
    cells = [
        (level_idx, float(u_norm), sample_idx)
        for level_idx, u_norm in enumerate(u_grid)
        for sample_idx in range(samples)
    ]
    if store is None:
        rows = chunked_map(
            evaluate_sweep_cell, cells, payload=payload, jobs=jobs
        )
        if progress is not None:
            progress.update(
                cells_total=len(cells), cells_resumed=0,
                cells_computed=len(cells),
            )
    else:
        namespace = "sweep:" + sweep_config_key(
            names, generator, processors=processors, u_grid=u_grid,
            samples=samples, seed=seed,
        )
        rows = _journaled_rows(
            store, namespace, payload, cells, width=len(names),
            samples=samples, jobs=jobs, resume=resume,
            max_new_cells=max_new_cells, progress=progress,
        )
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


def _journaled_rows(
    store: Union[ResultStore, str],
    namespace: str,
    payload: object,
    cells: List[Tuple[int, float, int]],
    *,
    width: int,
    samples: int,
    jobs: int,
    resume: bool,
    max_new_cells: Optional[int],
    progress: Optional[Dict[str, int]],
) -> List[List[int]]:
    """Every cell's row through a :class:`~repro.store.journal.Journal`,
    one utilization level per batch."""
    from repro.store.backend import ResultStore
    from repro.store.journal import BudgetExhausted, Journal

    backend = ResultStore(store) if isinstance(store, str) else store
    journal = None
    try:
        journal = Journal(
            backend, namespace, worker=_journal_row, key_fn=_cell_key,
            width=width, budget=max_new_cells, resume=resume,
        )
        rows: List[List[int]] = []
        for start in range(0, len(cells), samples):
            rows += journal.evaluate(
                cells[start : start + samples], payload, jobs=jobs
            )
        return rows
    except BudgetExhausted:
        raise BudgetExhausted(
            f"sweep stopped after {journal.computed} new cells "
            f"({journal.journaled}/{len(cells)} journaled); "
            "rerun with resume=True to continue",
            completed=journal.journaled,
            total=len(cells),
        ) from None
    finally:
        if backend is not store:
            backend.close()
        if progress is not None and journal is not None:
            progress.update(
                cells_total=len(cells), cells_resumed=journal.resumed,
                cells_computed=journal.computed,
            )
