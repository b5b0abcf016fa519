"""Probe evaluation for the frontier search.

A *probe* is one acceptance-test call: generate a task set at
``(u_norm, sample_idx)`` from the configured generator and ask the
algorithm for a verdict.  Its RNG stream derives from
``cell_rng(seed, u_key(u_norm), sample_idx)`` — a pure function of the
probe coordinates — so a probe's result is independent of which process
computes it, when, in which batch, and *for which search*: bisections
targeting different acceptance levels share probes at equal ``u``.

Probes are journaled through :class:`repro.store.journal.Journal` into
the store namespace ``search:<config-sha256>`` (see
:mod:`repro.search.config`), exactly like ``sweep --resume`` journals
its cells: a killed search resumes byte-identically, and repeated
searches over the same configuration dedup instead of recomputing.
"""

from __future__ import annotations

import struct
from typing import Any, List, Sequence, Tuple

from repro.perf.telemetry import COUNTERS
from repro.runner import cell_rng
from repro.store.journal import Journal

__all__ = [
    "PROBE_WIDTH",
    "u_key",
    "probe_key",
    "evaluate_probe",
    "evaluate_counted",
]

#: Length of one probe row: ``[accepted, rta_calls, rta_iterations]``.
PROBE_WIDTH = 3


def u_key(u_norm: float) -> int:
    """IEEE-754 bit pattern of *u_norm* as an integer RNG-key component.

    Distinct doubles map to distinct keys and equal doubles to equal
    keys, so the probe stream at a utilization level is shared by every
    search that lands on exactly that level — no quantization, no
    collisions.
    """
    return struct.unpack("<Q", struct.pack("<d", float(u_norm)))[0]


def probe_key(u_norm: float, sample_idx: int) -> str:
    """Journal key of one probe (exact: ``float.hex`` plus the index)."""
    return f"{float(u_norm).hex()}:{int(sample_idx)}"


def evaluate_probe(payload, item) -> List[int]:
    """Worker: one acceptance probe at ``item = (u_norm, sample_idx)``.

    Returns ``[accepted, rta_calls, rta_iterations]`` — the verdict plus
    the probe's own analysis-cost counters, measured as a delta inside
    the worker so the journal can replay cost totals without recomputing.
    """
    test, generator, processors, seed = payload
    u_norm, sample_idx = item
    rng = cell_rng(seed, u_key(u_norm), sample_idx)
    taskset = generator.generate(
        u_norm=float(u_norm), processors=processors, seed=rng
    )
    before = COUNTERS.snapshot()
    accepted = bool(test(taskset, processors))
    delta = COUNTERS.delta_since(before)
    return [
        int(accepted),
        int(delta["rta_calls"]),
        int(delta["rta_iterations"]),
    ]


def evaluate_counted(
    journal: Journal, items: Sequence[Tuple], payload: Any, *, jobs: int
) -> List[List[Any]]:
    """``journal.evaluate``, counted into ``se_probes`` (computed) and
    ``se_probes_resumed`` (served from the journal), on a budget stop too."""
    computed, resumed = journal.computed, journal.resumed
    try:
        return journal.evaluate(items, payload, jobs=jobs)
    finally:
        COUNTERS.se_probes += journal.computed - computed
        COUNTERS.se_probes_resumed += journal.resumed - resumed
