"""The layer wrappers of the traced run and the per-layer report they feed.

Each wrapper is installed where the caller looks the name up, so a call
from inside the program goes through it:

* ``repro.analysis.algorithms.partition_rmts`` — the RM-TS sweep test,
  the ``PARTITIONERS["rmts"]`` entry (service) and ``repart:rmts``
  (churn) all resolve this module global at call time;
* ``repro.core.admission.max_split`` — ``ExactRTAAdmission.split_cost``;
* ``ProcessorState`` methods and ``TaskSetGenerator.generate`` — class
  attributes, looked up on every call through the instance.

Counts that the program keeps itself come from ``COUNTERS`` deltas.  A
wrapper whose call count differs from its ``PerfCounters`` twin is bound
to a stale import and measures nothing, which :func:`check_twins`
catches.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

from perfbench.common import OUT_DIR, Report
from perfbench.spans import Tracer

#: Wrapped layers whose ``calls``/``busy_s``/``self_s`` are reported.
CORE_LAYERS = (
    "taskgen.generate",
    "core.partition_rmts",
    "core.partition.schedulable_with",
    "core.partition.rta_context",
    "core.partition.add",
    "core.partition.remove_parent",
    "core.maxsplit.max_split",
)

#: Wrapper -> the ``PerfCounters`` field counting the same calls.
TWINS = {
    "core.partition.schedulable_with": "admission_probes",
    "core.partition.rta_context": "ctx_requests",
    "core.maxsplit.max_split": "maxsplit_calls",
}


def install_core(tracer: Tracer) -> None:
    """Wrap taskgen, RM-TS partitioning, processor state and MaxSplit."""
    from repro.analysis import algorithms
    from repro.core import admission
    from repro.core.partition import ProcessorState
    from repro.taskgen.generators import TaskSetGenerator

    tracer.patch(TaskSetGenerator, "generate", "taskgen.generate")
    tracer.patch(algorithms, "partition_rmts", "core.partition_rmts")
    tracer.patch(admission, "max_split", "core.maxsplit.max_split")
    for method in ("schedulable_with", "rta_context", "add", "remove_parent"):
        tracer.patch(ProcessorState, method, f"core.partition.{method}")


def counters_snapshot() -> Dict[str, int]:
    from repro.perf.telemetry import COUNTERS

    return COUNTERS.snapshot()


def counters_delta(before: Dict[str, int]) -> Dict[str, int]:
    from repro.perf.telemetry import COUNTERS

    return COUNTERS.delta_since(before)


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def report_layers(report: Report, tracer: Tracer, names: Iterable[str]) -> None:
    """``calls``, ``busy_s`` and ``self_s`` of each wrapped layer."""
    for name in names:
        for field, value in (
            ("calls", tracer.calls(name)),
            ("busy_s", tracer.busy(name)),
            ("self_s", tracer.self_time(name)),
        ):
            if f"{name}.{field}" in report.all_units:
                report.set(f"{name}.{field}", value)


def report_core(report: Report, tracer: Tracer, delta: Dict[str, int]) -> None:
    """The core layers' wrapper numbers and the program's own counts.

    Each ratio is printed with its base, a count reported beside it.
    """
    report_layers(report, tracer, CORE_LAYERS)
    report.set("core.rta.calls", delta["rta_calls"])
    report.set("core.rta.iterations", delta["rta_iterations"])
    report.set(
        "core.rta.iterations_per_call",
        _ratio(delta["rta_iterations"], delta["rta_calls"]),
        "base core.rta.calls",
    )
    report.set("core.admission.probes", delta["admission_probes"])
    report.set(
        "core.admission.hyper_accept_ratio",
        _ratio(delta["hyper_accepts"], delta["admission_probes"]),
        "base core.admission.probes",
    )
    report.set(
        "core.partition.ctx_build_ratio",
        _ratio(delta["ctx_builds"], delta["ctx_requests"]),
        "base core.partition.rta_context.calls",
    )
    report.set(
        "core.partition.ctx_memo_hit_ratio",
        _ratio(delta["ctx_memo_hits"], tracer.calls("core.partition.add")),
        "base core.partition.add.calls",
    )


def check_twins(
    report: Report,
    tracer: Tracer,
    delta: Dict[str, int],
    exercised: Iterable[str],
) -> None:
    """Each wrapper's call count equals its counter twin, and is > 0 on
    the layers this workload is meant to exercise."""
    exercised = set(exercised)
    for layer, field in TWINS.items():
        calls, twin = tracer.calls(layer), delta[field]
        ok = calls == twin and (calls > 0 or layer not in exercised)
        report.check(
            f"wrapper {layer} == COUNTERS.{field}", ok, f"{calls} vs {twin}"
        )


def report_trace(
    report: Report,
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    seed: int,
) -> None:
    """Span count, walls, tracing overhead and the unaccounted residual,
    then the spans themselves, written out under ``OUT_DIR``.

    The self times of all spans add up to the summed duration of the
    root spans, so ``traced wall - sum(self)`` is the time no layer
    claims: the benchmark's loop glue.
    """
    report.set("trace.spans", tracer.span_count)
    report.set("trace.wall_s", traced_wall)
    report.set("trace.untraced_wall_s", untraced_wall, "same work, no wrappers")
    report.set("trace.overhead_s", traced_wall - untraced_wall)
    residual = traced_wall - tracer.total_self()
    report.set(
        "trace.residual_s",
        residual,
        f"{100.0 * _ratio(residual, traced_wall):.2f}% of the traced wall",
    )
    path = os.path.join(OUT_DIR, f"{report.workload}-seed{seed}")
    tracer.dump(path)
    print(f"spans {report.workload}: {path}.npz")
