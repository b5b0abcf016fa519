"""Unified observability layer: tracing, histograms, export.

Three pieces, all stdlib-only and off by default:

* :mod:`repro.obs.trace` — span-based tracing with trace/span ids, an
  ambient-context tree, a bounded ring buffer, and JSONL flush;
* :mod:`repro.obs.metrics` — fixed-bucket histograms with exact
  cross-worker merges plus the Prometheus text exposition;
* :mod:`repro.obs.runtime` — the fork-pool protocol shipping spans and
  histogram deltas back with the telemetry counter-delta merge.

Enable both at once with :func:`use_observability`, or the individual
switches with
``REPRO_TRACE=1`` / ``REPRO_METRICS=1``.

``python -m repro obs summarize TRACE.jsonl`` renders flushed traces;
naming conventions and overhead numbers live in
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import metrics, trace
from repro.obs.metrics import (
    Histogram,
    histogram,
    metrics_enabled,
    render_prometheus,
    use_metrics,
)
from repro.obs.trace import span, tracing_enabled, use_tracing

__all__ = [
    "metrics",
    "trace",
    "Histogram",
    "histogram",
    "metrics_enabled",
    "render_prometheus",
    "use_metrics",
    "span",
    "tracing_enabled",
    "use_tracing",
    "use_observability",
]


@contextmanager
def use_observability(enabled: bool = True) -> Iterator[None]:
    """Temporarily arm (or disarm) tracing and metrics together."""
    with use_tracing(enabled), use_metrics(enabled):
        yield
