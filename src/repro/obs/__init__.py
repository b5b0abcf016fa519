"""Observability layer: fixed-bucket histograms and their export.

:mod:`repro.obs.metrics` keeps stdlib-only histograms with exact
cross-worker merges (the fork pool ships their deltas beside the
telemetry counter deltas, see :mod:`repro.runner.pool`) plus the
Prometheus text exposition ``GET /metrics?format=prometheus`` serves.
Off by default: arm with ``REPRO_METRICS=1`` or :func:`use_metrics`.
Where time goes is measured by ``perfbench/`` (its ``--trace 1`` run),
not here; see ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs import metrics
from repro.obs.metrics import (
    Histogram,
    histogram,
    metrics_enabled,
    render_prometheus,
    use_metrics,
)

__all__ = [
    "metrics",
    "Histogram",
    "histogram",
    "metrics_enabled",
    "render_prometheus",
    "use_metrics",
]
