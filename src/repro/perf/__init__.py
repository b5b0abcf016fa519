"""Performance layer: telemetry counters, stage timers and configuration.

This package is deliberately dependency-free (it imports nothing from the
rest of ``repro``) so the hot kernels in :mod:`repro.core` can import it
without cycles.  See ``DESIGN.md`` §5 for the cache-invalidation contract
and the ``BENCH_sweep.json`` schema.
"""

from repro.perf.config import (
    kernel_backend_name,
    kernel_batching_enabled,
    use_kernel_backend,
    use_kernel_batching,
)
from repro.perf.telemetry import COUNTERS, PerfCounters, StageTimes

__all__ = [
    "COUNTERS",
    "PerfCounters",
    "StageTimes",
    "kernel_backend_name",
    "kernel_batching_enabled",
    "use_kernel_backend",
    "use_kernel_batching",
]
