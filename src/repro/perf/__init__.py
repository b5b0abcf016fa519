"""Performance layer: telemetry counters and configuration.

This package is deliberately dependency-free (it imports nothing from the
rest of ``repro``) so the hot kernels in :mod:`repro.core` can import it
without cycles.  See ``DESIGN.md`` §5 for the cache-invalidation contract
and the ``BENCH_sweep.json`` schema.
"""

from repro.perf.telemetry import COUNTERS, PerfCounters

__all__ = [
    "COUNTERS",
    "PerfCounters",
]
