"""Structured perf telemetry: hot-path counters.

The counters are plain integer attributes on a module-global singleton —
incrementing one costs tens of nanoseconds, and the RTA kernel bumps its
two once per ``response_time`` call, not per fixed-point iteration, so
they are always on.  Sweep runners snapshot the counters around a region
and report the delta; worker processes of the parallel runner return
their deltas to the parent, which merges them so totals are meaningful
at any ``jobs`` level.

``BENCH_sweep.json`` (see ``DESIGN.md`` §5 for the schema) is assembled
from these snapshots.  Wall-clock timing is not measured here: that is
``perfbench``'s job.
"""

from __future__ import annotations

import json
import os
from typing import Dict

__all__ = ["PerfCounters", "COUNTERS", "write_bench_json"]

#: Counter attribute names, in reporting order.
_FIELDS = (
    "rta_calls",          # response_time() invocations
    "rta_iterations",     # fixed-point iterations across all calls
    "admission_probes",   # incremental admits() probes answered
    "hyper_accepts",      # probes settled by the hyperbolic sufficient test
    "rta_bound_accepts",  # RTA slots settled by the linear response bound
    "rta_point_accepts",  # RTA slots settled by the workload at the deadline
    "ctx_memo_hits",      # context extensions served from the probe memo
    "ctx_requests",       # ProcessorState analysis-context lookups
    "ctx_builds",         # lookups that had to (re)build the context
    "maxsplit_calls",     # MaxSplit searches (both variants)
    # -- admission-control service (repro.service) --------------------------
    "svc_requests",       # HTTP requests handled (all endpoints)
    "svc_cache_hits",     # analysis results served from the LRU cache
    "svc_cache_misses",   # analysis results that had to be computed
    "svc_cache_evictions",  # LRU entries displaced at capacity
    "svc_degraded",       # responses downgraded to the bound-only verdict
    "svc_timeouts",       # analyses that hit the per-request deadline
    "svc_backpressure",   # requests shed with 429/503 (queue full / drain)
    "svc_validation_errors",  # requests rejected by structured validation
    # -- persistent result store (repro.store) ------------------------------
    "st_hits",            # store reads answered from a durable row
    "st_misses",          # store reads with no (valid) row
    "st_puts",            # insert-or-get writes (including losing races)
    "st_corrupt_rows",    # rows dropped after a payload-checksum mismatch
    "st_schema_evictions",  # rows invalidated by a schema-version change
    "st_quarantines",     # whole files set aside and rebuilt from scratch
    "st_gc_removed",      # rows removed by TTL / capacity compaction
    # -- churn cluster simulator (repro.cluster) ----------------------------
    "cl_events",          # churn events processed (arrivals + departures)
    "cl_admits",          # task sets admitted to the live cluster
    "cl_rejects",         # task sets rejected outright (no queue slot)
    "cl_queued",          # task sets parked in the bounded wait queue
    "cl_queue_timeouts",  # queued task sets expired past max_wait
    "cl_readmits",        # queued task sets admitted after a departure
    "cl_departures",      # resident task sets that left the cluster
    "cl_migrations",      # task relocations applied (all RTA re-verified)
    "cl_journal_events",  # events written to the churn store journal
    # -- frontier/adversarial search (repro.search) -------------------------
    "se_probes",          # acceptance-test probes computed by a search
    "se_probes_resumed",  # probes served from the search journal
    "se_levels",          # utilization levels classified by the mapper
    "se_ce_rounds",       # cross-entropy refinement rounds completed
    "se_witnesses",       # adversarial witness records emitted
)


class PerfCounters:
    """Mutable bundle of hot-path event counters."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the current counter values."""
        return {name: getattr(self, name) for name in _FIELDS}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since *before* (an earlier :meth:`snapshot`)."""
        return {
            name: getattr(self, name) - before.get(name, 0) for name in _FIELDS
        }

    def merge(self, delta: Dict[str, int]) -> None:
        """Add a delta produced by another process (parallel workers)."""
        for name, value in delta.items():
            if name in _FIELDS:
                setattr(self, name, getattr(self, name) + int(value))

    @property
    def ctx_hit_rate(self) -> float:
        """Fraction of context lookups served from cache."""
        if self.ctx_requests == 0:
            return 0.0
        return 1.0 - self.ctx_builds / self.ctx_requests

    def summary(self) -> Dict[str, object]:
        """Counters plus derived rates, ready for JSON."""
        out: Dict[str, object] = self.snapshot()
        out["ctx_hit_rate"] = round(self.ctx_hit_rate, 6)
        if self.rta_calls:
            out["iterations_per_rta_call"] = round(
                self.rta_iterations / self.rta_calls, 4
            )
        return out


#: The process-global counter singleton the hot paths increment.
COUNTERS = PerfCounters()


def write_bench_json(path: str, payload: Dict[str, object]) -> None:
    """Persist a ``BENCH_sweep.json``-style artifact (stable key order).

    Every artifact is stamped with a provenance block (code version,
    config hash, seed, counter snapshot — see
    :mod:`repro.store.provenance`) so ``python -m repro store verify``
    can detect stale or tampered artifacts later.  The import is lazy:
    the store layer builds on the telemetry counters, not vice versa.
    """
    from repro.store.provenance import stamp_payload

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(stamp_payload(payload), fh, indent=2, sort_keys=False)
        fh.write("\n")
