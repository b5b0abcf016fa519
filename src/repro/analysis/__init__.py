"""Experiment machinery: acceptance-ratio sweeps and breakdown search.

The names below resolve lazily (PEP 562): ``repro.analysis.<name>``
imports its submodule on first use, so a process that needs only
:mod:`repro.analysis.algorithms` — the admission service — does not load
the sweep, simulation and oracle machinery (or NumPy) with it.
"""

from importlib import import_module
from typing import Any

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AcceptanceTest": "acceptance",
    "acceptance_ratio": "acceptance",
    "acceptance_sweep": "acceptance",
    "SweepResult": "acceptance",
    "breakdown_utilization": "breakdown",
    "breakdown_search": "breakdown",
    "average_breakdown": "breakdown",
    "BreakdownResult": "breakdown",
    "BreakdownStats": "breakdown",
    "standard_algorithms": "algorithms",
    "rmts_test": "algorithms",
    "rmts_light_test": "algorithms",
    "critical_scaling_factor": "sensitivity",
    "max_cost_for": "sensitivity",
    "partition_scaling_factor": "sensitivity",
    "overhead_tolerance": "sensitivity",
    "oracle_schedulable": "oracle",
    "differential_audit": "oracle",
    "AuditResult": "oracle",
    "random_integer_taskset": "oracle",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
