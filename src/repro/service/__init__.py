"""Online admission-control service.

Wraps the partitioning algorithms and parametric utilization bounds in a
stdlib-only asyncio HTTP server (``python -m repro serve``), turning the
one-shot analyses into *schedulability-as-a-service*: a deployment asks
``POST /v1/admit`` whether a task set fits on ``m`` processors and gets the
serialized partition back, with an LRU result cache, bounded-queue
backpressure, per-request analysis timeouts that degrade to the cheap
utilization-bound verdict, and a ``/metrics`` endpoint backed by
:mod:`repro.perf.telemetry`.

Layering::

    server.py    asyncio HTTP front end: routing, backpressure, drain
    handlers.py  request -> analysis -> response (cache, timeout fallback)
    cache.py     canonical task-set hashing + LRU result cache
    validation.py  structured request validation (shared with the CLI)
    loadgen.py   load-generating client / serving benchmark
"""

from importlib import import_module
from typing import Any

#: Public name -> the submodule that defines it.  The names resolve
#: lazily (PEP 562), so importing one submodule — the store's tiered
#: cache needs only :mod:`repro.service.cache` — does not load the
#: handlers and the algorithm registry with it.
_EXPORTS = {
    "AdmissionService": "handlers",
    "ServiceConfig": "handlers",
    "LRUCache": "cache",
    "admit_cache_key": "cache",
    "RequestValidationError": "validation",
    "parse_admit_request": "validation",
    "parse_taskset_payload": "validation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
