"""Kernel-backend-style per-process handle cache.

A module-global handle populated lazily on first use, the shape a
native-library loader takes.  Inside a fork-pool worker that mutation
never reaches the parent.  Even where such an idempotent load cache is
harmless, R11 must flag the pattern unless the module is sanctioned by
name in ``_R11_SANCTIONED_MODULES`` or the line carries a pragma.
"""

_HANDLES = {}


def ensure_loaded():
    if "lib" not in _HANDLES:
        _HANDLES["lib"] = object()  # expect: R11
    return _HANDLES["lib"]


def run_bucket(item):
    lib = ensure_loaded()
    return (lib is not None, item)


def run_bucket_quiet(item):
    _HANDLES["alt"] = object()  # repro-lint: disable=R11 (per-process handle by design)
    return item
