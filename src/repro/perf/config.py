"""Runtime switches for the performance layer.

Admission has one engine: every :class:`~repro.core.partition.ProcessorState`
answers probes from its cached :class:`repro.core.rta.RTAContext`.  The
from-scratch functions of :mod:`repro.core.rta` serve one-shot callers
(sensitivity analysis, experiments) and are the reference oracle the
equivalence tests compare the context against.  There is no switch for it.

``debug_invariants`` arms the runtime sanitizer
(:mod:`repro._util.invariants`): subsystem boundaries then assert RTA
response-time monotonicity, per-task ``0 < U <= 1`` and partition
well-formedness.  It starts from the ``REPRO_DEBUG_INVARIANTS``
environment variable and is toggled with :func:`use_debug_invariants`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Whether the runtime invariant sanitizer is armed (see module docstring).
debug_invariants: bool = os.environ.get(
    "REPRO_DEBUG_INVARIANTS", ""
).strip().lower() not in ("", "0", "false", "no")


@contextmanager
def use_debug_invariants(enabled: bool):
    """Temporarily arm or disarm the runtime invariant sanitizer."""
    global debug_invariants
    previous = debug_invariants
    debug_invariants = bool(enabled)
    try:
        yield
    finally:
        debug_invariants = previous

