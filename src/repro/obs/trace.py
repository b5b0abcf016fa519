"""Span-based tracing: lightweight timed spans with trace/span IDs.

A *span* is one timed region of work (``with span("svc.compute_admit",
algorithm="rmts"): ...``).  Spans nest through a :mod:`contextvars`
ambient context, so a span opened inside another becomes its child, and
every span carries the trace id of the outermost span of its tree — a
service request, a CLI sweep, a store benchmark.

Design constraints, mirroring :mod:`repro.perf.telemetry`:

* **Off by default, ~free when off.**  The hot-path cost of a disabled
  span is one module-global boolean check; nothing is allocated into the
  buffer, no clock is read.  Enable via ``REPRO_TRACE=1``,
  ``--trace-out`` on the sweep CLI, or :func:`use_tracing`.
* **Bounded memory.**  Finished spans land in an in-process ring buffer
  (default 65536 spans, oldest dropped first); :func:`drain` empties it
  and :func:`flush_jsonl` persists it one JSON object per line.
* **Fork-pool propagation.**  The parallel runner ships the ambient
  trace context *into* workers and their drained span buffers *back*
  with the existing counter-delta merge (see :mod:`repro.obs.runtime`),
  so a ``sweep --jobs N`` run yields one coherent trace.  Span ids embed
  the producing pid, which keeps ids collision-free across forks, and
  ``t0`` is ``time.perf_counter()`` — CLOCK_MONOTONIC on Linux, shared
  by parent and forked children, so spans order correctly across the
  whole pool.

Naming convention (see ``docs/observability.md``): dotted
``<layer>.<operation>`` — ``svc.request``, ``svc.compute_admit``,
``cli.sweep``, ``runner.chunk``, ``sweep.cell``, ``rta.probe``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "ENABLED",
    "TraceContext",
    "span",
    "tracing_enabled",
    "set_tracing",
    "use_tracing",
    "current_context",
    "activate",
    "adopt",
    "drain",
    "extend",
    "buffered_count",
    "set_buffer_limit",
    "flush_jsonl",
    "load_jsonl",
]

#: One position in a trace tree: ``(trace_id, span_id)``.  Ship it across
#: thread/process boundaries and re-enter it with :func:`activate`.
TraceContext = Tuple[str, str]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no",
    )


#: Master switch — module global so the disabled fast path is one lookup.
ENABLED: bool = _env_flag("REPRO_TRACE")

_DEFAULT_BUFFER_LIMIT = 65536
_BUFFER: Deque[Dict[str, Any]] = deque(maxlen=_DEFAULT_BUFFER_LIMIT)
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)
_IDS = itertools.count(1)


def _new_id(prefix: str) -> str:
    # The pid component keeps ids unique across forked pool workers,
    # which inherit the parent's counter position.
    return f"{prefix}{os.getpid():x}-{next(_IDS):x}"


def tracing_enabled() -> bool:
    """Current state of the tracing switch."""
    return ENABLED


def set_tracing(enabled: bool) -> None:
    """Flip the tracing switch (prefer :func:`use_tracing` in tests)."""
    global ENABLED
    ENABLED = bool(enabled)


@contextmanager
def use_tracing(enabled: bool) -> Iterator[None]:
    """Temporarily force tracing on or off (restores on exit)."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(enabled)
    try:
        yield
    finally:
        ENABLED = previous


class span:
    """Context manager recording one timed span (no-op when disabled).

    Attributes passed as keyword arguments are recorded with the span;
    more can be attached mid-flight with :meth:`set` (e.g. the response
    status, known only at the end).  When the body raises, the exception
    type is recorded as an ``error`` attribute before re-raising.
    """

    __slots__ = (
        "name", "attrs", "_active", "_token", "_start",
        "_trace_id", "_span_id", "_parent_id",
    )

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._active = False

    def __enter__(self) -> "span":
        if not ENABLED:
            return self
        ambient = _CURRENT.get()
        if ambient is None:
            self._trace_id = _new_id("t")
            self._parent_id: Optional[str] = None
        else:
            self._trace_id, self._parent_id = ambient
        self._span_id = _new_id("s")
        self._token = _CURRENT.set((self._trace_id, self._span_id))
        self._active = True
        self._start = time.perf_counter()
        return self

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (recorded at exit)."""
        self.attrs[key] = value

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if not self._active:
            return False
        duration = time.perf_counter() - self._start
        self._active = False
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        record: Dict[str, Any] = {
            "trace": self._trace_id,
            "span": self._span_id,
            "parent": self._parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "t0": round(self._start, 6),
            "dur": round(duration, 9),
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        _BUFFER.append(record)
        return False


def current_context() -> Optional[TraceContext]:
    """The ambient ``(trace_id, span_id)``, or ``None`` outside any span
    (or with tracing disabled)."""
    if not ENABLED:
        return None
    return _CURRENT.get()


@contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[None]:
    """Re-enter a shipped trace context (executor threads, subprocesses).

    Spans opened inside become children of the shipped span.  A ``None``
    context (or tracing disabled) makes this a no-op, so callers can wrap
    unconditionally.
    """
    if not ENABLED or context is None:
        yield
        return
    token = _CURRENT.set((context[0], context[1]))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def adopt(context: TraceContext) -> None:
    """Permanently adopt a trace context in this thread (pool workers,
    whose whole lifetime belongs to the shipped trace)."""
    _CURRENT.set((context[0], context[1]))


def drain() -> List[Dict[str, Any]]:
    """Pop every buffered finished span, oldest first."""
    out: List[Dict[str, Any]] = []
    while _BUFFER:
        out.append(_BUFFER.popleft())
    return out


def extend(spans: Iterable[Dict[str, Any]]) -> None:
    """Append externally produced spans (a worker's drained buffer)."""
    _BUFFER.extend(spans)


def buffered_count() -> int:
    """Number of finished spans currently buffered."""
    return len(_BUFFER)


def set_buffer_limit(limit: int) -> int:
    """Resize the ring buffer (keeps the newest spans); returns the old
    limit.  ``limit`` must be positive."""
    global _BUFFER
    if limit < 1:
        raise ValueError(f"buffer limit must be >= 1, got {limit}")
    old = _BUFFER.maxlen or _DEFAULT_BUFFER_LIMIT
    _BUFFER = deque(_BUFFER, maxlen=limit)
    return old


def flush_jsonl(path: str, *, append: bool = False) -> int:
    """Drain the buffer into a JSONL file; returns the span count written.

    Stable key order per record, one span per line — the format
    ``python -m repro obs summarize`` reads.
    """
    spans = drain()
    mode = "a" if append else "w"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, mode, encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(spans)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read spans back from a :func:`flush_jsonl` file (blank lines ok)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a JSON span: {exc}")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: span must be an object")
            spans.append(record)
    return spans
