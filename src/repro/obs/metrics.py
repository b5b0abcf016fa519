"""Fixed-bucket latency/size histograms with exact cross-worker merges.

Each :class:`Histogram` keeps per-bin integer counts over a fixed,
sorted tuple of upper bounds (plus an overflow bin) and a running sum of
observations.  Because the bounds are fixed at registration and the
counts are integers, merging worker deltas is *exact*: bucket counts add
commutatively, and for integer-valued observations (e.g. RTA iteration
counts) the float ``sum`` is exact too — a ``--jobs N`` sweep produces
bit-identical histograms to the serial run.  (For wall-clock-valued
histograms the counts still merge exactly; the observations themselves
are nondeterministic.)

The module mirrors the :mod:`repro.perf.telemetry` counter discipline:
a module-global registry, ``snapshot()`` / ``delta_since()`` /
``merge()`` for the fork-pool delta protocol (:mod:`repro.runner.pool`),
and a master ``ENABLED`` switch so a disabled ``observe()`` costs one
boolean check.  Hot paths guard with ``if metrics.ENABLED:`` before
reading the clock so the disabled path never reads it.

:func:`render_prometheus` serializes every registered histogram plus
arbitrary counter/gauge maps into the Prometheus text exposition format
(version 0.0.4) — what ``GET /metrics?format=prometheus`` serves.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "ENABLED",
    "Histogram",
    "histogram",
    "all_histograms",
    "metrics_enabled",
    "use_metrics",
    "reset",
    "snapshot",
    "delta_since",
    "merge",
    "render_prometheus",
    "RTA_ITERATIONS",
    "ADMIT_LATENCY",
    "HTTP_LATENCY",
    "STORE_GET_SECONDS",
    "STORE_PUT_SECONDS",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no",
    )


#: Master switch — module global so the disabled fast path is one lookup.
ENABLED: bool = _env_flag("REPRO_METRICS")


def metrics_enabled() -> bool:
    """Current state of the metrics switch."""
    return ENABLED


@contextmanager
def use_metrics(enabled: bool) -> Iterator[None]:
    """Temporarily force metrics collection on or off."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(enabled)
    try:
        yield
    finally:
        ENABLED = previous


class Histogram:
    """One fixed-bucket histogram: per-bin counts + sum of observations.

    ``bounds`` are the inclusive upper edges of the finite buckets
    (Prometheus ``le`` semantics); an implicit ``+Inf`` overflow bin is
    always present, so ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("name", "help_text", "bounds", "counts", "total_sum")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float],
        help_text: str = "",
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {bounds!r}"
            )
        self.name = name
        self.help_text = help_text
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total_sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (no-op while metrics are disabled)."""
        if not ENABLED:
            return
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total_sum += value

    @property
    def count(self) -> int:
        """Total number of observations across all bins."""
        return sum(self.counts)

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (ending at +Inf)."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def state(self) -> Dict[str, object]:
        """Serializable state: bounds, per-bin counts, and the sum."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total_sum,
        }

    def zero(self) -> None:
        """Reset counts and sum in place (bounds are permanent)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.total_sum = 0.0


_REGISTRY: Dict[str, Histogram] = {}


def histogram(
    name: str,
    bounds: Optional[Sequence[float]] = None,
    help_text: str = "",
) -> Histogram:
    """Get-or-create a registered histogram.

    The first registration fixes the bucket bounds; later lookups may
    omit *bounds* but must not contradict the registered ones — drifting
    bounds would silently break cross-worker merges.
    """
    existing = _REGISTRY.get(name)
    if existing is not None:
        if bounds is not None and tuple(float(b) for b in bounds) != existing.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"bounds {existing.bounds!r}"
            )
        return existing
    if bounds is None:
        raise ValueError(f"histogram {name!r} is not registered; pass bounds")
    created = Histogram(name, bounds, help_text)
    _REGISTRY[name] = created
    return created


def all_histograms() -> Mapping[str, Histogram]:
    """Read-only view of the registry (sorted iteration is the caller's
    job; dict order is registration order)."""
    return _REGISTRY


def reset() -> None:
    """Zero every registered histogram (registrations persist)."""
    for h in _REGISTRY.values():
        h.zero()


def snapshot() -> Dict[str, Dict[str, object]]:
    """Copy of every registered histogram's state, keyed by name."""
    return {name: h.state() for name, h in _REGISTRY.items()}


def delta_since(
    before: Mapping[str, Mapping[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Histogram increments since *before* (an earlier :func:`snapshot`).

    Histograms registered after the snapshot contribute their full state.
    Only histograms with at least one new observation appear in the
    delta, keeping worker→parent IPC payloads small.
    """
    out: Dict[str, Dict[str, object]] = {}
    for name, h in _REGISTRY.items():
        prior = before.get(name)
        if prior is None:
            counts = list(h.counts)
            sum_delta = h.total_sum
        else:
            prior_counts = list(prior["counts"])  # type: ignore[arg-type]
            counts = [a - b for a, b in zip(h.counts, prior_counts)]
            sum_delta = h.total_sum - float(prior["sum"])  # type: ignore[arg-type]
        if any(counts):
            out[name] = {
                "bounds": list(h.bounds),
                "counts": counts,
                "sum": sum_delta,
            }
    return out


def merge(delta: Mapping[str, Mapping[str, object]]) -> None:
    """Fold a :func:`delta_since` produced by another process into the
    registry, creating histograms this process has not registered yet."""
    for name, state in delta.items():
        bounds = [float(b) for b in state["bounds"]]  # type: ignore[union-attr]
        h = _REGISTRY.get(name)
        if h is None:
            h = histogram(name, bounds)
        elif list(h.bounds) != bounds:
            raise ValueError(
                f"cannot merge histogram {name!r}: bounds differ "
                f"({list(h.bounds)!r} vs {bounds!r})"
            )
        counts = state["counts"]
        for i, c in enumerate(counts):  # type: ignore[arg-type]
            h.counts[i] += int(c)
        h.total_sum += float(state["sum"])  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ---------------------------------------------------------------------------

_PROM_PREFIX = "repro_"


def _prom_float(value: float) -> str:
    """Prometheus number formatting: integers bare, floats compact."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_prom_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    *,
    counters: Optional[Mapping[str, int]] = None,
    gauges: Optional[Mapping[str, float]] = None,
    labeled_counters: Optional[
        Mapping[str, Sequence[Tuple[Mapping[str, str], float]]]
    ] = None,
) -> str:
    """Serialize histograms + counter/gauge maps as Prometheus text.

    * Every registered histogram becomes a ``histogram`` family
      (cumulative ``_bucket{le=...}`` series, ``_sum``, ``_count``).
    * *counters* (e.g. ``COUNTERS.snapshot()``) become one
      ``repro_events_total`` family labeled by event name.
    * *gauges* map straight to ``repro_<name>`` gauge samples.
    * *labeled_counters* maps family name → ``[(labels, value), ...]``
      for pre-labeled series like per-endpoint request counts.
    """
    lines: List[str] = []
    for name in sorted(_REGISTRY):
        h = _REGISTRY[name]
        family = _PROM_PREFIX + name
        if h.help_text:
            lines.append(f"# HELP {family} {h.help_text}")
        lines.append(f"# TYPE {family} histogram")
        cumulative = h.cumulative_counts()
        for bound, c in zip(h.bounds, cumulative):
            lines.append(
                f'{family}_bucket{{le="{_prom_float(bound)}"}} {c}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative[-1]}')
        lines.append(f"{family}_sum {_prom_float(h.total_sum)}")
        lines.append(f"{family}_count {cumulative[-1]}")
    if counters:
        family = _PROM_PREFIX + "events_total"
        lines.append(
            f"# HELP {family} repro.perf.telemetry hot-path event counters"
        )
        lines.append(f"# TYPE {family} counter")
        for event in sorted(counters):
            labels = _prom_labels({"event": event})
            lines.append(f"{family}{labels} {int(counters[event])}")
    if gauges:
        for name in sorted(gauges):
            family = _PROM_PREFIX + name
            lines.append(f"# TYPE {family} gauge")
            lines.append(f"{family} {_prom_float(float(gauges[name]))}")
    if labeled_counters:
        for name in sorted(labeled_counters):
            family = _PROM_PREFIX + name
            lines.append(f"# TYPE {family} counter")
            for labels, value in labeled_counters[name]:
                lines.append(
                    f"{family}{_prom_labels(labels)} {_prom_float(float(value))}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The standing histograms of the serving/analysis stack
# ---------------------------------------------------------------------------

#: RTA fixed-point iteration counts are small integers; fine bins low,
#: coarse bins high.  Integer-valued, so sums merge bit-exactly.
_ITERATION_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

#: Request/analysis wall latencies: 0.5 ms .. 10 s, roughly exponential.
_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Store I/O latencies: sqlite hits are tens of microseconds.
_IO_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)

RTA_ITERATIONS = histogram(
    "rta_iterations",
    _ITERATION_BOUNDS,
    "RTA fixed-point iterations per response_time() call",
)
ADMIT_LATENCY = histogram(
    "admit_latency_seconds",
    _LATENCY_BOUNDS,
    "wall seconds per admission (partitioning) analysis",
)
HTTP_LATENCY = histogram(
    "http_request_seconds",
    _LATENCY_BOUNDS,
    "wall seconds per HTTP request, all endpoints",
)
STORE_GET_SECONDS = histogram(
    "store_get_seconds",
    _IO_BOUNDS,
    "wall seconds per persistent-store read",
)
STORE_PUT_SECONDS = histogram(
    "store_put_seconds",
    _IO_BOUNDS,
    "wall seconds per persistent-store insert-or-get",
)
