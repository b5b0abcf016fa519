"""Plumbing shared by the workloads: where the program lives, the host-speed
probe, fresh-process set-up timing, memory readings, percentiles and the
printed report."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Span dumps of traced runs land here (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MANIFEST = os.path.join(ROOT, "perfbench", "manifest.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run's operations are cut into this many consecutive windows; a
#: timing metric is the median of its per-window values, so a burst of
#: host noise moves one window, not the result.
WINDOWS = 5
#: The host-speed probe's time on the reference host.  Shared hosts run
#: the same code up to 1.5x slower for seconds at a time (other tenants
#: of the machine), and the program slows with them.  Every operation
#: time is therefore divided by the slowness ``probe time /
#: PROBE_REFERENCE_S`` probed right before and after it, and reads as
#: if the run had the reference host to itself.
PROBE_REFERENCE_S = 1e-3
PROBE_LOOPS = 3


def pin_to_one_cpu() -> None:
    """Run this process (and the set-up children it starts) on one CPU,
    so each probe measures the CPU the operations next to it ran on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def slowness_between(probes: Sequence[float], rounds: Sequence[int]) -> List[float]:
    """Per-operation slowness: the mean of the probes at the start and
    end of the operation's round (``probes`` has one more entry than
    there are rounds)."""
    return [(probes[r] + probes[r + 1]) / 2 for r in rounds]


def probe_slowness(loops: int = PROBE_LOOPS) -> float:
    """How much slower than the reference host this one runs now: the
    best of *loops* timings of a fixed pure-Python loop (no program
    code), over ``PROBE_REFERENCE_S``."""
    best = float("inf")
    for _ in range(loops):
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(6000):
            acc += i * i % 7
            table[i & 255] = acc
        best = min(best, perf_counter() - t0)
    return best / PROBE_REFERENCE_S


def host_facts() -> Dict[str, object]:
    """The host facts every run prints and the manifest records."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule: the run measured
    the benchmark host, not the program, and reports nothing."""


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program from
    this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(obj: object) -> str:
    """SHA-256 of the canonical JSON of *obj* (floats by shortest repr)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation); 0.0 with no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def windows(count: int, unit: int) -> List[Tuple[int, int]]:
    """Up to ``WINDOWS`` consecutive index ranges over *count* operations,
    each a whole number of *unit*-sized rounds (a trailing partial round
    is left out), so every window holds the same input mix."""
    rounds = count // unit
    if rounds == 0:
        return [(0, count)]
    k = min(WINDOWS, rounds)
    edges = [unit * (rounds * j // k) for j in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def median_fresh_setup(module: str) -> float:
    """Median wall time of a fresh interpreter that imports the program
    and runs ``module.build()`` — the workload's time to ready — each
    scaled by the host slowness probed around it."""
    code = f"from {module} import build; build()"
    times: List[float] = []
    for _ in range(SETUP_REPEATS):
        slow = probe_slowness()
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=program_env(),
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        elapsed = perf_counter() - t0
        times.append(elapsed / ((slow + probe_slowness()) / 2))
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Report:
    """Collects one run's metrics and checks and prints them.

    Units come from ``BENCHMARK.json``, so a workload names a declared
    metric and its value only.  Every metric is printed as it is set; the
    closing JSON line carries the set the run mode owes: every
    ``end_to_end`` metric untraced, every ``per_layer`` metric traced.
    A declared metric of the other set is printed but left out of it.
    """

    def __init__(self, workload: str, trace: bool) -> None:
        spec = load_json(BENCHMARK)
        self.workload = workload
        self.trace = trace
        owed = spec["per_layer"] if trace else spec["end_to_end"]
        self.units = {m["name"]: m["unit"] for m in owed}
        self.all_units = {
            m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
        }
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.checks: List[Tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0

    def set(self, name: str, value: float, note: str = "") -> None:
        unit = self.all_units[name]
        value = value.item() if isinstance(value, np.generic) else value
        if name in self.units:
            self.metrics[name] = {"value": value, "unit": unit}
        self.say(name, value, unit, note)

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Print a metric line (also for names outside the JSON set)."""
        extra = f"  ({note})" if note else ""
        print(f"metric {self.workload} {name} = {value!r} {unit}{extra}")

    def timings(
        self,
        seconds: Sequence[float],
        slowness: Sequence[float],
        unit: int,
        what: str,
        work: Optional[Sequence[float]] = None,
    ) -> None:
        """Set ``op_p50_ms``, and ``ops_per_s`` from *work* for a closed
        loop; print the unscaled figures and the tail beside them.

        *seconds* is each operation's time, in run order, *slowness* the
        host slowness probed around it and *work* what it counts for in
        ``ops_per_s``.  Each figure is the median of its values over
        ``WINDOWS`` consecutive windows of whole *unit*-sized rounds.
        The gated figures divide each time by its slowness.  The tail is
        printed unscaled and not gated: the probe does not track long
        operations, and even unscaled the 95th percentile spread from
        0.05 to 0.76 of its median across runs on a 2-core shared host.
        """
        raw = np.asarray(seconds, dtype=float) * 1e3
        slow = np.asarray(slowness, dtype=float)
        spans = windows(raw.size, unit)
        note = (
            f"{what}, n={raw.size}, median of {len(spans)} windows, host "
            f"slowness median {np.median(slow):.3g} range "
            f"{slow.min():.3g}..{slow.max():.3g}"
        )

        scaled = raw / slow

        def windowed(figure) -> float:
            return statistics.median(figure(a, b) for a, b in spans)

        def p50(ms: np.ndarray) -> float:
            return windowed(lambda a, b: percentile(ms[a:b], 50))

        def rate(ms: np.ndarray) -> float:
            return windowed(
                lambda a, b: 1e3 * float(sum(work[a:b])) / float(ms[a:b].sum())
            )

        self.set("op_p50_ms", p50(scaled), note)
        self.say("unscaled_op_p50_ms", p50(raw), "ms")
        if work is not None:
            self.set("ops_per_s", rate(scaled), note)
            self.say("unscaled_ops_per_s", rate(raw), "1/s")
        self.say(
            "unscaled_op_p95_ms",
            windowed(lambda a, b: percentile(raw[a:b], 95)),
            "ms",
            "not gated",
        )

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok)))
        status = "ok" if ok else "FAILED"
        print(f"check {self.workload} {name}: {status} {detail}".rstrip())

    def result(self, not_run: Sequence[str] = ()) -> Dict[str, object]:
        """The closing JSON object.

        *not_run* names metric prefixes of layers this workload never
        calls; those per-layer metrics read 0, since no call was made.
        """
        for name in self.units:
            if name in self.metrics:
                continue
            if any(name.startswith(p) for p in not_run):
                self.set(name, 0, "layer not on this workload")
                continue
            raise RuntimeError(f"{self.workload}: metric {name} not measured")
        ordered = {name: self.metrics[name] for name in self.units}
        return {
            "correct": all(ok for _, ok in self.checks) and bool(self.checks),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": ordered,
        }
