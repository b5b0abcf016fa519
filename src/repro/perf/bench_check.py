"""Compare fresh ``BENCH_*.json`` artifacts against committed baselines.

The nightly pipeline regenerates every benchmark and calls this checker
(``python -m repro bench check`` or ``scripts/check_bench_drift.py``) to
classify each leaf value of the fresh artifact against the committed
baseline:

* ``equal`` — fine;
* ``drift`` — a different value, or a baseline key the fresh run lost
  (exit code 1);
* ``added`` — a key only the fresh run has: a *warning*, not drift, so
  schema growth in a newer branch does not break the nightly of an
  older one.

Every leaf is compared exactly: the artifacts hold results only (curves,
counters, verdicts, probe counts, witnesses), which are deterministic
by construction.  Wall-clock timing belongs to ``perfbench/``, which
scales it for host noise.  The one exception is a fixed ignore list
(:data:`DEFAULT_IGNORES`, ``fnmatch`` globs over the dotted leaf path,
list items as ``[i]``): machine identity, the source hash that every
``src/`` edit changes, and the clock readings of the loadgen report, a
user tool whose product is latency.  The rest of each provenance stamp
(its counters, seed and config hash) repeats exactly, so it is gated:
counters that no longer match the code fail the gate.

A committed baseline with no fresh twin is drift too: a nightly step
that stops writing its artifact must fail the gate, not skip it.
"""

from __future__ import annotations

import argparse
import fnmatch
import glob
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_IGNORES",
    "Finding",
    "build_parser",
    "classify",
    "compare_values",
    "flatten",
    "main",
    "pair_artifacts",
]

#: Leaf paths that never participate in the comparison.
DEFAULT_IGNORES: Tuple[str, ...] = (
    # machine identity, and the hash of the source tree
    "host.*",
    "provenance.code_version",
    # loadgen (BENCH_service.json) clock readings
    "client.rps",
    "client.elapsed_seconds",
    "*.latency_ms.p50",
    "*.latency_ms.p90",
    "*.latency_ms.p99",
    "*.latency_ms.max",
    "server_metrics.uptime_seconds",
)


def flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Leaf values keyed by dotted path (list items as ``[i]``)."""
    out: Dict[str, Any] = {}
    if isinstance(value, Mapping):
        for key in value:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value[key], path))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix or "<root>"] = value
    return out


@dataclass(frozen=True)
class Finding:
    """Classification of one leaf path."""

    path: str
    status: str  # equal | drift | added | missing
    baseline: Any = None
    fresh: Any = None

    @property
    def is_drift(self) -> bool:
        return self.status in ("drift", "missing")

    def describe(self) -> str:
        if self.status == "added":
            return f"added    {self.path} = {self.fresh!r} (warning)"
        if self.status == "missing":
            return f"missing  {self.path} (baseline {self.baseline!r})"
        return f"{self.status:<8} {self.path}: {self.baseline!r} -> {self.fresh!r}"


def compare_values(path: str, baseline: Any, fresh: Any) -> Finding:
    """Classify one leaf pair: equal or drift, nothing in between.

    A bool never equals a number, although Python's ``True == 1`` says so.
    """
    same = fresh == baseline and (
        isinstance(fresh, bool) == isinstance(baseline, bool)
    )
    return Finding(
        path=path,
        status="equal" if same else "drift",
        baseline=baseline,
        fresh=fresh,
    )


def classify(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    ignores: Sequence[str] = DEFAULT_IGNORES,
) -> List[Finding]:
    """Classify every leaf of *fresh* against *baseline*; ignored paths
    are dropped entirely."""
    flat_base = flatten(dict(baseline))
    flat_fresh = flatten(dict(fresh))

    findings: List[Finding] = []
    for path in sorted(set(flat_base) | set(flat_fresh)):
        if any(fnmatch.fnmatch(path, pat) for pat in ignores):
            continue
        if path not in flat_fresh:
            findings.append(
                Finding(path=path, status="missing",
                        baseline=flat_base[path])
            )
        elif path not in flat_base:
            findings.append(
                Finding(path=path, status="added", fresh=flat_fresh[path])
            )
        else:
            findings.append(
                compare_values(path, flat_base[path], flat_fresh[path])
            )
    return findings


def _bench_files(path: str) -> List[str]:
    """Expand a file-or-directory argument to BENCH_*.json files."""
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file or directory: {path!r}")
    return [path]


def pair_artifacts(
    baseline: str, fresh: str
) -> List[Tuple[str, str, Optional[str]]]:
    """Pair each baseline artifact with its fresh twin.

    Returns ``(name, base_path, fresh_path)`` per baseline artifact,
    paired by basename; ``fresh_path`` is ``None`` when the fresh side
    has no artifact of that name (the CLI reports it as drift).
    Fresh-only artifacts have no baseline to compare against and are
    left out.  Two file arguments always pair with each other.
    """
    base_files = {os.path.basename(p): p for p in _bench_files(baseline)}
    fresh_files = {os.path.basename(p): p for p in _bench_files(fresh)}
    if os.path.isfile(baseline) and os.path.isfile(fresh):
        return [(os.path.basename(fresh), baseline, fresh)]
    return [
        (name, base_files[name], fresh_files.get(name))
        for name in sorted(base_files)
    ]


def _load(path: str) -> Mapping[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: bench artifact must be a JSON object")
    return payload


def _cmd_check(args: argparse.Namespace) -> int:
    pairs = pair_artifacts(args.baseline, args.fresh)
    if not pairs:
        print(
            f"error: no baseline artifacts in {args.baseline!r}",
            file=sys.stderr,
        )
        return 2
    report: Dict[str, Any] = {"artifacts": {}, "drift": False}
    drifted = False
    for name, base_path, fresh_path in pairs:
        if fresh_path is None:
            drift_lines = [f"missing  artifact {name} (no fresh twin)"]
            findings: List[Finding] = []
        else:
            findings = classify(_load(base_path), _load(fresh_path))
            drift_lines = [f.describe() for f in findings if f.is_drift]
        added = [f for f in findings if f.status == "added"]
        drifted = drifted or bool(drift_lines)
        report["artifacts"][name] = {
            "baseline": base_path,
            "fresh": fresh_path,
            "leaves": len(findings),
            "drift": drift_lines,
            "added": [f.path for f in added],
        }
        if not args.json:
            verdict = "DRIFT" if drift_lines else "ok"
            print(f"{name}: {verdict}  ({len(findings)} leaves, "
                  f"{len(added)} added)")
            for line in drift_lines:
                print(f"  {line}")
            for finding in added:
                print(f"  {finding.describe()}")
    report["drift"] = drifted
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 1 if drifted else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark artifact maintenance "
        "(see docs/observability.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser(
        "check", help="diff fresh BENCH_*.json against committed baselines"
    )
    p_check.add_argument(
        "--baseline", default="benchmarks/results",
        help="baseline artifact file or directory (default: "
        "benchmarks/results)",
    )
    p_check.add_argument(
        "--fresh", required=True,
        help="freshly generated artifact file or directory",
    )
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result: int = args.func(args)
        return result
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
