"""The committed ``BENCH_*.json`` artifacts hold results only, and fresh ones.

Wall-clock time is measured by ``perfbench/`` alone; a timing leaf in an
artifact would either be compared exactly (and fail the nightly on
noise) or need a tolerance rule.  The lint artifact's counts must match
the tree, so a PR that adds a source file fails here instead of in the
next nightly.
"""

import fnmatch
import json
from pathlib import Path

import pytest

from repro.perf.bench_check import DEFAULT_IGNORES, flatten

pytestmark = pytest.mark.ci

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

#: Path components that name a wall-clock reading.
TIME_NAMES = ("*seconds*", "*per_second*", "*latency*", "*rps", "*speedup*")

#: Gated leaves whose names look like time but are not clock readings:
#: a constant budget, a ratio of probe counts, and an observation count.
NOT_CLOCK = (
    "budget_seconds",
    "efficiency.speedup_vs_grid",
    "server_metrics.latency_ms.count",
)


def _artifacts():
    found = sorted(RESULTS.glob("BENCH_*.json"))
    assert found, "no committed BENCH_*.json artifacts"
    return found


def _components(path):
    return path.replace("[", ".[").split(".")


@pytest.mark.parametrize("artifact", _artifacts(), ids=lambda p: p.name)
def test_no_gated_leaf_is_a_clock_reading(artifact):
    leaves = flatten(json.loads(artifact.read_text(encoding="utf-8")))
    timed = [
        path
        for path in leaves
        if not any(fnmatch.fnmatch(path, pat) for pat in DEFAULT_IGNORES)
        and path not in NOT_CLOCK
        and any(
            fnmatch.fnmatch(part, name)
            for part in _components(path)
            for name in TIME_NAMES
        )
    ]
    assert not timed, (
        f"{artifact.name} has wall-clock leaves under the exact drift "
        f"gate: {timed}; time belongs to perfbench/"
    )


def test_lint_artifact_counts_match_the_tree():
    from repro.lint.framework import all_rules, collect_files

    artifact = json.loads(
        (RESULTS / "BENCH_lint.json").read_text(encoding="utf-8")
    )
    paths = [str(ROOT / p) for p in artifact["paths"]]
    assert artifact["files"] == len(collect_files(paths)), (
        "BENCH_lint.json is stale: regenerate it with "
        "`PYTHONPATH=src python -m repro lint --bench-json "
        "benchmarks/results/BENCH_lint.json`"
    )
    assert artifact["rules"] == len(all_rules())
