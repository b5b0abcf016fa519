"""The CI pipeline definitions must match the documented invocations.

Tier-1, the benchmark smoke, lint and mypy are documented in
CONTRIBUTING.md and asserted here as exact command strings, so the
workflows, the docs and the local developer commands cannot drift apart
silently.  Assertions are text-based (a YAML parser is only used for
structure when available) so this test runs in environments without
PyYAML.
"""

import os
import shlex
from pathlib import Path

import pytest

pytestmark = pytest.mark.ci

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"
NIGHTLY = ROOT / ".github" / "workflows" / "nightly.yml"
PRE_COMMIT = ROOT / "scripts" / "pre-commit"

#: The documented tier-1 / gate commands (ROADMAP.md, CONTRIBUTING.md).
TIER1_CMD = "PYTHONPATH=src python -m pytest -x -q"
LINT_CMD = "PYTHONPATH=src python -m repro lint"
MYPY_CMD = "mypy --config-file pyproject.toml"
PERF_SMOKE_CMD = "PYTHONPATH=src python -m pytest -q -m perf_smoke"
BENCH_SMOKE_CMD = "python3 perfbench/smoke.py"
DRIFT_CMD = "python scripts/check_bench_drift.py"
LINT_BENCH_CMD = (
    "PYTHONPATH=src python -m repro lint --bench-json fresh/BENCH_lint.json"
)
#: The committed sweep regenerated on a second OpenBLAS kernel, then
#: drift-gated like the first run.
OTHER_KERNEL_SWEEP_CMD = (
    "OPENBLAS_CORETYPE=Prescott PYTHONPATH=src python -m repro.perf.bench_sweep "
    "--samples 100 --jobs 4 --seed 0 --out fresh-prescott/BENCH_sweep.json"
)
OTHER_KERNEL_DRIFT_CMD = (
    "python scripts/check_bench_drift.py "
    "--baseline benchmarks/results/BENCH_sweep.json "
    "--fresh fresh-prescott/BENCH_sweep.json"
)


def test_workflow_files_exist():
    assert CI.is_file(), "missing .github/workflows/ci.yml"
    assert NIGHTLY.is_file(), "missing .github/workflows/nightly.yml"


def test_ci_runs_the_documented_tier1_commands():
    text = CI.read_text()
    assert TIER1_CMD in text
    assert BENCH_SMOKE_CMD in text
    assert LINT_CMD in text
    assert MYPY_CMD in text


def test_ci_matrix_covers_supported_pythons_with_pip_cache():
    text = CI.read_text()
    for version in ('"3.10"', '"3.11"', '"3.12"'):
        assert version in text, f"CI matrix missing {version}"
    assert "cache: pip" in text
    assert "actions/checkout@v4" in text
    assert "actions/setup-python@v5" in text
    assert "pip install -e .[test]" in text


def test_ci_triggers_on_push_and_pull_request():
    text = CI.read_text()
    assert "pull_request" in text
    assert "push" in text


def test_ci_flow_job_gates_and_uploads_sarif():
    text = CI.read_text()
    assert "flow:" in text, "CI must have a dedicated flow-analysis job"
    for code in ("R9", "R10", "R11", "R12", "R13"):
        assert f"--select {code}" in text
    assert "--format sarif" in text
    assert "actions/upload-artifact@v4" in text
    assert "flow.sarif" in text


def test_ci_guards_against_committed_bytecode():
    text = CI.read_text()
    assert "git ls-files -- src tests" in text
    assert "__pycache__" in text


def test_nightly_regenerates_lint_benchmark():
    assert LINT_BENCH_CMD in NIGHTLY.read_text()


def test_pre_commit_hook_passes_only_flags_the_lint_cli_accepts():
    # A hook naming a removed flag fails here, not on a developer's next
    # commit.
    from repro.lint.cli import build_parser

    invocations = []
    for line in PRE_COMMIT.read_text().replace("\\\n", " ").splitlines():
        if "python -m repro lint" not in line:
            continue
        tokens = shlex.split(line.split("python -m repro lint", 1)[1])
        for stop in ("||", "&&", ";", "|"):
            if stop in tokens:
                tokens = tokens[: tokens.index(stop)]
        invocations.append(tokens)
    assert invocations, "scripts/pre-commit no longer runs repro lint"
    for tokens in invocations:
        try:
            build_parser().parse_args(tokens)
        except SystemExit:
            pytest.fail(f"repro lint rejects the hook's arguments: {tokens}")


def test_nightly_regenerates_benchmarks_with_baseline_parameters():
    text = NIGHTLY.read_text()
    assert PERF_SMOKE_CMD in text
    # committed BENCH_sweep.json config: samples=100, jobs=4
    assert ("python -m repro.perf.bench_sweep "
            "--samples 100 --jobs 4 --seed 0") in text
    # committed BENCH_store.json uses the module defaults
    assert "python -m repro.store.bench_store" in text
    assert "python -m repro.service.loadgen" in text
    # committed BENCH_churn.json config: processors=4, horizon=60, jobs=2
    assert ("python -m repro.cluster.bench_churn "
            "--processors 4 --horizon 60 --seed 0 --jobs 2") in text


def test_nightly_drift_gates_the_sweep_on_a_second_blas_kernel():
    text = NIGHTLY.read_text()
    assert OTHER_KERNEL_SWEEP_CMD in text
    assert OTHER_KERNEL_DRIFT_CMD in text
    assert text.index(OTHER_KERNEL_SWEEP_CMD) < text.index(OTHER_KERNEL_DRIFT_CMD)


def test_nightly_regenerates_search_benchmark():
    text = NIGHTLY.read_text()
    assert ("python -m repro.search.bench_search "
            "--seed 0 --jobs 2 --out fresh/BENCH_search.json") in text


def test_nightly_search_params_match_committed_search_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_search.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_search.json")
    config = json.loads(artifact.read_text())["config"]
    search_line = next(
        line for line in NIGHTLY.read_text().splitlines()
        if "repro.search.bench_search" in line
    )
    assert f"--seed {config['seed']}" in search_line
    assert f"--jobs {config['jobs']}" in search_line


def test_committed_search_benchmark_meets_the_efficiency_contract():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_search.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_search.json")
    payload = json.loads(artifact.read_text())
    efficiency = payload["efficiency"]
    assert efficiency["min_required"] >= 3.0
    assert efficiency["speedup_vs_grid"] >= efficiency["min_required"]
    assert payload["frontier"]["interval_half_width"] <= 0.02
    determinism = payload["determinism"]
    assert determinism["jobs_invariant"] is True
    assert determinism["resume"]["result_identical"] is True
    assert determinism["witness_replay_confirmed"] is True


def test_every_committed_bench_artifact_is_regenerated_nightly():
    # The drift gate pairs baseline and fresh artifacts by file name and
    # fails on a baseline with no fresh twin, so a committed baseline that
    # no nightly step regenerates would turn the nightly red.
    run_lines = [
        line.strip() for line in NIGHTLY.read_text().splitlines()
        if line.strip().startswith("run:")
    ]
    committed = sorted(
        (ROOT / "benchmarks" / "results").glob("BENCH_*.json")
    )
    assert committed, "no committed BENCH_*.json baselines"
    for artifact in committed:
        target = f"fresh/{artifact.name}"
        assert any(target in line.split() for line in run_lines), (
            f"no nightly step writes {target}"
        )


def test_nightly_gates_on_bench_drift_and_uploads_artifacts():
    text = NIGHTLY.read_text()
    assert DRIFT_CMD in text
    assert "--baseline benchmarks/results" in text
    assert "python -m repro store verify --artifacts benchmarks/results" in text
    assert "actions/upload-artifact@v4" in text
    assert "workflow_dispatch" in text
    assert "schedule" in text


def test_nightly_sweep_params_match_committed_sweep_config():
    # The regeneration command must keep matching the committed artifact's
    # recorded config, else the drift gate compares apples to oranges.
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_sweep.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_sweep.json")
    config = json.loads(artifact.read_text())["config"]
    text = NIGHTLY.read_text()
    assert f"--samples {config['samples']}" in text
    assert f"--jobs {config['jobs']}" in text
    assert f"--seed {config['seed']}" in text


def test_nightly_churn_params_match_committed_churn_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_churn.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_churn.json")
    config = json.loads(artifact.read_text())["config"]
    text = NIGHTLY.read_text()
    churn_line = next(
        line for line in text.splitlines()
        if "repro.cluster.bench_churn" in line
    )
    assert f"--processors {config['processors']}" in churn_line
    assert f"--horizon {config['horizon']}" in churn_line
    assert f"--seed {config['seed']}" in churn_line
    assert f"--jobs {config['jobs']}" in churn_line


def test_workflows_parse_as_yaml_when_parser_available():
    yaml = pytest.importorskip("yaml")
    for path in (CI, NIGHTLY):
        doc = yaml.safe_load(path.read_text())
        assert isinstance(doc, dict)
        assert "jobs" in doc
        for job in doc["jobs"].values():
            assert job.get("runs-on") == "ubuntu-latest"
            assert isinstance(job.get("steps"), list)


def test_contributing_documents_the_same_commands():
    contributing = ROOT / "CONTRIBUTING.md"
    assert contributing.is_file(), "missing CONTRIBUTING.md"
    text = contributing.read_text()
    for cmd in (TIER1_CMD, BENCH_SMOKE_CMD, LINT_CMD, MYPY_CMD):
        assert cmd in text, f"CONTRIBUTING.md must document: {cmd}"


def test_scripts_wrapper_is_what_nightly_invokes():
    script = ROOT / "scripts" / "check_bench_drift.py"
    assert script.is_file()
    assert os.access(script, os.R_OK)
    assert DRIFT_CMD in NIGHTLY.read_text()
