"""CLI front-end tests: exit codes, formats, catalog, bench artifact."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text('"""Nothing to report."""\n\nX = 1\n', encoding="utf-8")
    return path


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(
        '"""One R8 violation."""\n\n\ndef report(x):\n    print(x)\n',
        encoding="utf-8",
    )
    return path


def test_exit_zero_and_silent_on_clean_file(clean_file, capsys):
    assert lint_main([str(clean_file)]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_file_line_diagnostics(dirty_file, capsys):
    assert lint_main([str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "R8[print-in-library]" in out
    assert ":5:" in out  # the print() line
    assert "1 diagnostic(s) found" in out


def test_json_format_is_parseable(dirty_file, capsys):
    assert lint_main([str(dirty_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    record = payload[0]
    assert record["code"] == "R8"
    assert record["line"] == 5
    assert record["path"].endswith("dirty.py")


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert lint_main([str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_select_and_ignore_scope_the_run(dirty_file):
    assert lint_main([str(dirty_file), "--select", "R1"]) == 0
    assert lint_main([str(dirty_file), "--ignore", "R8"]) == 0


def test_list_rules_prints_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("R1[float-compare]")
    assert any("(project)" in line for line in lines)


def test_bench_json_artifact(dirty_file, tmp_path, capsys):
    artifact = tmp_path / "bench.json"
    assert lint_main([str(dirty_file), "--bench-json", str(artifact)]) == 1
    capsys.readouterr()
    data = json.loads(artifact.read_text(encoding="utf-8"))
    assert data["tool"] == "repro.lint"
    assert data["files"] == 1
    assert data["diagnostics"] == 1
    assert data["rules"] == 13
    assert data["within_budget"] is True


def test_repro_cli_forwards_lint_args(dirty_file, capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(dirty_file), "--select", "R8"]) == 1
    assert "R8[print-in-library]" in capsys.readouterr().out


def test_repro_cli_forwards_leading_option(capsys):
    # argparse.REMAINDER chokes on a leading option; main() must forward
    # "repro lint --list-rules" verbatim.
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 13


def test_sarif_format_carries_rules_and_results(dirty_file, capsys):
    assert lint_main([str(dirty_file), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    assert len(run["tool"]["driver"]["rules"]) == 13
    result = run["results"][0]
    assert result["ruleId"] == "R8"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5


def test_sarif_code_flow_from_witness(capsys):
    fixture = REPO_ROOT / "tests" / "lint" / "cases" / "flow_r9"
    assert lint_main([str(fixture), "--select", "R9",
                      "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"R9"}
    flows = results[0]["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(flows) >= 2  # root, call edge(s), blocking site
    uris = {
        loc["location"]["physicalLocation"]["artifactLocation"]["uri"]
        for loc in flows
    }
    assert any(uri.endswith("handlers.py") for uri in uris)
    assert any(uri.endswith("helpers.py") for uri in uris)


def test_explain_prints_witness_call_path(capsys):
    fixture = REPO_ROOT / "tests" / "lint" / "cases" / "flow_r9"
    assert lint_main([str(fixture), "--explain", "R9"]) == 1
    out = capsys.readouterr().out
    assert "witness call path:" in out
    assert "blocks: time.sleep" in out
    assert "R9[transitive-blocking]" in out


def test_explain_reports_absence(clean_file, capsys):
    assert lint_main([str(clean_file), "--explain", "R9"]) == 0
    assert "no R9 findings" in capsys.readouterr().out


def test_explain_a_code_that_select_excludes_is_a_usage_error(capsys):
    # The fixture has an R9 finding; "no R9 findings" would hide it.
    fixture = REPO_ROOT / "tests" / "lint" / "cases" / "flow_r9"
    assert lint_main([str(fixture), "--explain", "R9", "--select", "R8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "R9" in captured.err


_R8_SOURCE = '"""New file."""\n\n\ndef report(x):\n    print(x)\n'


def _commit_all(repo):
    subprocess.run(["git", "-C", str(repo), "add", "."], check=True)
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@t",
         "-c", "user.name=t", "commit", "-qm", "seed"],
        check=True,
    )


def test_changed_outside_git_checkout_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--changed", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_changed_lints_only_touched_files(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    clean = tmp_path / "committed.py"
    clean.write_text('"""Committed and unchanged."""\n\ndef ok(x):\n'
                     "    print(x)\n", encoding="utf-8")
    _commit_all(tmp_path)
    (tmp_path / "touched.py").write_text(_R8_SOURCE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--changed", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # the committed R8 violation is out of scope; only the new file shows
    assert "touched.py" in out
    assert "committed.py" not in out


def test_changed_with_no_touched_files_is_clean(tmp_path, monkeypatch,
                                                capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "a.py").write_text('"""A."""\nX = 1\n', encoding="utf-8")
    _commit_all(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--changed", str(tmp_path)]) == 0
    assert "no changed python files" in capsys.readouterr().out


def test_changed_from_a_subdirectory_resolves_from_the_repo_root(
    tmp_path, monkeypatch, capsys
):
    # git status reports paths relative to the repository root, not to
    # the current directory.
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Pkg."""\n', encoding="utf-8")
    _commit_all(tmp_path)
    (pkg / "touched.py").write_text(_R8_SOURCE, encoding="utf-8")
    monkeypatch.chdir(pkg)
    assert lint_main(["--changed", "."]) == 1
    out = capsys.readouterr().out
    assert "touched.py:5:" in out
    assert "R8[print-in-library]" in out


def test_changed_file_with_a_non_ascii_name_is_linted(
    tmp_path, monkeypatch, capsys
):
    # Without -z, git quotes the name as "pkg/b\303\244.py".
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Pkg."""\n', encoding="utf-8")
    _commit_all(tmp_path)
    (pkg / "b\u00e4.py").write_text(_R8_SOURCE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--changed", "."]) == 1
    assert "b\u00e4.py:5:" in capsys.readouterr().out


def test_changed_follows_a_rename_to_its_new_path(
    tmp_path, monkeypatch, capsys
):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "old.py").write_text(_R8_SOURCE, encoding="utf-8")
    _commit_all(tmp_path)
    subprocess.run(
        ["git", "-C", str(tmp_path), "mv", "old.py", "new.py"], check=True
    )
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--changed", "."]) == 1
    out = capsys.readouterr().out
    assert "new.py:5:" in out
    assert "old.py" not in out


def test_python_dash_m_entry_point(dirty_file):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(dirty_file), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)[0]["code"] == "R8"
