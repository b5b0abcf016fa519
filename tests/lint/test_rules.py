"""Per-rule fixture tests.

Each fixture under ``tests/lint/cases/`` tags every line that must be
reported with ``# expect: <CODE>`` and also contains a suppressed
occurrence of the same violation (``# repro-lint: disable=...``).  The
tests assert the *exact* set of ``(code, line)`` diagnostics, so both the
positive detection and the suppression path are covered by equality.
"""

import re
from pathlib import Path

import pytest

from repro.lint import lint_paths

pytestmark = pytest.mark.lint

CASES = Path(__file__).parent / "cases"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(R\d+)")


def _expected(target: Path):
    """Collect ``(code, line)`` pairs from ``# expect:`` tags."""
    files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    expected = set()
    for path in files:
        source = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(source.splitlines(), start=1):
            for match in _EXPECT_RE.finditer(line):
                expected.add((match.group(1), lineno))
    return expected


def _found(target: Path, code: str):
    return {(d.code, d.line) for d in lint_paths([str(target)], select=[code])}


@pytest.mark.parametrize(
    "fixture, code",
    [
        ("r1_float_compare.py", "R1"),
        ("r2_rng.py", "R2"),
        ("search/r2_rng.py", "R2"),
        ("service/r3_async.py", "R3"),
        ("cluster/r3_async.py", "R3"),
        ("r4", "R4"),
        ("r5_frozen.py", "R5"),
        ("runner/r6_swallow.py", "R6"),
        ("obs/r6_swallow.py", "R6"),
        ("cluster/r6_swallow.py", "R6"),
        ("r7_api_drift.py", "R7"),
        ("r7_suppressed.py", "R7"),
        ("r8_print.py", "R8"),
        ("obs/r8_print.py", "R8"),
        ("search/r8_print.py", "R8"),
        ("flow_r9", "R9"),
        ("flow_r10", "R10"),
        ("flow_r11", "R11"),
        ("flow_r11_kernel", "R11"),
        ("flow_r12", "R12"),
        ("flow_r13", "R13"),
    ],
)
def test_fixture_diagnostics_match_expect_tags(fixture, code):
    target = CASES / fixture
    assert _found(target, code) == _expected(target)


def test_search_cli_is_r8_exempt():
    # The search CLI prints frontier/witness summaries by design; the
    # exemption is on the path suffix, so this mirror file must produce
    # no R8 diagnostics.
    assert _found(CASES / "search" / "cli.py", "R8") == set()


def test_r7_suppressed_fixture_really_has_drift():
    # Guard against the suppression test passing vacuously: with the
    # file-wide pragma stripped, the same source must produce drift.
    import ast

    from repro.lint.framework import LintedFile
    from repro.lint.rules import _check_api_drift

    path = CASES / "r7_suppressed.py"
    source = path.read_text(encoding="utf-8").replace("# repro-lint:", "#")
    lf = LintedFile(
        path=path,
        display_path=str(path),
        source=source,
        tree=ast.parse(source),
    )
    codes = {d.code for d in _check_api_drift(lf)}
    assert codes == {"R7"}


def test_r4_reports_both_directions_of_drift():
    diagnostics = lint_paths([str(CASES / "r4")], select=["R4"])
    messages = [d.message for d in diagnostics]
    assert any("not declared in" in m for m in messages)  # undeclared bump
    assert any("dead counter" in m for m in messages)  # declared, never used


def test_disable_all_silences_every_rule(tmp_path):
    victim = tmp_path / "victim.py"
    victim.write_text(
        "def report(value):\n"
        "    print(value)  # repro-lint: disable=all\n",
        encoding="utf-8",
    )
    assert lint_paths([str(victim)]) == []


def test_diagnostics_are_sorted_and_formatted():
    diagnostics = lint_paths([str(CASES / "r2_rng.py")], select=["R2"])
    assert diagnostics == sorted(diagnostics)
    shape = re.compile(r".+:\d+:\d+: R2\[unseeded-rng\] .+")
    for diag in diagnostics:
        assert shape.fullmatch(diag.format()), diag.format()
