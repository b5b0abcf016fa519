"""Rule registry, suppression handling and the lint engine.

Rules come in two scopes:

* ``"file"`` — called once per file with a :class:`LintedFile`; most
  rules are file-scope.
* ``"project"`` — called once with the full list of files; used by
  rules that need cross-file knowledge (telemetry counter drift).

Suppressions are comment-driven and per rule code::

    x = a <= b  # repro-lint: disable=R1  (bound pre-inflated by EPS)

``# repro-lint: disable-file=R8`` anywhere in a file silences that rule
for the whole file.  Codes are case-insensitive; several codes can be
given separated by commas.  ``disable=all`` silences every rule for the
line/file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Diagnostic

__all__ = [
    "LintedFile",
    "Rule",
    "all_rules",
    "collect_files",
    "lint_paths",
    "rule",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*="
    r"\s*((?:[A-Za-z0-9_]+\s*,\s*)*[A-Za-z0-9_]+)"
)


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Return (line -> suppressed codes, file-wide suppressed codes)."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {
            token.strip().upper()
            for token in match.group(2).split(",")
            if token.strip()
        }
        if match.group(1) == "disable-file":
            per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


@dataclass
class LintedFile:
    """A parsed source file plus suppression metadata."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path, display_path: Optional[str] = None) -> "LintedFile":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        per_line, per_file = _parse_suppressions(source)
        return cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
            line_suppressions=per_line,
            file_suppressions=per_file,
        )

    def is_suppressed(self, code: str, line: int) -> bool:
        code = code.upper()
        for codes in (self.file_suppressions, self.line_suppressions.get(line, ())):
            if code in codes or "ALL" in codes:
                return True
        return False

    def diagnostic(
        self, node: ast.AST, code: str, name: str, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            name=name,
            message=message,
        )


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    scope: str  # "file" | "project"
    doc: str
    check: Callable[..., Iterable[Diagnostic]]


_REGISTRY: Dict[str, Rule] = {}


def rule(code: str, name: str, scope: str = "file") -> Callable:
    """Register a lint rule.

    File-scope checks receive one :class:`LintedFile`; project-scope
    checks receive the full ``List[LintedFile]``.
    """
    if scope not in ("file", "project"):
        raise ValueError(f"unknown rule scope: {scope!r}")

    def decorator(func: Callable[..., Iterable[Diagnostic]]) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code: {code}")
        _REGISTRY[code] = Rule(
            code=code,
            name=name,
            scope=scope,
            doc=(func.__doc__ or "").strip().splitlines()[0] if func.__doc__ else "",
            check=func,
        )
        return func

    return decorator


def all_rules() -> List[Rule]:
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def _selected_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    chosen = all_rules()
    if select:
        wanted = {c.upper() for c in select}
        chosen = [r for r in chosen if r.code in wanted]
    if ignore:
        dropped = {c.upper() for c in ignore}
        chosen = [r for r in chosen if r.code not in dropped]
    return chosen


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    # De-duplicate while preserving order.
    seen: Set[Path] = set()
    unique: List[Path] = []
    for p in found:
        resolved = p.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(p)
    return unique


def _display(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint files/directories and return sorted, unsuppressed diagnostics.

    Every file is parsed once; the project-scope flow rules (R9–R13)
    share one call-graph build over the same parsed trees.
    """
    files = [LintedFile.load(p, _display(p)) for p in collect_files(paths)]
    chosen = _selected_rules(select, ignore)
    diagnostics: List[Diagnostic] = []
    by_display: Dict[str, LintedFile] = {f.display_path: f for f in files}
    for rule_obj in chosen:
        if rule_obj.scope == "project":
            found = list(rule_obj.check(files))
        else:
            found = []
            for lf in files:
                found.extend(rule_obj.check(lf))
        for diag in found:
            lf = by_display.get(diag.path)
            if lf is not None and lf.is_suppressed(diag.code, diag.line):
                continue
            diagnostics.append(diag)
    return sorted(diagnostics)
