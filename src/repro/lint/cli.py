"""Command-line front end for ``repro.lint``.

Exit codes: 0 clean, 1 diagnostics found, 2 usage/IO error.

Beyond the classic flags, the flow-analysis additions:

* ``--format sarif`` — SARIF 2.1.0 with witness ``codeFlows`` (CI
  artifact / code-scanning upload);
* ``--explain CODE`` — print each finding for ``CODE`` followed by its
  witness call path;
* ``--changed`` — lint only files touched per ``git status`` (the
  pre-commit fast path), resolved from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import all_rules, lint_paths

__all__ = ["build_parser", "changed_python_files", "main"]

_DEFAULT_PATHS = ["src/repro"]
_BENCH_BUDGET_SECONDS = 5.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Domain-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run these rule codes (repeatable, e.g. --select R1)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="skip these rule codes (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print findings for CODE with their witness call paths",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed per git (staged, unstaged, untracked)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--bench-json",
        metavar="PATH",
        default=None,
        help="write a results artifact (files, rules, diagnostics and "
        "whether the run stayed within its time budget)",
    )
    return parser


def _git(args: Sequence[str], cwd: Optional[str]) -> str:
    proc = subprocess.run(
        ["git", *args], capture_output=True, cwd=cwd, check=False
    )
    if proc.returncode != 0:
        detail = os.fsdecode(proc.stderr).strip() or "not a git checkout"
        raise FileNotFoundError(f"git {args[0]} failed: {detail}")
    return os.fsdecode(proc.stdout)


def changed_python_files(
    roots: Sequence[str], repo_dir: Optional[str] = None
) -> List[str]:
    """Python files under ``roots`` that git reports as touched.

    Covers staged, unstaged and untracked files (``git status
    --porcelain -z``).  Git reports those paths relative to the
    repository root, so they are joined onto ``git rev-parse
    --show-toplevel``, never onto the current directory.  Returns
    absolute paths; raises ``FileNotFoundError`` outside a git checkout.
    """
    toplevel = Path(_git(["rev-parse", "--show-toplevel"], repo_dir).strip())
    status = _git(
        ["status", "--porcelain", "-z", "--untracked-files=all"], repo_dir
    )
    root_paths = [Path(r).resolve() for r in roots]
    found: List[str] = []
    fields = iter(status.split("\0"))
    for entry in fields:
        if len(entry) < 4:
            continue
        if "R" in entry[:2] or "C" in entry[:2]:
            next(fields, None)  # a rename's source path: lint the new side
        path = toplevel / entry[3:]
        if path.suffix != ".py" or not path.is_file():
            continue  # not python, or deleted
        resolved = path.resolve()
        for root in root_paths:
            if root == resolved or root in resolved.parents:
                found.append(str(resolved))
                break
    return sorted(set(found))


def _print_explained(code: str, diagnostics: Sequence[Diagnostic]) -> None:
    matching = [d for d in diagnostics if d.code.upper() == code.upper()]
    if not matching:
        print(f"no {code.upper()} findings")
        return
    for diag in matching:
        print(diag.format())
        if diag.witness:
            print("  witness call path:")
            for step in diag.witness:
                print(f"    {step}")
        else:
            print("  (lexical finding — no call path)")
        print()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_obj in all_rules():
            print(f"{rule_obj.code}[{rule_obj.name}] ({rule_obj.scope}) "
                  f"{rule_obj.doc}")
        return 0
    paths: List[str] = list(args.paths) if args.paths else _DEFAULT_PATHS
    select = list(args.select) if args.select else None
    if args.explain:
        if select is None:
            select = [args.explain]
        elif args.explain.upper() not in {c.upper() for c in select}:
            print(
                f"error: --explain {args.explain.upper()} names a code "
                "that --select excludes",
                file=sys.stderr,
            )
            return 2
    if args.changed:
        try:
            paths = changed_python_files(paths)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print("no changed python files")
            return 0
    start = time.perf_counter()
    try:
        diagnostics = lint_paths(paths, select=select, ignore=args.ignore)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    if args.explain:
        _print_explained(args.explain, diagnostics)
    elif args.format == "json":
        print(json.dumps([d.to_json() for d in diagnostics], indent=2))
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(diagnostics, all_rules()), indent=2))
    else:
        for diag in diagnostics:
            print(diag.format())
        if diagnostics:
            print(f"{len(diagnostics)} diagnostic(s) found")
    if args.bench_json:
        from repro.lint.framework import collect_files

        artifact = {
            "tool": "repro.lint",
            "paths": paths,
            "files": len(collect_files(paths)),
            "rules": len(all_rules()),
            "diagnostics": len(diagnostics),
            "budget_seconds": _BENCH_BUDGET_SECONDS,
            "within_budget": elapsed < _BENCH_BUDGET_SECONDS,
        }
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
