"""Flow-analysis driver: summary extraction and the per-run graph memo.

:func:`analyze_linted` is called by each of the R9–R13 rules inside an
ordinary ``lint_paths`` run.  The files are already parsed; it extracts
one :class:`ModuleSummary` per file and links them into a
:class:`ProjectGraph`.  The graph is memoized one-deep under a content
fingerprint of the file set, so the five flow rules share one build.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.flow.graph import ProjectGraph, build_graph
from repro.lint.flow.summary import ModuleSummary, extract_module

__all__ = [
    "SourceFile",
    "analyze_linted",
    "analyze_sources",
    "module_name_for",
]

#: One-deep memo: (fingerprint -> built graph) for the current file set,
#: shared by all five flow rules within a single lint run.
_MEMO: Dict[str, ProjectGraph] = {}


@dataclass
class SourceFile:
    """One parsed file queued for flow analysis."""

    display: str
    module: str
    rel_base: str
    sha: str
    tree: ast.Module


def module_name_for(path: Path) -> Tuple[str, str]:
    """Derive ``(module, rel_base)`` from a file's package layout.

    Climbs ``__init__.py`` parents, so ``src/repro/core/rta.py`` becomes
    ``repro.core.rta`` and fixture packages outside ``src/`` get their
    own root.  ``rel_base`` is the package that level-1 relative imports
    resolve against (the module itself for ``__init__`` files).
    """
    resolved = path.resolve()
    parts: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    current = resolved.parent
    package_parts: List[str] = []
    while (current / "__init__.py").is_file():
        package_parts.append(current.name)
        current = current.parent
    package_parts.reverse()
    module = ".".join(package_parts + parts) or resolved.stem
    if resolved.stem == "__init__":
        rel_base = module
    else:
        rel_base = ".".join(package_parts)
    return module, rel_base or module


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analyze_sources(sources: Sequence[SourceFile]) -> ProjectGraph:
    """Summarize + link a set of sources into a :class:`ProjectGraph`."""
    fingerprint = _sha256(
        "\n".join(
            sorted(
                f"{src.module}|{src.rel_base}|{src.sha}|{src.display}"
                for src in sources
            )
        )
    )
    memoized = _MEMO.get(fingerprint)
    if memoized is not None:
        return memoized
    summaries: List[ModuleSummary] = []
    displays: Dict[str, str] = {}
    for src in sources:
        displays[src.module] = src.display
        summaries.append(extract_module(src.module, src.rel_base, src.tree))
    graph = build_graph(summaries, displays)
    _MEMO.clear()  # one-deep: bound memory across repeated lint calls
    _MEMO[fingerprint] = graph
    return graph


def analyze_linted(files: Sequence[object]) -> ProjectGraph:
    """Build (or reuse) the project graph for a ``lint_paths`` file set.

    ``files`` are :class:`repro.lint.framework.LintedFile` records; the
    parameter is typed loosely to keep the framework -> engine import
    edge one-directional.
    """
    sources: List[SourceFile] = []
    seen_modules: Set[str] = set()
    for lf in files:
        path: Path = lf.path  # type: ignore[attr-defined]
        text: str = lf.source  # type: ignore[attr-defined]
        module, rel_base = module_name_for(path)
        while module in seen_modules:  # duplicate top-level stems
            module += "_"
        seen_modules.add(module)
        sources.append(
            SourceFile(
                display=lf.display_path,  # type: ignore[attr-defined]
                module=module,
                rel_base=rel_base,
                sha=_sha256(text),
                tree=lf.tree,  # type: ignore[attr-defined]
            )
        )
    return analyze_sources(sources)
