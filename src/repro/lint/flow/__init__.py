"""Whole-program flow analysis for ``repro.lint``.

The flow engine layers three stages under the ordinary rule registry:

1. :mod:`repro.lint.flow.summary` — a per-file *flow summary* (functions,
   call sites, blocking/RNG/sink/mutation sites, handlers, registries),
   a pure function of file content;
2. :mod:`repro.lint.flow.graph` — a project-wide symbol table and call
   graph built from the summaries (alias/re-export resolution, typed
   receivers, registry fan-out, ``python -m`` entry points, fork-pool
   worker roots);
3. :mod:`repro.lint.flow.rules` — interprocedural rules R9–R13 that run
   reachability/taint queries over the graph and attach witness call
   paths to their diagnostics (rendered by ``--explain CODE`` and as
   SARIF ``codeFlows``).

The rules run inside an ordinary ``lint_paths`` run; one graph build
per file set is shared by all five (:func:`analyze_linted`).
"""

from repro.lint.flow.engine import analyze_linted
from repro.lint.flow.graph import Edge, ProjectGraph
from repro.lint.flow.summary import FunctionSummary, ModuleSummary, extract_module

__all__ = [
    "Edge",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "analyze_linted",
    "extract_module",
]
