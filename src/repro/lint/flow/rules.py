"""Interprocedural flow rules R9–R13.

Each rule is a pure function of the :class:`ProjectGraph`; thin wrappers
register them as project-scope rules with the ordinary lint framework so
``python -m repro lint`` runs R1–R13 in one pass.  ``FLOW_CHECKS``
maps each code to its graph check.

Every diagnostic carries a *witness*: the shortest call-edge chain that
exhibits the property, rendered by ``--explain CODE`` and exported as
SARIF ``codeFlows``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import LintedFile, rule
from repro.lint.flow.engine import analyze_linted
from repro.lint.flow.graph import Edge, ProjectGraph
from repro.lint.flow.summary import FactSite

__all__ = [
    "FLOW_CHECKS",
    "check_r9",
    "check_r10",
    "check_r11",
    "check_r12",
    "check_r13",
]

#: Edge kinds a value/taint can travel along (everything).
_TAINT_KINDS = ("call", "registry", "ref", "executor", "fork")
#: Edge kinds that keep execution on the *calling thread* — what the
#: async-blocking rule follows (executor/fork hops leave the loop; plain
#: refs are callbacks whose run context is the callee's business).
_SYNC_KINDS = ("call", "registry")
#: Edge kinds execution inside a fork-pool worker can take.
_WORKER_KINDS = ("call", "registry", "ref")

#: Modules whose worker-side mutations are the sanctioned delta-merge
#: protocol (counter deltas returned to the parent).
_R11_SANCTIONED_MODULES = (
    "repro.runner.pool",
    "repro.perf.telemetry",
    "repro.perf.config",
)
_R11_SANCTIONED_ROOTS = {"COUNTERS"}


def _in_pkg(display: str, *segments: str) -> bool:
    path = "/" + display.replace("\\", "/")
    return any(f"/{seg}/" in path for seg in segments)


def _short(graph: ProjectGraph, fqn: str) -> str:
    module = graph.fn_module.get(fqn, "")
    if module and fqn.startswith(module + "."):
        return fqn[len(module) + 1 :]
    return fqn


def _step(graph: ProjectGraph, fqn: str, line: int, label: str) -> str:
    return f"{graph.display_of(fqn)}:{line}  {label}"


def _witness_lines(
    graph: ProjectGraph, chain: Sequence[Edge], tail: Optional[str] = None
) -> Tuple[str, ...]:
    """Render an edge chain as ``path:line  src -> dst [kind]`` steps."""
    steps: List[str] = []
    if chain:
        root = chain[0].src
        steps.append(
            _step(graph, root, graph.functions[root].line, f"{_short(graph, root)}")
        )
    for edge in chain:
        marker = "" if edge.kind == "call" else f" [{edge.kind}]"
        steps.append(
            _step(
                graph,
                edge.src,
                edge.line,
                f"-> {_short(graph, edge.dst)}{marker}",
            )
        )
    if tail is not None:
        steps.append(tail)
    return tuple(steps)


# --------------------------------------------------------------------------
# R9 — transitive blocking reachable from async defs without executor hop
# --------------------------------------------------------------------------

def check_r9(graph: ProjectGraph) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    roots = [
        fqn
        for fqn, fs in graph.functions.items()
        if fs.is_async and _in_pkg(graph.display_of(fqn), "service", "cluster")
    ]
    for root in sorted(roots):
        parents = graph.reach([root], kinds=_SYNC_KINDS)
        for target in sorted(parents):
            if target == root:
                continue  # the lexical case is R3's
            blocking = graph.functions[target].blocking
            if not blocking:
                continue
            site = blocking[0]
            chain = graph.witness(parents, target)
            anchor = chain[0]
            witness = _witness_lines(
                graph,
                chain,
                _step(graph, target, site.line, f"blocks: {site.desc}"),
            )
            diagnostics.append(
                Diagnostic(
                    path=graph.display_of(root),
                    line=anchor.line,
                    col=1,
                    code="R9",
                    name="transitive-blocking",
                    message=(
                        f"async '{_short(graph, root)}' transitively reaches "
                        f"blocking '{site.desc}' in '{_short(graph, target)}' "
                        f"({len(chain)} call edge(s)) with no executor hop; "
                        "move the chain behind run_in_executor/to_thread or "
                        "use a non-blocking variant"
                    ),
                    witness=witness,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# R10 — unseeded entropy flowing into journaled / benchmarked artifacts
# --------------------------------------------------------------------------

def check_r10(graph: ProjectGraph) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for writer in sorted(graph.functions):
        sinks = graph.functions[writer].sinks
        if not sinks:
            continue
        parents = graph.reach([writer], kinds=_TAINT_KINDS)
        for target in sorted(parents):
            rng_sites = graph.functions[target].rng
            if not rng_sites:
                continue
            rng = rng_sites[0]
            sink = sinks[0]
            chain = graph.witness(parents, target)
            witness = _witness_lines(
                graph,
                chain,
                _step(graph, target, rng.line, f"entropy: {rng.desc}"),
            ) + (_step(graph, writer, sink.line, f"sink: {sink.desc}"),)
            diagnostics.append(
                Diagnostic(
                    path=graph.display_of(writer),
                    line=sink.line,
                    col=1,
                    code="R10",
                    name="seed-flow",
                    message=(
                        f"'{_short(graph, writer)}' writes a durable artifact "
                        f"({sink.desc}) while its call tree draws "
                        f"non-deterministic entropy ('{rng.desc}' in "
                        f"'{_short(graph, target)}'); derive every stream from "
                        "cell_rng/SeedSequence so journaled results stay "
                        "byte-identical"
                    ),
                    witness=witness,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# R11 — fork-worker code mutating module globals outside the delta protocol
# --------------------------------------------------------------------------

def _r11_sanctioned(graph: ProjectGraph, fn_module: str, root_name: str) -> bool:
    if root_name in _R11_SANCTIONED_ROOTS:
        return True
    summary = graph.modules.get(fn_module)
    origin = fn_module
    if summary is not None and graph.resolver is not None:
        imported_from = graph.resolver.import_origin_module(summary, root_name)
        if imported_from:
            origin = imported_from
    return any(
        origin == mod.rstrip(".") or origin.startswith(mod)
        for mod in _R11_SANCTIONED_MODULES
    )


def check_r11(graph: ProjectGraph) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    roots = graph.fork_roots()
    if not roots:
        return diagnostics
    parents = graph.reach(roots, kinds=_WORKER_KINDS)
    seen: Set[Tuple[str, int]] = set()
    for target in sorted(parents):
        fs = graph.functions[target]
        fn_module = graph.fn_module[target]
        for mutation in fs.mutations:
            if _r11_sanctioned(graph, fn_module, mutation.extra):
                continue
            key = (graph.display_of(target), mutation.line)
            if key in seen:
                continue
            seen.add(key)
            chain = graph.witness(parents, target)
            witness = _witness_lines(
                graph,
                chain,
                _step(
                    graph,
                    target,
                    mutation.line,
                    f"mutates global '{mutation.extra}' ({mutation.desc})",
                ),
            )
            diagnostics.append(
                Diagnostic(
                    path=graph.display_of(target),
                    line=mutation.line,
                    col=1,
                    code="R11",
                    name="fork-unsafe-state",
                    message=(
                        f"'{_short(graph, target)}' is reachable from fork-pool "
                        f"worker '{_short(graph, chain[0].src if chain else target)}' "
                        f"and mutates module-global '{mutation.extra}' "
                        f"({mutation.desc}); child-process mutations never reach "
                        "the parent — return deltas and merge them like the "
                        "counter/histogram protocol"
                    ),
                    witness=witness,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# R12 — handlers that can transitively swallow InvariantViolation
# --------------------------------------------------------------------------

_R12_RAISERS = {"InvariantViolation", "AssertionError"}


def check_r12(graph: ProjectGraph) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    base = [
        fqn
        for fqn, fs in graph.functions.items()
        if set(fs.raises) & _R12_RAISERS
    ]
    if not base:
        return diagnostics
    base_set = set(base)
    can_raise = graph.reverse_reach(base, kinds=_TAINT_KINDS)
    resolver = graph.resolver
    for fqn in sorted(graph.functions):
        fs = graph.functions[fqn]
        if not fs.handlers:
            continue
        module = graph.modules[graph.fn_module[fqn]]
        for handler in fs.handlers:
            swallow_assert = handler.assertion and not handler.reraises
            swallow_broad = handler.broad and not handler.observes
            if not (swallow_assert or swallow_broad):
                continue
            hit: Optional[str] = None
            hit_callee = ""
            for callee in handler.try_callees:
                targets: List[str] = []
                if callee.endswith("[]"):
                    if resolver is not None:
                        reg_id = resolver.registry_id(module, callee[:-2])
                        targets = [
                            t for _k, t, _l, _m in graph.registries.get(reg_id, [])
                        ]
                elif resolver is not None:
                    targets = resolver.resolve_call(module, fs, callee)
                for target in targets:
                    if target in can_raise:
                        hit, hit_callee = target, callee
                        break
                if hit is not None:
                    break
            if hit is None:
                continue
            parents = graph.reach([hit], kinds=_TAINT_KINDS)
            raiser = next((t for t in sorted(parents) if t in base_set), hit)
            chain = graph.witness(parents, raiser)
            witness = (
                _step(graph, fqn, handler.line, f"handler in {_short(graph, fqn)}"),
            ) + _witness_lines(
                graph,
                chain,
                _step(
                    graph,
                    raiser,
                    graph.functions[raiser].line,
                    "raises InvariantViolation/AssertionError",
                ),
            )
            kind = (
                "catches AssertionError without re-raising"
                if swallow_assert
                else "broad except without observing the error"
            )
            diagnostics.append(
                Diagnostic(
                    path=graph.display_of(fqn),
                    line=handler.line,
                    col=1,
                    code="R12",
                    name="swallowed-invariant",
                    message=(
                        f"{kind}, but the try body (via '{hit_callee}') can "
                        f"raise the sanitizer's InvariantViolation from "
                        f"'{_short(graph, raiser)}'; let it propagate — a "
                        "swallowed invariant turns a detected bug into silent "
                        "corruption"
                    ),
                    witness=witness,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# R13 — registration / dispatch drift
# --------------------------------------------------------------------------

def check_r13(graph: ProjectGraph) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    resolver = graph.resolver
    for module_name in sorted(graph.modules):
        module = graph.modules[module_name]
        display = graph.displays.get(module_name, module_name)
        # (a) literal dispatch keys that no registration site defines
        for dispatch in module.dispatches:
            if resolver is None:
                break
            reg_id = resolver.registry_id(module, dispatch.registry)
            registered = graph.registries.get(reg_id)
            if not registered:
                continue  # data table or dynamically-built mapping
            keys = sorted({key for key, _t, _l, _m in registered})
            if dispatch.key in keys:
                continue
            witness = tuple(
                f"{graph.displays.get(mod, mod)}:{line}  "
                f"registers key '{key}'"
                for key, _target, line, mod in registered
            )
            diagnostics.append(
                Diagnostic(
                    path=display,
                    line=dispatch.line,
                    col=1,
                    code="R13",
                    name="registry-drift",
                    message=(
                        f"dispatch key '{dispatch.key}' is not registered in "
                        f"{dispatch.registry} (known keys: {', '.join(keys)})"
                    ),
                    witness=witness,
                )
            )
        # (b) argv[0] early dispatch vs argparse subcommand registration
        if module.argv_literals and module.subcommands:
            names = {name for name, _line in module.subcommands}
            for literal, line in module.argv_literals:
                if literal in names:
                    continue
                witness = tuple(
                    f"{display}:{sub_line}  add_parser('{name}')"
                    for name, sub_line in module.subcommands
                )
                diagnostics.append(
                    Diagnostic(
                        path=display,
                        line=line,
                        col=1,
                        code="R13",
                        name="registry-drift",
                        message=(
                            f"argv[0] dispatch literal '{literal}' has no "
                            "matching add_parser() subcommand in this module; "
                            "early dispatch and the parser catalog disagree"
                        ),
                        witness=witness,
                    )
                )
        # (c) HTTP route dispatch vs known-paths fallback tuple
        if module.routes_eq and module.routes_member:
            eq = {path for path, _line in module.routes_eq}
            member = {path for path, _line in module.routes_member}
            eq_lines = dict(module.routes_eq)
            member_line = module.routes_member[0][1]
            for path in sorted(eq - member):
                diagnostics.append(
                    Diagnostic(
                        path=display,
                        line=eq_lines[path],
                        col=1,
                        code="R13",
                        name="registry-drift",
                        message=(
                            f"route '{path}' is dispatched here but missing "
                            "from the known-paths fallback tuple (wrong-method "
                            "requests would 404 instead of 405)"
                        ),
                        witness=(
                            f"{display}:{member_line}  known-paths tuple",
                        ),
                    )
                )
            for path in sorted(member - eq):
                diagnostics.append(
                    Diagnostic(
                        path=display,
                        line=member_line,
                        col=1,
                        code="R13",
                        name="registry-drift",
                        message=(
                            f"route '{path}' is listed in the known-paths "
                            "fallback tuple but never dispatched (dead route "
                            "or missing handler)"
                        ),
                        witness=tuple(
                            f"{display}:{line}  dispatches '{p}'"
                            for p, line in module.routes_eq
                        ),
                    )
                )
    return diagnostics


FLOW_CHECKS: Dict[str, Callable[[ProjectGraph], List[Diagnostic]]] = {
    "R9": check_r9,
    "R10": check_r10,
    "R11": check_r11,
    "R12": check_r12,
    "R13": check_r13,
}


def _run(files: Sequence[LintedFile], code: str) -> Iterable[Diagnostic]:
    graph = analyze_linted(files)
    return FLOW_CHECKS[code](graph)


@rule("R9", "transitive-blocking", scope="project")
def _check_r9(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """Blocking ops transitively reachable from service/cluster async defs."""
    return _run(files, "R9")


@rule("R10", "seed-flow", scope="project")
def _check_r10(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """Non-deterministic entropy flowing into journaled/bench artifacts."""
    return _run(files, "R10")


@rule("R11", "fork-unsafe-state", scope="project")
def _check_r11(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """Worker-reachable mutation of module globals outside delta merge."""
    return _run(files, "R11")


@rule("R12", "swallowed-invariant", scope="project")
def _check_r12(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """Handlers that can transitively swallow InvariantViolation."""
    return _run(files, "R12")


@rule("R13", "registry-drift", scope="project")
def _check_r13(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """Registration and dispatch sites that disagree (registries/CLI/routes)."""
    return _run(files, "R13")
