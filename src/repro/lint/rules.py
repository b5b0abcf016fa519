"""Domain lint rules R1–R8.

Each rule is registered with :func:`repro.lint.framework.rule` and
returns :class:`~repro.lint.diagnostics.Diagnostic` records.  The rules
encode invariants specific to this reproduction:

* boundary schedulability decisions must flow through the shared float
  tolerance policy (``repro._util.floats``) — a processor filled to
  exactly the parametric bound by MaxSplit is routinely compared at
  machine-epsilon distance from the bound;
* experiment curves must be bit-identical under reseeding, so every
  random stream must derive from an explicit seed or ``SeedSequence``;
* the admission service event loop must never block;
* telemetry counters, ``__all__`` exports and frozen task objects must
  not drift.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import PurePosixPath
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import LintedFile, rule

__all__: List[str] = []  # rules register themselves; nothing to export


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _posix(lf: LintedFile) -> str:
    return PurePosixPath(lf.path.resolve()).as_posix()


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Return ``a.b.c`` for nested Name/Attribute nodes, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _in_package(lf: LintedFile, *segments: str) -> bool:
    """True when the file lives under ``repro/<segment>/`` for any segment."""
    path = _posix(lf)
    return any(f"/{seg}/" in path for seg in segments)


# --------------------------------------------------------------------------
# R1 — raw float comparisons on schedulability quantities
# --------------------------------------------------------------------------

# Identifier substrings that mark a value as a utilization / response-time
# style quantity (continuous, boundary-sensitive).
_R1_SUBSTRINGS = ("util", "u_norm", "response", "wcrt")
# Exact identifier names with the same meaning but too short/generic for a
# substring match.
_R1_EXACT = {"u", "lam", "lam_n", "bound", "theta", "deadline", "deadlines"}
# Presence of any of these anywhere in the comparison expression means a
# tolerance is already being applied.
_R1_TOLERANCE_MARKERS = (
    "eps",
    "epsilon",
    "tol",
    "tolerance",
    "grace",
    "is_close",
    "approx",
    "isclose",
    "allclose",
    "nextafter",
)


def _mentions_domain_quantity(node: ast.AST) -> bool:
    for name in _names_in(node):
        lowered = name.lower()
        if lowered in _R1_EXACT:
            return True
        if any(sub in lowered for sub in _R1_SUBSTRINGS):
            return True
    return False


def _has_tolerance(node: ast.AST) -> bool:
    for name in _names_in(node):
        lowered = name.lower()
        if any(marker in lowered for marker in _R1_TOLERANCE_MARKERS):
            return True
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            if 0.0 < abs(child.value) <= 1e-3:
                return True
    return False


def _is_trivial_operand(node: ast.AST) -> bool:
    """Compare against 0/None/str/bool/int literals is not a boundary check."""
    if isinstance(node, ast.Constant):
        return (
            node.value is None
            or isinstance(node.value, (str, bool, int))
            or node.value == 0
        )
    return False


@rule("R1", "float-compare")
def _check_float_compare(lf: LintedFile) -> Iterable[Diagnostic]:
    """Raw ``==``/``<=``/``>=`` on utilization or response-time expressions."""
    if _posix(lf).endswith("_util/floats.py"):
        return
    for node in ast.walk(lf.tree):
        if not isinstance(node, ast.Compare):
            continue
        flagged_ops = {ast.Eq, ast.LtE, ast.GtE}
        if not any(type(op) in flagged_ops for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_trivial_operand(op) for op in operands):
            continue
        if not _mentions_domain_quantity(node):
            continue
        if _has_tolerance(node):
            continue
        op_txt = {ast.Eq: "==", ast.LtE: "<=", ast.GtE: ">="}
        shown = next(
            op_txt[type(op)] for op in node.ops if type(op) in flagged_ops
        )
        yield lf.diagnostic(
            node,
            "R1",
            "float-compare",
            f"raw float '{shown}' on a utilization/response-time expression; "
            "use repro._util.floats (is_close/approx_le/approx_ge) so boundary "
            "cases at the parametric bound stay stable",
        )


# --------------------------------------------------------------------------
# R2 — unseeded / ad-hoc randomness
# --------------------------------------------------------------------------

_NP_RANDOM_SAFE = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "PCG64",
    "Philox",
    "BitGenerator",
}
_STDLIB_RANDOM_NAMES = {
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "seed",
    "betavariate",
    "triangular",
}


def _numeric_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _is_adhoc_seed_arith(node: ast.AST) -> bool:
    """``seed + 7 * i``-style arithmetic: a BinOp mixing names and literals."""
    if not isinstance(node, ast.BinOp):
        return False
    has_name = any(isinstance(n, ast.Name) for n in ast.walk(node))
    has_literal = any(_numeric_literal(n) for n in ast.walk(node))
    return has_name and has_literal


def _stdlib_random_imports(tree: ast.Module) -> Tuple[bool, Set[str]]:
    """Return (module ``random`` imported, names imported from it)."""
    module_imported = False
    from_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    module_imported = True
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                from_names.add(alias.asname or alias.name)
    return module_imported, from_names


@rule("R2", "unseeded-rng")
def _check_unseeded_rng(lf: LintedFile) -> Iterable[Diagnostic]:
    """Randomness not derived from an explicit seed or Generator."""
    module_random, from_random = _stdlib_random_imports(lf.tree)
    for node in ast.walk(lf.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        # numpy global-state API: np.random.<dist>(...)
        if len(parts) >= 3 and parts[-2] == "random" and parts[0] in (
            "np",
            "numpy",
            "_np",
        ):
            leaf = parts[-1]
            if leaf == "default_rng":
                yield from _check_default_rng(lf, node)
            elif leaf not in _NP_RANDOM_SAFE:
                yield lf.diagnostic(
                    node,
                    "R2",
                    "unseeded-rng",
                    f"'{dotted}' uses numpy's global RNG; draw from an "
                    "explicitly seeded Generator (np.random.default_rng(seed) "
                    "or runner.pool.cell_rng)",
                )
        elif parts[-1] == "default_rng":
            yield from _check_default_rng(lf, node)
        # stdlib random module
        elif len(parts) == 2 and parts[0] == "random" and module_random:
            if parts[1] in _STDLIB_RANDOM_NAMES:
                yield lf.diagnostic(
                    node,
                    "R2",
                    "unseeded-rng",
                    f"'{dotted}' uses the process-global stdlib RNG; use a "
                    "seeded numpy Generator instead",
                )
        elif len(parts) == 1 and parts[0] in from_random:
            yield lf.diagnostic(
                node,
                "R2",
                "unseeded-rng",
                f"'{parts[0]}' (from random import ...) uses the process-"
                "global stdlib RNG; use a seeded numpy Generator instead",
            )


def _check_default_rng(lf: LintedFile, node: ast.Call) -> Iterator[Diagnostic]:
    if not node.args and not node.keywords:
        yield lf.diagnostic(
            node,
            "R2",
            "unseeded-rng",
            "default_rng() without a seed gives an OS-entropy stream; pass "
            "the caller's seed or a SeedSequence so runs are reproducible",
        )
        return
    arg = node.args[0] if node.args else node.keywords[0].value
    if _numeric_literal(arg):
        yield lf.diagnostic(
            node,
            "R2",
            "unseeded-rng",
            f"default_rng({arg.value!r}) hides a constant seed inside library "
            "code; accept the seed as a parameter so callers control the "
            "stream",
        )
        return
    if _is_adhoc_seed_arith(arg):
        yield lf.diagnostic(
            node,
            "R2",
            "unseeded-rng",
            "ad-hoc seed arithmetic ('seed + k * i') correlates streams; "
            "spawn child streams via SeedSequence keys "
            "(repro.runner.pool.cell_rng(seed, *key))",
        )


# --------------------------------------------------------------------------
# R3 — blocking calls inside async def (service code)
# --------------------------------------------------------------------------

_BLOCKING_DOTTED = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "os.system",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}
_BLOCKING_BARE = {"open", "input"}


def _async_body_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Calls lexically inside the async def, skipping nested sync defs.

    Nested synchronous functions are typically shipped to an executor
    (``loop.run_in_executor``) where blocking is fine.
    """

    def visit(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            # Nested sync defs usually run in an executor; nested async
            # defs are walked as their own AsyncFunctionDef by the rule.
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from visit(child)

    for stmt in func.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from visit(stmt)


@rule("R3", "blocking-in-async")
def _check_blocking_in_async(lf: LintedFile) -> Iterable[Diagnostic]:
    """Blocking IO inside ``async def`` in repro/service/ and
    repro/cluster/ (the cluster coordinator's async handlers share the
    event loop with the admission service)."""
    if not _in_package(lf, "service", "cluster"):
        return
    for node in ast.walk(lf.tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        for call in _async_body_calls(node):
            dotted = _dotted_name(call.func)
            if dotted in _BLOCKING_DOTTED:
                yield lf.diagnostic(
                    call,
                    "R3",
                    "blocking-in-async",
                    f"blocking call '{dotted}' inside async def "
                    f"'{node.name}' stalls the event loop; await an async "
                    "equivalent or run it in an executor",
                )
            elif dotted in _BLOCKING_BARE:
                yield lf.diagnostic(
                    call,
                    "R3",
                    "blocking-in-async",
                    f"blocking builtin '{dotted}()' inside async def "
                    f"'{node.name}'; move the IO to an executor",
                )


# --------------------------------------------------------------------------
# R4 — telemetry counter drift (project scope)
# --------------------------------------------------------------------------

def _declared_counters(tree: ast.Module) -> Tuple[Set[str], int]:
    """Parse ``_FIELDS = (...)`` from telemetry.py; returns (names, lineno)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_FIELDS" for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            names = {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
            return names, node.lineno
    return set(), 1


def _telemetry_tree() -> Optional[ast.Module]:
    spec = importlib.util.find_spec("repro.perf.telemetry")
    if spec is None or spec.origin is None:
        return None
    with open(spec.origin, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=spec.origin)


def _counter_touches(lf: LintedFile) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (counter_name, node) for COUNTERS.<name> increments/assigns."""
    for node in ast.walk(lf.tree):
        target: Optional[ast.AST] = None
        if isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "COUNTERS"
        ):
            yield target.attr, node


@rule("R4", "counter-drift", scope="project")
def _check_counter_drift(files: Sequence[LintedFile]) -> Iterable[Diagnostic]:
    """COUNTERS increments vs PerfCounters._FIELDS declarations drift."""
    telemetry_file = next(
        (lf for lf in files if _posix(lf).endswith("perf/telemetry.py")), None
    )
    if telemetry_file is not None:
        declared, fields_line = _declared_counters(telemetry_file.tree)
    else:
        tree = _telemetry_tree()
        if tree is None:  # pragma: no cover - repro always importable here
            return
        declared, fields_line = _declared_counters(tree)
    used: Set[str] = set()
    for lf in files:
        for name, node in _counter_touches(lf):
            used.add(name)
            if name not in declared:
                yield lf.diagnostic(
                    node,
                    "R4",
                    "counter-drift",
                    f"counter 'COUNTERS.{name}' is not declared in "
                    "PerfCounters._FIELDS (repro/perf/telemetry.py); add it "
                    "there or fix the name",
                )
    # Dead counters are only decidable when the whole package was linted
    # (telemetry.py in the file set) — otherwise everything looks unused.
    if telemetry_file is not None:
        for name in sorted(declared - used):
            yield Diagnostic(
                path=telemetry_file.display_path,
                line=fields_line,
                col=1,
                code="R4",
                name="counter-drift",
                message=(
                    f"counter '{name}' is declared in PerfCounters._FIELDS "
                    "but never incremented anywhere in the linted tree "
                    "(dead counter)"
                ),
            )


# --------------------------------------------------------------------------
# R5 — mutation of frozen task dataclasses
# --------------------------------------------------------------------------

_R5_ALLOWED_SCOPES = {"__post_init__", "__setstate__"}


def _enclosing_funcs(tree: ast.Module) -> Iterator[Tuple[ast.AST, Set[str]]]:
    """Yield (node, enclosing function names) for every node in the tree."""
    stack: List[Tuple[ast.AST, Tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        yield node, set(scopes)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, scopes + (child.name,)))
            else:
                stack.append((child, scopes))


@rule("R5", "frozen-mutation")
def _check_frozen_mutation(lf: LintedFile) -> Iterable[Diagnostic]:
    """``object.__setattr__`` sidesteps frozen core.task dataclasses."""
    for node, scopes in _enclosing_funcs(lf.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted != "object.__setattr__":
            continue
        if scopes & _R5_ALLOWED_SCOPES:
            continue
        yield lf.diagnostic(
            node,
            "R5",
            "frozen-mutation",
            "object.__setattr__ mutates a frozen dataclass in place; build a "
            "new Task/Subtask (dataclasses.replace) instead — downstream "
            "analyses cache by identity",
        )


# --------------------------------------------------------------------------
# R6 — swallowed exceptions in service/, runner/, obs/ and cluster/
# --------------------------------------------------------------------------

_BROAD_TYPES = {"Exception", "BaseException"}
_LOGGING_HINTS = ("log", "warn", "print", "exception", "error", "debug")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        name = _dotted_name(t)
        if name is not None and name.split(".")[-1] in _BROAD_TYPES:
            return True
    return False


def _handler_observes_exception(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if (
            handler.name
            and isinstance(node, ast.Name)
            and node.id == handler.name
        ):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            if any(hint in dotted.lower() for hint in _LOGGING_HINTS):
                return True
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            value = node.target.value
            if isinstance(value, ast.Name) and value.id == "COUNTERS":
                return True  # failure is at least counted in telemetry
    return False


@rule("R6", "swallowed-exception")
def _check_swallowed_exception(lf: LintedFile) -> Iterable[Diagnostic]:
    """Bare/overbroad except that neither re-raises, logs, nor counts."""
    if not _in_package(lf, "service", "runner", "obs", "cluster"):
        return
    for node in ast.walk(lf.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node):
            continue
        if _handler_observes_exception(node):
            continue
        shown = "bare except" if node.type is None else "except Exception"
        yield lf.diagnostic(
            node,
            "R6",
            "swallowed-exception",
            f"{shown} swallows the error silently; re-raise, log, narrow the "
            "type, or bump a telemetry counter",
        )


# --------------------------------------------------------------------------
# R7 — public API drift (__all__ vs module-level definitions)
# --------------------------------------------------------------------------

def _module_all(tree: ast.Module) -> Optional[Tuple[Set[str], ast.AST]]:
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            names = {
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
            return names, node
    return None


def _module_level_names(tree: ast.Module) -> Set[str]:
    defined: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        defined.add(t.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                defined.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                defined.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # one level of conditional defs (TYPE_CHECKING / ImportError)
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        defined.add(alias.asname or alias.name.split(".")[0])
    return defined


def _public_defs(tree: ast.Module) -> Iterator[ast.AST]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


@rule("R7", "api-drift")
def _check_api_drift(lf: LintedFile) -> Iterable[Diagnostic]:
    """__all__ names that don't exist; public defs missing from __all__."""
    result = _module_all(lf.tree)
    if result is None:
        return
    exported, all_node = result
    defined = _module_level_names(lf.tree)
    for name in sorted(exported - defined):
        yield lf.diagnostic(
            all_node,
            "R7",
            "api-drift",
            f"'{name}' is exported in __all__ but not defined at module "
            "level (stale export)",
        )
    for node in _public_defs(lf.tree):
        name = node.name  # type: ignore[attr-defined]
        if name not in exported:
            yield lf.diagnostic(
                node,
                "R7",
                "api-drift",
                f"public '{name}' is defined here but missing from __all__; "
                "export it or prefix with '_'",
            )


# --------------------------------------------------------------------------
# R8 — print() in library code
# --------------------------------------------------------------------------

# CLI-facing surfaces where print is the point.
_R8_EXEMPT_SUFFIXES = (
    "repro/cli.py",
    "__main__.py",
    "service/loadgen.py",
    "lint/cli.py",
    "store/cli.py",
    "store/bench_store.py",
    "search/cli.py",
    "search/bench_search.py",
    "perf/bench_check.py",
    "cluster/bench_churn.py",
)


@rule("R8", "print-in-library")
def _check_print_in_library(lf: LintedFile) -> Iterable[Diagnostic]:
    """print() in library modules (anything but the CLI surfaces)."""
    path = _posix(lf)
    if any(path.endswith(suffix) for suffix in _R8_EXEMPT_SUFFIXES):
        return
    for node in ast.walk(lf.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield lf.diagnostic(
                node,
                "R8",
                "print-in-library",
                "print() in library code; return the data, raise, or count "
                "it in telemetry — only CLI entry points may print",
            )
