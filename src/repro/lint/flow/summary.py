"""Per-file flow summaries — the unit of whole-program analysis.

A :class:`ModuleSummary` is a pure function of ``(module name, relative
import base, source text)``: it contains no absolute paths and no
filesystem state.  Everything the call graph and the interprocedural
rules need is extracted here in one AST pass per file:

* functions (including ``async``), methods, nested defs and synthetic
  lambda scopes, each with their call sites;
* call-site classification: plain call, executor hop
  (``run_in_executor``/``to_thread``), fork spawn (``chunked_map`` /
  ``ProcessPoolExecutor.submit``), registry dispatch
  (``PARTITIONERS[key](...)``, ``args.func(args)``) and function
  references passed as arguments;
* lexical fact sites: blocking operations, non-deterministic RNG draws,
  artifact/store sinks, module-global mutations, except handlers and
  raise/assert statements;
* module facts: imports (stored unresolved so relative imports stay
  content-pure), class attribute types, ALL-CAPS callable registries,
  literal registry dispatches, argparse subcommands, ``argv[0]``
  dispatch literals and HTTP route literals.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import (  # single source of truth with lexical R3/R6
    _BLOCKING_BARE,
    _BLOCKING_DOTTED,
    _dotted_name,
    _handler_observes_exception,
    _is_broad_handler,
)

__all__ = [
    "CallSite",
    "FactSite",
    "FunctionSummary",
    "HandlerSite",
    "ClassInfo",
    "Registration",
    "Dispatch",
    "ModuleSummary",
    "extract_module",
]

MODULE_SCOPE = "<module>"
ARGPARSE_REGISTRY = "<argparse>"

_REGISTRY_NAME_RE = re.compile(r"[A-Z][A-Z0-9_]{2,}")

#: Additional blocking leaf calls beyond the lexical R3 sets: sqlite and
#: pathlib I/O reached through helper layers.
_BLOCKING_EXTRA_DOTTED = {"sqlite3.connect"}
_SQLITE_LEAVES = {"execute", "executemany", "executescript", "commit"}
_PATH_IO_LEAVES = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: Mutating container/handle methods for the fork-safety rule (R11).
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "update",
    "pop",
    "popitem",
    "clear",
    "extend",
    "insert",
    "remove",
    "discard",
    "setdefault",
}

#: Non-deterministic entropy sources for the seed-flow rule (R10).
#: Constant seeds are *deterministic* (R2 complains lexically for other
#: reasons) so only genuinely unseeded draws count as flow sources.
_ENTROPY_DOTTED = {
    "os.urandom",
    "uuid.uuid4",
    "uuid.uuid1",
    "secrets.token_hex",
    "secrets.token_bytes",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
}
_STDLIB_RANDOM_LEAVES = {
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
    "betavariate",
    "triangular",
}
_NP_RANDOM_SAFE = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "PCG64",
    "Philox",
    "BitGenerator",
}

#: Sinks: writes to bench artifacts, store namespaces or journal cells.
_SINK_LEAVES = {"write_bench_json"}
_SINK_STORE_LEAVES = {"put", "put_many"}
_SINK_RECEIVER_HINTS = ("store", "cache", "journal")

_ASSERTION_NAMES = {"AssertionError", "InvariantViolation"}
_HTTP_METHODS = {"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"}


# --------------------------------------------------------------------------
# summary records
# --------------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str  # dotted name as written; registry local name for "registry"
    line: int
    kind: str  # "call" | "executor" | "fork" | "submit" | "registry"
    receiver: str = ""  # dotted receiver for "submit" (fork vs executor)
    refs: Tuple[str, ...] = ()  # function-ish references passed as arguments


@dataclass
class FactSite:
    """A lexical fact anchored to a line: blocking op, RNG draw, sink
    write or module-global mutation (``extra`` holds the global's root
    name for mutations)."""

    desc: str
    line: int
    extra: str = ""


@dataclass
class HandlerSite:
    """One ``except`` handler plus what its ``try`` body calls."""

    line: int
    broad: bool
    assertion: bool  # catches AssertionError / InvariantViolation by name
    observes: bool  # re-raises, logs, uses the bound name or counts
    reraises: bool
    try_callees: Tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    """Flow facts for one function / method / lambda / module body."""

    name: str  # qualified within the module: "Cls.meth", "outer.inner"
    line: int
    is_async: bool = False
    cls: str = ""  # enclosing class name, "" for free functions
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[FactSite] = field(default_factory=list)
    rng: List[FactSite] = field(default_factory=list)
    sinks: List[FactSite] = field(default_factory=list)
    mutations: List[FactSite] = field(default_factory=list)
    handlers: List[HandlerSite] = field(default_factory=list)
    raises: Tuple[str, ...] = ()
    var_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """Per-class facts used for typed receiver resolution."""

    line: int
    bases: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class Registration:
    """``REGISTRY["key"] = target`` / registry dict literal entry /
    ``set_defaults(func=target)``."""

    registry: str  # local dotted name ("PARTITIONERS", "<argparse>")
    key: str
    target: str  # dotted name in module context; may be a synthetic lambda
    line: int


@dataclass
class Dispatch:
    """``REGISTRY["key"]`` / ``REGISTRY.get("key")`` with a literal key."""

    registry: str
    key: str
    line: int


@dataclass
class ModuleSummary:
    """Everything the graph builder needs to know about one module."""

    module: str
    rel_base: str  # base package for level-1 relative imports
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    # local name -> (level, from_module, original_name); absolute when level=0
    imports: Dict[str, Tuple[int, str, str]] = field(default_factory=dict)
    module_globals: Tuple[str, ...] = ()
    global_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    registrations: List[Registration] = field(default_factory=list)
    dispatches: List[Dispatch] = field(default_factory=list)
    routes_eq: List[Tuple[str, int]] = field(default_factory=list)
    routes_member: List[Tuple[str, int]] = field(default_factory=list)
    argv_literals: List[Tuple[str, int]] = field(default_factory=list)
    subcommands: List[Tuple[str, int]] = field(default_factory=list)
    is_entry: bool = False


# --------------------------------------------------------------------------
# extraction helpers
# --------------------------------------------------------------------------

def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of a Name/Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _class_names_in(node: ast.AST) -> Tuple[str, ...]:
    """Dotted names in an expression whose leaf looks like a class."""
    found: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(child)
            if dotted is None:
                continue
            leaf = dotted.split(".")[-1]
            if leaf[:1].isupper() and dotted not in found:
                found.append(dotted)
    return tuple(found)


def _constructor_classes(value: ast.AST) -> Tuple[str, ...]:
    """Class names constructed anywhere in an assignment value."""
    found: List[str] = []
    for child in ast.walk(value):
        if isinstance(child, ast.Call):
            dotted = _dotted_name(child.func)
            if dotted and dotted.split(".")[-1][:1].isupper():
                if dotted not in found:
                    found.append(dotted)
    return tuple(found)


def _stdlib_random_context(
    imports: Dict[str, Tuple[int, str, str]]
) -> Tuple[bool, Set[str]]:
    module_random = any(
        lvl == 0 and frm == "" and orig == "random"
        for lvl, frm, orig in imports.values()
    )
    from_random = {
        local
        for local, (lvl, frm, orig) in imports.items()
        if lvl == 0 and frm == "random" and orig in _STDLIB_RANDOM_LEAVES
    }
    return module_random, from_random


def _lambda_name(scope: str, node: ast.AST) -> str:
    return (
        f"{scope}.<lambda:{getattr(node, 'lineno', 0)}"
        f":{getattr(node, 'col_offset', 0)}>"
    )


class _Extractor:
    """One-pass AST extraction into a :class:`ModuleSummary`."""

    def __init__(self, module: str, rel_base: str, tree: ast.Module) -> None:
        self.tree = tree
        self.out = ModuleSummary(module=module, rel_base=rel_base)
        self._module_random = False
        self._from_random: Set[str] = set()

    # -- pass 1: module facts ---------------------------------------------

    def _collect_imports(self) -> None:
        imports = self.out.imports
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[local] = (0, "", target)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports[local] = (node.level, node.module or "", alias.name)

    def _collect_module_scope(self) -> None:
        globals_found: List[str] = []
        for node in self.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
                continue
            elif isinstance(node, ast.If):
                if self._is_main_guard(node.test):
                    self.out.is_entry = True
                continue
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                globals_found.append(target.id)
                if value is not None:
                    ctors = _constructor_classes(value)
                    if ctors:
                        self.out.global_types[target.id] = ctors
                    if isinstance(value, ast.Dict) and _REGISTRY_NAME_RE.fullmatch(
                        target.id
                    ):
                        self._collect_registry_literal(target.id, value)
                    if isinstance(value, ast.Name):
                        # module-level alias: ALGORITHMS = PARTITIONERS
                        self.out.imports.setdefault(
                            target.id, (0, "", value.id)
                        )
        self.out.module_globals = tuple(globals_found)
        if self.out.module.endswith(".__main__") or self.out.module == "__main__":
            self.out.is_entry = True

    @staticmethod
    def _is_main_guard(test: ast.expr) -> bool:
        if not isinstance(test, ast.Compare):
            return False
        names = [n.id for n in ast.walk(test) if isinstance(n, ast.Name)]
        consts = [
            c.value
            for c in ast.walk(test)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        ]
        return "__name__" in names and "__main__" in consts

    def _collect_registry_literal(self, name: str, value: ast.Dict) -> None:
        entries: List[Tuple[str, str, int]] = []
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return  # not a literal-keyed registry
            if isinstance(val, ast.Lambda):
                entries.append((key.value, _lambda_name(MODULE_SCOPE, val), val.lineno))
            else:
                dotted = _dotted_name(val)
                if dotted is None:
                    return  # values are data, not callables
                entries.append((key.value, dotted, val.lineno))
        for key_str, target, line in entries:
            self.out.registrations.append(Registration(name, key_str, target, line))

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = tuple(
            d for d in (_dotted_name(b) for b in node.bases) if d is not None
        )
        methods: List[str] = []
        attr_types: Dict[str, Tuple[str, ...]] = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
                for sub in ast.walk(item):
                    target_expr: Optional[ast.expr] = None
                    value_expr: Optional[ast.expr] = None
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target_expr, value_expr = sub.targets[0], sub.value
                    elif isinstance(sub, ast.AnnAssign):
                        target_expr, value_expr = sub.target, sub.value
                    if (
                        isinstance(target_expr, ast.Attribute)
                        and isinstance(target_expr.value, ast.Name)
                        and target_expr.value.id == "self"
                    ):
                        types: Tuple[str, ...] = ()
                        if value_expr is not None:
                            types = _constructor_classes(value_expr)
                        if not types and isinstance(sub, ast.AnnAssign):
                            types = _class_names_in(sub.annotation)
                        if types:
                            merged = attr_types.get(target_expr.attr, ()) + types
                            attr_types[target_expr.attr] = tuple(
                                dict.fromkeys(merged)
                            )
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                types = _class_names_in(item.annotation)
                if types:
                    attr_types[item.target.id] = types
        self.out.classes[node.name] = ClassInfo(
            line=node.lineno,
            bases=bases,
            methods=tuple(methods),
            attr_types=attr_types,
        )

    def _collect_dispatch_and_routes(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                self._maybe_dispatch_subscript(node)
            elif isinstance(node, ast.Assign):
                self._maybe_registration_assign(node)
            elif isinstance(node, ast.Call):
                self._maybe_dispatch_get(node)
                self._maybe_subcommand(node)
                self._maybe_set_defaults(node)
            elif isinstance(node, ast.Compare):
                self._maybe_route_or_argv(node)

    def _maybe_dispatch_subscript(self, node: ast.Subscript) -> None:
        base = _dotted_name(node.value)
        if base is None or not _REGISTRY_NAME_RE.fullmatch(base.split(".")[-1]):
            return
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            self.out.dispatches.append(Dispatch(base, key.value, node.lineno))

    def _maybe_dispatch_get(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "get"):
            return
        base = _dotted_name(func.value)
        if base is None or not _REGISTRY_NAME_RE.fullmatch(base.split(".")[-1]):
            return
        if node.args and isinstance(node.args[0], ast.Constant):
            key = node.args[0].value
            if isinstance(key, str):
                self.out.dispatches.append(Dispatch(base, key, node.lineno))

    def _maybe_registration_assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Subscript):
            return
        base = _dotted_name(target.value)
        if base is None or not _REGISTRY_NAME_RE.fullmatch(base.split(".")[-1]):
            return
        key = target.slice
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return
        if isinstance(node.value, ast.Lambda):
            ref = _lambda_name(MODULE_SCOPE, node.value)
        else:
            dotted = _dotted_name(node.value)
            if dotted is None:
                return
            ref = dotted
        self.out.registrations.append(
            Registration(base, key.value, ref, node.lineno)
        )

    def _maybe_subcommand(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_parser"):
            return
        if node.args and isinstance(node.args[0], ast.Constant):
            name = node.args[0].value
            if isinstance(name, str):
                self.out.subcommands.append((name, node.lineno))

    def _maybe_set_defaults(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "set_defaults"):
            return
        for kw in node.keywords:
            if kw.arg == "func":
                if isinstance(kw.value, ast.Lambda):
                    ref = _lambda_name(MODULE_SCOPE, kw.value)
                else:
                    dotted = _dotted_name(kw.value)
                    if dotted is None:
                        continue
                    ref = dotted
                self.out.registrations.append(
                    Registration(ARGPARSE_REGISTRY, "", ref, node.lineno)
                )

    def _maybe_route_or_argv(self, node: ast.Compare) -> None:
        if len(node.ops) != 1 or len(node.comparators) != 1:
            return
        op, right = node.ops[0], node.comparators[0]
        # route == ("GET", "/path")
        if isinstance(op, ast.Eq) and isinstance(right, ast.Tuple):
            consts = [
                c.value
                for c in right.elts
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            if (
                len(consts) == 2
                and consts[0] in _HTTP_METHODS
                and consts[1].startswith("/")
            ):
                self.out.routes_eq.append((consts[1], node.lineno))
                return
        # request.path in ("/a", "/b", ...)
        left_dotted = _dotted_name(node.left) or ""
        if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.List, ast.Set)):
            consts = [
                c.value
                for c in right.elts
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            if consts and left_dotted.split(".")[-1] == "path" and all(
                c.startswith("/") for c in consts
            ):
                for value in consts:
                    self.out.routes_member.append((value, node.lineno))
                return
            if consts and self._is_argv0(node.left):
                for value in consts:
                    self.out.argv_literals.append((value, node.lineno))
                return
        # argv[0] == "lint"
        if isinstance(op, ast.Eq) and self._is_argv0(node.left):
            if isinstance(right, ast.Constant) and isinstance(right.value, str):
                self.out.argv_literals.append((right.value, node.lineno))

    @staticmethod
    def _is_argv0(node: ast.expr) -> bool:
        if not isinstance(node, ast.Subscript):
            return False
        base = _dotted_name(node.value) or ""
        if base.split(".")[-1] != "argv":
            return False
        index = node.slice
        return isinstance(index, ast.Constant) and index.value == 0

    # -- pass 2: function bodies ------------------------------------------

    def _walk_defs(self) -> None:
        module_body = [
            stmt
            for stmt in self.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self._process_function(MODULE_SCOPE, 1, False, "", None, module_body)
        self._walk_container(self.tree.body, scope="", cls="")

    def _walk_container(
        self, body: Sequence[ast.stmt], scope: str, cls: str
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{scope}.{stmt.name}" if scope else stmt.name
                self._process_function(
                    qual,
                    stmt.lineno,
                    isinstance(stmt, ast.AsyncFunctionDef),
                    cls,
                    stmt,
                    stmt.body,
                )
                self._walk_container(stmt.body, scope=qual, cls=cls)
            elif isinstance(stmt, ast.ClassDef):
                inner_scope = f"{scope}.{stmt.name}" if scope else stmt.name
                self._walk_container(stmt.body, scope=inner_scope, cls=stmt.name)
            elif isinstance(
                stmt, (ast.If, ast.Try, ast.With, ast.AsyncWith, ast.For, ast.While)
            ):
                # defs behind TYPE_CHECKING / ImportError / loop guards
                self._walk_container(stmt.body, scope=scope, cls=cls)
                for handler in getattr(stmt, "handlers", []):
                    self._walk_container(handler.body, scope=scope, cls=cls)
                self._walk_container(getattr(stmt, "orelse", []), scope, cls)
                self._walk_container(getattr(stmt, "finalbody", []), scope, cls)

    def _process_function(
        self,
        qual: str,
        line: int,
        is_async: bool,
        cls: str,
        fn_node: Optional[ast.AST],
        body: Sequence[ast.stmt],
    ) -> None:
        fs = FunctionSummary(
            name=qual, line=line, is_async=is_async, cls=cls
        )
        if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._param_types(fn_node, fs)
        raises: List[str] = []
        for stmt in body:
            self._visit(stmt, fs, raises)
        fs.raises = tuple(dict.fromkeys(raises))
        self.out.functions[qual] = fs

    @staticmethod
    def _param_types(
        fn_node: ast.AST, fs: FunctionSummary
    ) -> None:
        args = getattr(fn_node, "args", None)
        if args is None:
            return
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for param in params:
            if param.annotation is not None:
                types = _class_names_in(param.annotation)
                if types:
                    fs.var_types[param.arg] = types

    def _visit(
        self, node: ast.AST, fs: FunctionSummary, raises: List[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # own summary via _walk_container
        if isinstance(node, ast.Lambda):
            self._process_lambda(fs.name, node)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, fs)
        elif isinstance(node, ast.Try):
            self._record_try(node, fs)
        elif isinstance(node, ast.Raise):
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dotted = _dotted_name(exc) if exc is not None else None
            raises.append(dotted.split(".")[-1] if dotted else "")
        elif isinstance(node, ast.Assert):
            raises.append("AssertionError")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._record_assignment(node, fs)
        elif isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
            for item in node.items:
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    types = _constructor_classes(item.context_expr)
                    if types:
                        fs.var_types[item.optional_vars.id] = types
        elif isinstance(node, ast.Global):
            for name in node.names:
                fs.mutations.append(
                    FactSite("rebinds module global", node.lineno, name)
                )
        for child in ast.iter_child_nodes(node):
            self._visit(child, fs, raises)

    def _process_lambda(self, scope: str, node: ast.Lambda) -> None:
        name = _lambda_name(scope, node)
        if name in self.out.functions:
            return
        fs = FunctionSummary(name=name, line=node.lineno)
        raises: List[str] = []
        self._visit(node.body, fs, raises)
        fs.raises = tuple(dict.fromkeys(raises))
        self.out.functions[name] = fs

    # -- call classification ----------------------------------------------

    def _record_call(self, node: ast.Call, fs: FunctionSummary) -> None:
        refs = self._ref_args(fs.name, node)
        func = node.func
        # registry dispatch: REGISTRY[...](...) / args.func(args)
        if isinstance(func, ast.Subscript):
            base = _dotted_name(func.value)
            if base is not None and _REGISTRY_NAME_RE.fullmatch(
                base.split(".")[-1]
            ):
                fs.calls.append(
                    CallSite(base, node.lineno, "registry", refs=refs)
                )
                return
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "func"
            and isinstance(func.value, ast.Name)
            and func.value.id == "args"
        ):
            fs.calls.append(
                CallSite(ARGPARSE_REGISTRY, node.lineno, "registry", refs=refs)
            )
            return
        dotted = _dotted_name(func)
        if dotted is None:
            return
        leaf = dotted.split(".")[-1]
        receiver = ".".join(dotted.split(".")[:-1])
        if leaf in ("run_in_executor", "to_thread"):
            fs.calls.append(
                CallSite(dotted, node.lineno, "executor", receiver, refs)
            )
        elif leaf == "chunked_map":
            fs.calls.append(
                CallSite(dotted, node.lineno, "fork", receiver, refs[:1])
            )
        elif leaf == "submit":
            fs.calls.append(
                CallSite(dotted, node.lineno, "submit", receiver, refs)
            )
        else:
            fs.calls.append(
                CallSite(dotted, node.lineno, "call", receiver, refs)
            )
        self._record_fact_sites(node, dotted, leaf, receiver, fs)

    def _ref_args(self, scope: str, node: ast.Call) -> Tuple[str, ...]:
        refs: List[str] = []
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if isinstance(value, ast.Starred):
                value = value.value
            if isinstance(value, ast.Lambda):
                refs.append(_lambda_name(scope, value))
            elif isinstance(value, (ast.Name, ast.Attribute)):
                dotted = _dotted_name(value)
                if dotted is not None:
                    refs.append(dotted)
        return tuple(refs)

    def _record_fact_sites(
        self,
        node: ast.Call,
        dotted: str,
        leaf: str,
        receiver: str,
        fs: FunctionSummary,
    ) -> None:
        line = node.lineno
        # blocking operations (R9)
        if dotted in _BLOCKING_DOTTED or dotted in _BLOCKING_EXTRA_DOTTED:
            fs.blocking.append(FactSite(dotted, line))
        elif dotted in _BLOCKING_BARE:
            fs.blocking.append(FactSite(f"{dotted}()", line))
        elif leaf in _SQLITE_LEAVES and any(
            hint in receiver.lower() for hint in ("conn", "cursor", "db")
        ):
            fs.blocking.append(FactSite(f"sqlite {dotted}", line))
        elif leaf in _PATH_IO_LEAVES:
            fs.blocking.append(FactSite(f"file I/O {dotted}", line))
        # entropy sources (R10)
        self._record_rng(node, dotted, leaf, fs)
        # artifact / store sinks (R10)
        if leaf in _SINK_LEAVES:
            fs.sinks.append(FactSite(f"bench artifact via {dotted}", line))
        elif leaf in _SINK_STORE_LEAVES and any(
            hint in receiver.lower() for hint in _SINK_RECEIVER_HINTS
        ):
            fs.sinks.append(FactSite(f"store write via {dotted}", line))
        # module-global mutation via mutating method (R11)
        if leaf in _MUTATORS and receiver:
            root = receiver.split(".")[0]
            if root in self.out.module_globals or root in self.out.imports:
                fs.mutations.append(
                    FactSite(f"{dotted}(...)", line, root)
                )

    def _record_rng(
        self, node: ast.Call, dotted: str, leaf: str, fs: FunctionSummary
    ) -> None:
        line = node.lineno
        parts = dotted.split(".")
        if dotted in _ENTROPY_DOTTED:
            fs.rng.append(FactSite(dotted, line))
            return
        if leaf == "default_rng" and not node.args and not node.keywords:
            fs.rng.append(FactSite("default_rng() unseeded", line))
            return
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[0] in ("np", "numpy", "_np")
            and leaf not in _NP_RANDOM_SAFE
        ):
            fs.rng.append(FactSite(f"numpy global RNG {dotted}", line))
            return
        if (
            len(parts) == 2
            and parts[0] == "random"
            and self._module_random
            and leaf in _STDLIB_RANDOM_LEAVES
        ):
            fs.rng.append(FactSite(f"stdlib global RNG {dotted}", line))
            return
        if len(parts) == 1 and leaf in self._from_random:
            fs.rng.append(FactSite(f"stdlib global RNG {leaf}", line))

    # -- assignments / mutations -------------------------------------------

    def _record_assignment(self, node: ast.AST, fs: FunctionSummary) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and value is not None:
                ctors = _constructor_classes(value)
                if ctors:
                    merged = fs.var_types.get(target.id, ()) + ctors
                    fs.var_types[target.id] = tuple(dict.fromkeys(merged))
                continue
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root = _root_name(target)
                if root is None or root in ("self", "cls"):
                    continue
                if root in self.out.module_globals or root in self.out.imports:
                    what = (
                        "subscript store"
                        if isinstance(target, ast.Subscript)
                        else f"attribute {'augassign' if isinstance(node, ast.AugAssign) else 'assign'}"
                    )
                    fs.mutations.append(
                        FactSite(what, getattr(node, "lineno", 1), root)
                    )

    # -- try / except -------------------------------------------------------

    def _record_try(self, node: ast.Try, fs: FunctionSummary) -> None:
        try_callees: List[str] = []
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(sub, ast.Call):
                    if isinstance(sub.func, ast.Subscript):
                        base = _dotted_name(sub.func.value)
                        if base is not None:
                            try_callees.append(f"{base}[]")
                        continue
                    dotted = _dotted_name(sub.func)
                    if dotted is not None:
                        try_callees.append(dotted)
        for handler in node.handlers:
            caught: List[str] = []
            if handler.type is not None:
                types = (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
                for t in types:
                    dotted = _dotted_name(t)
                    if dotted is not None:
                        caught.append(dotted.split(".")[-1])
            reraises = any(
                isinstance(sub, ast.Raise)
                for stmt in handler.body
                for sub in ast.walk(stmt)
            )
            fs.handlers.append(
                HandlerSite(
                    line=handler.lineno,
                    broad=_is_broad_handler(handler),
                    assertion=bool(set(caught) & _ASSERTION_NAMES),
                    observes=_handler_observes_exception(handler),
                    reraises=reraises,
                    try_callees=tuple(dict.fromkeys(try_callees)),
                )
            )

    # -- driver -------------------------------------------------------------

    def run(self) -> ModuleSummary:
        self._collect_imports()
        self._module_random, self._from_random = _stdlib_random_context(
            self.out.imports
        )
        self._collect_module_scope()
        self._collect_dispatch_and_routes()
        self._walk_defs()
        return self.out


def extract_module(module: str, rel_base: str, tree: ast.Module) -> ModuleSummary:
    """Extract the flow summary for one parsed module.

    ``rel_base`` is the package that a ``from . import x`` (level 1)
    resolves against — the module itself for ``__init__`` files, its
    parent package otherwise.  The summary is a pure function of the
    three inputs.
    """
    return _Extractor(module, rel_base, tree).run()
