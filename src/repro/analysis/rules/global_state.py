"""SL010 — hidden global state in hot simulation packages.

Two simulations run in one process (a sweep, a test session, a figure
regeneration) must not see each other; global state is how they do.
Three patterns count as hidden globals, checked only in the hot
packages (:data:`repro.analysis.engine.HOT_PACKAGES` — the code that
runs inside or feeds the per-SM cycle loop):

* a module-level mutable (``list``/``dict``/``set``/… literal) mutated
  from inside a function or method — by item assignment or deletion, a
  container mutator call (``.append``, ``.clear``, …) or a ``heapq``
  call, directly or through a local alias — whether defined in the same
  module or imported from another project module. Rebinding a
  ``global`` name (``=``, ``+=``, ``del``) counts whatever its type.
  Populating a registry at module import time is fine; mutating it later
  from call paths is not.
* a class-level mutable attribute on a non-dataclass — shared by every
  instance, which reads like per-instance state and races like a global.
* a mutable default argument — one shared object across all calls.

Findings anchor at the mutation site (or declaration, for class attrs
and defaults), so ``# simlint: ignore[SL010]`` plus a justification
waives intentional cases.

``check_module`` collects each module's mutables and reports what it can
alone; ``finish`` resolves writes through a from-imported name (``from
.registry import TABLE``), which need the defining module's mutables.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.analysis.engine import ModuleInfo, Project, Reporter, Rule

#: Methods that mutate their builtin-container receiver.
CONTAINER_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "add",
        "discard", "remove", "update", "setdefault", "pop", "popitem",
        "popleft", "clear", "sort", "reverse", "rotate", "move_to_end",
    }
)

#: ``heapq`` functions that mutate the heap passed as their first argument.
HEAPQ_MUTATORS = frozenset(
    {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}
)

#: Constructor calls producing mutable builtin containers.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "bytearray", "OrderedDict", "defaultdict", "deque", "Counter"}
)

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _name_of(node: ast.expr) -> str:
    """``f`` for ``f``, ``m.f``, ``f(...)`` and ``m.f(...)``; else empty."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _is_mutable_literal(node: Optional[ast.expr]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _name_of(node) in _MUTABLE_FACTORIES


def _module_mutables(tree: ast.Module) -> set[str]:
    """Names bound to a mutable literal at module level (dunders excluded)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_mutable_literal(stmt.value):
            names.update(node.id for target in stmt.targets
                         for node in ast.walk(target) if isinstance(node, ast.Name))
        elif (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and _is_mutable_literal(stmt.value)):
            names.add(stmt.target.id)
    return {name for name in names if not name.startswith("__")}


def _from_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Module-level ``from M import X as Y``: ``Y -> (stem of M, X)``."""
    imports: dict[str, tuple[str, str]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module:
            stem = stmt.module.rsplit(".", 1)[-1]
            for alias in stmt.names:
                imports[alias.asname or alias.name] = (stem, alias.name)
    return imports


def _functions(tree: ast.Module) -> Iterator[tuple[str, _FuncDef]]:
    """Module-level functions and the methods of module-level classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{item.name}", item


def _scope_nodes(func: _FuncDef) -> list[ast.AST]:
    """Every node of ``func``'s body, not descending into nested scopes."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _global_writes(func: _FuncDef) -> Iterator[tuple[str, bool, ast.AST]]:
    """``(name, rebind, node)`` for each write through a non-local name.

    ``rebind`` is true when a ``global`` name is itself assigned, augmented
    or deleted, and false for a mutation of the object the name holds. A
    local assigned from such a name, or looping over it, aliases it:
    ``row = _TABLE[k]; row.append(v)`` writes ``_TABLE``.
    """
    nodes = _scope_nodes(func)
    declared = {name for node in nodes if isinstance(node, ast.Global)
                for name in node.names}
    args = func.args
    local = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg is not None}
    local.update(node.id for node in nodes
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load))
    local -= declared
    aliases: dict[str, str] = {}

    def base(expr: ast.expr) -> Optional[str]:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        return aliases.get(expr.id) if expr.id in local else expr.id

    bindings: list[tuple[ast.expr, ast.expr]] = []
    for node in nodes:
        if isinstance(node, ast.Assign):
            bindings.extend((target, node.value) for target in node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            bindings.append((node.target, node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            bindings.append((node.target, node.iter))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            bindings.append((node.optional_vars, node.context_expr))
    changed = True
    while changed:  # to a fixed point, so aliases of aliases resolve
        changed = False
        for target, value in bindings:
            if isinstance(target, ast.Name) and target.id in local \
                    and target.id not in aliases:
                origin = base(value)
                if origin is not None:
                    aliases[target.id] = origin
                    changed = True

    for node in nodes:
        if isinstance(node, ast.Name) and node.id in declared \
                and not isinstance(node.ctx, ast.Load):
            yield node.id, True, node
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            name = base(node.value)
            if name is not None:
                yield name, False, node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (isinstance(func.value, ast.Name) and func.value.id == "heapq"
                    and func.attr in HEAPQ_MUTATORS and node.args):
                name = base(node.args[0])
            elif func.attr in CONTAINER_MUTATORS:
                name = base(func.value)
            else:
                continue
            if name is not None:
                yield name, False, node


class GlobalStateRule(Rule):
    code = "SL010"
    title = "hidden global state in hot packages"

    def __init__(self) -> None:
        #: module stem -> names of its module-level mutables, project-wide.
        self._mutables_by_stem: dict[str, set[str]] = {}
        #: Writes through a from-imported name, resolved in ``finish``:
        #: (module, write node, writer, source module stem, imported name).
        self._imported_writes: list[tuple[ModuleInfo, ast.AST, str, str, str]] = []

    def check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        mutables = _module_mutables(module.tree)
        self._mutables_by_stem.setdefault(module.name, set()).update(mutables)
        if not module.is_hot:
            return
        imports = _from_imports(module.tree)
        for writer, func in _functions(module.tree):
            for name, rebind, node in _global_writes(func):
                if rebind or name in mutables:
                    self._report_write(reporter, module, node, name, writer)
                elif name in imports:
                    self._imported_writes.append((module, node, writer, *imports[name]))
            args = func.args
            positional = [*args.posonlyargs, *args.args]
            defaults = [*zip(positional[len(positional) - len(args.defaults):],
                             args.defaults),
                        *zip(args.kwonlyargs, args.kw_defaults)]
            for arg, default in defaults:
                if default is not None and _is_mutable_literal(default):
                    reporter.report(
                        self.code, module, None,
                        f"mutable default for parameter `{arg.arg}` of "
                        f"`{writer}` is shared across calls; default to None "
                        "and build a fresh object inside",
                        line=default.lineno, col=0,
                    )
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._check_class(stmt, module, reporter)

    def _check_class(self, cls: ast.ClassDef, module: ModuleInfo,
                     reporter: Reporter) -> None:
        """Report class-level mutables (annotated ones only off dataclasses)."""
        is_record = ("NamedTuple" in map(_name_of, cls.bases)
                     or "dataclass" in map(_name_of, cls.decorator_list))
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                    and not is_record:
                names = [stmt.target.id]
            else:
                continue
            if not _is_mutable_literal(stmt.value):
                continue
            for attr in names:
                if not attr.startswith("__"):
                    reporter.report(
                        self.code, module, None,
                        f"class-level mutable attribute `{cls.name}.{attr}` "
                        "is shared by every instance; initialise it in "
                        "`__init__` instead",
                        line=stmt.lineno, col=0,
                    )

    def finish(self, project: Project, reporter: Reporter) -> None:
        for module, node, writer, stem, name in self._imported_writes:
            if name in self._mutables_by_stem.get(stem, ()):
                self._report_write(reporter, module, node, f"{stem}.{name}", writer)

    def _report_write(self, reporter: Reporter, module: ModuleInfo,
                      node: ast.AST, origin: str, writer: str) -> None:
        reporter.report(
            self.code, module, node,
            f"module-level mutable `{origin}` is mutated from `{writer}`; "
            "pass the state explicitly or move it onto an owning object",
        )
