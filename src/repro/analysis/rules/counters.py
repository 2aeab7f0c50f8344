"""SL003 — counter hygiene: every stats counter declared and live.

The stats bundles in :mod:`repro.stats.counters` are the single source of
truth for everything the experiment harness reports. Two drift modes
corrupt results silently:

* an increment site targets a counter that no ``*Stats`` dataclass
  declares — the attribute is created on the fly, never survives
  ``as_dict()`` in a structured way, and the "measurement" vanishes from
  every report;
* a declared counter is never updated anywhere — it reports a constant
  zero, which reads as a measured value (the orphaned-counter failure
  mode the runtime integrity layer cannot see at all, because a zero
  counter violates no conservation law).

Detection is project-wide and name-based: declarations are the fields of
``@dataclass`` classes whose name ends in ``Stats`` (fields annotated
with another ``*Stats`` type are nested bundles, not counters); update
sites are plain or augmented assignments whose attribute chain passes
through a segment named ``stats``/``_stats``. The never-updated check
only runs when the linted tree contains at least one update site, so
linting a declarations file on its own reports nothing.

No runtime test catches the first mode: ``SimStats.as_dict()`` is
``dataclasses.asdict``, so an undeclared attribute never shows up in any
report, and the test suite still passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from repro.analysis.engine import ModuleInfo, Project, Reporter, Rule

_STATS_SEGMENTS = frozenset({"stats", "_stats"})


def _decorator_name(node: ast.expr) -> str:
    """Terminal name of a decorator expression (``dataclass`` for all forms)."""
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_stats_dataclass(node: ast.ClassDef) -> bool:
    return node.name.endswith("Stats") and any(
        _decorator_name(dec) == "dataclass" for dec in node.decorator_list
    )


def _annotation_name(annotation: Optional[ast.expr]) -> str:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip().split("[", 1)[0].strip()
    return ""


def _attribute_segments(node: ast.expr) -> Optional[list[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]``; None for complex bases."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


@dataclass
class _Declaration:
    """One counter (or bundle) field of a Stats dataclass."""

    class_name: str
    field_name: str
    module: ModuleInfo
    line: int
    is_bundle: bool


@dataclass
class _UpdateSite:
    """One assignment through a stats chain."""

    counter: str
    module: ModuleInfo
    node: ast.stmt


@dataclass
class CounterUsage:
    """Aggregated declarations and update sites for one lint run."""

    declarations: list[_Declaration] = dataclass_field(default_factory=list)
    updates: list[_UpdateSite] = dataclass_field(default_factory=list)

    @property
    def declared_counters(self) -> set[str]:
        return {d.field_name for d in self.declarations if not d.is_bundle}

    @property
    def bundle_names(self) -> set[str]:
        return {d.field_name for d in self.declarations if d.is_bundle}

    @property
    def updated_counters(self) -> set[str]:
        return {u.counter for u in self.updates}


def _collect_declarations(module: ModuleInfo, usage: CounterUsage) -> None:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and _is_stats_dataclass(node)):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            name = stmt.target.id
            if name.startswith("_"):
                continue
            annotation = _annotation_name(stmt.annotation)
            if annotation == "ClassVar":
                continue
            usage.declarations.append(_Declaration(
                class_name=node.name,
                field_name=name,
                module=module,
                line=stmt.lineno,
                is_bundle=annotation.endswith("Stats"),
            ))


def _collect_updates(module: ModuleInfo, usage: CounterUsage) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.AugAssign):
            targets: list[ast.expr] = [node.target]
        elif isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            segments = _attribute_segments(target)
            if segments is None or len(segments) < 2:
                continue
            counter = segments[-1]
            if any(seg in _STATS_SEGMENTS for seg in segments[:-1]):
                usage.updates.append(_UpdateSite(counter, module, node))


class CounterHygieneRule(Rule):
    """SL003: stats counters must be declared, and declared counters live."""

    code = "SL003"
    title = "counter hygiene: stats counters declared in a Stats dataclass and updated"

    def __init__(self) -> None:
        self._usage = CounterUsage()

    def check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        _collect_declarations(module, self._usage)
        _collect_updates(module, self._usage)

    def finish(self, project: Project, reporter: Reporter) -> None:
        usage = self._usage
        declared = usage.declared_counters
        bundles = usage.bundle_names
        if not usage.declarations:
            # No Stats dataclass in the linted tree: nothing to check against.
            return
        known = declared | bundles
        for site in usage.updates:
            if site.counter not in known:
                reporter.report(
                    self.code, site.module, site.node,
                    f"counter '{site.counter}' is updated here but not "
                    "declared in any *Stats dataclass; add the field to "
                    "repro.stats.counters so it is reported and checkpointed",
                )
        if usage.updates:
            updated = usage.updated_counters
            for decl in usage.declarations:
                if decl.is_bundle or decl.field_name in updated:
                    continue
                reporter.report(
                    self.code, decl.module, None,
                    f"counter '{decl.class_name}.{decl.field_name}' is "
                    "declared but never updated anywhere in the linted tree; "
                    "it will report a constant zero — wire it up or remove it",
                    line=decl.line,
                )
