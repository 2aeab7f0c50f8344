"""SL011 — metric-name hygiene: emit sites and METRICS in lockstep.

The operational metrics registry (:mod:`repro.telemetry.metrics`)
resolves every instrument by a dotted name declared in its module-level
``METRICS`` dict — the runtime raises on an undeclared name, but only
when the emit site actually executes, which for rare paths (worker
quarantine, degradation) may be never in CI. This rule is the static
twin, with the same philosophy as SL003's counter pass:

* every ``<registry>.counter("...")`` / ``.gauge("...")`` call with a
  string-literal name must use a name declared in ``METRICS``;
* the call's method must match the declared type — ``.counter()`` on a
  name declared as a gauge would raise :class:`TypeError` at runtime;
* once the linted tree contains at least one emit site, every declared
  metric must be emitted somewhere (an orphan metric reports a constant
  zero that reads like a measurement).

Detection is name-based: any module-level ``METRICS`` dict literal with
string keys and ``(type, help)`` tuple values is treated as the
declaration registry, so the rule works on fixture trees as well as the
real package. Non-literal name arguments are skipped — the runtime
registry still guards those.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.analysis.engine import ModuleInfo, Project, Reporter, Rule

#: Name of the declaration dict in :mod:`repro.telemetry.metrics`.
_REGISTRY_NAME = "METRICS"

#: Registry methods whose first argument is a declared metric name,
#: mapped to the metric type they require.
_EMIT_METHODS = frozenset({"counter", "gauge"})


@dataclass
class _MetricDeclaration:
    """One ``METRICS`` entry: dotted name -> declared type (when literal)."""

    name: str
    metric_type: Optional[str]
    module: ModuleInfo
    node: ast.expr


@dataclass
class _EmitSite:
    """One ``.counter("...")``/``.gauge("...")`` call site."""

    name: str
    method: str
    module: ModuleInfo
    node: ast.Call


def _metrics_dicts(module: ModuleInfo) -> list[ast.Dict]:
    """Module-level ``METRICS = {...}`` literals (plain or annotated)."""
    found: list[ast.Dict] = []
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            name, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name, value = stmt.target.id, stmt.value
        else:
            continue
        if name == _REGISTRY_NAME and isinstance(value, ast.Dict):
            found.append(value)
    return found


def _collect_declarations(
    module: ModuleInfo, out: list[_MetricDeclaration]
) -> bool:
    """Append ``METRICS`` entries; True when the module declares the dict."""
    dicts = _metrics_dicts(module)
    for dict_node in dicts:
        for key, value in zip(dict_node.keys, dict_node.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            metric_type: Optional[str] = None
            if (
                isinstance(value, ast.Tuple)
                and value.elts
                and isinstance(value.elts[0], ast.Constant)
                and isinstance(value.elts[0].value, str)
            ):
                metric_type = value.elts[0].value
            out.append(_MetricDeclaration(key.value, metric_type, module, key))
    return bool(dicts)


def _collect_emit_sites(module: ModuleInfo, out: list[_EmitSite]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _EMIT_METHODS):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(_EmitSite(arg.value, func.attr, module, node))


class MetricNamesRule(Rule):
    """SL011: emitted metric names declared in METRICS, and none orphaned."""

    code = "SL011"
    title = "metric-name hygiene: emit sites match the METRICS declarations"

    def __init__(self) -> None:
        self._declarations: list[_MetricDeclaration] = []
        self._emits: list[_EmitSite] = []
        self._registry_seen = False

    def check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        if _collect_declarations(module, self._declarations):
            self._registry_seen = True
        _collect_emit_sites(module, self._emits)

    def finish(self, project: Project, reporter: Reporter) -> None:
        if not self._registry_seen:
            # No METRICS dict in the linted tree: nothing to check against.
            return
        declared: dict[str, _MetricDeclaration] = {}
        for decl in self._declarations:
            declared.setdefault(decl.name, decl)
        emitted: set[str] = set()
        for site in self._emits:
            emitted.add(site.name)
            decl = declared.get(site.name)
            if decl is None:
                reporter.report(
                    self.code, site.module, site.node,
                    f"metric {site.name!r} is emitted here but not declared "
                    "in repro.telemetry.metrics.METRICS; add it there so the "
                    "name is stable and exported",
                )
            elif decl.metric_type is not None and decl.metric_type != site.method:
                reporter.report(
                    self.code, site.module, site.node,
                    f"metric {site.name!r} is declared as a "
                    f"{decl.metric_type} but emitted via .{site.method}(); "
                    "the registry raises TypeError on this call at runtime",
                )
        if self._emits:
            for name, decl in sorted(declared.items()):
                if name not in emitted:
                    reporter.report(
                        self.code, decl.module, decl.node,
                        f"metric {name!r} is declared in METRICS but never "
                        "emitted anywhere in the linted tree (orphan "
                        "metric); wire an emit site or remove the entry",
                    )
