"""SL004 — registry keys: no module-level registry literal repeats a key.

Schedulers, prefetchers, workloads and the paper's figures are looked
up by name through module-level ``UPPER_CASE`` dict literals
(``SCHEDULERS``, ``SUITE``, ``FIGURES``, ...). A repeated constant key in
such a literal silently drops the earlier entry: a second ``"figure14"``
entry in ``experiments.figures.FIGURES`` whose spec produces figure13's
data makes ``repro figure 14`` print and archive another figure's data
under that name. The rule reports each duplicate occurrence, plain or
annotated assignment alike; lowercase dicts are data, not registries,
and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleInfo, Reporter, Rule


def _module_level_upper_dicts(
    module: ModuleInfo,
) -> Iterator[tuple[str, ast.Dict]]:
    """Module-level ``UPPER_CASE = {...}`` dicts, plain or annotated."""
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
        if name.isupper() and isinstance(value, ast.Dict):
            yield name, value


class RegistryKeysRule(Rule):
    """SL004: no module-level registry dict literal repeats a key."""

    code = "SL004"
    title = "registry keys: no UPPER_CASE dict literal repeats a key"

    def check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        for dict_name, dict_node in _module_level_upper_dicts(module):
            seen: dict[object, int] = {}
            for key in dict_node.keys:
                if not isinstance(key, ast.Constant):
                    continue
                value = key.value
                if not isinstance(value, (str, int, float, bytes)):
                    continue
                first = seen.get(value)
                if first is not None:
                    reporter.report(
                        self.code, module, key,
                        f"registry {dict_name} repeats key {value!r} (first "
                        f"at line {first}); the earlier entry is silently "
                        "overwritten",
                    )
                else:
                    seen[value] = key.lineno
