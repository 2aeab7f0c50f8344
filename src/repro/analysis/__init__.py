"""simlint: simulator-aware static analysis for the APRES reproduction.

An AST-based lint pass for defects that no runtime test catches — each
rule is kept only because a mutation it flags passes the tier-1 suite
(DESIGN.md § "Static analysis (simlint)" names the mutation):

* **SL003 counter hygiene** — every stats counter updated is declared in
  a ``*Stats`` dataclass, and every declared counter is updated;
* **SL004 registry keys** — no module-level registry literal repeats a
  key (the later entry silently wins);
* **SL007 hot-path slots** — ``sm``/``mem`` classes declare
  ``__slots__`` and stay picklable across the process-pool boundary;
* **SL008 robust I/O** — no swallowed failures or torn writes in the
  persistence packages;
* **SL010 hidden global state** — no module-level mutable mutated from
  the hot packages' call paths.

Run it with ``python -m repro lint [PATH ...]``; suppress one line with
``# simlint: ignore[SL008]``.
"""

from repro.analysis.engine import (
    HOT_PACKAGES,
    Finding,
    LintResult,
    ModuleInfo,
    Project,
    Reporter,
    Rule,
    run_lint,
)
from repro.analysis.rules import ALL_RULES, build_all_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "HOT_PACKAGES",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Reporter",
    "Rule",
    "build_all_rules",
    "run_lint",
]
