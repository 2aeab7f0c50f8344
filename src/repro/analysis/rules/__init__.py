"""Built-in simlint rules: SL003, SL004, SL007, SL008 and SL010.

Each rule guards a defect no runtime test catches (DESIGN.md § "Static
analysis" names the mutation for each); the retired codes SL001, SL002,
SL005, SL006, SL009 and SL011 are not reused. Each rule lives in its own
module and registers here. ``build_all_rules`` returns fresh instances
for one engine run — rules carry per-run state (collected counters)
between ``check_module`` and ``finish``. To add a rule: subclass
:class:`repro.analysis.engine.Rule`, give it a unique ``code``/``title``,
and append its class to ``ALL_RULES``.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.counters import CounterHygieneRule
from repro.analysis.rules.global_state import GlobalStateRule
from repro.analysis.rules.hotpath_slots import HotPathSlotsRule
from repro.analysis.rules.registries import RegistryKeysRule
from repro.analysis.rules.robust_io import RobustIORule

#: Every registered rule class, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    CounterHygieneRule,
    RegistryKeysRule,
    HotPathSlotsRule,
    RobustIORule,
    GlobalStateRule,
)


def build_all_rules() -> list[Rule]:
    """Fresh rule instances for one lint run."""
    return [rule_class() for rule_class in ALL_RULES]
