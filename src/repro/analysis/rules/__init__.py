"""Built-in simlint rules (SL001–SL011; the code SL009 is retired).

Each rule lives in its own module and registers here. ``build_all_rules``
returns fresh instances for one engine run — rules carry per-run state
(collected counters, registries) between ``check_module`` and ``finish``.
To add a rule: subclass :class:`repro.analysis.engine.Rule`, give it a
unique ``code``/``title``, and append its class to ``ALL_RULES``.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.counters import CounterHygieneRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.frozen_config import FrozenConfigRule
from repro.analysis.rules.global_state import GlobalStateRule
from repro.analysis.rules.hotpath_slots import HotPathSlotsRule
from repro.analysis.rules.metrics_names import MetricNamesRule
from repro.analysis.rules.paper_golden import PaperGoldenRule
from repro.analysis.rules.picklability import PicklabilityRule
from repro.analysis.rules.registries import RegistryCompletenessRule
from repro.analysis.rules.robust_io import RobustIORule

#: Every registered rule class, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    PicklabilityRule,
    CounterHygieneRule,
    RegistryCompletenessRule,
    FrozenConfigRule,
    PaperGoldenRule,
    HotPathSlotsRule,
    RobustIORule,
    GlobalStateRule,
    MetricNamesRule,
)


def build_all_rules() -> list[Rule]:
    """Fresh rule instances for one lint run."""
    return [rule_class() for rule_class in ALL_RULES]
