"""Typed telemetry events and their registry.

Every discrete occurrence the simulator can report — an instruction
issue, an L1 access, a DRAM request, a LAWS group decision — is one event
class here. The :data:`EVENT_TYPES` registry is the single source of
truth for what events exist: :func:`validate_event_registry` checks that
every class below is registered under its own ``kind``, and the
Chrome-trace golden test pins which events a run emits. Adding an event
therefore means adding the class *and* its registry entry, or tier-1
fails.

Events are plain slotted dataclasses so constructing one costs a few
attribute stores; they are only ever constructed behind an
``is not None`` telemetry guard, so a run without telemetry never pays
for them. ``cycle`` is always the simulated cycle the event describes,
never wall-clock time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Optional


@dataclass(slots=True)
class TelemetryEvent:
    """Base class: every event carries the simulated cycle it happened at."""

    #: Registry key; also the ``"kind"`` field of the exported record.
    kind: ClassVar[str] = ""

    cycle: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record including the event's registry kind."""
        record: dict[str, Any] = {"kind": type(self).kind}
        record.update(dataclasses.asdict(self))
        return record


# ----------------------------------------------------------------------
# SM pipeline
# ----------------------------------------------------------------------


@dataclass(slots=True)
class WarpIssueEvent(TelemetryEvent):
    """One warp-instruction issued by an SM.

    ``dur`` is the dependent-issue latency when it is known at issue time
    (ALU chains, stores); loads leave it ``None`` — their duration is the
    issue-to-:class:`MemCompleteEvent` span.
    """

    kind: ClassVar[str] = "issue"

    sm: int
    warp: int
    pc: int
    op: str
    dur: Optional[int]


@dataclass(slots=True)
class LoadIssueEvent(TelemetryEvent):
    """A load entered the LSU: coalesced line requests head for the L1."""

    kind: ClassVar[str] = "load_issue"

    sm: int
    warp: int
    pc: int
    primary_addr: int
    num_lines: int


@dataclass(slots=True)
class LoadOutcomeEvent(TelemetryEvent):
    """The primary request of a load committed: the LSU feedback signal."""

    kind: ClassVar[str] = "load_outcome"

    sm: int
    warp: int
    pc: int
    hit: bool


@dataclass(slots=True)
class MemCompleteEvent(TelemetryEvent):
    """The last outstanding request of a warp returned; the warp wakes."""

    kind: ClassVar[str] = "mem_complete"

    sm: int
    warp: int


# ----------------------------------------------------------------------
# L1 / MSHR
# ----------------------------------------------------------------------


@dataclass(slots=True)
class L1AccessEvent(TelemetryEvent):
    """One demand access: outcome is hit / miss / merged / stall."""

    kind: ClassVar[str] = "l1_access"

    sm: int
    line_addr: int
    outcome: str


@dataclass(slots=True)
class L1FillEvent(TelemetryEvent):
    """A line fill landed in an L1 (demand or prefetch initiated)."""

    kind: ClassVar[str] = "l1_fill"

    sm: int
    line_addr: int
    prefetch: bool


@dataclass(slots=True)
class L1EvictEvent(TelemetryEvent):
    """A resident line was evicted (replacement or store invalidation)."""

    kind: ClassVar[str] = "l1_evict"

    sm: int
    line_addr: int
    prefetched: bool
    referenced: bool


@dataclass(slots=True)
class PrefetchIssueEvent(TelemetryEvent):
    """A prefetch actually started an L1 fill."""

    kind: ClassVar[str] = "prefetch_issue"

    sm: int
    line_addr: int
    target_warp: Optional[int]


@dataclass(slots=True)
class PrefetchDropEvent(TelemetryEvent):
    """A prefetch candidate was rejected before starting a fill."""

    kind: ClassVar[str] = "prefetch_drop"

    sm: int
    line_addr: int
    #: ``mshr_pressure`` (pipeline throttle), ``resident``, ``in_flight``
    #: or ``no_mshr`` (cache-side drops).
    reason: str


# ----------------------------------------------------------------------
# L2 / DRAM
# ----------------------------------------------------------------------


@dataclass(slots=True)
class L2AccessEvent(TelemetryEvent):
    """An L1 miss reached the shared L2."""

    kind: ClassVar[str] = "l2_access"

    line_addr: int
    hit: bool


@dataclass(slots=True)
class DRAMRequestEvent(TelemetryEvent):
    """An L2 miss reached a DRAM partition; ``queue_delay`` is the cycles
    the request waited for the partition before service began."""

    kind: ClassVar[str] = "dram_request"

    line_addr: int
    partition: int
    queue_delay: int


# ----------------------------------------------------------------------
# Scheduler / APRES mechanisms
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SchedGroupEvent(TelemetryEvent):
    """A LAWS priority-queue action on a warp group.

    ``action`` is ``head`` (grouped load hit — group promoted), ``tail``
    (grouped load missed — group demoted) or ``promote`` (warps that
    received a SAP prefetch moved to the head).
    """

    kind: ClassVar[str] = "sched_group"

    sm: int
    action: str
    warps: tuple[int, ...]


@dataclass(slots=True)
class SAPDecisionEvent(TelemetryEvent):
    """SAP evaluated a grouped miss: did the inter-warp stride confirm,
    and how many group prefetches were generated?"""

    kind: ClassVar[str] = "sap_decision"

    sm: int
    pc: int
    stride: Optional[int]
    confirmed: bool
    num_targets: int


#: Registry of every telemetry event: ``kind`` string -> event class.
#: :func:`validate_event_registry` keeps this in lockstep with the classes
#: above.
EVENT_TYPES: dict[str, type] = {
    "issue": WarpIssueEvent,
    "load_issue": LoadIssueEvent,
    "load_outcome": LoadOutcomeEvent,
    "mem_complete": MemCompleteEvent,
    "l1_access": L1AccessEvent,
    "l1_fill": L1FillEvent,
    "l1_evict": L1EvictEvent,
    "prefetch_issue": PrefetchIssueEvent,
    "prefetch_drop": PrefetchDropEvent,
    "l2_access": L2AccessEvent,
    "dram_request": DRAMRequestEvent,
    "sched_group": SchedGroupEvent,
    "sap_decision": SAPDecisionEvent,
}


def validate_event_registry() -> list[str]:
    """Check the event registry against the event classes (used by tests).

    Returns a list of problems; empty means the registry, the classes and
    their ``kind`` strings are coherent.
    """
    problems: list[str] = []
    for key, cls in EVENT_TYPES.items():
        if not (isinstance(cls, type) and issubclass(cls, TelemetryEvent)):
            problems.append(f"EVENT_TYPES[{key!r}] is not a TelemetryEvent subclass")
            continue
        if cls.kind != key:
            problems.append(
                f"EVENT_TYPES[{key!r}] maps to {cls.__name__} whose kind is "
                f"{cls.kind!r}"
            )
    registered = set(EVENT_TYPES.values())
    for cls in TelemetryEvent.__subclasses__():
        if cls not in registered:
            problems.append(f"{cls.__name__} is not registered in EVENT_TYPES")
    return problems
