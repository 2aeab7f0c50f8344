"""Prefetcher interface.

The pipeline shows every executed load to the prefetcher (PC, warp,
primary byte address, per-line outcomes) and issues the returned
candidates into the L1 as prefetch-typed fills. A candidate may name the
warp it covers; LAWS uses that feedback to prioritise prefetch targets
(Section IV-B), other schedulers ignore it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.mem.request import LoadAccess


class PrefetchCandidate(NamedTuple):
    """One address the prefetcher wants brought into L1.

    The pipeline unpacks each candidate as ``(addr, target_warp)``, so a
    prefetcher may return plain 2-tuples in its place (SAP does).
    """

    addr: int
    #: Warp whose future demand this prefetch covers, if known.
    target_warp: Optional[int] = None


class Prefetcher:
    """Base class; ``events`` feeds the energy model.

    The hooks default to no-ops, and the pipeline calls
    :meth:`observe_load` only on a subclass that overrides it.
    """

    name = "base"

    def __init__(self) -> None:
        self.events = 0
        #: Per-SM telemetry proxy (set by the pipeline when tracing).
        self.telemetry = None

    def reset(self, num_warps: int) -> None:
        """(Re)initialise per-SM state."""

    def observe_load(self, access: LoadAccess) -> list[PrefetchCandidate]:
        """React to an executed load; return prefetches to issue."""
        return []

    def observe_line(self, line_addr: int, hit: bool, cycle: int) -> list[PrefetchCandidate]:
        """React to one coalesced line access (macro-block schemes)."""
        return []
