"""Miss Status Holding Registers.

MSHRs track in-flight fills and merge later requests to the same line; the
demand-into-prefetch merge is the mechanism APRES leans on for prefetch
timeliness (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

#: Callback invoked when the fill completes: ``fn(fill_cycle)``.
FillCallback = Callable[[int], None]


@dataclass(slots=True)
class MSHREntry:
    """One in-flight line fill."""

    line_addr: int
    #: Cycle of the request that allocated the entry.
    allocated_at: int
    #: True while only prefetch requests target the line.
    prefetch_only: bool
    #: Warp (local id) whose demand allocated the entry; -1 for prefetches.
    filler_warp: int = -1
    callbacks: list[FillCallback] = field(default_factory=list)
    #: Issue cycles of merged demand requests (for latency accounting).
    demand_issue_cycles: list[int] = field(default_factory=list)


class MSHRFile:
    """Fixed-capacity MSHR table keyed by line address."""

    __slots__ = ("_capacity", "_merge_limit", "_entries",
                 "allocated_total", "released_total")

    def __init__(self, num_entries: int, merge_limit: int):
        if num_entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self._capacity = num_entries
        self._merge_limit = merge_limit
        self._entries: dict[int, MSHREntry] = {}
        #: Lifetime allocation/release counters, kept for the integrity
        #: layer's conservation check: live entries == allocated - released.
        self.allocated_total = 0
        self.released_total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def occupancy_ratio(self) -> float:
        return len(self._entries) / self._capacity

    @property
    def live_prefetch_only(self) -> int:
        """In-flight fills still owned purely by a prefetch (no demand merged).

        The integrity layer's prefetch conservation law counts these: every
        issued prefetch is exactly one of {filled as prefetch, demand-merged
        while in flight, still in flight prefetch-only}.
        """
        return sum(1 for entry in self._entries.values() if entry.prefetch_only)

    def lookup(self, line_addr: int) -> Optional[MSHREntry]:
        return self._entries.get(line_addr)

    def allocate(self, line_addr: int, now: int, prefetch_only: bool) -> Optional[MSHREntry]:
        """Allocate an entry; ``None`` if the file is full."""
        if len(self._entries) >= self._capacity or line_addr in self._entries:
            return None
        entry = MSHREntry(line_addr, now, prefetch_only)
        self._entries[line_addr] = entry
        self.allocated_total += 1
        return entry

    def merge_demand(self, entry: MSHREntry, now: int, callback: Optional[FillCallback]) -> bool:
        """Merge a demand request into an in-flight fill."""
        if len(entry.demand_issue_cycles) >= self._merge_limit:
            return False
        entry.demand_issue_cycles.append(now)
        if callback is not None:
            entry.callbacks.append(callback)
        entry.prefetch_only = False
        return True

    def release(self, line_addr: int) -> MSHREntry:
        """Remove and return the entry when its fill arrives."""
        entry = self._entries.pop(line_addr)
        self.released_total += 1
        return entry
