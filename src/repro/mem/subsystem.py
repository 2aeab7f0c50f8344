"""Wiring of per-SM L1s to the shared L2 and DRAM, plus the event queue.

The subsystem owns simulation-wide time-ordered events (line fills, warp
wake-ups). SM pipelines advance cycle by cycle and drain due events at the
start of each cycle.

Event callbacks are small module-level callable objects rather than
closures so the whole subsystem — pending events included — pickles, which
is what makes :meth:`repro.sm.simulator.GPUSimulator.snapshot` possible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.config import GPUConfig
from repro.errors import InvariantError
from repro.mem.cache import L1Cache
from repro.mem.dram import DRAMModel
from repro.mem.l2 import L2Cache
from repro.stats.counters import SimStats


class EventQueue:
    """Min-heap of ``(cycle, seq, callback)`` with FIFO tie-breaking.

    The per-line paths (:meth:`MemorySubsystem.forward_miss`,
    ``SMCore._commit_lines``) push onto ``_heap`` with ``next(_seq)``
    themselves, exactly as :meth:`schedule` does, saving its call.
    """

    __slots__ = ("_heap", "_seq", "processed")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[int], None]]] = []
        self._seq = itertools.count()
        #: Lifetime count of executed events; the watchdog's progress signal.
        self.processed = 0

    def schedule(self, cycle: int, callback: Callable[[int], None]) -> None:
        heapq.heappush(self._heap, (cycle, next(self._seq), callback))

    def run_until(self, cycle: int) -> None:
        """Execute every event due at or before ``cycle``."""
        while self._heap and self._heap[0][0] <= cycle:
            when, _, callback = heapq.heappop(self._heap)
            self.processed += 1
            callback(when)

    @property
    def next_event_cycle(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def iter_pending(self):
        """Yield ``(cycle, callback)`` for every scheduled event (unordered).

        Read-only diagnostic view used by the integrity layer; mutating the
        underlying heap through it is not supported.
        """
        for cycle, _, callback in self._heap:
            yield cycle, callback

    def __len__(self) -> int:
        return len(self._heap)


class _L1FillEvent:
    """Deferred completion of one L1 line fill (picklable event callback)."""

    __slots__ = ("l1", "line_addr")

    def __init__(self, l1: L1Cache, line_addr: int):
        self.l1 = l1
        self.line_addr = line_addr

    def __call__(self, when: int) -> None:
        self.l1.fill(self.line_addr, when)


class _L1MissForwarder:
    """Per-SM miss path into the shared L2 (a picklable callable)."""

    __slots__ = ("subsystem", "sm_id")

    def __init__(self, subsystem: "MemorySubsystem", sm_id: int):
        self.subsystem = subsystem
        self.sm_id = sm_id

    def __call__(self, line_addr: int, now: int, is_prefetch: bool) -> int:
        return self.subsystem.forward_miss(self.sm_id, line_addr, now)


class MemorySubsystem:
    """L1s (one per SM) + shared L2 + DRAM + the global event queue."""

    __slots__ = ("_config", "_stats", "_line_size", "events", "dram", "l2",
                 "l1s")

    def __init__(self, config: GPUConfig, stats: SimStats):
        self._config = config
        self._stats = stats
        self._line_size = config.l1.line_size
        self.events = EventQueue()
        self.dram = DRAMModel(config.dram, config.l1.line_size)
        self.l2 = L2Cache(config.l2, self.dram, stats.memory)
        self.l1s: list[L1Cache] = []
        for sm_id in range(config.num_sms):
            l1 = L1Cache(config.l1, stats.l1, _L1MissForwarder(self, sm_id))
            l1.stats_latency = self._record_latency
            self.l1s.append(l1)

    def forward_miss(self, sm_id: int, line_addr: int, now: int) -> int:
        """Send an L1 miss to L2 and schedule the fill-back event."""
        fill_cycle = self.l2.access(line_addr, now)
        self._stats.memory.bytes_l2_to_l1 += self._line_size
        events = self.events
        heapq.heappush(events._heap, (fill_cycle, next(events._seq),
                                      _L1FillEvent(self.l1s[sm_id], line_addr)))
        return fill_cycle

    def _record_latency(self, issue_cycle: int, done_cycle: int) -> None:
        self._stats.memory.demand_latency_sum += done_cycle - issue_cycle
        self._stats.memory.demand_latency_count += 1

    def record_hit_latency(self, latency: int) -> None:
        """Fold L1 hits into the average-latency metric (Figure 13)."""
        self._stats.memory.demand_latency_sum += latency
        self._stats.memory.demand_latency_count += 1

    def store(self, sm_id: int, line_addrs: tuple[int, ...], now: int) -> None:
        """Write-through stores: invalidate the L1 copy, consume L2 bandwidth."""
        l1 = self.l1s[sm_id]
        write = self.l2.write
        for line in line_addrs:
            l1.store(line, now)
            write(line, now)
        self._stats.memory.bytes_stored += self._line_size * len(line_addrs)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_invariants(self, now: int) -> None:
        """Conservation checks over MSHRs, fill events, and L1 accounting.

        Raises :class:`InvariantError` with a structured snapshot on the
        first violation. All checks are read-only.
        """
        pending_fills = [0] * len(self.l1s)
        for _, callback in self.events.iter_pending():
            if isinstance(callback, _L1FillEvent):
                for sm_id, l1 in enumerate(self.l1s):
                    if callback.l1 is l1:
                        pending_fills[sm_id] += 1
                        break
        for sm_id, l1 in enumerate(self.l1s):
            mshrs = l1.mshrs
            live = len(mshrs)
            if live > mshrs.capacity:
                self._violate(
                    now, f"L1[{sm_id}] holds {live} MSHR entries over "
                    f"capacity {mshrs.capacity}")
            if live != mshrs.allocated_total - mshrs.released_total:
                self._violate(
                    now, f"L1[{sm_id}] MSHR leak: {live} live entries but "
                    f"{mshrs.allocated_total} allocated - "
                    f"{mshrs.released_total} released")
            if live != pending_fills[sm_id]:
                self._violate(
                    now, f"L1[{sm_id}] has {live} in-flight MSHR entries but "
                    f"{pending_fills[sm_id]} pending fill events")
        l1_stats = self._stats.l1
        if l1_stats.hits + l1_stats.misses != l1_stats.accesses:
            self._violate(
                now, f"L1 accounting: {l1_stats.hits} hits + "
                f"{l1_stats.misses} misses != {l1_stats.accesses} accesses")
        if l1_stats.cold_misses + l1_stats.capacity_conflict_misses != l1_stats.misses:
            self._violate(
                now, f"L1 miss classes: {l1_stats.cold_misses} cold + "
                f"{l1_stats.capacity_conflict_misses} capacity/conflict != "
                f"{l1_stats.misses} misses")
        # Prefetch conservation: every prefetch that started a fill is
        # exactly one of {installed as a prefetch line, converted by a
        # demand merge while in flight, still in flight prefetch-only}.
        live_prefetch = sum(l1.mshrs.live_prefetch_only for l1 in self.l1s)
        accounted = (
            l1_stats.prefetch_fills
            + l1_stats.prefetch_demand_merged
            + live_prefetch
        )
        if l1_stats.prefetch_issued != accounted:
            self._violate(
                now, f"prefetch conservation: {l1_stats.prefetch_issued} "
                f"issued != {l1_stats.prefetch_fills} fills + "
                f"{l1_stats.prefetch_demand_merged} demand-merged + "
                f"{live_prefetch} live prefetch-only MSHRs")
        # A prefetch-filled line is useful or early-evicted at most once.
        if l1_stats.prefetch_useful + l1_stats.prefetch_early_evicted > l1_stats.prefetch_fills:
            self._violate(
                now, f"prefetch outcomes: {l1_stats.prefetch_useful} useful + "
                f"{l1_stats.prefetch_early_evicted} early-evicted > "
                f"{l1_stats.prefetch_fills} prefetch fills")

    def describe(self, now: int) -> dict:
        """JSON-ready snapshot of memory-side state (diagnostics)."""
        return {
            "event_queue_length": len(self.events),
            "events_processed": self.events.processed,
            "next_event_cycle": self.events.next_event_cycle,
            "dram_queue_depths": self.dram.queue_depths(now),
            "mshrs": [
                {
                    "sm": sm_id,
                    "live": len(l1.mshrs),
                    "capacity": l1.mshrs.capacity,
                    "allocated_total": l1.mshrs.allocated_total,
                    "released_total": l1.mshrs.released_total,
                }
                for sm_id, l1 in enumerate(self.l1s)
            ],
        }

    def _violate(self, now: int, message: str) -> None:
        raise InvariantError(
            f"memory invariant violated at cycle {now}: {message}",
            details={"cycle": now, "invariant": message, "memory": self.describe(now)},
        )
