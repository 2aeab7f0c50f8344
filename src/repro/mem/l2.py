"""Shared last-level cache.

All SMs miss into one L2 (768 KB, 200-cycle latency in Table III). The L2
is banked with a per-bank service rate, so aggregate NoC/L2 bandwidth is
finite and heavy miss traffic queues — the congestion that makes L1 misses
expensive on real GPUs (Section I). In-flight fills are tracked so
concurrent misses from different SMs to the same line join the outstanding
fill instead of issuing duplicate DRAM reads.
"""

from __future__ import annotations

import heapq

from repro.config import CacheConfig
from repro.mem.dram import DRAMModel
from repro.mem.tags import LineMeta, TagArray
from repro.stats.counters import MemoryStats
from repro.telemetry.events import L2AccessEvent


class L2Cache:
    """Single shared L2 in front of DRAM."""

    __slots__ = ("_config", "_dram", "_stats", "_tags", "_pending",
                 "_pending_heap", "_bank_free_at", "telemetry")

    def __init__(self, config: CacheConfig, dram: DRAMModel, stats: MemoryStats):
        self._config = config
        self._dram = dram
        self._stats = stats
        self._tags = TagArray(config)
        #: line -> cycle its in-flight fill completes.
        self._pending: dict[int, int] = {}
        #: min-heap of (ready_cycle, line) mirroring ``_pending``.
        self._pending_heap: list[tuple[int, int]] = []
        self._bank_free_at = [0] * max(1, config.num_banks)
        #: Telemetry hub (shared, not per-SM; set by TelemetryHub.bind).
        self.telemetry = None

    def bank_of(self, line_addr: int) -> int:
        # Hashed interleave, matching the DRAM partition mapping rationale.
        idx = line_addr // self._config.line_size
        return (idx ^ (idx >> 7) ^ (idx >> 15)) % len(self._bank_free_at)

    def _occupy_bank(self, line_addr: int, now: int) -> int:
        """Claim a bank slot; returns the cycle service starts."""
        if not self._config.service_cycles:
            return now
        bank = self.bank_of(line_addr)
        start = max(now, self._bank_free_at[bank])
        self._bank_free_at[bank] = start + self._config.service_cycles
        return start

    def access(self, line_addr: int, now: int) -> int:
        """Read a line on behalf of an L1 miss; returns the data-ready cycle."""
        self._commit_arrived(now)
        self._stats.l2_accesses += 1
        start = self._occupy_bank(line_addr, now)
        tel = self.telemetry
        if self._tags.probe(line_addr) is not None:
            self._stats.l2_hits += 1
            if tel is not None and tel.events:
                tel.emit(L2AccessEvent(cycle=now, line_addr=line_addr, hit=True))
            return start + self._config.hit_latency
        if tel is not None and tel.events:
            tel.emit(L2AccessEvent(cycle=now, line_addr=line_addr, hit=False))
        ready = self._pending.get(line_addr)
        if ready is not None:
            # Join the outstanding fill; data is forwarded when it lands.
            return max(ready, start + self._config.hit_latency)
        ready = self._dram.request(line_addr, start)
        self._pending[line_addr] = ready
        heapq.heappush(self._pending_heap, (ready, line_addr))
        return ready

    def write(self, line_addr: int, now: int) -> None:
        """Store traffic: consumes L2 bandwidth, coherence is write-evict."""
        self._commit_arrived(now)
        self._occupy_bank(line_addr, now)
        self._tags.invalidate(line_addr)

    def contains(self, line_addr: int) -> bool:
        return self._tags.probe(line_addr, update_lru=False) is not None

    def _commit_arrived(self, now: int) -> None:
        """Install fills whose data has arrived by ``now``."""
        while self._pending_heap and self._pending_heap[0][0] <= now:
            ready, line = heapq.heappop(self._pending_heap)
            if self._pending.get(line) == ready:
                del self._pending[line]
                self._tags.insert(line, LineMeta())
