"""Shared last-level cache.

All SMs miss into one L2 (768 KB, 200-cycle latency in Table III). The L2
is banked with a per-bank service rate, so aggregate NoC/L2 bandwidth is
finite and heavy miss traffic queues — the congestion that makes L1 misses
expensive on real GPUs (Section I). In-flight fills are tracked so
concurrent misses from different SMs to the same line join the outstanding
fill instead of issuing duplicate DRAM reads.

Every L1 miss and every store crosses this level once per line, so
:meth:`L2Cache.access` and :meth:`L2Cache.write` each do their whole line
in one call: they install the fills that have arrived, claim the line's
bank and index the tag array's sets themselves, and a read miss claims
its DRAM partition and counts the DRAM traffic.
"""

from __future__ import annotations

import heapq

from repro.config import CacheConfig
from repro.mem.dram import DRAMModel
from repro.mem.tags import LineMeta, TagArray
from repro.stats.counters import MemoryStats
from repro.telemetry.events import DRAMRequestEvent, L2AccessEvent

#: The metadata of every L2 line: the L2 reads none of its fields.
_L2_LINE = LineMeta()


class L2Cache:
    """Single shared L2 in front of DRAM."""

    __slots__ = ("_stats", "_tags", "_sets", "_num_sets",
                 "_line_size", "_hit_latency", "_service_cycles", "_pending",
                 "_pending_heap", "_bank_free_at", "_partition_free_at",
                 "_dram_line_size", "_dram_service_cycles", "_dram_latency",
                 "telemetry")

    def __init__(self, config: CacheConfig, dram: DRAMModel, stats: MemoryStats):
        self._stats = stats
        self._tags = TagArray(config)
        #: The tag array's own dict of touched sets: the read and write
        #: paths index it in place (``(line // line_size) % num_sets``)
        #: rather than by call.
        self._sets = self._tags._sets
        self._num_sets = config.num_sets
        self._line_size = config.line_size
        self._hit_latency = config.hit_latency
        self._service_cycles = config.service_cycles
        #: line -> cycle its in-flight fill completes.
        self._pending: dict[int, int] = {}
        #: min-heap of (ready_cycle, line) mirroring ``_pending``.
        self._pending_heap: list[tuple[int, int]] = []
        self._bank_free_at = [0] * max(1, config.num_banks)
        # The DRAM's partition state (the same list) and timing, for the
        # read-miss path; its hash uses the DRAM's (L1) line size.
        self._partition_free_at = dram._partition_free_at
        self._dram_line_size = dram._line_size
        self._dram_service_cycles = dram._config.service_cycles
        self._dram_latency = dram._config.latency
        #: Telemetry hub (shared, not per-SM; set by TelemetryHub.bind).
        self.telemetry = None

    def access(self, line_addr: int, now: int) -> int:
        """Read a line on behalf of an L1 miss; returns the data-ready cycle."""
        if self._pending_heap and self._pending_heap[0][0] <= now:
            self._install_arrived(now)
        stats = self._stats
        stats.l2_accesses += 1
        idx = line_addr // self._line_size
        start = now
        service = self._service_cycles
        if service:
            # Hashed bank interleave, as repro.mem.dram explains.
            free_at = self._bank_free_at
            bank = (idx ^ (idx >> 7) ^ (idx >> 15)) % len(free_at)
            if free_at[bank] > now:
                start = free_at[bank]
            free_at[bank] = start + service
        tel = self.telemetry
        s = self._sets.get(idx % self._num_sets)
        if s is not None and line_addr in s:
            s[line_addr] = s.pop(line_addr)  # to MRU
            stats.l2_hits += 1
            if tel is not None and tel.events:
                tel.emit(L2AccessEvent(cycle=now, line_addr=line_addr, hit=True))
            return start + self._hit_latency
        if tel is not None and tel.events:
            tel.emit(L2AccessEvent(cycle=now, line_addr=line_addr, hit=False))
        ready = self._pending.get(line_addr)
        if ready is not None:
            # Join the outstanding fill; data is forwarded when it lands.
            hit_ready = start + self._hit_latency
            return ready if ready > hit_ready else hit_ready
        # DRAM read: claim the line's (hashed) partition.
        idx = line_addr // self._dram_line_size
        free_at = self._partition_free_at
        part = (idx ^ (idx >> 7) ^ (idx >> 15)) % len(free_at)
        dram_start = free_at[part]
        if dram_start < start:
            dram_start = start
        free_at[part] = dram_start + self._dram_service_cycles
        stats.dram_requests += 1
        stats.bytes_dram_to_l2 += self._dram_line_size
        if tel is not None and tel.events:
            tel.emit(DRAMRequestEvent(
                cycle=start, line_addr=line_addr, partition=part,
                queue_delay=dram_start - start))
        ready = dram_start + self._dram_latency
        self._pending[line_addr] = ready
        heapq.heappush(self._pending_heap, (ready, line_addr))
        return ready

    def write(self, line_addr: int, now: int) -> None:
        """Store traffic: consumes L2 bandwidth, coherence is write-evict."""
        if self._pending_heap and self._pending_heap[0][0] <= now:
            self._install_arrived(now)
        idx = line_addr // self._line_size
        service = self._service_cycles
        if service:
            free_at = self._bank_free_at
            bank = (idx ^ (idx >> 7) ^ (idx >> 15)) % len(free_at)
            free_at[bank] = (free_at[bank] if free_at[bank] > now else now) + service
        s = self._sets.get(idx % self._num_sets)
        if s is not None:
            s.pop(line_addr, None)

    def contains(self, line_addr: int) -> bool:
        return self._tags.probe(line_addr, update_lru=False) is not None

    def _install_arrived(self, now: int) -> None:
        """Install fills whose data has arrived by ``now``."""
        heap = self._pending_heap
        pending = self._pending
        while heap and heap[0][0] <= now:
            ready, line = heapq.heappop(heap)
            if pending.get(line) == ready:
                del pending[line]
                self._tags.insert(line, _L2_LINE)
