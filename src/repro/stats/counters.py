"""Counter bundles updated by the simulator.

One :class:`SimStats` is shared by all SMs of a simulation; figures in the
paper report per-benchmark aggregates, so counters are aggregated rather
than kept per SM. Derived metrics (ratios, IPC) are provided as properties
so raw counters stay the single source of truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """L1 data-cache counters (demand accesses unless noted)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    cold_misses: int = 0
    capacity_conflict_misses: int = 0
    #: Hits whose immediately preceding access (to this cache) also hit.
    hit_after_hit: int = 0
    hit_after_miss: int = 0
    mshr_demand_merges: int = 0
    #: Access replays because no MSHR could be allocated or merged.
    reservation_fails: int = 0
    evictions: int = 0
    # Prefetch accounting (Figures 4 and 12).
    prefetch_issued: int = 0
    #: Prefetches dropped because the line was present/in-flight or no MSHR.
    prefetch_dropped: int = 0
    prefetch_fills: int = 0
    #: Prefetch-filled lines that served at least one demand hit.
    prefetch_useful: int = 0
    #: Demand requests that merged into a prefetch-initiated MSHR entry.
    prefetch_demand_merged: int = 0
    #: Prefetch-filled lines evicted before any demand touched them.
    prefetch_early_evicted: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def cold_miss_ratio(self) -> float:
        """Cold misses over all demand accesses (Figure 2/11 stack segment)."""
        return self.cold_misses / self.accesses if self.accesses else 0.0

    @property
    def capacity_conflict_ratio(self) -> float:
        return self.capacity_conflict_misses / self.accesses if self.accesses else 0.0

    @property
    def hit_after_hit_ratio(self) -> float:
        return self.hit_after_hit / self.accesses if self.accesses else 0.0

    @property
    def early_eviction_ratio(self) -> float:
        """Early evictions over correctly prefetched lines (Section III-C).

        A correct prefetch either served a demand (hit or MSHR merge) or was
        evicted before the demand arrived; mispredicted-and-unused lines are
        excluded by construction of the accounting.
        """
        correct = self.prefetch_useful + self.prefetch_demand_merged + self.prefetch_early_evicted
        return self.prefetch_early_evicted / correct if correct else 0.0



@dataclass
class MemoryStats:
    """Interconnect / DRAM counters."""

    #: Sum and count of demand load latencies (issue to data ready), hits included.
    demand_latency_sum: int = 0
    demand_latency_count: int = 0
    #: Bytes filled from L2 into any L1 (includes prefetch fills).
    bytes_l2_to_l1: int = 0
    bytes_dram_to_l2: int = 0
    bytes_stored: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_requests: int = 0

    @property
    def avg_demand_latency(self) -> float:
        if not self.demand_latency_count:
            return 0.0
        return self.demand_latency_sum / self.demand_latency_count

    @property
    def total_traffic_bytes(self) -> int:
        """Data moved toward the SMs plus store traffic (Figure 14)."""
        return self.bytes_l2_to_l1 + self.bytes_stored



@dataclass
class SimStats:
    """Top-level statistics for one simulation run."""

    cycles: int = 0
    instructions: int = 0
    alu_instructions: int = 0
    load_instructions: int = 0
    store_instructions: int = 0
    #: Cycles in which an SM had no ready warp to issue.
    idle_cycles: int = 0
    #: Load/store issues rejected because the LSU replay queue was busy.
    lsu_structural_stalls: int = 0
    #: Invariant sweeps executed by the integrity layer (diagnostic only).
    integrity_checks: int = 0
    l1: CacheStats = field(default_factory=CacheStats)
    memory: MemoryStats = field(default_factory=MemoryStats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> dict:
        """Raw counters as a JSON-serialisable nested dict.

        The sweep runner's JSONL records and the watchdog's dumps both use
        this, so on-disk results stay diffable between runs.
        """
        return dataclasses.asdict(self)
