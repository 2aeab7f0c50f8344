"""Partitioned off-chip DRAM with fixed latency plus bandwidth queuing.

Each of the 6 partitions (Table III) serves one 128-byte line every
``service_cycles``; requests that arrive while a partition is busy wait, so
queuing delay — the paper's key memory-pressure effect (Section I) —
emerges from contention rather than being a fixed constant.
"""

from __future__ import annotations

from repro.config import DRAMConfig
from repro.stats.counters import MemoryStats
from repro.telemetry.events import DRAMRequestEvent


class DRAMModel:
    """Latency + per-partition service-rate model of device memory."""

    __slots__ = ("_config", "_line_size", "_stats", "_partition_free_at",
                 "telemetry")

    def __init__(self, config: DRAMConfig, line_size: int, stats: MemoryStats):
        self._config = config
        self._line_size = line_size
        self._stats = stats
        self._partition_free_at = [0] * config.num_partitions
        #: Telemetry hub (shared, not per-SM; set by TelemetryHub.bind).
        self.telemetry = None

    def partition_of(self, line_addr: int) -> int:
        """Hashed partition mapping.

        Real GPUs XOR higher address bits into the partition index so that
        power-of-two strides do not camp on one partition; a linear mapping
        would serialise any warp whose stride is a multiple of
        ``num_partitions * line_size``.
        """
        idx = line_addr // self._line_size
        return (idx ^ (idx >> 7) ^ (idx >> 15)) % self._config.num_partitions

    def request(self, line_addr: int, now: int) -> int:
        """Schedule a line read; returns the cycle its data reaches L2."""
        part = self.partition_of(line_addr)
        start = max(now, self._partition_free_at[part])
        self._partition_free_at[part] = start + self._config.service_cycles
        self._stats.dram_requests += 1
        self._stats.bytes_dram_to_l2 += self._line_size
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(DRAMRequestEvent(
                cycle=now, line_addr=line_addr, partition=part,
                queue_delay=start - now))
        return start + self._config.latency

    def queue_delay(self, line_addr: int, now: int) -> int:
        """Cycles a request arriving ``now`` would wait (diagnostic)."""
        return max(0, self._partition_free_at[self.partition_of(line_addr)] - now)

    def busy_partitions(self, now: int) -> int:
        """How many partitions still have queued service at ``now``.

        The stall-attribution engine uses this to split memory stalls into
        bandwidth queuing (``dram_queue``) vs pure latency (``l1_pending``).
        """
        return sum(1 for free_at in self._partition_free_at if free_at > now)

    def queue_depths(self, now: int) -> list[int]:
        """Per-partition busy cycles remaining at ``now`` (diagnostic).

        The watchdog folds this into its dump so a hang can be told apart
        from a merely saturated memory system.
        """
        return [max(0, free_at - now) for free_at in self._partition_free_at]
