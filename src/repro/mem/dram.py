"""Partitioned off-chip DRAM with fixed latency plus bandwidth queuing.

Each of the 6 partitions (Table III) serves one 128-byte line every
``service_cycles``; requests that arrive while a partition is busy wait, so
queuing delay — the paper's key memory-pressure effect (Section I) —
emerges from contention rather than being a fixed constant.

A read is served by :meth:`repro.mem.l2.L2Cache.access`, which claims the
line's partition in this model's ``_partition_free_at`` itself. Partitions
are hashed: ``idx ^ (idx >> 7) ^ (idx >> 15)`` of the line index, modulo
the partition count. Real GPUs XOR higher address bits into the partition
index so that power-of-two strides do not camp on one partition; a linear
mapping would serialise any warp whose stride is a multiple of
``num_partitions * line_size``.
"""

from __future__ import annotations

from repro.config import DRAMConfig


class DRAMModel:
    """Latency + per-partition service-rate model of device memory."""

    __slots__ = ("_config", "_line_size", "_partition_free_at")

    def __init__(self, config: DRAMConfig, line_size: int):
        self._config = config
        self._line_size = line_size
        self._partition_free_at = [0] * config.num_partitions

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
