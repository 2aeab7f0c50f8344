"""Shared L2 and DRAM timing: latency, queuing, pending-fill joins."""

from repro.config import CacheConfig, DRAMConfig
from repro.mem.dram import DRAMModel
from repro.mem.l2 import L2Cache
from repro.stats.counters import MemoryStats


def make_l2(hit_latency=50, banks=2, service=0, size=4 * 1024, dram=None):
    stats = MemoryStats()
    cfg = CacheConfig(size_bytes=size, associativity=4, hit_latency=hit_latency,
                      num_banks=banks, service_cycles=service)
    dram = dram or make_dram()
    return L2Cache(cfg, dram, stats), stats


def make_dram(partitions=2, latency=100, service=10):
    return DRAMModel(DRAMConfig(partitions, latency, service), 128)


class TestDRAM:
    """DRAM timing as an L2 read miss sees it: the L2 claims the line's
    partition itself."""

    def test_unloaded_latency(self):
        l2, _ = make_l2(dram=make_dram(latency=100))
        assert l2.access(0, now=5) == 105

    def test_same_partition_queues(self):
        l2, _ = make_l2(dram=make_dram(partitions=1, latency=100, service=10))
        assert l2.access(0, 0) == 100
        # Second request waits for the partition to free up.
        assert l2.access(128, 0) == 110

    def test_different_partitions_parallel(self):
        l2, _ = make_l2(dram=make_dram(partitions=4, latency=100, service=10))
        # Line indices 0 and 1 hash to partitions 0 and 1.
        assert [l2.access(0, 0), l2.access(128, 0)] == [100, 100]

    def test_traffic_counted(self):
        l2, stats = make_l2()
        l2.access(0, 0)
        l2.access(1024, 0)
        assert stats.dram_requests == 2
        assert stats.bytes_dram_to_l2 == 256

    def test_queue_depths_diagnostic(self):
        dram = make_dram(partitions=1, service=10)
        l2, _ = make_l2(dram=dram)
        assert dram.queue_depths(0) == [0] and dram.busy_partitions(0) == 0
        l2.access(0, 0)
        assert dram.queue_depths(0) == [10] and dram.busy_partitions(0) == 1

    def test_hashed_partitions_spread_large_power_of_two_strides(self):
        l2, _ = make_l2(dram=make_dram(partitions=6, latency=100, service=10))
        times = [l2.access(i * 6 * 128, 0) for i in range(32)]
        # A linear mapping would camp on one partition and serialise them.
        assert times.count(100) > 1


class TestL2:
    def test_miss_goes_to_dram(self):
        l2, stats = make_l2()
        ready = l2.access(0, 0)
        assert ready == 100  # DRAM latency
        assert stats.l2_accesses == 1
        assert stats.l2_hits == 0

    def test_hit_after_fill_arrives(self):
        l2, stats = make_l2(hit_latency=50)
        l2.access(0, 0)             # miss; fill lands at 100
        ready = l2.access(0, 500)   # well after the fill
        assert ready == 550
        assert stats.l2_hits == 1

    def test_concurrent_miss_joins_pending_fill(self):
        l2, stats = make_l2()
        first = l2.access(0, 0)
        second = l2.access(0, 10)
        assert second == max(first, 10 + 50)
        assert stats.dram_requests == 1  # no duplicate DRAM read

    def test_bank_service_queues(self):
        l2, _ = make_l2(banks=1, service=8)
        l2.access(0, 0)
        # Resident after fill; two back-to-back hits serialise on the bank.
        t1 = l2.access(0, 1000)
        t2 = l2.access(0, 1000)
        assert t2 == t1 + 8

    def test_write_invalidates(self):
        l2, stats = make_l2()
        l2.access(0, 0)
        assert l2.contains(0) or True  # may still be pending
        l2.access(0, 500)  # commit the fill, now resident
        assert l2.contains(0)
        l2.write(0, 600)
        assert not l2.contains(0)

    def test_zero_service_is_unlimited(self):
        l2, _ = make_l2(banks=1, service=0)
        l2.access(0, 0)
        t1 = l2.access(0, 1000)
        t2 = l2.access(0, 1000)
        assert t1 == t2
