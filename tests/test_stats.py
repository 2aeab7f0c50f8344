"""Statistics counters and the energy model."""

from repro.stats.counters import CacheStats, MemoryStats, SimStats
from repro.stats.energy import EnergyCosts, EnergyModel


class TestCacheStats:
    def test_ratios_zero_when_empty(self):
        s = CacheStats()
        assert s.miss_rate == 0.0
        assert s.hit_rate == 0.0
        assert s.early_eviction_ratio == 0.0

    def test_miss_rate(self):
        s = CacheStats(accesses=10, hits=7, misses=3)
        assert s.miss_rate == 0.3
        assert s.hit_rate == 0.7

    def test_breakdown_ratios(self):
        s = CacheStats(accesses=10, misses=4, cold_misses=1, capacity_conflict_misses=3)
        assert s.cold_miss_ratio == 0.1
        assert s.capacity_conflict_ratio == 0.3

    def test_early_eviction_ratio_definition(self):
        s = CacheStats(prefetch_useful=6, prefetch_demand_merged=2,
                       prefetch_early_evicted=2)
        assert s.early_eviction_ratio == 0.2


class TestMemoryStats:
    def test_avg_latency(self):
        m = MemoryStats(demand_latency_sum=300, demand_latency_count=3)
        assert m.avg_demand_latency == 100

    def test_avg_latency_empty(self):
        assert MemoryStats().avg_demand_latency == 0.0

    def test_total_traffic(self):
        m = MemoryStats(bytes_l2_to_l1=1000, bytes_stored=500)
        assert m.total_traffic_bytes == 1500


class TestSimStats:
    def test_ipc(self):
        s = SimStats(cycles=100, instructions=50)
        assert s.ipc == 0.5

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0


class TestEnergyModel:
    def test_zero_run_zero_energy(self):
        report = EnergyModel().report(SimStats())
        assert report.total == 0.0

    def test_dram_dominates_memory_heavy_runs(self):
        s = SimStats(cycles=100, instructions=100, alu_instructions=50)
        s.memory.dram_requests = 1000
        report = EnergyModel().report(s)
        assert report.dram > report.core
        assert report.dram > report.l1 + report.l2

    def test_apres_events_are_cheap(self):
        s = SimStats(cycles=10_000, instructions=10_000, alu_instructions=5000)
        s.l1.accesses = 5000
        s.memory.l2_accesses = 2000
        s.memory.dram_requests = 1000
        with_apres = EnergyModel().report(s, apres_events=10_000)
        without = EnergyModel().report(s, apres_events=0)
        overhead = (with_apres.total - without.total) / without.total
        assert overhead < 0.03  # the paper bounds APRES's energy adder at 3%

    def test_custom_costs(self):
        costs = EnergyCosts(alu_op=1.0, issue=0.0, sm_cycle=0.0)
        s = SimStats(alu_instructions=10)
        report = EnergyModel(costs).report(s)
        assert report.core == 10.0

    def test_total_is_sum_of_parts(self):
        s = SimStats(cycles=10, instructions=10, alu_instructions=5)
        s.l1.accesses = 7
        s.memory.l2_accesses = 3
        s.memory.dram_requests = 2
        r = EnergyModel().report(s, apres_events=4)
        assert abs(r.total - (r.core + r.l1 + r.l2 + r.dram + r.apres)) < 1e-9
