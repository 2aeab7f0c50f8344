"""L1 cache behaviour: hit/miss/merge/stall paths, miss classification,
hit-after-hit accounting and prefetch bookkeeping."""


from repro.config import CacheConfig
from repro.mem.cache import AccessOutcome, L1Cache
from repro.mem.tags import LineMeta
from repro.stats.counters import CacheStats


class Harness:
    """L1 wired to a scripted downstream that records forwarded misses."""

    def __init__(self, sets=2, ways=2, mshrs=4, merge=2, fill_delay=100):
        self.cfg = CacheConfig(
            size_bytes=sets * ways * 128,
            associativity=ways,
            num_mshrs=mshrs,
            mshr_merge_limit=merge,
        )
        self.stats = CacheStats()
        self.forwarded = []
        self.fill_delay = fill_delay
        self.l1 = L1Cache(self.cfg, self.stats, self._forward)

    def _forward(self, line, now, is_prefetch):
        self.forwarded.append((line, now, is_prefetch))
        return now + self.fill_delay

    def miss_then_fill(self, line, warp=0, now=0):
        outcome, _ = self.l1.access(line, warp, now)
        assert outcome is AccessOutcome.MISS
        self.l1.fill(line, now + self.fill_delay)


class TestDemandPath:
    def test_cold_miss_then_hit(self):
        h = Harness()
        outcome, ready = h.l1.access(0, 0, 10)
        assert outcome is AccessOutcome.MISS
        assert ready is None
        assert h.forwarded == [(0, 10, False)]
        h.l1.fill(0, 50)
        outcome, ready = h.l1.access(0, 0, 60)
        assert outcome is AccessOutcome.HIT
        assert ready == 60 + h.cfg.hit_latency

    def test_merge_into_inflight(self):
        h = Harness()
        done = []
        h.l1.access(0, 0, 0)
        outcome, _ = h.l1.access(0, 1, 5, on_fill=done.append)
        assert outcome is AccessOutcome.MERGED
        assert len(h.forwarded) == 1  # one downstream fetch
        h.l1.fill(0, 100)
        assert done == [100]

    def test_merge_limit_stalls(self):
        h = Harness(merge=1)
        h.l1.access(0, 0, 0)
        outcome, _ = h.l1.access(0, 1, 1)
        assert outcome is AccessOutcome.STALL
        assert h.stats.reservation_fails == 1

    def test_mshr_exhaustion_stalls(self):
        h = Harness(mshrs=2)
        h.l1.access(0 * 128, 0, 0)
        h.l1.access(1 * 128, 0, 0)
        outcome, _ = h.l1.access(2 * 128, 0, 0)
        assert outcome is AccessOutcome.STALL

    def test_stall_commits_nothing(self):
        h = Harness(mshrs=1)
        h.l1.access(0, 0, 0)
        before = (h.stats.accesses, h.stats.misses)
        h.l1.access(128, 0, 0)
        assert (h.stats.accesses, h.stats.misses) == before

    def test_fill_wakes_all_merged_requests(self):
        h = Harness()
        done = []
        h.l1.access(0, 0, 0, on_fill=lambda t: done.append(("a", t)))
        h.l1.access(0, 1, 1, on_fill=lambda t: done.append(("b", t)))
        h.l1.fill(0, 100)
        assert done == [("a", 100), ("b", 100)]


class TestMissClassification:
    def test_first_touch_is_cold(self):
        h = Harness()
        h.l1.access(0, 0, 0)
        assert h.stats.cold_misses == 1
        assert h.stats.capacity_conflict_misses == 0

    def test_evicted_line_remisses_as_capacity_conflict(self):
        h = Harness(sets=1, ways=1)
        h.miss_then_fill(0 * 128)
        h.miss_then_fill(1 * 128)  # evicts line 0
        outcome, _ = h.l1.access(0 * 128, 0, 500)
        assert outcome is AccessOutcome.MISS
        assert h.stats.capacity_conflict_misses == 1

    def test_hit_is_not_classified(self):
        h = Harness()
        h.miss_then_fill(0)
        h.l1.access(0, 0, 500)
        assert h.stats.cold_misses == 1
        assert h.stats.capacity_conflict_misses == 0


class TestHitAfterTracking:
    def test_hit_after_hit(self):
        h = Harness()
        h.miss_then_fill(0)
        h.l1.access(0, 0, 200)
        h.l1.access(0, 1, 210)
        assert h.stats.hit_after_miss == 1
        assert h.stats.hit_after_hit == 1

    def test_counts_stack_with_misses(self):
        h = Harness()
        h.miss_then_fill(0)
        for t in range(5):
            h.l1.access(0, 0, 200 + t)
        s = h.stats
        assert s.hits == 5
        assert s.hit_after_hit + s.hit_after_miss == 5
        assert s.accesses == s.hits + s.misses


class TestPrefetchPath:
    def test_prefetch_allocates_and_fills(self):
        h = Harness()
        assert h.l1.prefetch(0, 0)
        assert h.stats.prefetch_issued == 1
        assert h.forwarded == [(0, 0, True)]
        h.l1.fill(0, 100)
        assert h.stats.prefetch_fills == 1

    def test_prefetch_dropped_if_resident(self):
        h = Harness()
        h.miss_then_fill(0)
        assert not h.l1.prefetch(0, 300)
        assert h.stats.prefetch_dropped == 1

    def test_prefetch_dropped_if_inflight(self):
        h = Harness()
        h.l1.access(0, 0, 0)
        assert not h.l1.prefetch(0, 1)
        assert h.stats.prefetch_dropped == 1

    def test_prefetch_dropped_when_mshrs_full(self):
        h = Harness(mshrs=1)
        h.l1.access(0, 0, 0)
        assert not h.l1.prefetch(128, 1)
        assert h.stats.prefetch_dropped == 1

    def test_demand_merging_into_prefetch_counted(self):
        h = Harness()
        h.l1.prefetch(0, 0)
        outcome, _ = h.l1.access(0, 0, 10)
        assert outcome is AccessOutcome.MERGED
        assert h.stats.prefetch_demand_merged == 1

    def test_first_hit_on_prefetched_line_is_useful(self):
        h = Harness()
        h.l1.prefetch(0, 0)
        h.l1.fill(0, 100)
        h.l1.access(0, 0, 150)
        h.l1.access(0, 1, 160)
        assert h.stats.prefetch_useful == 1  # only the first touch counts

    def test_hit_on_prefetched_line_leaves_it_referenced_at_mru(self):
        h = Harness(sets=1, ways=2)
        for line in (0, 128):
            h.l1.prefetch(line, 0)
            h.l1.fill(line, 100)
        h.l1.access(0, 3, 150)
        h.l1.access(0, 1, 160)
        assert h.stats.prefetch_useful == 1
        tags = h.l1._tags
        assert tags.probe(0, update_lru=False) == LineMeta(-1, True, True)
        assert tags.probe(128, update_lru=False) == LineMeta(-1, True, False)
        assert list(tags._sets[0]) == [128, 0]

    def test_fills_with_equal_metadata_share_it(self):
        h = Harness(sets=2, ways=2)
        h.miss_then_fill(0, warp=3)
        h.miss_then_fill(128, warp=3, now=5)
        h.miss_then_fill(256, warp=4, now=10)
        tags = h.l1._tags
        first, second, other = (tags.probe(a, update_lru=False) for a in (0, 128, 256))
        assert first is second
        assert first == LineMeta(3, False, True)
        assert other == LineMeta(4, False, True)

    def test_unused_prefetch_evicted_is_early(self):
        h = Harness(sets=1, ways=1)
        h.l1.prefetch(0 * 128, 0)
        h.l1.fill(0 * 128, 100)
        h.miss_then_fill(1 * 128, now=200)  # evicts the prefetched line
        assert h.stats.prefetch_early_evicted == 1

    def test_used_prefetch_eviction_is_not_early(self):
        h = Harness(sets=1, ways=1)
        h.l1.prefetch(0 * 128, 0)
        h.l1.fill(0 * 128, 100)
        h.l1.access(0 * 128, 0, 150)
        h.miss_then_fill(1 * 128, now=200)
        assert h.stats.prefetch_early_evicted == 0

    def test_merged_demand_makes_line_not_early(self):
        h = Harness(sets=1, ways=1)
        h.l1.prefetch(0 * 128, 0)
        h.l1.access(0 * 128, 0, 10)  # merges into the prefetch
        h.l1.fill(0 * 128, 100)
        h.miss_then_fill(1 * 128, now=200)
        assert h.stats.prefetch_early_evicted == 0


class TestStore:
    def test_store_invalidates(self):
        h = Harness()
        h.miss_then_fill(0)
        h.l1.store(0)
        outcome, _ = h.l1.access(0, 0, 500)
        assert outcome is AccessOutcome.MISS

    def test_store_counts_eviction(self):
        h = Harness()
        h.miss_then_fill(0)
        h.l1.store(0)
        assert h.stats.evictions == 1

    def test_store_to_absent_line_is_noop(self):
        h = Harness()
        h.l1.store(0)
        assert h.stats.evictions == 0


class TestEvictionListener:
    def test_listener_receives_filler_warp(self):
        h = Harness(sets=1, ways=1)
        seen = []
        h.l1.eviction_listener = lambda warp, line: seen.append((warp, line))
        h.miss_then_fill(0 * 128, warp=3)
        h.miss_then_fill(1 * 128, warp=4)
        assert seen == [(3, 0)]

    def test_prefetch_fills_not_reported(self):
        h = Harness(sets=1, ways=1)
        seen = []
        h.l1.eviction_listener = lambda warp, line: seen.append((warp, line))
        h.l1.prefetch(0, 0)
        h.l1.fill(0, 100)
        h.miss_then_fill(1 * 128, warp=4, now=200)
        assert seen == []  # filler_warp is -1 for pure prefetch fills
