"""Property-based tests over core invariants with hypothesis."""


from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_config
from repro.config import CacheConfig
from repro.core.laws import LAWSScheduler
from repro.isa.address import BroadcastAddress, IrregularAddress, StridedAddress
from repro.isa.instructions import alu, load
from repro.isa.program import KernelSpec
from repro.mem.cache import AccessOutcome, L1Cache
from repro.mem.request import LoadAccess
from repro.prefetch.none import NullPrefetcher
from repro.sched.lrr import LRRScheduler
from repro.sm.simulator import simulate
from repro.stats.counters import CacheStats

GB = 1 << 30


# ----------------------------------------------------------------------
# L1 cache invariants under random access/fill interleavings
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=120,
    )
)
def test_cache_invariants_hold_under_any_interleaving(ops):
    """Random demands/prefetches with immediate or deferred fills keep the
    counter algebra intact and never leak MSHRs."""
    cfg = CacheConfig(size_bytes=1024, associativity=2, num_mshrs=3, mshr_merge_limit=2)
    stats = CacheStats()
    pending = []
    l1 = L1Cache(cfg, stats, lambda line, now, pf: now + 10)
    now = 0
    for tag, warp, is_prefetch in ops:
        line = tag * 128
        now += 1
        if is_prefetch:
            if l1.prefetch(line, now):
                pending.append(line)
        else:
            outcome, _ = l1.access(line, warp, now)
            if outcome is AccessOutcome.MISS:
                pending.append(line)
            elif outcome is AccessOutcome.STALL and pending:
                l1.fill(pending.pop(0), now)
        if len(pending) == cfg.num_mshrs:
            l1.fill(pending.pop(0), now)
    for line in pending:
        l1.fill(line, now + 1)

    assert stats.accesses == stats.hits + stats.misses
    assert stats.misses == stats.cold_misses + stats.capacity_conflict_misses
    assert stats.hit_after_hit + stats.hit_after_miss <= stats.hits
    assert stats.prefetch_fills <= stats.prefetch_issued
    assert stats.prefetch_early_evicted <= stats.prefetch_fills
    assert 0.0 <= stats.early_eviction_ratio <= 1.0


# ----------------------------------------------------------------------
# LAWS queue is always a permutation of the warps
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from([0x10, 0x20, 0x30]), st.booleans()),
        max_size=80,
    )
)
def test_laws_queue_is_permutation(events):
    laws = LAWSScheduler()
    laws.reset(8)
    for warp, pc, hit in events:
        access = LoadAccess(0, warp, pc, warp * 100, (warp * 100,), hit, 0)
        laws.notify_load_result(access)
        laws.notify_prefetch_targets([warp])
    assert sorted(laws.queue) == list(range(8))
    laws.check_invariants()


# ----------------------------------------------------------------------
# End-to-end simulation invariants over random tiny kernels
# ----------------------------------------------------------------------


@st.composite
def tiny_kernels(draw):
    n_loads = draw(st.integers(1, 3))
    body = []
    for i in range(n_loads):
        kind = draw(st.sampled_from(["bcast", "strided", "irregular"]))
        base = (i + 1) * GB
        if kind == "bcast":
            gen = BroadcastAddress(base, region_bytes=512)
        elif kind == "strided":
            gen = StridedAddress(
                base,
                warp_stride=draw(st.sampled_from([0, 128, 4096])),
                iter_stride=draw(st.sampled_from([0, 128, 2048])),
                footprint_bytes=1 << 22,
            )
        else:
            gen = IrregularAddress(
                base,
                footprint_bytes=1 << 20,
                hot_bytes=1024,
                hot_fraction=draw(st.floats(0.0, 1.0)),
                lines_per_warp=draw(st.integers(1, 2)),
                seed=draw(st.integers(0, 5)),
            )
        body.append(load(0x10 + 8 * i, gen))
        body.append(alu(0x100 + 8 * i))
    iterations = draw(st.integers(1, 4))
    return KernelSpec("prop", body, iterations)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_kernels())
def test_simulation_invariants_for_random_kernels(kernel):
    cfg = make_config(max_warps=4)
    result = simulate(kernel, cfg, lambda: (LRRScheduler(), NullPrefetcher()))
    s = result.stats
    assert s.instructions == kernel.instructions_per_warp * 4
    assert s.l1.accesses == s.l1.hits + s.l1.misses
    assert s.l1.misses == s.l1.cold_misses + s.l1.capacity_conflict_misses
    assert s.memory.demand_latency_count == s.l1.accesses
    fills_started = s.l1.misses - s.l1.mshr_demand_merges + s.l1.prefetch_issued
    assert s.memory.l2_accesses == fills_started
    assert s.cycles > 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_kernels(), st.sampled_from(["lrr", "gto", "ccws", "mascar", "pa", "twolevel"]))
def test_every_scheduler_completes_every_kernel(kernel, sched_name):
    from repro.sched.registry import make_scheduler

    cfg = make_config(max_warps=4)
    result = simulate(kernel, cfg, lambda: (make_scheduler(sched_name), NullPrefetcher()))
    assert result.stats.instructions == kernel.instructions_per_warp * 4
