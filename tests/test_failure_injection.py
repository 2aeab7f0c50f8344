"""Failure injection: the simulator must stay correct under hostile
components and degenerate configurations."""

import dataclasses

import pytest

from conftest import make_config, mixed_kernel, streaming_kernel
from repro.config import CacheConfig, DRAMConfig
from repro.mem.request import LoadAccess
from repro.prefetch.base import Prefetcher, PrefetchCandidate
from repro.prefetch.none import NullPrefetcher
from repro.sched.lrr import LRRScheduler
from repro.sm.pipeline import SMCore
from repro.sm.simulator import simulate
from repro.telemetry import InMemorySink, TelemetryHub

GB = 1 << 30


class WildPrefetcher(Prefetcher):
    """Prefetches garbage addresses on every load."""

    name = "wild"

    def __init__(self, burst: int = 8):
        super().__init__()
        self._burst = burst
        self._n = 0

    def observe_load(self, access: LoadAccess) -> list[PrefetchCandidate]:
        self._n += 1
        base = (self._n * 0x9E3779B9) % (1 << 40)
        return [PrefetchCandidate(base + i * 131, target_warp=i % 4)
                for i in range(self._burst)]


class StormPrefetcher(Prefetcher):
    """Prefetches the demanded line itself plus duplicates (all droppable)."""

    name = "storm"

    def observe_load(self, access: LoadAccess) -> list[PrefetchCandidate]:
        return [PrefetchCandidate(access.primary_addr)] * 16


class AdversarialScheduler(LRRScheduler):
    """Always picks the highest warp id (worst-case fairness)."""

    def select(self, candidates, cycle):
        if not candidates:
            return None
        return max(c.warp_id for c in candidates)


class TestHostilePrefetchers:
    def test_wild_prefetcher_cannot_break_execution(self, tiny_config):
        kernel = mixed_kernel(6)
        clean = simulate(kernel, tiny_config, lambda: (LRRScheduler(), NullPrefetcher()))
        wild = simulate(kernel, tiny_config, lambda: (LRRScheduler(), WildPrefetcher()))
        assert wild.stats.instructions == clean.stats.instructions
        # Garbage prefetches never satisfy demands...
        assert wild.stats.l1.prefetch_useful == 0
        # ...and the counter algebra still holds.
        l1 = wild.stats.l1
        assert l1.accesses == l1.hits + l1.misses

    def test_wild_prefetches_are_throttled_by_mshr_guard(self, tiny_config):
        kernel = streaming_kernel(iterations=6)
        wild = simulate(kernel, tiny_config, lambda: (LRRScheduler(), WildPrefetcher(burst=32)))
        l1 = wild.stats.l1
        assert l1.prefetch_dropped > 0  # guard engaged

    def test_storm_of_duplicate_prefetches_is_dropped(self, tiny_config):
        kernel = streaming_kernel(iterations=5)
        storm = simulate(kernel, tiny_config, lambda: (LRRScheduler(), StormPrefetcher()))
        l1 = storm.stats.l1
        assert l1.prefetch_issued == 0  # line is always already in flight
        assert l1.prefetch_dropped > 0


class TestHostileSchedulers:
    def test_adversarial_order_still_completes(self, tiny_config):
        kernel = mixed_kernel(5)
        result = simulate(kernel, tiny_config,
                          lambda: (AdversarialScheduler(), NullPrefetcher()))
        assert result.stats.instructions == kernel.instructions_per_warp * 8

    def test_invalid_selection_is_an_error(self, tiny_config):
        class Liar(LRRScheduler):
            def select(self, candidates, cycle):
                return 7  # may not be ready

        kernel = mixed_kernel(2)
        # Selecting a non-candidate warp corrupts state; the simulator
        # surfaces it as an exception rather than silently mis-executing.
        with pytest.raises(Exception):
            simulate(kernel, make_config(max_warps=2), lambda: (Liar(), NullPrefetcher()))


class TestDegenerateConfigurations:
    def test_single_mshr(self):
        cfg = make_config(max_warps=4, mshrs=1)
        result = simulate(streaming_kernel(iterations=4), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.l1.reservation_fails > 0
        assert result.stats.instructions == 4 * 3 * 4

    def test_one_line_cache(self):
        cfg = make_config(max_warps=2, l1_bytes=512, mshrs=2)
        cfg = dataclasses.replace(
            cfg, l1=CacheConfig(size_bytes=128, associativity=1, num_mshrs=2)
        )
        result = simulate(mixed_kernel(3), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        l1 = result.stats.l1
        assert l1.accesses == l1.hits + l1.misses

    def test_glacial_dram(self):
        cfg = make_config(max_warps=2)
        cfg = dataclasses.replace(
            cfg, dram=DRAMConfig(num_partitions=1, latency=5000, service_cycles=50)
        )
        result = simulate(streaming_kernel(iterations=2), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.memory.avg_demand_latency > 5000

    def test_single_warp_single_sm(self):
        cfg = make_config(num_sms=1, max_warps=1)
        result = simulate(mixed_kernel(3), cfg,
                          lambda: (LRRScheduler(), NullPrefetcher()))
        assert result.stats.instructions == mixed_kernel(3).instructions_per_warp


class TargetRecorder(LRRScheduler):
    """LRR that records every promotion of prefetch target warps."""

    def __init__(self) -> None:
        super().__init__()
        self.promoted: list[list[int]] = []

    def notify_prefetch_targets(self, target_warps) -> None:
        self.promoted.append(list(target_warps))


def per_candidate_feedback(self, warp_id, pc, primary_addr, line_addrs, primary_hit, now):
    """The prefetch throttle as a per-candidate rule: read the MSHR
    occupancy before every candidate and drop it at the limit."""
    access = LoadAccess(self.sm_id, warp_id, pc, primary_addr, line_addrs, primary_hit, now)
    targets = []
    for addr, target in self._prefetcher.observe_load(access):
        if self._l1.mshr_occupancy >= SMCore.PREFETCH_MSHR_LIMIT:
            self._l1.stats.prefetch_dropped += 1
            continue
        if self._l1.prefetch(addr - addr % self._line_size, now) and target is not None:
            targets.append(target)
    if targets:
        self._scheduler.notify_prefetch_targets(targets)


def burst_run(mshrs: int, telemetry=None):
    engines: list = []

    def factory():
        pair = (TargetRecorder(), WildPrefetcher(burst=24))
        engines.append(pair[0])
        return pair

    result = simulate(streaming_kernel(iterations=6), make_config(num_sms=2, mshrs=mshrs),
                      factory, telemetry=telemetry)
    return result.stats, [sched.promoted for sched in engines]


class TestPrefetchThrottle:
    @pytest.mark.parametrize("mshrs", [2, 3, 7, 16])
    def test_matches_the_per_candidate_rule(self, mshrs, monkeypatch):
        stats, promoted = burst_run(mshrs)
        assert stats.l1.prefetch_issued > 0 and stats.l1.prefetch_dropped > 0
        monkeypatch.setattr(SMCore, "_emit_load_feedback", per_candidate_feedback)
        ref_stats, ref_promoted = burst_run(mshrs)
        assert stats.l1.prefetch_dropped == ref_stats.l1.prefetch_dropped
        assert stats.l1.prefetch_issued == ref_stats.l1.prefetch_issued
        assert promoted == ref_promoted
        assert stats.as_dict() == ref_stats.as_dict()

    def test_traced_run_drops_the_same_and_reports_each_drop(self):
        stats, promoted = burst_run(7)
        hub = TelemetryHub()
        sink = InMemorySink()
        hub.add_event_sink(sink)
        traced, traced_promoted = burst_run(7, telemetry=hub)
        assert traced.as_dict() == stats.as_dict()
        assert traced_promoted == promoted
        drops = sink.events_of_kind("prefetch_drop")
        assert len(drops) == traced.l1.prefetch_dropped
        assert any(d.reason == "mshr_pressure" for d in drops)
        assert len(sink.events_of_kind("prefetch_issue")) == traced.l1.prefetch_issued
