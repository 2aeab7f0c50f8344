"""The lean memory path: one L2/DRAM call per line, feedback only to the
engines that read it, and coalescing that returns its lines as a tuple.

* The fused ``L2Cache.access``/``write`` are checked against a test-only
  copy of the call chain they replace (``_commit_arrived``,
  ``_occupy_bank``/``bank_of``, ``TagArray.probe`` and
  ``DRAMModel.request``/``partition_of``) over random interleaved reads,
  writes and clock advances.
* A hook an engine's class does not override is never called, and one it
  does override receives every call.
* Every address generator's ``coalesced`` equals coalescing its per-lane
  addresses.
"""

from __future__ import annotations

import dataclasses
import heapq

from hypothesis import given, settings, strategies as st

import repro.sm.pipeline as pipeline
from conftest import make_config, mixed_kernel, streaming_kernel
from repro.config import CacheConfig, DRAMConfig
from repro.experiments.configs import CONFIGS
from repro.isa.address import (
    BroadcastAddress,
    IndirectAddress,
    IrregularAddress,
    StridedAddress,
)
from repro.mem.coalescer import coalesce
from repro.mem.dram import DRAMModel
from repro.mem.l2 import L2Cache
from repro.mem.request import LoadAccess
from repro.mem.tags import LineMeta, TagArray
from repro.prefetch.none import NullPrefetcher
from repro.sched.lrr import LRRScheduler
from repro.sm.simulator import simulate
from repro.stats.counters import MemoryStats
from repro.telemetry.events import DRAMRequestEvent, L2AccessEvent
from repro.workloads.synthetic import SubstepAddress

GB = 1 << 30


# ----------------------------------------------------------------------
# Reference: the L2 -> DRAM call chain before it was fused
# ----------------------------------------------------------------------


class _RefDRAM:
    def __init__(self, config: DRAMConfig, line_size: int, stats: MemoryStats):
        self._config = config
        self._line_size = line_size
        self._stats = stats
        self._partition_free_at = [0] * config.num_partitions
        self.telemetry = None

    def partition_of(self, line_addr: int) -> int:
        idx = line_addr // self._line_size
        return (idx ^ (idx >> 7) ^ (idx >> 15)) % self._config.num_partitions

    def request(self, line_addr: int, now: int) -> int:
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


class _RefL2:
    def __init__(self, config: CacheConfig, dram: _RefDRAM, stats: MemoryStats):
        self._config = config
        self._dram = dram
        self._stats = stats
        self._tags = TagArray(config)
        self._pending: dict[int, int] = {}
        self._pending_heap: list[tuple[int, int]] = []
        self._bank_free_at = [0] * max(1, config.num_banks)
        self.telemetry = None

    def bank_of(self, line_addr: int) -> int:
        idx = line_addr // self._config.line_size
        return (idx ^ (idx >> 7) ^ (idx >> 15)) % len(self._bank_free_at)

    def _occupy_bank(self, line_addr: int, now: int) -> int:
        if not self._config.service_cycles:
            return now
        bank = self.bank_of(line_addr)
        start = max(now, self._bank_free_at[bank])
        self._bank_free_at[bank] = start + self._config.service_cycles
        return start

    def access(self, line_addr: int, now: int) -> int:
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
            return max(ready, start + self._config.hit_latency)
        ready = self._dram.request(line_addr, start)
        self._pending[line_addr] = ready
        heapq.heappush(self._pending_heap, (ready, line_addr))
        return ready

    def write(self, line_addr: int, now: int) -> None:
        self._commit_arrived(now)
        self._occupy_bank(line_addr, now)
        self._tags.invalidate(line_addr)

    def _commit_arrived(self, now: int) -> None:
        while self._pending_heap and self._pending_heap[0][0] <= now:
            ready, line = heapq.heappop(self._pending_heap)
            if self._pending.get(line) == ready:
                del self._pending[line]
                self._tags.insert(line, LineMeta())


class _Recorder:
    """Hub stand-in: records every event the memory side emits."""

    events = True

    def __init__(self) -> None:
        self.seen: list[dict] = []

    def emit(self, event) -> None:
        self.seen.append(event.as_dict())


def _tag_state(tags: TagArray) -> list:
    """Every set's lines in LRU order (``None`` for an untouched set)."""
    return [None if s is None else list(s) for s in tags._sets]


# Addresses: a small pool (hits, joins and evictions) plus a wide range
# (the hash's higher bits), on the smallest line size's grid.
_addrs = st.one_of(
    st.integers(0, 63).map(lambda i: i * 32),
    st.integers(0, 1 << 17).map(lambda i: i * 32),
)
# Clock advances: mostly within a bank's or partition's service time, so
# requests queue behind each other.
_advances = st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 40))
_ops = st.lists(
    st.tuples(st.sampled_from(["read", "read", "write"]), _addrs, _advances),
    min_size=1, max_size=60,
)


@settings(max_examples=250, deadline=None)
@given(
    l2_line=st.sampled_from([64, 128, 256]),
    dram_line=st.sampled_from([32, 64, 128]),
    sets=st.sampled_from([1, 3, 4, 6]),
    assoc=st.integers(1, 3),
    banks=st.integers(1, 8),
    service=st.sampled_from([0, 0, 1, 2, 5]),
    hit_latency=st.integers(1, 60),
    partitions=st.integers(1, 6),
    dram_latency=st.integers(5, 200),
    dram_service=st.integers(1, 12),
    traced=st.booleans(),
    ops=_ops,
)
def test_fused_l2_matches_the_call_chain(l2_line, dram_line, sets, assoc, banks,
                                         service, hit_latency, partitions,
                                         dram_latency, dram_service, traced, ops):
    cache = CacheConfig(size_bytes=sets * assoc * l2_line, associativity=assoc,
                        line_size=l2_line, hit_latency=hit_latency,
                        num_banks=banks, service_cycles=service)
    dram = DRAMConfig(num_partitions=partitions, latency=dram_latency,
                      service_cycles=dram_service)
    ref_stats, new_stats = MemoryStats(), MemoryStats()
    ref = _RefL2(cache, _RefDRAM(dram, dram_line, ref_stats), ref_stats)
    new_dram = DRAMModel(dram, dram_line)
    new = L2Cache(cache, new_dram, new_stats)
    if traced:
        ref.telemetry = ref._dram.telemetry = _Recorder()
        new.telemetry = _Recorder()
    now = 0
    for kind, addr, advance in ops:
        now += advance
        if kind == "read":
            assert new.access(addr, now) == ref.access(addr, now)
        else:
            new.write(addr, now)
            ref.write(addr, now)
    assert dataclasses.asdict(new_stats) == dataclasses.asdict(ref_stats)
    assert new._bank_free_at == ref._bank_free_at
    assert new_dram._partition_free_at == ref._dram._partition_free_at
    assert new._pending == ref._pending
    assert sorted(new._pending_heap) == sorted(ref._pending_heap)
    assert _tag_state(new._tags) == _tag_state(ref._tags)
    if traced:
        assert new.telemetry.seen == ref.telemetry.seen


# ----------------------------------------------------------------------
# Feedback goes only to the engines that read it
# ----------------------------------------------------------------------


def _run_counting_load_accesses(monkeypatch, config: str):
    built: list[int] = []

    def counting(*fields):
        built.append(1)
        return LoadAccess(*fields)

    monkeypatch.setattr(pipeline, "LoadAccess", counting)
    result = simulate(mixed_kernel(iterations=6), make_config(num_sms=2),
                      CONFIGS[config].build)
    return len(built), result.stats


def test_base_sm_builds_no_load_access(monkeypatch):
    built, stats = _run_counting_load_accesses(monkeypatch, "base")
    assert stats.load_instructions > 0
    assert built == 0
    # The control: under apres the same count sees one access per load.
    built, stats = _run_counting_load_accesses(monkeypatch, "apres")
    assert built == stats.load_instructions


class _IssueCounter(LRRScheduler):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def notify_issue(self, warp_id: int, is_mem: bool, cycle: int) -> None:
        self.calls += 1


class _LoadResultCounter(LRRScheduler):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def notify_load_result(self, access: LoadAccess) -> None:
        self.calls += 1


class _MemCompleteCounter(LRRScheduler):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def notify_mem_complete(self, warp_id: int, cycle: int) -> None:
        self.calls += 1


class _EvictionCounter(LRRScheduler):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def notify_eviction(self, filler_warp: int, line_addr: int) -> None:
        self.calls += 1


class _ObserveCounter(NullPrefetcher):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def observe_load(self, access: LoadAccess) -> list:
        self.calls += 1
        return []


def _run_with(scheduler_cls=LRRScheduler, prefetcher_cls=NullPrefetcher):
    engines: list = []

    def factory():
        pair = (scheduler_cls(), prefetcher_cls())
        engines.extend(pair)
        return pair

    # 2 KB of L1 under a streaming kernel: evictions happen.
    result = simulate(streaming_kernel(iterations=6),
                      make_config(num_sms=2, l1_bytes=2 * 1024), factory)
    return sum(getattr(e, "calls", 0) for e in engines), result.stats


def test_single_hook_engines_receive_every_call():
    _, base = _run_with()
    expected = {
        _IssueCounter: base.instructions,
        _LoadResultCounter: base.load_instructions,
        _MemCompleteCounter: base.load_instructions,
        _EvictionCounter: base.l1.evictions,
    }
    assert base.l1.evictions > 0
    for cls, count in expected.items():
        calls, stats = _run_with(scheduler_cls=cls)
        assert calls == count, cls.__name__
        assert stats.as_dict() == base.as_dict(), cls.__name__
    calls, stats = _run_with(prefetcher_cls=_ObserveCounter)
    assert calls == base.load_instructions
    assert stats.as_dict() == base.as_dict()


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------

_line_sizes = st.sampled_from([32, 64, 128, 256])
_elements = st.sampled_from([1, 4, 8, 64, 300])
_lanes = st.integers(1, 32)


def _generators():
    strided = st.builds(
        StridedAddress, base=st.integers(0, GB), warp_stride=st.integers(0, 9000),
        iter_stride=st.integers(0, 5000), element_bytes=_elements,
        footprint_bytes=st.sampled_from([1 << 40, 1 << 20, 12345]),
        wrap_bytes=st.sampled_from([0, 4096, 1000]), lanes=_lanes)
    indirect = st.builds(
        IndirectAddress, base=st.integers(0, GB), warp_stride=st.integers(0, 9000),
        window_bytes=st.sampled_from([128, 2048]), iter_stride=st.integers(0, 5000),
        footprint_bytes=st.sampled_from([1 << 40, 1 << 20]),
        seed=st.integers(0, 99), element_bytes=_elements, lanes=_lanes)
    irregular = st.builds(
        IrregularAddress, base=st.integers(0, GB),
        footprint_bytes=st.sampled_from([1 << 20, 1 << 24]),
        lines_per_warp=st.integers(1, 8), seed=st.integers(0, 99),
        lanes=_lanes)
    broadcast = st.builds(BroadcastAddress, base=st.integers(0, GB),
                          element_bytes=_elements, lanes=_lanes)
    plain = st.one_of(strided, indirect, irregular, broadcast)
    substep = st.builds(SubstepAddress, plain, st.integers(0, 3), st.integers(4, 6))
    return st.one_of(plain, substep)


@settings(max_examples=300, deadline=None)
@given(gen=_generators(), warp=st.integers(0, 400), iteration=st.integers(0, 500),
       line_size=_line_sizes)
def test_coalesced_equals_coalescing_the_lanes(gen, warp, iteration, line_size):
    addresses = gen.addresses(warp, iteration)
    primary, lines = gen.coalesced(warp, iteration, line_size)
    assert type(lines) is tuple
    assert primary == addresses[0]
    assert lines == tuple(coalesce(addresses, line_size))
