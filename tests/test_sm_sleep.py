"""Sleeping SMs: the event-driven serial loop against an every-SM reference.

``GPUSimulator._tick`` skips an SM whose ``sleep_until`` lies in the
future and only counts its idle cycle, and ``SMCore.cycle`` offers the
scheduler its ready list, filled from a wake heap. ``ReferenceSimulator``
below keeps the loop that runs every SM on every tick with a scan over
*all* its warps, and computes every SM's wake hint the same way; it reads
warp state only, never the ready list or the heap. Both must produce
identical statistics, engine events and stall attribution.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvariantError, SimulationError
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.isa.address import BroadcastAddress, StridedAddress
from repro.isa.instructions import alu, load, store
from repro.isa.program import KernelSpec
from repro.sched.base import IssueCandidate
from repro.sched.lrr import LRRScheduler
from repro.sm.pipeline import SLEEP_FOREVER, SMCore
from repro.sm.simulator import GPUSimulator
from repro.telemetry import TelemetryHub

GB = 1 << 30
KB = 1 << 10
MB = 1 << 20

ENGINES = ("base", "gto", "gto+sld", "ccws+str", "apres")
SM_COUNTS = (1, 2, 15)
L1_SIZES = (32 * KB, 32 * MB)


def full_scan_cycle(sm: SMCore, now: int) -> bool:
    """``SMCore.cycle`` as it was before the ready list: every warp is
    scanned and the finished and outstanding ones are skipped in place."""
    replay = sm._replay
    if replay:
        sm._process_replay(now)
    lsu_blocked = len(replay) >= sm.LSU_QUEUE_DEPTH
    tel = sm._telemetry
    stats = sm._stats
    gate_base = stats.lsu_structural_stalls
    candidates = []
    wake = SLEEP_FOREVER
    for w in sm.warps:
        if w.finished or w.outstanding:
            continue
        if w.ready_at > now:
            wake = min(wake, w.ready_at)
            continue
        is_mem = sm._is_mem_at[w.pc_index]
        if is_mem and lsu_blocked:
            stats.lsu_structural_stalls += 1
            continue
        candidates.append(IssueCandidate(w.warp_id, is_mem))
    if not candidates:
        stats.idle_cycles += 1
        if not replay:
            sm.sleep_until = wake
        if tel is not None:
            tel.on_idle(sm, now, stats.lsu_structural_stalls - gate_base)
        return False
    chosen = sm._scheduler.select(candidates, now)
    if chosen is None:
        stats.idle_cycles += 1
        if tel is not None:
            tel.on_throttle(now)
        return False
    warp = sm.warps[chosen]
    sm._issue(warp, warp.current_instr, now)
    return True


def full_scan_wake_hint(sm: SMCore, now: int) -> Optional[int]:
    hints = [w.ready_at for w in sm.warps
             if not (w.finished or w.outstanding) and w.ready_at > now]
    return min(hints, default=None)


def full_scan_pending_work(sm: SMCore, now: int) -> bool:
    return bool(sm._replay) or any(
        not (w.finished or w.outstanding) and w.ready_at <= now for w in sm.warps)


class ReferenceSimulator(GPUSimulator):
    """The serial loop before sleeping SMs and the ready list: every SM
    cycles every tick over all of its warps."""

    def _tick(self) -> None:
        now = self._now
        events = self._subsystem.events
        events.run_until(now)
        issued_any = False
        for sm in self._sms:
            issued_any |= full_scan_cycle(sm, now)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_tick(now)
        if all(sm.done for sm in self._sms) and not len(events):
            self._now = now + 1
            self._prev_cycle = now
            self._finished = True
            self.stats.cycles = self._now
            if telemetry is not None:
                telemetry.finish(self.stats)
            return
        if self._integrity is not None:
            self._integrity.maybe_check(self, now)
        self.watchdog.observe(self, now)
        if now >= self._config.max_cycles:
            self.watchdog.budget_exceeded(self, now, self._config.max_cycles)
        self._now = now + 1 if issued_any else self._fast_forward(now)
        self._prev_cycle = now

    def _fast_forward(self, now: int) -> int:
        wake: Optional[int] = self._subsystem.events.next_event_cycle
        for sm in self._sms:
            hint = full_scan_wake_hint(sm, now)
            if hint is not None and (wake is None or hint < wake):
                wake = hint
        if wake is None:
            raise SimulationError(f"reference loop deadlocked at cycle {now}")
        if wake <= now:
            return now + 1
        skipped = wake - now - 1
        if skipped > 0:
            self.stats.idle_cycles += skipped * len(self._sms)
            if self.telemetry is not None:
                self.telemetry.on_skip(skipped)
        return wake


def reuse_kernel(iterations: int = 4) -> KernelSpec:
    """Per-warp reuse that fits 32 MB but not 32 KB, plus dependent ALU
    chains, a two-line load (MSHR pressure fills the replay queue) and a
    store."""
    private = StridedAddress(GB, warp_stride=2048, iter_stride=128, wrap_bytes=256)
    divergent = StridedAddress(2 * GB, warp_stride=4096, iter_stride=256,
                               element_bytes=8, wrap_bytes=512)
    shared = BroadcastAddress(3 * GB, region_bytes=512)
    out = StridedAddress(4 * GB, warp_stride=128, iter_stride=8192)
    return KernelSpec(
        "reuse",
        [load(0x10, private), alu(0x18), load(0x20, divergent), alu(0x28),
         alu(0x30), load(0x38, shared), store(0x40, out)],
        iterations,
    )


def outcome(sim: GPUSimulator) -> tuple[dict, int]:
    result = sim.run()
    return result.stats.as_dict(), result.engine_events


def build(cls, engine: str, num_sms: int, l1_bytes: int, **kwargs) -> GPUSimulator:
    """The experiments' machine with 16 warps per SM, to keep 15 SMs quick."""
    config = dataclasses.replace(
        experiment_gpu_config(num_sms).with_l1_size(l1_bytes), max_warps_per_sm=16
    )
    return cls(reuse_kernel(), config, CONFIGS[engine].build, **kwargs)


@pytest.mark.parametrize("l1_bytes", L1_SIZES)
@pytest.mark.parametrize("num_sms", SM_COUNTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_matches_every_sm_reference(engine, num_sms, l1_bytes):
    new = outcome(build(GPUSimulator, engine, num_sms, l1_bytes))
    ref = outcome(build(ReferenceSimulator, engine, num_sms, l1_bytes))
    assert new == ref


def test_kernel_separates_the_l1_sizes_and_sleeps():
    small = build(GPUSimulator, "base", 2, 32 * KB)
    asleep_at(small)
    large = build(GPUSimulator, "base", 2, 32 * MB)
    assert small.run().stats.l1.misses > large.run().stats.l1.misses


@pytest.mark.parametrize("engine", ("base", "ccws+str", "apres"))
def test_stall_telemetry_matches_reference(engine):
    reports = []
    for cls in (GPUSimulator, ReferenceSimulator):
        hub = TelemetryHub()
        sim = build(cls, engine, 15, 32 * KB, telemetry=hub)
        stats = sim.run().stats
        report = hub.reconcile(stats)
        assert sum(report["by_cause"].values()) == stats.idle_cycles
        reports.append((stats.as_dict(), report))
    assert reports[0] == reports[1]


def asleep_at(sim: GPUSimulator) -> int:
    """Step ``sim`` to the first cycle at which some SM sleeps past it."""
    while not sim.step_until(sim.current_cycle + 1):
        now = sim.current_cycle
        if any(now < sm.sleep_until < SLEEP_FOREVER for sm in sim.sms):
            return now
    raise AssertionError("no SM ever slept")


@pytest.mark.parametrize("engine", ("base", "apres"))
def test_wake_queries_match_a_full_scan(engine):
    # Between ticks, warps that are due may still wait in the wake heap:
    # both queries must treat them as ready, as the full scan does.
    sim = build(GPUSimulator, engine, 2, 32 * KB)
    while not sim.step_until(sim.current_cycle + 1):
        now = sim.current_cycle
        for sm in sim.sms:
            assert sm.next_wake_hint(now) == full_scan_wake_hint(sm, now)
            assert sm.has_pending_work(now) == full_scan_pending_work(sm, now)


@pytest.mark.parametrize("engine", ("base", "apres"))
def test_snapshot_while_asleep_resumes_bit_identically(engine):
    expected = outcome(build(GPUSimulator, engine, 2, 32 * KB))
    sim = build(GPUSimulator, engine, 2, 32 * KB)
    asleep_at(sim)
    restored = GPUSimulator.restore(sim.snapshot())
    assert [sm.sleep_until for sm in restored.sms] == [sm.sleep_until for sm in sim.sms]
    assert outcome(restored) == expected
    assert outcome(sim) == expected


def test_integrity_check_rejects_a_sleeper_with_a_ready_warp():
    sim = build(GPUSimulator, "base", 2, 32 * KB)
    now = asleep_at(sim)
    sm = next(sm for sm in sim.sms if now < sm.sleep_until < SLEEP_FOREVER)
    sm.check_invariants(now)
    # The warp that set the wake-up would be skipped past: not allowed.
    sm.sleep_until += 1
    with pytest.raises(InvariantError, match="asleep until"):
        sm.check_invariants(now)


# ----------------------------------------------------------------------
# LRR select: the first candidate at or past the pointer, else the first
# ----------------------------------------------------------------------


def circular_scan(candidates, start: int, num_warps: int) -> Optional[int]:
    """LRR's original set-based scan from the pointer."""
    ready = {c.warp_id for c in candidates}
    for offset in range(num_warps):
        wid = (start + offset) % num_warps
        if wid in ready:
            return wid
    return None


@st.composite
def lrr_cases(draw):
    num_warps = draw(st.integers(min_value=1, max_value=64))
    ids = draw(st.sets(st.integers(0, num_warps - 1), max_size=num_warps))
    mems = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    pointer = draw(st.integers(0, num_warps - 1))
    cands = [IssueCandidate(w, m) for w, m in zip(sorted(ids), mems)]
    return num_warps, cands, pointer


@settings(max_examples=300, deadline=None)
@given(lrr_cases())
def test_lrr_select_equals_circular_scan(case):
    num_warps, cands, pointer = case
    sched = LRRScheduler()
    sched.reset(num_warps)
    sched._next = pointer
    expected = circular_scan(cands, pointer, num_warps)
    assert sched.select(cands, 0) == expected
    if expected is not None:
        assert sched._next == (expected + 1) % num_warps
