"""The incremental issue and feedback paths against the code they replaced.

``SMCore`` keeps a ready list and a wake heap of its issuable warps, the LLT keeps an
``llpc → warps`` index, LAWS keeps one priority key per warp (a move
re-keys the group or its complement, a select is a min over the
candidates) and hands its missed group to SAP directly, and CCWS and GTO
select from ascending candidates without building a set (CCWS also scores
each warp once per ranking). The references below are the list-rebuilding
and set-building versions; Hypothesis drives both sides with the same calls.
The ready list and wake heap are checked end to end by
``tests/test_sm_sleep.py``, whose reference loop scans every warp.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import APRESConfig
from repro.core.laws import LAWSScheduler
from repro.core.sap import SAPPrefetcher
from repro.core.wgt import WarpGroupTable
from repro.errors import InvariantError
from repro.mem.request import LoadAccess
from repro.sched.base import IssueCandidate
from repro.sched.ccws import CCWSScheduler
from repro.sched.gto import GTOScheduler
from repro.sm.simulator import GPUSimulator

from conftest import make_config, mixed_kernel, streaming_kernel

PCS = (0x10, 0x20, 0x30)


# ----------------------------------------------------------------------
# LAWS: the list-rebuilding scheduler it replaced
# ----------------------------------------------------------------------


class ScanLLT:
    """The Last Load Table before its index: every search scans all warps."""

    def __init__(self, num_warps: int):
        self._llpc: list[Optional[int]] = [None] * num_warps

    def get(self, warp_id: int) -> Optional[int]:
        return self._llpc[warp_id]

    def update(self, warp_id: int, pc: int) -> None:
        self._llpc[warp_id] = pc

    def warps_with_llpc(self, llpc: Optional[int]) -> list[int]:
        return [w for w, pc in enumerate(self._llpc) if pc == llpc]


class ReferenceLAWS:
    """``LAWSScheduler`` as it was: rebuilt queues and a set per select."""

    def __init__(self, num_warps: int, apres_config: APRESConfig):
        self.events = 0
        self._queue = list(range(num_warps))
        self._llt = ScanLLT(num_warps)
        self._wgt = WarpGroupTable(apres_config.wgt_entries, num_warps)
        #: The group SAP takes after a miss; one-shot.
        self._missed_group: Optional[frozenset[int]] = None
        self._finished: set[int] = set()

    @property
    def queue(self) -> tuple[int, ...]:
        return tuple(self._queue)

    def _move_to_head(self, warps: frozenset[int]) -> None:
        picked = [w for w in self._queue if w in warps]
        rest = [w for w in self._queue if w not in warps]
        self._queue = picked + rest
        self.events += 1

    def _move_to_tail(self, warps: frozenset[int], last: Optional[int] = None) -> None:
        picked = [w for w in self._queue if w in warps and w != last]
        rest = [w for w in self._queue if w not in warps]
        self._queue = rest + picked
        if last is not None and last in warps:
            self._queue.append(last)
        self.events += 1

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        if not candidates:
            return None
        ready = {c.warp_id for c in candidates}
        for wid in self._queue:
            if wid in ready:
                return wid
        return None

    def notify_load_result(self, access: LoadAccess) -> None:
        wid = access.warp_id
        llpc = self._llt.get(wid)
        members = [
            w for w in self._llt.warps_with_llpc(llpc) if w not in self._finished
        ]
        group = frozenset(members) | {wid}
        self._llt.update(wid, access.pc)
        gid = self._wgt.insert(group)
        self.events += 1
        stored = self._wgt.invalidate(gid)
        if stored is None:
            self._missed_group = None
            return
        if access.primary_hit:
            self._move_to_head(stored)
            self._missed_group = None
        else:
            self._move_to_tail(stored, last=wid)
            self._missed_group = stored

    def take_missed_group(self) -> Optional[frozenset[int]]:
        group, self._missed_group = self._missed_group, None
        return group

    def notify_prefetch_targets(self, target_warps: Sequence[int]) -> None:
        if target_warps:
            self._move_to_head(frozenset(target_warps))

    def notify_warp_finished(self, warp_id: int) -> None:
        self._finished.add(warp_id)


def ascending_candidates(draw, num_warps: int) -> list[IssueCandidate]:
    ids = sorted(draw(st.sets(st.integers(0, num_warps - 1), max_size=num_warps)))
    return [IssueCandidate(w, draw(st.booleans())) for w in ids]


@st.composite
def laws_scripts(draw):
    num_warps = draw(st.integers(1, 48))
    wgt_entries = draw(st.integers(1, 4))
    warp = st.integers(0, num_warps - 1)
    # Most loads go to one PC, so most groups (the warps sharing the
    # issuer's last-load PC) hold more than half the pool and the move
    # re-keys their complement instead.
    pc = st.sampled_from((PCS[0], PCS[0], PCS[0], PCS[1], PCS[2]))
    ops = []
    for _ in range(draw(st.integers(1, 80))):
        kind = draw(st.sampled_from(("load", "load", "load", "targets", "finish",
                                     "select", "take")))
        if kind == "load":
            ops.append((kind, draw(warp), draw(pc), draw(st.booleans())))
        elif kind == "targets":
            # Half the promotions name more than half the pool.
            large = draw(st.booleans())
            ops.append((kind, draw(st.lists(warp, min_size=num_warps // 2 + 1 if large else 0,
                                            max_size=2 * num_warps))))
        elif kind == "finish":
            ops.append((kind, draw(warp)))
        elif kind == "select":
            ops.append((kind, ascending_candidates(draw, num_warps)))
        else:
            ops.append((kind,))
    return num_warps, wgt_entries, ops


class GroupProbe(SAPPrefetcher):
    """SAP recording the group it takes from LAWS."""

    received: object = "nothing"

    def _group_prefetch(self, access, group):
        self.received = group
        return super()._group_prefetch(access, group)


@settings(max_examples=300, deadline=None)
@given(laws_scripts())
def test_laws_matches_list_rebuilding_reference(script):
    num_warps, wgt_entries, ops = script
    cfg = APRESConfig(wgt_entries=wgt_entries)
    new = LAWSScheduler(cfg)
    new.reset(num_warps)
    sap = GroupProbe(new, cfg)
    sap.reset(num_warps)
    ref = ReferenceLAWS(num_warps, cfg)
    last: Optional[LoadAccess] = None
    for cycle, op in enumerate(ops):
        kind = op[0]
        if kind == "load":
            _, wid, pc, hit = op
            last = LoadAccess(0, wid, pc, 0x1000 + 128 * cycle, (0x1000,), hit, cycle)
            new.notify_load_result(last)
            ref.notify_load_result(last)
        elif kind == "targets":
            new.notify_prefetch_targets(op[1])
            ref.notify_prefetch_targets(op[1])
        elif kind == "finish":
            new.notify_warp_finished(op[1])
            ref.notify_warp_finished(op[1])
        elif kind == "select":
            assert new.select(op[1], cycle) == ref.select(op[1], cycle)
        elif last is not None and not last.primary_hit:
            # SAP takes the group of the last miss, once: a second take
            # before the next load receives nothing.
            sap.received = "nothing"
            sap.observe_load(last)
            assert sap.received == ref.take_missed_group()
        assert new.queue == ref.queue
        assert new.events == ref.events
        new.check_invariants()


def test_laws_invariants_reject_duplicate_or_out_of_bounds_keys():
    laws = LAWSScheduler()
    laws.reset(8)
    for w in range(8):
        laws.notify_load_result(LoadAccess(0, w, PCS[w % 2], 0, (0,), w % 3 == 0, w))
    laws.check_invariants()
    key = laws._key
    saved = list(key)
    key[3] = key[5]
    with pytest.raises(InvariantError, match="LAWS"):
        laws.check_invariants()
    key[:] = saved
    key[2] = laws._lo - 1
    with pytest.raises(InvariantError, match="LAWS"):
        laws.check_invariants()
    key[:] = saved
    key[6] = laws._hi + 1
    with pytest.raises(InvariantError, match="LAWS"):
        laws.check_invariants()
    key[:] = saved
    laws.check_invariants()


# ----------------------------------------------------------------------
# CCWS and GTO: the set-based selects they replaced
# ----------------------------------------------------------------------


class SetCCWS(CCWSScheduler):
    """CCWS as it was: two score calls per warp per ranking, and a set and
    a circular scan per select."""

    def _compute_allowed(self, cycle):
        live = [w for w in range(self._num_warps) if w not in self._finished]
        order = sorted(live, key=lambda w: (-self.score(w, cycle), w))
        cutoff = self._num_warps * self.BASE_SCORE
        allowed: set[int] = set()
        total = 0.0
        for wid in order:
            total += self.score(wid, cycle)
            if total > cutoff and len(allowed) >= self._min_active:
                break
            allowed.add(wid)
        return allowed

    def select(self, candidates, cycle):
        if not candidates:
            return None
        allowed_loads = self.load_allowed_warps(cycle)
        eligible = {
            c.warp_id for c in candidates if not c.is_mem or c.warp_id in allowed_loads
        }
        self.events += 1
        if not eligible:
            return None
        n = self._num_warps
        for offset in range(n):
            wid = (self._next + offset) % n
            if wid in eligible:
                self._next = (wid + 1) % n
                return wid
        return None


class SetGTO(GTOScheduler):
    """GTO as it was: a set and a ``min`` per select."""

    def select(self, candidates, cycle):
        if not candidates:
            return None
        ready = {c.warp_id for c in candidates}
        if self._current in ready:
            return self._current
        oldest = min(ready)
        self._current = oldest
        return oldest


@st.composite
def sched_scripts(draw):
    num_warps = draw(st.integers(1, 48))
    warp = st.integers(0, num_warps - 1)
    line = st.integers(0, 7).map(lambda i: 0x4000 + 128 * i)
    ops = []
    for _ in range(draw(st.integers(1, 80))):
        # A refault is an eviction and then a miss on the same line by the
        # same warp: a victim-tag hit, which raises the warp's score.
        kind = draw(st.sampled_from(("select", "select", "select", "evict", "miss",
                                     "refault", "finish")))
        if kind == "select":
            ops.append((kind, ascending_candidates(draw, num_warps)))
        elif kind == "finish":
            ops.append((kind, draw(warp)))
        else:
            ops.append((kind, draw(warp), draw(line)))
    return num_warps, draw(st.integers(0, num_warps)), ops


def state(sched) -> dict:
    """Every attribute but the victim tag arrays, which compare by identity
    (both sides feed them the same evictions)."""
    return {k: v for k, v in vars(sched).items() if k != "_vtas"}


def drive(new, ref, num_warps: int, ops) -> None:
    new.reset(num_warps)
    ref.reset(num_warps)
    for cycle, op in enumerate(ops):
        kind = op[0]
        if kind == "select":
            assert new.select(op[1], cycle) == ref.select(op[1], cycle)
        elif kind == "finish":
            new.notify_warp_finished(op[1])
            ref.notify_warp_finished(op[1])
        elif kind == "evict":
            new.notify_eviction(op[1], op[2])
            ref.notify_eviction(op[1], op[2])
        else:
            if kind == "refault":
                new.notify_eviction(op[1], op[2])
                ref.notify_eviction(op[1], op[2])
            access = LoadAccess(0, op[1], 0x10, op[2], (op[2],), False, cycle)
            new.notify_load_result(access)
            ref.notify_load_result(access)
        assert state(new) == state(ref)


@settings(max_examples=300, deadline=None)
@given(sched_scripts())
def test_ccws_matches_set_based_select(script):
    num_warps, min_active, ops = script
    # A small quorum lets lost locality actually gate loads.
    params = dict(min_active=min_active, decay_per_cycle=2.0)
    drive(CCWSScheduler(**params), SetCCWS(**params), num_warps, ops)


@settings(max_examples=300, deadline=None)
@given(sched_scripts())
def test_gto_matches_set_based_select(script):
    num_warps, _, ops = script
    drive(GTOScheduler(), SetGTO(), num_warps, ops)


# ----------------------------------------------------------------------
# Invariants over live state
# ----------------------------------------------------------------------


def apres_sim(num_sms: int = 1, waves: int = 1) -> GPUSimulator:
    from repro.experiments.configs import CONFIGS

    config = make_config(num_sms=num_sms, max_warps=8)
    kernel = mixed_kernel(6) if waves == 1 else streaming_kernel(3, waves=waves)
    return GPUSimulator(kernel, config, CONFIGS["apres"].build)


def mid_kernel(sim: GPUSimulator) -> int:
    """Step until some warp of SM 0 waits on memory, two are in its ready
    list and one waits in its wake heap."""
    sm = sim.sms[0]
    while not sim.step_until(sim.current_cycle + 1):
        if any(w.outstanding for w in sm.warps) and len(sm._ready) >= 2 and sm._wake:
            return sim.current_cycle
    raise AssertionError("no cycle with outstanding, ready and waking warps")


def test_invariants_reject_an_unordered_ready_list():
    sim = apres_sim()
    now = mid_kernel(sim)
    sm = sim.sms[0]
    sm.check_invariants(now)
    sm._ready.append(sm._ready.pop(0))
    with pytest.raises(InvariantError, match="not in strictly ascending"):
        sm.check_invariants(now)


def test_invariants_reject_missing_or_extra_warps():
    sim = apres_sim()
    now = mid_kernel(sim)
    sm = sim.sms[0]
    # A warp lost from the ready list.
    dropped = sm._ready.pop()
    with pytest.raises(InvariantError, match="differ from"):
        sm.check_invariants(now)
    sm._ready.append(dropped)
    sm.check_invariants(now)
    # A warp lost from the wake heap.
    entry = heapq.heappop(sm._wake)
    with pytest.raises(InvariantError, match="differ from"):
        sm.check_invariants(now)
    heapq.heappush(sm._wake, entry)
    sm.check_invariants(now)
    # A warp waiting on memory in the ready list.
    outstanding = next(w for w in sm.warps if w.outstanding)
    candidate = sm._candidates[outstanding.warp_id][sm._is_mem_at[outstanding.pc_index]]
    bisect.insort(sm._ready, candidate)
    with pytest.raises(InvariantError, match="differ from"):
        sm.check_invariants(now)
    sm._ready.remove(candidate)
    sm.check_invariants(now)
    # A ready warp in the wake heap as well.
    twice = sm.warps[sm._ready[0].warp_id]
    heapq.heappush(sm._wake, (twice.ready_at, twice.warp_id))
    with pytest.raises(InvariantError, match="differ from"):
        sm.check_invariants(now)


def test_invariants_reject_a_stale_candidate_or_heap_key():
    sim = apres_sim()
    now = mid_kernel(sim)
    sm = sim.sms[0]
    # A candidate whose is_mem no longer matches its warp's next instruction.
    wid, is_mem = sm._ready[0]
    sm._ready[0] = sm._candidates[wid][not is_mem]
    with pytest.raises(InvariantError, match="is_mem"):
        sm.check_invariants(now)
    sm._ready[0] = sm._candidates[wid][is_mem]
    sm.check_invariants(now)
    # A heap key that is not the warp's ready_at.
    ready_at, wid = sm._wake[0]
    sm._wake[0] = (ready_at - 1, wid)
    with pytest.raises(InvariantError, match="wake heap holds"):
        sm.check_invariants(now)


def test_invariants_reject_a_stale_llt_index():
    sim = apres_sim()
    now = mid_kernel(sim)
    sm = sim.sms[0]
    llt = sm._scheduler._llt
    sm.check_invariants(now)
    # Move warp 0 into another LLPC's index entry without updating its row.
    llt.peers(0).discard(0)
    llt._by_llpc.setdefault(0xDEAD, set()).add(0)
    with pytest.raises(InvariantError, match="LLT"):
        sm.check_invariants(now)


# ----------------------------------------------------------------------
# Checkpoints carry the ready list, the LLT index and the done-SM prefix
# ----------------------------------------------------------------------


def test_apres_snapshot_with_outstanding_and_finished_warps_resumes_bit_identically():
    def outcome(sim):
        result = sim.run()
        return result.stats.as_dict(), result.engine_events

    expected = outcome(apres_sim(num_sms=2, waves=2))
    sim = apres_sim(num_sms=2, waves=2)
    while not sim.step_until(sim.current_cycle + 1):
        warps = [w for sm in sim.sms for w in sm.warps]
        if any(w.finished for w in warps) and any(w.outstanding for w in warps):
            break
    else:
        raise AssertionError("no cycle with both finished and outstanding warps")
    restored = GPUSimulator.restore(sim.snapshot())
    for old, new in zip(sim.sms, restored.sms):
        assert new._ready == old._ready
        assert new._wake == old._wake
        assert all(done.sm is new and done.warp is w
                   for done, w in zip(new._on_mem_done, new.warps))
    assert outcome(restored) == expected
    assert outcome(sim) == expected
