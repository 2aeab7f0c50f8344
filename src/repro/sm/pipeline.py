"""One SM's issue pipeline.

Each cycle the SM issues at most one warp-instruction, chosen by the
scheduler. Loads are coalesced into line requests and sent to the L1; if
the L1 runs out of MSHRs mid-load the remaining requests enter a replay
queue that blocks further memory issue (a structural hazard) until they
commit. The LSU reports each load's primary outcome back to the scheduler
(the signal LAWS acts on) and to the prefetcher, as one ``LoadAccess``
named tuple, built only when an engine reads it: feedback goes only to an
engine whose class overrides the hook, and the base classes' no-ops are
never called. The prefetcher's ``(addr, target_warp)`` candidates are
issued into the L1 as prefetch fills until the L1's MSHR entries reach the
prefetch threshold, an entry count computed once per SM; the rest of that
load's candidates are dropped together.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.config import GPUConfig
from repro.isa.instructions import Instr, Op
from repro.isa.program import KernelSpec
from repro.mem.cache import AccessOutcome, L1Cache
from repro.mem.request import LoadAccess
from repro.mem.subsystem import MemorySubsystem
from repro.prefetch.base import Prefetcher
from repro.sched.base import IssueCandidate, WarpScheduler
from repro.sm.warp import WarpContext
from repro.stats.counters import SimStats
from repro.telemetry.events import (
    LoadIssueEvent,
    LoadOutcomeEvent,
    MemCompleteEvent,
    PrefetchDropEvent,
    PrefetchIssueEvent,
    SchedGroupEvent,
    WarpIssueEvent,
)

#: Observer invoked for every executed load: ``fn(access, line_hits)``.
LoadObserver = Callable[[LoadAccess, list[bool]], None]

#: ``SMCore.sleep_until`` of an SM that only a memory fill can wake.
SLEEP_FOREVER = 1 << 62

# Hoisted enum members: the issue and load paths compare against them on
# every instruction and every line request.
_ALU = Op.ALU
_STORE = Op.STORE
_HIT = AccessOutcome.HIT
_STALL = AccessOutcome.STALL


def _hook(engine: object, base: type, name: str) -> Optional[Callable]:
    """``engine``'s bound ``name`` hook, or ``None`` when its class keeps
    ``base``'s no-op: the pipeline then skips the call altogether."""
    if getattr(type(engine), name) is getattr(base, name):
        return None
    return getattr(engine, name)


class _WarpMemDone:
    """Completion callback for a warp's line requests.

    One per warp, built with the SM and shared by every fill and hit
    completion of that warp. A module-level callable (not a closure) so
    MSHR callback lists and the event queue stay picklable for
    checkpointing.
    """

    __slots__ = ("sm", "warp")

    def __init__(self, sm: "SMCore", warp: WarpContext):
        self.sm = sm
        self.warp = warp

    def __call__(self, when: int) -> None:
        self.sm._mem_done(self.warp, when)


class _PendingLoad:
    """A load whose line requests have not all been accepted by the L1.

    ``line_hits`` holds one outcome per committed line, so the next line
    to send is ``line_addrs[len(line_hits)]``.
    """

    __slots__ = ("warp", "pc", "primary_addr", "line_addrs", "line_hits")

    def __init__(
        self,
        warp: WarpContext,
        pc: int,
        primary_addr: int,
        line_addrs: tuple[int, ...],
        line_hits: list[bool],
    ):
        self.warp = warp
        self.pc = pc
        self.primary_addr = primary_addr
        self.line_addrs = line_addrs
        self.line_hits = line_hits


class SMCore:
    """Cycle-level model of one streaming multiprocessor."""

    __slots__ = (
        "sm_id",
        "_config",
        "_scheduler",
        "_prefetcher",
        "_l1",
        "_subsystem",
        "_stats",
        "warps",
        "_ready",
        "_wake",
        "_replay",
        "_body",
        "_is_mem_at",
        "_issue_latency",
        "_line_size",
        "_finished_warps",
        "mem_requests_issued",
        "mem_requests_completed",
        "load_observers",
        "_telemetry",
        "_candidates",
        "_on_mem_done",
        "_notify_issue",
        "_notify_load_result",
        "_notify_mem_complete",
        "_observe_load",
        "_load_feedback",
        "_mshrs",
        "_prefetch_mshr_limit",
        "sleep_until",
    )

    #: MSHR occupancy above which prefetches are dropped.
    PREFETCH_MSHR_LIMIT = 0.75
    #: Loads that can wait on MSHR reservation before memory issue blocks.
    LSU_QUEUE_DEPTH = 4

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelSpec,
        scheduler: WarpScheduler,
        prefetcher: Prefetcher,
        l1: L1Cache,
        subsystem: MemorySubsystem,
        stats: SimStats,
    ):
        self.sm_id = sm_id
        self._config = config
        self._scheduler = scheduler
        self._prefetcher = prefetcher
        self._l1 = l1
        self._subsystem = subsystem
        self._stats = stats
        wave_stride = config.num_sms * config.max_warps_per_sm
        if not kernel.fresh_waves:
            wave_stride = 0
        self.warps = [
            WarpContext(w, sm_id * config.max_warps_per_sm + w, kernel, wave_stride)
            for w in range(config.max_warps_per_sm)
        ]
        #: ``(IssueCandidate(w, False), IssueCandidate(w, True))`` per warp,
        #: built once so the issue path allocates no candidates.
        self._candidates = tuple(
            (IssueCandidate(w.warp_id, False), IssueCandidate(w.warp_id, True))
            for w in self.warps
        )
        # Every warp that is neither finished nor waiting on memory is in
        # exactly one of the next two structures.
        #: Prebuilt candidates of the warps whose ``ready_at`` has passed,
        #: in ascending ``warp_id`` order: the list ``select`` receives.
        #: ``cycle`` fills it from ``_wake`` and removes the warp it issues.
        self._ready: list[IssueCandidate] = []
        #: Min-heap of ``(ready_at, warp_id)`` for the warps not ready yet;
        #: every warp starts here, due at cycle 0. ``_issue`` pushes a warp
        #: that is not waiting on memory, and ``_mem_done`` pushes one whose
        #: last request returned.
        self._wake: list[tuple[int, int]] = [(0, w.warp_id) for w in self.warps]
        self._replay: deque[_PendingLoad] = deque()
        self._body = kernel.body
        self._is_mem_at = tuple(i.is_mem for i in kernel.body)
        # Hoisted config scalars: the cycle loop reads these every issue and
        # attribute chains through frozen dataclasses are comparatively slow.
        self._issue_latency = config.issue_latency
        self._line_size = config.l1.line_size
        #: Warps whose ``finished`` flag is set, so ``done`` is O(1).
        self._finished_warps = 0
        #: Line requests handed to the L1 / completed back, for the
        #: integrity layer's conservation check against warp.outstanding.
        self.mem_requests_issued = 0
        self.mem_requests_completed = 0
        self.load_observers: list[LoadObserver] = []
        #: Per-SM telemetry proxy; ``None`` (the default) keeps the issue
        #: loop's instrumentation to one identity test per cycle.
        self._telemetry = None
        #: Each warp's completion callback, shared by all its line requests.
        self._on_mem_done = tuple(_WarpMemDone(self, w) for w in self.warps)
        #: The engine skips this SM while ``now < sleep_until``: its replay
        #: queue is empty and no warp can issue before that cycle, so each
        #: skipped ``cycle`` would only have counted one idle cycle. Set by
        #: :meth:`cycle`, cleared by :meth:`_mem_done` (the only other path
        #: that can make a warp issuable).
        self.sleep_until = 0
        scheduler.reset(len(self.warps))
        scheduler.attach_l1(l1)
        prefetcher.reset(len(self.warps))
        # Feedback goes only to the engines that read it: a hook the
        # engine's class does not override is never called.
        l1.eviction_listener = _hook(scheduler, WarpScheduler, "notify_eviction")
        self._notify_issue = _hook(scheduler, WarpScheduler, "notify_issue")
        self._notify_mem_complete = _hook(scheduler, WarpScheduler, "notify_mem_complete")
        self._notify_load_result = _hook(scheduler, WarpScheduler, "notify_load_result")
        self._observe_load = _hook(prefetcher, Prefetcher, "observe_load")
        #: The L1's MSHR file, and the entry count at which its occupancy
        #: reaches ``PREFETCH_MSHR_LIMIT`` (the least ``n`` with
        #: ``n / capacity >= PREFETCH_MSHR_LIMIT``), so the prefetch
        #: throttle compares integers once per load.
        mshrs = self._mshrs = l1.mshrs
        self._prefetch_mshr_limit = next(
            (n for n in range(mshrs.capacity + 1)
             if n / mshrs.capacity >= self.PREFETCH_MSHR_LIMIT),
            mshrs.capacity + 1)
        #: Whether a committed primary request calls ``_emit_load_feedback``:
        #: an engine reads the feedback, or (see ``attach_telemetry``) a
        #: traced run records a ``LoadOutcomeEvent`` per load.
        self._load_feedback = (self._notify_load_result is not None
                               or self._observe_load is not None)

    def attach_telemetry(self, proxy) -> None:
        """Share one per-SM telemetry proxy with the engines and the L1."""
        self._telemetry = proxy
        self._scheduler.telemetry = proxy
        self._prefetcher.telemetry = proxy
        self._l1.telemetry = proxy
        if proxy.events:
            self._load_feedback = True

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._finished_warps == len(self.warps) and not self._replay

    @property
    def telemetry(self):
        """The per-SM telemetry proxy, or ``None`` when untraced."""
        return self._telemetry

    def next_wake_hint(self, now: int) -> Optional[int]:
        """Earliest future cycle a warp becomes ready without an event.

        Warps stalled on memory (or loads parked in the replay queue) wake
        through fill events, so they contribute no hint.
        """
        wake = self._wake
        if not wake:
            return None
        if wake[0][0] > now:
            return wake[0][0]
        # Only before this cycle's ``cycle(now)`` can warps that are due
        # still sit in the heap; they are ready, not future.
        return min((ready_at for ready_at, _ in wake if ready_at > now), default=None)

    def has_pending_work(self, now: int) -> bool:
        """True when :meth:`cycle` at ``now`` could do more than count idle.

        Exactly the condition under which ``cycle(now)`` mutates anything
        besides ``idle_cycles``: a parked load to retry, or a ready warp
        (even if it only charges an LSU structural stall).
        """
        wake = self._wake
        return bool(self._replay or self._ready or (wake and wake[0][0] <= now))

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> bool:
        """Advance one cycle; returns True if an instruction was issued.

        Warps whose ``ready_at`` has come move from the wake heap into the
        ready list, which is the scheduler's candidate list, in ascending
        warp order. When nothing can issue and no load waits for replay,
        the SM goes to sleep until the heap's earliest wake-up (see
        ``sleep_until``).
        """
        replay = self._replay
        if replay:
            self._process_replay(now)
        ready = self._ready
        wake = self._wake
        if wake and wake[0][0] <= now:
            warps = self.warps
            prebuilt = self._candidates
            is_mem_at = self._is_mem_at
            while wake and wake[0][0] <= now:
                wid = heappop(wake)[1]
                insort(ready, prebuilt[wid][is_mem_at[warps[wid].pc_index]])
        tel = self._telemetry
        stats = self._stats
        candidates = ready
        if replay and len(replay) >= self.LSU_QUEUE_DEPTH:
            # Memory issue is blocked: offer only the arithmetic warps.
            candidates = [c for c in ready if not c[1]]
            stats.lsu_structural_stalls += len(ready) - len(candidates)
        if not candidates:
            stats.idle_cycles += 1
            if not replay:
                self.sleep_until = wake[0][0] if wake else SLEEP_FOREVER
            if tel is not None:
                tel.on_idle(self, now, len(ready) - len(candidates))
            return False

        chosen = self._scheduler.select(candidates, now)
        if chosen is None:
            stats.idle_cycles += 1
            if tel is not None:
                tel.on_throttle(now)
            return False
        warp = self.warps[chosen]
        if warp.outstanding:
            # Never true while the ready list is maintained: only a count
            # corrupted behind the pipeline's back gets here, and such a
            # warp must not issue. The sweep names the corruption.
            self.check_invariants(now)
            raise AssertionError(f"warp {chosen} is ready with requests in flight")
        del ready[bisect_left(ready, (chosen,))]
        self._issue(warp, self._body[warp.pc_index], now)
        return True

    # ------------------------------------------------------------------
    # Issue paths
    # ------------------------------------------------------------------

    def _issue(self, warp: WarpContext, instr: Instr, now: int) -> None:
        stats = self._stats
        stats.instructions += 1
        op = instr.op
        tel = self._telemetry
        if tel is not None:
            tel.on_issue()
            if tel.events:
                if op is _ALU:
                    dur = self._issue_latency
                elif op is _STORE:
                    dur = 1
                else:
                    dur = None  # a load's span ends at its mem_complete
                tel.emit(
                    WarpIssueEvent(
                        cycle=now,
                        sm=self.sm_id,
                        warp=warp.warp_id,
                        pc=instr.pc,
                        op=op.name,
                        dur=dur,
                    )
                )
        notify_issue = self._notify_issue
        if notify_issue is not None:
            notify_issue(warp.warp_id, op is not _ALU, now)
        if op is _ALU:
            # ALU chains are dependent: the next same-warp issue waits.
            stats.alu_instructions += 1
            warp.ready_at = now + self._issue_latency
        elif op is _STORE:
            # Stores retire into the write path without blocking the warp.
            stats.store_instructions += 1
            _, lines = instr.addr_gen.coalesced(
                warp.global_id, warp.iteration, self._line_size
            )
            self._subsystem.store(self.sm_id, lines, now)
            warp.ready_at = now + 1
        else:
            stats.load_instructions += 1
            self._issue_load(warp, instr, now)
        # Retire the pc; only an iteration's last instruction needs
        # ``advance`` (loop trips, wave refill, finishing).
        pc_index = warp.pc_index + 1
        if pc_index < len(self._body):
            warp.pc_index = pc_index
        else:
            warp.advance()
            if warp.finished:
                self._finished_warps += 1
                self._scheduler.notify_warp_finished(warp.warp_id)
                return
        if not warp.outstanding:
            heappush(self._wake, (warp.ready_at, warp.warp_id))

    def _issue_load(self, warp: WarpContext, instr: Instr, now: int) -> None:
        addr_gen = instr.addr_gen
        assert addr_gen is not None
        primary, lines = addr_gen.coalesced(
            warp.global_id, warp.iteration, self._line_size
        )
        # Stall on use: the warp resumes when its last request returns.
        count = len(lines)
        warp.outstanding += count
        self.mem_requests_issued += count
        warp.ready_at = now + 1
        tel = self._telemetry
        if tel is not None and tel.events:
            tel.emit(
                LoadIssueEvent(
                    cycle=now,
                    sm=self.sm_id,
                    warp=warp.warp_id,
                    pc=instr.pc,
                    primary_addr=primary,
                    num_lines=count,
                )
            )
        line_hits: list[bool] = []
        if not self._commit_lines(warp, instr.pc, primary, lines, line_hits, now):
            self._replay.append(
                _PendingLoad(warp, instr.pc, primary, lines, line_hits)
            )

    def _process_replay(self, now: int) -> None:
        """Retry stalled loads in order; a stuck head does not starve the rest."""
        replay = self._replay
        for _ in range(len(replay)):
            pending = replay[0]
            if self._commit_lines(pending.warp, pending.pc, pending.primary_addr,
                                  pending.line_addrs, pending.line_hits, now):
                replay.popleft()
            else:
                replay.rotate(-1)

    def _commit_lines(
        self,
        warp: WarpContext,
        pc: int,
        primary_addr: int,
        line_addrs: tuple[int, ...],
        line_hits: list[bool],
        now: int,
    ) -> bool:
        """Send a load's uncommitted lines to the L1, in order.

        Appends each committed line's outcome to ``line_hits`` and stops at
        the first failed reservation. Returns True once every line is
        committed.
        """
        l1 = self._l1
        subsystem = self._subsystem
        warp_id = warp.warp_id
        on_done = self._on_mem_done[warp_id]
        for line in line_addrs[len(line_hits):]:
            outcome, ready = l1.access(line, warp_id, now, on_done)
            if outcome is _STALL:
                return False
            hit = outcome is _HIT
            primary = not line_hits
            line_hits.append(hit)
            if hit:
                subsystem.record_hit_latency(ready - now)
                events = subsystem.events
                heappush(events._heap, (ready, next(events._seq), on_done))
            if primary and self._load_feedback:
                # Primary request committed: emit the LSU feedback.
                self._emit_load_feedback(warp_id, pc, primary_addr, line_addrs, hit, now)
        if self.load_observers:
            access = LoadAccess(self.sm_id, warp_id, pc, primary_addr, line_addrs,
                                line_hits[0], now)
            for observer in self.load_observers:
                observer(access, list(line_hits))
        return True

    def _emit_load_feedback(
        self,
        warp_id: int,
        pc: int,
        primary_addr: int,
        line_addrs: tuple[int, ...],
        primary_hit: bool,
        now: int,
    ) -> None:
        tel = self._telemetry
        emit_events = tel is not None and tel.events
        if emit_events:
            tel.emit(
                LoadOutcomeEvent(
                    cycle=now,
                    sm=self.sm_id,
                    warp=warp_id,
                    pc=pc,
                    hit=primary_hit,
                )
            )
        notify = self._notify_load_result
        observe = self._observe_load
        if notify is None and observe is None:
            return
        access = LoadAccess(self.sm_id, warp_id, pc, primary_addr, line_addrs,
                            primary_hit, now)
        if notify is not None:
            notify(access)
        if observe is None:
            return
        candidates = observe(access)
        if not candidates:
            return
        line_size = self._line_size
        l1 = self._l1
        # Prefetches must not crowd out demand misses: leave MSHR headroom
        # (adaptive throttling, as both STR and SAP do). Only an issued
        # prefetch takes an entry, so once the entries reach the threshold
        # every remaining candidate is dropped.
        room = self._prefetch_mshr_limit - len(self._mshrs)
        targets = []
        for i, (addr, target) in enumerate(candidates):
            if room <= 0:
                dropped = candidates[i:]
                l1.stats.prefetch_dropped += len(dropped)
                if emit_events:
                    for addr, _ in dropped:
                        tel.emit(
                            PrefetchDropEvent(
                                cycle=now,
                                sm=self.sm_id,
                                line_addr=addr - addr % line_size,
                                reason="mshr_pressure",
                            )
                        )
                break
            line = addr - addr % line_size
            if l1.prefetch(line, now):
                room -= 1
                if emit_events:
                    tel.emit(
                        PrefetchIssueEvent(
                            cycle=now,
                            sm=self.sm_id,
                            line_addr=line,
                            target_warp=target,
                        )
                    )
                if target is not None:
                    targets.append(target)
        if targets:
            self._scheduler.notify_prefetch_targets(targets)
            if emit_events:
                tel.emit(
                    SchedGroupEvent(
                        cycle=now,
                        sm=self.sm_id,
                        action="promote",
                        warps=tuple(targets),
                    )
                )

    def _mem_done(self, warp: WarpContext, when: int) -> None:
        warp.outstanding -= 1
        self.mem_requests_completed += 1
        if warp.outstanding < 0:
            raise AssertionError("memory completion underflow")
        if warp.outstanding == 0:
            if when > warp.ready_at:
                warp.ready_at = when
            self.sleep_until = 0
            if not warp.finished:
                heappush(self._wake, (warp.ready_at, warp.warp_id))
            tel = self._telemetry
            if tel is not None and tel.events:
                tel.emit(
                    MemCompleteEvent(cycle=when, sm=self.sm_id, warp=warp.warp_id)
                )
            notify = self._notify_mem_complete
            if notify is not None:
                notify(warp.warp_id, when)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_invariants(self, now: int) -> None:
        """Conservation checks over warp and request state (read-only).

        Raises :class:`InvariantError` with a structured snapshot on the
        first violation.
        """
        from repro.errors import InvariantError

        def violate(message: str) -> None:
            raise InvariantError(
                f"SM {self.sm_id} invariant violated at cycle {now}: {message}",
                details={"cycle": now, "invariant": message, "sm": self.describe()},
            )

        if len(self.warps) != self._config.max_warps_per_sm:
            violate(
                f"{len(self.warps)} warp contexts but "
                f"{self._config.max_warps_per_sm} were launched")
        finished = sum(1 for w in self.warps if w.finished)
        if finished != self._finished_warps:
            violate(
                f"finished-warp counter {self._finished_warps} disagrees with "
                f"{finished} warps whose finished flag is set")
        outstanding = 0
        for w in self.warps:
            if w.outstanding < 0:
                violate(f"warp {w.warp_id} outstanding count is negative "
                        f"({w.outstanding})")
            if w.finished and w.outstanding:
                violate(f"finished warp {w.warp_id} still has "
                        f"{w.outstanding} requests in flight")
            outstanding += w.outstanding
        ready = [c.warp_id for c in self._ready]
        if any(a >= b for a, b in zip(ready, ready[1:])):
            violate(f"ready list {ready} is not in strictly ascending warp order")
        for c in self._ready:
            w = self.warps[c.warp_id]
            if c.is_mem != self._is_mem_at[w.pc_index]:
                violate(f"ready candidate of warp {c.warp_id} has is_mem="
                        f"{c.is_mem} but its next instruction at pc index "
                        f"{w.pc_index} disagrees")
        for ready_at, wid in self._wake:
            if ready_at != self.warps[wid].ready_at:
                violate(f"wake heap holds warp {wid} at cycle {ready_at} but "
                        f"its ready_at is {self.warps[wid].ready_at}")
        tracked = sorted(ready + [wid for _, wid in self._wake])
        expected = [w.warp_id for w in self.warps if not (w.finished or w.outstanding)]
        if tracked != expected:
            violate(f"ready list {ready} and wake heap "
                    f"{sorted(wid for _, wid in self._wake)} differ from the "
                    f"warps that are neither finished nor outstanding {expected}")
        in_flight = self.mem_requests_issued - self.mem_requests_completed
        if outstanding != in_flight:
            violate(
                f"warps report {outstanding} outstanding requests but "
                f"{self.mem_requests_issued} issued - "
                f"{self.mem_requests_completed} completed = {in_flight}")
        if self.sleep_until > now:
            if self._replay:
                violate(f"asleep until cycle {self.sleep_until} with "
                        f"{len(self._replay)} loads awaiting replay")
            for w in self.warps:
                if not (w.finished or w.outstanding) and w.ready_at < self.sleep_until:
                    violate(f"asleep until cycle {self.sleep_until} but warp "
                            f"{w.warp_id} is ready at {w.ready_at}")
        for pending in self._replay:
            if pending.warp.finished:
                violate(f"replay queue holds a load of finished warp "
                        f"{pending.warp.warp_id}")
        self._scheduler.check_invariants()

    def describe(self) -> dict:
        """JSON-ready snapshot of this SM (watchdog/invariant diagnostics)."""
        return {
            "sm": self.sm_id,
            "done": self.done,
            "replay_depth": len(self._replay),
            "mem_requests_issued": self.mem_requests_issued,
            "mem_requests_completed": self.mem_requests_completed,
            "mshr_occupancy": self._l1.mshr_occupancy,
            "warps": [
                {
                    "warp": w.warp_id,
                    "pc_index": w.pc_index,
                    "iteration": w.iteration,
                    "wave": w.wave,
                    "ready_at": w.ready_at,
                    "outstanding": w.outstanding,
                    "finished": w.finished,
                }
                for w in self.warps
            ],
        }
