"""One SM's issue pipeline.

Each cycle the SM issues at most one warp-instruction, chosen by the
scheduler. Loads are coalesced into line requests and sent to the L1; if
the L1 runs out of MSHRs mid-load the remaining requests enter a replay
queue that blocks further memory issue (a structural hazard) until they
commit. The LSU reports each load's primary outcome back to the scheduler
(the signal LAWS acts on) and to the prefetcher, whose candidates are
issued into the L1 as prefetch fills.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter
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

_WARP_ID = attrgetter("warp_id")


class _WarpMemDone:
    """Completion callback for one of a warp's line requests.

    A module-level callable (not a closure) so MSHR callback lists and the
    event queue stay picklable for checkpointing.
    """

    __slots__ = ("sm", "warp")

    def __init__(self, sm: "SMCore", warp: WarpContext):
        self.sm = sm
        self.warp = warp

    def __call__(self, when: int) -> None:
        self.sm._mem_done(self.warp, when)


class _PendingLoad:
    """A load whose line requests have not all been accepted by the L1."""

    __slots__ = ("warp", "pc", "primary_addr", "remaining", "line_addrs", "line_hits")

    def __init__(
        self,
        warp: WarpContext,
        pc: int,
        primary_addr: int,
        remaining: deque[int],
        line_addrs: tuple[int, ...],
        line_hits: list[bool],
    ):
        self.warp = warp
        self.pc = pc
        self.primary_addr = primary_addr
        self.remaining = remaining
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
        "_issuable",
        "_replay",
        "_is_mem_at",
        "_issue_latency",
        "_line_size",
        "_finished_warps",
        "mem_requests_issued",
        "mem_requests_completed",
        "load_observers",
        "_telemetry",
        "_candidates",
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
        #: The warps that are neither finished nor waiting on memory, in
        #: ascending ``warp_id`` order: the only ones the issue scan and the
        #: wake hints need to look at. ``_issue_load`` removes a warp when it
        #: becomes outstanding, ``_mem_done`` re-inserts it when its last
        #: request returns, and ``_finish_instruction`` removes a warp that
        #: finishes with nothing in flight.
        self._issuable = list(self.warps)
        self._replay: deque[_PendingLoad] = deque()
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
        #: ``(IssueCandidate(w, False), IssueCandidate(w, True))`` per warp,
        #: built once so the issue scan allocates nothing.
        self._candidates = tuple(
            (IssueCandidate(w.warp_id, False), IssueCandidate(w.warp_id, True))
            for w in self.warps
        )
        #: The engine skips this SM while ``now < sleep_until``: its replay
        #: queue is empty and no warp can issue before that cycle, so each
        #: skipped ``cycle`` would only have counted one idle cycle. Set by
        #: :meth:`cycle`, cleared by :meth:`_mem_done` (the only other path
        #: that can make a warp issuable).
        self.sleep_until = 0
        scheduler.reset(len(self.warps))
        scheduler.attach_l1(l1)
        prefetcher.reset(len(self.warps))
        l1.eviction_listener = scheduler.notify_eviction

    def attach_telemetry(self, proxy) -> None:
        """Share one per-SM telemetry proxy with the engines and the L1."""
        self._telemetry = proxy
        self._scheduler.telemetry = proxy
        self._prefetcher.telemetry = proxy
        self._l1.telemetry = proxy

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
        hint: Optional[int] = None
        for w in self._issuable:
            if w.ready_at > now and (hint is None or w.ready_at < hint):
                hint = w.ready_at
        return hint

    def has_pending_work(self, now: int) -> bool:
        """True when :meth:`cycle` at ``now`` could do more than count idle.

        Exactly the condition under which ``cycle(now)`` mutates anything
        besides ``idle_cycles``: a parked load to retry, or a warp that
        enters the candidate scan (even if it only charges an LSU
        structural stall).
        """
        if self._replay:
            return True
        for w in self._issuable:
            if w.ready_at <= now:
                return True
        return False

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> bool:
        """Advance one cycle; returns True if an instruction was issued.

        Only the issuable pool is scanned, in ascending warp order, so
        candidates reach the scheduler in that order. When nothing can
        issue and no load waits for replay, the SM goes to sleep until its
        earliest dependent-issue wake-up (see ``sleep_until``).
        """
        replay = self._replay
        if replay:
            self._process_replay(now)
        lsu_blocked = len(replay) >= self.LSU_QUEUE_DEPTH
        tel = self._telemetry
        stats = self._stats
        # Snapshot the structural-stall counter so the idle branch can tell
        # MSHR gating apart without any work inside the candidate loop.
        gate_base = stats.lsu_structural_stalls if tel is not None else 0

        candidates = []
        append = candidates.append
        is_mem_at = self._is_mem_at
        prebuilt = self._candidates
        wake = SLEEP_FOREVER
        for w in self._issuable:
            # Never true while the pool is maintained. A count corrupted
            # behind the pipeline's back is skipped, as the full scan did,
            # so the integrity sweep still sees it before the warp issues.
            if w.outstanding:
                continue
            ready_at = w.ready_at
            if ready_at > now:
                if ready_at < wake:
                    wake = ready_at
                continue
            is_mem = is_mem_at[w.pc_index]
            if is_mem and lsu_blocked:
                stats.lsu_structural_stalls += 1
                continue
            append(prebuilt[w.warp_id][is_mem])
        if not candidates:
            stats.idle_cycles += 1
            if not replay:
                self.sleep_until = wake
            if tel is not None:
                tel.on_idle(
                    self, now, stats.lsu_structural_stalls - gate_base
                )
            return False

        chosen = self._scheduler.select(candidates, now)
        if chosen is None:
            self._stats.idle_cycles += 1
            if tel is not None:
                tel.on_throttle(now)
            return False
        warp = self.warps[chosen]
        self._issue(warp, warp.current_instr, now)
        return True

    # ------------------------------------------------------------------
    # Issue paths
    # ------------------------------------------------------------------

    def _issue(self, warp: WarpContext, instr: Instr, now: int) -> None:
        stats = self._stats
        stats.instructions += 1
        tel = self._telemetry
        if tel is not None:
            tel.on_issue()
            if tel.events:
                if instr.op is Op.ALU:
                    dur = self._issue_latency
                elif instr.op is Op.STORE:
                    dur = 1
                else:
                    dur = None  # a load's span ends at its mem_complete
                tel.emit(
                    WarpIssueEvent(
                        cycle=now,
                        sm=self.sm_id,
                        warp=warp.warp_id,
                        pc=instr.pc,
                        op=instr.op.name,
                        dur=dur,
                    )
                )
        self._scheduler.notify_issue(warp.warp_id, instr.is_mem, now)
        if instr.op is Op.ALU:
            # ALU chains are dependent: the next same-warp issue waits.
            stats.alu_instructions += 1
            warp.ready_at = now + self._issue_latency
        elif instr.op is Op.STORE:
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
        self._finish_instruction(warp)

    def _issue_load(self, warp: WarpContext, instr: Instr, now: int) -> None:
        addr_gen = instr.addr_gen
        assert addr_gen is not None
        primary, lines = addr_gen.coalesced(
            warp.global_id, warp.iteration, self._line_size
        )
        # Stall on use: the warp resumes when its last request returns.
        warp.outstanding += len(lines)
        self.mem_requests_issued += len(lines)
        if lines:
            self._issuable.remove(warp)
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
                    num_lines=len(lines),
                )
            )
        pending = _PendingLoad(
            warp=warp,
            pc=instr.pc,
            primary_addr=primary,
            remaining=deque(lines),
            line_addrs=tuple(lines),
            line_hits=[],
        )
        self._drain_pending(pending, now)
        if pending.remaining:
            self._replay.append(pending)

    def _process_replay(self, now: int) -> None:
        """Retry stalled loads in order; a stuck head does not starve the rest."""
        for _ in range(len(self._replay)):
            pending = self._replay[0]
            self._drain_pending(pending, now)
            if pending.remaining:
                self._replay.rotate(-1)
            else:
                self._replay.popleft()

    def _drain_pending(self, pending: _PendingLoad, now: int) -> None:
        """Send line requests to L1 until done or a reservation fails."""
        warp = pending.warp
        while pending.remaining:
            line = pending.remaining[0]
            outcome, ready = self._l1.access(
                line, warp.warp_id, now, on_fill=_WarpMemDone(self, warp)
            )
            if outcome is AccessOutcome.STALL:
                return
            pending.remaining.popleft()
            hit = outcome is AccessOutcome.HIT
            pending.line_hits.append(hit)
            if hit:
                assert ready is not None
                self._subsystem.record_hit_latency(ready - now)
                self._subsystem.events.schedule(ready, _WarpMemDone(self, warp))
            if len(pending.line_hits) == 1:
                # Primary request committed: emit the LSU feedback.
                self._emit_load_feedback(pending, hit, now)
        # All lines committed; remaining per-line outcomes (for observers)
        # were accumulated as they went.
        if self.load_observers and len(pending.line_hits) == len(pending.line_addrs):
            access = LoadAccess(
                sm_id=self.sm_id,
                warp_id=warp.warp_id,
                pc=pending.pc,
                primary_addr=pending.primary_addr,
                line_addrs=pending.line_addrs,
                primary_hit=pending.line_hits[0],
                cycle=now,
            )
            for observer in self.load_observers:
                observer(access, list(pending.line_hits))

    def _emit_load_feedback(self, pending: _PendingLoad, primary_hit: bool, now: int) -> None:
        access = LoadAccess(
            sm_id=self.sm_id,
            warp_id=pending.warp.warp_id,
            pc=pending.pc,
            primary_addr=pending.primary_addr,
            line_addrs=pending.line_addrs,
            primary_hit=primary_hit,
            cycle=now,
        )
        tel = self._telemetry
        emit_events = tel is not None and tel.events
        if emit_events:
            tel.emit(
                LoadOutcomeEvent(
                    cycle=now,
                    sm=self.sm_id,
                    warp=access.warp_id,
                    pc=access.pc,
                    hit=primary_hit,
                )
            )
        self._scheduler.notify_load_result(access)
        candidates = self._prefetcher.observe_load(access)
        line_size = self._line_size
        targets = []
        for cand in candidates:
            line = cand.addr - (cand.addr % line_size)
            # Prefetches must not crowd out demand misses: leave MSHR
            # headroom (adaptive throttling, as both STR and SAP do).
            if self._l1.mshr_occupancy >= self.PREFETCH_MSHR_LIMIT:
                self._l1.stats.prefetch_dropped += 1
                if emit_events:
                    tel.emit(
                        PrefetchDropEvent(
                            cycle=now,
                            sm=self.sm_id,
                            line_addr=line,
                            reason="mshr_pressure",
                        )
                    )
                continue
            issued = self._l1.prefetch(line, now)
            if issued:
                if emit_events:
                    tel.emit(
                        PrefetchIssueEvent(
                            cycle=now,
                            sm=self.sm_id,
                            line_addr=line,
                            target_warp=cand.target_warp,
                        )
                    )
                if cand.target_warp is not None:
                    targets.append(cand.target_warp)
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
            warp.ready_at = max(warp.ready_at, when)
            self.sleep_until = 0
            if not warp.finished:
                self._issuable.insert(
                    bisect_left(self._issuable, warp.warp_id, key=_WARP_ID), warp
                )
            tel = self._telemetry
            if tel is not None and tel.events:
                tel.emit(
                    MemCompleteEvent(cycle=when, sm=self.sm_id, warp=warp.warp_id)
                )
            self._scheduler.notify_mem_complete(warp.warp_id, when)

    def _finish_instruction(self, warp: WarpContext) -> None:
        warp.advance()
        if warp.finished:
            self._finished_warps += 1
            if not warp.outstanding:
                self._issuable.remove(warp)
            self._scheduler.notify_warp_finished(warp.warp_id)

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
        pool = [w.warp_id for w in self._issuable]
        if any(a >= b for a, b in zip(pool, pool[1:])):
            violate(f"issuable pool {pool} is not in ascending warp order")
        expected = [w.warp_id for w in self.warps if not (w.finished or w.outstanding)]
        if pool != expected or any(
                w is not self.warps[w.warp_id] for w in self._issuable):
            violate(f"issuable pool {pool} differs from the warps that are "
                    f"neither finished nor outstanding {expected}")
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
