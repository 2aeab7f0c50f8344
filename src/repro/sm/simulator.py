"""Whole-GPU simulator: N SMs over a shared memory subsystem.

The main loop is cycle-driven with event-queue fast-forwarding: when every
SM is stalled (all warps waiting on memory or dependent-issue delays) the
clock jumps straight to the next wake-up, which makes memory-bound phases
cheap to simulate without changing any observable timing. Within a tick,
an SM that has nothing to issue sleeps (``SMCore.sleep_until``) and is
only counted idle until a fill or its next dependent-issue wake-up.

The loop is resumable: all progress lives in instance state (``_now`` and
the component objects), so a run can be paused with :meth:`step_until`,
serialised with :meth:`snapshot`, and continued bit-identically after
:meth:`restore` — the foundation of the crash-safe sweep runner. The
integrity layer (invariant guards, watchdog; see :mod:`repro.integrity`)
hooks into every tick but is read-only, so enabling it never changes
simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.config import GPUConfig
from repro.errors import InvariantError, SimulationError
from repro.integrity.checkpoint import dump_simulator, load_simulator, save_checkpoint
from repro.integrity.invariants import InvariantChecker
from repro.integrity.watchdog import Watchdog
from repro.isa.program import KernelSpec
from repro.mem.subsystem import MemorySubsystem
from repro.prefetch.base import Prefetcher
from repro.sched.base import WarpScheduler
from repro.sm.pipeline import SLEEP_FOREVER, LoadObserver, SMCore
from repro.stats.counters import SimStats
from repro.telemetry.hub import TelemetryHub

#: Builds one (scheduler, prefetcher) pair per SM. APRES couples the two,
#: which is why they are constructed together.
EngineFactory = Callable[[], tuple[WarpScheduler, Prefetcher]]


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulation run."""

    stats: SimStats
    #: Scheduler + prefetcher bookkeeping events (energy model input).
    engine_events: int
    config: GPUConfig
    kernel_name: str

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class GPUSimulator:
    """Runs one kernel across ``config.num_sms`` SMs."""

    __slots__ = ("_kernel", "_config", "stats", "_subsystem", "_sms",
                 "_engines", "_now", "_prev_cycle", "_finished", "_done_sms",
                 "_integrity", "watchdog", "telemetry")

    def __init__(
        self,
        kernel: KernelSpec,
        config: GPUConfig,
        engine_factory: EngineFactory,
        load_observers: Sequence[LoadObserver] = (),
        telemetry: Optional[TelemetryHub] = None,
    ):
        self._kernel = kernel
        self._config = config
        self.stats = SimStats()
        self._subsystem = MemorySubsystem(config, self.stats)
        self._sms: list[SMCore] = []
        self._engines: list[tuple[WarpScheduler, Prefetcher]] = []
        for sm_id in range(config.num_sms):
            scheduler, prefetcher = engine_factory()
            self._engines.append((scheduler, prefetcher))
            sm = SMCore(
                sm_id,
                config,
                kernel,
                scheduler,
                prefetcher,
                self._subsystem.l1s[sm_id],
                self._subsystem,
                self.stats,
            )
            sm.load_observers.extend(load_observers)
            self._sms.append(sm)
        self._now = 0
        #: Cycle of the last completed tick; the monotonic-clock guard.
        self._prev_cycle: Optional[int] = None
        self._finished = False
        #: SMs ``_sms[:_done_sms]`` are done. ``SMCore.done`` never reverts,
        #: so the end-of-kernel test advances this prefix instead of asking
        #: every SM on every tick.
        self._done_sms = 0
        self._integrity = (
            InvariantChecker(config.integrity_interval)
            if config.integrity_interval
            else None
        )
        self.watchdog = Watchdog(config.watchdog_cycles)
        #: Optional observability layer; ``None`` keeps every hook to a
        #: single identity test (see :mod:`repro.telemetry`).
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)

    # ------------------------------------------------------------------
    # Introspection (also consumed by the integrity layer)
    # ------------------------------------------------------------------

    @property
    def subsystem(self) -> MemorySubsystem:
        return self._subsystem

    @property
    def sms(self) -> Sequence[SMCore]:
        return self._sms

    @property
    def kernel_name(self) -> str:
        return self._kernel.name

    @property
    def current_cycle(self) -> int:
        return self._now

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def last_checked_cycle(self) -> Optional[int]:
        return self._prev_cycle

    @property
    def fills_completed(self) -> int:
        """Total line fills landed in any L1 (watchdog progress signal)."""
        return sum(l1.mshrs.released_total for l1 in self._subsystem.l1s)

    @property
    def engine_events(self) -> int:
        """Scheduler + prefetcher bookkeeping events so far (energy input).

        Readable mid-run, and equal to ``result().engine_events`` at
        finish.
        """
        return sum(s.events + p.events for s, p in self._engines)

    def describe(self, now: Optional[int] = None) -> dict:
        """JSON-ready snapshot of machine state (diagnostic dumps)."""
        if now is None:
            now = self._now
        return {
            "kernel": self._kernel.name,
            "cycle": now,
            "finished": self._finished,
            "stats": {
                "instructions": self.stats.instructions,
                "idle_cycles": self.stats.idle_cycles,
                "l1_accesses": self.stats.l1.accesses,
                "l1_misses": self.stats.l1.misses,
                "fills_completed": self.fills_completed,
                "integrity_checks": self.stats.integrity_checks,
            },
            "sms": [sm.describe() for sm in self._sms],
            "memory": self._subsystem.describe(now),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate to completion; returns aggregated statistics.

        With ``checkpoint_path`` and ``checkpoint_every`` set, the full
        simulator state is written atomically to that path every
        ``checkpoint_every`` cycles, so a crashed run can be continued via
        :meth:`restore` + ``run()``.
        """
        last_saved = self._now
        while not self._finished:
            self._tick()
            if (
                checkpoint_path is not None
                and checkpoint_every
                and not self._finished
                and self._now - last_saved >= checkpoint_every
            ):
                save_checkpoint(self, checkpoint_path)
                last_saved = self._now
        return self.result()

    def step_until(self, stop_cycle: int) -> bool:
        """Advance until ``stop_cycle`` is reached (or the kernel finishes).

        Returns True when the simulation is complete. Pausing and resuming
        at any cycle is observable-state free: the continuation produces
        bit-identical statistics.
        """
        while not self._finished and self._now < stop_cycle:
            self._tick()
        return self._finished

    def result(self) -> SimulationResult:
        """Aggregate statistics of a completed run."""
        if not self._finished:
            raise SimulationError(
                f"kernel {self._kernel.name!r} still running at cycle "
                f"{self._now}; result() requires a completed simulation"
            )
        engine_events = self.engine_events
        return SimulationResult(
            stats=self.stats,
            engine_events=engine_events,
            config=self._config,
            kernel_name=self._kernel.name,
        )

    def _tick(self) -> None:
        """One iteration of the main loop: drain events, cycle SMs, advance."""
        now = self._now
        events = self._subsystem.events
        # Peek at the queue's heap so a tick with no event due skips the
        # call; the test is cheaper than the call.
        heap = events._heap
        if heap and heap[0][0] <= now:
            events.run_until(now)
        issued_any = False
        telemetry = self.telemetry
        # A sleeping SM's cycle() would only count one idle cycle (and,
        # traced, classify it), so skip the call and do just that.
        asleep = 0
        for sm in self._sms:
            if sm.sleep_until > now:
                asleep += 1
                if telemetry is not None:
                    sm.telemetry.on_idle(sm, now, 0)
            else:
                issued_any |= sm.cycle(now)
        if asleep:
            self.stats.idle_cycles += asleep
        if telemetry is not None:
            telemetry.on_tick(now)
        sms = self._sms
        done_sms = self._done_sms
        while done_sms < len(sms) and sms[done_sms].done:
            done_sms += 1
        self._done_sms = done_sms
        if done_sms == len(sms) and not len(events):
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
        if issued_any:
            self._now = now + 1
        else:
            self._now = self._fast_forward(now)
        if self._now <= now:
            raise InvariantError(
                f"clock failed to advance past cycle {now}",
                details={"cycle": now, "next_cycle": self._now,
                         "invariant": "monotonic clock"},
            )
        self._prev_cycle = now

    def _fast_forward(self, now: int) -> int:
        """Jump to the next cycle at which anything can happen."""
        wake: Optional[int] = self._subsystem.events.next_event_cycle
        for sm in self._sms:
            # A sleeping SM's wake-up is its next_wake_hint: nothing that
            # could move it has happened since it fell asleep.
            hint = sm.sleep_until
            if hint <= now:
                hint = sm.next_wake_hint(now)
            elif hint == SLEEP_FOREVER:
                continue
            if hint is not None and (wake is None or hint < wake):
                wake = hint
        if wake is None:
            raise SimulationError(
                f"kernel {self._kernel.name!r} deadlocked at cycle {now}: "
                "no ready warps and no pending events",
                details=self.describe(now),
            )
        if wake <= now:
            return now + 1
        skipped = wake - now - 1
        if skipped > 0:
            self.stats.idle_cycles += skipped * len(self._sms)
            if self.telemetry is not None:
                self.telemetry.on_skip(skipped)
        return wake

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the entire simulator state (resumable; see restore)."""
        return dump_simulator(self)

    @classmethod
    def restore(cls, blob: bytes) -> "GPUSimulator":
        """Rebuild a simulator from :meth:`snapshot` bytes."""
        return load_simulator(blob)


def simulate(
    kernel: KernelSpec,
    config: GPUConfig,
    engine_factory: EngineFactory,
    load_observers: Sequence[LoadObserver] = (),
    telemetry: Optional[TelemetryHub] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`GPUSimulator` and run it."""
    return GPUSimulator(
        kernel, config, engine_factory, load_observers, telemetry=telemetry
    ).run()
