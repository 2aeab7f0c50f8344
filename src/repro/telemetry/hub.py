"""The telemetry hub: one object wiring every instrumentation point.

Construct a :class:`TelemetryHub`, pass it to
:class:`repro.sm.simulator.GPUSimulator` (or ``simulate(...,
telemetry=hub)``), and the simulator binds it at build time: each SM gets
an :class:`SMTelemetry` proxy (shared with its scheduler, prefetcher and
L1), the shared L2 and DRAM get the hub itself, and the stall engine is
created against the run's stats. The interval collector is created once
the hub has an interval sink (at bind, or by a later
:meth:`TelemetryHub.add_interval_sink`): windows nobody reads are never
computed.

The overhead contract: a simulator built *without* a hub carries
``telemetry is None`` attributes, so instrumented code paths pay exactly
one attribute load and one identity test per hook — no event objects, no
dispatch. Event construction is additionally gated on ``tel.events``
(are there any event sinks?) so a stalls-only run skips it too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.export import ChromeTraceBuilder, TelemetrySink
from repro.telemetry.intervals import DEFAULT_WINDOW, IntervalCollector
from repro.telemetry.stalls import StallEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sm.simulator import GPUSimulator
    from repro.stats.counters import SimStats


class SMTelemetry:
    """Per-SM view of the hub, handed to one SM's pipeline + engines.

    Slotted and tiny: the pipeline calls these methods on hot paths, so
    they do nothing but forward with the SM id pre-bound.
    """

    __slots__ = ("hub", "sm_id", "stalls", "events")

    def __init__(self, hub: "TelemetryHub", sm_id: int, stalls: StallEngine):
        self.hub = hub
        self.sm_id = sm_id
        self.stalls = stalls
        #: Mirror of ``hub.events``: event construction is worth it.
        self.events = hub.events

    def emit(self, event: Any) -> None:
        self.hub.emit(event)

    def on_issue(self) -> None:
        self.stalls.on_issue(self.sm_id)

    def on_idle(self, sm: Any, now: int, mshr_gated: int) -> None:
        self.stalls.on_idle(self.sm_id, sm, now, mshr_gated)

    def on_throttle(self, now: int) -> None:
        self.stalls.on_throttle(self.sm_id, now)


class TelemetryHub:
    """Aggregates the stall engine, interval collector, and sinks."""

    def __init__(self, window: int = DEFAULT_WINDOW, trace: bool = False):
        self.window = window
        self.trace: Optional[ChromeTraceBuilder] = (
            ChromeTraceBuilder() if trace else None
        )
        self._event_sinks: list[TelemetrySink] = []
        self._interval_sinks: list[TelemetrySink] = []
        if self.trace is not None:
            self._event_sinks.append(self.trace)
            self._interval_sinks.append(self.trace)
        self.events = bool(self._event_sinks)
        self.events_emitted = 0
        self.num_sms = 0
        self.stalls: Optional[StallEngine] = None
        self.intervals: Optional[IntervalCollector] = None
        #: ``(stats, l1s)`` of the bound simulator, for the collector.
        self._interval_inputs: Optional[tuple] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Configuration (before bind)
    # ------------------------------------------------------------------

    def add_event_sink(self, sink: TelemetrySink) -> None:
        self._event_sinks.append(sink)
        self.events = True

    def add_interval_sink(self, sink: TelemetrySink) -> None:
        self._interval_sinks.append(sink)
        if self.intervals is not None:
            self.intervals.add_sink(sink)
        elif self._interval_inputs is not None:
            self._start_intervals()

    def _start_intervals(self) -> None:
        """Build the interval collector and hand it every interval sink."""
        stats, l1s = self._interval_inputs
        self.intervals = IntervalCollector(
            stats, l1s, window=self.window, num_sms=self.num_sms,
            stalls=self.stalls,
        )
        for sink in self._interval_sinks:
            self.intervals.add_sink(sink)

    # ------------------------------------------------------------------
    # Binding (called by GPUSimulator.__init__)
    # ------------------------------------------------------------------

    def bind(self, simulator: "GPUSimulator") -> None:
        """Wire this hub into a freshly built simulator."""
        if self.stalls is not None:
            raise ValueError(
                "a TelemetryHub binds to exactly one simulator; build a new "
                "hub per run"
            )
        subsystem = simulator.subsystem
        self.num_sms = len(simulator.sms)
        self.stalls = StallEngine(self.num_sms, subsystem.dram)
        self._interval_inputs = (simulator.stats, subsystem.l1s)
        if self._interval_sinks:
            self._start_intervals()
        if self.trace is not None and simulator.sms:
            self.trace.set_topology(self.num_sms, len(simulator.sms[0].warps))
        for sm in simulator.sms:
            sm.attach_telemetry(SMTelemetry(self, sm.sm_id, self.stalls))
        subsystem.l2.telemetry = self

    # ------------------------------------------------------------------
    # Run-time hooks (called by the simulator main loop)
    # ------------------------------------------------------------------

    def emit(self, event: Any) -> None:
        self.events_emitted += 1
        for sink in self._event_sinks:
            sink.on_event(event)

    def on_tick(self, now: int) -> None:
        if self.intervals is not None:
            self.intervals.on_tick(now)

    def on_skip(self, skipped: int) -> None:
        assert self.stalls is not None
        self.stalls.on_skip(skipped)

    def finish(self, stats: "SimStats") -> None:
        """The run completed; flush the last window and close sinks."""
        if self._finished:
            return
        self._finished = True
        if self.intervals is not None:
            self.intervals.finish(stats.cycles)
        closed: list[TelemetrySink] = []
        for sink in self._event_sinks + self._interval_sinks:
            if any(sink is done for done in closed):
                continue  # e.g. the trace builder sits on both channels
            closed.append(sink)
            sink.finish(stats.cycles)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stall_report(self, stats: "SimStats") -> dict[str, Any]:
        assert self.stalls is not None
        return self.stalls.report(stats, self.num_sms)

    def reconcile(self, stats: "SimStats") -> dict[str, Any]:
        """Stall report, with the SimStats identities enforced."""
        assert self.stalls is not None
        return self.stalls.reconcile(stats, self.num_sms)

    def stall_summary(self, stats: "SimStats") -> dict[str, Any]:
        """Compact reconciled stall summary for registry records.

        The full report carries the reconciliation proof; registry records
        only need the attribution itself plus the dominant cause, so this
        is what ``repro run``/``repro sweep`` embed under ``stalls``.
        """
        report = self.reconcile(stats)
        by_cause = {k: v for k, v in report["by_cause"].items() if v}
        top_cause = max(by_cause, key=by_cause.__getitem__) if by_cause else None
        total = report["stall_cycles"] or 1
        return {
            "by_cause": by_cause,
            "issue_cycles": report["issue_cycles"],
            "stall_cycles": report["stall_cycles"],
            "top_cause": top_cause,
            "top_share": (by_cause[top_cause] / total) if top_cause else 0.0,
        }
