"""Telemetry sinks and exporters.

Sinks receive telemetry from two channels: discrete events (one
:class:`~repro.telemetry.events.TelemetryEvent` per ``on_event``) and
interval records (one windowed-metrics dict per ``on_interval``; see
:mod:`repro.telemetry.intervals`). The hub fans both out; a sink
implements whichever it cares about.

The flagship exporter is :class:`ChromeTraceBuilder`, which renders a run
as Chrome trace-event JSON — load the file in ``chrome://tracing`` or
https://ui.perfetto.dev. Each SM becomes a process row, each warp a
thread row; issued instructions are duration slices (a load's slice
spans issue to last-fill wake-up), per-static-load flow arrows connect
dynamic executions of the same load PC, and the interval metrics become
counter tracks. Timestamps are simulated cycles presented as
microseconds (the trace format's native unit).

All sinks pickle: file-backed sinks drop their OS handle on
``__getstate__`` and lazily reopen in append mode, so a checkpointed
simulator with live telemetry can be snapshotted and resumed.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Optional, TextIO

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.intervals import INTERVAL_METRICS

#: ``ph`` values the validator accepts (the subset this exporter emits).
_ALLOWED_PHASES = ("B", "E", "X", "i", "s", "t", "C", "M")


class TelemetrySink:
    """Base sink: override the channels you consume."""

    def on_event(self, event: Any) -> None:
        pass

    def on_interval(self, record: dict[str, Any]) -> None:
        pass

    def finish(self, final_cycle: int) -> None:
        """The run completed at ``final_cycle``; flush and close."""


class InMemorySink(TelemetrySink):
    """Buffers everything; the test suite's window into a run."""

    def __init__(self) -> None:
        self.events: list[Any] = []
        self.intervals: list[dict[str, Any]] = []
        self.final_cycle: Optional[int] = None

    def on_event(self, event: Any) -> None:
        self.events.append(event)

    def on_interval(self, record: dict[str, Any]) -> None:
        self.intervals.append(record)

    def finish(self, final_cycle: int) -> None:
        self.final_cycle = final_cycle

    def events_of_kind(self, kind: str) -> list[Any]:
        return [e for e in self.events if type(e).kind == kind]


class IntervalJSONLWriter(TelemetrySink):
    """Streams interval records to a JSONL file, one object per line."""

    def __init__(self, path: str):
        self.path = path
        self.records_written = 0
        self._fh: Optional[TextIO] = None

    def on_interval(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            # Lazy open (append mode) so a restored checkpoint continues
            # the same file instead of truncating it.
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def finish(self, final_cycle: int) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_fh"] = None
        return state


class HeartbeatSink(TelemetrySink):
    """Periodic progress line on a live run (one per interval window).

    Reports simulated cycles, host throughput (cycles/s of wall time),
    windowed simulated IPC, and progress against the cycle budget. Driven
    by the interval window, so the cadence is in *simulated* time — a
    memory-bound phase that fast-forwards prints faster, which is itself
    informative.
    """

    def __init__(
        self,
        cycle_budget: int = 0,
        stream: Optional[TextIO] = None,
    ):
        self._budget = cycle_budget
        self._stream = stream
        self._last_wall: Optional[float] = None
        self._last_cycle = 0
        self.lines_printed = 0

    def on_interval(self, record: dict[str, Any]) -> None:
        now_wall = time.monotonic()
        end = record["cycle_end"]
        rate = ""
        if self._last_wall is not None:
            elapsed = now_wall - self._last_wall
            if elapsed > 0:
                cps = (end - self._last_cycle) / elapsed
                rate = f" | {cps / 1e3:,.0f} kcyc/s"
        self._last_wall = now_wall
        self._last_cycle = end
        budget = ""
        if self._budget:
            budget = f" | {100.0 * end / self._budget:.1f}% of budget"
        line = (
            f"[telemetry] cycle {end:,} | IPC {record['ipc']:.3f} "
            f"(cum {record['ipc_cum']:.3f}){rate}{budget}"
        )
        print(line, file=self._stream if self._stream is not None else sys.stderr)
        self.lines_printed += 1

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        # A custom stream (tests) and the wall-clock anchor don't restore.
        state["_stream"] = None
        state["_last_wall"] = None
        return state


class ChromeTraceBuilder(TelemetrySink):
    """Builds a ``chrome://tracing`` / Perfetto trace from the event stream."""

    def __init__(self) -> None:
        self._trace_events: list[dict[str, Any]] = []
        #: (sm, warp) -> cycle of the load slice currently open on that row.
        self._open_loads: dict[tuple[int, int], int] = {}
        #: Static-load PCs that already emitted their flow-start.
        self._flow_started: dict[int, bool] = {}
        self._mem_pid = 1 << 20  # overridden by set_topology
        self._counter_pid = (1 << 20) + 1

    # ------------------------------------------------------------------
    # Topology / metadata
    # ------------------------------------------------------------------

    def set_topology(self, num_sms: int, warps_per_sm: int) -> None:
        """Name the process/thread rows; call before the run starts."""
        self._mem_pid = num_sms
        self._counter_pid = num_sms + 1
        meta = self._trace_events
        for sm in range(num_sms):
            meta.append(self._metadata("process_name", sm, args={"name": f"SM {sm}"}))
            meta.append(self._metadata("process_sort_index", sm, args={"sort_index": sm}))
            for warp in range(warps_per_sm):
                meta.append(
                    self._metadata(
                        "thread_name", sm, tid=warp, args={"name": f"warp {warp}"}
                    )
                )
        meta.append(
            self._metadata("process_name", self._mem_pid, args={"name": "Memory"})
        )
        meta.append(
            self._metadata(
                "process_name", self._counter_pid, args={"name": "Interval metrics"}
            )
        )

    @staticmethod
    def _metadata(
        name: str, pid: int, tid: int = 0, args: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        return {"ph": "M", "name": name, "pid": pid, "tid": tid, "args": args or {}}

    # ------------------------------------------------------------------
    # Sink interface
    # ------------------------------------------------------------------

    def on_event(self, event: Any) -> None:
        kind = type(event).kind
        handler = getattr(self, f"_on_{kind}", None)
        if handler is not None:
            handler(event)
        else:
            self._instant(event)

    def on_interval(self, record: dict[str, Any]) -> None:
        ts = record["cycle_start"]
        for name in INTERVAL_METRICS:
            self._trace_events.append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": self._counter_pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {name: record[name]},
                }
            )

    def finish(self, final_cycle: int) -> None:
        """Close load slices left open (budget-stopped or failed runs)."""
        for (sm, warp), _start in sorted(self._open_loads.items()):
            self._trace_events.append(
                {
                    "ph": "E",
                    "name": "LOAD",
                    "cat": "warp",
                    "pid": sm,
                    "tid": warp,
                    "ts": final_cycle,
                }
            )
        self._open_loads.clear()

    # ------------------------------------------------------------------
    # Event renderers (one per kind that gets special treatment)
    # ------------------------------------------------------------------

    def _on_issue(self, event: Any) -> None:
        if event.dur is None:
            # A load: open a duration slice, closed by mem_complete.
            key = (event.sm, event.warp)
            if key not in self._open_loads:
                self._open_loads[key] = event.cycle
                self._trace_events.append(
                    {
                        "ph": "B",
                        "name": "LOAD",
                        "cat": "warp",
                        "pid": event.sm,
                        "tid": event.warp,
                        "ts": event.cycle,
                        "args": {"pc": event.pc},
                    }
                )
            return
        self._trace_events.append(
            {
                "ph": "X",
                "name": event.op,
                "cat": "warp",
                "pid": event.sm,
                "tid": event.warp,
                "ts": event.cycle,
                "dur": event.dur,
                "args": {"pc": event.pc},
            }
        )

    def _on_mem_complete(self, event: Any) -> None:
        key = (event.sm, event.warp)
        start = self._open_loads.pop(key, None)
        if start is None:
            return  # hit-latency wake of an already-closed load
        self._trace_events.append(
            {
                "ph": "E",
                "name": "LOAD",
                "cat": "warp",
                "pid": event.sm,
                "tid": event.warp,
                "ts": max(event.cycle, start),
            }
        )

    def _on_load_issue(self, event: Any) -> None:
        # Flow arrows chain every dynamic execution of one static load.
        started = self._flow_started.get(event.pc, False)
        self._flow_started[event.pc] = True
        self._trace_events.append(
            {
                "ph": "s" if not started else "t",
                "name": f"load_pc_{event.pc}",
                "cat": "static_load",
                "id": event.pc,
                "pid": event.sm,
                "tid": event.warp,
                "ts": event.cycle,
                "args": {"primary_addr": event.primary_addr, "lines": event.num_lines},
            }
        )

    # ------------------------------------------------------------------
    # Generic fallback: everything else is an instant event
    # ------------------------------------------------------------------

    def _instant(self, event: TelemetryEvent) -> None:
        record = event.as_dict()
        kind = record.pop("kind")
        ts = record.pop("cycle")
        pid = record.pop("sm", self._mem_pid)
        tid = record.pop("warp", 0)
        if "warps" in record:  # tuples are not JSON; keep args serialisable
            record["warps"] = list(record["warps"])
        self._trace_events.append(
            {
                "ph": "i",
                "name": kind,
                "cat": kind,
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": record,
            }
        )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    @property
    def num_trace_events(self) -> int:
        return len(self._trace_events)

    def build(self) -> dict[str, Any]:
        """The complete trace object (JSON-ready)."""
        return {
            "traceEvents": list(self._trace_events),
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": "repro-telemetry-chrome-trace",
                "schema_version": 1,
                "ts_unit": "simulated cycles",
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.build(), fh)
            fh.write("\n")


def validate_chrome_trace(trace: Any) -> list[str]:
    """Schema check for an exported trace (golden test and CI smoke job).

    Validates the envelope, per-phase required fields, and that B/E
    duration slices balance on every (pid, tid) row.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace is {type(trace).__name__}, expected object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    other = trace.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != "repro-telemetry-chrome-trace":
        problems.append("otherData.schema missing or wrong")
    depth: dict[tuple[Any, Any], int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        ph = ev.get("ph")
        if ph not in _ALLOWED_PHASES:
            problems.append(f"traceEvents[{i}] has unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"traceEvents[{i}] ({ph}) has no name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"traceEvents[{i}] ({ph}) has no integer pid")
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"traceEvents[{i}] ({ph}) has no numeric ts")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"traceEvents[{i}] (X) has no numeric dur")
        if ph in ("s", "t") and "id" not in ev:
            problems.append(f"traceEvents[{i}] ({ph}) flow event has no id")
        if ph in ("B", "E"):
            row = (ev.get("pid"), ev.get("tid"))
            depth[row] = depth.get(row, 0) + (1 if ph == "B" else -1)
            if depth[row] < 0:
                problems.append(f"traceEvents[{i}]: E without matching B on row {row}")
                depth[row] = 0
    for row, open_count in sorted(depth.items()):
        if open_count:
            problems.append(f"{open_count} unclosed B slice(s) on row {row}")
    return problems
