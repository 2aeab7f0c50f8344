"""repro.telemetry — cycle-attributed tracing and interval metrics.

The observability layer for the simulator: typed events from every
pipeline and memory component, an exclusive-cause stall-attribution
engine that reconciles exactly against ``SimStats``, windowed interval
metrics as JSONL time-series, and a Chrome trace-event exporter. A
simulator built without a hub pays one ``is None`` test per
instrumentation point — telemetry off is the default and is effectively
free.

Entry points: ``--telemetry`` / ``--trace-out`` / ``--intervals-out`` on
``repro run``, and ``--telemetry`` / ``--trace-dir`` on ``repro sweep``.
Host time is measured outside this package: per simulator layer with
``benchmarks/perf/run.py --trace 1``, per function with
``python -m cProfile -m repro run …``. See DESIGN.md ("Telemetry").
"""

from repro.telemetry.events import EVENT_TYPES, TelemetryEvent, validate_event_registry
from repro.telemetry.export import (
    ChromeTraceBuilder,
    HeartbeatSink,
    InMemorySink,
    IntervalJSONLWriter,
    TelemetrySink,
    validate_chrome_trace,
)
from repro.telemetry.hub import SMTelemetry, TelemetryHub
from repro.telemetry.intervals import (
    DEFAULT_WINDOW,
    INTERVAL_METRICS,
    IntervalCollector,
    validate_interval_record,
)
from repro.telemetry.stalls import STALL_CAUSES, StallEngine

__all__ = [
    "DEFAULT_WINDOW",
    "EVENT_TYPES",
    "INTERVAL_METRICS",
    "STALL_CAUSES",
    "ChromeTraceBuilder",
    "HeartbeatSink",
    "InMemorySink",
    "IntervalCollector",
    "IntervalJSONLWriter",
    "SMTelemetry",
    "StallEngine",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetrySink",
    "validate_chrome_trace",
    "validate_event_registry",
    "validate_interval_record",
]
