"""Exporter schemas: Chrome trace (golden file), interval JSONL, sinks.

The golden files pin the exact trace-event JSON a small deterministic run
produces under ``apres`` and under ``base``. If an instrumentation change
legitimately alters a trace, regenerate the fixtures and review the diff:

    PYTHONPATH=src:tests python tests/test_telemetry_export.py
"""

from __future__ import annotations

import io
import json
import pickle
from pathlib import Path

import pytest

from conftest import make_config, mixed_kernel, streaming_kernel
from repro.experiments.configs import CONFIGS
from repro.sm.simulator import GPUSimulator, simulate
from repro.telemetry import (
    INTERVAL_METRICS,
    HeartbeatSink,
    InMemorySink,
    IntervalJSONLWriter,
    TelemetryHub,
    validate_chrome_trace,
    validate_event_registry,
    validate_interval_record,
)
from repro.telemetry.intervals import IntervalCollector

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "telemetry"
#: One golden trace per configuration: ``apres`` exercises every feedback
#: hook, ``base`` none (its engines keep the no-op hooks, which the
#: pipeline skips, yet every load outcome must still be traced).
GOLDENS = {
    "apres": FIXTURES / "chrome_trace.golden.json",
    "base": FIXTURES / "chrome_trace_base.golden.json",
}
GOLDEN = GOLDENS["apres"]


def golden_run(config: str = "apres") -> tuple[TelemetryHub, object]:
    """The fixed tiny run a golden trace pins (fully deterministic)."""
    hub = TelemetryHub(window=200, trace=True)
    cfg = make_config(num_sms=1, max_warps=2)
    result = simulate(
        streaming_kernel(iterations=2), cfg, CONFIGS[config].build,
        telemetry=hub,
    )
    return hub, result


def bigger_run(**hub_kwargs) -> tuple[TelemetryHub, object]:
    hub = TelemetryHub(**hub_kwargs)
    cfg = make_config(num_sms=2)
    result = simulate(
        mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build, telemetry=hub
    )
    return hub, result


class TestChromeTraceGolden:
    def test_trace_matches_golden_exactly(self):
        hub, _result = golden_run()
        expected = json.loads(GOLDEN.read_text())
        assert hub.trace.build() == expected

    def test_golden_passes_schema_validation(self):
        assert validate_chrome_trace(json.loads(GOLDEN.read_text())) == []

    def test_base_trace_matches_golden_exactly(self):
        hub, _result = golden_run("base")
        expected = json.loads(GOLDENS["base"].read_text())
        assert hub.trace.build() == expected
        assert validate_chrome_trace(expected) == []


class TestChromeTraceStructure:
    def test_real_run_validates_clean(self):
        hub, _result = bigger_run(trace=True, window=500)
        trace = hub.trace.build()
        assert trace["otherData"]["schema"] == "repro-telemetry-chrome-trace"
        assert validate_chrome_trace(trace) == []

    def test_flow_events_one_start_per_static_load(self):
        hub, _result = bigger_run(trace=True)
        events = hub.trace.build()["traceEvents"]
        flows = [e for e in events if e.get("cat") == "static_load"]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        steps = [e for e in flows if e["ph"] == "t"]
        assert starts  # every static load opens exactly one flow chain
        assert len([e for e in flows if e["ph"] == "s"]) == len(starts)
        assert all(e["id"] in starts for e in steps)

    def test_counter_track_carries_interval_metrics(self):
        hub, _result = bigger_run(trace=True, window=300)
        events = hub.trace.build()["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} == set(INTERVAL_METRICS)

    def test_topology_metadata_names_rows(self):
        hub, _result = bigger_run(trace=True)
        meta = [e for e in hub.trace.build()["traceEvents"] if e["ph"] == "M"]
        names = {
            e["args"].get("name") for e in meta if e["name"] == "process_name"
        }
        assert {"SM 0", "SM 1", "Memory", "Interval metrics"} <= names

    def test_validator_catches_malformed_traces(self):
        assert validate_chrome_trace([]) == ["trace is list, expected object"]
        base = {"otherData": {"schema": "repro-telemetry-chrome-trace"}}
        bad_ph = dict(base, traceEvents=[{"ph": "Z", "name": "x", "pid": 0}])
        assert any("unknown ph" in p for p in validate_chrome_trace(bad_ph))
        unbalanced = dict(base, traceEvents=[
            {"ph": "B", "name": "LOAD", "pid": 0, "tid": 1, "ts": 5},
        ])
        assert any("unclosed B" in p for p in validate_chrome_trace(unbalanced))
        stray_end = dict(base, traceEvents=[
            {"ph": "E", "name": "LOAD", "pid": 0, "tid": 1, "ts": 5},
        ])
        assert any(
            "E without matching B" in p for p in validate_chrome_trace(stray_end)
        )
        no_dur = dict(base, traceEvents=[
            {"ph": "X", "name": "ALU", "pid": 0, "tid": 0, "ts": 1},
        ])
        assert any("no numeric dur" in p for p in validate_chrome_trace(no_dur))


class TestIntervalRecords:
    def test_hub_without_interval_sink_does_no_window_work(self, monkeypatch):
        flushed: list[int] = []
        monkeypatch.setattr(IntervalCollector, "_flush",
                            lambda self, end: flushed.append(end))
        hub = TelemetryHub(window=50)
        hub.add_event_sink(InMemorySink())
        simulate(mixed_kernel(iterations=8), make_config(num_sms=2),
                 CONFIGS["apres"].build, telemetry=hub)
        assert hub.intervals is None
        assert flushed == []

    def test_interval_sink_added_after_bind_sees_every_window(self):
        def records(before_bind: bool) -> list[dict]:
            hub = TelemetryHub(window=400)
            sink = InMemorySink()
            if before_bind:
                hub.add_interval_sink(sink)
            sim = GPUSimulator(mixed_kernel(iterations=8), make_config(num_sms=2),
                               CONFIGS["apres"].build, telemetry=hub)
            if not before_bind:
                hub.add_interval_sink(sink)
            sim.run()
            return sink.intervals

        expected = records(before_bind=True)
        assert expected
        assert records(before_bind=False) == expected

    def test_windows_tile_the_run_exactly(self):
        hub = TelemetryHub(window=400)
        sink = InMemorySink()
        hub.add_interval_sink(sink)
        cfg = make_config(num_sms=2)
        result = simulate(
            mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        records = sink.intervals
        assert records
        assert records[0]["cycle_start"] == 0
        for prev, cur in zip(records, records[1:]):
            assert cur["cycle_start"] == prev["cycle_end"]
        assert records[-1]["cycle_end"] == result.stats.cycles
        assert sink.final_cycle == result.stats.cycles
        for record in records:
            assert validate_interval_record(record) == []
        assert (
            sum(r["instructions"] for r in records)
            == result.stats.instructions
        )

    def test_load_characteristic_metrics_are_bounded_fractions(self):
        """The load-characteristic metrics: L2 miss rate and the
        exclusive-cause stall fractions are all in [0, 1], and the stall
        fractions — one exclusive cause per stalled SM-cycle — never sum
        past 1 within a window."""
        hub = TelemetryHub(window=400)
        sink = InMemorySink()
        hub.add_interval_sink(sink)
        cfg = make_config(num_sms=2)
        simulate(mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build,
                 telemetry=hub)
        stall_names = [n for n in INTERVAL_METRICS
                       if n.startswith("stall_frac_")]
        assert len(stall_names) == 6
        saw_stall = False
        for record in sink.intervals:
            assert 0.0 <= record["l2_miss_rate"] <= 1.0
            total = sum(record[name] for name in stall_names)
            assert 0.0 <= total <= 1.0 + 1e-9
            saw_stall = saw_stall or total > 0.0
        # The mixed kernel misses enough for some cause to show up.
        assert saw_stall

    def test_jsonl_writer_round_trips(self, tmp_path):
        out = tmp_path / "intervals.jsonl"
        hub = TelemetryHub(window=500)
        writer = IntervalJSONLWriter(str(out))
        hub.add_interval_sink(writer)
        cfg = make_config(num_sms=2)
        result = simulate(
            mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        lines = out.read_text().splitlines()
        assert len(lines) == writer.records_written > 0
        records = [json.loads(line) for line in lines]
        for record in records:
            assert validate_interval_record(record) == []
        assert records[-1]["cycle_end"] == result.stats.cycles

    def test_jsonl_writer_pickles_mid_run(self, tmp_path):
        writer = IntervalJSONLWriter(str(tmp_path / "x.jsonl"))
        writer.on_interval({"cycle_start": 0, "cycle_end": 1, "ipc": 0.5})
        clone = pickle.loads(pickle.dumps(writer))
        assert clone.path == writer.path
        assert clone.records_written == 1

    def test_validator_rejects_malformed_records(self):
        assert validate_interval_record([]) != []
        missing = {"cycle_start": 0, "cycle_end": 10}
        assert any(
            "missing or non-numeric" in p
            for p in validate_interval_record(missing)
        )
        empty = {"cycle_start": 5, "cycle_end": 5}
        assert any("empty window" in p for p in validate_interval_record(empty))
        good = {"cycle_start": 0, "cycle_end": 10}
        good.update({name: 0.0 for name in INTERVAL_METRICS})
        assert validate_interval_record(good) == []
        assert any(
            "unknown field" in p
            for p in validate_interval_record(dict(good, bogus=1))
        )


class TestEventStream:
    def test_in_memory_sink_sees_typed_events(self):
        hub = TelemetryHub()
        sink = InMemorySink()
        hub.add_event_sink(sink)
        cfg = make_config(num_sms=2)
        result = simulate(
            mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        assert hub.events_emitted == len(sink.events) > 0
        issues = sink.events_of_kind("issue")
        assert len(issues) == result.stats.instructions
        assert sink.events_of_kind("l1_access")
        kinds = {type(e).kind for e in sink.events}
        assert "sched_group" in kinds  # LAWS decisions made it through
        for event in sink.events[:50]:
            record = event.as_dict()
            assert record["kind"] == type(event).kind
            assert isinstance(record["cycle"], int)

    def test_event_registry_is_coherent(self):
        assert validate_event_registry() == []


class TestHeartbeat:
    def test_heartbeat_prints_one_line_per_window(self):
        stream = io.StringIO()
        hub = TelemetryHub(window=400)
        beat = HeartbeatSink(cycle_budget=2_000_000, stream=stream)
        hub.add_interval_sink(beat)
        cfg = make_config(num_sms=2)
        simulate(
            mixed_kernel(iterations=8), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        lines = stream.getvalue().splitlines()
        assert len(lines) == beat.lines_printed > 0
        assert all(line.startswith("[telemetry] cycle") for line in lines)
        assert "% of budget" in lines[-1]

    def test_heartbeat_pickles(self):
        beat = HeartbeatSink(cycle_budget=100, stream=io.StringIO())
        beat.on_interval({"cycle_start": 0, "cycle_end": 10, "ipc": 1.0,
                          "ipc_cum": 1.0})
        clone = pickle.loads(pickle.dumps(beat))
        assert clone.lines_printed == 1


def _regenerate_golden() -> None:
    for config, path in GOLDENS.items():
        hub, _result = golden_run(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(hub.trace.build(), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path} ({hub.trace.num_trace_events} trace events)")


if __name__ == "__main__":
    _regenerate_golden()
