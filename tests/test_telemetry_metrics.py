"""Run-wide metrics registry and the crash flight recorder.

Unit contracts: declared-name enforcement, typed instruments, deterministic JSON + Prometheus export, the
bounded flight ring, and dump schema/placement rules.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.flight import (
    FlightRecorder,
    recorder,
    validate_flight_dump,
)
from repro.telemetry.metrics import (
    METRICS,
    MetricsRegistry,
    get_registry,
    validate_metrics_export,
    write_metrics,
)

class TestMetricsRegistry:
    def test_undeclared_name_is_rejected_with_a_pointer_to_metrics(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError, match="telemetry.metrics.METRICS"):
            registry.counter("pool.worker.unheard_of")

    def test_type_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="declared as a gauge"):
            registry.counter("pool.workers.alive")

    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("pool.worker.requeues")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_instruments_are_memoised_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("registry.cache.hits") is \
            registry.counter("registry.cache.hits")

    def test_every_declared_metric_has_a_known_type(self):
        assert all(t in ("counter", "gauge")
                   for t, _help in METRICS.values())

    def test_get_registry_is_process_wide(self):
        assert get_registry() is get_registry()


class TestMetricsExport:
    @pytest.fixture
    def touched(self):
        registry = MetricsRegistry()
        registry.counter("registry.cache.hits").inc(5)
        registry.gauge("pool.workers.alive").set(2)
        return registry

    def test_json_export_validates_and_is_deterministic(self, tmp_path,
                                                        touched):
        registry = touched
        out = tmp_path / "metrics.json"
        prom_path = write_metrics(str(out), registry)
        assert prom_path == str(out) + ".prom"
        payload = json.loads(out.read_text())
        assert validate_metrics_export(payload) == []
        assert payload["schema"] == "repro-telemetry-metrics"
        assert payload["metrics"]["registry.cache.hits"]["value"] == 5
        assert payload["metrics"]["pool.workers.alive"]["value"] == 2
        first = out.read_bytes()
        write_metrics(str(out), registry)
        assert out.read_bytes() == first  # atomic rewrite, same bytes

    def test_prometheus_textfile_flattens_names(self, tmp_path, touched):
        registry = touched
        out = tmp_path / "metrics.json"
        prom = (tmp_path / "metrics.json.prom")
        write_metrics(str(out), registry)
        text = prom.read_text()
        assert "# TYPE registry_cache_hits counter" in text
        assert "registry_cache_hits 5" in text
        assert "# TYPE pool_workers_alive gauge" in text
        assert "pool_workers_alive 2" in text

    def test_validator_flags_undeclared_and_mistyped_entries(self):
        payload = {
            "schema": "repro-telemetry-metrics",
            "schema_version": 1,
            "metrics": {
                "not.a.metric": {"type": "counter", "value": 1},
                "pool.workers.alive": {"type": "counter", "value": 1},
                "registry.cache.hits": {"type": "histogram", "count": 1,
                                        "sum": 5, "min": 5, "max": 5},
            },
        }
        problems = validate_metrics_export(payload)
        assert len(problems) == 3


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.record("tick", i=i)
        events = ring.snapshot()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert [e["seq"] for e in events] == [6, 7, 8, 9]
        assert ring.events_recorded == 10

    def test_kind_is_positional_only(self):
        # Crash paths attach arbitrary fields; none may collide with the
        # event-kind parameter (regression: cause fields named "kind").
        ring = FlightRecorder(capacity=4)
        ring.record("pool.quarantine", kind="worker-crash", cause="x")
        assert ring.snapshot()[0]["kind"] == "worker-crash"

    def test_dump_is_skipped_without_a_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_DUMP_DIR", raising=False)
        ring = FlightRecorder(capacity=4)
        ring.record("tick")
        assert ring.dump("nowhere-to-go") is None
        assert ring.dumps_written == 0

    def test_dump_writes_schema_valid_json(self, tmp_path):
        ring = FlightRecorder(capacity=8)
        ring.record("pool.requeue", index=3)
        ring.record("worker_death", cause="crash")
        path = ring.dump("unit test!", directory=str(tmp_path),
                         details={"index": 7})
        assert path is not None and path.endswith(".json")
        assert "flight-unit-test-" in path  # unsafe chars sanitised
        payload = json.loads(open(path, encoding="utf-8").read())
        assert validate_flight_dump(payload) == []
        assert payload["reason"] == "unit test!"
        assert payload["details"] == {"index": 7}
        assert [e["kind"] for e in payload["events"]] == \
            ["pool.requeue", "worker_death"]

    def test_dump_respects_env_dir_and_counts_into_metrics(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DUMP_DIR", str(tmp_path / "env-dumps"))
        counter = get_registry().counter("flight.dumps.written")
        before = counter.value
        ring = FlightRecorder(capacity=2)
        ring.record("tick")
        path = ring.dump("env-routed")
        assert path is not None
        assert (tmp_path / "env-dumps") in list((tmp_path).iterdir())
        assert counter.value == before + 1

    def test_validator_catches_seq_regressions(self):
        payload = {
            "schema": "repro-flight-recorder",
            "schema_version": 1,
            "events": [{"seq": 1, "kind": "a"}, {"seq": 0, "kind": "b"}],
        }
        assert validate_flight_dump(payload) == ["event 1 seq not increasing"]

    def test_process_wide_recorder_is_shared(self):
        assert recorder() is recorder()
