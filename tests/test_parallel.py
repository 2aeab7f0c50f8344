"""Parallel experiment engine: pool sweeps, memoization, prewarming.

The contract under test everywhere here is *bit-identity*: a parallel or
cache-warm run must produce exactly what the serial cold run produces —
same JSONL bytes, same figure payloads — because every simulation point
is deterministic and all persistence stays in the parent process.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_config
from repro.experiments import runner
from repro.experiments.configs import CONFIGS
from repro.experiments.parallel import (
    ProgressWriter,
    QueueHeartbeatSink,
    figure_points,
    parallel_map,
    prewarm,
    resolve_jobs,
    scorecard_points,
)
from repro.experiments.sweep import ResultsStore, run_sweep, sweep_points
from repro.registry.store import RegistryStore
from repro.resilience.supervisor import SupervisorConfig
from repro.sm.simulator import simulate
from repro.telemetry import TelemetryHub
from repro.telemetry.export import InMemorySink
from repro.workloads.suite import workload
from repro.workloads.synthetic import build_kernel

REPO_ROOT = Path(__file__).resolve().parent.parent

APPS = ["BFS", "KM"]
SCALE = 0.05


def tiny_points(apps=APPS, configs=("base", "apres"), scales=(SCALE,)):
    return sweep_points(apps, configs, scales)


def crash_first_worker_call(monkeypatch, target, marker):
    """Patch ``target`` so the first call made in a pool worker ``os._exit``s.

    ``marker`` is created with O_EXCL, so exactly one worker dies however
    the calls race; every other call reaches the original function.
    """
    module_name, attr = target.rsplit(".", 1)
    module = __import__(module_name, fromlist=[attr])
    original = getattr(module, attr)
    parent = os.getpid()

    def dies_once(*args, **kwargs):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, dies_once)


@pytest.fixture(autouse=True)
def fresh_run_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            resolve_jobs(None)


class TestProgressWriter:
    def test_concurrent_lines_never_interleave(self):
        stream = io.StringIO()
        writer = ProgressWriter(stream)
        payloads = [f"line-{i}" * 50 for i in range(8)]

        def spam(text):
            for _ in range(25):
                writer.line(text)

        threads = [threading.Thread(target=spam, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 8 * 25
        assert set(lines) == set(payloads)


class TestQueueHeartbeatSink:
    def test_forwards_interval_as_tuple(self):
        class StubQueue:
            def __init__(self):
                self.items = []

            def put(self, item):
                self.items.append(item)

        queue = StubQueue()
        sink = QueueHeartbeatSink(queue, "KM|base|0.05")
        sink.on_interval({"cycle_end": 5000, "ipc": 0.5, "ipc_cum": 0.4})
        assert queue.items == [("KM|base|0.05", 5000, 0.5, 0.4)]

    def test_queue_failure_is_swallowed(self):
        class DeadQueue:
            def put(self, item):
                raise BrokenPipeError("manager gone")

        sink = QueueHeartbeatSink(DeadQueue(), "k")
        sink.on_interval({"cycle_end": 1, "ipc": 0.1, "ipc_cum": 0.1})  # no raise


class TestWorkerHeartbeats:
    def test_jobs2_sweep_renders_every_interval(self, tmp_path):
        # Each pool worker's QueueHeartbeatSink reaches the parent over the
        # pool's result queue; the parent renders one line per interval
        # record through the sweep's ProgressWriter.
        cfg = make_config(num_sms=2)
        hub = TelemetryHub(window=500)
        tap = InMemorySink()
        hub.add_interval_sink(tap)
        simulate(build_kernel(workload("KM"), SCALE), cfg,
                 CONFIGS["apres"].build, telemetry=hub)
        stream = io.StringIO()
        run_sweep(sweep_points(["KM"], ("apres",), (SCALE,)),
                  str(tmp_path / "hb.jsonl"), gpu_config=cfg, telemetry=True,
                  telemetry_window=500, jobs=2,
                  heartbeat_writer=ProgressWriter(stream))
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(tap.intervals) > 0
        for line, interval in zip(lines, tap.intervals):
            assert line.startswith("[telemetry] KM|apres|0.05: cycle ")
            assert f"cycle {interval['cycle_end']:,}" in line
            assert f"IPC {interval['ipc']:.3f}" in line


class TestParallelSweepIdentity:
    def test_jobs2_jsonl_is_byte_identical_to_serial(self, tmp_path):
        cfg = make_config()
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        s1 = run_sweep(tiny_points(), str(serial), gpu_config=cfg)
        s2 = run_sweep(tiny_points(), str(parallel), gpu_config=cfg, jobs=2)
        assert s1.simulated == s2.simulated == len(tiny_points())
        assert serial.read_bytes() == parallel.read_bytes()

    def test_telemetry_sweep_jobs2_is_byte_identical(self, tmp_path):
        cfg = make_config(num_sms=2)
        points = sweep_points(["KM"], ("base",), (SCALE,))
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(points, str(serial), gpu_config=cfg, telemetry=True)
        run_sweep(points, str(parallel), gpu_config=cfg, telemetry=True,
                  jobs=2, heartbeat_writer=ProgressWriter(io.StringIO()))
        assert parallel.read_bytes() == serial.read_bytes()
        record = next(iter(ResultsStore(str(serial)).load().values()))
        assert record["stalls"]["top_cause"]

    def test_parallel_failure_records_match_serial(self, tmp_path):
        doomed = make_config()
        import dataclasses

        doomed = dataclasses.replace(doomed, max_cycles=60)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=doomed,
                  retries=0, sleep=lambda s: None)
        summary = run_sweep(tiny_points(), str(parallel), gpu_config=doomed,
                            retries=0, jobs=2)
        assert summary.failed == len(tiny_points())
        assert serial.read_bytes() == parallel.read_bytes()

    def test_worker_crash_becomes_failure_record(self, tmp_path, monkeypatch):
        # A point whose worker dies on every attempt is quarantined as a
        # structured failure record instead of failing the sweep.
        def dies(*args, **kwargs):
            os._exit(1)

        monkeypatch.setattr("repro.experiments.sweep._run_point", dies)
        out = tmp_path / "crash.jsonl"
        summary = run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                            str(out), gpu_config=make_config(), jobs=2,
                            supervisor=SupervisorConfig(max_attempts=2,
                                                        backoff_base_s=0.01))
        assert summary.failed == 1
        record = next(iter(ResultsStore(str(out)).load().values()))
        assert record["status"] == "failed"
        assert record["quarantined"] is True
        assert record["attempts"] == 2
        assert record["details"]["kind"] == "worker-crash"
        assert "worker exitcode 1" in record["message"]

    def test_jobs2_sweep_heals_a_worker_crash(self, tmp_path, monkeypatch):
        # No supervisor arguments: crash recovery is the default pool's.
        cfg = make_config()
        serial = tmp_path / "serial.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=cfg)
        crash_first_worker_call(monkeypatch, "repro.experiments.sweep._run_point",
                                tmp_path / "crashed")
        parallel = tmp_path / "parallel.jsonl"
        summary = run_sweep(tiny_points(), str(parallel), gpu_config=cfg, jobs=2)
        assert (tmp_path / "crashed").exists()
        assert summary.failed == 0
        assert parallel.read_bytes() == serial.read_bytes()


class TestRegistryMemoization:
    def test_warm_rerun_replays_without_simulating(self, tmp_path):
        cfg = make_config()
        registry = RegistryStore(tmp_path / "reg")
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        first = run_sweep(tiny_points(), str(cold), gpu_config=cfg,
                          registry=registry)
        assert first.cache_hits == 0
        assert first.cache_misses == len(tiny_points())
        second = run_sweep(tiny_points(), str(warm), gpu_config=cfg,
                           registry=registry)
        assert second.simulated == 0
        assert second.cache_hits == len(tiny_points())
        assert second.cache_misses == 0
        assert cold.read_bytes() == warm.read_bytes()

    def test_warm_parallel_rerun_is_also_identical(self, tmp_path):
        cfg = make_config()
        registry = RegistryStore(tmp_path / "reg")
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        run_sweep(tiny_points(), str(cold), gpu_config=cfg, registry=registry)
        summary = run_sweep(tiny_points(), str(warm), gpu_config=cfg,
                            registry=registry, jobs=2)
        assert summary.simulated == 0
        assert summary.cache_hits == len(tiny_points())
        assert cold.read_bytes() == warm.read_bytes()

    def test_no_cache_forces_resimulation(self, tmp_path):
        cfg = make_config()
        registry = RegistryStore(tmp_path / "reg")
        cold = tmp_path / "cold.jsonl"
        again = tmp_path / "again.jsonl"
        run_sweep(tiny_points(), str(cold), gpu_config=cfg, registry=registry)
        summary = run_sweep(tiny_points(), str(again), gpu_config=cfg,
                            registry=registry, use_cache=False)
        assert summary.simulated == len(tiny_points())
        assert summary.cache_hits == 0
        assert cold.read_bytes() == again.read_bytes()

    def test_config_change_misses_the_cache(self, tmp_path):
        registry = RegistryStore(tmp_path / "reg")
        run_sweep(tiny_points(configs=("base",)), str(tmp_path / "a.jsonl"),
                  gpu_config=make_config(), registry=registry)
        summary = run_sweep(
            tiny_points(configs=("base",)), str(tmp_path / "b.jsonl"),
            gpu_config=make_config(l1_bytes=8 * 1024), registry=registry)
        assert summary.cache_hits == 0
        assert summary.simulated == len(APPS)

    def test_failures_are_never_memoised(self, tmp_path):
        import dataclasses

        registry = RegistryStore(tmp_path / "reg")
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                  str(tmp_path / "a.jsonl"), gpu_config=doomed,
                  retries=0, sleep=lambda s: None, registry=registry)
        # Same identity, healthy config: must simulate, not replay a failure.
        summary = run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                            str(tmp_path / "b.jsonl"), gpu_config=doomed,
                            retries=0, sleep=lambda s: None, registry=registry)
        assert summary.cache_hits == 0


class TestParallelResume:
    def test_partial_then_parallel_resume_equals_serial(self, tmp_path):
        cfg = make_config()
        reference = tmp_path / "ref.jsonl"
        run_sweep(tiny_points(), str(reference), gpu_config=cfg)

        out = tmp_path / "partial.jsonl"
        first = run_sweep(tiny_points(), str(out), gpu_config=cfg,
                          max_points=1, jobs=2)
        assert first.simulated == 1
        run_sweep(tiny_points(), str(out), gpu_config=cfg,
                  resume_from=str(out), jobs=2)
        assert ResultsStore(str(out)).load() == ResultsStore(str(reference)).load()

    def test_sigkilled_parallel_sweep_resumes_to_serial_reference(self, tmp_path):
        """SIGKILL a --jobs 2 CLI sweep mid-flight; --resume-from completes it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        base_cmd = [
            sys.executable, "-m", "repro", "sweep",
            "--apps", "BFS", "KM", "LUD", "SPMV",
            "--configs", "base", "apres",
            "--scales", str(SCALE), "--no-registry",
        ]
        reference = tmp_path / "ref.jsonl"
        subprocess.run(base_cmd + ["--out", str(reference)], check=True,
                       env=env, cwd=REPO_ROOT, timeout=600,
                       stdout=subprocess.DEVNULL)

        out = tmp_path / "killed.jsonl"
        proc = subprocess.Popen(
            base_cmd + ["--out", str(out), "--jobs", "2"],
            env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(3.0)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        subprocess.run(
            base_cmd + ["--out", str(out), "--resume-from", str(out),
                        "--jobs", "2"],
            check=True, env=env, cwd=REPO_ROOT, timeout=600,
            stdout=subprocess.DEVNULL)
        # Byte-compare is wrong here (the kill can tear the tail line);
        # semantic store equality is the resume contract.
        assert ResultsStore(str(out)).load() == ResultsStore(str(reference)).load()


class TestPrewarm:
    def test_prewarm_seeds_the_run_cache(self, tmp_path):
        cfg = make_config()
        points = [("BFS", "base", SCALE, cfg), ("KM", "base", SCALE, cfg)]
        assert prewarm(points, jobs=2) == 2
        assert runner.is_cached("BFS", "base", SCALE, cfg)
        assert runner.is_cached("KM", "base", SCALE, cfg)
        # Cached and duplicate points are free on the second pass.
        assert prewarm(points + points, jobs=2) == 0

    def test_prewarmed_results_match_inprocess_results(self):
        cfg = make_config()
        direct = runner.run("BFS", "base", SCALE, cfg)
        runner.clear_cache()
        prewarm([("BFS", "base", SCALE, cfg)], jobs=2)
        warmed = runner.run("BFS", "base", SCALE, cfg)
        assert warmed.cycles == direct.cycles
        assert warmed.ipc == direct.ipc
        assert warmed.sim.stats.as_dict() == direct.sim.stats.as_dict()

    def test_prewarm_heals_a_worker_crash(self, tmp_path, monkeypatch):
        from repro.experiments.figures import figure10

        serial = figure10(["KM"], SCALE)
        runner.clear_cache()
        crash_first_worker_call(monkeypatch, "repro.experiments.runner.run",
                                tmp_path / "crashed")
        points = figure_points("figure10", ["KM"], SCALE)
        assert prewarm(points, jobs=2) == len(points)
        assert (tmp_path / "crashed").exists()
        assert all(runner.is_cached(*point) for point in points)
        assert json.dumps(figure10(["KM"], SCALE), sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_parallel_map_preserves_order(self):
        assert parallel_map(abs, [-3, -1, -2], jobs=2) == [3, 1, 2]
        assert parallel_map(abs, [-3, -1, -2], jobs=1) == [3, 1, 2]

    def test_scorecard_identical_at_jobs4(self):
        from repro.registry.scorecard import scorecard

        serial = scorecard(figures=["figure10"], apps=["KM"], scale=SCALE)
        runner.clear_cache()
        prewarm(scorecard_points(["figure10"], ["KM"], SCALE), jobs=4)
        warmed = scorecard(figures=["figure10"], apps=["KM"], scale=SCALE)
        assert json.dumps(serial["figures"], sort_keys=True) == \
            json.dumps(warmed["figures"], sort_keys=True)


class TestFigurePoints:
    def test_figure10_points_cover_configs_times_apps(self):
        points = figure_points("figure10", apps=["KM", "BFS"], scale=SCALE)
        assert len(points) == 6 * 2  # 5 configs + base, two apps
        assert all(p[2] == SCALE for p in points)

    def test_figure2_uses_two_l1_sizes_per_app(self):
        points = figure_points("figure2", apps=["KM"], scale=SCALE)
        assert len(points) == 2
        sizes = {p[3].l1.size_bytes for p in points}
        assert len(sizes) == 2

    def test_unprewarmable_names_return_empty(self):
        assert figure_points("table1", apps=["KM"]) == []
        assert figure_points("nonsense") == []

    def test_scorecard_points_deduplicate_across_figures(self):
        merged = scorecard_points(["figure10", "figure13"], ["KM"], SCALE)
        f10 = figure_points("figure10", ["KM"], SCALE)
        f13 = figure_points("figure13", ["KM"], SCALE)
        assert len(merged) < len(f10) + len(f13)
        assert len(merged) == len(set(merged))
