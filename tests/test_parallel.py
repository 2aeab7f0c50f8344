"""Parallel experiment engine: pool sweeps, memoization, prewarming.

The contract under test everywhere here is *bit-identity*: a parallel or
cache-warm run must produce exactly what the serial cold run produces —
same JSONL bytes, same figure payloads — because every simulation point
is deterministic and all persistence stays in the parent process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import make_config
from repro.cli import main
from repro.errors import WatchdogTimeout
from repro.experiments import runner
from repro.experiments.parallel import (
    figure_points,
    parallel_map,
    prewarm,
    resolve_jobs,
    scorecard_points,
)
from repro.experiments.sweep import ResultsStore, run_sweep, sweep_points
from repro.registry.store import RegistryStore
from repro.resilience.supervisor import PointQuarantined, SupervisorConfig

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


def _mark_and_raise(marker: str) -> None:
    """parallel_map target: leave one mark per call, then fail."""
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write("x")
    raise TypeError(f"bad item {marker}")


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
                  jobs=2)
        assert parallel.read_bytes() == serial.read_bytes()
        record = next(iter(ResultsStore(str(serial)).load().values()))
        assert record["stalls"]["top_cause"]

    def test_telemetry_sweep_prints_the_same_lines_at_jobs2(
            self, tmp_path, capsys):
        # The parent's [sweep] line per stored point is the only progress
        # stream: a pool run prints nothing a serial run does not.
        out = str(tmp_path / "sweep.jsonl")
        argv = ["sweep", "--out", out, "--apps", "KM", "BFS",
                "--configs", "base", "--scales", str(SCALE), "--telemetry",
                "--window", "500", "--no-registry"]
        printed = []
        for jobs in ("1", "2"):
            if os.path.exists(out):
                os.remove(out)
            assert main(argv + ["--jobs", jobs]) == 0
            lines = capsys.readouterr().out.splitlines()
            printed.append([line for line in lines
                            if not line.startswith("jobs ")])
        serial, parallel = printed
        assert parallel == serial
        progress = [line.split(":")[0] for line in serial
                    if line.startswith("[")]
        assert progress == [f"[sweep] KM|base|{SCALE:g}",
                            f"[sweep] BFS|base|{SCALE:g}"]

    def test_parallel_failure_records_match_serial(self, tmp_path):
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=doomed)
        summary = run_sweep(tiny_points(), str(parallel), gpu_config=doomed,
                            jobs=2)
        assert summary.failed == len(tiny_points())
        assert serial.read_bytes() == parallel.read_bytes()
        records = ResultsStore(str(parallel)).load().values()
        assert [r["attempts"] for r in records] == [1] * len(tiny_points())

    def test_worker_crash_becomes_failure_record(self, tmp_path, monkeypatch):
        # A point whose worker dies on every attempt is quarantined as a
        # structured failure record instead of failing the sweep.
        def dies(*args, **kwargs):
            os._exit(1)

        monkeypatch.setattr("repro.experiments.sweep._run_point", dies)
        monkeypatch.setattr("repro.resilience.supervisor.BACKOFF_BASE_S", 0.01)
        out = tmp_path / "crash.jsonl"
        summary = run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                            str(out), gpu_config=make_config(), jobs=2,
                            supervisor=SupervisorConfig(max_attempts=2))
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

    def test_warm_sweep_reads_the_registry_once(self, tmp_path, monkeypatch):
        cfg = make_config()
        points = tiny_points(configs=("base", "apres", "ccws", "laws"))
        assert len(points) == 8
        registry = RegistryStore(tmp_path / "reg")
        run_sweep(points, str(tmp_path / "cold.jsonl"), gpu_config=cfg,
                  registry=registry)
        passes = []
        iter_jsonl = RegistryStore._iter_jsonl

        def counted(self, *args, **kwargs):
            passes.append(args or kwargs)
            return iter_jsonl(self, *args, **kwargs)

        monkeypatch.setattr(RegistryStore, "_iter_jsonl", counted)
        summary = run_sweep(points, str(tmp_path / "warm.jsonl"),
                            gpu_config=cfg, registry=registry)
        assert summary.cache_hits == 8
        assert len(passes) == 1

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
        registry = RegistryStore(tmp_path / "reg")
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                  str(tmp_path / "a.jsonl"), gpu_config=doomed,
                  registry=registry)
        # Same identity, healthy config: must simulate, not replay a failure.
        summary = run_sweep(tiny_points(apps=["BFS"], configs=("base",)),
                            str(tmp_path / "b.jsonl"), gpu_config=doomed,
                            registry=registry)
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

    def test_parallel_map_error_is_dispatched_once(self, tmp_path, capsys):
        # The function is deterministic, so raising is final: no requeue.
        markers = [str(tmp_path / "a"), str(tmp_path / "b")]
        with pytest.raises(PointQuarantined) as caught:
            parallel_map(_mark_and_raise, markers, jobs=2)
        assert caught.value.details["kind"] == "worker-error"
        assert caught.value.details["attempts"] == 1
        assert "TypeError" in str(caught.value)
        assert [Path(m).read_text() for m in markers] == ["x", "x"]
        assert "requeueing" not in capsys.readouterr().err

    def test_prewarm_runs_a_failing_point_once(self, tmp_path, monkeypatch):
        # One dispatch per point in the pool; the figure's serial producer
        # then re-runs the unseeded point and raises the real error.
        from repro.experiments import configs
        from repro.experiments.figures import figure10

        doomed = dataclasses.replace(make_config(), max_cycles=60)
        monkeypatch.setattr(configs, "experiment_gpu_config",
                            lambda *args, **kwargs: doomed)
        monkeypatch.setattr(runner, "experiment_gpu_config",
                            lambda *args, **kwargs: doomed)
        log = tmp_path / "runs.log"
        original = runner.run

        def logged(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {args[:2]}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "run", logged)
        points = figure_points("figure10", ["KM"], SCALE)
        assert prewarm(points, jobs=2) == len(points)
        worker_runs = [line.split(" ", 1)[1]
                       for line in log.read_text().splitlines()
                       if int(line.split(" ", 1)[0]) != os.getpid()]
        assert sorted(worker_runs) == sorted(str(p[:2]) for p in points)
        assert not any(runner.is_cached(*point) for point in points)
        with pytest.raises(WatchdogTimeout):
            figure10(["KM"], SCALE)

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

    def test_points_are_the_runs_each_producer_resolves(self, monkeypatch):
        # A FigureSpec's configs/l1_bytes must name exactly the runner
        # points its producer resolves, or a prewarm leaves serial work.
        from repro.experiments import figures

        resolved = set()
        original = runner.run

        def recording(workload, config, scale=1.0, gpu_config=None,
                      telemetry=None):
            resolved.add(runner.cache_key(workload, config, scale, gpu_config))
            return original(workload, config, scale, gpu_config, telemetry)

        monkeypatch.setattr(runner, "run", recording)
        monkeypatch.setattr(figures, "run", recording)
        for name, spec in figures.FIGURES.items():
            resolved.clear()
            spec.producer(["KM"], 0.02)
            expected = {runner.cache_key(*point)
                        for point in figure_points(name, ["KM"], 0.02)}
            assert resolved == expected, name
            assert bool(expected) == bool(spec.configs), name

    def test_unprewarmable_names_return_empty(self):
        assert figure_points("table1", apps=["KM"]) == []
        assert figure_points("nonsense") == []

    def test_scorecard_points_deduplicate_across_figures(self):
        merged = scorecard_points(["figure10", "figure13"], ["KM"], SCALE)
        f10 = figure_points("figure10", ["KM"], SCALE)
        f13 = figure_points("figure13", ["KM"], SCALE)
        assert len(merged) < len(f10) + len(f13)
        assert len(merged) == len(set(merged))
