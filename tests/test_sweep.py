"""Crash-safe sweep runner: persistence, resume, failure records, CLI wiring."""

import dataclasses
import json

import pytest

from conftest import make_config
from repro.cli import main
from repro.experiments import runner
from repro.experiments.sweep import (
    ResultsStore,
    SweepPoint,
    run_sweep,
    sweep_points,
)


APPS = ["BFS", "KM"]
SCALE = 0.05


def tiny_points(apps=APPS, configs=("base",), scales=(SCALE,)):
    return sweep_points(apps, configs, scales)


class TestSweepPoints:
    def test_cartesian_product(self):
        points = sweep_points(["BFS", "KM"], ["base", "apres"], [0.1, 0.5])
        assert len(points) == 8
        assert points[0] == SweepPoint("BFS", "base", 0.1)

    def test_key_is_stable_and_unique(self):
        points = tiny_points(configs=["base", "apres"])
        keys = [p.key for p in points]
        assert len(set(keys)) == len(keys)
        assert SweepPoint("BFS", "base", 0.5).key == "BFS|base|0.5"
        # %g keeps keys identical across int/float spellings of a scale.
        assert SweepPoint("BFS", "base", 1.0).key == "BFS|base|1"

    def test_unknown_workload_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown workload"):
            sweep_points(["NOPE"], ["base"])

    def test_unknown_config_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown config"):
            sweep_points(["BFS"], ["NOPE"])


class TestResultsStore:
    def test_roundtrip_and_last_record_wins(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.jsonl"))
        store.append({"key": "a", "status": "failed"})
        store.append({"key": "b", "status": "ok"})
        store.append({"key": "a", "status": "ok"})
        records = store.load()
        assert records["a"]["status"] == "ok"
        assert records["b"]["status"] == "ok"

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultsStore(str(tmp_path / "none.jsonl")).load() == {}

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultsStore(str(path))
        store.append({"key": "a", "status": "ok"})
        # Simulate a SIGKILL mid-append: a half-written final line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "b", "stat')
        records = store.load()
        assert set(records) == {"a"}

    def test_keyless_lines_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"status": "ok"}\n{"key": "a", "status": "ok"}\n')
        assert set(ResultsStore(str(path)).load()) == {"a"}


class TestRunSweep:
    def test_sweep_persists_every_point(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        summary = run_sweep(tiny_points(), out, gpu_config=make_config())
        assert summary.simulated == len(APPS)
        assert summary.failed == 0
        records = ResultsStore(out).load()
        assert len(records) == len(APPS)
        for record in records.values():
            assert record["status"] == "ok"
            assert record["cycles"] > 0
            assert record["stats"]["instructions"] > 0

    def test_resume_skips_completed_points(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        cfg = make_config()
        run_sweep(tiny_points(), out, gpu_config=cfg)
        again = run_sweep(tiny_points(), out, gpu_config=cfg, resume_from=out)
        assert again.simulated == 0
        assert again.skipped == len(APPS)

    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        cfg = make_config()
        reference = str(tmp_path / "ref.jsonl")
        run_sweep(tiny_points(), reference, gpu_config=cfg)

        # "Crash" after one point, then restart the same command in place.
        out = str(tmp_path / "partial.jsonl")
        first = run_sweep(tiny_points(), out, gpu_config=cfg, max_points=1)
        assert first.simulated == 1
        run_sweep(tiny_points(), out, gpu_config=cfg, resume_from=out)

        assert ResultsStore(out).load() == ResultsStore(reference).load()

    def test_resume_into_fresh_store_copies_old_records(self, tmp_path):
        cfg = make_config()
        old = str(tmp_path / "old.jsonl")
        run_sweep(tiny_points(apps=["BFS"]), old, gpu_config=cfg)

        new = str(tmp_path / "new.jsonl")
        summary = run_sweep(tiny_points(), new, gpu_config=cfg, resume_from=old)
        assert summary.skipped == 1 and summary.simulated == 1
        # new alone now holds the full sweep.
        assert len(ResultsStore(new).load()) == len(APPS)

    def test_failed_point_is_recorded_and_sweep_continues(self, tmp_path):
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        out = str(tmp_path / "sweep.jsonl")
        summary = run_sweep(tiny_points(), out, gpu_config=doomed)
        assert summary.simulated == len(APPS)
        assert summary.failed == len(APPS)
        assert summary.failed_keys == [p.key for p in tiny_points()]
        for record in ResultsStore(out).load().values():
            assert record["status"] == "failed"
            assert record["error"] == "WatchdogTimeout"
            assert "exceeded" in record["message"]
            json.dumps(record["details"])  # structured dump must serialise

    def test_doomed_point_runs_once(self, tmp_path, monkeypatch):
        # Simulation is deterministic: a retry would fail the same way, so
        # a failed point is simulated once, recorded, and never slept on.
        import time

        from repro.experiments import sweep

        runs, sleeps = [], []
        original = sweep.run

        def counted(*args, **kwargs):
            runs.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep, "run", counted)
        # The provenance stamp shells out to git, and subprocess polls
        # with sleep; pin it so only the sweep's own sleeps are counted.
        monkeypatch.setattr("repro.registry.provenance.git_sha",
                            lambda short=False: "0" * 40)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        run_sweep(tiny_points(apps=["BFS"]), str(tmp_path / "s.jsonl"),
                  gpu_config=doomed)
        assert runs == ["BFS"]
        assert sleeps == []
        record = next(iter(ResultsStore(str(tmp_path / "s.jsonl")).load().values()))
        assert record["error"] == "WatchdogTimeout"
        assert record["attempts"] == 1
        assert record["quarantined"] is False

    def test_failed_points_are_retried_on_resume(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        run_sweep(tiny_points(apps=["BFS"]), out, gpu_config=doomed)
        # Same store, healthy config: the failure is not treated as done.
        summary = run_sweep(
            tiny_points(apps=["BFS"]), out, gpu_config=make_config(),
            resume_from=out,
        )
        assert summary.skipped == 0 and summary.simulated == 1
        assert ResultsStore(out).load()["BFS|base|0.05"]["status"] == "ok"

    def test_records_are_deterministic(self, tmp_path):
        cfg = make_config()
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_sweep(tiny_points(apps=["KM"]), a, gpu_config=cfg)
        run_sweep(tiny_points(apps=["KM"]), b, gpu_config=cfg)
        assert ResultsStore(a).load() == ResultsStore(b).load()


class TestRunnerCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        limit = runner.cache_limit()
        runner.clear_cache()
        yield
        runner.set_cache_limit(limit)
        runner.clear_cache()

    def test_cache_is_bounded_lru(self):
        runner.set_cache_limit(2)
        cfg = make_config()
        for scale in (0.03, 0.04, 0.05):
            runner.run("BFS", "base", scale=scale, gpu_config=cfg)
        assert len(runner._CACHE) == 2
        scales = sorted(key[2] for key in runner._CACHE)
        assert scales == [0.04, 0.05], "oldest entry should have been evicted"

    def test_hit_refreshes_recency(self):
        runner.set_cache_limit(2)
        cfg = make_config()
        runner.run("BFS", "base", scale=0.03, gpu_config=cfg)
        runner.run("BFS", "base", scale=0.04, gpu_config=cfg)
        runner.run("BFS", "base", scale=0.03, gpu_config=cfg)  # refresh
        runner.run("BFS", "base", scale=0.05, gpu_config=cfg)  # evicts 0.04
        assert sorted(k[2] for k in runner._CACHE) == [0.03, 0.05]

    def test_shrinking_limit_evicts_immediately(self):
        cfg = make_config()
        for scale in (0.03, 0.04, 0.05):
            runner.run("BFS", "base", scale=scale, gpu_config=cfg)
        runner.set_cache_limit(1)
        assert len(runner._CACHE) == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            runner.set_cache_limit(0)

    def test_gpu_config_stays_hashable_cache_key(self):
        from repro.config import GPUConfig

        assert GPUConfig.__dataclass_params__.frozen
        assert hash(GPUConfig()) == hash(GPUConfig())


class TestSweepCLI:
    def test_sweep_command_writes_store(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        code = main([
            "sweep", "--out", out, "--apps", "BFS",
            "--configs", "base", "--scales", "0.05",
        ])
        assert code == 0
        assert ResultsStore(out).load()["BFS|base|0.05"]["status"] == "ok"
        printed = capsys.readouterr().out
        assert "BFS|base|0.05" in printed

    def test_sweep_resume_flag_skips_done_points(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        argv = [
            "sweep", "--out", out, "--apps", "BFS",
            "--configs", "base", "--scales", "0.05",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume-from", out]) == 0
        resumed_out = capsys.readouterr().out
        # All points skipped: no per-point progress lines, only the summary.
        assert "[sweep]" not in resumed_out
        assert "skipped" in resumed_out

    def test_sweep_with_failures_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        code = main([
            "sweep", "--out", out, "--apps", "BFS", "--configs", "base",
            "--scales", "0.05", "--cycle-budget", "60",
        ])
        assert code == 1
        assert "failed" in capsys.readouterr().out

    def test_run_cycle_budget_exits_with_repro_error_code(self, capsys):
        code = main(["run", "KM", "base", "--scale", "0.2",
                     "--cycle-budget", "200"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: WatchdogTimeout:")
        assert err.count("\n") == 1, "diagnostic must stay one line"

    def test_sweep_rejects_unknown_app(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "x.jsonl"),
                     "--apps", "NOPE"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err
