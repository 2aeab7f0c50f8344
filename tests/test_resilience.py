"""Fault injection, the supervised pool, and self-healing persistence.

The contract under test is the same bit-identity bar as the plain
parallel engine, now under injected faults: a sweep that survives worker
crashes, SIGSTOP hangs, torn appends and corrupted registry memos must
still produce output byte-identical to an undisturbed serial run.
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
from repro.experiments import runner
from repro.experiments.sweep import ResultsStore, run_sweep, sweep_points
from repro.registry.store import RegistryStore
from repro.resilience import faults
from repro.resilience.atomic import append_line
from repro.resilience.chaos import format_chaos, run_chaos
from repro.resilience.faults import FaultEvent, FaultPlan, corrupt_last_record
from repro.resilience.supervisor import SupervisorConfig
from repro.telemetry.flight import validate_flight_dump

REPO_ROOT = Path(__file__).resolve().parent.parent

APPS = ["BFS", "KM"]
SCALE = 0.05


def tiny_points(apps=APPS, configs=("base",), scales=(SCALE,)):
    return sweep_points(apps, configs, scales)


@pytest.fixture(autouse=True)
def fresh_run_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.fixture(autouse=True)
def disarmed():
    """No test may leak an armed fault plan into the next one."""
    faults.disarm()
    yield
    faults.disarm()


def fast_supervisor(**overrides):
    defaults = dict(deadline_s=2.0, heartbeat_interval_s=0.1,
                    backoff_base_s=0.05, backoff_cap_s=0.2)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class TestAtomicAppend:
    def test_torn_write_heals_to_the_full_line(self, tmp_path):
        target = tmp_path / "store.jsonl"
        append_line(target, "first")  # unarmed: consumes no occurrence
        faults.arm(FaultPlan(events=[
            FaultEvent("append.write", 0, "torn-write")]))
        append_line(target, "second")
        assert target.read_text() == "first\nsecond\n"

    def test_disk_full_and_fsync_failure_heal(self, tmp_path):
        target = tmp_path / "store.jsonl"
        faults.arm(FaultPlan(events=[
            FaultEvent("append.write", 0, "disk-full"),
            FaultEvent("append.fsync", 1, "fsync-fail"),
        ]))
        append_line(target, "a")
        append_line(target, "b")
        assert target.read_text() == "a\nb\n"

    def test_exhausted_retries_leave_the_file_untouched(self, tmp_path):
        target = tmp_path / "store.jsonl"
        append_line(target, "keep")
        before = target.read_bytes()
        # Occurrence counters only tick while a plan is armed, so the
        # doomed append's three attempts are occurrences 0, 1 and 2.
        faults.arm(FaultPlan(events=[
            FaultEvent("append.write", occ, "disk-full")
            for occ in (0, 1, 2)
        ]))
        with pytest.raises(OSError):
            append_line(target, "doomed", retries=3)
        assert target.read_bytes() == before

    def test_sigkilled_writer_never_tears_a_line(self, tmp_path):
        """Satellite regression: SIGKILL a process mid-append loop; every
        persisted line must still parse (the single-syscall O_APPEND
        write is all-or-nothing)."""
        target = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        script = (
            "import json, itertools, sys\n"
            "from repro.resilience.atomic import append_line\n"
            "for i in itertools.count():\n"
            "    append_line(sys.argv[1], json.dumps("
            "{'i': i, 'pad': 'x' * 512}))\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script, str(target)],
                                env=env, cwd=REPO_ROOT)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if target.exists() and target.stat().st_size > 4096:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        lines = target.read_text().splitlines()
        assert len(lines) >= 2
        for line in lines:
            json.loads(line)  # no torn tail, no interleaving


class TestFaultPlan:
    def test_build_is_deterministic_in_the_seed(self):
        kinds = ["crash", "hang", "torn-write", "corrupt-record"]
        a = FaultPlan.build(kinds, points=7, seed=3)
        b = FaultPlan.build(kinds, points=7, seed=3)
        assert a.events == b.events
        assert [e.kind for e in a.events] == kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.build(["segfault"], points=2)

    def test_worker_faults_fire_on_first_attempt_only(self):
        plan = FaultPlan(events=[FaultEvent("worker.point", 0, "crash")])
        assert plan.trip("worker.point", 0, attempt=1) == "crash"
        assert plan.trip("worker.point", 0, attempt=1) is None  # consumed
        plan = FaultPlan(events=[FaultEvent("worker.point", 0, "crash")])
        assert plan.trip("worker.point", 0, attempt=2) is None  # requeue runs clean

    def test_every_attempt_faults_never_converge(self):
        plan = FaultPlan(events=[
            FaultEvent("worker.point", 0, "crash", every_attempt=True)])
        for attempt in (1, 2, 3):
            assert plan.trip("worker.point", 0, attempt) == "crash"


class TestSupervisedPoolRecovery:
    def test_worker_crash_is_requeued_byte_identically(self, tmp_path, capsys):
        cfg = make_config()
        serial = tmp_path / "serial.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=cfg)

        faults.arm(FaultPlan(events=[FaultEvent("worker.point", 0, "crash")]))
        chaotic = tmp_path / "chaotic.jsonl"
        summary = run_sweep(tiny_points(), str(chaotic), gpu_config=cfg,
                            jobs=2, supervisor=fast_supervisor())
        assert summary.failed == 0
        assert summary.simulated == len(tiny_points())
        assert chaotic.read_bytes() == serial.read_bytes()
        err = capsys.readouterr().err
        assert "died on point" in err
        assert "requeueing point" in err

    def test_sigstop_hang_is_escalated_byte_identically(self, tmp_path, capsys):
        """Satellite: a worker SIGSTOPs itself under --jobs 2; the
        heartbeat deadline kills it and the requeued attempt converges."""
        cfg = make_config()
        serial = tmp_path / "serial.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=cfg)

        faults.arm(FaultPlan(events=[FaultEvent("worker.point", 1, "hang")]))
        chaotic = tmp_path / "chaotic.jsonl"
        summary = run_sweep(
            tiny_points(), str(chaotic), gpu_config=cfg, jobs=2,
            supervisor=fast_supervisor(deadline_s=1.0))
        assert summary.failed == 0
        assert chaotic.read_bytes() == serial.read_bytes()
        err = capsys.readouterr().err
        assert "missed its heartbeat deadline" in err

    def test_poisoned_point_is_quarantined(self, tmp_path):
        cfg = make_config()
        faults.arm(FaultPlan(events=[
            FaultEvent("worker.point", 0, "crash", every_attempt=True)]))
        out = tmp_path / "poisoned.jsonl"
        summary = run_sweep(
            tiny_points(), str(out), gpu_config=cfg, jobs=2,
            supervisor=fast_supervisor(max_attempts=2))
        assert summary.failed == 1
        assert summary.quarantined_keys == summary.failed_keys
        records = ResultsStore(str(out)).load()
        failed = [r for r in records.values() if r["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["quarantined"] is True
        assert failed[0]["error"] == "PointQuarantined"
        assert failed[0]["details"]["kind"] == "worker-crash"
        assert failed[0]["attempts"] == 2

    def test_resume_skips_quarantined_then_retry_failed_heals(self, tmp_path):
        cfg = make_config()
        reference = tmp_path / "ref.jsonl"
        run_sweep(tiny_points(), str(reference), gpu_config=cfg)

        faults.arm(FaultPlan(events=[
            FaultEvent("worker.point", 0, "crash", every_attempt=True)]))
        out = tmp_path / "quarantined.jsonl"
        run_sweep(tiny_points(), str(out), gpu_config=cfg, jobs=2,
                  supervisor=fast_supervisor(max_attempts=2))
        faults.disarm()

        resumed = run_sweep(tiny_points(), str(out), gpu_config=cfg,
                            resume_from=str(out))
        assert resumed.simulated == 0
        assert resumed.quarantined_skipped == 1
        assert len(resumed.quarantined_keys) == 1

        healed = run_sweep(tiny_points(), str(out), gpu_config=cfg,
                           resume_from=str(out), retry_failed=True)
        assert healed.simulated == 1
        assert healed.quarantined_skipped == 0
        assert ResultsStore(str(out)).load() == \
            ResultsStore(str(reference)).load()

    def test_serial_exhausted_retries_stay_retryable_on_resume(self, tmp_path):
        # A SimulationError (here: a watchdog timeout from a doomed cycle
        # budget) is transient by assumption — resume re-attempts it, and
        # a healthier config heals the store. Only deterministic errors
        # and supervisor quarantines are skipped on resume.
        doomed = dataclasses.replace(make_config(), max_cycles=60)
        out = tmp_path / "doomed.jsonl"
        first = run_sweep(tiny_points(apps=["BFS"]), str(out),
                          gpu_config=doomed, retries=0, sleep=lambda s: None)
        assert first.failed == 1
        record = next(iter(ResultsStore(str(out)).load().values()))
        assert record["quarantined"] is False
        resumed = run_sweep(tiny_points(apps=["BFS"]), str(out),
                            gpu_config=make_config(), resume_from=str(out))
        assert resumed.simulated == 1
        assert resumed.quarantined_skipped == 0
        assert resumed.failed == 0

    def test_pool_degrades_to_serial_and_stays_identical(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.resilience.supervisor.DEGRADE_AFTER", 1)
        cfg = make_config()
        serial = tmp_path / "serial.jsonl"
        run_sweep(tiny_points(), str(serial), gpu_config=cfg)

        # Every dispatch of every point kills its worker: the pool must
        # give up on processes and finish in-parent (where worker-site
        # faults never fire).
        faults.arm(FaultPlan(events=[
            FaultEvent("worker.point", index, "crash", every_attempt=True)
            for index in range(len(tiny_points()))
        ]))
        chaotic = tmp_path / "degraded.jsonl"
        summary = run_sweep(
            tiny_points(), str(chaotic), gpu_config=cfg, jobs=2,
            supervisor=fast_supervisor(max_attempts=5))
        assert summary.failed == 0
        assert chaotic.read_bytes() == serial.read_bytes()
        assert "pool degraded to serial" in capsys.readouterr().err


class TestFlightDumpOnWorkerCrash:
    def test_poisoned_point_leaves_a_flight_dump_beside_quarantine(
            self, tmp_path, monkeypatch):
        dump_dir = tmp_path / "dumps"
        monkeypatch.setenv("REPRO_DUMP_DIR", str(dump_dir))
        faults.arm(FaultPlan(events=[
            FaultEvent("worker.point", 0, "crash", every_attempt=True)]))
        out = tmp_path / "poisoned.jsonl"
        summary = run_sweep(
            tiny_points(["KM"]), str(out), gpu_config=make_config(), jobs=2,
            supervisor=fast_supervisor(max_attempts=2))
        assert summary.quarantined_keys  # the quarantine record exists...
        crash_dumps = sorted(dump_dir.glob("flight-pool-worker-crash-*.json"))
        quarantine_dumps = sorted(
            dump_dir.glob("flight-pool-quarantine-*.json"))
        assert crash_dumps and quarantine_dumps  # ...and so do the dumps.

        payload = json.loads(quarantine_dumps[0].read_text())
        assert validate_flight_dump(payload) == []
        assert payload["details"]["kind"] == "worker-crash"
        kinds = [event["kind"] for event in payload["events"]]
        assert "pool.worker_death" in kinds
        assert "pool.quarantine" in kinds


class TestMemoHashVerification:
    def test_corrupted_memo_is_rejected_and_resimulated(self, tmp_path, capsys):
        cfg = make_config()
        registry = RegistryStore(tmp_path / "reg")
        cold = tmp_path / "cold.jsonl"
        run_sweep(tiny_points(), str(cold), gpu_config=cfg, registry=registry)

        corrupted_run_id = corrupt_last_record(registry)
        assert corrupted_run_id is not None

        warm = tmp_path / "warm.jsonl"
        summary = run_sweep(tiny_points(), str(warm), gpu_config=cfg,
                            registry=registry)
        assert summary.cache_rejected == 1
        assert summary.simulated == 1  # the poisoned point, re-simulated
        assert summary.cache_hits == len(tiny_points()) - 1
        # The corrupted payload never reaches the results store.
        assert warm.read_bytes() == cold.read_bytes()
        assert "rejected" in capsys.readouterr().err

    def test_intact_memos_still_replay(self, tmp_path):
        cfg = make_config()
        registry = RegistryStore(tmp_path / "reg")
        cold = tmp_path / "cold.jsonl"
        run_sweep(tiny_points(), str(cold), gpu_config=cfg, registry=registry)
        warm = tmp_path / "warm.jsonl"
        summary = run_sweep(tiny_points(), str(warm), gpu_config=cfg,
                            registry=registry)
        assert summary.cache_rejected == 0
        assert summary.simulated == 0
        assert warm.read_bytes() == cold.read_bytes()


class TestChaosHarness:
    def test_chaos_converges_byte_identically(self, tmp_path):
        report = run_chaos(
            ["crash", "torn-write", "disk-full", "corrupt-record"],
            jobs=2, out_dir=str(tmp_path / "chaos"), deadline_s=2.0)
        assert report.ok, format_chaos(report)
        assert report.store_identical
        assert report.registry_identical
        assert report.fsck_verify_ok
        assert "verdict: OK" in format_chaos(report)

    def test_chaos_artifacts_left_for_inspection(self, tmp_path):
        out = tmp_path / "chaos"
        run_chaos(["torn-write"], jobs=1, out_dir=str(out))
        assert (out / "clean.jsonl").exists()
        assert (out / "chaos.jsonl").exists()
        assert (out / "chaos_registry" / "records.jsonl").exists()
