"""Registry self-healing: every corruption class detected and repaired.

Each test manufactures one corruption class in a real registry (built by
a real sweep), asserts ``fsck`` names it, repairs with ``--repair``
semantics, and verifies the healed store passes a second pass clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import make_config
from repro.experiments import runner
from repro.experiments.sweep import run_sweep, sweep_points
from repro.registry.provenance import PROVENANCE_EPOCH_ENV
from repro.registry.store import RegistryStore
from repro.resilience.atomic import atomic_write
from repro.resilience.faults import corrupt_last_record
from repro.resilience.fsck import fsck, format_fsck

APPS = ["BFS", "KM"]
SCALE = 0.05


@pytest.fixture(autouse=True)
def fresh_run_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.fixture
def pinned_epoch(monkeypatch):
    """Pin provenance timestamps so restoration is byte-lossless."""
    monkeypatch.setenv(PROVENANCE_EPOCH_ENV, "1700000000.0")


@pytest.fixture
def populated(tmp_path, pinned_epoch):
    """(store, sweep_path): a registry filled by a real two-point sweep."""
    store = RegistryStore(tmp_path / "reg")
    sweep_path = tmp_path / "sweep.jsonl"
    run_sweep(sweep_points(APPS, ["base"], (SCALE,)), str(sweep_path),
              gpu_config=make_config(), registry=store)
    return store, sweep_path


def jsonl_lines(store):
    return Path(store.jsonl_path).read_text().splitlines()


class TestDetection:
    def test_clean_store_is_clean(self, populated):
        store, _ = populated
        report = fsck(store)
        assert report.ok
        assert report.records == 2
        assert "clean" in format_fsck(report)

    def test_truncated_tail(self, populated):
        store, _ = populated
        path = Path(store.jsonl_path)
        path.write_bytes(path.read_bytes()[:-40])  # tear the last line
        report = fsck(store)
        assert report.counts()["torn-line"] == 1
        issue = next(i for i in report.issues if i.kind == "torn-line")
        assert "end of file" in issue.detail

    def test_garbage_line(self, populated):
        store, _ = populated
        lines = jsonl_lines(store)
        lines.insert(1, "not json at all {{{")
        atomic_write(store.jsonl_path, "".join(ln + "\n" for ln in lines))
        assert fsck(store).counts()["torn-line"] == 1

    def test_run_id_mismatch(self, populated):
        store, _ = populated
        lines = jsonl_lines(store)
        payload = json.loads(lines[0])
        payload["identity"]["scale"] = 99.0  # tamper: hash no longer matches
        lines[0] = json.dumps(payload, sort_keys=True, default=str)
        atomic_write(store.jsonl_path, "".join(ln + "\n" for ln in lines))
        assert fsck(store).counts()["run-id-mismatch"] == 1

    def test_payload_hash_mismatch(self, populated):
        store, _ = populated
        corrupt_last_record(store)
        assert fsck(store).counts()["payload-hash-mismatch"] == 1

    def test_duplicate_line(self, populated):
        store, _ = populated
        lines = jsonl_lines(store)
        lines.append(lines[-1])  # replayed append
        atomic_write(store.jsonl_path, "".join(ln + "\n" for ln in lines))
        assert fsck(store).counts()["duplicate"] == 1


class TestRepair:
    def test_torn_tail_quarantined(self, populated):
        store, _ = populated
        path = Path(store.jsonl_path)
        path.write_bytes(path.read_bytes()[:-40])
        report = fsck(store, repair=True)
        assert report.repaired
        assert report.quarantine_path is not None
        quarantined = Path(report.quarantine_path).read_text().splitlines()
        assert len(quarantined) == 1
        assert fsck(store).ok
        assert len(store.list()) == 1

    def test_corrupted_record_restored_losslessly_from_sweep(self, populated):
        store, sweep_path = populated
        pristine = Path(store.jsonl_path).read_bytes()
        corrupted_run_id = corrupt_last_record(store)
        report = fsck(store, repair=True, restore_from=str(sweep_path))
        issue = next(i for i in report.issues
                     if i.kind == "payload-hash-mismatch")
        assert issue.repaired and not issue.quarantined
        assert issue.run_id == corrupted_run_id
        # Under a pinned provenance epoch the regenerated record is
        # byte-identical to what the original ingest wrote.
        assert Path(store.jsonl_path).read_bytes() == pristine
        assert fsck(store).ok

    def test_corrupted_record_without_source_is_quarantined(self, populated):
        store, _ = populated
        corrupt_last_record(store)
        report = fsck(store, repair=True)  # no restore_from
        issue = next(i for i in report.issues
                     if i.kind == "payload-hash-mismatch")
        assert issue.quarantined and not issue.repaired
        assert fsck(store).ok

    def test_duplicates_removed(self, populated):
        store, _ = populated
        lines = jsonl_lines(store)
        atomic_write(store.jsonl_path,
                     "".join(ln + "\n" for ln in lines + [lines[-1]]))
        report = fsck(store, repair=True)
        assert report.repaired
        assert jsonl_lines(store) == lines
        assert fsck(store).ok

    def test_repair_leaves_a_clean_log_untouched(self, populated):
        store, _ = populated
        path = Path(store.jsonl_path)
        before = path.stat()
        report = fsck(store, repair=True)
        assert report.ok and not report.repaired
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns)

    def test_check_mode_never_mutates(self, populated):
        store, _ = populated
        corrupt_last_record(store)
        before = Path(store.jsonl_path).read_bytes()
        report = fsck(store)  # no repair
        assert not report.repaired
        assert Path(store.jsonl_path).read_bytes() == before


class TestFsckCLI:
    def test_empty_registry_exits_zero(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "empty"))
        assert main(["fsck"]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_findings_exit_one_then_repair_exits_zero(
            self, populated, monkeypatch, capsys):
        from repro.cli import main

        store, sweep_path = populated
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(store.root))
        corrupt_last_record(store)
        assert main(["fsck"]) == 1
        assert main(["fsck", "--repair",
                     "--restore-from", str(sweep_path)]) == 0
        assert main(["fsck"]) == 0
        out = capsys.readouterr().out
        assert "payload-hash-mismatch" in out
        assert "[repaired]" in out

    def test_json_output(self, populated, monkeypatch, capsys):
        from repro.cli import main

        store, _ = populated
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(store.root))
        corrupt_last_record(store)
        assert main(["fsck", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["issues"] == {"payload-hash-mismatch": 1}
        assert payload["records"] == 1
