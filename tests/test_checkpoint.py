"""Checkpoint/resume: interrupted runs must continue bit-identically."""

import os
import pickle

import pytest

from conftest import make_config, mixed_kernel, streaming_kernel
from repro.errors import CheckpointError, SimulationError
from repro.experiments.configs import CONFIGS
from repro.integrity.checkpoint import load_checkpoint, save_checkpoint
from repro.sm.simulator import GPUSimulator


ENGINES = ["base", "ccws+str", "apres"]


def build(config_name, kernel, cfg):
    return GPUSimulator(kernel, cfg, CONFIGS[config_name].build)


class TestRoundTrip:
    @pytest.mark.parametrize("config_name", ENGINES)
    def test_snapshot_mid_run_resumes_bit_identically(self, config_name):
        cfg = make_config(num_sms=2)
        reference = build(config_name, mixed_kernel(20), cfg).run()

        sim = build(config_name, mixed_kernel(20), cfg)
        assert not sim.step_until(reference.cycles // 2)
        restored = GPUSimulator.restore(sim.snapshot())
        resumed = restored.run()

        assert resumed.stats == reference.stats
        assert resumed.engine_events == reference.engine_events
        assert resumed.cycles == reference.cycles

    def test_snapshot_at_many_cut_points(self):
        """The cut cycle must never matter, including mid-burst cuts."""
        cfg = make_config()
        reference = build("apres", streaming_kernel(10), cfg).run()
        for fraction in (0.1, 0.33, 0.77, 0.95):
            sim = build("apres", streaming_kernel(10), cfg)
            sim.step_until(int(reference.cycles * fraction))
            resumed = GPUSimulator.restore(sim.snapshot()).run()
            assert resumed.stats == reference.stats, fraction

    def test_double_restore_from_one_snapshot(self):
        """A snapshot is a value: restoring twice gives two equal runs."""
        cfg = make_config()
        sim = build("base", mixed_kernel(12), cfg)
        sim.step_until(100)
        blob = sim.snapshot()
        first = GPUSimulator.restore(blob).run()
        second = GPUSimulator.restore(blob).run()
        assert first.stats == second.stats

    def test_snapshot_of_finished_run_replays_result(self):
        cfg = make_config()
        sim = build("base", mixed_kernel(6), cfg)
        reference = sim.run()
        restored = GPUSimulator.restore(sim.snapshot())
        assert restored.finished
        assert restored.result().stats == reference.stats


class TestCheckpointFiles:
    def test_periodic_checkpointing_and_file_resume(self, tmp_path):
        cfg = make_config(num_sms=2)
        reference = build("apres", mixed_kernel(20), cfg).run()

        path = tmp_path / "sim.ckpt"
        build("apres", mixed_kernel(20), cfg).run(
            checkpoint_path=str(path), checkpoint_every=200
        )
        assert path.exists(), "periodic checkpoint was never written"
        # Simulate the crash: continue from the last on-disk snapshot.
        restored = load_checkpoint(str(path))
        assert not restored.finished
        assert restored.run().stats == reference.stats

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "sim.ckpt"
        sim = build("base", mixed_kernel(6), make_config())
        sim.step_until(50)
        save_checkpoint(sim, str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert load_checkpoint(str(path)).current_cycle == sim.current_cycle

    def test_failed_save_raises_and_leaves_no_temp_file(
            self, tmp_path, monkeypatch):
        sim = build("base", mixed_kernel(6), make_config())

        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(CheckpointError, match="cannot write"):
            save_checkpoint(sim, str(tmp_path / "sim.ckpt"))
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        sim = build("base", mixed_kernel(6), make_config())
        save_checkpoint(sim, str(path))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(str(path))

    def test_older_format_rejected(self):
        # A format-2 pickle lacks the issuable pool and the LLT index.
        sim = build("apres", mixed_kernel(6), make_config())
        payload = pickle.loads(sim.snapshot())
        payload["format"] = 2
        with pytest.raises(CheckpointError, match="format 2 unsupported"):
            GPUSimulator.restore(pickle.dumps(payload))

    def test_format_3_rejected(self):
        # A format-3 pickle holds the issuable pool, not the ready list and
        # wake heap, and shares no per-warp completion callbacks.
        sim = build("apres", mixed_kernel(6), make_config())
        payload = pickle.loads(sim.snapshot())
        payload["format"] = 3
        with pytest.raises(CheckpointError, match="format 3 unsupported"):
            GPUSimulator.restore(pickle.dumps(payload))

    def test_format_4_rejected(self):
        # A format-4 pickle has no bound feedback hooks on its SMs and no
        # hoisted tag sets on its caches.
        sim = build("apres", mixed_kernel(6), make_config())
        payload = pickle.loads(sim.snapshot())
        payload["format"] = 4
        with pytest.raises(CheckpointError, match="format 4 unsupported"):
            GPUSimulator.restore(pickle.dumps(payload))

    def test_format_5_rejected(self):
        # A format-5 pickle holds LAWS's queue as a list and its pending
        # group paired with a LoadAccess, not per-warp priority keys.
        sim = build("apres", mixed_kernel(6), make_config())
        payload = pickle.loads(sim.snapshot())
        payload["format"] = 5
        with pytest.raises(CheckpointError, match="format 5 unsupported"):
            GPUSimulator.restore(pickle.dumps(payload))

    def test_unpicklable_observer_raises_checkpoint_error(self):
        cfg = make_config()
        unpicklable = lambda access, hits: None  # noqa: E731 - the point
        sim = GPUSimulator(
            mixed_kernel(6), cfg, CONFIGS["base"].build,
            load_observers=[unpicklable],
        )
        sim.step_until(50)
        with pytest.raises(CheckpointError, match="cannot serialise"):
            sim.snapshot()


class TestResultGate:
    def test_result_requires_completion(self):
        sim = build("base", mixed_kernel(12), make_config())
        sim.step_until(10)
        with pytest.raises(SimulationError, match="still running"):
            sim.result()
