"""Pinned registry identity of one serial point, one figure and one table.

Registry run ids and archived sweep records are the paper trail across
commits: a refactor that claims to be bit-identical must leave both
unchanged. This pins them for one cheap point (KM under ``base`` at
scale 0.1, default experiment GPU), through both the ``repro run`` and
the sweep ingestion paths, and the run ids of ``repro figure 12 --apps
KM --scale 0.05`` and ``repro table 2``.

The record hash covers the whole sweep JSONL record except its
``provenance`` stamp, which names the commit and host environment and
so changes with every commit by design. If an intended model change
moves these values, re-pin them and say why in the change log.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.configs import experiment_gpu_config
from repro.experiments.runner import cache_key
from repro.experiments.sweep import run_sweep, sweep_points
from repro.registry.records import record_sha256
from repro.registry.store import RegistryStore

RUN_ID = "44afe38c5648fcf7"
RECORD_SHA256 = (
    "52a86b049f5b0dfd20ed06ead4bb14a3f12801ff5966229e66356a80b716f3aa")
FIGURE12_RUN_ID = "af06bf4dab780830"
TABLE2_RUN_ID = "ef8e93ff503db53e"


def test_cli_run_lands_under_the_pinned_run_id(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
    store = RegistryStore()
    assert main(["run", "KM", "base", "--scale", "0.1"]) == 0
    capsys.readouterr()
    assert store.latest(kind="run")["run_id"] == RUN_ID


@pytest.mark.parametrize("argv, run_id", [
    (["figure", "12", "--apps", "KM", "--scale", "0.05"], FIGURE12_RUN_ID),
    (["table", "2"], TABLE2_RUN_ID),
])
def test_cli_figure_and_table_land_under_pinned_run_ids(
        tmp_path, monkeypatch, capsys, argv, run_id):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
    assert main(argv) == 0
    assert f"registry: {run_id} ({argv[0]}{argv[1]})" in capsys.readouterr().out
    assert RegistryStore().latest(kind="figure")["run_id"] == run_id


def test_sweep_record_matches_the_pinned_hash(tmp_path):
    store = RegistryStore(tmp_path / "registry")
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(sweep_points(["KM"], ["base"], [0.1]), str(out),
                        registry=store)
    assert summary.simulated == 1 and summary.failed == 0
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert store.latest(kind="run")["run_id"] == RUN_ID
    record.pop("provenance")
    assert record_sha256(record) == RECORD_SHA256


def test_runner_memo_key_is_the_plain_point_tuple():
    assert cache_key("KM", "base", 0.1) == (
        "KM", "base", 0.1, experiment_gpu_config())
