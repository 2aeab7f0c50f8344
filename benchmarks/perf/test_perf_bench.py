"""Tests of the benchmark itself: ``pytest benchmarks/perf``.

They run the workloads at a tiny scale, so they check the benchmark's
machinery, not the speed of the program.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import APPS6, WORKLOADS, seeded_kernel  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str) -> tuple[int, list[dict]]:
    """Run ``run.py`` at the tiny scale; ``(exit code, one result line per workload)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", str(TINY), "--seconds", "0",
         "--out", str(tmp_path / "result.json"), *args],
        capture_output=True, text=True, timeout=300)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc.returncode, lines


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_printed_metric_names_and_units_equal_benchmark_json(tmp_path):
    code, [line] = bench(tmp_path, "--workload", "apres_2sm")
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("end_to_end")

    # The traced pass must reproduce the untraced pass's statistics exactly
    # (a difference makes the line incorrect), the CLI's printed table too.
    code, lines = bench(tmp_path, "--workload", "apres_2sm", "--workload", "fig10_cli",
                        "--trace", "1")
    assert code == 0
    for line in lines:
        assert line["correct"] and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units("per_layer")
    apres, cli = (line["metrics"] for line in lines)
    assert apres["core.calls"]["value"] > 0 and apres["sched.calls"]["value"] == 0
    assert cli["experiments.run.calls"]["value"] > 0
    assert apres["experiments.run.calls"]["value"] == 0
    assert (tmp_path / "trace.json").exists()


def _snapshot() -> dict:
    """Every attribute of every ``repro`` module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro.") or name == "workloads":
            out[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}:{value.__qualname__}"] = dict(vars(value))
    return out


def _simulate(app: str, config: str):
    from repro import GPUSimulator
    from repro.experiments.configs import CONFIGS, experiment_gpu_config

    kernel = seeded_kernel(app, TINY, 0)
    return GPUSimulator(kernel, experiment_gpu_config(), CONFIGS[config].build).run()


def test_every_patched_attribute_is_restored():
    import repro.experiments.configs  # noqa: F401
    from repro.sm.pipeline import SMCore

    before = _snapshot()
    original_cycle = SMCore.cycle
    tracer = Tracer()
    tracer.install(full=True)
    try:
        assert SMCore.cycle is not original_cycle
        _simulate("KM", "apres")
    finally:
        tracer.uninstall()
    assert SMCore.cycle is original_cycle
    after = _snapshot()
    # Importing a submodule adds it to its package; nothing else may change.
    missing = object()
    changed = [(key, name) for key in before for name in before[key].keys() | after[key].keys()
               if before[key].get(name, missing) is not after[key].get(name, missing)
               and not isinstance(after[key].get(name), types.ModuleType)]
    assert changed == []


@pytest.mark.parametrize("config", ["apres", "ccws+str", "gto+sld"])
def test_tracing_is_read_only(config):
    plain = Tracer()
    plain.install(full=False)
    try:
        untraced = child.digest(_simulate("SPMV", config))
    finally:
        plain.uninstall()
    full = Tracer()
    full.install(full=True)
    try:
        traced = child.digest(_simulate("SPMV", config))
    finally:
        full.uninstall()
    assert traced == untraced
    assert sum(rec[0] for rec in full.funcs.values()) > 1000


def test_seed0_is_the_suite_and_seed1_moves_the_addresses():
    from repro.isa.instructions import Op
    from repro.workloads import build_kernel, workload

    for app in APPS6:
        suite = build_kernel(workload(app), TINY)
        assert seeded_kernel(app, TINY, 0) == suite
        moved = seeded_kernel(app, TINY, 1)
        assert moved != suite and moved.instructions_per_warp == suite.instructions_per_warp
        for a, b in zip(suite.body, moved.body):
            if a.op is not Op.ALU:
                assert a.addr_gen.coalesced(5, 1, 128) != b.addr_gen.coalesced(5, 1, 128)
        assert seeded_kernel(app, TINY, 1) == moved


def test_pins_cover_the_workloads_and_every_l1_size_changes_the_run():
    # Every run checks its statistics against these pins, so they show what
    # the workloads simulate: a 32 MB point with the same digest as its
    # 32 KB twin would show no L1-capacity contrast at the workload's scale.
    pins = json.loads((HERE / "expected" / "seed0.json").read_text())
    assert set(pins) == set(WORKLOADS)
    for wl in WORKLOADS.values():
        assert pins[wl.name]["scale"] == wl.scale
        if wl.is_cli:
            continue
        digests = pins[wl.name]["digests"]
        assert set(digests) == {p.key for p in wl.points}
        by_l1 = defaultdict(list)
        for p in wl.points:
            by_l1[p.app, p.config, p.num_sms].append(digests[p.key])
        for point, runs in by_l1.items():
            assert len(set(runs)) == len(runs), f"{wl.name} {point}: L1 sizes run identically"


def test_a_tampered_pin_fails_the_run(tmp_path):
    pins = tmp_path / "expected"
    args = ("--workload", "apres_2sm", "--expected-dir", str(pins))
    code, [line] = bench(tmp_path, *args, "--write-expected")
    assert code == 0 and line["correct"]
    path = pins / "seed0.json"
    data = json.loads(path.read_text())
    digests = data["apres_2sm"]["digests"]
    assert len(digests) == len(APPS6)

    code, [line] = bench(tmp_path, *args)
    assert code == 0 and line["failed"] == 0
    assert json.loads((tmp_path / "result.json").read_text())["workloads"]["apres_2sm"]["pinned"]

    digests["KM/apres/2sm/32KB"] = "0" * 64
    path.write_text(json.dumps(data))
    code, [line] = bench(tmp_path, *args)
    assert code == 1 and not line["correct"] and line["failed"] > 0
    result = json.loads((tmp_path / "result.json").read_text())["workloads"]["apres_2sm"]
    assert result["error_rate"] > 0
    assert "KM/apres/2sm/32KB" in result["errors"]
