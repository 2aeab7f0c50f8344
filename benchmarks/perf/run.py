"""The repository's performance benchmark: end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--write-expected]

Each workload is a closed loop of passes: one child interpreter at a time
(``sys.executable``, ``PYTHONHASHSEED=0``) runs every point of the workload
in order, and the next pass starts when it has exited. After one discarded
warm-up pass at a tiny scale, passes repeat until ``--seconds`` (default:
``run_seconds`` of ``BENCHMARK.json``) would be exceeded, with at least
two, and every end-to-end metric is reported as the median over passes
with its quartiles and count. ``--trace`` instead
runs one untraced and one traced pass and reports the per-layer metrics.

Every pass is checked: each simulated point must retire its kernel's static
instruction count and keep L1 hits + misses == accesses, every pass of an
invocation must produce the same statistics, and for a seed with pins in
``expected/`` the sha256 of every point's statistics (and of the CLI's
printed table) must match them. A point that fails a check counts in
``failed`` and makes the exit code 1. ``--write-expected`` rewrites the
pins from this run instead of checking them.

The last line printed is ``{"correct", "attempted", "failed", "metrics"}``
for the last workload run: its end-to-end metrics, or with ``--trace`` its
per-layer ones. The full result goes to ``out/result.json`` (or ``--out``)
and, with ``--trace``, the spans and per-function totals to ``trace.json``
beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import clock, coarse_times, layer_metrics, ratio
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest untraced passes an invocation reports a median over. A pass takes
#: 6-8 s, so three fit in a 30 s run; when the host slows down, a third
#: pass would overrun the run instead.
MIN_PASSES = 2
#: No pass starts, and a running one is killed, this long after the start
#: of a workload, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
POLL_S = 0.005
#: Loop-trip multiplier of the discarded warm-up pass.
WARM_UP_SCALE = 0.02


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(work: Path, index: int | str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                                   if p),
        REPRO_REGISTRY_DIR=str(work / f"registry{index}"),
        REPRO_DUMP_DIR=str(work / "dumps"),
    )
    return env


def reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` (killing it at ``deadline``); ``(exit code, rusage)``."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if clock() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def run_pass(wl, seed: int, scale: float, traced: bool, work: Path, index: int | str,
             deadline: float) -> dict:
    """Run one pass in a fresh child; returns what it measured."""
    result_path = work / f"pass{index}.json"
    stdout_path = work / f"pass{index}.out"
    stderr_path = work / f"pass{index}.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", wl.name,
             "--seed", str(seed), "--scale", str(scale), "--trace", str(int(traced)),
             "--spawned-at", repr(spawned), "--result", str(result_path)],
            stdout=out, stderr=err, env=child_env(work, index), cwd=ROOT)
        try:
            code, rusage = reap(proc, deadline)
        finally:
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        ended = clock()
    record = {"traced": traced, "spawned": spawned, "wall_s": ended - spawned,
              "peak_rss_mb": rusage.ru_maxrss / 1024, "exit_code": code, "child": None}
    if code == 0 and result_path.exists():
        record["child"] = json.loads(result_path.read_text())
        record["stdout"] = stdout_path.read_text()
    else:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        record["error"] = f"child exited {code}: " + " | ".join(tail)
    return record


def table_digest(stdout: str) -> str:
    """sha256 of the CLI's printed output, less the registry lines (temp paths)."""
    lines = [l for l in stdout.splitlines() if not l.startswith("registry:")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_pass(wl, record: dict) -> tuple[dict, dict]:
    """``(digests, errors)`` of one pass, both keyed by point (or ``table``)."""
    child = record["child"]
    keys = ["table"] if wl.is_cli else [p.key for p in wl.points]
    if child is None:
        return {}, {k: record["error"] for k in keys}
    digests, errors = {}, {}
    for f in child["failures"]:
        errors[f["key"]] = f["error"]
    for p in child["points"]:
        key = p["key"]
        if "error" in p:
            errors.setdefault(key, p["error"])
            continue
        l1 = p["l1"]
        if p["instructions"] != p["expected_instructions"]:
            errors[key] = (f"retired {p['instructions']} instructions, kernel has "
                           f"{p['expected_instructions']}")
        elif l1["hits"] + l1["misses"] != l1["accesses"]:
            errors[key] = f"L1 hits {l1['hits']} + misses {l1['misses']} != {l1['accesses']}"
        digests[key] = p["digest"]
    if wl.is_cli:
        if child["exit_code"] != 0:
            errors["table"] = f"repro exited {child['exit_code']}"
        digests["table"] = table_digest(record["stdout"])
    else:
        for key in keys:
            if key not in digests:
                errors.setdefault(key, "point was not simulated")
    return digests, errors


def compare_digests(digests: dict, reference: dict, what: str) -> dict:
    return {key: f"statistics differ from {what}" for key, value in reference.items()
            if digests.get(key, value) != value}


def failed_units(wl, errors: dict) -> int:
    """A CLI pass is one operation; a library pass is one per point."""
    if wl.is_cli:
        return 1 if errors else 0
    return len({k for k in errors if k in {p.key for p in wl.points}})


def expected_path(expected_dir: Path, wl, seed: int) -> Path:
    # The CLI workload ignores the seed, so its pins live with seed 0.
    return expected_dir / f"seed{0 if wl.is_cli else seed}.json"


def load_pins(expected_dir: Path, wl, seed: int, scale: float):
    path = expected_path(expected_dir, wl, seed)
    if not path.exists():
        return None
    pins = json.loads(path.read_text()).get(wl.name)
    if pins is None or pins["scale"] != scale:
        return None
    return pins["digests"]


def write_pins(expected_dir: Path, wl, seed: int, scale: float, digests: dict) -> Path:
    path = expected_path(expected_dir, wl, seed)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[wl.name] = {"scale": scale, "digests": dict(sorted(digests.items()))}
    expected_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(sorted(data.items())), indent=1) + "\n")
    return path


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(record: dict) -> dict:
    child = record["child"]
    build, construct, run = coarse_times(child["funcs"])
    instructions = sum(p.get("instructions", 0) for p in child["points"])
    return {
        "wall_s": record["wall_s"],
        "sim_kips": ratio(instructions, run) / 1e3,
        "setup_s": child["import_s"] + build + construct,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def simulated(child: dict) -> dict:
    """Aggregate simulated statistics of a pass (exact for a given seed)."""
    points = [p for p in child["points"] if "error" not in p]

    def tot(field):
        return sum(p[field] for p in points)

    def l1(field):
        return sum(p["l1"][field] for p in points)

    return {
        "sim.cycles": tot("cycles"),
        "sim.ipc": ratio(tot("instructions"), tot("cycles")),
        "sim.idle_frac": ratio(tot("idle_cycles"),
                               sum(p["cycles"] * p["num_sms"] for p in points)),
        "sim.l1.miss_rate": ratio(l1("misses"), l1("accesses")),
        "sim.l1.reservation_fails": l1("reservation_fails"),
        "sim.prefetch.useful_frac": ratio(l1("prefetch_useful"), l1("prefetch_fills")),
        "sim.dram.requests": tot("dram_requests"),
    }


def summary(samples: list) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def checked_names(computed: dict, specs: list[dict], kind: str) -> dict:
    """``computed`` keyed and ordered as ``BENCHMARK.json`` lists ``kind``."""
    names = [m["name"] for m in specs]
    if set(computed) != set(names):
        raise RuntimeError(f"{kind} metrics computed {sorted(set(computed) ^ set(names))} "
                           "differently from BENCHMARK.json")
    return {name: computed[name] for name in names}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def run_workload(wl, spec: dict, args, work: Path) -> dict:
    scale = args.scale if args.scale is not None else wl.scale
    start = clock()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    # A discarded pass at a tiny scale compiles a fresh checkout's bytecode
    # and loads every module the workload imports lazily, so the first
    # timed pass pays no cost that the later ones do not. Its failures
    # show again in the timed passes.
    run_pass(wl, args.seed, WARM_UP_SCALE, False, work, "warm", hard_deadline)

    passes: list[dict] = []

    def add_pass(traced: bool) -> None:
        passes.append(run_pass(wl, args.seed, scale, traced, work, len(passes), hard_deadline))

    if args.trace:
        add_pass(False)
        add_pass(True)
    else:
        while True:
            add_pass(False)
            expected_end = clock() + statistics.median(p["wall_s"] for p in passes)
            if expected_end > (hard_deadline if len(passes) < MIN_PASSES
                               else min(deadline, hard_deadline)):
                break

    pins = None if args.write_expected else load_pins(args.expected_dir, wl, args.seed, scale)
    reference = None
    attempted = failed = 0
    errors: dict[str, str] = {}
    for record in passes:
        digests, pass_errors = check_pass(wl, record)
        if record["child"] is not None:
            if reference is None:
                reference = digests
            for key, msg in compare_digests(digests, reference, "the first pass").items():
                pass_errors.setdefault(key, msg)
            if pins is not None:
                for key, msg in compare_digests(digests, pins, "the pinned seed").items():
                    pass_errors.setdefault(key, msg)
        attempted += 1 if wl.is_cli else len(wl.points)
        failed += failed_units(wl, pass_errors)
        errors.update(pass_errors)

    ok = [p for p in passes if p["child"] is not None]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    result = {
        "scale": scale,
        "pinned": pins is not None,
        "correct": failed == 0 and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": errors,
        "digests": reference or {},
        "passes": len(passes),
        "end_to_end": {},
        "sim": simulated(untraced[0]["child"]) if untraced else {},
    }
    if untraced:
        samples = [end_to_end(p) for p in untraced]
        result["end_to_end"] = {
            name: summary([s[name] for s in samples])
            for name in checked_names(samples[0], spec["end_to_end"], "end-to-end")}
    if traced:
        child = traced[0]["child"]
        layer = layer_metrics(child["funcs"], child["counters"], child["probe_s"],
                              child["root_s"])
        layer["import_s"] = child["import_s"]
        layer["trace.overhead"] = (traced[0]["wall_s"] / untraced[0]["wall_s"]
                                   if untraced else 0.0)
        layer.update(result["sim"])
        result["per_layer"] = checked_names(layer, spec["per_layer"], "per-layer")
        result["trace"] = trace_record(wl, passes, start)
    if args.write_expected and result["correct"]:
        result["expected_written"] = str(write_pins(args.expected_dir, wl, args.seed, scale,
                                                    reference))
    return result


def trace_record(wl, passes: list[dict], start: float) -> dict:
    """Spans (workload > pass > child spans) with times relative to ``start``."""
    spans = [{"id": wl.name, "parent": None, "name": "workload", "start": 0.0,
              "end": passes[-1]["spawned"] + passes[-1]["wall_s"] - start, "point": None}]
    per_pass = []
    for index, record in enumerate(passes):
        pass_id = f"{wl.name}/p{index}"
        spans.append({"id": pass_id, "parent": wl.name,
                      "name": "traced pass" if record["traced"] else "pass",
                      "start": record["spawned"] - start,
                      "end": record["spawned"] + record["wall_s"] - start, "point": None})
        child = record["child"]
        if child is None:
            continue
        spawned_at, imported = child["import_span"]
        spans.append({"id": f"{pass_id}/import", "parent": pass_id, "name": "import",
                      "start": spawned_at - start, "end": imported - start, "point": None})
        for s in child["spans"]:
            parent = pass_id if s["parent"] is None else f"{pass_id}/{s['parent']}"
            spans.append(dict(s, id=f"{pass_id}/{s['id']}", parent=parent,
                              start=s["start"] - start, end=s["end"] - start))
        per_pass.append({"pass": pass_id, "traced": record["traced"],
                         "funcs": child["funcs"], "counters": child["counters"],
                         "probe_s": child["probe_s"], "root_s": child["root_s"]})
    return {"spans": spans, "passes": per_pass}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def host() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count()}


def print_report(name: str, result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"\n{name}: {status}, {result['failed']}/{result['attempted']} failed, "
          f"{result['passes']} passes, scale {result['scale']}, "
          f"{'pinned' if result['pinned'] else 'unpinned'}")
    for key, msg in sorted(result["errors"].items()):
        print(f"  error {key}: {msg}")
    if result["end_to_end"]:
        print(f"  {'metric':<14} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12}  n")
        for metric, s in result["end_to_end"].items():
            print(f"  {metric:<14} {units[metric]:<10} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g}  {s['n']}")
    for metric, value in result.get("per_layer", {}).items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:<32} {units[metric]:<12} {shown}")


def contract_line(result: dict, spec: dict, traced: bool) -> str:
    """The machine-readable result line: end-to-end medians, or the per-layer metrics."""
    if traced:
        kind, values = "per_layer", result.get("per_layer", {})
    else:
        kind = "end_to_end"
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--scale", type=float, default=None,
                        help="override every workload's loop-trip multiplier (quick checks; "
                             "pins only apply at the default scales)")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "result.json",
                        help="where to write the full result (default %(default)s)")
    parser.add_argument("--expected-dir", type=Path, default=HERE / "expected",
                        help="directory of digest pins (default %(default)s)")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite the pins from this run instead of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = args.workload or list(WORKLOADS)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], spec, args, work)
            print_report(name, results[name], spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traces = {name: r.pop("trace") for name, r in results.items() if "trace" in r}
    invocation = {"seed": args.seed, "trace": bool(args.trace), "seconds": args.seconds,
                  "host": host(), "workloads": results}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(invocation, indent=1) + "\n")
    if traces:
        args.out.with_name("trace.json").write_text(
            json.dumps({"seed": args.seed, "workloads": traces}) + "\n")
    print()
    for name in names:
        print(contract_line(results[name], spec, bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


def terminate(signum, frame):
    """Unwind on SIGTERM as on Ctrl-C: kill the running child, remove the work dir."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
