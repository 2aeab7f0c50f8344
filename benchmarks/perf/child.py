"""One pass of one workload, in a fresh interpreter started by ``run.py``.

Imports the program, installs the tracer (coarse calls only, or every layer
with ``--trace 1``), runs the workload's points in order (or the CLI
command), and writes what it measured to ``--result`` as JSON. The import
time is measured from ``--spawned-at``, the parent's ``perf_counter`` just
before it started this interpreter (the clock is system-wide).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys


def digest(result) -> str:
    """sha256 of a run's raw counters and engine events: the pinned output."""
    payload = {"stats": result.stats.as_dict(), "engine_events": result.engine_events}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def summarise(record: dict) -> dict:
    """What the parent checks and aggregates about one simulated point."""
    out = {"key": record["key"], "expected_instructions": record["expected_instructions"]}
    result = record.get("result")
    if result is None:
        out["error"] = "simulation did not finish"
        return out
    stats = result.stats
    out.update(digest=digest(result), instructions=stats.instructions,
               cycles=stats.cycles, num_sms=result.config.num_sms,
               idle_cycles=stats.idle_cycles, l1=dataclasses.asdict(stats.l1),
               dram_requests=stats.memory.dram_requests)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from tracer import Tracer, clock
    from workloads import WORKLOADS, cli_argv, seeded_kernel

    wl = WORKLOADS[args.workload]
    if wl.is_cli:
        import repro.cli
    else:
        from repro import GPUSimulator
        from repro.experiments.configs import CONFIGS, experiment_gpu_config
    imported = clock()

    tracer = Tracer()
    tracer.install(full=bool(args.trace))
    failures = []
    exit_code = 0
    root = tracer.open_span("main" if wl.is_cli else "pass")
    try:
        if wl.is_cli:
            exit_code = repro.cli.main(cli_argv(wl, args.scale))
        else:
            for p in wl.points:
                tracer.point = p.key
                sid = tracer.open_span("point")
                try:
                    kernel = seeded_kernel(p.app, args.scale, args.seed)
                    config = experiment_gpu_config(p.num_sms).with_l1_size(p.l1_bytes)
                    GPUSimulator(kernel, config, CONFIGS[p.config].build).run()
                except Exception as exc:  # a failed point is counted, the pass goes on
                    failures.append({"key": p.key, "error": f"{type(exc).__name__}: {exc}"})
                tracer.close_span(sid)
    finally:
        tracer.close_span(root)
        tracer.uninstall()
    span = tracer.spans[root]
    sys.stdout.flush()

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": imported - args.spawned_at,
            "import_span": [args.spawned_at, imported],
            "root_s": span["end"] - span["start"],
            "exit_code": exit_code,
            "points": [summarise(r) for r in tracer.sims],
            "failures": failures,
            "funcs": tracer.funcs,
            "counters": tracer.counters,
            "probe_s": tracer.probe_s,
            "spans": tracer.spans,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
