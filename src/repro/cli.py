"""Command-line interface: ``python -m repro <command>``.

Commands::

    list                                 workloads and configurations
    run APP CONFIG [--scale S]           simulate one point, print metrics
    trace APP CONFIG [--out DIR]         run with full telemetry: Chrome
                                         trace, interval JSONL, stall report
    compare APP [CONFIG ...]             speedups over baseline for one app
    characterize APP [--scale S]         Table I rows for one workload
    table {1,2} [--scale S]              regenerate a paper table
    figure {2,3,4,10,11,12,13,14,15}     regenerate a paper figure's data
    validate [--scale S]                 check the reproduction's shape claims
    sweep --out R.jsonl [...]            crash-safe multi-point sweep
    lint [PATH ...]                      simulator-aware static analysis
    scorecard [--json] [--out F]         paper-fidelity scorecard (MAPE,
                                         geomean delta, Spearman rank corr.)
    diff REF [REF2] [--rtol R]           tolerance-checked metric diff;
                                         exits 1 on drift (the CI gate)
    report [--html F]                    self-contained HTML results report
    chaos --faults K,K [...]             sweep under injected faults; assert
                                         output byte-identical to clean run
    fsck [--repair]                      audit (and heal) the run registry

``run`` takes ``--telemetry`` (stall attribution + heartbeat),
``--trace-out FILE`` (Chrome trace-event JSON; open in chrome://tracing
or https://ui.perfetto.dev) and ``--intervals-out FILE`` (windowed
metrics as JSONL); ``sweep`` takes ``--telemetry``/``--trace-dir`` to
add a per-point stall breakdown (and optional traces) to its records.

``run`` and ``sweep`` accept ``--cycle-budget N`` (hard simulated-cycle
limit) and ``--watchdog N`` (abort after N cycles without progress, with a
diagnostic dump). ``sweep``, ``figure``, ``table`` and ``scorecard``
accept ``--jobs N`` (or ``$REPRO_JOBS``; ``0`` = one worker per CPU) to
fan independent simulation points over a process pool — results are
bit-identical to a serial run because each point is deterministic and all
persistence stays in the parent process. ``sweep --no-cache`` forces
re-simulation of points whose records the registry already holds
(otherwise they are replayed verbatim — run memoization). A sweep
persists each finished point to its JSONL store immediately, so an
interrupted sweep resumes where it left off::

    python -m repro sweep --apps KM BFS --configs base apres \\
        --out results.jsonl
    # ... SIGKILL mid-way ...
    python -m repro sweep --apps KM BFS --configs base apres \\
        --out results.jsonl --resume-from results.jsonl   # only the rest

Resume skips quarantined failure records (deterministic errors,
supervisor quarantines) instead of re-running them; ``sweep
--retry-failed`` forces a re-attempt. Every ``--jobs N`` pool is
supervised: a crashed worker's point is requeued with capped jittered
backoff, a point is quarantined after ``--max-attempts N`` dispatches
(default 3), and the pool degrades to serial if workers keep dying.
``sweep --worker-deadline SEC`` adds hang detection: a worker silent for
SEC seconds is killed and its point requeued.

``run``, ``sweep`` and ``figure`` accept ``--metrics-out FILE`` to dump
the process-wide operational metrics registry (counters and gauges —
see :mod:`repro.telemetry.metrics`) as JSON, plus a Prometheus textfile
next to it (``FILE.prom``).

``run``, ``sweep``, ``figure``, ``table`` and ``scorecard`` ingest their
results into the registry (``bench_results/registry`` by default,
``REPRO_REGISTRY_DIR`` to relocate, ``--no-registry`` to skip), which is
what ``repro diff <run-id>`` and ``repro report`` read back.

``chaos`` runs a small sweep twice — clean/serial and ``--jobs N`` under
a seeded fault plan (``--faults crash,hang,torn-write,disk-full,
fsync-fail,corrupt-record``) — heals the damage (supervised pool, atomic
appends, ``fsck --repair``) and exits 0 only when the final sweep store
and registry are byte-identical to the clean run. ``fsck`` audits the
registry for torn lines, hash mismatches, duplicates and index drift;
``--repair`` quarantines bad lines (``<registry>/quarantine/``),
restores restorable records from a sweep store (``--restore-from``) and
rebuilds the index.

Exit codes: 0 success, 1 failed validation, failed sweep points, lint
findings, fsck/chaos findings, or a diff outside tolerance, 2 a
:class:`~repro.errors.ReproError` aborted the command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.experiments import figures
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.experiments.report import format_table
from repro.experiments.runner import run
from repro.resilience.atomic import atomic_write
from repro.workloads.suite import SUITE

#: Exit code when a ReproError aborts the command.
EXIT_REPRO_ERROR = 2


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [w.abbr, w.name, w.suite, w.category.value, len(w.loads), w.iterations]
        for w in SUITE.values()
    ]
    print(format_table(
        ["Abbr", "Name", "Suite", "Category", "Loads", "Iters"], rows,
        title="Workloads (Table IV)",
    ))
    print()
    print("Configurations: " + ", ".join(sorted(CONFIGS)))
    return 0


def _limited_gpu_config(args: argparse.Namespace):
    """Fold --cycle-budget / --watchdog flags into the experiment config."""
    dump_dir = getattr(args, "dump_dir", None)
    if dump_dir:
        # The watchdog is constructed deep inside the simulator; the env
        # var is how its default dump directory is threaded through.
        os.environ["REPRO_DUMP_DIR"] = dump_dir
    return experiment_gpu_config().with_limits(
        max_cycles=getattr(args, "cycle_budget", None),
        watchdog_cycles=getattr(args, "watchdog", None),
        integrity_interval=getattr(args, "integrity_every", None),
    )


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "intervals_out", None)
    )


def _build_run_hub(args: argparse.Namespace):
    """TelemetryHub for ``run``/``trace`` flags; None when telemetry is off."""
    if not _telemetry_wanted(args):
        return None
    from repro.telemetry import HeartbeatSink, IntervalJSONLWriter, TelemetryHub

    hub = TelemetryHub(
        window=getattr(args, "window", None) or 5_000,
        trace=bool(getattr(args, "trace_out", None)),
    )
    trace_out = getattr(args, "trace_out", None)
    if trace_out and os.path.dirname(trace_out):
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    intervals_out = getattr(args, "intervals_out", None)
    if intervals_out:
        if os.path.dirname(intervals_out):
            os.makedirs(os.path.dirname(intervals_out), exist_ok=True)
        if os.path.exists(intervals_out):
            os.remove(intervals_out)  # the writer appends (resume-safe)
        hub.add_interval_sink(IntervalJSONLWriter(intervals_out))
    if not getattr(args, "no_heartbeat", False):
        hub.add_interval_sink(
            HeartbeatSink(cycle_budget=getattr(args, "cycle_budget", None) or 0)
        )
    return hub


def _registry(args: argparse.Namespace):
    """The session registry store, or None under ``--no-registry``."""
    if getattr(args, "no_registry", False):
        return None
    from repro.registry.store import RegistryStore

    return RegistryStore()


def _resolved_jobs(args: argparse.Namespace) -> int:
    """--jobs folded with $REPRO_JOBS; exits via ReproError on bad input."""
    from repro.experiments.parallel import resolve_jobs

    try:
        return resolve_jobs(getattr(args, "jobs", None))
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _prewarm_points(points, jobs: int) -> None:
    """Fill the runner cache from a pool so serial producers just walk it."""
    if jobs <= 1 or not points:
        return
    from repro.experiments.parallel import prewarm

    prewarm(points, jobs)


def _ingest_figure(args: argparse.Namespace, name: str, payload: object,
                   scale: float, apps: Optional[Sequence[str]] = None) -> None:
    """Ingest one regenerated figure/table payload into the registry."""
    registry = _registry(args)
    if registry is None:
        return
    from repro.registry.records import figure_record

    record = registry.put(figure_record(name, payload, scale, apps))
    print(f"registry: {record.run_id} ({name}) -> {registry.root}")


def _stall_rows(report: dict) -> list:
    total = report["stall_cycles"] or 1
    rows = [
        [cause, cycles, f"{100.0 * cycles / total:.1f}%"]
        for cause, cycles in report["by_cause"].items()
        if cycles
    ]
    rows.append(["(all stalls)", report["stall_cycles"], "100.0%"])
    rows.append(["(issue cycles)", report["issue_cycles"], "-"])
    return rows


def _maybe_write_metrics(args: argparse.Namespace) -> None:
    """Export the operational metrics registry when ``--metrics-out`` asks.

    Written last, after the command's work, so the export reflects every
    counter the run touched (cache hits, pool requeues, ...).
    """
    out = getattr(args, "metrics_out", None)
    if not out:
        return
    from repro.telemetry.metrics import write_metrics

    if os.path.dirname(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
    prom_path = write_metrics(out)
    print(f"metrics: {out} (+ {prom_path})")


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    hub = _build_run_hub(args)
    gpu_config = _limited_gpu_config(args)
    started = time.perf_counter()
    result = run(args.app, args.config, scale=args.scale,
                 gpu_config=gpu_config, telemetry=hub)
    wall_time_s = time.perf_counter() - started
    s = result.sim.stats
    rows = [
        ["cycles", s.cycles],
        ["IPC", f"{s.ipc:.3f}"],
        ["L1 accesses", s.l1.accesses],
        ["L1 miss rate", f"{s.l1.miss_rate:.3f}"],
        ["cold miss ratio", f"{s.l1.cold_miss_ratio:.3f}"],
        ["capacity+conflict ratio", f"{s.l1.capacity_conflict_ratio:.3f}"],
        ["hit-after-hit ratio", f"{s.l1.hit_after_hit_ratio:.3f}"],
        ["avg memory latency", f"{s.memory.avg_demand_latency:.1f}"],
        ["traffic (bytes)", s.memory.total_traffic_bytes],
        ["prefetches issued", s.l1.prefetch_issued],
        ["prefetch early-eviction ratio", f"{s.l1.early_eviction_ratio:.3f}"],
        ["dynamic energy (pJ)", f"{result.energy.total:.0f}"],
    ]
    title = f"{args.app} under {args.config} (scale={args.scale})"
    print(format_table(["Metric", "Value"], rows, title=title))
    if hub is not None:
        report = hub.reconcile(s)
        print()
        print(format_table(["Stall cause", "Cycles", "Share"],
                           _stall_rows(report), title="Stall attribution"))
        if getattr(args, "trace_out", None):
            hub.trace.write(args.trace_out)
            print(f"chrome trace: {args.trace_out} "
                  "(open in chrome://tracing or https://ui.perfetto.dev)")
        if getattr(args, "intervals_out", None):
            print(f"interval metrics: {args.intervals_out}")
    registry = _registry(args)
    if registry is not None:
        from repro.registry.records import run_record

        stalls = hub.stall_summary(s) if hub is not None else None
        record = registry.put(run_record(
            result, args.scale, gpu_config,
            stalls=stalls, wall_time_s=wall_time_s,
        ))
        print(f"registry: {record.run_id} -> {registry.root}")
    _maybe_write_metrics(args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import (
        HeartbeatSink,
        IntervalJSONLWriter,
        PhaseTimer,
        RunProfiler,
        TelemetryHub,
    )

    out_dir = args.out or os.path.join("traces", f"{args.app}_{args.config}")
    os.makedirs(out_dir, exist_ok=True)
    intervals_path = os.path.join(out_dir, "intervals.jsonl")
    if os.path.exists(intervals_path):
        os.remove(intervals_path)  # the writer appends (resume-safe)

    hub = TelemetryHub(window=args.window, trace=True)
    hub.add_interval_sink(IntervalJSONLWriter(intervals_path))
    if not args.no_heartbeat:
        hub.add_interval_sink(HeartbeatSink(cycle_budget=args.cycle_budget or 0))

    timer = PhaseTimer()
    profiler = RunProfiler() if args.profile else None
    gpu_config = _limited_gpu_config(args)
    with timer.phase("simulate"):
        if profiler is not None:
            result = profiler.run(
                run, args.app, args.config, scale=args.scale,
                gpu_config=gpu_config, telemetry=hub,
            )
        else:
            result = run(args.app, args.config, scale=args.scale,
                         gpu_config=gpu_config, telemetry=hub)

    stats = result.sim.stats
    with timer.phase("export"):
        report = hub.reconcile(stats)  # raises if attribution drifted
        trace_path = os.path.join(out_dir, "trace.json")
        hub.trace.write(trace_path)
        stalls_path = os.path.join(out_dir, "stalls.json")
        atomic_write(stalls_path,
                     json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(format_table(
        ["Stall cause", "Cycles", "Share"], _stall_rows(report),
        title=f"{args.app} under {args.config}: stall attribution "
              f"(cycles={stats.cycles}, IPC={stats.ipc:.3f})"))
    print()
    print(f"reconciliation: issue+stall == {stats.cycles} cycles x "
          f"{report['reconciliation']['num_sms']} SMs (exact)")
    print(f"events captured: {hub.events_emitted}")
    print(f"chrome trace:     {trace_path} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    print(f"interval metrics: {intervals_path}")
    print(f"stall report:     {stalls_path}")
    if profiler is not None:
        profile_path = os.path.join(out_dir, "host_profile.pstats")
        profiler.dump(profile_path)
        print(f"host profile:     {profile_path}")
        print()
        print(profiler.format_report(limit=args.profile_limit))
    print()
    print(timer.format_report())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    configs = args.configs or ["ccws", "laws", "ccws+str", "laws+str", "apres"]
    base = run(args.app, "base", scale=args.scale)
    rows = []
    for config in configs:
        r = run(args.app, config, scale=args.scale)
        rows.append([
            config, f"{base.cycles / r.cycles:.3f}",
            f"{r.sim.stats.l1.miss_rate:.3f}",
            r.sim.stats.l1.prefetch_issued,
        ])
    print(format_table(["Config", "Speedup", "L1 miss", "Prefetches"], rows,
                       title=f"{args.app}: speedup over baseline"))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    data = figures.table1(apps=[args.app], scale=args.scale)
    rows = []
    for r in data[args.app]:
        stride = "-" if r.top_stride is None else r.top_stride
        rows.append([f"0x{r.pc:X}", f"{r.pct_load:.1%}", f"{r.lines_per_ref:.2f}",
                     f"{r.miss_rate:.2f}", stride, f"{r.pct_stride:.1%}"])
    print(format_table(["PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride"],
                       rows, title=f"{args.app}: per-load characterisation"))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        return _cmd_characterize_all(args)
    cost = figures.table2()
    rows = [
        ["LAWS: LLT", cost.llt_bytes],
        ["LAWS: WGT", cost.wgt_bytes],
        ["SAP: DRQ", cost.drq_bytes],
        ["SAP: WQ", cost.wq_bytes],
        ["SAP: PT", cost.pt_bytes],
        ["Total", cost.total_bytes],
    ]
    print(format_table(["Structure", "Bytes"], rows, title="Table II"))
    _ingest_figure(args, "table2", cost, args.scale)
    return 0


def _cmd_characterize_all(args: argparse.Namespace) -> int:
    data = figures.table1(scale=args.scale)
    rows = []
    for app, load_rows in data.items():
        for r in load_rows:
            stride = "-" if r.top_stride is None else r.top_stride
            rows.append([app, f"0x{r.pc:X}", f"{r.pct_load:.1%}",
                         f"{r.lines_per_ref:.2f}", f"{r.miss_rate:.2f}",
                         stride, f"{r.pct_stride:.1%}"])
    print(format_table(
        ["App", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride"],
        rows, title="Table I"))
    _ingest_figure(args, "table1", data, args.scale)
    return 0


def _print_grid(data: dict, title: str) -> None:
    apps = list(next(iter(data.values())))
    rows = [[config] + [f"{data[config][a]:.3f}" for a in apps] for config in data]
    print(format_table(["Config"] + apps, rows, title=title))


def _print_figure2(data: dict) -> None:
    rows = []
    for app, variants in data.items():
        for label in ("B", "C"):
            r = variants[label]
            rows.append([app, label, f"{r.cold_ratio:.2f}",
                         f"{r.capacity_conflict_ratio:.2f}", f"{r.speedup:.2f}"])
    print(format_table(["App", "L1", "Cold", "Cap+Conf", "Speedup"], rows,
                       title="Figure 2"))


def _print_figure11(data: dict) -> None:
    rows = []
    for app, per_config in data.items():
        for label, r in per_config.items():
            rows.append([app, label, f"{r.hit_after_hit:.2f}", f"{r.hit_after_miss:.2f}",
                         f"{r.cold:.2f}", f"{r.capacity_conflict:.2f}"])
    print(format_table(
        ["App", "Cfg", "HaH", "HaM", "Cold", "Cap+Conf"], rows, title="Figure 11"))


_FIGURE_PRINTERS = {
    2: _print_figure2,
    3: lambda data: _print_grid(data, "Figure 3"),
    4: lambda data: _print_grid(data, "Figure 4"),
    10: lambda data: _print_grid(data, "Figure 10"),
    11: _print_figure11,
    12: lambda data: _print_grid(data, "Figure 12"),
    13: lambda data: _print_grid(data, "Figure 13"),
    14: lambda data: _print_grid(data, "Figure 14"),
    15: lambda data: _print_grid(data, "Figure 15"),
}

#: Numbers accepted by ``repro figure`` (kept for parser choices).
_FIGURES = _FIGURE_PRINTERS


def _cmd_figure(args: argparse.Namespace) -> int:
    apps = args.apps or None
    name = f"figure{args.number}"
    from repro.experiments.parallel import figure_points

    _prewarm_points(figure_points(name, apps, args.scale), _resolved_jobs(args))
    payload = getattr(figures, name)(apps, args.scale)
    _FIGURE_PRINTERS[args.number](payload)
    _ingest_figure(args, name, payload, args.scale, apps)
    _maybe_write_metrics(args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import ProgressWriter
    from repro.experiments.sweep import run_sweep, sweep_points
    from repro.resilience.supervisor import SupervisorConfig

    try:
        points = sweep_points(args.apps or None, args.configs or None,
                              scales=args.scales)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR

    jobs = _resolved_jobs(args)
    # One writer for progress lines and (parallel) worker heartbeats, so
    # concurrent sources never interleave mid-line.
    writer = ProgressWriter()

    def show_progress(point, record) -> None:
        status = record["status"]
        extra = (f"ipc={record['ipc']:.3f}" if status == "ok"
                 else f"{record['error']}: {record['message']}")
        writer.line(f"[sweep] {point.key}: {status} ({extra})")

    registry = _registry(args)
    summary = run_sweep(
        points,
        args.out,
        gpu_config=_limited_gpu_config(args),
        resume_from=args.resume_from,
        retries=args.retries,
        backoff_s=args.backoff,
        point_timeout_s=args.timeout,
        max_points=args.max_points,
        progress=show_progress,
        telemetry=args.telemetry or bool(args.trace_dir),
        trace_dir=args.trace_dir,
        telemetry_window=args.window,
        registry=registry,
        jobs=jobs,
        use_cache=not args.no_cache,
        heartbeat_writer=writer,
        retry_failed=args.retry_failed,
        supervisor=SupervisorConfig(deadline_s=args.worker_deadline,
                                    max_attempts=args.max_attempts),
    )
    rows = [
        ["points", summary.total_points],
        ["simulated", summary.simulated],
        ["skipped (already done)", summary.skipped],
        ["failed", summary.failed],
        ["jobs", jobs],
        ["results store", summary.out_path],
    ]
    if registry is not None and not args.no_cache:
        rows.insert(4, ["cache hits (registry)", summary.cache_hits])
        rows.insert(5, ["cache misses", summary.cache_misses])
        if summary.cache_rejected:
            rows.insert(6, ["cache hits rejected (hash)",
                            summary.cache_rejected])
    if summary.quarantined_skipped:
        rows.insert(3, ["skipped (quarantined)", summary.quarantined_skipped])
    if registry is not None:
        rows.append(["registry", str(registry.root)])
    print(format_table(["Sweep", "Value"], rows, title="Sweep summary"))
    if summary.failed_keys:
        print("failed points: " + ", ".join(summary.failed_keys))
    if summary.quarantined_keys:
        print("quarantined points (resume skips; --retry-failed re-attempts): "
              + ", ".join(summary.quarantined_keys))
    _maybe_write_metrics(args)
    return 1 if summary.failed else 0


#: Conventional location of the committed CI baseline scorecard.
BASELINE_SCORECARD = os.path.join("bench_results", "baseline_scorecard.json")


def _cmd_scorecard(args: argparse.Namespace) -> int:
    import json

    from repro.registry.scorecard import (
        DEFAULT_SCORECARD_FIGURES,
        format_scorecard,
        scorecard,
    )

    names = list(args.figures) if args.figures else list(DEFAULT_SCORECARD_FIGURES)
    from repro.experiments.parallel import scorecard_points

    try:
        _prewarm_points(scorecard_points(names, args.apps or None, args.scale),
                        _resolved_jobs(args))
        payload = scorecard(figures=names, apps=args.apps or None,
                            scale=args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    if args.out:
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        atomic_write(args.out,
                     json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_scorecard(payload))
        if args.out:
            print(f"scorecard json: {args.out}")
    registry = _registry(args)
    if registry is not None:
        from repro.registry.records import scorecard_record

        record = registry.put(scorecard_record(payload))
        if not args.json:
            print(f"registry: {record.run_id} -> {registry.root}")
    return 0


def _load_json_metrics(path: str) -> tuple[dict, Optional[dict]]:
    """(flat metrics, scorecard payload or None) from a file."""
    import json

    from repro.registry.records import flatten_metrics

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "figures" in payload and "schema" in payload:
        # A scorecard JSON: diff its fidelity metrics (same slice that
        # scorecard_record indexes into the registry).
        return flatten_metrics(payload["figures"]), payload
    if isinstance(payload, dict) and "metrics" in payload and "run_id" in payload:
        # An exported registry record.
        return dict(payload["metrics"]), None
    return flatten_metrics(payload), None


def _resolve_diff_ref(
    ref: str, nth: int = 0,
) -> tuple[dict, str, Optional[dict]]:
    """(flat metrics, label, scorecard payload or None).

    A ref is ``baseline`` (the committed baseline scorecard), a JSON file
    path, or a registry run-id prefix (``nth`` selects the occurrence,
    newest first).
    """
    from repro.registry.store import RegistryStore

    path = BASELINE_SCORECARD if ref == "baseline" else ref
    if os.path.exists(path):
        metrics, payload = _load_json_metrics(path)
        return metrics, path, payload
    record = RegistryStore().resolve(ref, nth=nth)
    suffix = "" if nth == 0 else f"~{nth}"
    label = f"{record['run_id']}{suffix} ({record.get('name', '?')})"
    payload = record.get("data") if record.get("kind") == "scorecard" else None
    return dict(record.get("metrics") or {}), label, payload


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.registry.diffing import (
        DEFAULT_ATOL,
        DEFAULT_RTOL,
        diff_metrics,
        format_diff,
    )

    rtol = DEFAULT_RTOL if args.rtol is None else args.rtol
    atol = DEFAULT_ATOL if args.atol is None else args.atol
    overrides = {}
    for spec in args.tolerance or []:
        pattern, sep, value = spec.rpartition("=")
        if not sep or not pattern:
            print(f"error: --tolerance expects GLOB=RTOL, got {spec!r}",
                  file=sys.stderr)
            return EXIT_REPRO_ERROR
        overrides[pattern] = float(value)

    metrics_a, label_a, scorecard_a = _resolve_diff_ref(args.ref_a)
    if args.ref_b:
        metrics_b, label_b, _ = _resolve_diff_ref(args.ref_b)
    elif scorecard_a is not None:
        # One scorecard ref: regenerate at its scale/apps and compare.
        from repro.registry.scorecard import scorecard

        payload = scorecard(
            figures=sorted(scorecard_a.get("figures") or {}) or None,
            apps=scorecard_a.get("apps") or None,
            scale=float(scorecard_a.get("scale") or 0.5),
        )
        from repro.registry.records import flatten_metrics

        metrics_b, label_b = flatten_metrics(payload["figures"]), "current"
    else:
        # One run-id ref: latest occurrence vs the previous one.
        metrics_b, label_b = metrics_a, label_a
        metrics_a, label_a, _ = _resolve_diff_ref(args.ref_a, nth=1)

    report = diff_metrics(
        metrics_a, metrics_b,
        rtol=rtol, atol=atol,
        overrides=overrides, ignore=args.ignore or (),
        label_a=label_a, label_b=label_b,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_diff(report))
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.report import write_html_report

    if args.from_json:
        with open(args.from_json, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        from repro.registry.scorecard import scorecard

        payload = scorecard(figures=args.figures or None,
                            apps=args.apps or None, scale=args.scale)
    stall_records: list = []
    registry = _registry(args)
    if registry is not None:
        stall_records = [
            record for record in registry.list(kind="run", limit=200)
            if record.get("stalls")
        ][:10]
    path = write_html_report(args.html, payload, stall_records)
    print(f"html report: {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis subsystem is not needed for simulation.
    from repro.analysis.cli import cmd_lint

    return cmd_lint(args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import format_chaos, run_chaos
    from repro.resilience.faults import FAULT_KINDS

    if args.faults.strip().lower() == "all":
        kinds = list(FAULT_KINDS)
    else:
        kinds = [k.strip() for k in args.faults.split(",") if k.strip()]
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            raise ReproError(
                f"unknown fault kind(s): {', '.join(unknown)}; choose from "
                + ", ".join(FAULT_KINDS) + " (or 'all')",
                details={"unknown": unknown},
            )
    extra = {"apps": args.apps} if args.apps else {}
    report = run_chaos(
        kinds,
        jobs=args.jobs,
        seed=args.seed,
        out_dir=args.out,
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        scale=args.scale,
        **extra,
    )
    print(format_chaos(report))
    return 0 if report.ok else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from repro.registry.store import RegistryStore
    from repro.resilience.fsck import format_fsck, fsck

    store = RegistryStore(args.registry) if args.registry else RegistryStore()
    report = fsck(store, repair=args.repair, restore_from=args.restore_from)
    if args.json:
        payload = {
            "root": report.root,
            "records": report.records,
            "issues": report.counts(),
            "repaired": report.repaired,
            "quarantine": report.quarantine_path,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_fsck(report))
    if report.ok:
        return 0
    if args.repair:
        # A repair pass resolved what it found; verify the healed store.
        return 0 if fsck(store).ok else 1
    return 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validate import check_claims, format_report

    results = check_claims(scale=args.scale, apps=args.apps or None)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="APRES (ISCA 2016) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and configurations")

    def add_integrity_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cycle-budget", type=int, default=None, metavar="N",
                       help="abort any simulation exceeding N cycles")
        p.add_argument("--watchdog", type=int, default=None, metavar="N",
                       help="abort after N cycles without forward progress")
        p.add_argument("--integrity-every", type=int, default=None, metavar="N",
                       help="run conservation-invariant checks every N cycles")
        p.add_argument("--dump-dir", default=None, metavar="DIR",
                       help="write watchdog diagnostic dumps (JSON) to DIR")

    def add_telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", type=int, default=5_000, metavar="N",
                       help="interval-metrics window in simulated cycles")
        p.add_argument("--no-heartbeat", action="store_true",
                       help="suppress the periodic progress line on stderr")

    def add_registry_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-registry", action="store_true",
                       help="skip ingesting results into the run registry "
                            "(bench_results/registry, or REPRO_REGISTRY_DIR)")

    def add_parallel_flags(p: argparse.ArgumentParser,
                           cache: bool = False) -> None:
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="process-pool workers for independent points "
                            "(default: $REPRO_JOBS, else 1; 0 = one per CPU)")
        if cache:
            p.add_argument("--no-cache", action="store_true",
                           help="re-simulate points even when the registry "
                                "already archives their records")

    def add_metrics_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="dump the operational metrics registry as JSON "
                            "to FILE plus a Prometheus textfile (FILE.prom)")

    p_run = sub.add_parser("run", help="simulate one workload/configuration")
    p_run.add_argument("app", choices=sorted(SUITE))
    p_run.add_argument("config", choices=sorted(CONFIGS))
    p_run.add_argument("--scale", type=float, default=0.5)
    p_run.add_argument("--telemetry", action="store_true",
                       help="enable stall attribution, interval metrics and "
                            "a heartbeat progress line")
    p_run.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON (implies "
                            "--telemetry)")
    p_run.add_argument("--intervals-out", metavar="FILE", default=None,
                       help="write interval metrics as JSONL (implies "
                            "--telemetry)")
    add_telemetry_flags(p_run)
    add_integrity_flags(p_run)
    add_registry_flag(p_run)
    add_metrics_flag(p_run)

    p_trace = sub.add_parser(
        "trace",
        help="run one point with full telemetry: Chrome trace, interval "
             "JSONL, stall attribution, optional host profile",
    )
    p_trace.add_argument("app", choices=sorted(SUITE))
    p_trace.add_argument("config", choices=sorted(CONFIGS))
    p_trace.add_argument("--scale", type=float, default=0.5)
    p_trace.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (default traces/APP_CONFIG)")
    p_trace.add_argument("--profile", action="store_true",
                         help="cProfile the host process and report hot "
                              "functions")
    p_trace.add_argument("--profile-limit", type=int, default=15, metavar="N",
                         help="functions to show in the profile report")
    add_telemetry_flags(p_trace)
    add_integrity_flags(p_trace)

    p_cmp = sub.add_parser("compare", help="speedups over baseline for one app")
    p_cmp.add_argument("app", choices=sorted(SUITE))
    p_cmp.add_argument("configs", nargs="*", metavar="CONFIG")
    p_cmp.add_argument("--scale", type=float, default=0.5)

    p_char = sub.add_parser("characterize", help="Table I rows for one workload")
    p_char.add_argument("app", choices=sorted(SUITE))
    p_char.add_argument("--scale", type=float, default=0.5)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2))
    p_table.add_argument("--scale", type=float, default=0.5)
    add_parallel_flags(p_table)
    add_registry_flag(p_table)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure's data")
    p_fig.add_argument("number", type=int, choices=sorted(_FIGURES))
    p_fig.add_argument("--scale", type=float, default=0.5)
    p_fig.add_argument("--apps", nargs="*", metavar="APP")
    add_parallel_flags(p_fig)
    add_registry_flag(p_fig)
    add_metrics_flag(p_fig)

    p_val = sub.add_parser("validate", help="check the reproduction's shape claims")
    p_val.add_argument("--scale", type=float, default=0.5)
    p_val.add_argument("--apps", nargs="*", metavar="APP")

    p_sweep = sub.add_parser(
        "sweep", help="crash-safe multi-point sweep with a JSONL results store"
    )
    p_sweep.add_argument("--out", required=True, metavar="PATH",
                         help="JSONL results store (appended as points finish)")
    p_sweep.add_argument("--apps", nargs="*", metavar="APP",
                         help="workloads to sweep (default: all)")
    p_sweep.add_argument("--configs", nargs="*", metavar="CONFIG",
                         help="configurations to sweep (default: all)")
    p_sweep.add_argument("--scales", nargs="*", type=float, default=[0.5],
                         metavar="S", help="workload scales (default: 0.5)")
    p_sweep.add_argument("--resume-from", metavar="PATH", default=None,
                         help="skip points already completed in this store "
                              "(quarantined failures stay skipped)")
    p_sweep.add_argument("--retry-failed", action="store_true",
                         help="with --resume-from: re-attempt quarantined "
                              "failure records instead of skipping them")
    p_sweep.add_argument("--retries", type=int, default=2, metavar="K",
                         help="retries per point on transient simulation errors")
    p_sweep.add_argument("--backoff", type=float, default=0.5, metavar="SEC",
                         help="base retry backoff (doubles per attempt)")
    p_sweep.add_argument("--timeout", type=float, default=None, metavar="SEC",
                         help="wall-clock limit per point")
    p_sweep.add_argument("--max-points", type=int, default=None, metavar="N",
                         help="simulate at most N new points this invocation")
    p_sweep.add_argument("--telemetry", action="store_true",
                         help="attach stall attribution to every point's "
                              "record (reconciled against its counters)")
    p_sweep.add_argument("--trace-dir", metavar="DIR", default=None,
                         help="write one Chrome trace per point into DIR "
                              "(implies --telemetry)")
    p_sweep.add_argument("--window", type=int, default=5_000, metavar="N",
                         help="interval-metrics window in simulated cycles")
    p_sweep.add_argument("--worker-deadline", type=float, default=None,
                         metavar="SEC",
                         help="kill and requeue any worker silent for SEC "
                              "seconds (hang detection; crashed workers are "
                              "always requeued)")
    p_sweep.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="quarantine a point after N dispatch attempts "
                              "(default 3)")
    add_parallel_flags(p_sweep, cache=True)
    add_integrity_flags(p_sweep)
    add_registry_flag(p_sweep)
    add_metrics_flag(p_sweep)

    p_score = sub.add_parser(
        "scorecard",
        help="paper-fidelity scorecard: MAPE, geomean delta and Spearman "
             "rank correlation vs the paper's numbers",
    )
    p_score.add_argument("--scale", type=float, default=0.5)
    p_score.add_argument("--apps", nargs="*", metavar="APP",
                         help="restrict scoring to these workloads")
    p_score.add_argument("--figures", nargs="*", metavar="FIG",
                         help="producer names to score (default: "
                              "figure10..figure15)")
    p_score.add_argument("--json", action="store_true",
                         help="emit the scorecard payload as JSON on stdout")
    p_score.add_argument("--out", metavar="FILE", default=None,
                         help="also write the scorecard JSON to FILE")
    add_parallel_flags(p_score)
    add_registry_flag(p_score)

    p_diff = sub.add_parser(
        "diff",
        help="tolerance-checked metric diff between registry records, "
             "scorecard JSON files, or 'baseline'; exits 1 on drift",
    )
    p_diff.add_argument("ref_a", metavar="REF",
                        help="run-id prefix, JSON file, or 'baseline' "
                             f"({BASELINE_SCORECARD})")
    p_diff.add_argument("ref_b", nargs="?", metavar="REF2", default=None,
                        help="second ref (default: regenerate a scorecard "
                             "ref, or the run id's previous occurrence)")
    p_diff.add_argument("--rtol", type=float, default=None, metavar="R",
                        help="relative tolerance (default 0.05)")
    p_diff.add_argument("--atol", type=float, default=None, metavar="A",
                        help="absolute tolerance floor (default 1e-9)")
    p_diff.add_argument("--tolerance", action="append", metavar="GLOB=RTOL",
                        help="per-metric rtol override (repeatable; first "
                             "matching glob wins)")
    p_diff.add_argument("--ignore", nargs="*", metavar="GLOB", default=[],
                        help="metric globs to skip entirely")
    p_diff.add_argument("--json", action="store_true",
                        help="emit the diff report as JSON on stdout")

    p_rep = sub.add_parser(
        "report", help="write the self-contained HTML results report"
    )
    p_rep.add_argument("--html", metavar="FILE",
                       default=os.path.join("bench_results", "report.html"),
                       help="output path (default bench_results/report.html)")
    p_rep.add_argument("--from", dest="from_json", metavar="FILE", default=None,
                       help="reuse an existing scorecard JSON instead of "
                            "re-running the simulations")
    p_rep.add_argument("--scale", type=float, default=0.5)
    p_rep.add_argument("--apps", nargs="*", metavar="APP")
    p_rep.add_argument("--figures", nargs="*", metavar="FIG")
    add_registry_flag(p_rep)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep under injected faults; assert the healed output is "
             "byte-identical to a clean run",
    )
    p_chaos.add_argument("--faults", default="all", metavar="K,K,...",
                         help="comma-separated fault kinds (crash, hang, "
                              "torn-write, disk-full, fsync-fail, "
                              "corrupt-record) or 'all'")
    p_chaos.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="workers for the chaotic run (default 2)")
    p_chaos.add_argument("--apps", nargs="*", metavar="APP",
                         help="workloads for the chaos grid (default BFS KM)")
    p_chaos.add_argument("--scale", type=float, default=0.05,
                         help="workload scale for the chaos grid")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-plan placement seed")
    p_chaos.add_argument("--out", metavar="DIR", default=None,
                         help="artifact directory (default: a fresh temp dir)")
    p_chaos.add_argument("--deadline", type=float, default=5.0, metavar="SEC",
                         help="heartbeat deadline before a hung worker is "
                              "killed and its point requeued")
    p_chaos.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="dispatch attempts before a point is "
                              "quarantined")

    p_fsck = sub.add_parser(
        "fsck",
        help="audit (and with --repair, heal) the run registry: torn lines, "
             "hash mismatches, duplicates, index drift",
    )
    p_fsck.add_argument("--registry", metavar="DIR", default=None,
                        help="registry root (default bench_results/registry, "
                             "or REPRO_REGISTRY_DIR)")
    p_fsck.add_argument("--repair", action="store_true",
                        help="quarantine bad lines, restore restorable "
                             "records, rewrite the JSONL atomically and "
                             "rebuild the SQLite index")
    p_fsck.add_argument("--restore-from", metavar="PATH", default=None,
                        help="sweep JSONL store used to regenerate corrupted "
                             "registry records losslessly")
    p_fsck.add_argument("--json", action="store_true",
                        help="emit the fsck report as JSON on stdout")

    p_lint = sub.add_parser(
        "lint", help="simulator-aware static analysis (simlint SL001-SL011)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "characterize": _cmd_characterize,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "scorecard": _cmd_scorecard,
    "diff": _cmd_diff,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "chaos": _cmd_chaos,
    "fsck": _cmd_fsck,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # One actionable line instead of a traceback; structured context
        # (if any) is in exc.details and any watchdog dump it references.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR


if __name__ == "__main__":
    sys.exit(main())
