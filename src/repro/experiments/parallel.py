"""Process-pool execution backend for the experiment layer.

Every simulation point is an independent, deterministic, picklable unit of
work — (workload, config, scale, GPUConfig) in, record out — which makes
sweeps and figure regeneration embarrassingly parallel. This module holds
everything process-related so the rest of the experiment layer stays
sequential in shape:

* :func:`run_point_tasks` fans sweep points across a
  :class:`~concurrent.futures.ProcessPoolExecutor`, running the same
  integrity wrapper (timeout, retry, failure records) inside each worker
  and yielding records back as they complete; the sweep driver reorders
  them into point order so the JSONL store is byte-identical to a serial
  run.
* :func:`prewarm` simulates runner points in a pool and seeds the
  in-process memoisation cache, so figures/scorecards — which only ever
  call :func:`repro.experiments.runner.run` — parallelise without knowing
  this module exists.
* :class:`ProgressWriter` serialises progress and heartbeat lines from
  many sources onto one stream, and :class:`HeartbeatRelay` drains
  per-worker telemetry heartbeats into it.

Workers inherit the parent's environment but never touch the registry or
the results store; all persistence stays in the parent, so there is a
single writer per output file regardless of ``--jobs``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from repro.config import GPUConfig
from repro.resilience import faults
from repro.resilience.supervisor import SupervisedPool, SupervisorConfig
from repro.telemetry.export import TelemetrySink

#: One prewarmable runner point: (workload, config_name, scale, gpu_config).
RunPoint = tuple[str, str, float, Optional[GPUConfig]]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``--jobs``, else ``$REPRO_JOBS``, else 1.

    ``0`` means one worker per CPU. Values below zero are rejected; the
    result is always >= 1 (1 = run in-process, no pool).
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from exc
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one per CPU)")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


class ProgressWriter:
    """Line-oriented writer shared by every progress source of one command.

    Sweep progress lines, worker heartbeats and cache notes all funnel
    through :meth:`line`, which holds a lock for the write+flush pair — so
    concurrent sources can never interleave mid-line, no matter how many
    workers are reporting.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream if stream is not None else sys.stdout
        self._lock = threading.Lock()

    def line(self, text: str) -> None:
        with self._lock:
            self._stream.write(text + "\n")
            self._stream.flush()


class QueueHeartbeatSink(TelemetrySink):
    """Telemetry interval sink that forwards worker heartbeats to the parent.

    Installed on the per-point :class:`~repro.telemetry.TelemetryHub`
    inside pool workers; each interval becomes one small tuple on a
    manager queue, which the parent's :class:`HeartbeatRelay` renders
    through the shared :class:`ProgressWriter`. Subclassing
    :class:`~repro.telemetry.export.TelemetrySink` matters: the hub calls
    ``finish`` on every attached sink at run close, and a bare duck-typed
    sink would crash there.
    """

    def __init__(self, queue: Any, key: str):
        self._queue = queue
        self._key = key

    def on_interval(self, record: dict[str, Any]) -> None:
        try:
            self._queue.put(
                (self._key, record.get("cycle_end"), record.get("ipc"),
                 record.get("ipc_cum"))
            )
        except Exception:  # simlint: ignore[SL008]
            # A dying manager must never take the simulation down with it.
            pass


class HeartbeatRelay:
    """Parent-side drain of worker heartbeats onto one writer.

    Owns a ``multiprocessing.Manager`` queue (proxy objects are picklable,
    unlike raw ``mp.Queue``, so workers can receive it through the pool
    initializer) and a daemon thread that renders each heartbeat in the
    same format as the serial telemetry heartbeat line, prefixed with the
    point key it belongs to.
    """

    def __init__(self, writer: ProgressWriter):
        self._writer = writer
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            key, cycle_end, ipc, ipc_cum = item
            self._writer.line(
                f"[telemetry] {key}: cycle {cycle_end:,} | "
                f"IPC {ipc:.3f} (cum {ipc_cum:.3f})"
            )

    def close(self) -> None:
        try:
            self.queue.put(None)
            self._thread.join(timeout=5)
        finally:
            self._manager.shutdown()


# ----------------------------------------------------------------------
# Sweep-point execution
# ----------------------------------------------------------------------

#: Worker-global heartbeat queue, set once per worker by ``_init_worker``.
_WORKER_HEARTBEATS: Any = None


def _init_worker(heartbeat_queue: Any) -> None:
    global _WORKER_HEARTBEATS
    _WORKER_HEARTBEATS = heartbeat_queue


@dataclass(frozen=True)
class PointTask:
    """One sweep point plus the integrity knobs its worker run needs."""

    index: int
    point: Any  # SweepPoint; typed loosely to avoid an import cycle.
    gpu_config: Optional[GPUConfig]
    retries: int
    backoff_s: float
    point_timeout_s: Optional[float]
    telemetry: bool
    trace_dir: Optional[str]
    telemetry_window: int


def _run_point_task(task: PointTask) -> tuple[int, dict]:
    """Worker entry: the sweep integrity wrapper around one point.

    Runs in the pool worker's main thread, so the SIGALRM wall-clock
    timeout composes exactly as in serial mode.
    """
    from repro.experiments.sweep import _run_point

    sink = None
    if task.telemetry and _WORKER_HEARTBEATS is not None:
        sink = QueueHeartbeatSink(_WORKER_HEARTBEATS, task.point.key)
    record = _run_point(
        task.point,
        gpu_config=task.gpu_config,
        retries=task.retries,
        backoff_s=task.backoff_s,
        point_timeout_s=task.point_timeout_s,
        sleep=time.sleep,
        telemetry=task.telemetry,
        trace_dir=task.trace_dir,
        telemetry_window=task.telemetry_window,
        heartbeat_sink=sink,
    )
    return task.index, record


def _default_supervisor_event(message: str) -> None:
    print(f"[supervisor] {message}", file=sys.stderr)


def run_point_tasks(
    tasks: Sequence[PointTask],
    jobs: int,
    heartbeat_queue: Any = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Iterator[tuple[int, Any]]:
    """Execute sweep-point tasks on a pool, yielding in completion order.

    Yields ``(index, record)``; a worker that dies outright (rather than
    returning a failure record) yields ``(index, exception)`` so the
    caller can turn it into a structured failure record. The caller owns
    ordering — see :func:`repro.experiments.sweep.run_sweep`, which holds
    completed records back until every earlier point has flushed.

    With a ``supervisor`` config — or whenever a fault plan is armed —
    the plain executor is swapped for the hardened
    :class:`~repro.resilience.supervisor.SupervisedPool`: heartbeat
    deadlines, kill-and-requeue with capped jittered backoff, poisoned
    point quarantine (yielded as
    :class:`~repro.resilience.supervisor.PointQuarantined`), and graceful
    degradation to serial when the pool keeps dying.
    """
    if not tasks:
        return
    if supervisor is None and faults.ACTIVE is not None:
        # A chaos run without an explicit config still needs supervision:
        # injected hangs/crashes must be detected, not wedge the sweep.
        supervisor = SupervisorConfig(deadline_s=10.0)
    if supervisor is not None:
        if supervisor.fault_plan is None and faults.ACTIVE is not None:
            supervisor = dataclasses.replace(
                supervisor, fault_plan=faults.ACTIVE)
        pool = SupervisedPool(supervisor, on_event=_default_supervisor_event)
        yield from pool.run(tasks, jobs, telemetry_queue=heartbeat_queue)
        return
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(heartbeat_queue,),
    ) as pool:
        futures = {pool.submit(_run_point_task, task): task for task in tasks}
        for future in as_completed(futures):
            task = futures[future]
            try:
                yield future.result()
            except Exception as exc:  # e.g. BrokenProcessPool, MemoryError
                yield task.index, exc


# ----------------------------------------------------------------------
# Cache prewarming (figures / scorecard / ablations)
# ----------------------------------------------------------------------


def _prewarm_worker(point: RunPoint):
    from repro.experiments.runner import run

    return point, run(*point)


def prewarm(points: Iterable[RunPoint], jobs: int) -> int:
    """Simulate runner points in a pool and seed the in-process run cache.

    Returns how many points were actually simulated (already-cached and
    duplicate points are dropped first). With ``jobs <= 1`` the points run
    in-process, which is exactly what the figure code would do lazily —
    so prewarming never changes results, only when the work happens.
    RunResults are plain picklable dataclasses, and simulation is
    deterministic, so a worker-produced result is indistinguishable from
    a local one.
    """
    from repro.experiments import runner

    todo: list[RunPoint] = []
    seen: set[tuple] = set()
    for point in points:
        key = runner.cache_key(*point)
        if key in seen or runner.is_cached(*point):
            continue
        seen.add(key)
        todo.append(point)
    if not todo:
        return 0
    if jobs <= 1 or len(todo) == 1:
        for point in todo:
            runner.run(*point)
        return len(todo)
    with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
        for point, result in pool.map(_prewarm_worker, todo):
            runner.seed_cache(*point, result)
    return len(todo)


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any], jobs: int) -> list:
    """Order-preserving map over a process pool (in-process for jobs<=1).

    ``fn`` must be a module-level callable and every item picklable; the
    ablation sweeps use this to evaluate their non-memoisable APRES
    variants concurrently.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# Figure / scorecard point enumeration
# ----------------------------------------------------------------------

#: Named configurations each figure's producer resolves through run().
#: "base" is listed wherever the figure normalises against the baseline.
_FIGURE_CONFIGS: dict[str, tuple[str, ...]] = {
    "figure3": ("pa+str", "pa+sld", "gto+str", "gto+sld", "mascar+str",
                "mascar+sld", "ccws+str", "ccws+sld", "base"),
    "figure4": ("pa+str", "gto+str", "mascar+str", "ccws+str"),
    "figure10": ("ccws", "laws", "ccws+str", "laws+str", "apres", "base"),
    "figure11": ("base", "ccws", "laws", "ccws+str", "apres"),
    "figure12": ("ccws+str", "apres"),
    "figure13": ("ccws+str", "apres", "base"),
    "figure14": ("ccws+str", "apres", "base"),
    "figure15": ("apres", "base"),
}


def figure_points(
    name: str,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> list[RunPoint]:
    """Every memoisable (workload, config, scale, gpu_config) a figure needs.

    Prewarming these in a pool makes the figure's own (serial) producer a
    pure cache walk. Figures that simulate outside the runner cache —
    table1 attaches per-run load observers — return an empty list and
    simply run serially.
    """
    from repro.experiments.configs import experiment_gpu_config
    from repro.experiments.figures import ALL_APPS

    app_list = list(apps) if apps else list(ALL_APPS)
    cfg = experiment_gpu_config()
    if name == "figure2":
        large = cfg.with_l1_size(32 * 1024 * 1024)
        return [(app, "base", scale, c) for app in app_list for c in (cfg, large)]
    configs = _FIGURE_CONFIGS.get(name)
    if configs is None:
        return []
    return [(app, config, scale, cfg)
            for config in dict.fromkeys(configs) for app in app_list]


def scorecard_points(
    figures: Sequence[str],
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> list[RunPoint]:
    """Union of every figure's prewarm points, deduplicated in order."""
    out: list[RunPoint] = []
    seen: set[tuple] = set()
    for name in figures:
        for point in figure_points(name, apps, scale):
            key = (point[0], point[1], point[2], point[3])
            if key not in seen:
                seen.add(key)
                out.append(point)
    return out
