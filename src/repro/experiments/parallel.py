"""Process-pool execution backend for the experiment layer.

Every simulation point is an independent, deterministic, picklable unit of
work — (workload, config, scale, GPUConfig) in, record out — which makes
sweeps and figure regeneration embarrassingly parallel. This module holds
everything process-related so the rest of the experiment layer stays
sequential in shape. All of it runs on the one supervised pool,
:class:`~repro.resilience.supervisor.SupervisedPool`, so a worker that
dies has its point requeued instead of breaking the run:

* :func:`run_point_tasks` fans sweep points across the pool, running the
  same integrity wrapper (timeout, retry, failure records) inside each
  worker and yielding records back as they complete; the sweep driver
  reorders them into point order so the JSONL store is byte-identical to
  a serial run. Per-point telemetry heartbeats come back over the pool's
  result queue and are rendered through one :class:`ProgressWriter`.
* :func:`prewarm` simulates runner points in the pool and seeds the
  in-process memoisation cache, so figures/scorecards — which only ever
  call :func:`repro.experiments.runner.run` — parallelise without knowing
  this module exists.
* :func:`parallel_map` is the order-preserving map the ablations use.

Workers inherit the parent's environment but never touch the registry or
the results store; all persistence stays in the parent, so there is a
single writer per output file regardless of ``--jobs``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from repro.config import GPUConfig
from repro.resilience.supervisor import (
    PointQuarantined,
    SupervisedPool,
    SupervisorConfig,
)
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
    inside pool workers; each interval becomes one small tuple put on the
    pool's telemetry channel, which :func:`run_point_tasks` renders in the
    parent. Subclassing
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
            # A torn-down channel must never take the simulation down.
            pass


def _pool(config: Optional[SupervisorConfig] = None) -> SupervisedPool:
    """A pool whose escalation events go to stderr as ``[supervisor]`` lines."""
    return SupervisedPool(
        config,
        on_event=lambda message: print(f"[supervisor] {message}",
                                       file=sys.stderr))


# ----------------------------------------------------------------------
# Sweep-point execution
# ----------------------------------------------------------------------


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


def _run_point_task(task: PointTask, heartbeats: Any) -> dict:
    """Worker entry: the sweep integrity wrapper around one point.

    Runs in the pool worker's main thread, so the SIGALRM wall-clock
    timeout composes exactly as in serial mode.
    """
    from repro.experiments.sweep import _run_point

    return _run_point(
        task.point,
        gpu_config=task.gpu_config,
        retries=task.retries,
        backoff_s=task.backoff_s,
        point_timeout_s=task.point_timeout_s,
        sleep=time.sleep,
        telemetry=task.telemetry,
        trace_dir=task.trace_dir,
        telemetry_window=task.telemetry_window,
        heartbeat_sink=(QueueHeartbeatSink(heartbeats, task.point.key)
                        if task.telemetry else None),
    )


def run_point_tasks(
    tasks: Sequence[PointTask],
    jobs: int,
    supervisor: Optional[SupervisorConfig] = None,
    heartbeat_writer: Optional[ProgressWriter] = None,
) -> Iterator[tuple[int, Any]]:
    """Execute sweep-point tasks on the pool, yielding in completion order.

    Yields ``(task.index, record)``, or ``(task.index,``
    :class:`~repro.resilience.supervisor.PointQuarantined` ``)`` for a
    point whose workers kept dying. The caller owns ordering — see
    :func:`repro.experiments.sweep.run_sweep`, which holds completed
    records back until every earlier point has flushed. ``supervisor``
    sets the heartbeat deadline and attempt budget; ``heartbeat_writer``
    receives one line per worker telemetry interval.
    """
    on_telemetry = None
    if heartbeat_writer is not None:
        def on_telemetry(heartbeat: tuple) -> None:
            # The serial telemetry heartbeat's format, prefixed with the
            # point key it belongs to.
            key, cycle_end, ipc, ipc_cum = heartbeat
            heartbeat_writer.line(
                f"[telemetry] {key}: cycle {cycle_end:,} | "
                f"IPC {ipc:.3f} (cum {ipc_cum:.3f})")
    for position, payload in _pool(supervisor).run(
            _run_point_task, tasks, jobs, on_telemetry=on_telemetry):
        yield tasks[position].index, payload


# ----------------------------------------------------------------------
# Cache prewarming (figures / scorecard / ablations)
# ----------------------------------------------------------------------


def _prewarm_worker(point: RunPoint, _telemetry: Any):
    from repro.experiments.runner import run

    return run(*point)


def prewarm(points: Iterable[RunPoint], jobs: int) -> int:
    """Simulate runner points in a pool and seed the in-process run cache.

    Returns how many points were handed to the pool or run (already-cached
    and duplicate points are dropped first). With ``jobs <= 1`` the points
    run in-process, which is exactly what the figure code would do lazily
    — so prewarming never changes results, only when the work happens.
    RunResults are plain picklable dataclasses, and simulation is
    deterministic, so a worker-produced result is indistinguishable from
    a local one. A point the pool quarantines is simply not seeded: the
    figure's serial producer re-runs it in-process, where a real error
    surfaces as an ordinary :class:`~repro.errors.ReproError`.
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
    for index, result in _pool().run(_prewarm_worker, todo, jobs):
        if not isinstance(result, PointQuarantined):
            runner.seed_cache(*todo[index], result)
    return len(todo)


def _map_item(fn: Callable[[Any], Any], item: Any, _telemetry: Any) -> Any:
    return fn(item)


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any], jobs: int) -> list:
    """Order-preserving map over the pool (in-process for jobs<=1).

    ``fn`` must be a module-level callable and every item picklable; the
    ablation sweeps use this to evaluate their non-memoisable APRES
    variants concurrently. An item the pool quarantines raises
    :class:`~repro.resilience.supervisor.PointQuarantined`.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list[Any] = [None] * len(items)
    for index, result in _pool().run(
            functools.partial(_map_item, fn), items, jobs):
        results[index] = result
    for result in results:
        if isinstance(result, PointQuarantined):
            raise result
    return results


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
