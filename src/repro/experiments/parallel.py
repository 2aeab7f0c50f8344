"""Process-pool execution backend for the experiment layer.

Every simulation point is an independent, deterministic, picklable unit of
work — (workload, config, scale, GPUConfig) in, record out — which makes
sweeps and figure regeneration embarrassingly parallel. This module holds
everything process-related so the rest of the experiment layer stays
sequential in shape. All of it runs on the one supervised pool,
:class:`~repro.resilience.supervisor.SupervisedPool`, so a worker that
dies has its point requeued instead of breaking the run:

* :func:`run_point_tasks` fans sweep points across the pool, running the
  same wrapper as a serial sweep (one run, failures become records)
  inside each worker and yielding records back as they complete; the
  sweep driver reorders them into point order so the JSONL store is
  byte-identical to a serial run.
* :func:`prewarm` simulates runner points in the pool and seeds the
  in-process memoisation cache, so figures/scorecards — which only ever
  call :func:`repro.experiments.runner.run` — parallelise without knowing
  this module exists.
* :func:`parallel_map` is the order-preserving map the ablations use.

Workers inherit the parent's environment but never touch the registry or
the results store; all persistence stays in the parent, so there is a
single writer per output file regardless of ``--jobs``. Workers send
back results only: the parent's ``[sweep]`` line per flushed point is the
one progress stream, the same serially and at any ``--jobs``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.config import GPUConfig
from repro.resilience.supervisor import (
    PointQuarantined,
    SupervisedPool,
    SupervisorConfig,
)

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
    """One sweep point plus the settings its worker run needs."""

    index: int
    point: Any  # SweepPoint; typed loosely to avoid an import cycle.
    gpu_config: Optional[GPUConfig]
    telemetry: bool
    trace_dir: Optional[str]
    telemetry_window: int


def _run_point_task(task: PointTask) -> dict:
    """Worker entry: the serial sweep's wrapper around one point."""
    from repro.experiments.sweep import _run_point

    return _run_point(
        task.point,
        gpu_config=task.gpu_config,
        telemetry=task.telemetry,
        trace_dir=task.trace_dir,
        telemetry_window=task.telemetry_window,
    )


def run_point_tasks(
    tasks: Sequence[PointTask],
    jobs: int,
    supervisor: Optional[SupervisorConfig] = None,
) -> Iterator[tuple[int, Any]]:
    """Execute sweep-point tasks on the pool, yielding in completion order.

    Yields ``(task.index, record)``, or ``(task.index,``
    :class:`~repro.resilience.supervisor.PointQuarantined` ``)`` for a
    point whose workers kept dying or that raised outside the wrapper.
    The caller owns ordering — see
    :func:`repro.experiments.sweep.run_sweep`, which holds completed
    records back until every earlier point has flushed. ``supervisor``
    sets the heartbeat deadline and attempt budget.
    """
    for position, payload in _pool(supervisor).run(
            _run_point_task, tasks, jobs):
        yield tasks[position].index, payload


# ----------------------------------------------------------------------
# Cache prewarming (figures / scorecard / ablations)
# ----------------------------------------------------------------------


def _prewarm_worker(point: RunPoint):
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
    surfaces as an ordinary :class:`~repro.errors.ReproError`. A point
    whose simulation raises is dispatched once, so it runs twice in all.
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


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any], jobs: int) -> list:
    """Order-preserving map over the pool (in-process for jobs<=1).

    ``fn`` must be a module-level callable and every item picklable; the
    ablation sweeps use this to evaluate their non-memoisable APRES
    variants concurrently. An item the pool quarantines raises
    :class:`~repro.resilience.supervisor.PointQuarantined`; an item whose
    ``fn`` raises is dispatched once, never requeued.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list[Any] = [None] * len(items)
    for index, result in _pool().run(fn, items, jobs):
        results[index] = result
    for result in results:
        if isinstance(result, PointQuarantined):
            raise result
    return results


# ----------------------------------------------------------------------
# Figure / scorecard point enumeration
# ----------------------------------------------------------------------


def figure_points(
    name: str,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> list[RunPoint]:
    """Every memoisable (workload, config, scale, gpu_config) a figure needs.

    The points come from the figure's
    :class:`~repro.experiments.figures.FigureSpec` (``configs`` at each of
    its ``l1_bytes``), so prewarming them in a pool makes the figure's own
    (serial) producer a pure cache walk. Tables simulate outside the
    runner cache (table1 attaches per-run load observers) or not at all,
    and unknown names have no spec: both return an empty list and simply
    run serially.
    """
    from repro.experiments.configs import experiment_gpu_config
    from repro.experiments.figures import ALL_APPS, FIGURES

    spec = FIGURES.get(name)
    if spec is None:
        return []
    app_list = list(apps) if apps else list(ALL_APPS)
    cfg = experiment_gpu_config()
    gpus = [cfg if size is None else cfg.with_l1_size(size)
            for size in spec.l1_bytes]
    return [(app, config, scale, gpu)
            for config in spec.configs for gpu in gpus for app in app_list]


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
