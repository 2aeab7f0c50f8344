"""Simulator speed microbenchmark: ``python -m repro bench``.

The hot loop of a cycle-accurate simulator is its product as much as its
metrics are, so speed gets the same treatment as fidelity: a fixed,
deterministic point set, timed cold (the runner cache is cleared before
every point), reduced to one headline number — simulated cycles per
wall-clock second — and archived to ``bench_results/BENCH_sim_speed.json``
plus the registry, where the history under the bench's stable ``run_id``
is the performance trajectory across commits.

Two measurements:

* **point set** — a small cross-section of the suite (thrashing, strided,
  broadcast, streaming) under representative configurations, each timed
  individually; totals aggregate them into cycles/second.
* **figure2 end-to-end** — wall-clock of a full ``figures.figure2`` call
  (the paper's motivation figure: every app under a small and an infinite
  L1), which exercises the whole experiment layer rather than one run.

Wall-clock numbers are host-dependent by nature; the payload says so via
its provenance stamp rather than pretending otherwise.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from repro.experiments import figures
from repro.experiments.runner import clear_cache, run

#: Fixed cross-section timed by the bench: one thrashing (KM), one strided
#: with reuse (LUD), one broadcast-heavy (BFS), one compute-streaming (CS)
#: workload, under baseline and the paper's two headline configurations.
DEFAULT_POINTS: tuple[tuple[str, str], ...] = (
    ("KM", "base"),
    ("KM", "apres"),
    ("LUD", "laws"),
    ("BFS", "apres"),
    ("CS", "base"),
)

#: Default scale: small enough for CI, large enough to exercise the caches.
DEFAULT_SCALE = 0.3

#: Apps for the end-to-end figure2 timing (two points each: small/huge L1).
DEFAULT_FIGURE2_APPS: tuple[str, ...] = ("BFS", "KM", "LUD", "SPMV")


def _time_point(workload: str, config: str, scale: float) -> dict[str, Any]:
    """Cold-cache timing of one runner point."""
    clear_cache()
    started = time.perf_counter()
    result = run(workload, config, scale=scale)
    wall_s = time.perf_counter() - started
    stats = result.sim.stats
    return {
        "workload": workload,
        "config": config,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ipc": stats.ipc,
        "wall_s": wall_s,
        "cycles_per_s": stats.cycles / wall_s if wall_s > 0 else 0.0,
    }


def run_bench(
    scale: float = DEFAULT_SCALE,
    points: Sequence[tuple[str, str]] = DEFAULT_POINTS,
    figure2_apps: Optional[Sequence[str]] = DEFAULT_FIGURE2_APPS,
) -> dict[str, Any]:
    """Measure simulation speed; returns the BENCH_sim_speed payload.

    Every point is timed with a cold runner cache (memoisation would turn
    the bench into a dict-lookup benchmark). ``figure2_apps=None`` skips
    the end-to-end measurement.
    """
    from repro.registry.provenance import collect_provenance

    timed = [_time_point(workload, config, scale)
             for workload, config in points]
    total_cycles = sum(p["cycles"] for p in timed)
    total_wall = sum(p["wall_s"] for p in timed)
    payload: dict[str, Any] = {
        "schema": "bench.sim_speed/1",
        "scale": scale,
        "points": timed,
        "totals": {
            "num_points": len(timed),
            "cycles": total_cycles,
            "wall_s": total_wall,
            "cycles_per_s": total_cycles / total_wall if total_wall > 0 else 0.0,
        },
        "provenance": collect_provenance(),
    }
    if figure2_apps:
        clear_cache()
        started = time.perf_counter()
        figures.figure2(list(figure2_apps), scale)
        wall_s = time.perf_counter() - started
        payload["figure2"] = {
            "apps": list(figure2_apps),
            "num_points": 2 * len(figure2_apps),
            "wall_s": wall_s,
        }
        payload["totals"]["figure2_wall_s"] = wall_s
    return payload
