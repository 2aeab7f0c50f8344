"""Memoised simulation runner.

Figures 10-15 all evaluate the same handful of configurations over the
same 15 workloads, so results are cached per
``(workload, config, scale, GPU config)`` within the process. Every run is
deterministic, which makes the cache safe. The cache is a bounded LRU so
unbounded sweeps (see :mod:`repro.experiments.sweep`, which persists its
results to disk instead) cannot grow memory without limit.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.config import GPUConfig
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.sm.simulator import SimulationResult, simulate
from repro.stats.energy import EnergyModel, EnergyReport
from repro.workloads.suite import workload
from repro.workloads.synthetic import build_kernel

# Cache keys embed GPUConfig instances; if the dataclass ever stops being
# frozen (and therefore hashable), keys would silently alias or crash deep
# inside dict machinery. Fail loudly at import time instead.
if not GPUConfig.__dataclass_params__.frozen:  # pragma: no cover - config bug
    raise TypeError("GPUConfig must stay a frozen dataclass: runner cache "
                    "keys rely on structural hashing")
hash(GPUConfig())  # raises TypeError if any field breaks hashability


@dataclass(frozen=True)
class RunResult:
    """One simulated (workload, configuration) point with derived metrics."""

    workload: str
    config_name: str
    sim: SimulationResult
    energy: EnergyReport

    @property
    def ipc(self) -> float:
        return self.sim.ipc

    @property
    def cycles(self) -> int:
        return self.sim.cycles


#: Default LRU capacity; override via $REPRO_RUN_CACHE_SIZE or set_cache_limit.
_DEFAULT_CACHE_SIZE = 256

_CACHE: "OrderedDict[tuple, RunResult]" = OrderedDict()
_cache_max = max(1, int(os.environ.get("REPRO_RUN_CACHE_SIZE", _DEFAULT_CACHE_SIZE)))


def set_cache_limit(max_entries: int) -> None:
    """Bound the memoisation cache to ``max_entries`` (evicting LRU-first)."""
    global _cache_max
    if max_entries < 1:
        raise ValueError("cache limit must be >= 1")
    _cache_max = max_entries
    while len(_CACHE) > _cache_max:
        _CACHE.popitem(last=False)


def cache_limit() -> int:
    """Current LRU capacity of the memoisation cache."""
    return _cache_max


def clear_cache() -> None:
    """Drop memoised results (tests use this to force fresh runs)."""
    _CACHE.clear()


def cache_key(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig] = None,
) -> tuple:
    """The memoisation key :func:`run` would use for these arguments."""
    return (workload_abbr, config_name, scale,
            gpu_config or experiment_gpu_config())


def is_cached(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig] = None,
) -> bool:
    """True when :func:`run` with these arguments would be a cache hit."""
    return cache_key(workload_abbr, config_name, scale, gpu_config) in _CACHE


def seed_cache(
    workload_abbr: str,
    config_name: str,
    scale: float,
    gpu_config: Optional[GPUConfig],
    result: RunResult,
) -> None:
    """Install a result computed elsewhere (e.g. a pool worker) into the cache.

    The parallel prewarmer (:mod:`repro.experiments.parallel`) simulates
    points in worker processes and seeds them here, so the figure/scorecard
    code paths — which only ever call :func:`run` — pick them up without
    knowing parallelism exists. Simulation is deterministic, so a seeded
    result is indistinguishable from one computed in-process.
    """
    key = cache_key(workload_abbr, config_name, scale, gpu_config)
    _CACHE[key] = result
    while len(_CACHE) > _cache_max:
        _CACHE.popitem(last=False)


def run(
    workload_abbr: str,
    config_name: str,
    scale: float = 1.0,
    gpu_config: Optional[GPUConfig] = None,
    telemetry=None,
) -> RunResult:
    """Simulate one workload under one named configuration (memoised).

    A run with ``telemetry`` (a :class:`repro.telemetry.TelemetryHub`)
    bypasses the cache entirely — both lookup and store — because the
    hub is bound to the specific simulator instance and a memoised
    result would silently carry no telemetry.
    """
    if config_name not in CONFIGS:
        known = ", ".join(sorted(CONFIGS))
        raise ValueError(f"unknown config {config_name!r}; known: {known}")
    cfg = gpu_config or experiment_gpu_config()
    key = cache_key(workload_abbr, config_name, scale, cfg)
    if telemetry is None:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            return cached

    kernel = build_kernel(workload(workload_abbr), scale)
    sim = simulate(kernel, cfg, CONFIGS[config_name].build, telemetry=telemetry)
    energy = EnergyModel().report(
        sim.stats, apres_events=sim.engine_events, num_sms=cfg.num_sms
    )
    result = RunResult(workload_abbr, config_name, sim, energy)
    if telemetry is None:
        _CACHE[key] = result
        while len(_CACHE) > _cache_max:
            _CACHE.popitem(last=False)
    return result


def speedup(
    workload_abbr: str,
    config_name: str,
    baseline: str = "base",
    scale: float = 1.0,
    gpu_config: Optional[GPUConfig] = None,
) -> float:
    """IPC of ``config_name`` over ``baseline`` for one workload."""
    test = run(workload_abbr, config_name, scale, gpu_config)
    base = run(workload_abbr, baseline, scale, gpu_config)
    return test.ipc / base.ipc if base.ipc else 0.0
