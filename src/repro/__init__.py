"""APRES reproduction: adaptive prefetching and scheduling on GPUs.

Reimplementation of Oh et al., *APRES: Improving Cache Efficiency by
Exploiting Load Characteristics on GPUs* (ISCA 2016): a cycle-level GPU
SM simulator, the LAWS scheduler and SAP prefetcher, the baseline
schedulers/prefetchers the paper compares against, the 15-benchmark
synthetic workload suite, and an experiment harness regenerating every
table and figure of the evaluation.

Quick start::

    from repro import run, speedup
    result = run("BFS", "apres", scale=0.3)
    print(result.ipc, speedup("BFS", "apres", scale=0.3))
"""

from typing import Any

from repro.config import APRESConfig, CacheConfig, DRAMConfig, GPUConfig
from repro.core import APRESPair, LAWSScheduler, SAPPrefetcher, build_apres, hardware_cost
from repro.errors import (
    CheckpointError,
    ConfigError,
    InvariantError,
    LintError,
    ReproError,
    SimulationError,
    WatchdogTimeout,
    WorkloadError,
)
from repro.experiments import figures
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.experiments.runner import RunResult, run, speedup
from repro.experiments.sweep import ResultsStore, SweepPoint, run_sweep, sweep_points
from repro.integrity import load_checkpoint, save_checkpoint
from repro.isa import KernelSpec
from repro.sm import GPUSimulator, SimulationResult, simulate
from repro.telemetry import STALL_CAUSES, TelemetryHub
from repro.workloads import SUITE, WorkloadSpec, build_kernel, workload

__version__ = "1.0.0"

__all__ = [
    "APRESConfig",
    "CacheConfig",
    "DRAMConfig",
    "GPUConfig",
    "APRESPair",
    "LAWSScheduler",
    "SAPPrefetcher",
    "build_apres",
    "hardware_cost",
    "CheckpointError",
    "ConfigError",
    "InvariantError",
    "LintError",
    "ReproError",
    "run_lint",
    "SimulationError",
    "WatchdogTimeout",
    "WorkloadError",
    "ResultsStore",
    "SweepPoint",
    "run_sweep",
    "sweep_points",
    "load_checkpoint",
    "save_checkpoint",
    "figures",
    "CONFIGS",
    "experiment_gpu_config",
    "RunResult",
    "run",
    "speedup",
    "KernelSpec",
    "GPUSimulator",
    "SimulationResult",
    "simulate",
    "STALL_CAUSES",
    "TelemetryHub",
    "SUITE",
    "WorkloadSpec",
    "build_kernel",
    "workload",
    "__version__",
]


def __getattr__(name: str) -> Any:
    # The linter is loaded on first use, so importing repro (and every
    # CLI command but `lint`) does not import repro.analysis.
    if name == "run_lint":
        from repro.analysis import run_lint

        return run_lint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
