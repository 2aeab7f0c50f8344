"""End-to-end chaos harness: inject faults, recover, prove byte-identity.

``repro chaos`` is the proof that the resilience layer composes: it runs
the same small sweep twice —

1. a **clean reference**: serial, no faults, its own registry;
2. a **chaotic run**: ``--jobs N`` under a seeded
   :class:`~repro.resilience.faults.FaultPlan` (worker crashes, hangs,
   torn writes, disk-full, fsync failures, registry corruption) on the
   supervised pool, then ``fsck --repair`` against the faulted registry —

and asserts the final sweep JSONL **and** registry JSONL are
byte-identical between the two. Worker faults are healed by
kill-and-requeue, append faults by the self-healing atomic append,
registry corruption by hash-verified restore from the sweep store; if
any recovery path leaked a single byte of damage, the comparison fails.

Provenance timestamps are pinned via ``REPRO_PROVENANCE_EPOCH`` for both
runs (every other provenance field is already stable within one host and
checkout), which is what makes registry byte-comparison meaningful.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.resilience import faults
from repro.resilience.fsck import FsckReport, fsck
from repro.resilience.supervisor import SupervisorConfig

#: Epoch pinned into provenance for both runs of one chaos invocation.
DEFAULT_EPOCH = 1_700_000_000.0

#: Default point grid: small enough to finish in seconds, two workloads
#: so ``--jobs 2`` genuinely overlaps work.
DEFAULT_APPS = ("BFS", "KM")
DEFAULT_CONFIGS = ("base",)
DEFAULT_SCALE = 0.05


@dataclass
class ChaosReport:
    """Outcome of one chaos invocation."""

    out_dir: str
    kinds: list[str]
    points: int
    jobs: int
    seed: int
    store_identical: bool = False
    registry_identical: bool = False
    #: Fault events of the plan, with their parent-side fired state.
    plan_events: list[str] = field(default_factory=list)
    #: Sweep counters of the chaotic run.
    simulated: int = 0
    failed: int = 0
    quarantined_keys: list[str] = field(default_factory=list)
    #: The repair pass over the faulted registry.
    fsck: Optional[FsckReport] = None
    #: Post-repair verification pass (must be clean).
    fsck_verify_ok: bool = False

    @property
    def ok(self) -> bool:
        return (self.store_identical and self.registry_identical
                and not self.failed and self.fsck_verify_ok)


@contextlib.contextmanager
def _pinned_epoch(epoch: float) -> Iterator[None]:
    from repro.registry.provenance import PROVENANCE_EPOCH_ENV

    previous = os.environ.get(PROVENANCE_EPOCH_ENV)
    os.environ[PROVENANCE_EPOCH_ENV] = repr(epoch)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PROVENANCE_EPOCH_ENV, None)
        else:
            os.environ[PROVENANCE_EPOCH_ENV] = previous


def run_chaos(
    kinds: Sequence[str],
    *,
    apps: Sequence[str] = DEFAULT_APPS,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    scale: float = DEFAULT_SCALE,
    jobs: int = 2,
    seed: int = 0,
    out_dir: Optional[str] = None,
    deadline_s: float = 5.0,
    max_attempts: int = 3,
    epoch: float = DEFAULT_EPOCH,
) -> ChaosReport:
    """Run the chaos experiment; see the module docstring for the shape.

    ``kinds`` selects the injected fault classes (any subset of
    :data:`~repro.resilience.faults.FAULT_KINDS`). Artifacts land in
    ``out_dir`` (a fresh temp directory by default): ``clean.jsonl`` /
    ``chaos.jsonl`` sweep stores and ``clean_registry`` /
    ``chaos_registry`` registry roots, left in place for inspection.
    """
    from repro.experiments.configs import experiment_gpu_config
    from repro.experiments.sweep import run_sweep, sweep_points
    from repro.registry.store import RegistryStore

    kinds = list(kinds)
    root = pathlib.Path(
        out_dir if out_dir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    points = sweep_points(list(apps), list(configs), scales=(scale,))
    gpu_config = experiment_gpu_config()
    plan = faults.FaultPlan.build(kinds, points=len(points), seed=seed)
    report = ChaosReport(
        out_dir=str(root), kinds=kinds, points=len(points),
        jobs=jobs, seed=seed,
    )

    clean_store = str(root / "clean.jsonl")
    chaos_store = str(root / "chaos.jsonl")
    clean_registry = RegistryStore(root / "clean_registry")
    chaos_registry = RegistryStore(root / "chaos_registry")

    with _pinned_epoch(epoch):
        # 1. Clean reference: serial, fault-free, its own registry.
        run_sweep(points, clean_store, gpu_config=gpu_config,
                  registry=clean_registry)

        # 2. Chaotic run: armed plan, supervised pool.
        supervisor = SupervisorConfig(
            deadline_s=deadline_s, max_attempts=max_attempts, seed=seed)
        faults.arm(plan)
        try:
            summary = run_sweep(
                points, chaos_store, gpu_config=gpu_config,
                registry=chaos_registry, jobs=jobs, supervisor=supervisor,
            )
        finally:
            faults.disarm()
        report.simulated = summary.simulated
        report.failed = summary.failed
        report.quarantined_keys = list(summary.quarantined_keys)

        # 3. Heal the faulted registry from the (self-healed) sweep store.
        report.fsck = fsck(chaos_registry, repair=True,
                           restore_from=chaos_store)
        report.fsck_verify_ok = fsck(chaos_registry).ok

    report.plan_events = [
        f"{event.site}[{event.key}] {event.kind}"
        + (" (fired)" if event.fired else "")
        for event in plan.events
    ]
    report.store_identical = (
        pathlib.Path(clean_store).read_bytes()
        == pathlib.Path(chaos_store).read_bytes())
    report.registry_identical = (
        _registry_bytes(clean_registry) == _registry_bytes(chaos_registry))
    return report


def _registry_bytes(store) -> bytes:
    path = pathlib.Path(store.jsonl_path)
    return path.read_bytes() if path.exists() else b""


def format_chaos(report: ChaosReport) -> str:
    """Human-readable chaos verdict."""
    lines = [
        f"chaos: {report.points} point(s), jobs={report.jobs}, "
        f"seed={report.seed}, faults: {', '.join(report.kinds) or 'none'}",
    ]
    for event in report.plan_events:
        lines.append(f"  plan: {event}")
    lines.append(
        f"chaotic sweep: {report.simulated} simulated, "
        f"{report.failed} failed"
        + (f", quarantined: {', '.join(report.quarantined_keys)}"
           if report.quarantined_keys else ""))
    if report.fsck is not None:
        found = len(report.fsck.issues)
        lines.append(
            f"fsck --repair: {found} issue(s) found"
            + (", store repaired" if report.fsck.repaired else ""))
    lines.append(
        "post-repair fsck: "
        + ("clean" if report.fsck_verify_ok else "STILL DIRTY"))
    lines.append(
        "sweep store:  "
        + ("byte-identical to clean run"
           if report.store_identical else "MISMATCH vs clean run"))
    lines.append(
        "registry:     "
        + ("byte-identical to clean run"
           if report.registry_identical else "MISMATCH vs clean run"))
    lines.append(f"artifacts: {report.out_dir}")
    lines.append("verdict: " + ("OK" if report.ok else "FAILED"))
    return "\n".join(lines)
