"""Crash-safe sweep driver with an on-disk JSONL results store.

Large evaluations simulate hundreds of ``(workload, config, scale)``
points; a crash, hang, or SIGKILL hours in must not force a rerun from
scratch. This driver therefore:

* persists every completed point to an append-only JSONL store the moment
  it finishes (flushed and fsynced, so a kill can lose at most the point
  in flight — never corrupt earlier ones);
* on restart (``resume_from``), skips points the store already holds and
  re-simulates only incomplete or previously failed ones — simulation is
  deterministic, so the merged store equals an uninterrupted sweep's;
* bounds each point with an optional wall-clock timeout and retries
  transient :class:`SimulationError`\\ s with exponential backoff;
* records failures as structured JSONL rows instead of killing the sweep.

The in-process memoisation cache of :mod:`repro.experiments.runner` is an
optimisation *within* a process; this store is the source of truth
*across* processes.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import sleep as _default_sleep
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.config import GPUConfig
from repro.errors import ReproError, SimulationError, WatchdogTimeout
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import RunResult, run
from repro.resilience.atomic import append_line
from repro.workloads.suite import SUITE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SupervisorConfig

#: Bump when the record layout changes incompatibly.
RESULT_FORMAT = 1


@dataclass(frozen=True)
class SweepPoint:
    """One simulation point of a sweep."""

    workload: str
    config_name: str
    scale: float

    @property
    def key(self) -> str:
        """Stable store key for resume matching."""
        return f"{self.workload}|{self.config_name}|{self.scale:g}"


def sweep_points(
    apps: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
    scales: Sequence[float] = (0.5,),
) -> list[SweepPoint]:
    """Cartesian product of workloads x configurations x scales.

    ``None`` selects every workload / every configuration. Unknown names
    raise ValueError up front, before any simulation time is spent.
    """
    app_list = list(apps) if apps else sorted(SUITE)
    config_list = list(configs) if configs else sorted(CONFIGS)
    for app in app_list:
        if app not in SUITE:
            raise ValueError(f"unknown workload {app!r}")
    for config in config_list:
        if config not in CONFIGS:
            raise ValueError(f"unknown config {config!r}")
    return [
        SweepPoint(app, config, scale)
        for app in app_list
        for config in config_list
        for scale in scales
    ]


class ResultsStore:
    """Append-only JSONL store of sweep results.

    Each line is one self-contained JSON record, appended as a single
    fsynced ``O_APPEND`` syscall through the self-healing
    :func:`repro.resilience.atomic.append_line` — a SIGKILL, disk-full or
    I/O error can therefore never leave a torn line behind; :meth:`load`
    still tolerates a legacy torn tail by skipping undecodable lines (the
    affected point is simply re-simulated on resume).
    """

    def __init__(self, path: str):
        self.path = path

    def load(self) -> dict[str, dict]:
        """Records keyed by point key; the last record for a key wins."""
        records: dict[str, dict] = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a crash mid-append
                key = record.get("key")
                if isinstance(key, str):
                    records[key] = record
        return records

    def append(self, record: dict) -> None:
        append_line(self.path, json.dumps(record, sort_keys=True))


@dataclass
class SweepSummary:
    """Outcome of one :func:`run_sweep` invocation."""

    out_path: str
    total_points: int
    simulated: int = 0
    skipped: int = 0
    failed: int = 0
    #: Points replayed from the registry instead of simulated (memoization).
    cache_hits: int = 0
    #: Points that consulted the registry cache and missed.
    cache_misses: int = 0
    #: Keys that ended in a failure record this invocation.
    failed_keys: list[str] = field(default_factory=list)
    #: Registry memo hits rejected by hash verification (re-simulated).
    cache_rejected: int = 0
    #: Quarantined failure records skipped on resume (``--retry-failed``
    #: forces them back into the pending set instead).
    quarantined_skipped: int = 0
    #: Keys currently quarantined: skipped on resume + newly quarantined.
    quarantined_keys: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.simulated + self.skipped + self.cache_hits - self.failed


def _base_provenance(gpu_config: Optional[GPUConfig]) -> dict:
    """Sweep-wide provenance, computed once per invocation.

    Every record (success or failure) is stamped with the commit, the
    GPUConfig content hash and the ``REPRO_BENCH_SCALE`` environment so a
    stored point can always be traced back to the code and settings that
    produced it.
    """
    from repro.experiments.configs import experiment_gpu_config
    from repro.registry.provenance import git_sha
    from repro.registry.records import config_hash

    return {
        "git_sha": git_sha(),
        "config_hash": config_hash(gpu_config or experiment_gpu_config()),
        "bench_scale_env": os.environ.get("REPRO_BENCH_SCALE"),
    }


def _point_provenance(point: SweepPoint, base: dict) -> dict:
    """Per-point provenance: base stamp + scheduler/prefetcher/seed."""
    from repro.registry.records import workload_seed
    from repro.workloads.suite import workload

    spec = CONFIGS.get(point.config_name)
    return {
        **base,
        "scheduler": spec.scheduler if spec else point.config_name,
        "prefetcher": (spec.prefetcher or "none") if spec else "none",
        "seed": workload_seed(workload(point.workload)),
    }


def _ok_record(point: SweepPoint, result: RunResult, attempts: int) -> dict:
    s = result.sim.stats
    record = {
        "format": RESULT_FORMAT,
        "key": point.key,
        "workload": point.workload,
        "config": point.config_name,
        "scale": point.scale,
        "status": "ok",
        "attempts": attempts,
        "cycles": s.cycles,
        "instructions": s.instructions,
        "ipc": s.ipc,
        "l1_miss_rate": s.l1.miss_rate,
        "avg_demand_latency": s.memory.avg_demand_latency,
        "energy_pj": result.energy.total,
        "engine_events": result.sim.engine_events,
        "stats": s.as_dict(),
    }
    return record


def _failure_record(point: SweepPoint, exc: ReproError, attempts: int,
                    quarantined: bool = True) -> dict:
    """Structured failure row. ``quarantined`` marks failures that resume
    should *skip* rather than retry: deterministic errors and supervisor
    quarantines (a point that failed ``max_attempts`` times in one run).
    Transient failures (an exhausted retry budget) pass ``False`` so the
    next resume re-attempts them.
    """
    return {
        "format": RESULT_FORMAT,
        "key": point.key,
        "workload": point.workload,
        "config": point.config_name,
        "scale": point.scale,
        "status": "failed",
        "attempts": attempts,
        "error": type(exc).__name__,
        "message": str(exc),
        "details": exc.details,
        "quarantined": bool(quarantined),
    }


@contextmanager
def _wall_clock_limit(seconds: Optional[float], key: str):
    """SIGALRM-based per-point timeout (main thread only; no-op elsewhere)."""
    usable = (
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise WatchdogTimeout(
            f"sweep point {key} exceeded wall-clock timeout of {seconds}s",
            details={"kind": "wall-clock", "timeout_s": seconds, "key": key},
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cached_record(registry: Any, point: SweepPoint, provenance: dict
                   ) -> tuple[Optional[dict], bool]:
    """Replayable record for ``point`` from the registry, if one exists.

    The point's identity (workload, config, scheduler, prefetcher, seed,
    scale, GPUConfig hash) is content-hashed exactly as ingestion hashes
    it; on a hit the archived sweep record is returned verbatim, so a
    cache-warm sweep appends byte-identical JSONL lines. Only complete
    ``status == "ok"`` records qualify — failures are never memoised.

    A hit is **hash-verified before it is trusted**: ingestion stamps
    ``data["sweep_record_sha256"]`` next to the archived record, and a
    record whose recomputed hash no longer matches (bit rot, a corrupted
    archive, an injected fault) is rejected with a warning instead of
    being replayed into results. Returns ``(record, rejected)`` —
    ``rejected`` is True when a hit existed but failed verification, so
    the caller can count the forced re-simulation.
    """
    from repro.registry.records import record_sha256, sweep_point_run_id

    run_id = sweep_point_run_id(
        point.workload, point.config_name, point.scale, provenance)
    try:
        hits = registry.history(run_id, limit=1)
    except Exception:
        return None, False  # an unreadable registry must not fail the sweep
    if not hits:
        return None, False
    data = hits[0].get("data") or {}
    record = data.get("sweep_record")
    if not isinstance(record, dict) or record.get("status") != "ok":
        return None, False
    if record.get("key") != point.key:
        _warn_cache_reject(point.key, "archived record key mismatch")
        return None, True
    expected = data.get("sweep_record_sha256")
    if isinstance(expected, str) and record_sha256(record) != expected:
        _warn_cache_reject(point.key, "payload hash mismatch")
        return None, True
    return record, False


def _warn_cache_reject(key: str, reason: str) -> None:
    print(
        f"[resilience] registry memo for {key} rejected ({reason}); "
        "re-simulating",
        file=sys.stderr,
    )


def run_sweep(
    points: Iterable[SweepPoint],
    out_path: str,
    *,
    gpu_config: Optional[GPUConfig] = None,
    resume_from: Optional[str] = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    point_timeout_s: Optional[float] = None,
    max_points: Optional[int] = None,
    sleep: Callable[[float], None] = _default_sleep,
    progress: Optional[Callable[[SweepPoint, dict], None]] = None,
    telemetry: bool = False,
    trace_dir: Optional[str] = None,
    telemetry_window: int = 5_000,
    registry: Optional[Any] = None,
    jobs: int = 1,
    use_cache: bool = True,
    heartbeat_writer: Optional[Any] = None,
    retry_failed: bool = False,
    supervisor: Optional[SupervisorConfig] = None,
) -> SweepSummary:
    """Run every point, persisting each result to ``out_path`` as it lands.

    ``resume_from`` names an earlier (possibly interrupted) store whose
    completed points are skipped; pointing it at ``out_path`` itself makes
    the sweep restartable in place. Failure records marked
    ``"quarantined": true`` (deterministic errors, supervisor
    quarantines) are *also* skipped on resume —
    re-running them would poison the sweep again — and reported via
    ``quarantined_skipped`` / ``quarantined_keys`` in the summary;
    ``retry_failed`` forces them back into the pending set instead.
    ``max_points`` bounds how many points
    are *processed* (simulated or cache-replayed) this invocation (skips
    are free) — useful for smoke tests and incremental fills. ``sleep`` is
    injectable so tests can verify backoff without waiting.

    With ``telemetry`` every simulated point gets a stall-attribution
    breakdown (reconciled exactly against its counters) folded into its
    record; ``trace_dir`` additionally writes one Chrome trace-event JSON
    per point (``<key>.trace.json``, ``|`` replaced by ``_``). Telemetry
    points bypass the runner's memoisation cache by design.

    ``registry`` optionally names a
    :class:`~repro.registry.store.RegistryStore`; every successful point
    is then also ingested as a registry run record (identity-hashed, with
    the same provenance stamp its JSONL record carries). With a registry
    attached and ``use_cache`` (the default), points whose ``run_id`` is
    already archived are replayed verbatim instead of re-simulated —
    ``--no-cache`` at the CLI forces recomputation.

    ``jobs > 1`` spreads the points across the supervised process pool
    (:mod:`repro.experiments.parallel`); completed records stream back and
    are appended strictly in point order, so the JSONL output is
    byte-identical to a serial sweep. A worker that dies has its point
    requeued; a point that keeps killing workers becomes a quarantined
    failure record. All persistence (store, registry) stays in the
    parent. ``heartbeat_writer`` (a
    :class:`~repro.experiments.parallel.ProgressWriter`) merges per-worker
    telemetry heartbeats into one stream when telemetry is enabled.
    ``supervisor`` (a :class:`~repro.resilience.SupervisorConfig`) sets
    the pool's heartbeat deadline and attempt budget.
    """
    points = list(points)
    base_prov = _base_provenance(gpu_config)
    store = ResultsStore(out_path)
    done: dict[str, dict] = {}
    quarantined_resume: dict[str, dict] = {}
    if resume_from:
        carried: list[dict] = []
        for key, record in ResultsStore(resume_from).load().items():
            if record.get("status") == "ok":
                done[key] = record
                carried.append(record)
            elif record.get("quarantined") and not retry_failed:
                quarantined_resume[key] = record
                carried.append(record)
        if os.path.abspath(resume_from) != os.path.abspath(out_path):
            # Merging stores: carry completed (and still-quarantined)
            # points into the new one so out_path alone holds the full
            # sweep at the end.
            for record in carried:
                store.append(record)

    summary = SweepSummary(out_path=out_path, total_points=len(points))
    caching = use_cache and registry is not None

    # Partition into skips and pending work up front; both execution modes
    # then share one in-order flush path.
    pending: list[SweepPoint] = []
    for point in points:
        if point.key in done:
            summary.skipped += 1
        elif point.key in quarantined_resume:
            summary.quarantined_skipped += 1
            summary.quarantined_keys.append(point.key)
        else:
            pending.append(point)
    if max_points is not None:
        pending = pending[:max_points]

    provenances = [_point_provenance(point, base_prov) for point in pending]

    def flush(point: SweepPoint, record: dict, cached: bool) -> None:
        """Persist one completed point and update counters (point order)."""
        store.append(record)
        if cached:
            summary.cache_hits += 1
        else:
            if caching:
                summary.cache_misses += 1
            summary.simulated += 1
            if registry is not None:
                from repro.registry.records import sweep_point_record

                reg_record = sweep_point_record(record)
                if reg_record is not None:
                    registry.put(reg_record)
        done[point.key] = record
        if record["status"] != "ok":
            summary.failed += 1
            summary.failed_keys.append(point.key)
            if record.get("quarantined"):
                summary.quarantined_keys.append(point.key)
        if progress is not None:
            progress(point, record)

    def cache_lookup(point: SweepPoint, provenance: dict) -> Optional[dict]:
        """Verified registry memo lookup, counting rejected hits."""
        cached, rejected = _cached_record(registry, point, provenance)
        if rejected:
            summary.cache_rejected += 1
        return cached

    if jobs > 1 and pending:
        _run_pending_parallel(
            pending, provenances, flush,
            gpu_config=gpu_config, retries=retries, backoff_s=backoff_s,
            point_timeout_s=point_timeout_s,
            telemetry=telemetry or trace_dir is not None,
            trace_dir=trace_dir, telemetry_window=telemetry_window,
            cache_lookup=cache_lookup if caching else None, jobs=jobs,
            heartbeat_writer=heartbeat_writer, supervisor=supervisor,
        )
        return summary

    for point, provenance in zip(pending, provenances):
        if caching:
            cached = cache_lookup(point, provenance)
            if cached is not None:
                flush(point, cached, cached=True)
                continue
        record = _run_point(
            point,
            gpu_config=gpu_config,
            retries=retries,
            backoff_s=backoff_s,
            point_timeout_s=point_timeout_s,
            sleep=sleep,
            telemetry=telemetry or trace_dir is not None,
            trace_dir=trace_dir,
            telemetry_window=telemetry_window,
        )
        record["provenance"] = provenance
        flush(point, record, cached=False)
    return summary


def _run_pending_parallel(
    pending: list[SweepPoint],
    provenances: list[dict],
    flush: Callable[[SweepPoint, dict, bool], None],
    *,
    gpu_config: Optional[GPUConfig],
    retries: int,
    backoff_s: float,
    point_timeout_s: Optional[float],
    telemetry: bool,
    trace_dir: Optional[str],
    telemetry_window: int,
    cache_lookup: Optional[Callable[[SweepPoint, dict], Optional[dict]]],
    jobs: int,
    heartbeat_writer: Optional[Any],
    supervisor: Optional[SupervisorConfig],
) -> None:
    """Fan pending points across a pool, flushing strictly in point order.

    Cache lookups happen in the parent (workers never open the registry);
    completed records from workers are held back in a buffer until every
    earlier point has flushed, which is what keeps the JSONL store
    byte-identical to a serial sweep even though execution completes out
    of order.
    """
    from repro.experiments.parallel import (
        PointTask,
        ProgressWriter,
        run_point_tasks,
    )
    from repro.resilience.supervisor import PointQuarantined

    results: dict[int, tuple[dict, bool]] = {}
    tasks: list[PointTask] = []
    for index, (point, provenance) in enumerate(zip(pending, provenances)):
        cached = (
            cache_lookup(point, provenance)
            if cache_lookup is not None else None
        )
        if cached is not None:
            results[index] = (cached, True)
            continue
        tasks.append(PointTask(
            index=index, point=point, gpu_config=gpu_config,
            retries=retries, backoff_s=backoff_s,
            point_timeout_s=point_timeout_s, telemetry=telemetry,
            trace_dir=trace_dir, telemetry_window=telemetry_window,
        ))

    next_index = 0

    def flush_ready() -> None:
        nonlocal next_index
        while next_index < len(pending) and next_index in results:
            record, cached = results.pop(next_index)
            flush(pending[next_index], record, cached)
            next_index += 1

    for index, payload in run_point_tasks(
        tasks, jobs, supervisor=supervisor,
        heartbeat_writer=(heartbeat_writer or ProgressWriter())
        if telemetry else None,
    ):
        if isinstance(payload, PointQuarantined):
            record = _failure_record(
                pending[index], payload,
                attempts=int(payload.details.get("attempts", 1)),
            )
        else:
            record = payload
        record["provenance"] = provenances[index]
        results[index] = (record, False)
        flush_ready()
    flush_ready()


def _run_point(
    point: SweepPoint,
    *,
    gpu_config: Optional[GPUConfig],
    retries: int,
    backoff_s: float,
    point_timeout_s: Optional[float],
    sleep: Callable[[float], None],
    telemetry: bool = False,
    trace_dir: Optional[str] = None,
    telemetry_window: int = 5_000,
    heartbeat_sink: Optional[Any] = None,
) -> dict:
    """Simulate one point with timeout + bounded retry; never raises
    :class:`ReproError` — failures become records.

    ``heartbeat_sink`` (an interval sink) is attached to the telemetry hub
    when one is built; pool workers use it to stream heartbeats back to
    the parent process.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            hub = None
            if telemetry:
                from repro.telemetry import TelemetryHub

                # One hub per attempt: a hub binds to a single simulator.
                hub = TelemetryHub(
                    window=telemetry_window, trace=trace_dir is not None
                )
                if heartbeat_sink is not None:
                    hub.add_interval_sink(heartbeat_sink)
            with _wall_clock_limit(point_timeout_s, point.key):
                result = run(
                    point.workload,
                    point.config_name,
                    scale=point.scale,
                    gpu_config=gpu_config,
                    telemetry=hub,
                )
            record = _ok_record(point, result, attempts)
            if hub is not None:
                _attach_telemetry(record, point, result, hub, trace_dir)
            return record
        except SimulationError as exc:
            if attempts > retries:
                # Transient by assumption (timeouts, livelocks): a resume —
                # possibly under a healthier config — re-attempts these.
                return _failure_record(point, exc, attempts,
                                       quarantined=False)
            sleep(backoff_s * (2 ** (attempts - 1)))
        except ReproError as exc:
            # Config/workload errors are deterministic; retrying cannot help.
            return _failure_record(point, exc, attempts)


def _attach_telemetry(
    record: dict,
    point: SweepPoint,
    result: RunResult,
    hub,
    trace_dir: Optional[str],
) -> None:
    """Fold the point's stall attribution (and optional trace) into its record."""
    # stall_summary reconciles first — raises InvariantError on drift.
    summary = hub.stall_summary(result.sim.stats)
    record["stalls"] = summary
    record["issue_cycles"] = summary["issue_cycles"]
    record["stall_cycles"] = summary["stall_cycles"]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, point.key.replace("|", "_").replace("/", "-") + ".trace.json"
        )
        hub.trace.write(trace_path)
        record["trace_path"] = trace_path
