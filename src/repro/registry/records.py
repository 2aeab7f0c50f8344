"""Registry record model: identity hashing and metric flattening.

A record's *identity* is the minimal description of what was simulated —
workload, configuration (split into scheduler and prefetcher), seed,
scale and the hash of the :class:`~repro.config.GPUConfig`. The identity
is content-hashed into the record's ``run_id``, so the same logical
experiment always lands under the same id regardless of when, where or
from which commit it ran; the store keeps every occurrence, which is what
makes ``repro diff <run-id>`` (current vs previous occurrence) work.

*Metrics* are a flat ``dotted.key -> number`` dict derived from the full
nested counter tree, so two records can be compared counter-by-counter
without either side knowing the other's schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

#: Bump when the record layout changes incompatibly.
RECORD_FORMAT = 1

#: Characters of the sha256 hex digest used as the run id. 16 hex chars
#: (64 bits) keeps collision odds negligible at any realistic store size
#: while staying shell-friendly.
RUN_ID_LEN = 16


def content_hash(identity: Mapping[str, Any]) -> str:
    """Stable hash of a record identity (order-insensitive, canonical JSON)."""
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:RUN_ID_LEN]


def record_sha256(record: Mapping[str, Any]) -> str:
    """Full sha256 of a record's canonical JSON (memo-verification hash).

    Ingestion stamps this next to every archived sweep record
    (``data["sweep_record_sha256"]``); replay recomputes it before
    trusting a cache hit, so a corrupted archive entry — still valid
    JSON, wrong numbers — is detected instead of replayed into results.
    """
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_hash(gpu_config: Any) -> str:
    """Content hash of a GPUConfig (any frozen dataclass works)."""
    if dataclasses.is_dataclass(gpu_config) and not isinstance(gpu_config, type):
        payload: Any = dataclasses.asdict(gpu_config)
    else:
        payload = repr(gpu_config)
    return content_hash({"gpu_config": payload})


def workload_seed(spec: Any) -> int:
    """Fold a workload spec's per-load generator seeds into one integer.

    The suite bakes one seed per address generator into each
    :class:`~repro.workloads.spec.WorkloadSpec`; this collapses them (plus
    the structural repr, which pins strides and footprints) into a single
    stable integer for record identities.
    """
    seeds = []
    for load in getattr(spec, "loads", ()) or ():
        generator = getattr(load, "generator", None) or getattr(load, "gen", None)
        seed = getattr(generator, "seed", None)
        if isinstance(seed, int):
            seeds.append(seed)
    canonical = json.dumps(seeds) if seeds else repr(spec)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


def flatten_metrics(value: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts/lists/dataclasses into ``dotted.key -> number``.

    Only numeric leaves survive (bools and strings are identity/metadata,
    not metrics). List elements are keyed by index.
    """
    out: dict[str, float] = {}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, Mapping):
        for key, sub in value.items():
            sub_prefix = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(sub, sub_prefix))
    elif isinstance(value, (list, tuple)):
        for index, sub in enumerate(value):
            sub_prefix = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten_metrics(sub, sub_prefix))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        out[prefix or "value"] = float(value)
    return out


#: Key fragments that mark a figure's headline aggregates.
_HEADLINE_MARKERS = ("GMEAN", "MEAN", "total")


def headline_metrics(value: Any, limit: int = 24) -> dict[str, float]:
    """The headline slice of a payload's metrics (geomeans, means, totals).

    Used to seed the compact ``bench_results/BENCH_<name>.json`` trajectory
    files: small enough to diff in review, stable enough to chart over the
    git history. Falls back to the first ``limit`` flattened metrics when a
    payload has no aggregate keys.
    """
    flat = flatten_metrics(value)
    headline = {
        key: val
        for key, val in flat.items()
        if any(marker in key for marker in _HEADLINE_MARKERS)
    }
    if headline:
        return dict(sorted(headline.items()))
    return dict(sorted(flat.items())[:limit])


@dataclass(frozen=True)
class RunRecord:
    """One registry entry: identity, metrics, payload, provenance."""

    run_id: str
    kind: str  # "run" | "figure" | "scorecard"
    name: str
    identity: dict
    metrics: dict
    data: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    stalls: Optional[dict] = None
    wall_time_s: Optional[float] = None
    format: int = RECORD_FORMAT

    def as_dict(self) -> dict:
        return {
            "format": self.format,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "identity": self.identity,
            "metrics": self.metrics,
            "data": self.data,
            "provenance": self.provenance,
            "stalls": self.stalls,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            run_id=payload["run_id"],
            kind=payload["kind"],
            name=payload["name"],
            identity=dict(payload.get("identity") or {}),
            metrics=dict(payload.get("metrics") or {}),
            data=dict(payload.get("data") or {}),
            provenance=dict(payload.get("provenance") or {}),
            stalls=payload.get("stalls"),
            wall_time_s=payload.get("wall_time_s"),
            format=int(payload.get("format", RECORD_FORMAT)),
        )


def _record(kind: str, name: str, identity: dict, metrics: dict, *,
            data: Optional[dict] = None, stalls: Optional[dict] = None,
            wall_time_s: Optional[float] = None) -> RunRecord:
    from repro.registry.provenance import collect_provenance

    identity = {"kind": kind, **identity}
    return RunRecord(
        run_id=content_hash(identity),
        kind=kind,
        name=name,
        identity=identity,
        metrics=metrics,
        data=data or {},
        provenance=collect_provenance(),
        stalls=stalls,
        wall_time_s=wall_time_s,
    )


def run_record(result: Any, scale: float, gpu_config: Any, *,
               seed: Optional[int] = None, stalls: Optional[dict] = None,
               wall_time_s: Optional[float] = None) -> RunRecord:
    """Registry record for one :class:`~repro.experiments.runner.RunResult`."""
    from repro.experiments.configs import CONFIGS
    from repro.workloads.suite import workload

    spec = CONFIGS.get(result.config_name)
    if seed is None:
        seed = workload_seed(workload(result.workload))
    identity = {
        "workload": result.workload,
        "config": result.config_name,
        "scheduler": spec.scheduler if spec else result.config_name,
        "prefetcher": spec.prefetcher if spec else "none",
        "seed": seed,
        "scale": scale,
        "gpu_config": config_hash(gpu_config),
    }
    stats = result.sim.stats
    metrics = flatten_metrics(stats.as_dict())
    metrics["ipc"] = stats.ipc
    metrics["energy_pj"] = result.energy.total
    return _record(
        "run",
        f"{result.workload}|{result.config_name}",
        identity,
        metrics,
        data={"engine_events": result.sim.engine_events},
        stalls=stalls,
        wall_time_s=wall_time_s,
    )


def sweep_point_identity(
    workload: str,
    config: str,
    scale: float,
    provenance: Mapping[str, Any],
) -> dict:
    """Identity dict of one sweep point (shared by ingest and memo lookup).

    ``provenance`` is the per-point provenance stamp the sweep driver
    computes (scheduler, prefetcher, seed, config_hash); building the
    identity from it on both the write side (:func:`sweep_point_record`)
    and the read side (:func:`sweep_point_run_id`) guarantees a cache
    lookup hashes to exactly the id an earlier ingest stored under.
    """
    return {
        "workload": workload,
        "config": config,
        "scheduler": provenance.get("scheduler", config),
        "prefetcher": provenance.get("prefetcher", "none"),
        "seed": provenance.get("seed", 0),
        "scale": scale,
        "gpu_config": provenance.get("config_hash", ""),
    }


def sweep_point_run_id(
    workload: str,
    config: str,
    scale: float,
    provenance: Mapping[str, Any],
) -> str:
    """The ``run_id`` a completed sweep point would be ingested under."""
    identity = {"kind": "run",
                **sweep_point_identity(workload, config, scale, provenance)}
    return content_hash(identity)


def sweep_point_record(record: Mapping[str, Any]) -> Optional[RunRecord]:
    """Registry record built from one completed sweep JSONL record.

    Returns None for failure records — a failed point has no metrics worth
    indexing (its diagnosis lives in the sweep store). The full JSONL
    record rides along in ``data["sweep_record"]`` so a later sweep can
    replay the point verbatim from the registry (run memoization) instead
    of re-simulating it.
    """
    if record.get("status") != "ok":
        return None
    provenance = record.get("provenance") or {}
    identity = sweep_point_identity(
        record["workload"], record["config"], record["scale"], provenance)
    metrics = flatten_metrics(record.get("stats") or {})
    for key in ("ipc", "energy_pj"):
        if isinstance(record.get(key), (int, float)):
            metrics[key] = float(record[key])
    return _record(
        "run",
        f"{record['workload']}|{record['config']}",
        identity,
        metrics,
        data={"sweep_key": record.get("key"),
              "engine_events": record.get("engine_events"),
              "sweep_record": dict(record),
              "sweep_record_sha256": record_sha256(record)},
        stalls=record.get("stalls"),
    )


def figure_record(name: str, payload: Any, scale: float,
                  apps: Optional[Sequence[str]] = None) -> RunRecord:
    """Registry record for one regenerated figure/table payload."""
    from repro.experiments.export import to_jsonable

    jsonable = to_jsonable(payload)
    identity = {
        "figure": name,
        "scale": scale,
        "apps": sorted(apps) if apps else None,
    }
    return _record(
        "figure", name, identity, flatten_metrics(jsonable),
        data={"figure": name, "payload": jsonable},
    )


def scorecard_record(payload: Mapping[str, Any]) -> RunRecord:
    """Registry record for one scorecard evaluation."""
    identity = {
        "scale": payload.get("scale"),
        "apps": payload.get("apps"),
        "figures": sorted(payload.get("figures") or {}),
    }
    return _record(
        "scorecard", "scorecard", identity,
        flatten_metrics(payload.get("figures") or {}),
        data=dict(payload),
    )
