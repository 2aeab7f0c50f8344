"""Persistent results registry: run records, provenance, fidelity scorecard.

Every number this repository produces — a single ``repro run``, a sweep
point, a regenerated paper figure — can be ingested into one persistent
store, the append-only log ``bench_results/registry/records.jsonl``.
Records are keyed by a content hash of their *identity* (what
was simulated: workload, configuration, scheduler, prefetcher, seed,
scale, GPU-config hash) and carry full *provenance* (git SHA, code
version, host, wall time) plus a flattened metric dict, so any two
records — across commits, machines and months — can be diffed
counter-by-counter (``python -m repro diff``).

On top of the store sits the paper-fidelity scorecard
(:mod:`repro.registry.scorecard`): golden per-app numbers from the APRES
paper (:mod:`repro.experiments.paper_data`) are compared against fresh or
stored reproduction data, yielding MAPE, geomean-speedup delta and
Spearman rank correlation per figure (``python -m repro scorecard``), and
a committed baseline of those metrics gates CI against silent drift.
"""

from repro.registry.records import (
    RECORD_FORMAT,
    RunRecord,
    config_hash,
    content_hash,
    figure_record,
    flatten_metrics,
    headline_metrics,
    run_record,
    scorecard_record,
    sweep_point_record,
    workload_seed,
)
from repro.registry.provenance import collect_provenance, git_sha
from repro.registry.store import DEFAULT_REGISTRY_DIR, RegistryStore
from repro.registry.diffing import DiffReport, DiffRow, diff_metrics
from repro.registry.scorecard import (
    geomean,
    mape,
    score_figure,
    scorecard,
    spearman,
)

__all__ = [
    "RECORD_FORMAT",
    "RunRecord",
    "config_hash",
    "content_hash",
    "figure_record",
    "flatten_metrics",
    "headline_metrics",
    "run_record",
    "scorecard_record",
    "sweep_point_record",
    "workload_seed",
    "collect_provenance",
    "git_sha",
    "DEFAULT_REGISTRY_DIR",
    "RegistryStore",
    "DiffReport",
    "DiffRow",
    "diff_metrics",
    "geomean",
    "mape",
    "score_figure",
    "scorecard",
    "spearman",
]
