"""Failure injection, detection and recovery for the experiment layer.

Long parallel simulation campaigns are only trustworthy when failures are
*detected, attributed and recovered deterministically*. This package is
that layer:

* :mod:`repro.resilience.faults` — a seeded, deterministic fault injector
  (:class:`~repro.resilience.faults.FaultPlan`) threaded through the sweep
  driver, the process-pool engine and the registry store behind
  zero-overhead hook points (one ``is None`` test when disarmed).
* :mod:`repro.resilience.atomic` — write-temp/fsync/rename full-file
  writes and self-healing ``O_APPEND`` single-syscall line appends, so a
  torn write can never persist into a store or the registry.
* :mod:`repro.resilience.supervisor` — the process pool behind every
  ``--jobs N`` path: crashed workers (and, with a heartbeat deadline,
  hung ones) are killed and their points requeued with capped
  exponential backoff and deterministic jitter, poisoned points are
  quarantined after N attempts, a point that raises is quarantined at
  once (never requeued), and a pool that keeps dying degrades
  gracefully to in-parent serial execution.
* :mod:`repro.resilience.fsck` — registry self-healing: detect truncated
  JSONL tails, run-id and payload-hash mismatches and duplicate records;
  quarantine bad entries, restore restorable ones from a sweep store, and
  rewrite the log atomically.
* :mod:`repro.resilience.chaos` — the end-to-end proof: run a sweep under
  a fault schedule and assert the final store and registry are
  byte-identical to a fault-free serial run.
"""

from __future__ import annotations

from repro.resilience.atomic import append_line, atomic_write
from repro.resilience.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.resilience.supervisor import PointQuarantined, SupervisorConfig

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "PointQuarantined",
    "SupervisorConfig",
    "append_line",
    "atomic_write",
]
