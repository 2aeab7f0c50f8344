"""Simulation integrity layer: invariant guards, watchdog, checkpointing.

Long sweeps must survive bugs, hangs, and interruptions instead of
silently corrupting results, so every simulation can be made
self-checking (:class:`InvariantChecker`), bounded (:class:`Watchdog`),
and resumable (:mod:`repro.integrity.checkpoint`). The pieces are wired
into :class:`repro.sm.simulator.GPUSimulator` via
``GPUConfig.integrity_interval`` and ``GPUConfig.watchdog_cycles``; the
crash-safe sweep driver in :mod:`repro.experiments.sweep` builds on all
three.
"""

from repro.integrity.checkpoint import (
    dump_simulator,
    load_checkpoint,
    load_simulator,
    save_checkpoint,
)
from repro.integrity.invariants import InvariantChecker
from repro.integrity.watchdog import Watchdog

__all__ = [
    "InvariantChecker",
    "Watchdog",
    "dump_simulator",
    "load_simulator",
    "save_checkpoint",
    "load_checkpoint",
]
