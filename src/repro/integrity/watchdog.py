"""Livelock/deadlock watchdog with structured diagnostic dumps.

Progress is defined as *an instruction issuing or a line fill completing*.
A simulation whose clock keeps advancing (event churn, fast-forward jumps)
without either of those for ``stall_cycles`` simulated cycles is livelocked
— e.g. a buggy fill path that keeps re-deferring itself — and is aborted
with :class:`~repro.errors.WatchdogTimeout`. The hard cycle budget
(``GPUConfig.max_cycles``) funnels through the same dump machinery so every
abort carries per-warp status, MSHR occupancy, and DRAM queue depths.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import WatchdogTimeout
from repro.resilience.atomic import atomic_write


class Watchdog:
    """Detects wall-progress without forward progress.

    Holds only plain counters and paths, so it checkpoints along with the
    simulator it guards.
    """

    def __init__(self, stall_cycles: int = 0, dump_dir: Optional[str] = None):
        if stall_cycles < 0:
            raise ValueError("watchdog threshold cannot be negative")
        #: Stall threshold in cycles; 0 disables stall detection (the dump
        #: machinery stays available for cycle-budget aborts).
        self.stall_cycles = stall_cycles
        if dump_dir is None:
            dump_dir = os.environ.get("REPRO_DUMP_DIR") or None
        self.dump_dir = dump_dir
        self._last_signature: Optional[tuple[int, int]] = None
        self._last_progress_cycle = 0

    def observe(self, simulator, now: int) -> None:
        """Record progress at ``now``; raise on a livelocked simulation."""
        if not self.stall_cycles:
            return
        signature = (simulator.stats.instructions, simulator.fills_completed)
        if signature != self._last_signature:
            self._last_signature = signature
            self._last_progress_cycle = now
            return
        stalled = now - self._last_progress_cycle
        if stalled < self.stall_cycles:
            return
        self.abort(
            simulator, now,
            f"no instruction issued and no fill completed for {stalled} "
            f"cycles (threshold {self.stall_cycles})",
        )

    def budget_exceeded(self, simulator, now: int, budget: int) -> None:
        """Abort because the hard cycle budget was exhausted."""
        self.abort(simulator, now, f"exceeded {budget} cycles")

    def abort(self, simulator, now: int, reason: str) -> None:
        """Build the diagnostic dump, persist it, raise WatchdogTimeout."""
        details = simulator.describe(now)
        details["reason"] = reason
        dump_path = self._write_dump(simulator, now, details)
        if dump_path is not None:
            details["dump_path"] = dump_path
        summary = _summarise(details)
        raise WatchdogTimeout(
            f"kernel {simulator.kernel_name!r} {reason} at cycle {now}"
            + (f" [{summary}]" if summary else "")
            + (f" (dump: {dump_path})" if dump_path else ""),
            details=details,
        )

    def _write_dump(self, simulator, now: int, details: dict) -> Optional[str]:
        if self.dump_dir is None:
            return None
        name = f"watchdog-{simulator.kernel_name}-cycle{now}.json"
        path = os.path.join(self.dump_dir, name)
        atomic_write(path, json.dumps(details, indent=2, sort_keys=True,
                                      default=str) + "\n")
        return path


def _summarise(details: dict) -> str:
    """One-line digest of a dump for the exception message."""
    parts = []
    sms = details.get("sms", [])
    blocked = sum(
        1 for sm in sms for w in sm.get("warps", ())
        if not w["finished"] and w["outstanding"]
    )
    unfinished = sum(
        1 for sm in sms for w in sm.get("warps", ()) if not w["finished"]
    )
    if sms:
        parts.append(f"{unfinished} warps unfinished, {blocked} blocked on memory")
    memory = details.get("memory", {})
    mshrs = memory.get("mshrs")
    if mshrs:
        live = sum(m["live"] for m in mshrs)
        cap = sum(m["capacity"] for m in mshrs)
        parts.append(f"MSHRs {live}/{cap}")
    depths = memory.get("dram_queue_depths")
    if depths:
        parts.append(f"max DRAM queue {max(depths)} cycles")
    return "; ".join(parts)
