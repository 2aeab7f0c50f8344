"""Windowed interval metrics: time-series over the life of a run.

End-of-run aggregates hide phases: a kernel that streams for its first
half and thrashes for its second reports the same totals as one that
interleaves both. Interval metrics window the counters every
``window`` simulated cycles and emit one JSONL record per window, which
is what makes cache-behaviour claims inspectable over time (and what
drives the CLI heartbeat and the Chrome-trace counter track).

The :data:`INTERVAL_METRICS` registry is the single source of truth for
metric names. Each name resolves to an ``IntervalCollector._metric_<name>``
method, resolved by ``getattr`` at every flush, so a renamed or missing
method fails the first run that emits an interval record.

Windows are aligned to the simulator's ticks: the event-queue
fast-forward can jump the clock past a boundary, in which case the
window is flushed at the first tick after the jump and its
``cycle_end - cycle_start`` span is simply longer than ``window``.
Records always tile the run exactly: the first starts at cycle 0, each
starts where the previous ended, and the final (flushed at completion)
ends at ``stats.cycles``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.cache import L1Cache
    from repro.stats.counters import SimStats
    from repro.telemetry.stalls import StallEngine

#: Default window length in simulated cycles.
DEFAULT_WINDOW = 5_000

#: Registry of interval metrics: name -> what the value means. Every name
#: has a matching ``_metric_<name>`` method on :class:`IntervalCollector`.
INTERVAL_METRICS: dict[str, str] = {
    "ipc": "instructions per cycle within the window",
    "ipc_cum": "instructions per cycle from cycle 0 to the window's end",
    "instructions": "instructions issued within the window",
    "l1_accesses": "L1 demand accesses within the window",
    "l1_miss_rate": "L1 demand miss rate within the window",
    "mshr_occupancy": "mean L1 MSHR occupancy ratio sampled at the window end",
    "prefetch_accuracy": (
        "prefetched lines that served a demand (hit or MSHR merge) over "
        "prefetches issued, within the window"
    ),
    "l2_miss_rate": "L2 miss rate within the window (0.0 without L2 traffic)",
    "stall_frac_mshr_full": (
        "fraction of the window's SM-cycles stalled on mshr_full "
        "(exclusive-cause attribution; 0.0 without a stall engine)"
    ),
    "stall_frac_dram_queue": (
        "fraction of the window's SM-cycles stalled on dram_queue"
    ),
    "stall_frac_l1_pending": (
        "fraction of the window's SM-cycles stalled on l1_pending"
    ),
    "stall_frac_scoreboard": (
        "fraction of the window's SM-cycles stalled on scoreboard"
    ),
    "stall_frac_sched_throttle": (
        "fraction of the window's SM-cycles stalled on sched_throttle"
    ),
    "stall_frac_no_warp": (
        "fraction of the window's SM-cycles stalled on no_warp"
    ),
}


class IntervalCollector:
    """Accumulates counter deltas per window and emits records to sinks."""

    def __init__(
        self,
        stats: "SimStats",
        l1s: Sequence["L1Cache"],
        window: int = DEFAULT_WINDOW,
        num_sms: int = 1,
        *,
        stalls: Optional["StallEngine"] = None,
    ):
        if window < 1:
            raise ValueError("interval window must be >= 1 cycle")
        self.window = window
        self._stats = stats
        self._l1s = l1s
        self._num_sms = num_sms
        #: Memory-side (L2/DRAM) counters.
        self._memory = getattr(stats, "memory", None)
        #: Stall engine for the exclusive-cause fraction metrics; a
        #: collector built without one reports those fractions as 0.0.
        self._stalls = stalls
        self._sinks: list[Any] = []
        self.records_emitted = 0
        self._start = 0
        self._next_boundary = window
        self._span = 0
        # Cumulative-counter snapshot at the current window's start.
        self._instructions = 0
        self._accesses = 0
        self._misses = 0
        self._prefetch_issued = 0
        self._prefetch_useful = 0
        self._l2_accesses = 0
        self._l2_hits = 0
        self._stall_by_cause: tuple[int, ...] = ()
        self._issue_cycles = 0

    def add_sink(self, sink: Any) -> None:
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Simulator-facing hooks
    # ------------------------------------------------------------------

    def on_tick(self, now: int) -> None:
        """Flush the window when the clock has reached its boundary."""
        if now < self._next_boundary:
            return
        self._flush(now)
        self._next_boundary = now + self.window

    def finish(self, final_cycle: int) -> None:
        """Flush the residual partial window at the end of the run."""
        if final_cycle > self._start:
            self._flush(final_cycle)

    # ------------------------------------------------------------------
    # Window computation
    # ------------------------------------------------------------------

    def _flush(self, end: int) -> None:
        self._span = end - self._start
        record: dict[str, Any] = {"cycle_start": self._start, "cycle_end": end}
        for name in INTERVAL_METRICS:
            record[name] = getattr(self, f"_metric_{name}")()
        self._snapshot(end)
        self.records_emitted += 1
        for sink in self._sinks:
            sink.on_interval(record)

    def _snapshot(self, end: int) -> None:
        stats = self._stats
        self._start = end
        self._instructions = stats.instructions
        self._accesses = stats.l1.accesses
        self._misses = stats.l1.misses
        self._prefetch_issued = stats.l1.prefetch_issued
        self._prefetch_useful = (
            stats.l1.prefetch_useful + stats.l1.prefetch_demand_merged
        )
        memory = self._memory
        if memory is not None:
            self._l2_accesses = memory.l2_accesses
            self._l2_hits = memory.l2_hits
        stalls = self._stalls
        if stalls is not None:
            self._stall_by_cause = tuple(stalls.by_cause().values())
            self._issue_cycles = stalls.issue_cycles

    # Metric methods — one per INTERVAL_METRICS entry (lint-enforced). ---

    def _metric_ipc(self) -> float:
        sm_cycles = self._span * self._num_sms
        delta = self._stats.instructions - self._instructions
        return delta / sm_cycles if sm_cycles else 0.0

    def _metric_ipc_cum(self) -> float:
        end = self._start + self._span
        sm_cycles = end * self._num_sms
        return self._stats.instructions / sm_cycles if sm_cycles else 0.0

    def _metric_instructions(self) -> int:
        return self._stats.instructions - self._instructions

    def _metric_l1_accesses(self) -> int:
        return self._stats.l1.accesses - self._accesses

    def _metric_l1_miss_rate(self) -> float:
        accesses = self._stats.l1.accesses - self._accesses
        misses = self._stats.l1.misses - self._misses
        return misses / accesses if accesses else 0.0

    def _metric_mshr_occupancy(self) -> float:
        if not self._l1s:
            return 0.0
        return sum(l1.mshr_occupancy for l1 in self._l1s) / len(self._l1s)

    def _metric_prefetch_accuracy(self) -> float:
        issued = self._stats.l1.prefetch_issued - self._prefetch_issued
        useful = (
            self._stats.l1.prefetch_useful
            + self._stats.l1.prefetch_demand_merged
            - self._prefetch_useful
        )
        return useful / issued if issued else 0.0

    def _metric_l2_miss_rate(self) -> float:
        memory = self._memory
        if memory is None:
            return 0.0
        accesses = memory.l2_accesses - self._l2_accesses
        hits = memory.l2_hits - self._l2_hits
        return (accesses - hits) / accesses if accesses else 0.0

    def _stall_frac(self, index: int) -> float:
        """One cause's share of the window's issue+stall SM-cycles.

        Normalising by the window's *observed* issue+stall deltas (rather
        than ``span * num_sms``) keeps the fractions exact at flush ticks,
        where the boundary tick's charges land before the flush.
        """
        stalls = self._stalls
        if stalls is None:
            return 0.0
        by = tuple(stalls.by_cause().values())
        prev = self._stall_by_cause or (0,) * len(by)
        delta = by[index] - prev[index]
        total = sum(by) - sum(prev)
        total += stalls.issue_cycles - self._issue_cycles
        return delta / total if total else 0.0

    # Indices follow STALL_CAUSES declaration order (the stable contract;
    # see repro/telemetry/stalls.py).

    def _metric_stall_frac_mshr_full(self) -> float:
        return self._stall_frac(0)

    def _metric_stall_frac_dram_queue(self) -> float:
        return self._stall_frac(1)

    def _metric_stall_frac_l1_pending(self) -> float:
        return self._stall_frac(2)

    def _metric_stall_frac_scoreboard(self) -> float:
        return self._stall_frac(3)

    def _metric_stall_frac_sched_throttle(self) -> float:
        return self._stall_frac(4)

    def _metric_stall_frac_no_warp(self) -> float:
        return self._stall_frac(5)


def validate_interval_record(record: Any) -> list[str]:
    """Schema check for one interval record (tests and the CI smoke job)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"interval record is {type(record).__name__}, expected object"]
    for key in ("cycle_start", "cycle_end"):
        if not isinstance(record.get(key), int):
            problems.append(f"missing or non-integer {key!r}")
    if not problems and record["cycle_end"] <= record["cycle_start"]:
        problems.append(
            f"empty window: cycle_end {record['cycle_end']} <= "
            f"cycle_start {record['cycle_start']}"
        )
    for name in INTERVAL_METRICS:
        value = record.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metric {name!r} missing or non-numeric")
    extras = set(record) - set(INTERVAL_METRICS) - {"cycle_start", "cycle_end"}
    for extra in sorted(extras):
        problems.append(f"unknown field {extra!r} (not in INTERVAL_METRICS)")
    return problems
