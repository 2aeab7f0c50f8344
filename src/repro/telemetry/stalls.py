"""Stall attribution: charge every non-issuing SM cycle to one cause.

APRES's argument is temporal — LAWS/SAP change *when* warps stall on L1
misses — so end-of-run aggregates alone cannot show whether a mechanism
worked. This engine gives every SM cycle exactly one label:

* the SM issued an instruction (an *issue cycle*), or
* it stalled, and the stall is charged to exactly one cause from
  :data:`STALL_CAUSES`.

Attribution is exclusive by a fixed priority (structural hazards first,
then memory, then dependencies), so the per-cause totals are a partition
of the idle cycles and reconcile *exactly* against ``SimStats``::

    issue_cycles                 == stats.instructions
    sum(stalls per cause)        == stats.idle_cycles
    issue_cycles + stall_cycles  == stats.cycles * num_sms

:meth:`StallEngine.reconcile` enforces those identities; the telemetry
test suite runs it over multiple workloads and schedulers, and
``python -m repro run --telemetry`` prints the result. Fast-forwarded (event-queue
skipped) cycles are charged to the cause each SM exhibited at the tick
before the jump — nothing can change an SM's state between ticks, so the
cause provably persists across the skipped span.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import InvariantError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.dram import DRAMModel
    from repro.sm.pipeline import SMCore
    from repro.stats.counters import SimStats

#: Exclusive stall causes, in attribution-priority order (first match
#: wins). The registry is the single source of truth for cause names:
#: reports, JSON exports and the CLI table all iterate it.
STALL_CAUSES: dict[str, str] = {
    "mshr_full": (
        "a ready warp's memory instruction was gated because the LSU "
        "replay queue is full — L1 MSHR reservations are failing"
    ),
    "dram_queue": (
        "all unfinished warps wait on memory while DRAM partitions are "
        "saturated — bandwidth queuing, not latency, is the bottleneck"
    ),
    "l1_pending": (
        "all unfinished warps wait on in-flight L1 fills (miss latency, "
        "no DRAM bandwidth backlog)"
    ),
    "scoreboard": (
        "warps exist but each waits out its dependent-issue latency "
        "(ALU chains / store retire)"
    ),
    "sched_throttle": (
        "ready warps were offered but the scheduling policy declined to "
        "issue (CCWS/MASCAR-style throttling)"
    ),
    "no_warp": "every warp of this SM has retired its last instruction",
}

_MSHR_FULL = 0
_DRAM_QUEUE = 1
_L1_PENDING = 2
_SCOREBOARD = 3
_SCHED_THROTTLE = 4
_NO_WARP = 5

_CAUSE_NAMES = tuple(STALL_CAUSES)


class StallEngine:
    """Per-SM issue/stall accounting for one simulation run."""

    def __init__(self, num_sms: int, dram: "DRAMModel"):
        n = len(_CAUSE_NAMES)
        self._stalls = [[0] * n for _ in range(num_sms)]
        self._issues = [0] * num_sms
        #: Cause recorded at the most recent tick, per SM; fast-forward
        #: charges skipped cycles to it. ``no_warp`` is a safe default:
        #: a skip can only follow a tick in which every SM recorded.
        self._last_cause = [_NO_WARP] * num_sms
        self._dram = dram
        #: Memoised DRAM-saturation probe for the current tick.
        self._dram_probe: tuple[int, bool] = (-1, False)

    # ------------------------------------------------------------------
    # Hooks (called from the SM pipeline via the telemetry proxy)
    # ------------------------------------------------------------------

    def on_issue(self, sm_id: int) -> None:
        self._issues[sm_id] += 1

    def on_throttle(self, sm_id: int, now: int) -> None:
        """The scheduler declined every offered candidate this cycle."""
        self._charge(sm_id, _SCHED_THROTTLE)

    def on_idle(self, sm_id: int, sm: "SMCore", now: int, mshr_gated: int) -> None:
        """No candidate could be offered; classify why (exclusive)."""
        if mshr_gated:
            self._charge(sm_id, _MSHR_FULL)
            return
        waiting_mem = False
        waiting_dep = False
        for warp in sm.warps:
            if warp.finished:
                continue
            if warp.outstanding:
                waiting_mem = True
                break
            waiting_dep = True
        if waiting_mem:
            cause = _DRAM_QUEUE if self._dram_saturated(now) else _L1_PENDING
        elif waiting_dep:
            cause = _SCOREBOARD
        elif sm.done:
            cause = _NO_WARP
        else:
            # Replay queue holds loads of unfinished warps only; with every
            # warp context finished this cannot happen, but never misfile.
            cause = _L1_PENDING
        self._charge(sm_id, cause)

    def on_skip(self, skipped: int) -> None:
        """The clock fast-forwarded ``skipped`` cycles with every SM stalled."""
        for sm_id, cause in enumerate(self._last_cause):
            self._stalls[sm_id][cause] += skipped

    def _charge(self, sm_id: int, cause: int) -> None:
        self._stalls[sm_id][cause] += 1
        self._last_cause[sm_id] = cause

    def _dram_saturated(self, now: int) -> bool:
        probe_cycle, busy = self._dram_probe
        if probe_cycle != now:
            busy = self._dram.busy_partitions(now) > 0
            self._dram_probe = (now, busy)
        return busy

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def issue_cycles(self) -> int:
        return sum(self._issues)

    @property
    def stall_cycles(self) -> int:
        return sum(sum(row) for row in self._stalls)

    def by_cause(self) -> dict[str, int]:
        """Aggregate stall cycles per cause (all SMs)."""
        return {
            name: sum(row[i] for row in self._stalls)
            for i, name in enumerate(_CAUSE_NAMES)
        }

    def per_sm(self) -> list[dict[str, Any]]:
        """Per-SM breakdown, JSON-ready."""
        return [
            {
                "sm": sm_id,
                "issue_cycles": self._issues[sm_id],
                "stalls": {
                    name: row[i] for i, name in enumerate(_CAUSE_NAMES)
                },
            }
            for sm_id, row in enumerate(self._stalls)
        ]

    def report(self, stats: "SimStats", num_sms: int) -> dict[str, Any]:
        """Full attribution report including the SimStats reconciliation."""
        by_cause = self.by_cause()
        total_sm_cycles = stats.cycles * num_sms
        return {
            "schema": "repro-telemetry-stalls",
            "schema_version": 1,
            "causes": dict(STALL_CAUSES),
            "by_cause": by_cause,
            "issue_cycles": self.issue_cycles,
            "stall_cycles": self.stall_cycles,
            "per_sm": self.per_sm(),
            "reconciliation": {
                "cycles": stats.cycles,
                "num_sms": num_sms,
                "total_sm_cycles": total_sm_cycles,
                "instructions": stats.instructions,
                "idle_cycles": stats.idle_cycles,
                "issue_matches_instructions": self.issue_cycles == stats.instructions,
                "stalls_match_idle": self.stall_cycles == stats.idle_cycles,
                "partition_complete": (
                    self.issue_cycles + self.stall_cycles == total_sm_cycles
                ),
            },
        }

    def reconcile(self, stats: "SimStats", num_sms: int) -> dict[str, Any]:
        """Assert the attribution partitions SimStats' cycle accounting.

        Returns the :meth:`report`; raises :class:`InvariantError` when
        any identity is off — drift here means an issue/stall path gained
        a branch the engine does not see.
        """
        report = self.report(stats, num_sms)
        rec = report["reconciliation"]
        if not (
            rec["issue_matches_instructions"]
            and rec["stalls_match_idle"]
            and rec["partition_complete"]
        ):
            raise InvariantError(
                "stall attribution does not reconcile with SimStats: "
                f"issue={self.issue_cycles} vs instructions={stats.instructions}, "
                f"stalls={self.stall_cycles} vs idle={stats.idle_cycles}, "
                f"total={self.issue_cycles + self.stall_cycles} vs "
                f"SM-cycles={rec['total_sm_cycles']}",
                details={"invariant": "stall attribution", "report": report},
            )
        return report
