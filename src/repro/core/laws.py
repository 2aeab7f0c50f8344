"""LAWS: Locality Aware Warp Scheduler (Section IV-A).

LAWS keeps warps in a priority queue and always issues the first ready
warp from the head — an advanced greedy policy that naturally runs a small
leading pack. Warps that last issued the *same* static load (equal LLPC in
the Last Load Table) form a group: they will execute the next load at the
same PC soon, and static loads behave consistently across warps
(Section III-B). When a grouped load's outcome arrives from the LSU:

* **hit** — the load has locality; the whole group is moved to the queue
  head so its members access the (still-resident) lines back to back;
* **miss** — the load is streaming; the group is moved to the tail, and
  the group is handed to SAP, which may prefetch the other members' lines.
  Warps that received a prefetch are then promoted to the head so their
  demands merge into the prefetch MSHRs or hit the prefetched lines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import APRESConfig
from repro.core.llt import LastLoadTable
from repro.core.wgt import WarpGroupTable
from repro.mem.request import LoadAccess
from repro.sched.base import IssueCandidate, WarpScheduler
from repro.telemetry.events import SchedGroupEvent


class LAWSScheduler(WarpScheduler):
    """Priority-queue warp scheduling driven by per-load cache outcomes."""

    name = "laws"

    def __init__(self, apres_config: APRESConfig | None = None):
        super().__init__()
        self._apres_config = apres_config or APRESConfig()
        self._queue: list[int] = []
        self._llt = LastLoadTable(1)
        self._wgt = WarpGroupTable(self._apres_config.wgt_entries, 1)
        self._pending_group: Optional[tuple[frozenset[int], LoadAccess]] = None
        self._finished: set[int] = set()
        #: ``select``'s scratch bitmap of this cycle's candidates; all False
        #: between calls.
        self._ready: list[bool] = [False]

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._queue = list(range(num_warps))
        self._llt = LastLoadTable(num_warps)
        self._wgt = WarpGroupTable(self._apres_config.wgt_entries, num_warps)
        self._pending_group = None
        self._finished = set()
        self._ready = [False] * num_warps

    # ------------------------------------------------------------------
    # Queue manipulation
    # ------------------------------------------------------------------

    @property
    def queue(self) -> tuple[int, ...]:
        """Current priority order (head first); exposed for tests."""
        return tuple(self._queue)

    def _split(self, warps: frozenset[int]) -> tuple[list[int], list[int]]:
        """One pass over the queue: (members of ``warps``, the rest), each
        in queue order."""
        picked: list[int] = []
        rest: list[int] = []
        add_picked = picked.append
        add_rest = rest.append
        for w in self._queue:
            if w in warps:
                add_picked(w)
            else:
                add_rest(w)
        return picked, rest

    def _move_to_head(self, warps: frozenset[int]) -> None:
        # Groups hold this SM's warp ids and the queue holds each id once, so
        # a group as long as the queue is the whole queue and keeps its order.
        if len(warps) < len(self._queue):
            picked, rest = self._split(warps)
            picked += rest
            self._queue = picked
        self.events += 1

    def _move_to_tail(self, warps: frozenset[int], last: Optional[int] = None) -> None:
        """Demote a group; ``last`` (the warp that just missed — the most
        stalled member) goes to the very end, which keeps selection
        rotating fairly when one group spans the whole pool."""
        if len(warps) < len(self._queue):
            picked, rest = self._split(warps)
            rest += picked
            self._queue = rest
        if last is not None and last in warps:
            self._queue.remove(last)
            self._queue.append(last)
        self.events += 1

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        if len(candidates) < 2:
            return candidates[0].warp_id if candidates else None
        ready = self._ready
        for c in candidates:
            ready[c.warp_id] = True
        chosen = None
        for wid in self._queue:
            if ready[wid]:
                chosen = wid
                break
        for c in candidates:
            ready[c.warp_id] = False
        return chosen

    def notify_load_result(self, access: LoadAccess) -> None:
        """LSU feedback: form the group, then prioritise it by outcome."""
        wid = access.warp_id
        # The live warps sharing this warp's LLPC, and the warp itself.
        group = frozenset(self._llt.peers(wid))
        if self._finished:
            group = group.difference(self._finished).union((wid,))
        self._llt.update(wid, access.pc)
        gid = self._wgt.insert(group)
        self.events += 1

        stored = self._wgt.invalidate(gid)
        if stored is None:
            # Evicted by WGT pressure before the outcome arrived; no action.
            return
        if access.primary_hit:
            self._move_to_head(stored)
            self._pending_group = None
        else:
            self._move_to_tail(stored, last=wid)
            self._pending_group = (stored, access)
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(SchedGroupEvent(
                cycle=access.cycle,
                sm=tel.sm_id,
                action="head" if access.primary_hit else "tail",
                warps=tuple(sorted(stored)),
            ))

    def take_pending_group(self, access: LoadAccess) -> Optional[frozenset[int]]:
        """Hand the missed group to SAP (one-shot, matched to the access)."""
        if self._pending_group is None:
            return None
        group, pending_access = self._pending_group
        if pending_access is not access:
            return None
        self._pending_group = None
        return group

    def notify_prefetch_targets(self, target_warps: Sequence[int]) -> None:
        if target_warps:
            self._move_to_head(frozenset(target_warps))

    def notify_warp_finished(self, warp_id: int) -> None:
        self._finished.add(warp_id)

    def check_invariants(self) -> None:
        self._llt.check_invariants()

    # Diagnostics -------------------------------------------------------

    def llpc_of(self, warp_id: int) -> Optional[int]:
        return self._llt.get(warp_id)
