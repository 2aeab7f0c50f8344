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
  handed to SAP (``missed_group``), which may prefetch the other members'
  lines.
  Warps that received a prefetch are then promoted to the head so their
  demands merge into the prefetch MSHRs or hit the prefetched lines.

The queue is one integer priority key per warp (lower issues first), kept
between running bounds ``lo`` and ``hi``. A head move gives the group's
members fresh keys below ``lo``, a tail move fresh keys above ``hi``, each
in the members' current order, so no queue is rebuilt. Moving a group to
the head orders the queue exactly as moving its complement to the tail,
so a move re-keys whichever side is smaller.
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
        #: Priority key per warp: distinct, within ``[_lo, _hi]``, and the
        #: queue is the warps in ascending key order.
        self._key: list[int] = [0]
        self._lo = 0
        self._hi = 0
        self._all: frozenset[int] = frozenset((0,))
        self._llt = LastLoadTable(1)
        self._wgt = WarpGroupTable(self._apres_config.wgt_entries, 1)
        self._finished: set[int] = set()
        #: The group of the last load that missed, for SAP to take: set by
        #: :meth:`notify_load_result`, cleared by SAP when it reads it.
        self.missed_group: Optional[frozenset[int]] = None

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._key = list(range(num_warps))
        self._lo = 0
        self._hi = num_warps - 1
        self._all = frozenset(range(num_warps))
        self._llt = LastLoadTable(num_warps)
        self._wgt = WarpGroupTable(self._apres_config.wgt_entries, num_warps)
        self._finished = set()
        self.missed_group = None

    # ------------------------------------------------------------------
    # Queue manipulation
    # ------------------------------------------------------------------

    @property
    def queue(self) -> tuple[int, ...]:
        """Current priority order (head first); exposed for tests."""
        return tuple(sorted(range(len(self._key)), key=self._key.__getitem__))

    def _move(self, warps: frozenset[int], to_head: bool) -> None:
        """Move a group to the queue head (or tail), keeping the order
        within the group and within the rest of the queue."""
        key = self._key
        n = len(warps)
        if n + n > len(key):
            # The complement moving the other way gives the same order.
            warps = self._all.difference(warps)
            n = len(warps)
            to_head = not to_head
        if to_head:
            k = self._lo = self._lo - n
        else:
            k = self._hi + 1
            self._hi += n
        for w in sorted(warps, key=key.__getitem__):
            key[w] = k
            k += 1
        self.events += 1

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        if len(candidates) < 2:
            return candidates[0][0] if candidates else None
        key = self._key
        chosen = candidates[0][0]
        best = key[chosen]
        for wid, _ in candidates:
            if key[wid] < best:
                best = key[wid]
                chosen = wid
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
            self.missed_group = None
            return
        hit = access.primary_hit
        self._move(stored, hit)
        if hit:
            self.missed_group = None
        else:
            # The warp that just missed (the most stalled member) goes to
            # the very end, which keeps selection rotating fairly when one
            # group spans the whole pool.
            self._hi += 1
            self._key[wid] = self._hi
            self.missed_group = stored
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(SchedGroupEvent(
                cycle=access.cycle,
                sm=tel.sm_id,
                action="head" if hit else "tail",
                warps=tuple(sorted(stored)),
            ))

    def notify_prefetch_targets(self, target_warps: Sequence[int]) -> None:
        if target_warps:
            self._move(frozenset(target_warps), True)

    def notify_warp_finished(self, warp_id: int) -> None:
        self._finished.add(warp_id)

    def check_invariants(self) -> None:
        """Raise :class:`InvariantError` on a duplicate or out-of-bounds key,
        or on an LLT index that disagrees with its entries."""
        from repro.errors import InvariantError

        key = self._key
        if len(set(key)) != len(key) or not all(self._lo <= k <= self._hi for k in key):
            raise InvariantError(
                "LAWS priority keys are not distinct within their bounds",
                details={"invariant": "laws keys", "keys": list(key),
                         "lo": self._lo, "hi": self._hi},
            )
        self._llt.check_invariants()

    # Diagnostics -------------------------------------------------------

    def llpc_of(self, warp_id: int) -> Optional[int]:
        return self._llt.get(warp_id)
