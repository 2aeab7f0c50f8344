"""Loose Round-Robin — the paper's baseline scheduler."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sched.base import IssueCandidate, WarpScheduler


class LRRScheduler(WarpScheduler):
    """Equal priority for all warps, scanned circularly from the last issuer.

    All ready warps get a turn before any warp gets a second one, which
    makes every warp reach long-latency loads at roughly the same time —
    the behaviour Section VI blames for memory contention.
    """

    name = "lrr"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._next = 0

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        # Candidates arrive in ascending warp order, so the circular scan
        # from the pointer is: the first id at or past it, else the first.
        if not candidates:
            return None
        start = self._next
        wid = candidates[0].warp_id
        for c in candidates:
            if c.warp_id >= start:
                wid = c.warp_id
                break
        self._next = (wid + 1) % self._num_warps
        return wid
