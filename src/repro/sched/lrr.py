"""Loose Round-Robin — the paper's baseline scheduler."""

from __future__ import annotations

from bisect import bisect_left
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
        # ``(start,)`` sorts before every candidate of warp ``start``.
        if not candidates:
            return None
        i = bisect_left(candidates, (self._next,))
        wid = candidates[i if i < len(candidates) else 0].warp_id
        self._next = (wid + 1) % self._num_warps
        return wid
