"""Greedy-Then-Oldest scheduling."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sched.base import IssueCandidate, WarpScheduler


class GTOScheduler(WarpScheduler):
    """Keep issuing the same warp until it stalls, then fall back to the oldest.

    Greedy runs concentrate one warp's working set in time, which trims
    inter-warp cache interference relative to LRR (Rogers et al., MICRO-45).
    """

    name = "gto"

    def __init__(self) -> None:
        super().__init__()
        self._current: Optional[int] = None

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._current = None

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        # Candidates arrive in ascending warp order: the first is the oldest.
        if not candidates:
            return None
        current = self._current
        if current is not None:
            for c in candidates:
                if c.warp_id == current:
                    return current
        oldest = candidates[0].warp_id
        self._current = oldest
        return oldest

    def notify_warp_finished(self, warp_id: int) -> None:
        if self._current == warp_id:
            self._current = None
