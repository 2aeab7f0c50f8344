"""Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO-45).

CCWS detects *lost intra-warp locality*: each warp owns a small victim tag
array (VTA) recording lines that warp brought into L1 and later lost. A
miss that hits the warp's VTA means the warp would have hit with less
contention, so its lost-locality score (LLS) is bumped. Warps are ranked
by score and the lowest-scored warps lose the right to issue loads until
the cumulative score fits under a fixed cutoff — effectively shrinking the
set of warps competing for the cache.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.mem.victim import VictimTagArray
from repro.sched.base import IssueCandidate, WarpScheduler


class CCWSScheduler(WarpScheduler):
    """Lost-locality-scored load throttling with greedy-then-oldest ordering."""

    name = "ccws"

    #: Every warp's resting score; the cutoff is ``num_warps * BASE_SCORE``.
    BASE_SCORE = 100

    def __init__(
        self,
        lld_gain: int = 300,
        decay_per_cycle: float = 0.25,
        score_cap: int = 600,
        min_active: int = 18,
        vta_sets: int = 8,
        vta_assoc: int = 8,
    ):
        super().__init__()
        self._gain = lld_gain
        self._decay = decay_per_cycle
        self._cap = score_cap
        self._min_active = min_active
        self._vta_sets = vta_sets
        self._vta_assoc = vta_assoc
        self._vtas: list[VictimTagArray] = []
        self._scores: list[float] = []
        self._score_cycle: list[int] = []
        self._finished: set[int] = set()
        self._next = 0
        self._allowed_cache: Optional[set[int]] = None
        self._allowed_cache_cycle = -1
        #: Cycles the allowed-set cache stays valid absent score changes.
        self._refresh_interval = 32

    def reset(self, num_warps: int) -> None:
        super().reset(num_warps)
        self._vtas = [
            VictimTagArray(self._vta_sets, self._vta_assoc) for _ in range(num_warps)
        ]
        self._scores = [float(self.BASE_SCORE)] * num_warps
        self._score_cycle = [0] * num_warps
        self._finished = set()
        self._next = 0
        self._allowed_cache = None
        self._allowed_cache_cycle = -1

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def score(self, warp_id: int, cycle: int) -> float:
        """Current (lazily decayed) lost-locality score of a warp."""
        if warp_id in self._finished:
            return 0.0
        raw = self._scores[warp_id] - self._decay * (cycle - self._score_cycle[warp_id])
        return max(float(self.BASE_SCORE), raw)

    def _settle(self, warp_id: int, cycle: int) -> None:
        self._scores[warp_id] = self.score(warp_id, cycle)
        self._score_cycle[warp_id] = cycle

    def load_allowed_warps(self, cycle: int) -> set[int]:
        """Warps currently eligible to issue loads (cached between changes).

        Warps are sorted by score (descending); warps are admitted while
        the cumulative score stays within ``num_warps * BASE_SCORE``. With
        no lost locality every warp is admitted.
        """
        if (
            self._allowed_cache is not None
            and cycle - self._allowed_cache_cycle < self._refresh_interval
        ):
            return self._allowed_cache
        allowed = self._compute_allowed(cycle)
        self._allowed_cache = allowed
        self._allowed_cache_cycle = cycle
        return allowed

    def _compute_allowed(self, cycle: int) -> set[int]:
        # Each live warp's score once, ranked by (score descending, warp id).
        ranked = sorted(
            (-self.score(w, cycle), w)
            for w in range(self._num_warps)
            if w not in self._finished
        )
        cutoff = self._num_warps * self.BASE_SCORE
        allowed: set[int] = set()
        total = 0.0
        for neg_score, wid in ranked:
            total -= neg_score
            if total > cutoff and len(allowed) >= self._min_active:
                break
            allowed.add(wid)
        return allowed

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        if not candidates:
            return None
        allowed_loads = self.load_allowed_warps(cycle)
        self.events += 1
        # Round-robin among eligible warps: CCWS gates *which* warps may
        # issue loads; within that set it keeps the baseline's fairness.
        # Candidates arrive in ascending warp order, so the circular scan
        # from the pointer is: the first eligible id at or past it, else
        # the first eligible id.
        start = self._next
        chosen = None
        for c in candidates:
            wid = c.warp_id
            if c.is_mem and wid not in allowed_loads:
                continue
            if wid >= start:
                chosen = wid
                break
            if chosen is None:
                chosen = wid
        if chosen is not None:
            self._next = (chosen + 1) % self._num_warps
        return chosen

    def notify_load_result(self, access) -> None:
        if access.primary_hit:
            return
        wid = access.warp_id
        line = access.line_addrs[0]
        if self._vtas[wid].probe(line):
            self._settle(wid, access.cycle)
            self._scores[wid] = min(self._scores[wid] + self._gain, float(self._cap))
            self._allowed_cache = None
            self.events += 1

    def notify_eviction(self, filler_warp: int, line_addr: int) -> None:
        if 0 <= filler_warp < len(self._vtas):
            self._vtas[filler_warp].record_eviction(line_addr)
            self.events += 1

    def notify_warp_finished(self, warp_id: int) -> None:
        # A finished warp should not hold score (and cache quota) hostage.
        self._finished.add(warp_id)
        self._allowed_cache = None
