"""Warp-scheduler interface.

Every cycle the SM pipeline offers the scheduler the set of issue-ready
warps (with a flag saying whether each warp's next instruction is a memory
operation, so throttling policies like CCWS/MASCAR can gate loads without
gating arithmetic). The load-store unit feeds back per-load cache outcomes
— the signal LAWS builds its groups on — and the L1 reports evictions for
CCWS's victim tags.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Optional, Sequence

from repro.mem.cache import L1Cache
from repro.mem.request import LoadAccess


class IssueCandidate(NamedTuple):
    """A warp that could issue this cycle."""

    warp_id: int
    #: True if the warp's next instruction is a load or store.
    is_mem: bool


class WarpScheduler(abc.ABC):
    """Base class for issue schedulers.

    Subclasses override :meth:`select`; the notification hooks default to
    no-ops. The pipeline binds a hook when it builds the SM, and only if
    the subclass overrides it, so a hook left as the no-op costs nothing.
    ``events`` counts bookkeeping operations for the energy model.
    """

    name = "base"

    def __init__(self) -> None:
        self.events = 0
        self._num_warps = 0
        self._l1: Optional[L1Cache] = None
        #: Per-SM telemetry proxy (set by the pipeline when tracing).
        self.telemetry = None

    def reset(self, num_warps: int) -> None:
        """(Re)initialise state for an SM with ``num_warps`` warps."""
        self._num_warps = num_warps

    def attach_l1(self, l1: L1Cache) -> None:
        """Give occupancy-sensitive policies (MASCAR) a view of the L1."""
        self._l1 = l1

    @abc.abstractmethod
    def select(self, candidates: Sequence[IssueCandidate], cycle: int) -> Optional[int]:
        """Pick the warp to issue this cycle, or ``None`` to stay idle.

        ``candidates`` is in ascending ``warp_id`` order. It is usually the
        SM's live ready list itself, not a copy: a scheduler must neither
        mutate it nor keep a reference to it past this call. The SM builds
        its candidate objects once and reuses them every cycle.
        """

    # ------------------------------------------------------------------
    # Feedback hooks
    # ------------------------------------------------------------------

    def notify_issue(self, warp_id: int, is_mem: bool, cycle: int) -> None:
        """An instruction from ``warp_id`` was issued."""

    def notify_load_result(self, access: LoadAccess) -> None:
        """LSU feedback: a load's primary request hit or missed L1."""

    def notify_eviction(self, filler_warp: int, line_addr: int) -> None:
        """L1 evicted a line that ``filler_warp`` brought in."""

    def notify_mem_complete(self, warp_id: int, cycle: int) -> None:
        """All outstanding memory requests of ``warp_id`` completed."""

    def notify_prefetch_targets(self, target_warps: Sequence[int]) -> None:
        """The prefetcher issued prefetches on behalf of these warps."""

    def notify_warp_finished(self, warp_id: int) -> None:
        """``warp_id`` retired its last instruction."""

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on inconsistent
        internal state (read-only; run by ``SMCore.check_invariants``)."""
