"""SAP: Scheduling Aware Prefetching (Section IV-B).

SAP fires only when a grouped load *misses* L1. The Prefetch Table (PT)
keeps, per static load PC, the warp ID and address of the load's previous
execution plus the stride computed from the two most recent executions.
The inter-warp stride is re-computed for the current miss; only if it
confirms the stored value does SAP generate one prefetch per other warp in
the group at ``miss_addr + (warp_delta * stride)``. The prefetched warp IDs
are fed back to LAWS so those warps are prioritised — the demand either
merges into the prefetch's MSHR entry or hits the freshly filled line
before contention can evict it.

In addition to the paper's inter-warp group prefetch, this implementation
runs a *per-warp* stream detector (the per-warp stride half of Lee et
al.'s many-thread-aware prefetcher, which the paper's SAP subsumes): when
the issuing warp's own stride through a static load repeats, its next
addresses are prefetched ahead of the warp's dependent-issue stalls. See
DESIGN.md for why this extension is needed in this substrate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.config import APRESConfig
from repro.core.laws import LAWSScheduler
from repro.mem.request import LoadAccess
from repro.prefetch.base import Prefetcher
from repro.telemetry.events import SAPDecisionEvent


@dataclass
class PTEntry:
    """Prefetch Table entry: PC-keyed load history (Figure 9)."""

    last_warp: int
    last_addr: int
    stride: Optional[int] = None


class SAPPrefetcher(Prefetcher):
    """Group-targeted inter-warp stride prefetcher coupled to LAWS."""

    name = "sap"

    def __init__(
        self,
        laws: LAWSScheduler,
        apres_config: APRESConfig | None = None,
        self_degree: int = 2,
        stream_entries: int = 256,
    ):
        super().__init__()
        cfg = apres_config or APRESConfig()
        self._laws = laws
        self._pt_capacity = cfg.pt_entries
        self._wq_capacity = cfg.wq_entries
        self._drq_capacity = cfg.drq_entries
        self._pt: OrderedDict[int, PTEntry] = OrderedDict()
        #: Per-(PC, warp) stream detector for self-prefetch.
        self._self_degree = self_degree
        self._stream_capacity = stream_entries
        self._streams: OrderedDict[tuple[int, int], PTEntry] = OrderedDict()

    def reset(self, num_warps: int) -> None:
        self._pt.clear()
        self._streams.clear()

    def observe_load(self, access: LoadAccess) -> list[tuple[int, Optional[int]]]:
        """Prefetch candidates for a missed load, as ``(addr, target_warp)``."""
        if access.primary_hit:
            return []
        self.events += 1
        # LAWS left the missed group for us; take it.
        laws = self._laws
        group = laws.missed_group
        laws.missed_group = None
        out = self._self_prefetch(access)
        out += self._group_prefetch(access, group)
        return out

    def _group_prefetch(
        self, access: LoadAccess, group: Optional[frozenset[int]]
    ) -> list[tuple[int, int]]:
        """The paper's inter-warp prefetch for the missed group (Figure 9)."""
        wid = access.warp_id
        pc = access.pc
        addr = access.primary_addr
        entry = self._pt.get(pc)
        if entry is None:
            self._insert(pc, PTEntry(wid, addr))
            return []
        self._pt.move_to_end(pc)

        warp_delta = wid - entry.last_warp
        if not warp_delta:
            # Re-execution by the same warp: the warp-ID-normalised stride
            # is undefined (Section III-B divides by the warp-ID delta), so
            # the entry keeps its anchor and no prefetch fires.
            return []
        # Stride per warp-ID step between the two most recent executions.
        delta = addr - entry.last_addr
        stride = None if delta % warp_delta else delta // warp_delta
        confirmed = stride is not None and stride == entry.stride and stride != 0
        if stride is not None:
            entry.stride = stride
        entry.last_warp = wid
        entry.last_addr = addr
        targets: list[int] = []
        if confirmed and group:
            # The Demand Request Queue holds only the lowest-thread request
            # of the missing warp; one prefetch per other group member.
            targets = [w for w in sorted(group) if w != wid]
            del targets[min(self._wq_capacity, self._drq_capacity):]
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(SAPDecisionEvent(
                cycle=access.cycle,
                sm=tel.sm_id,
                pc=pc,
                stride=stride,
                confirmed=confirmed,
                num_targets=len(targets),
            ))
        return [(addr + (w - wid) * stride, w) for w in targets]

    def _self_prefetch(self, access: LoadAccess) -> list[tuple[int, int]]:
        """Per-warp stream prefetch along the issuing warp's own stride."""
        wid = access.warp_id
        addr = access.primary_addr
        key = (access.pc, wid)
        entry = self._streams.get(key)
        if entry is None:
            if len(self._streams) >= self._stream_capacity:
                self._streams.popitem(last=False)
            self._streams[key] = PTEntry(wid, addr)
            return []
        self._streams.move_to_end(key)
        stride = addr - entry.last_addr
        confirmed = stride == entry.stride and stride != 0
        entry.stride = stride
        entry.last_addr = addr
        if not confirmed:
            return []
        return [(addr + k * stride, wid) for k in range(1, self._self_degree + 1)]

    def _insert(self, pc: int, entry: PTEntry) -> None:
        if self._pt_capacity <= 0:
            return  # table disabled (ablations)
        if len(self._pt) >= self._pt_capacity:
            self._pt.popitem(last=False)
        self._pt[pc] = entry

    def stride_for(self, pc: int) -> Optional[int]:
        """Currently tracked stride of a static load (diagnostics/tests)."""
        entry = self._pt.get(pc)
        return entry.stride if entry else None
