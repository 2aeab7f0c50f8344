"""Memory request descriptor shared between the pipeline and APRES modules."""

from __future__ import annotations

from typing import NamedTuple


class LoadAccess(NamedTuple):
    """Summary of one executed (dynamic) load, as seen by schedulers/prefetchers.

    An immutable named tuple, built once per load on the LSU feedback path.
    ``primary_addr`` is the byte address requested by the lowest thread ID —
    the address SAP's demand request queue stores (Section IV-B) and the one
    stride detection operates on.
    """

    sm_id: int
    warp_id: int
    pc: int
    primary_addr: int
    #: Line-aligned addresses the load touched after coalescing.
    line_addrs: tuple[int, ...]
    #: Outcome of the primary (first) line: True = L1 hit.
    primary_hit: bool
    cycle: int
