"""Last Load Table (Section IV-A).

One entry per warp holding the PC of the last long-latency (global) load
that warp issued. Warps sharing the same LLPC executed the same load last,
so — since warps run the same kernel code — they are expected to execute
the *next* load at roughly the same point soon. That is the grouping signal
LAWS uses.

Besides the per-warp list, the table keeps an ``llpc → warps`` index,
maintained by :meth:`update`, so group formation reads one entry instead of
searching the whole table on every load.
"""

from __future__ import annotations

from typing import Optional


class LastLoadTable:
    """Warp-indexed table of last-load PCs."""

    def __init__(self, num_warps: int):
        if num_warps < 1:
            raise ValueError("LLT needs at least one warp")
        self._llpc: list[Optional[int]] = [None] * num_warps
        #: LLPC -> the warps whose entry holds it (never an empty set).
        self._by_llpc: dict[Optional[int], set[int]] = {None: set(range(num_warps))}

    def __len__(self) -> int:
        return len(self._llpc)

    def get(self, warp_id: int) -> Optional[int]:
        """LLPC of a warp; ``None`` until the warp issues its first load."""
        return self._llpc[warp_id]

    def update(self, warp_id: int, pc: int) -> None:
        old = self._llpc[warp_id]
        if old == pc:
            return
        self._llpc[warp_id] = pc
        by_llpc = self._by_llpc
        peers = by_llpc[old]
        peers.discard(warp_id)
        if not peers:
            del by_llpc[old]
        if pc in by_llpc:
            by_llpc[pc].add(warp_id)
        else:
            by_llpc[pc] = {warp_id}

    def peers(self, warp_id: int) -> set[int]:
        """The warps sharing ``warp_id``'s LLPC, itself included.

        The table's own index entry: callers must not mutate it.
        """
        return self._by_llpc[self._llpc[warp_id]]

    def check_invariants(self) -> None:
        """Raise :class:`InvariantError` if the index disagrees with the table."""
        from repro.errors import InvariantError

        expected: dict[Optional[int], set[int]] = {}
        for w, pc in enumerate(self._llpc):
            expected.setdefault(pc, set()).add(w)
        if self._by_llpc != expected:
            raise InvariantError(
                "LLT llpc index disagrees with its per-warp entries",
                details={"invariant": "llt index", "llpc": list(self._llpc)},
            )
