"""Warp Group Table (Section IV-A).

Each entry is a warp bit-vector naming one in-flight group. The paper sizes
the WGT at 3 entries — the number of pipeline stages between issue and
execute — so every in-flight load can have its group parked until the
cache outcome arrives. Entries are invalidated once the group has been
prioritised.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Optional


class WarpGroupTable:
    """Fixed-capacity table of warp groups, FIFO replacement."""

    def __init__(self, num_entries: int, num_warps: int):
        if num_entries < 1:
            raise ValueError("WGT needs at least one entry")
        if num_warps < 1:
            raise ValueError("WGT needs at least one warp")
        self._capacity = num_entries
        self._entries: OrderedDict[int, frozenset[int]] = OrderedDict()
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def insert(self, warps: frozenset[int]) -> int:
        """Store a group; returns its id. Oldest entry is dropped when full.

        Members must lie in ``range(num_warps)``. They are not checked here:
        LAWS builds every group from a Last Load Table of the same size.
        """
        if len(self._entries) >= self._capacity:
            self._entries.popitem(last=False)
        gid = next(self._ids)
        self._entries[gid] = warps
        return gid

    def lookup(self, group_id: int) -> Optional[frozenset[int]]:
        return self._entries.get(group_id)

    def invalidate(self, group_id: int) -> Optional[frozenset[int]]:
        """Remove and return a group (after its prioritisation is applied)."""
        return self._entries.pop(group_id, None)
