"""Set-associative tag array with true-LRU replacement."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.config import CacheConfig


@dataclass(slots=True)
class LineMeta:
    """Per-line bookkeeping attached to each resident tag."""

    #: Warp (local id) whose request filled the line; -1 for prefetch fills.
    filler_warp: int = -1
    #: True if the line was brought in by a prefetch.
    prefetched: bool = False
    #: True once a demand access has touched the line after fill.
    referenced: bool = False


class TagArray:
    """Tags + replacement state of one cache level.

    Lines are keyed by line-aligned byte address. Each set is an
    ``OrderedDict`` from address to :class:`LineMeta`; order encodes
    recency (last item = most recently used). A set is created on its
    first insert, so a large cache that a kernel touches sparsely costs
    one list slot per untouched set.
    """

    __slots__ = ("_config", "_num_sets", "_assoc", "_line", "_sets",
                 "_pow2", "_line_shift", "_set_mask", "_held_prefetch")

    def __init__(self, config: CacheConfig):
        self._config = config
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._line = config.line_size
        self._sets: list[Optional[OrderedDict[int, LineMeta]]] = [
            None
        ] * self._num_sets
        # Power-of-two geometry lets the per-access set index be a
        # shift+mask instead of a divide and a modulo. probe, insert and
        # invalidate compute it inline, saving a call per access.
        line, sets = self._line, self._num_sets
        self._pow2 = line & (line - 1) == 0 and sets & (sets - 1) == 0
        self._line_shift = line.bit_length() - 1
        self._set_mask = sets - 1
        #: Set by the first insert of a prefetched line. Until then no set
        #: can hold an unreferenced prefetched line, so the victim is the
        #: LRU line without scanning the set.
        self._held_prefetch = False

    def probe(self, line_addr: int, update_lru: bool = True) -> Optional[LineMeta]:
        """Return the line's metadata if resident, promoting it to MRU."""
        if self._pow2:
            s = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        else:
            s = self._sets[(line_addr // self._line) % self._num_sets]
        if s is None:
            return None
        meta = s.get(line_addr)
        if meta is not None and update_lru:
            s.move_to_end(line_addr)
        return meta

    def insert(self, line_addr: int, meta: LineMeta) -> Optional[tuple[int, LineMeta]]:
        """Insert a line at MRU; return the evicted ``(addr, meta)`` if any.

        Replacement is LRU with bounded prefetch protection: prefetched
        lines that have not served a demand yet are skipped while they
        occupy at most half the ways, so in-flight prefetch work is not
        thrown away the moment demand traffic sweeps the set — but
        prefetches can never pin a whole set either.
        """
        if meta.prefetched:
            self._held_prefetch = True
        if self._pow2:
            index = (line_addr >> self._line_shift) & self._set_mask
        else:
            index = (line_addr // self._line) % self._num_sets
        s = self._sets[index]
        if s is None:
            s = self._sets[index] = OrderedDict()
        victim: Optional[tuple[int, LineMeta]] = None
        if line_addr in s:
            # Refill of a resident line: replace metadata in place.
            s[line_addr] = meta
            s.move_to_end(line_addr)
            return None
        if len(s) >= self._assoc:
            victim_addr = None
            # Without a prefetched line the LRU line is the victim as is.
            if self._held_prefetch:
                pending = sum(1 for m in s.values() if m.prefetched and not m.referenced)
                if pending <= self._assoc // 2:
                    # Scan is intentionally in OrderedDict recency order (oldest
                    # first = LRU); that order is deterministic, not hash order.
                    victim_addr = next(
                        (a for a, m in s.items() if not (m.prefetched and not m.referenced)),
                        None,
                    )
            if victim_addr is None:
                victim = s.popitem(last=False)
            else:
                victim = (victim_addr, s.pop(victim_addr))
        s[line_addr] = meta
        return victim

    def invalidate(self, line_addr: int) -> Optional[LineMeta]:
        """Drop a line (write-evict stores); return its metadata if present."""
        if self._pow2:
            s = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        else:
            s = self._sets[(line_addr // self._line) % self._num_sets]
        if s is None:
            return None
        return s.pop(line_addr, None)

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def resident_lines(self) -> Iterator[int]:
        """Yield resident line addresses, sorted within each set.

        Consumers treat this as a set, but sorting keeps any serialised
        form (checkpoints, diagnostics) byte-stable across runs.
        """
        for s in self._sets:
            if s is not None:
                yield from sorted(s.keys())
