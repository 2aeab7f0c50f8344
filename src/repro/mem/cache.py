"""L1 data cache with MSHRs, prefetch-fill tracking and miss classification.

Counters implement the paper's measurement methodology:

* **Miss classification** (Section III-A): the first-ever miss on a line
  address is *cold*; a miss on a line that was cached before is
  *capacity+conflict*.
* **Hit-after-hit / hit-after-miss** (Section V-C): a hit is continuous if
  the previous demand access to this cache also hit.
* **Early eviction** (Sections III-C, V-D): a prefetch-filled line evicted
  before any demand touched it.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.config import CacheConfig
from repro.mem.mshr import FillCallback, MSHRFile
from repro.mem.tags import LineMeta, TagArray
from repro.stats.counters import CacheStats
from repro.telemetry.events import L1AccessEvent, L1EvictEvent, L1FillEvent, PrefetchDropEvent

#: ``fn(line_addr, now, is_prefetch) -> fill_cycle`` — the L1 miss path.
MissPath = Callable[[int, int, bool], int]

#: ``fn(filler_warp, line_addr)`` — eviction feedback (CCWS victim tags).
EvictionListener = Callable[[int, int], None]


def _ignore_latency(issue_cycle: int, done_cycle: int) -> None:
    """Default latency sink; module-level so simulator state stays picklable."""


class AccessOutcome(enum.Enum):
    """Result of a demand access."""

    HIT = "hit"
    MISS = "miss"
    #: Merged into an in-flight MSHR entry.
    MERGED = "merged"
    #: No MSHR resource; the instruction must replay.
    STALL = "stall"


_HIT = AccessOutcome.HIT


class L1Cache:
    """One SM's L1 data cache."""

    __slots__ = ("_config", "stats", "_tags", "_sets", "_metas", "_line_size",
                 "_num_sets", "_mshrs", "_forward_miss",
                 "_hit_latency", "_seen_lines", "_last_access_hit",
                 "eviction_listener", "stats_latency", "telemetry")

    def __init__(
        self,
        config: CacheConfig,
        stats: CacheStats,
        forward_miss: MissPath,
    ):
        self._config = config
        self.stats = stats
        self._tags = TagArray(config)
        #: The tag array's own dict of touched sets, probed in place by
        #: ``access`` (``(line // line_size) % num_sets``), one call fewer
        #: per access.
        self._sets = self._tags._sets
        #: The interned ``LineMeta`` of each ``(filler_warp, prefetched,
        #: referenced)`` seen, keyed as in :meth:`_meta`.
        self._metas: dict[int, LineMeta] = {}
        self._line_size = config.line_size
        self._num_sets = config.num_sets
        self._mshrs = MSHRFile(config.num_mshrs, config.mshr_merge_limit)
        self._forward_miss = forward_miss
        # Hoisted: read on every hit in the demand path.
        self._hit_latency = config.hit_latency
        #: Every line address ever cached here, for cold-miss classification.
        self._seen_lines: set[int] = set()
        self._last_access_hit: Optional[bool] = None
        self.eviction_listener: Optional[EvictionListener] = None
        #: Hook the subsystem overrides to feed demand-latency counters.
        self.stats_latency: Callable[[int, int], None] = _ignore_latency
        #: Per-SM telemetry proxy (set by the pipeline when tracing).
        self.telemetry = None

    @property
    def hit_latency(self) -> int:
        return self._config.hit_latency

    @property
    def mshr_occupancy(self) -> float:
        return self._mshrs.occupancy_ratio

    @property
    def mshrs(self) -> MSHRFile:
        """The MSHR file (read-only use: integrity checks and diagnostics)."""
        return self._mshrs

    def contains(self, line_addr: int) -> bool:
        return self._tags.probe(line_addr, update_lru=False) is not None

    def in_flight(self, line_addr: int) -> bool:
        return line_addr in self._mshrs

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(
        self,
        line_addr: int,
        warp_id: int,
        now: int,
        on_fill: Optional[FillCallback] = None,
    ) -> tuple[AccessOutcome, Optional[int]]:
        """Demand access by ``warp_id``.

        Returns ``(outcome, ready_cycle)``. ``ready_cycle`` is set for hits
        (data available after the hit latency); for MISS/MERGED the data
        arrives via ``on_fill``; for STALL nothing was committed and the
        access must be retried.
        """
        tel = self.telemetry
        emit = tel is not None and tel.events
        s = self._sets.get((line_addr // self._line_size) % self._num_sets)
        meta = s.pop(line_addr, None) if s is not None else None
        if meta is not None:
            # Hit accounting, inline: see _record_miss for the miss side.
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
            last_hit = self._last_access_hit
            if last_hit:
                stats.hit_after_hit += 1
            elif last_hit is not None:
                stats.hit_after_miss += 1
            self._last_access_hit = True
            if not meta.referenced:
                if meta.prefetched:
                    stats.prefetch_useful += 1
                meta = self._meta(meta.filler_warp, meta.prefetched, True)
            # Re-inserted at the end: the line is now the set's MRU.
            s[line_addr] = meta
            if emit:
                tel.emit(L1AccessEvent(
                    cycle=now, sm=tel.sm_id, line_addr=line_addr, outcome="hit"))
            return _HIT, now + self._hit_latency

        entry = self._mshrs.lookup(line_addr)
        if entry is not None:
            was_prefetch = entry.prefetch_only
            if not self._mshrs.merge_demand(entry, now, on_fill):
                self.stats.reservation_fails += 1
                if emit:
                    tel.emit(L1AccessEvent(
                        cycle=now, sm=tel.sm_id, line_addr=line_addr,
                        outcome="stall"))
                return AccessOutcome.STALL, None
            if was_prefetch:
                self.stats.prefetch_demand_merged += 1
            self.stats.mshr_demand_merges += 1
            self._record_miss(line_addr)
            if emit:
                tel.emit(L1AccessEvent(
                    cycle=now, sm=tel.sm_id, line_addr=line_addr,
                    outcome="merged"))
            return AccessOutcome.MERGED, None

        new_entry = self._mshrs.allocate(line_addr, now, prefetch_only=False)
        if new_entry is None:
            self.stats.reservation_fails += 1
            if emit:
                tel.emit(L1AccessEvent(
                    cycle=now, sm=tel.sm_id, line_addr=line_addr,
                    outcome="stall"))
            return AccessOutcome.STALL, None
        self._mshrs.merge_demand(new_entry, now, on_fill)
        new_entry.filler_warp = warp_id
        self._record_miss(line_addr)
        if emit:
            tel.emit(L1AccessEvent(
                cycle=now, sm=tel.sm_id, line_addr=line_addr, outcome="miss"))
        self._forward_miss(line_addr, now, False)
        return AccessOutcome.MISS, None

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------

    def prefetch(self, line_addr: int, now: int) -> bool:
        """Issue a prefetch; returns True if a fill was actually started."""
        if self._tags.probe(line_addr, update_lru=False) is not None:
            self.stats.prefetch_dropped += 1
            self._drop_prefetch(line_addr, now, "resident")
            return False
        if line_addr in self._mshrs:
            self.stats.prefetch_dropped += 1
            self._drop_prefetch(line_addr, now, "in_flight")
            return False
        entry = self._mshrs.allocate(line_addr, now, prefetch_only=True)
        if entry is None:
            self.stats.prefetch_dropped += 1
            self._drop_prefetch(line_addr, now, "no_mshr")
            return False
        self.stats.prefetch_issued += 1
        self._forward_miss(line_addr, now, True)
        return True

    def _drop_prefetch(self, line_addr: int, now: int, reason: str) -> None:
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(PrefetchDropEvent(
                cycle=now, sm=tel.sm_id, line_addr=line_addr, reason=reason))

    # ------------------------------------------------------------------
    # Fill / store paths
    # ------------------------------------------------------------------

    def fill(self, line_addr: int, now: int) -> None:
        """A line arrived from L2; install it and wake merged requests.

        A line whose MSHR entry still holds no demand is installed as an
        unreferenced prefetch line; if demands merged while in flight the
        line counts as already used (no early eviction possible).
        """
        entry = self._mshrs.release(line_addr)
        prefetch_only = entry.prefetch_only
        issue_cycles = entry.demand_issue_cycles
        # Demands that merged while in flight count as the line's first use.
        meta = self._meta(entry.filler_warp, prefetch_only, bool(issue_cycles))
        if prefetch_only:
            self.stats.prefetch_fills += 1
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(L1FillEvent(
                cycle=now, sm=tel.sm_id, line_addr=line_addr,
                prefetch=prefetch_only))
        victim = self._tags.insert(line_addr, meta)
        if victim is not None:
            self._on_eviction(victim[0], victim[1], now)
        for issue_cycle in issue_cycles:
            self.stats_latency(issue_cycle, now)
        for cb in entry.callbacks:
            cb(now)

    def store(self, line_addr: int, now: int = 0) -> None:
        """Global store: write-evict — invalidate the line if resident."""
        meta = self._tags.invalidate(line_addr)
        if meta is not None:
            self._on_eviction(line_addr, meta, now)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _meta(self, filler_warp: int, prefetched: bool, referenced: bool) -> LineMeta:
        """The one ``LineMeta`` this cache uses for these fields."""
        key = (filler_warp << 2) | (prefetched << 1) | referenced
        meta = self._metas.get(key)
        if meta is None:
            meta = self._metas[key] = LineMeta(filler_warp, prefetched, referenced)
        return meta

    def _record_miss(self, line_addr: int) -> None:
        self.stats.accesses += 1
        self.stats.misses += 1
        if line_addr in self._seen_lines:
            self.stats.capacity_conflict_misses += 1
        else:
            self._seen_lines.add(line_addr)
            self.stats.cold_misses += 1
        self._last_access_hit = False

    def _on_eviction(self, line_addr: int, meta: LineMeta, now: int = 0) -> None:
        self.stats.evictions += 1
        if meta.prefetched and not meta.referenced:
            self.stats.prefetch_early_evicted += 1
        tel = self.telemetry
        if tel is not None and tel.events:
            tel.emit(L1EvictEvent(
                cycle=now, sm=tel.sm_id, line_addr=line_addr,
                prefetched=meta.prefetched, referenced=meta.referenced))
        if self.eviction_listener is not None and meta.filler_warp >= 0:
            self.eviction_listener(meta.filler_warp, line_addr)
