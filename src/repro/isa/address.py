"""Per-lane address generation for memory instructions.

Address generators are the knob that lets synthetic workloads reproduce the
per-static-load behaviour of Table I in the paper: broadcast loads give the
high-locality (#L/#R near 0) class, strided loads give the large-footprint
striding class, and irregular loads give the graph-style access patterns of
BFS/MUM.

All generators are deterministic functions of ``(warp, iteration, lane)``;
re-running a simulation reproduces the exact same address stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.config import WARP_SIZE


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a cheap, stateless, well-distributed integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _run_lines(
    start: int, lanes: int, element_bytes: int, line_size: int
) -> tuple[int, ...]:
    """Lines of an ascending per-lane run whose lanes may skip lines.

    Only elements wider than a line can skip one; the strided and
    indirect generators coalesce the usual case, an aligned range of
    lines, in place.
    """
    return tuple(
        dict.fromkeys(
            (start + lane * element_bytes) // line_size * line_size
            for lane in range(lanes)
        )
    )


class AddressGenerator(abc.ABC):
    """Maps ``(global warp id, iteration)`` to per-lane byte addresses."""

    @abc.abstractmethod
    def addresses(self, warp: int, iteration: int) -> list[int]:
        """Return one byte address per lane for this dynamic instance."""

    def primary_address(self, warp: int, iteration: int) -> int:
        """Address requested by the lowest thread ID (what SAP's DRQ stores)."""
        return self.addresses(warp, iteration)[0]

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        """``(primary address, unique line addresses)`` for this instance.

        Equivalent to coalescing :meth:`addresses`, but overridable so
        generators with known structure can skip materialising the
        per-lane list on the issue hot path. The line order must match
        :func:`repro.mem.coalescer.coalesce` on the per-lane stream
        (lowest lane's segment first). The lines come as a tuple, which
        the pipeline keeps as is.
        """
        addrs = self.addresses(warp, iteration)
        return addrs[0], tuple(
            dict.fromkeys(a - a % line_size for a in addrs)
        )


@dataclass(frozen=True)
class BroadcastAddress(AddressGenerator):
    """All lanes of all warps read the same (small) region.

    Models the high-locality load class: a per-iteration scalar or small
    table shared across warps. ``region_bytes`` bounds the footprint; the
    address advances by ``element_bytes`` per iteration and wraps.
    """

    base: int
    region_bytes: int = 4096
    element_bytes: int = 4
    lanes: int = WARP_SIZE

    def addresses(self, warp: int, iteration: int) -> list[int]:
        addr = self.base + (iteration * self.element_bytes) % self.region_bytes
        return [addr] * self.lanes

    def primary_address(self, warp: int, iteration: int) -> int:
        return self.base + (iteration * self.element_bytes) % self.region_bytes

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        addr = self.base + (iteration * self.element_bytes) % self.region_bytes
        return addr, (addr - addr % line_size,)


@dataclass(frozen=True)
class StridedAddress(AddressGenerator):
    """Array indexed by thread ID: the dominant GPU access pattern.

    ``addr(lane) = base + warp*warp_stride + iteration*iter_stride +
    lane*element_bytes``, wrapped inside ``footprint_bytes``. With 4-byte
    elements a warp's 32 lanes cover exactly one 128-byte line, so the load
    coalesces to a single request and the *inter-warp* stride seen by a
    PC-indexed prefetcher is ``warp_stride`` — the quantity Table I reports.

    ``wrap_bytes`` (if set) wraps the *iteration* component so each warp
    re-walks a private region of that size — the KMeans pattern where every
    thread repeatedly traverses its own points.
    """

    base: int
    warp_stride: int
    iter_stride: int = 0
    element_bytes: int = 4
    footprint_bytes: int = 1 << 40
    wrap_bytes: int = 0
    lanes: int = WARP_SIZE

    def addresses(self, warp: int, iteration: int) -> list[int]:
        start = self._start(warp, iteration)
        return [start + lane * self.element_bytes for lane in range(self.lanes)]

    def primary_address(self, warp: int, iteration: int) -> int:
        return self._start(warp, iteration)

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        # _start and the line range in one frame: this runs on every issue.
        iter_off = iteration * self.iter_stride
        if self.wrap_bytes:
            iter_off %= self.wrap_bytes
        start = self.base + (warp * self.warp_stride + iter_off) % self.footprint_bytes
        element = self.element_bytes
        if element > line_size:
            return start, _run_lines(start, self.lanes, element, line_size)
        # The lanes cover every line from the first address's to the last's.
        first = start - start % line_size
        last = start + (self.lanes - 1) * element
        last -= last % line_size
        if last == first:
            return start, (first,)
        return start, tuple(range(first, last + line_size, line_size))

    def _start(self, warp: int, iteration: int) -> int:
        iter_off = iteration * self.iter_stride
        if self.wrap_bytes:
            iter_off %= self.wrap_bytes
        offset = warp * self.warp_stride + iter_off
        return self.base + offset % self.footprint_bytes


@dataclass(frozen=True)
class IrregularAddress(AddressGenerator):
    """Data-dependent gather over a footprint with a shared hot set.

    Models graph workloads (BFS, MUM): each lane hashes to a pseudo-random
    element. With probability ``hot_fraction`` the access falls in a small
    persistent hot region of ``hot_bytes`` — the paper's high-locality
    class, loads that "access only a small range of memory space"
    (Section I). Remaining accesses are cold gathers over
    ``footprint_bytes``. ``lines_per_warp`` throttles divergence: lanes
    are binned so a warp touches at most that many distinct lines.

    With ``private_block_bytes`` set, each warp's hot accesses stay inside
    its own block of that size — *intra-warp* locality, the reuse class
    CCWS's victim tags detect and throttling recovers. Otherwise the hot
    region is shared by all warps (inter-warp locality).
    """

    base: int
    footprint_bytes: int
    hot_bytes: int = 8192
    hot_fraction: float = 0.5
    lines_per_warp: int = 4
    private_block_bytes: int = 0
    seed: int = 1
    element_bytes: int = 4
    lanes: int = WARP_SIZE

    def addresses(self, warp: int, iteration: int) -> list[int]:
        # Lanes sharing a bucket hash identically, so one address per
        # bucket suffices (``lines_per_warp`` of them, not ``lanes``).
        out: list[int] = []
        last_bucket = -1
        addr = 0
        for lane in range(self.lanes):
            bucket = lane * self.lines_per_warp // self.lanes
            if bucket != last_bucket:
                addr = self._bucket_address(warp, iteration, bucket)
                last_bucket = bucket
            out.append(addr)
        return out

    def primary_address(self, warp: int, iteration: int) -> int:
        return self._bucket_address(warp, iteration, 0)

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        # One address per bucket, in lane order. With 0 < lpw <= lanes the
        # lanes' buckets ``lane * lpw // lanes`` are exactly ``range(lpw)``;
        # otherwise walk the lanes (a repeated bucket re-adds its line).
        lanes = self.lanes
        lpw = self.lines_per_warp
        buckets = (range(lpw) if 0 < lpw <= lanes
                   else [lane * lpw // lanes for lane in range(lanes)])
        # _bucket_address, with its per-instance and per-call terms hoisted.
        hot_cut = int(self.hot_fraction * 256)
        key = (self.seed << 48) ^ (warp << 28) ^ (iteration << 8)
        base = self.base
        element = self.element_bytes
        if self.private_block_bytes:
            hot_base = base + warp * self.private_block_bytes
            hot_elems = max(1, self.private_block_bytes // element)
        else:
            hot_base = base
            hot_elems = max(1, self.hot_bytes // element)
        cold_elems = max(1, self.footprint_bytes // element)
        primary = 0
        lines: dict[int, None] = {}
        for bucket in buckets:
            h = _mix64(key ^ bucket)
            if (h & 0xFF) < hot_cut:
                addr = hot_base + (h >> 8) % hot_elems * element
            else:
                addr = base + (h >> 8) % cold_elems * element
            if bucket == 0:
                primary = addr
            lines[addr - addr % line_size] = None
        return primary, tuple(lines)

    def _bucket_address(self, warp: int, iteration: int, bucket: int) -> int:
        hot_cut = int(self.hot_fraction * 256)
        h = _mix64((self.seed << 48) ^ (warp << 28) ^ (iteration << 8) ^ bucket)
        if (h & 0xFF) < hot_cut:
            if self.private_block_bytes:
                block = self.private_block_bytes
                elem = (h >> 8) % max(1, block // self.element_bytes)
                return self.base + warp * block + elem * self.element_bytes
            elem = (h >> 8) % max(1, self.hot_bytes // self.element_bytes)
        else:
            elem = (h >> 8) % max(1, self.footprint_bytes // self.element_bytes)
        return self.base + elem * self.element_bytes


@dataclass(frozen=True)
class IndirectAddress(AddressGenerator):
    """Strided walk whose target is permuted within a window.

    Models index-array-driven accesses (SPMV rows): mostly streaming but
    with short-range shuffling, which defeats naive next-line prefetching
    while keeping a dominant inter-warp stride.
    """

    base: int
    warp_stride: int
    window_bytes: int = 2048
    iter_stride: int = 0
    footprint_bytes: int = 1 << 40
    seed: int = 1
    element_bytes: int = 4
    lanes: int = WARP_SIZE

    def addresses(self, warp: int, iteration: int) -> list[int]:
        start = self._start(warp, iteration)
        return [start + lane * self.element_bytes for lane in range(self.lanes)]

    def primary_address(self, warp: int, iteration: int) -> int:
        return self._start(warp, iteration)

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        # _start and the line range in one frame, as in StridedAddress.
        jitter = _mix64((self.seed << 40) ^ (warp << 20) ^ iteration) % self.window_bytes
        raw = warp * self.warp_stride + iteration * self.iter_stride
        raw += jitter - self.window_bytes // 2
        start = self.base + raw % self.footprint_bytes
        element = self.element_bytes
        if element > line_size:
            return start, _run_lines(start, self.lanes, element, line_size)
        first = start - start % line_size
        last = start + (self.lanes - 1) * element
        last -= last % line_size
        if last == first:
            return start, (first,)
        return start, tuple(range(first, last + line_size, line_size))

    def _start(self, warp: int, iteration: int) -> int:
        offset = warp * self.warp_stride + iteration * self.iter_stride
        jitter = _mix64((self.seed << 40) ^ (warp << 20) ^ iteration) % self.window_bytes
        jitter -= self.window_bytes // 2
        raw = offset + jitter
        return self.base + raw % self.footprint_bytes
