"""Address generators: determinism, bounds, stride structure."""

from hypothesis import example, given, settings, strategies as st

from repro.config import WARP_SIZE
from repro.isa.address import (
    BroadcastAddress,
    IndirectAddress,
    IrregularAddress,
    StridedAddress,
)
from repro.mem.coalescer import coalesce

GB = 1 << 30

warps = st.integers(min_value=0, max_value=200)
iters = st.integers(min_value=0, max_value=500)


class TestBroadcast:
    def test_all_lanes_same_address(self):
        gen = BroadcastAddress(GB, region_bytes=4096)
        addrs = gen.addresses(3, 7)
        assert len(addrs) == WARP_SIZE
        assert len(set(addrs)) == 1

    def test_warp_invariant(self):
        gen = BroadcastAddress(GB, region_bytes=4096)
        assert gen.addresses(0, 5) == gen.addresses(40, 5)

    def test_wraps_inside_region(self):
        gen = BroadcastAddress(GB, region_bytes=256, element_bytes=4)
        for i in range(200):
            addr = gen.primary_address(0, i)
            assert GB <= addr < GB + 256

    def test_advances_per_iteration(self):
        gen = BroadcastAddress(GB, region_bytes=4096, element_bytes=4)
        assert gen.primary_address(0, 1) - gen.primary_address(0, 0) == 4

    @given(warps, iters)
    def test_primary_matches_lane0(self, w, i):
        gen = BroadcastAddress(GB, region_bytes=4096)
        assert gen.primary_address(w, i) == gen.addresses(w, i)[0]


class TestStrided:
    def test_interwarp_stride(self):
        gen = StridedAddress(GB, warp_stride=4352)
        assert gen.primary_address(5, 0) - gen.primary_address(4, 0) == 4352

    def test_iteration_stride(self):
        gen = StridedAddress(GB, warp_stride=0, iter_stride=128)
        assert gen.primary_address(0, 3) - gen.primary_address(0, 2) == 128

    def test_lanes_are_consecutive_elements(self):
        gen = StridedAddress(GB, warp_stride=128, element_bytes=4)
        addrs = gen.addresses(0, 0)
        assert addrs == [GB + 4 * lane for lane in range(WARP_SIZE)]

    def test_one_line_when_elements_are_4_bytes(self):
        gen = StridedAddress(GB, warp_stride=128, element_bytes=4)
        addrs = gen.addresses(7, 3)
        lines = {a // 128 for a in addrs}
        assert len(lines) == 1

    def test_negative_stride_wraps_into_footprint(self):
        fp = 1 << 20
        gen = StridedAddress(GB, warp_stride=-4096, footprint_bytes=fp)
        for w in range(100):
            addr = gen.primary_address(w, 0)
            assert GB <= addr < GB + fp

    def test_wrap_bytes_bounds_iteration_component(self):
        gen = StridedAddress(GB, warp_stride=2048, iter_stride=128, wrap_bytes=1024)
        base = gen.primary_address(3, 0)
        seen = {gen.primary_address(3, i) for i in range(100)}
        assert all(base <= a < base + 1024 for a in seen)
        assert len(seen) == 8  # 1024 / 128 distinct offsets

    def test_wrap_preserves_interwarp_stride(self):
        gen = StridedAddress(GB, warp_stride=4352, iter_stride=128, wrap_bytes=1024)
        for i in range(20):
            delta = gen.primary_address(8, i) - gen.primary_address(7, i)
            assert delta == 4352

    @given(warps, iters)
    def test_deterministic(self, w, i):
        gen = StridedAddress(GB, warp_stride=512, iter_stride=96)
        assert gen.addresses(w, i) == gen.addresses(w, i)

    @given(warps, iters)
    def test_inside_footprint(self, w, i):
        fp = 1 << 22
        gen = StridedAddress(GB, warp_stride=100_000, iter_stride=999, footprint_bytes=fp)
        for a in gen.addresses(w, i):
            assert GB <= a < GB + fp + 4 * WARP_SIZE


class TestIrregular:
    def test_lane_binning_limits_lines(self):
        gen = IrregularAddress(GB, footprint_bytes=1 << 20, lines_per_warp=2)
        addrs = gen.addresses(0, 0)
        lines = {a // 128 for a in addrs}
        assert len(lines) <= 2

    def test_hot_accesses_fall_in_hot_region(self):
        gen = IrregularAddress(GB, footprint_bytes=1 << 24, hot_bytes=4096,
                               hot_fraction=1.0)
        for w in range(16):
            for i in range(16):
                for a in gen.addresses(w, i):
                    assert GB <= a < GB + 4096

    def test_cold_accesses_span_footprint(self):
        gen = IrregularAddress(GB, footprint_bytes=1 << 24, hot_fraction=0.0)
        spread = {a for w in range(8) for i in range(8) for a in gen.addresses(w, i)}
        assert max(spread) - min(spread) > (1 << 20)

    def test_private_blocks_stay_per_warp(self):
        gen = IrregularAddress(GB, footprint_bytes=1 << 24,
                               private_block_bytes=1024, hot_fraction=1.0)
        for w in range(8):
            lo = GB + w * 1024
            for i in range(16):
                for a in gen.addresses(w, i):
                    assert lo <= a < lo + 1024

    def test_seed_changes_stream(self):
        a = IrregularAddress(GB, footprint_bytes=1 << 24, seed=1)
        b = IrregularAddress(GB, footprint_bytes=1 << 24, seed=2)
        assert a.addresses(0, 0) != b.addresses(0, 0)

    @given(warps, iters)
    def test_deterministic(self, w, i):
        gen = IrregularAddress(GB, footprint_bytes=1 << 24, seed=7)
        assert gen.addresses(w, i) == gen.addresses(w, i)

    @settings(max_examples=300, deadline=None)
    @given(
        gen=st.builds(
            IrregularAddress, base=st.integers(0, GB),
            footprint_bytes=st.sampled_from([1 << 12, 1 << 24]),
            hot_bytes=st.sampled_from([2, 300, 8192]),
            hot_fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
            lines_per_warp=st.integers(1, 80),
            private_block_bytes=st.sampled_from([0, 1024, 100]),
            seed=st.integers(0, 99),
            element_bytes=st.sampled_from([1, 4, 8, 300]),
            lanes=st.integers(1, 40)),
        w=warps, i=iters, line_size=st.sampled_from([32, 128, 256]))
    # Fewer buckets than lanes; more buckets than lanes, elements wider
    # than a line and a hot region narrower than an element, per-warp blocks.
    @example(gen=IrregularAddress(GB, footprint_bytes=1 << 24, lines_per_warp=4),
             w=3, i=5, line_size=128)
    @example(gen=IrregularAddress(GB, footprint_bytes=1 << 24, hot_bytes=2,
                                  lines_per_warp=48, element_bytes=300),
             w=3, i=5, line_size=32)
    @example(gen=IrregularAddress(GB, footprint_bytes=1 << 24, private_block_bytes=1024,
                                  hot_fraction=1.0, lines_per_warp=64),
             w=7, i=2, line_size=128)
    def test_coalesced_equals_coalescing_the_lanes(self, gen, w, i, line_size):
        addresses = gen.addresses(w, i)
        assert gen.coalesced(w, i, line_size) == (
            addresses[0], tuple(coalesce(addresses, line_size)))


class TestIndirect:
    def test_jitter_bounded_by_window(self):
        gen = IndirectAddress(GB, warp_stride=512, window_bytes=1024,
                              footprint_bytes=1 << 24)
        clean = StridedAddress(GB, warp_stride=512, footprint_bytes=1 << 24)
        for w in range(32):
            delta = abs(gen.primary_address(w, 0) - clean.primary_address(w, 0))
            assert delta <= 1024

    def test_dominant_stride_survives(self):
        gen = IndirectAddress(GB, warp_stride=512, window_bytes=64,
                              footprint_bytes=1 << 24)
        deltas = [
            gen.primary_address(w + 1, 0) - gen.primary_address(w, 0)
            for w in range(40)
        ]
        near = [d for d in deltas if abs(d - 512) <= 128]
        assert len(near) > 30

    @given(warps, iters)
    def test_deterministic(self, w, i):
        gen = IndirectAddress(GB, warp_stride=512, footprint_bytes=1 << 24, seed=3)
        assert gen.addresses(w, i) == gen.addresses(w, i)
