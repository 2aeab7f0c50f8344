"""SLD macro-block prefetcher."""

from repro.mem.request import LoadAccess
from repro.prefetch.registry import PREFETCHERS, make_prefetcher
from repro.prefetch.sld import SLDPrefetcher

import pytest

BLOCK = 512  # 4 x 128B lines


def access(lines, pc=0x10, warp=0):
    return LoadAccess(0, warp, pc, lines[0], tuple(lines), False, 0)


class TestSLD:
    def test_first_line_no_prefetch(self):
        p = SLDPrefetcher()
        assert p.observe_line(0, False, 0) == []

    def test_second_line_prefetches_rest_of_block(self):
        p = SLDPrefetcher()
        p.observe_line(0, False, 0)
        out = p.observe_line(128, False, 1)
        assert sorted(c.addr for c in out) == [256, 384]

    def test_block_fires_once(self):
        p = SLDPrefetcher()
        p.observe_line(0, False, 0)
        p.observe_line(128, False, 1)
        assert p.observe_line(256, False, 2) == []

    def test_blocks_independent(self):
        p = SLDPrefetcher()
        p.observe_line(0, False, 0)
        p.observe_line(BLOCK, False, 1)
        assert p.observe_line(BLOCK + 128, False, 2) != []

    def test_cannot_cover_large_strides(self):
        """Accesses 512B apart never co-occupy a macro-block (Section III-C)."""
        p = SLDPrefetcher()
        out = []
        for i in range(10):
            out.extend(p.observe_line(i * 512, False, i))
        assert out == []

    def test_observe_load_feeds_all_lines(self):
        p = SLDPrefetcher()
        out = p.observe_load(access([0, 128]))
        assert sorted(c.addr for c in out) == [256, 384]

    def test_table_capacity(self):
        p = SLDPrefetcher(table_entries=2)
        p.observe_line(0, False, 0)
        p.observe_line(10 * BLOCK, False, 1)
        p.observe_line(20 * BLOCK, False, 2)  # evicts block 0
        out = p.observe_line(128, False, 3)   # re-learns block 0 from scratch
        assert out == []

    def test_reset_clears(self):
        p = SLDPrefetcher()
        p.observe_line(0, False, 0)
        p.reset(8)
        assert p.observe_line(128, False, 1) == []


class TestRegistry:
    def test_known_names(self):
        assert set(PREFETCHERS) == {"none", "str", "sld", "mta"}

    def test_every_prefetcher_class_is_registered(self):
        # SAP lives in repro.core and is built by build_apres instead.
        from conftest import concrete_plugin_classes
        from repro.prefetch.base import Prefetcher

        defined = concrete_plugin_classes(Prefetcher, "repro.prefetch")
        assert defined == set(PREFETCHERS.values())

    def test_every_key_builds_the_prefetcher_of_that_name(self):
        for name in PREFETCHERS:
            assert make_prefetcher(name).name == name

    def test_construct_all(self):
        for name in PREFETCHERS:
            p = make_prefetcher(name)
            p.reset(8)
            assert p.observe_load(access([0])) == []

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            make_prefetcher("bogus")
