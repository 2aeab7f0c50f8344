"""Last Load Table and Warp Group Table."""

import pytest

from repro.core.llt import LastLoadTable
from repro.core.wgt import WarpGroupTable


class TestLLT:
    def test_starts_empty(self):
        llt = LastLoadTable(4)
        assert all(llt.get(w) is None for w in range(4))

    def test_update_and_get(self):
        llt = LastLoadTable(4)
        llt.update(2, 0x100)
        assert llt.get(2) == 0x100

    def test_group_formation_search(self):
        llt = LastLoadTable(4)
        llt.update(0, 0x100)
        llt.update(1, 0x200)
        llt.update(2, 0x100)
        assert llt.peers(0) == llt.peers(2) == {0, 2}

    def test_none_matches_unissued_warps(self):
        llt = LastLoadTable(4)
        llt.update(0, 0x100)
        assert llt.peers(1) == {1, 2, 3}

    def test_search_follows_updates(self):
        llt = LastLoadTable(4)
        llt.update(3, 0x100)
        llt.update(1, 0x100)
        llt.update(3, 0x200)
        llt.update(1, 0x100)  # unchanged LLPC
        assert llt.peers(1) == {1}
        assert llt.peers(3) == {3}
        assert llt.peers(0) == {0, 2}
        llt.check_invariants()

    def test_len(self):
        assert len(LastLoadTable(48)) == 48

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LastLoadTable(0)


class TestWGT:
    def test_insert_and_lookup(self):
        wgt = WarpGroupTable(3, 8)
        gid = wgt.insert(frozenset({0, 2, 5}))
        assert wgt.lookup(gid) == frozenset({0, 2, 5})

    def test_invalidate_removes(self):
        wgt = WarpGroupTable(3, 8)
        gid = wgt.insert(frozenset({1}))
        assert wgt.invalidate(gid) == frozenset({1})
        assert wgt.lookup(gid) is None
        assert wgt.invalidate(gid) is None

    def test_fifo_replacement_at_capacity(self):
        wgt = WarpGroupTable(2, 8)
        g0 = wgt.insert(frozenset({0}))
        g1 = wgt.insert(frozenset({1}))
        g2 = wgt.insert(frozenset({2}))
        assert wgt.lookup(g0) is None  # oldest evicted
        assert wgt.lookup(g1) == frozenset({1})
        assert wgt.lookup(g2) == frozenset({2})
        assert len(wgt) == 2

    def test_ids_are_unique(self):
        wgt = WarpGroupTable(3, 8)
        ids = {wgt.insert(frozenset({0})) for _ in range(3)}
        assert len(ids) == 3

    def test_rejects_empty_warp_range_at_build(self):
        # The warp range is checked once, here; ``insert`` trusts its groups.
        with pytest.raises(ValueError):
            WarpGroupTable(3, 0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WarpGroupTable(0, 8)
