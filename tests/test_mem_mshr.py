"""MSHR allocation, merging and release."""

import pytest

from repro.mem.mshr import MSHRFile


def make(entries=4, merge=2):
    return MSHRFile(entries, merge)


class TestAllocate:
    def test_allocate_and_lookup(self):
        m = make()
        e = m.allocate(0x100, now=5, prefetch_only=False)
        assert e is not None
        assert m.lookup(0x100) is e
        assert 0x100 in m
        assert len(m) == 1

    def test_allocate_duplicate_fails(self):
        m = make()
        m.allocate(0x100, 0, False)
        assert m.allocate(0x100, 1, False) is None

    def test_capacity(self):
        m = make(entries=2)
        assert m.allocate(0x100, 0, False)
        assert m.allocate(0x200, 0, False)
        assert len(m) == m.capacity == 2
        assert m.allocate(0x300, 0, False) is None

    def test_occupancy_ratio(self):
        m = make(entries=4)
        m.allocate(0x100, 0, False)
        assert m.occupancy_ratio == 0.25

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0, 1)


class TestMerge:
    def test_merge_records_issue_cycle_and_callback(self):
        m = make()
        e = m.allocate(0x100, 0, prefetch_only=False)
        hits = []
        assert m.merge_demand(e, 7, hits.append)
        assert e.demand_issue_cycles == [7]
        e.callbacks[0](99)
        assert hits == [99]

    def test_merge_limit(self):
        m = make(merge=2)
        e = m.allocate(0x100, 0, False)
        assert m.merge_demand(e, 1, None)
        assert m.merge_demand(e, 2, None)
        assert not m.merge_demand(e, 3, None)
        assert e.demand_issue_cycles == [1, 2]

    def test_demand_merge_clears_prefetch_flag(self):
        m = make()
        e = m.allocate(0x100, 0, prefetch_only=True)
        assert e.prefetch_only
        m.merge_demand(e, 5, None)
        assert not e.prefetch_only


class TestRelease:
    def test_release_frees_slot(self):
        m = make(entries=1)
        m.allocate(0x100, 0, False)
        assert m.allocate(0x200, 0, False) is None
        released = m.release(0x100)
        assert released.line_addr == 0x100
        assert m.lookup(0x100) is None
        assert m.allocate(0x200, 0, False) is not None

    def test_release_missing_raises(self):
        with pytest.raises(KeyError):
            make().release(0x500)
