"""LAWS: queue-based priority scheduling driven by load outcomes."""

from repro.core.laws import LAWSScheduler
from repro.core.sap import SAPPrefetcher
from repro.mem.request import LoadAccess
from repro.sched.base import IssueCandidate


def result(warp, pc, hit, addr=0x1000, cycle=0):
    return LoadAccess(0, warp, pc, addr, (addr,), hit, cycle)


def make(n=6):
    s = LAWSScheduler()
    s.reset(n)
    return s


def cands(*warps, mem=False):
    return [IssueCandidate(w, mem) for w in warps]


class TestSelection:
    def test_initial_order_is_warp_id(self):
        s = make()
        assert s.queue == (0, 1, 2, 3, 4, 5)
        assert s.select(cands(3, 1, 5), 0) == 1

    def test_first_ready_from_head(self):
        s = make()
        assert s.select(cands(4, 5), 0) == 4

    def test_empty(self):
        assert make().select([], 0) is None


class TestGrouping:
    def test_hit_moves_group_to_head(self):
        s = make()
        # Warps 2 and 4 share LLPC 0x10 with the issuer (warp 0).
        for w in (0, 2, 4):
            s.notify_load_result(result(w, 0x10, hit=True))
        # Warp 0 issues its next load at 0x20 and hits: group = {0,2,4}.
        s.notify_load_result(result(0, 0x20, hit=True))
        assert s.queue[:3] == (0, 2, 4) or set(s.queue[:3]) == {0, 2, 4}

    def test_miss_moves_group_to_tail(self):
        s = make()
        for w in (0, 2, 4):
            s.notify_load_result(result(w, 0x10, hit=True))
        s.notify_load_result(result(0, 0x20, hit=False))
        assert set(s.queue[-3:]) == {0, 2, 4}

    def test_relative_order_preserved_within_group(self):
        s = make()
        for w in (0, 2, 4):
            s.notify_load_result(result(w, 0x10, hit=True))
        before = [w for w in s.queue if w in {0, 2, 4}]
        s.notify_load_result(result(0, 0x20, hit=True))
        after = [w for w in s.queue if w in {0, 2, 4}]
        assert after == before

    def test_llpc_tracking(self):
        s = make()
        s.notify_load_result(result(3, 0x10, hit=True))
        assert s.llpc_of(3) == 0x10
        s.notify_load_result(result(3, 0x20, hit=True))
        assert s.llpc_of(3) == 0x20

    def test_finished_warps_excluded_from_groups(self):
        s = make()
        for w in (0, 2, 4):
            s.notify_load_result(result(w, 0x10, hit=True))
        s.notify_warp_finished(2)
        s.notify_load_result(result(0, 0x20, hit=False))
        group = s.missed_group
        assert group is not None and 2 not in group


class TestSAPHandoff:
    def test_pending_group_on_miss(self):
        s = make()
        for w in (0, 1):
            s.notify_load_result(result(w, 0x10, hit=True))
        s.notify_load_result(result(0, 0x20, hit=False))
        assert s.missed_group == frozenset({0, 1})

    def test_pending_group_is_one_shot(self):
        s = make()
        sap = SAPPrefetcher(s)
        sap.reset(6)
        access = result(0, 0x20, hit=False)
        s.notify_load_result(access)
        assert s.missed_group is not None
        sap.observe_load(access)
        assert s.missed_group is None

    def test_no_pending_group_on_hit(self):
        s = make()
        s.notify_load_result(result(0, 0x20, hit=False))
        s.notify_load_result(result(0, 0x20, hit=True))
        assert s.missed_group is None


class TestPrefetchTargets:
    def test_targets_promoted_to_head(self):
        s = make()
        s.notify_prefetch_targets([4, 5])
        assert set(s.queue[:2]) == {4, 5}

    def test_empty_targets_noop(self):
        s = make()
        before = s.queue
        s.notify_prefetch_targets([])
        assert s.queue == before
