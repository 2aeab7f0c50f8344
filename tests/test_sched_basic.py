"""LRR, GTO, two-level and PA schedulers, plus the registry."""

import pytest

from repro.sched.base import IssueCandidate
from repro.sched.gto import GTOScheduler
from repro.sched.lrr import LRRScheduler
from repro.sched.pa import PAScheduler
from repro.sched.registry import SCHEDULERS, make_scheduler
from repro.sched.twolevel import TwoLevelScheduler


def cands(*warp_ids, mem=False):
    return [IssueCandidate(w, mem) for w in warp_ids]


class TestLRR:
    def test_rotates_through_ready_warps(self):
        s = LRRScheduler()
        s.reset(4)
        picks = [s.select(cands(0, 1, 2, 3), t) for t in range(4)]
        assert picks == [0, 1, 2, 3]

    def test_wraps_around(self):
        s = LRRScheduler()
        s.reset(4)
        for t in range(4):
            s.select(cands(0, 1, 2, 3), t)
        assert s.select(cands(0, 1, 2, 3), 4) == 0

    def test_skips_unready(self):
        s = LRRScheduler()
        s.reset(4)
        assert s.select(cands(2, 3), 0) == 2
        assert s.select(cands(1, 3), 1) == 3

    def test_empty_returns_none(self):
        s = LRRScheduler()
        s.reset(4)
        assert s.select([], 0) is None

    def test_fairness_over_window(self):
        s = LRRScheduler()
        s.reset(4)
        counts = {w: 0 for w in range(4)}
        for t in range(40):
            counts[s.select(cands(0, 1, 2, 3), t)] += 1
        assert all(c == 10 for c in counts.values())


class TestGTO:
    def test_greedy_keeps_current(self):
        s = GTOScheduler()
        s.reset(4)
        assert s.select(cands(1, 2), 0) == 1
        assert s.select(cands(1, 2), 1) == 1

    def test_falls_back_to_oldest(self):
        s = GTOScheduler()
        s.reset(4)
        s.select(cands(2), 0)
        assert s.select(cands(1, 3), 1) == 1

    def test_switches_when_current_stalls_then_sticks(self):
        s = GTOScheduler()
        s.reset(4)
        s.select(cands(3), 0)
        assert s.select(cands(1, 2), 1) == 1
        assert s.select(cands(1, 2, 3), 2) == 1  # greedy on the new current

    def test_finished_warp_forgotten(self):
        s = GTOScheduler()
        s.reset(4)
        s.select(cands(0), 0)
        s.notify_warp_finished(0)
        assert s.select(cands(1, 2), 1) == 1


class TestTwoLevel:
    def test_stays_in_active_group(self):
        s = TwoLevelScheduler(group_size=2)
        s.reset(4)  # groups: [0,1], [2,3]
        picks = [s.select(cands(0, 1, 2, 3), t) for t in range(4)]
        assert set(picks[:2]) == {0, 1}

    def test_switches_group_when_active_stalled(self):
        s = TwoLevelScheduler(group_size=2)
        s.reset(4)
        assert s.select(cands(2, 3), 0) in (2, 3)

    def test_group_of_contiguous(self):
        s = TwoLevelScheduler(group_size=2)
        s.reset(6)
        assert s.group_of(0) == 0
        assert s.group_of(3) == 1
        assert s.group_of(5) == 2

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(group_size=0)


class TestPA:
    def test_interleaved_membership(self):
        s = PAScheduler(group_size=2)
        s.reset(6)  # 3 groups, interleaved: warp w in group w % 3
        assert s.group_of(0) == 0
        assert s.group_of(1) == 1
        assert s.group_of(3) == 0
        assert s.group_of(5) == 2

    def test_selects_from_ready(self):
        s = PAScheduler(group_size=4)
        s.reset(8)
        assert s.select(cands(5, 6), 0) in (5, 6)


class TestRegistry:
    def test_all_names_construct(self):
        for name in SCHEDULERS:
            sched = make_scheduler(name)
            sched.reset(8)
            assert sched.select(cands(0, 1), 0) in (0, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope")

    def test_expected_members(self):
        assert set(SCHEDULERS) == {
            "lrr", "gto", "twolevel", "ccws", "mascar", "pa", "cawa"
        }

    def test_every_scheduler_class_is_registered(self):
        # LAWS lives in repro.core and is built by build_apres instead.
        from conftest import concrete_plugin_classes
        from repro.sched.base import WarpScheduler

        defined = concrete_plugin_classes(WarpScheduler, "repro.sched")
        assert defined == set(SCHEDULERS.values())

    def test_every_key_builds_the_scheduler_of_that_name(self):
        for name in SCHEDULERS:
            assert make_scheduler(name).name == name


@pytest.mark.parametrize("name", sorted(SCHEDULERS) + ["laws", "apres"])
def test_select_leaves_the_live_ready_list_alone(name):
    """The SM hands ``select`` its live ready list: every scheduler must
    leave it unchanged and keep no reference to it."""
    from conftest import make_config, mixed_kernel
    from repro.experiments.configs import CONFIGS
    from repro.sm.simulator import GPUSimulator

    offered = []

    def checked_engines():
        scheduler, prefetcher = CONFIGS[name].build()
        base = type(scheduler)

        class Checked(base):
            def select(self, candidates, cycle):
                before = list(candidates)
                chosen = base.select(self, candidates, cycle)
                assert list(candidates) == before
                assert all(value is not candidates for value in vars(self).values())
                offered.append(len(before))
                return chosen

        scheduler.__class__ = Checked
        return scheduler, prefetcher

    GPUSimulator(mixed_kernel(6), make_config(), checked_engines).run()
    assert max(offered) >= 2
