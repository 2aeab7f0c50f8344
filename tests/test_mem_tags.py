"""Tag array LRU semantics, including a hypothesis model check."""

from collections import OrderedDict

from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.tags import LineMeta, TagArray


def small_tags(sets=4, ways=2):
    cfg = CacheConfig(size_bytes=sets * ways * 128, associativity=ways)
    return TagArray(cfg), cfg


def line(set_idx, tag, num_sets=4):
    return (tag * num_sets + set_idx) * 128


class TestProbeInsert:
    def test_miss_on_empty(self):
        tags, _ = small_tags()
        assert tags.probe(0) is None

    def test_hit_after_insert(self):
        tags, _ = small_tags()
        tags.insert(0, LineMeta())
        assert tags.probe(0) is not None

    def test_insert_returns_victim_when_full(self):
        tags, _ = small_tags(sets=1, ways=2)
        assert tags.insert(line(0, 0, 1), LineMeta()) is None
        assert tags.insert(line(0, 1, 1), LineMeta()) is None
        victim = tags.insert(line(0, 2, 1), LineMeta())
        assert victim is not None
        assert victim[0] == line(0, 0, 1)

    def test_lru_promotion_on_probe(self):
        tags, _ = small_tags(sets=1, ways=2)
        a, b, c = line(0, 0, 1), line(0, 1, 1), line(0, 2, 1)
        tags.insert(a, LineMeta())
        tags.insert(b, LineMeta())
        tags.probe(a)  # promote a to MRU; b becomes LRU
        victim = tags.insert(c, LineMeta())
        assert victim[0] == b

    def test_probe_without_lru_update(self):
        tags, _ = small_tags(sets=1, ways=2)
        a, b, c = line(0, 0, 1), line(0, 1, 1), line(0, 2, 1)
        tags.insert(a, LineMeta())
        tags.insert(b, LineMeta())
        tags.probe(a, update_lru=False)
        victim = tags.insert(c, LineMeta())
        assert victim[0] == a

    def test_prefetched_refill_of_a_resident_line_is_protected(self):
        tags, _ = small_tags(sets=1, ways=2)
        a, b, c = line(0, 0, 1), line(0, 1, 1), line(0, 2, 1)
        tags.insert(a, LineMeta())
        tags.insert(b, LineMeta())
        tags.insert(a, LineMeta(prefetched=True))
        tags.probe(b)  # a, unreferenced and prefetched, is now LRU
        victim = tags.insert(c, LineMeta())
        assert victim[0] == b

    def test_reinsert_resident_replaces_meta(self):
        tags, _ = small_tags()
        tags.insert(0, LineMeta(filler_warp=1))
        assert tags.insert(0, LineMeta(filler_warp=2)) is None
        assert tags.probe(0).filler_warp == 2
        assert tags.occupancy() == 1

    def test_sets_are_independent(self):
        tags, _ = small_tags(sets=4, ways=1)
        tags.insert(line(0, 0), LineMeta())
        tags.insert(line(1, 0), LineMeta())
        assert tags.occupancy() == 2
        assert tags.probe(line(0, 0)) is not None


class TestInvalidate:
    def test_invalidate_removes(self):
        tags, _ = small_tags()
        tags.insert(0, LineMeta())
        assert tags.invalidate(0) is not None
        assert tags.probe(0) is None

    def test_invalidate_missing_is_none(self):
        tags, _ = small_tags()
        assert tags.invalidate(128) is None


class TestResidentLines:
    def test_enumerates_all(self):
        tags, _ = small_tags()
        lines = {line(0, 0), line(1, 0), line(2, 1)}
        for addr in lines:
            tags.insert(addr, LineMeta())
        assert set(tags.resident_lines()) == lines


class TestUntouchedSets:
    """Sets are created on first insert; an untouched set reads as empty."""

    def test_probe_untouched_set(self):
        tags, _ = small_tags(sets=8)
        tags.insert(line(0, 0, 8), LineMeta())
        assert tags.probe(line(5, 0, 8)) is None
        assert tags.probe(line(5, 3, 8), update_lru=False) is None

    def test_invalidate_untouched_set(self):
        tags, _ = small_tags(sets=8)
        assert tags.invalidate(line(3, 1, 8)) is None
        assert tags.occupancy() == 0

    def test_occupancy_counts_only_touched_sets(self):
        tags, _ = small_tags(sets=8, ways=2)
        assert tags.occupancy() == 0
        tags.insert(line(2, 0, 8), LineMeta())
        tags.insert(line(2, 1, 8), LineMeta())
        tags.insert(line(6, 0, 8), LineMeta())
        assert tags.occupancy() == 3
        tags.invalidate(line(6, 0, 8))
        assert tags.occupancy() == 2

    def test_resident_lines_in_set_order(self):
        tags, _ = small_tags(sets=8)
        assert list(tags.resident_lines()) == []
        for addr in (line(7, 0, 8), line(1, 2, 8), line(1, 1, 8), line(4, 0, 8)):
            tags.insert(addr, LineMeta())
        assert list(tags.resident_lines()) == [
            line(1, 1, 8), line(1, 2, 8), line(4, 0, 8), line(7, 0, 8),
        ]


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_property_matches_reference_lru(accesses):
    """TagArray behaves exactly like a per-set OrderedDict LRU model."""
    sets, ways = 2, 4
    tags, _ = small_tags(sets=sets, ways=ways)
    model = [OrderedDict() for _ in range(sets)]
    for tag in accesses:
        addr = tag * 128
        s = (addr // 128) % sets
        if tags.probe(addr) is None:
            tags.insert(addr, LineMeta())
            if tag in model[s]:
                raise AssertionError("model hit but tags missed")
            if len(model[s]) >= ways:
                model[s].popitem(last=False)
            model[s][tag] = None
        else:
            assert tag in model[s]
            model[s].move_to_end(tag)
    for s in range(sets):
        resident = {a // 128 for a in tags.resident_lines() if (a // 128) % sets == s}
        assert resident == set(model[s])


# ----------------------------------------------------------------------
# Victim choice: the scan-free LRU path against the scan-every-time insert
# ----------------------------------------------------------------------


class ScanEveryTimeTags:
    """``TagArray.insert`` as it was: every eviction from a full set counts
    the set's unreferenced prefetched lines, prefetches or not."""

    def __init__(self, num_sets: int, assoc: int):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def _set(self, addr):
        return self.sets[(addr // 128) % self.num_sets]

    def probe(self, addr, update_lru=True):
        s = self._set(addr)
        meta = s.get(addr)
        if meta is not None and update_lru:
            s.move_to_end(addr)
        return meta

    def insert(self, addr, meta):
        s = self._set(addr)
        if addr in s:
            s[addr] = meta
            s.move_to_end(addr)
            return None
        victim = None
        if len(s) >= self.assoc:
            pending = sum(1 for m in s.values() if m.prefetched and not m.referenced)
            victim_addr = None
            if pending <= self.assoc // 2:
                victim_addr = next(
                    (a for a, m in s.items() if not (m.prefetched and not m.referenced)),
                    None,
                )
            if victim_addr is None:
                victim = s.popitem(last=False)
            else:
                victim = (victim_addr, s.pop(victim_addr))
        s[addr] = meta
        return victim

    def invalidate(self, addr):
        return self._set(addr).pop(addr, None)


def tag_ops(prefetch: bool):
    """One operation on a line among 24: insert (a prefetched line only when
    ``prefetch``), probe with or without an LRU update, invalidate, or mark
    a resident line referenced (what an L1 hit does)."""
    kinds = ["insert", "insert", "insert", "probe", "peek", "invalidate", "reference"]
    if prefetch:
        kinds.append("prefetch")
    return st.tuples(st.sampled_from(kinds), st.integers(min_value=0, max_value=23))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.lists(tag_ops(prefetch=False), min_size=20, max_size=120),
    st.lists(tag_ops(prefetch=True), max_size=120),
)
# The first prefetched line is the refill of a resident line, left at LRU.
@example(1, 2, [("insert", 0), ("insert", 1)],
         [("prefetch", 0), ("probe", 1), ("insert", 2)])
def test_victims_match_the_scan_every_time_insert(num_sets, assoc, prefix, mixed):
    """A long prefetch-free prefix, then demand and prefetched lines mixed:
    same victims, same resident lines, same recency order in every set."""
    tags, _ = small_tags(sets=num_sets, ways=assoc)
    ref = ScanEveryTimeTags(num_sets, assoc)
    for kind, tag in prefix + mixed:
        addr = tag * 128
        if kind in ("insert", "prefetch"):
            prefetched = kind == "prefetch"
            got = tags.insert(addr, LineMeta(filler_warp=tag, prefetched=prefetched))
            want = ref.insert(addr, LineMeta(filler_warp=tag, prefetched=prefetched))
            assert got == want
        elif kind in ("probe", "peek"):
            update = kind == "probe"
            assert tags.probe(addr, update_lru=update) == ref.probe(addr, update_lru=update)
        elif kind == "invalidate":
            assert tags.invalidate(addr) == ref.invalidate(addr)
        else:
            metas = tags.probe(addr, update_lru=False), ref.probe(addr, update_lru=False)
            assert (metas[0] is None) == (metas[1] is None)
            if metas[0] is not None:
                metas[0].referenced = metas[1].referenced = True
        for index, s in enumerate(ref.sets):
            got_set = tags._sets[index]
            assert list(s.items()) == (list(got_set.items()) if got_set is not None else [])
