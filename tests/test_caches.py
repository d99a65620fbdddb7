"""Unit tests for cache arrays and MSHRs."""

import pytest
from hypothesis import given, strategies as st

from repro.caches import (
    DirectMappedCache,
    LineState,
    MSHRTable,
    OutstandingMiss,
)
from repro.config import CacheGeometry


def _cache(size=256, line=16):
    return DirectMappedCache(CacheGeometry(size_bytes=size, line_bytes=line))


class TestDirectMappedCache:
    def test_miss_then_hit(self):
        cache = _cache()
        assert cache.lookup(0) == LineState.INVALID
        cache.insert(0, LineState.SHARED)
        assert cache.lookup(0) == LineState.SHARED
        assert cache.misses == 1 and cache.hits == 1

    def test_conflicting_lines_evict(self):
        cache = _cache(size=256, line=16)  # 16 sets
        cache.insert(0, LineState.SHARED)
        victim = cache.insert(256, LineState.DIRTY)  # same set as 0
        assert victim == (0, LineState.SHARED)
        assert cache.probe(0) == LineState.INVALID
        assert cache.probe(256) == LineState.DIRTY

    def test_reinsert_same_line_is_not_eviction(self):
        cache = _cache()
        cache.insert(0, LineState.SHARED)
        assert cache.insert(0, LineState.DIRTY) is None
        assert cache.probe(0) == LineState.DIRTY
        assert cache.evictions == 0

    def test_invalidate(self):
        cache = _cache()
        cache.insert(32, LineState.SHARED)
        assert cache.invalidate(32)
        assert not cache.invalidate(32)
        assert cache.probe(32) == LineState.INVALID
        assert cache.invalidations_received == 1

    def test_set_state_requires_residence(self):
        cache = _cache()
        with pytest.raises(KeyError):
            cache.set_state(0, LineState.DIRTY)

    def test_insert_invalid_rejected(self):
        cache = _cache()
        with pytest.raises(ValueError):
            cache.insert(0, LineState.INVALID)

    def test_probe_does_not_count(self):
        cache = _cache()
        cache.probe(0)
        assert cache.hits == cache.misses == 0

    def test_resident_lines(self):
        cache = _cache()
        cache.insert(0, LineState.SHARED)
        cache.insert(16, LineState.DIRTY)
        assert dict(cache.resident_lines()) == {
            0: LineState.SHARED,
            16: LineState.DIRTY,
        }

    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=300))
    def test_property_lookup_matches_model(self, addresses):
        """The direct-mapped cache behaves like a dict keyed by set index."""
        cache = _cache(size=128, line=16)  # 8 sets
        model = {}
        for addr in addresses:
            line = addr - addr % 16
            index = (line // 16) % 8
            expected = model.get(index) == line
            assert (cache.lookup(line) != LineState.INVALID) == expected
            cache.insert(line, LineState.SHARED)
            model[index] = line


class TestMSHR:
    def test_add_and_retire(self):
        table = MSHRTable()
        miss = OutstandingMiss(0, False, 0, 50, is_prefetch=True)
        table.add(miss)
        assert table.lookup(0) is miss
        assert table.retire(0) is miss
        assert table.lookup(0) is None

    def test_duplicate_line_rejected(self):
        table = MSHRTable()
        table.add(OutstandingMiss(0, False, 0, 50, is_prefetch=False))
        with pytest.raises(ValueError):
            table.add(OutstandingMiss(0, True, 1, 60, is_prefetch=False))

    def test_combine_marks_the_miss(self):
        table = MSHRTable()
        table.add(OutstandingMiss(0, False, 0, 50, is_prefetch=True))
        table.combine(0)
        miss = table.retire(0)
        assert miss.combined
        assert table.combines == 1
