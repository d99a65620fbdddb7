"""Tests for set-associative cache geometries (the ablation extension;
the paper's machine is direct-mapped)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import DirectMappedCache, LineState
from repro.config import CacheGeometry, Consistency, dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, build_app
from repro.system import run_program

from tests.test_goldens import GOLDEN_DIR, assert_matches_golden, golden_stats


def make_cache(size=256, line=16, ways=2):
    return DirectMappedCache(
        CacheGeometry(size_bytes=size, line_bytes=line, ways=ways)
    )


class TestGeometry:
    def test_sets_and_ways(self):
        geometry = CacheGeometry(size_bytes=256, line_bytes=16, ways=2)
        assert geometry.num_lines == 16
        assert geometry.num_sets == 8

    def test_ways_must_divide_lines(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=256, line_bytes=16, ways=3)

    def test_ways_positive(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=256, line_bytes=16, ways=0)


class TestTwoWay:
    def test_two_conflicting_lines_coexist(self):
        cache = make_cache(size=256, ways=2)  # 8 sets
        line_a, line_b = 0, 8 * 16  # same set
        cache.insert(line_a, LineState.SHARED)
        assert cache.insert(line_b, LineState.SHARED) is None
        assert cache.probe(line_a) == LineState.SHARED
        assert cache.probe(line_b) == LineState.SHARED

    def test_third_line_evicts_lru(self):
        cache = make_cache(size=256, ways=2)
        line_a, line_b, line_c = 0, 128, 256
        cache.insert(line_a, LineState.SHARED)
        cache.insert(line_b, LineState.SHARED)
        cache.lookup(line_a)  # refresh a: b becomes LRU
        victim = cache.insert(line_c, LineState.DIRTY)
        assert victim == (line_b, LineState.SHARED)
        assert cache.probe(line_a) == LineState.SHARED

    def test_reinsert_updates_state_without_eviction(self):
        cache = make_cache(ways=2)
        cache.insert(0, LineState.SHARED)
        assert cache.insert(0, LineState.DIRTY) is None
        assert cache.probe(0) == LineState.DIRTY

    def test_invalidate_and_set_state(self):
        cache = make_cache(ways=2)
        cache.insert(0, LineState.SHARED)
        cache.set_state(0, LineState.DIRTY)
        assert cache.probe(0) == LineState.DIRTY
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        with pytest.raises(KeyError):
            cache.set_state(0, LineState.SHARED)

    def test_resident_lines(self):
        cache = make_cache(ways=2)
        cache.insert(0, LineState.SHARED)
        cache.insert(128, LineState.DIRTY)
        assert dict(cache.resident_lines()) == {
            0: LineState.SHARED,
            128: LineState.DIRTY,
        }

    @given(
        st.lists(st.integers(min_value=0, max_value=2047), max_size=200),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_capacity_never_exceeded(self, addresses, ways):
        cache = make_cache(size=256, ways=ways)
        for addr in addresses:
            line = addr - addr % 16
            cache.lookup(line)
            cache.insert(line, LineState.SHARED)
        assert len(list(cache.resident_lines())) <= 16

    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4]),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["lookup", "probe", "insert", "set_state", "invalidate"]
                ),
                st.integers(min_value=0, max_value=40),
                st.sampled_from(
                    [LineState.SHARED, LineState.DIRTY, LineState.EXCLUSIVE]
                ),
            ),
            max_size=120,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_fully_associative_matches_lru_model(self, ways, sets, ops):
        """Any geometry behaves like one textbook LRU list per set: a
        lookup hit or an insert moves the line to the front, probe,
        set_state and invalidate never reorder, and an insert into a
        full set evicts the back."""
        cache = make_cache(size=16 * ways * sets, ways=ways)
        model = [[] for _ in range(sets)]  # per set: [line, state], MRU first
        counters = {"hits": 0, "misses": 0, "evictions": 0,
                    "invalidations_received": 0}
        for op, block, state in ops:
            line = block * 16
            entries = model[block % sets]
            found = next((e for e in entries if e[0] == line), None)
            if op == "lookup":
                if found is not None:
                    counters["hits"] += 1
                    entries.remove(found)
                    entries.insert(0, found)
                    expected = found[1]
                else:
                    counters["misses"] += 1
                    expected = LineState.INVALID
                assert cache.lookup(line) == expected
            elif op == "probe":
                expected = found[1] if found is not None else LineState.INVALID
                assert cache.probe(line) == expected
            elif op == "insert":
                expected = None
                if found is not None:
                    entries.remove(found)
                    found[1] = state
                else:
                    found = [line, state]
                    if len(entries) == ways:
                        expected = tuple(entries.pop())
                        counters["evictions"] += 1
                entries.insert(0, found)
                assert cache.insert(line, state) == expected
            elif op == "set_state":
                if found is None:
                    with pytest.raises(KeyError):
                        cache.set_state(line, state)
                else:
                    found[1] = state
                    cache.set_state(line, state)
            else:
                if found is not None:
                    entries.remove(found)
                    counters["invalidations_received"] += 1
                assert cache.invalidate(line) == (found is not None)
            assert list(cache.resident_lines()) == [
                (tag, tag_state) for lru in model for tag, tag_state in lru
            ]
            assert {name: getattr(cache, name) for name in counters} == counters


def run_lu_multicontext(ways):
    """LU on the interference ablation's machine: 4 processors x 4
    contexts, a 4 KB secondary cache with ``ways`` ways."""
    from repro.apps import LUConfig, lu_program

    config = dash_scaled_config(
        num_processors=4,
        contexts_per_processor=4,
        context_switch_cycles=4,
        secondary_cache=CacheGeometry(size_bytes=4096, ways=ways),
    )
    return run_program(lu_program(LUConfig(n=24)), config)


def _run_mp3d_sc_mesi():
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        protocol="mesi",
        primary_cache=CacheGeometry(size_bytes=2048, ways=2),
        secondary_cache=CacheGeometry(size_bytes=4096, ways=4),
    )
    return run_program(build_app("MP3D", "smoke"), config)


def _run_pthor_rc_prefetch():
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        consistency=Consistency.RC,
        secondary_cache=CacheGeometry(size_bytes=4096, ways=4),
    )
    return run_program(build_app("PTHOR", "smoke", prefetching=True), config)


#: Associative configurations pinned like the direct-mapped goldens:
#: ``tests/goldens/assoc-<name>.json`` holds their ``golden_stats``.
ASSOCIATIVE_RUNS = {
    "lu-4ctx-l2-4way": lambda: run_lu_multicontext(4),
    "mp3d-sc-mesi-l1-2way-l2-4way": _run_mp3d_sc_mesi,
    "pthor-rc-pf-l2-4way": _run_pthor_rc_prefetch,
}


@pytest.mark.parametrize("name", sorted(ASSOCIATIVE_RUNS))
def test_associative_goldens_match(name, request):
    assert_matches_golden(
        GOLDEN_DIR / f"assoc-{name}.json",
        golden_stats(ASSOCIATIVE_RUNS[name]()),
        request.config.getoption("--update-goldens"),
    )


class TestEndToEnd:
    def test_higher_associativity_reduces_interference(self):
        """LU with multiple contexts suffers conflict interference on a
        direct-mapped cache (Section 6.1); associativity recovers some
        of the lost hit rate."""
        direct = run_lu_multicontext(1)
        associative = run_lu_multicontext(4)
        assert associative.read_hit_rate() >= direct.read_hit_rate()

    def test_paper_config_remains_direct_mapped(self):
        config = dash_scaled_config()
        assert config.primary_cache.ways == 1
        assert config.secondary_cache.ways == 1
