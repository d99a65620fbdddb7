"""Unit tests for the directory coherence protocol."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import DirectMappedCache, LineState
from repro.coherence import (
    AccessClass,
    CoherenceProtocol,
    Directory,
    DirState,
    NodeCaches,
)
from repro.coherence.specs import get_spec
from repro.coherence.table import Action, ProtocolTableError, ProtoEvent
from repro.config import CacheGeometry, ContentionConfig, dash_scaled_config
from repro.interconnect import Interconnect
from repro.memlayout import SharedMemoryAllocator


def make_protocol(
    num_nodes=4,
    contention=False,
    cache_bytes=(2048, 4096),
    protocol="directory-msi",
    secondary_ways=1,
    **changes,
):
    config = dash_scaled_config(
        num_processors=num_nodes,
        contention=ContentionConfig(enabled=contention),
        protocol=protocol,
        secondary_cache=CacheGeometry(size_bytes=cache_bytes[1], ways=secondary_ways),
        **changes,
    )
    allocator = SharedMemoryAllocator(num_nodes, page_bytes=config.page_bytes)
    regions = [
        allocator.alloc_local(f"node{i}", 8192, i) for i in range(num_nodes)
    ]
    caches = [
        NodeCaches(
            primary=DirectMappedCache(config.primary_cache),
            secondary=DirectMappedCache(config.secondary_cache),
        )
        for _ in range(num_nodes)
    ]
    directories = [Directory(i) for i in range(num_nodes)]
    protocol = CoherenceProtocol(
        config, allocator, caches, directories, Interconnect(num_nodes, config.contention)
    )
    return protocol, regions


class TestReadPath:
    def test_local_fill_then_hits(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        out = protocol.read(0, addr, 0)
        assert out.access_class is AccessClass.LOCAL
        assert out.retire == 26
        assert protocol.read(0, addr, 100).access_class is AccessClass.PRIMARY_HIT

    def test_remote_clean_fill(self):
        protocol, regions = make_protocol()
        addr = regions[1].addr(0)
        out = protocol.read(0, addr, 0)
        assert out.access_class is AccessClass.HOME
        assert out.retire == 72

    def test_dirty_third_party_fill(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        protocol.write(1, addr, 0)
        out = protocol.read(0, addr, 10)
        assert out.access_class is AccessClass.REMOTE
        assert out.retire - 10 == 90

    def test_read_downgrades_dirty_owner_to_shared(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        line = protocol.line_of(addr)
        protocol.write(1, addr, 0)
        protocol.read(0, addr, 10)
        assert protocol.caches[1].secondary.probe(line) == LineState.SHARED
        entry = protocol.directories[2].entry(line)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 1}

    def test_read_fills_both_levels(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED
        assert protocol.caches[0].secondary.probe(line) == LineState.SHARED


    def test_unallocated_line_fails_loudly(self):
        # The miss paths index the allocator's page table directly; a
        # line no region covers still raises the allocator's own error.
        protocol, regions = make_protocol()
        addr = regions[-1].end + 4 * protocol.allocator.page_bytes
        with pytest.raises(KeyError, match="is not in any allocated region"):
            protocol.read(0, addr, 0)
        with pytest.raises(KeyError, match="is not in any allocated region"):
            protocol.write(0, addr, 0)
        with pytest.raises(KeyError, match="is not in any allocated region"):
            protocol.allocator.home_of(addr)


class TestWritePath:
    def test_write_local_unowned(self):
        protocol, regions = make_protocol()
        out = protocol.write(0, regions[0].addr(0), 0)
        assert out.access_class is AccessClass.LOCAL
        assert out.retire == 18
        assert out.complete == 18  # nobody to invalidate

    def test_write_hit_dirty(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(0, addr, 0)
        out = protocol.write(0, addr, 100)
        assert out.access_class is AccessClass.SECONDARY_HIT
        assert out.retire - 100 == 2

    def test_write_invalidates_sharers_and_acks_trail(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(1, addr, 0)
        protocol.read(2, addr, 0)
        out = protocol.write(0, addr, 10)
        assert protocol.caches[1].secondary.probe(line) == LineState.INVALID
        assert protocol.caches[2].secondary.probe(line) == LineState.INVALID
        assert out.complete > out.retire  # invalidation acks trail
        entry = protocol.directories[0].entry(line)
        assert entry.state == DirState.DIRTY and entry.owner == 0

    def test_ownership_transfer_from_dirty_remote(self):
        protocol, regions = make_protocol()
        addr = regions[2].addr(0)
        line = protocol.line_of(addr)
        protocol.write(1, addr, 0)
        out = protocol.write(0, addr, 10)
        assert out.access_class is AccessClass.REMOTE
        assert out.retire - 10 == 82
        assert protocol.caches[1].secondary.probe(line) == LineState.INVALID
        assert protocol.directories[2].entry(line).owner == 0

    @pytest.mark.parametrize(
        "writer,home,access_class",
        [
            (0, 0, AccessClass.HOME),  # requester is the home
            (0, 1, AccessClass.HOME),  # the owner is the home
            (0, 2, AccessClass.REMOTE),  # three parties
        ],
    )
    def test_transfer_class_with_equal_home_and_remote_latency(
        self, writer, home, access_class
    ):
        # The class follows the transaction's shape, not its latency:
        # a table may price a home and a remote transfer alike.
        config = dash_scaled_config()
        protocol, regions = make_protocol(
            latency=dataclasses.replace(
                config.latency, write_owned_home=64, write_owned_remote=64
            )
        )
        addr = regions[home].addr(0)
        protocol.write(1, addr, 0)  # dirty at node 1
        out = protocol.write(writer, addr, 10)
        assert out.access_class is access_class
        assert out.retire - 10 >= 64

    def test_upgrade_from_shared(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        protocol.write(0, addr, 10)
        assert protocol.caches[0].secondary.probe(line) == LineState.DIRTY

    def test_write_updates_primary_copy_if_present(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)  # fills primary
        protocol.write(0, addr, 10)
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED

    def test_presence_counter(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.write(0, addr, 0)   # miss: not present
        protocol.write(0, addr, 10)  # present (dirty)
        assert protocol.stats.writes_total == 2
        assert protocol.stats.writes_line_present == 1


class TestEvictions:
    def test_dirty_eviction_writes_back_and_releases_directory(self):
        protocol, regions = make_protocol()
        # Two lines mapping to the same secondary set: 4KB apart.
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.write(0, addr_a, 0)
        protocol.write(0, addr_b, 10)  # evicts dirty line_a
        assert protocol.caches[0].secondary.probe(line_a) == LineState.INVALID
        assert protocol.directories[0].entry(line_a).state == DirState.UNOWNED
        assert protocol.stats.eviction_writebacks == 1
        # A later read is a plain local fill, not a remote-dirty fill.
        out = protocol.read(1, addr_a, 100)
        assert out.access_class is AccessClass.HOME

    def test_clean_eviction_drops_sharer(self):
        protocol, regions = make_protocol()
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.read(0, addr_a, 0)
        protocol.read(0, addr_b, 10)  # evicts shared line_a
        entry = protocol.directories[0].entry(line_a)
        assert 0 not in entry.sharers
        assert entry.state == DirState.UNOWNED

    def test_inclusion_preserved_on_eviction(self):
        protocol, regions = make_protocol()
        addr_a = regions[0].addr(0)
        addr_b = regions[0].addr(4096)
        line_a = protocol.line_of(addr_a)
        protocol.read(0, addr_a, 0)
        protocol.read(0, addr_b, 10)
        assert protocol.caches[0].primary.probe(line_a) == LineState.INVALID


_EVICTION_EVENTS = (
    ProtoEvent.EVICT_CLEAN, ProtoEvent.EVICT_DIRTY, ProtoEvent.EVICT_EXCLUSIVE,
)


def _eviction_situation(protocol_name, secondary_ways, rule):
    """A protocol with node 1 holding a line homed on node 0 in the
    rule's cache state, its primary copy present, and the home entry in
    the rule's directory state (node 2 also sharing when the guard asks
    for other holders)."""
    protocol, regions = make_protocol(
        contention=True, protocol=protocol_name, secondary_ways=secondary_ways
    )
    line = protocol.line_of(regions[0].addr(0))
    protocol.caches[1].primary.insert(line, LineState.SHARED)
    entry = protocol.directories[0].entry(line)
    entry.state = rule.dir_state
    if rule.dir_state == DirState.SHARED:
        entry.sharers = {1, 2} if rule.others_cached else {1}
    elif rule.dir_state == DirState.DIRTY:
        entry.owner = 1
    return protocol, line


def _background_occupancy(protocol):
    return [
        (resource.name, resource.next_free, resource.busy_total, resource.transactions)
        for links in protocol.net.background
        for resource in (
            links.bus, links.link_in, links.link_out, links.directory_ctl, links.memory
        )
    ]


#: Dirty write-back traffic of one eviction at time 5 from node 1 to
#: home 0: ``resource -> (next_free, busy_total, transactions)`` for
#: every background resource it occupies (all others stay idle).
_WRITEBACK_OCCUPANCY = {
    "bg.node0.link_in": (11, 6, 1),
    "bg.node0.memory": (13, 8, 1),
    "bg.node1.bus": (10, 5, 1),
    "bg.node1.link_out": (11, 6, 1),
}

#: ``(protocol, rule) -> (dir state, sharers, eviction write-backs,
#: background occupancy)`` after node 1 evicts the line, as recorded
#: while the packed and classic object cache paths still both existed
#: and agreed on every entry.
_EVICTION_PINS = {
    ("directory-msi", "evict-clean-other-sharers"): (DirState.SHARED, {2}, 0, {}),
    ("directory-msi", "evict-clean-last"): (DirState.UNOWNED, set(), 0, {}),
    ("directory-msi", "evict-dirty"): (
        DirState.UNOWNED, set(), 1, _WRITEBACK_OCCUPANCY,
    ),
    ("mesi", "evict-clean-other-sharers"): (DirState.SHARED, {2}, 0, {}),
    ("mesi", "evict-clean-last"): (DirState.UNOWNED, set(), 0, {}),
    ("mesi", "evict-exclusive"): (
        DirState.UNOWNED, set(), 1, _WRITEBACK_OCCUPANCY,
    ),
    ("mesi", "evict-dirty"): (DirState.UNOWNED, set(), 1, _WRITEBACK_OCCUPANCY),
}


class TestEvictionDifferential:
    """The one eviction routine against the values the packed
    (direct-mapped) and classic object (associative) cache paths agreed
    on before the object path was removed, on a direct-mapped and a
    two-way secondary cache."""

    @pytest.mark.parametrize("secondary_ways", [1, 2], ids=["1way", "2way"])
    @pytest.mark.parametrize(
        "protocol_name,rule",
        [
            (name, rule)
            for name in ("directory-msi", "mesi")
            for rule in get_spec(name).table.rules
            if rule.event in _EVICTION_EVENTS
        ],
        ids=lambda value: value if isinstance(value, str) else value.name,
    )
    def test_packed_and_classic_evictions_agree(
        self, protocol_name, rule, secondary_ways
    ):
        dir_state, sharers, writebacks, occupancy = _EVICTION_PINS[
            (protocol_name, rule.name)
        ]
        protocol, line = _eviction_situation(protocol_name, secondary_ways, rule)
        protocol._evict(1, line, int(rule.cache_state), 5)
        entry = protocol.directories[0].entry(line)
        assert entry.state == dir_state == rule.next_dir_state
        assert entry.owner is None
        assert entry.sharers == sharers
        assert protocol.stats.eviction_writebacks == writebacks
        assert writebacks == int(Action.WRITEBACK_MEMORY in rule.action_set)
        assert {
            name: (next_free, busy, transactions)
            for name, next_free, busy, transactions in _background_occupancy(protocol)
            if next_free or busy or transactions
        } == occupancy
        primary = protocol.caches[1].primary
        assert primary.probe(line) == LineState.INVALID
        assert primary.invalidations_received == 1

    @pytest.mark.parametrize("secondary_ways", [1, 2], ids=["1way", "2way"])
    def test_impossible_eviction_raises_on_every_call(self, secondary_ways):
        protocol, regions = make_protocol(secondary_ways=secondary_ways)
        line = protocol.line_of(regions[0].addr(0))
        entry = protocol.directories[0].entry(line)
        entry.state = DirState.DIRTY
        entry.owner = 2
        # A clean copy while the home names another dirty owner.
        for _ in range(2):
            with pytest.raises(ProtocolTableError, match="impossible"):
                protocol._evict(1, line, int(LineState.SHARED), 5)
        # Neither raise touched the home entry.
        assert entry.state == DirState.DIRTY
        assert entry.owner == 2
        assert entry.sharers == set()


class TestPrefetch:
    def test_prefetch_in_cache_discarded(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read(0, addr, 0)
        assert protocol.prefetch(0, addr, exclusive=False, time=10) is None

    def test_exclusive_prefetch_upgrades_shared(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        protocol.read(0, addr, 0)
        out = protocol.prefetch(0, addr, exclusive=True, time=10)
        assert out is not None
        assert protocol.caches[0].secondary.probe(line) == LineState.DIRTY
        assert protocol.stats.prefetch_upgrades == 1

    def test_prefetch_fills_both_levels(self):
        protocol, regions = make_protocol()
        addr = regions[1].addr(0)
        line = protocol.line_of(addr)
        out = protocol.prefetch(0, addr, exclusive=False, time=0)
        assert out.retire == 72
        assert protocol.caches[0].primary.probe(line) == LineState.SHARED

    def test_prefetch_does_not_pollute_demand_stats(self):
        protocol, regions = make_protocol()
        protocol.prefetch(0, regions[1].addr(0), exclusive=False, time=0)
        assert not protocol.stats.reads_by_class
        assert protocol.stats.prefetch_fills_by_class


class TestPackedPrefetchDiscard:
    """``prefetch``'s discard test on the packed arrays of an
    associative machine (2-way primary, 4-way secondary): plane 0 is
    read from the arrays, deeper planes through ``probe``."""

    def _setup(self, protocol_name, make_state, deeper):
        protocol, regions = make_protocol(
            protocol=protocol_name,
            secondary_ways=4,
            primary_cache=CacheGeometry(size_bytes=2048, ways=2),
        )
        config = protocol.config
        addr = regions[0].addr(0)
        line = protocol.line_of(addr)
        make_state(protocol, addr)
        if deeper:
            # A second line of the same secondary set pushes ``line``
            # down to plane 1.
            stride = config.secondary_cache.num_sets * config.line_bytes
            protocol.read(0, addr + stride, 200)
        tags, states = protocol.caches[0].secondary.packed_arrays()
        sindex = (line // config.line_bytes) % config.secondary_cache.num_sets
        plane = 1 if deeper else 0
        assert tags[sindex + plane * config.secondary_cache.num_sets] == line
        return protocol, addr, line

    @staticmethod
    def _observed(protocol):
        caches = protocol.caches[0]
        return (
            list(protocol.stats.counter_items()),
            [
                (level.hits, level.misses, *map(list, level.packed_arrays()))
                for level in (caches.primary, caches.secondary)
            ],
        )

    @staticmethod
    def _shared(protocol, addr):
        protocol.read(0, addr, 0)  # MSI: a lone reader holds SHARED

    @staticmethod
    def _modified(protocol, addr):
        protocol.write(0, addr, 0)

    @staticmethod
    def _exclusive(protocol, addr):
        protocol.read(0, addr, 0)  # MESI: a lone reader holds E

    @pytest.mark.parametrize("deeper", [False, True], ids=["plane0", "plane1"])
    def test_shared_prefetch_to_a_present_line_is_discarded(self, deeper):
        protocol, addr, line = self._setup("directory-msi", self._shared, deeper)
        before = self._observed(protocol)
        assert protocol.prefetch(0, addr, exclusive=False, time=300) is None
        # No counter moved and no line changed plane.
        assert self._observed(protocol) == before

    @pytest.mark.parametrize("deeper", [False, True], ids=["plane0", "plane1"])
    def test_exclusive_prefetch_to_shared_is_an_upgrade(self, deeper):
        protocol, addr, line = self._setup("directory-msi", self._shared, deeper)
        assert protocol.prefetch(0, addr, exclusive=True, time=300) is not None
        assert protocol.stats.prefetches_issued == 1
        assert protocol.stats.prefetch_upgrades == 1
        assert protocol.caches[0].secondary.probe(line) == LineState.DIRTY

    @pytest.mark.parametrize("deeper", [False, True], ids=["plane0", "plane1"])
    @pytest.mark.parametrize(
        "protocol_name,state",
        [("directory-msi", LineState.DIRTY), ("mesi", LineState.EXCLUSIVE)],
        ids=["M", "E"],
    )
    def test_exclusive_prefetch_to_an_owned_line_is_discarded(
        self, protocol_name, state, deeper
    ):
        make_state = self._modified if state == LineState.DIRTY else self._exclusive
        protocol, addr, line = self._setup(protocol_name, make_state, deeper)
        assert protocol.caches[0].secondary.probe(line) == state
        before = self._observed(protocol)
        assert protocol.prefetch(0, addr, exclusive=True, time=300) is None
        assert self._observed(protocol) == before


class TestUncached:
    def test_uncached_read_latencies(self):
        protocol, regions = make_protocol()
        lat = protocol.config.latency
        local = protocol.read_uncached(0, regions[0].addr(0), 0)
        remote = protocol.read_uncached(0, regions[1].addr(0), 0)
        assert local.retire == lat.read_fill_local - lat.uncached_discount
        assert remote.retire == lat.read_fill_home - lat.uncached_discount
        assert local.access_class is AccessClass.UNCACHED_LOCAL
        assert remote.access_class is AccessClass.UNCACHED_REMOTE

    def test_uncached_leaves_no_cache_state(self):
        protocol, regions = make_protocol()
        addr = regions[0].addr(0)
        protocol.read_uncached(0, addr, 0)
        protocol.write_uncached(1, addr, 0)
        line = protocol.line_of(addr)
        assert protocol.caches[0].secondary.probe(line) == LineState.INVALID
        assert protocol.directories[0].entry(line).state == DirState.UNOWNED


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # node
            st.sampled_from(["read", "write", "pf", "pfx"]),
            st.integers(min_value=0, max_value=60),     # line slot
        ),
        min_size=1,
        max_size=250,
    )
)
def test_property_coherence_invariants_hold(operations):
    """After any operation sequence: single writer, precise directory,
    primary subset of secondary."""
    protocol, regions = make_protocol()
    time = 0
    for node, kind, slot in operations:
        addr = regions[slot % 4].addr((slot * 16) % 8192)
        time += 1
        if kind == "read":
            protocol.read(node, addr, time)
        elif kind == "write":
            protocol.write(node, addr, time)
        elif kind == "pf":
            protocol.prefetch(node, addr, exclusive=False, time=time)
        else:
            protocol.prefetch(node, addr, exclusive=True, time=time)
    protocol.check_invariants()
