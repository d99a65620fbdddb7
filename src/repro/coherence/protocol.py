"""The invalidating directory-based coherence protocol.

This module implements the DASH-style protocol at the transaction level:
each memory operation is resolved *atomically* at its issue time — the
directory and all cache arrays are updated immediately, and the data
arrival / retirement time is computed from the Table 1 base latency plus
the queuing delay accumulated on the buses, links, and controllers along
the transaction's path.  Conflicting transactions are serialized by the
event calendar, which is behaviourally equivalent to serialization at the
home node (what DASH's directory controllers do).

The *state machine* itself — which (cache-state, directory-state, event)
combinations are legal and what each does to the caches and the home
entry — is not hard-wired here: it lives in the active spec's
declarative :class:`~repro.coherence.table.TransitionTable`.  Each
handler classifies its situation into a :class:`~repro.coherence.table.
ProtoEvent`, indexes the rule's row in the table's one compiled form
(:class:`~repro.coherence.table.CompiledTable`), branches on the row's
action flags, and applies its declared next states.  ``repro-1991 check
--proto-lint`` statically verifies the table (complete, deterministic,
live, stutter-free); this module contributes only the latency
arithmetic and the action sequencing.

Latency classification follows Table 1:

* reads — primary hit / secondary fill / local node / home node
  (home != local) / remote node (dirty third party);
* writes — owned by secondary / by local node / in home node / in remote
  node, where the reported time is the *retire* time (exclusive ownership)
  and invalidation acknowledgements complete later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import List, NamedTuple, Optional

from repro.caches import DirectMappedCache, LineState
from repro.coherence.directory import Directory, DirectoryEntry, DirState
from repro.coherence.specs import get_spec, spec_names
from repro.coherence.table import ProtoEvent, situation
from repro.config import MachineConfig
from repro.interconnect import Interconnect
from repro.memlayout import SharedMemoryAllocator
from repro.sim.engine import SimulationError


class AccessClass(enum.Enum):
    """Where in the hierarchy an access was serviced (for statistics)."""

    PRIMARY_HIT = "primary_hit"
    SECONDARY_HIT = "secondary_hit"
    LOCAL = "local"
    HOME = "home"
    REMOTE = "remote"
    UNCACHED_LOCAL = "uncached_local"
    UNCACHED_REMOTE = "uncached_remote"

    # Members are singletons, so the identity hash agrees with equality;
    # it replaces the pure-Python ``Enum.__hash__`` on the per-access
    # ``reads_by_class``/``writes_by_class`` dict bumps.
    __hash__ = object.__hash__


_PRIMARY_HIT = AccessClass.PRIMARY_HIT
_SECONDARY_HIT = AccessClass.SECONDARY_HIT
_DIR_UNOWNED = DirState.UNOWNED
_DIR_SHARED = DirState.SHARED
_DIR_DIRTY = DirState.DIRTY

#: Situation slots of the miss transitions, less the directory state
#: (see :func:`~repro.coherence.table.situation`).
_READ_MISS = situation(ProtoEvent.READ_MISS, LineState.INVALID)
_WRITE_MISS = situation(ProtoEvent.WRITE_MISS, LineState.INVALID)
_WRITE_UPGRADE = situation(ProtoEvent.WRITE_UPGRADE, LineState.SHARED)


class AccessOutcome(NamedTuple):
    """Result of one protocol transaction.

    ``retire`` is when the issuing unit may proceed (data arrival for
    reads, exclusive ownership for writes).  ``complete`` additionally
    waits for invalidation acknowledgements (equals ``retire`` when no
    invalidations were needed); release fences gate on ``complete``.
    """

    retire: int
    complete: int
    access_class: AccessClass


#: Frame-free constructor: builds the instance through the C
#: ``tuple.__new__`` (what the generated ``__new__`` ultimately calls),
#: skipping both the keyword-handling wrapper and the ``_make``
#: classmethod frame — a measurable share of miss-path time at ~2k
#: outcomes per smoke run.  The result is the same type, field for
#: field.
_OUTCOME = partial(tuple.__new__, AccessOutcome)


@dataclass
class ProtocolStats:  # srclint: ok(missing-slots) — dataclass defaults clash with __slots__ on py3.9
    """Aggregate protocol event counters."""

    reads_by_class: dict = field(default_factory=dict)
    writes_by_class: dict = field(default_factory=dict)
    invalidations_sent: int = 0
    ownership_transfers: int = 0
    #: Writes that found the line present in the secondary cache (the
    #: paper's shared-write hit-rate metric counts presence, even when
    #: an ownership upgrade is still required).
    writes_line_present: int = 0
    writes_total: int = 0
    sharing_writebacks: int = 0
    eviction_writebacks: int = 0
    prefetches_issued: int = 0
    prefetch_upgrades: int = 0
    prefetch_fills_by_class: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (fresh-run state for a reused protocol)."""
        self.reads_by_class.clear()
        self.writes_by_class.clear()
        self.prefetch_fills_by_class.clear()
        self.invalidations_sent = 0
        self.ownership_transfers = 0
        self.writes_line_present = 0
        self.writes_total = 0
        self.sharing_writebacks = 0
        self.eviction_writebacks = 0
        self.prefetches_issued = 0
        self.prefetch_upgrades = 0

    def counter_items(self):
        """``(name, value)`` for every scalar counter, plus the per-class
        dict entries flattened — the sanitizer's non-negativity sweep."""
        for name in (
            "invalidations_sent", "ownership_transfers",
            "writes_line_present", "writes_total", "sharing_writebacks",
            "eviction_writebacks", "prefetches_issued", "prefetch_upgrades",
        ):
            yield name, getattr(self, name)
        for label, counts in (
            ("reads", self.reads_by_class),
            ("writes", self.writes_by_class),
            ("prefetch_fills", self.prefetch_fills_by_class),
        ):
            for access_class, value in counts.items():
                yield f"{label}[{access_class.value}]", value

    def count_prefetch(self, access_class: AccessClass) -> None:
        self.prefetch_fills_by_class[access_class] = (
            self.prefetch_fills_by_class.get(access_class, 0) + 1
        )

    def count_read(self, access_class: AccessClass) -> None:
        self.reads_by_class[access_class] = (
            self.reads_by_class.get(access_class, 0) + 1
        )

    def count_write(self, access_class: AccessClass) -> None:
        self.writes_by_class[access_class] = (
            self.writes_by_class.get(access_class, 0) + 1
        )


@dataclass
class NodeCaches:  # srclint: ok(missing-slots) — dataclass defaults clash with __slots__ on py3.9
    """The two cache levels of one node, as seen by the protocol."""

    primary: DirectMappedCache
    secondary: DirectMappedCache


class CoherenceProtocol:  # srclint: ok(missing-slots) — Machine.interpose installs observers as instance attributes
    """Transaction engine over the directories, caches, and interconnect.

    The protocol *state machine* is the declarative
    :attr:`table`; this class sequences the rule actions and charges
    the latencies.
    """

    #: Transaction entry points an observer may wrap through
    #: :meth:`~repro.system.machine.Machine.interpose`.
    ENTRY_POINTS = ("read", "write", "prefetch", "read_uncached", "write_uncached")

    def __init__(
        self,
        config: MachineConfig,
        allocator: SharedMemoryAllocator,
        caches: List[NodeCaches],
        directories: List[Directory],
        interconnect: Interconnect,
    ) -> None:
        self.config = config
        self.allocator = allocator
        self.caches = caches
        self.directories = directories
        self.net = interconnect
        #: The registered :class:`~repro.coherence.specs.ProtocolSpec`
        #: named by ``config.protocol``; the handlers are generic over
        #: it, so the spec — not this class — decides which states
        #: exist and what each transition does.
        spec = get_spec(config.protocol)
        if not spec.runtime_supported:
            raise SimulationError(
                f"protocol {spec.name!r} is statically verified only "
                f"(no runtime support yet); runtime-capable specs: "
                + ", ".join(
                    name for name in spec_names()
                    if get_spec(name).runtime_supported
                )
            )
        self.spec = spec
        #: The declarative state machine the handlers are driven off,
        #: and its compiled form, which they read: one slot index per
        #: miss or eviction, one state-byte index per hit.
        self.table = spec.table
        self.compiled = spec.table.compile()
        self._situations = self.compiled.situations
        #: States a remote read demotes in place (the owner-capable
        #: states) and what they demote to.
        self._owner_line_states = spec.owner_states
        self._owner_state_ints = frozenset(int(s) for s in spec.owner_states)
        self._downgrade_int = int(spec.downgrade_state)
        self.stats = ProtocolStats()
        self._line_bytes = config.line_bytes
        #: Miss-path aliases: ``home_of`` and ``Directory.entry`` are
        #: one-line wrappers, so the hot handlers index the allocator's
        #: page table (``line // _page_bytes``; an unallocated page
        #: raises the allocator's own error) and the entry dicts
        #: directly — no frame per miss.  Both are mutated in place and
        #: never rebound (``Directory.reset`` leaves ``_entries`` alone).
        self._page_table = allocator.page_table
        self._page_bytes = allocator.page_bytes
        self._dir_maps = [d._entries for d in directories]
        #: Memory-event trace recorder; installed by the machine when
        #: ``MachineConfig.trace_memory_events`` is set, else ``None``.
        self.trace = None
        #: Packed cache arrays: the handlers index the caches' raw
        #: tag/state arrays directly at plane 0, which is the whole
        #: array of a direct-mapped level (every paper configuration).
        #: The arrays are aliased here — DirectMappedCache mutates them
        #: in place and never rebinds.  Per node ``(ptags, pstates,
        #: primary, stags, sstates, secondary)``: one list index
        #: resolves everything the hit checks touch.
        self._node_arrays = [
            nc.primary.packed_arrays() + (nc.primary,)
            + nc.secondary.packed_arrays() + (nc.secondary,)
            for nc in caches
        ]
        self._pri_nsets = config.primary_cache.num_sets
        self._sec_nsets = config.secondary_cache.num_sets
        #: Associative levels: a line absent from plane 0 may still sit
        #: in a deeper plane, so a plane-0 miss falls through to the
        #: cache's own (plane-searching, LRU-keeping) methods.
        self._pri_deep = config.primary_cache.ways > 1
        self._sec_deep = config.secondary_cache.ways > 1
        lat = config.latency
        # Hot-path latency scalars (frozen config; hoisted once).
        self._lat_read_primary_hit = lat.read_primary_hit
        self._lat_read_fill_secondary = lat.read_fill_secondary
        self._lat_write_owned_secondary = lat.write_owned_secondary

    # -- helpers -----------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr - (addr % self._line_bytes)

    def home_of(self, line: int) -> int:
        return self.allocator.home_of(line)

    def crosses_node_boundary(
        self, kind: str, node: int, addr: int, exclusive: bool = False
    ) -> bool:
        """Would this access reach past the issuing processor's caches
        into the memory system (bus, directory, network) — and thus be
        exposed to message faults?

        Pure probe — consults the caches without touching LRU or
        directory state, so the fault layer can ask before committing a
        transaction.  ``kind`` is one of ``read``, ``write``,
        ``prefetch``, ``read_uncached``, ``write_uncached``.
        """
        line = self.line_of(addr)
        caches = self.caches[node]
        if kind == "read":
            return (
                caches.primary.probe(line) == LineState.INVALID
                and caches.secondary.probe(line) == LineState.INVALID
            )
        if kind == "write":
            return self.compiled.write_hit[caches.secondary.probe(line)] is None
        if kind == "prefetch":
            state = caches.secondary.probe(line)
            if self.compiled.write_hit[state] is not None:
                return False  # discarded, no traffic
            if state != LineState.INVALID and not exclusive:
                return False  # discarded, no traffic
            return True
        if kind in ("read_uncached", "write_uncached"):
            # Uncached accesses always reach memory; only remote homes
            # put a message on the network.
            return self.home_of(line) != node
        raise ValueError(f"unknown access kind {kind!r}")

    def _evict(
        self, node: int, victim_line: int, victim_state: int, time: int
    ) -> None:
        """``node`` replaces ``victim_line``, held in ``victim_state``
        (a raw packed state or a :class:`LineState`), from its
        secondary cache."""
        # Inclusion: dropping a secondary line drops any primary copy
        # (packed form of ``primary.invalidate``, counter kept).
        info = self._node_arrays[node]
        pindex = (victim_line // self._line_bytes) % self._pri_nsets
        if info[0][pindex] == victim_line and info[1][pindex]:
            info[1][pindex] = 0
            info[2].invalidations_received += 1
        elif self._pri_deep:
            info[2].invalidate(victim_line)
        home = self._page_table[victim_line // self._page_bytes]
        entries = self._dir_maps[home]
        entry = entries.get(victim_line)
        if entry is None:
            entry = DirectoryEntry()
            entries[victim_line] = entry
        others = (entry.mask & ~(1 << node)) != 0
        slot = self.compiled.eviction_slots[victim_state][others] + entry.state
        row = self._situations[slot]
        if row is None:
            self.compiled.unresolved(slot)
        if row.writes_back:
            # WRITEBACK_MEMORY: write the dirty line back to home memory
            # (fire-and-forget: the write-back buffer hides its latency
            # from the evicting access, but the bandwidth is charged),
            # then release the home entry.
            self.net.charge_writeback(node, home, time)
            self.stats.eviction_writebacks += 1
            if entry.state == _DIR_DIRTY and entry.owner == node:
                entry.state = _DIR_UNOWNED
                entry.owner = None
                entry.mask = 0
        else:
            # DROP_SHARER: the clean replacement hint, modelled free.
            entry.mask &= ~(1 << node)
            if entry.state == _DIR_SHARED and not entry.mask:
                entry.state = _DIR_UNOWNED

    def _fill_secondary(
        self, node: int, line: int, state: int, sidx: int, time: int
    ) -> None:
        """Install absent ``line`` in ``node``'s secondary cache with
        ``state``; a displaced valid line goes through :meth:`_evict`."""
        info = self._node_arrays[node]
        if self._sec_deep:
            victim = info[5].insert(line, state)
            if victim is not None:
                self._evict(node, victim[0], victim[1], time)
            return
        # Packed ``insert``: the same transitions and counters (a
        # nonzero state implies a real tag, so the never-filled test is
        # subsumed).
        stags = info[3]
        sstates = info[4]
        old_tag = stags[sidx]
        old_state = sstates[sidx]
        stags[sidx] = line
        sstates[sidx] = state
        if old_state and old_tag != line:
            info[5].evictions += 1
            self._evict(node, old_tag, old_state, time)

    def _fill_primary(self, node: int, line: int, pindex: int) -> None:
        """Install ``line`` in ``node``'s primary cache (packed
        ``insert``).  Primary evictions are silent: the cache is
        write-through, so a clean copy can always be dropped without
        directory action."""
        info = self._node_arrays[node]
        if self._pri_deep:
            info[2].insert(line, LineState.SHARED)
            return
        ptags = info[0]
        pstates = info[1]
        if pstates[pindex] and ptags[pindex] != line:
            info[2].evictions += 1
        ptags[pindex] = line
        pstates[pindex] = 1  # LineState.SHARED

    def _invalidate_copies(
        self, node: int, line: int, sidx: int, pindex: int
    ) -> None:
        """Invalidate ``node``'s copies of ``line`` at both levels
        (packed form of ``cache.invalidate``, counters kept)."""
        info = self._node_arrays[node]
        if info[3][sidx] == line and info[4][sidx]:
            info[4][sidx] = 0
            info[5].invalidations_received += 1
        elif self._sec_deep:
            info[5].invalidate(line)
        if info[0][pindex] == line and info[1][pindex]:
            info[1][pindex] = 0
            info[2].invalidations_received += 1
        elif self._pri_deep:
            info[2].invalidate(line)

    # -- cached reads --------------------------------------------------------

    def read(self, node: int, addr: int, time: int) -> AccessOutcome:
        """Service a processor read at ``time``; returns data arrival."""
        line = addr - addr % self._line_bytes
        # The dominant case — a primary hit — is two list probes and a
        # dict bump.  A plane-0 miss on an associative level searches
        # the deeper planes (``touch`` moves a hit to plane 0).
        info = self._node_arrays[node]
        word = line // self._line_bytes
        index = word % self._pri_nsets
        if (info[0][index] == line and info[1][index]) or (
            self._pri_deep and info[2].touch(line)
        ):
            info[2].hits += 1
            arrival = time + self._lat_read_primary_hit
            reads = self.stats.reads_by_class
            reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
            return _OUTCOME((arrival, arrival, _PRIMARY_HIT))
        info[2].misses += 1
        sindex = word % self._sec_nsets
        state = info[4][sindex] if info[3][sindex] == line else 0
        if not state and self._sec_deep:
            state = info[5].touch(line)
        if state:
            info[5].hits += 1
            self._fill_primary(node, line, index)
            arrival = time + self._lat_read_fill_secondary
            reads = self.stats.reads_by_class
            reads[_SECONDARY_HIT] = reads.get(_SECONDARY_HIT, 0) + 1
            return _OUTCOME((arrival, arrival, _SECONDARY_HIT))
        info[5].misses += 1
        outcome = self._read_fill(node, line, time)
        self.stats.count_read(outcome.access_class)
        return outcome

    def _read_fill(self, node: int, line: int, time: int) -> AccessOutcome:
        """Secondary miss: fetch the line, classify per Table 1."""
        lat = self.config.latency
        home = self._page_table[line // self._page_bytes]
        # Inline ``Directory.entry`` (get-or-create): one dict probe in
        # the steady state instead of a delegating method frame.
        entries = self._dir_maps[home]
        entry = entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            entries[line] = entry
        slot = _READ_MISS + entry.state
        row = self._situations[slot]
        if row is None:
            self.compiled.unresolved(slot)

        net = self.net
        if row.fetches:
            owner = entry.owner
            if home == node:
                # Local home, dirty at a remote owner: two traversals.
                base = lat.read_fill_home
                delay = net.charge_fetch_owner_local(node, owner, time)
                access_class = AccessClass.HOME
            elif owner == home:
                # Dirty copy sits in the home node's own cache.
                base = lat.read_fill_home
                delay = net.charge_fetch_owner_via(node, home, home, owner, time)
                access_class = AccessClass.HOME
            else:
                # Three-party transaction: local -> home -> owner -> local.
                base = lat.read_fill_remote
                delay = net.charge_fetch_owner_remote(node, home, owner, time)
                access_class = AccessClass.REMOTE
            # DOWNGRADE_OWNER: the owner's copy (M, or E under MESI)
            # demotes to the spec's downgrade state in place, keeping
            # its LRU position.  SHARING_WRITEBACK refreshes home memory
            # (bandwidth charged, latency hidden; a no-op refresh when
            # the owner held the line clean-exclusive).
            oinfo = self._node_arrays[owner]
            sidx = (line // self._line_bytes) % self._sec_nsets
            if oinfo[3][sidx] == line and oinfo[4][sidx]:
                if oinfo[4][sidx] in self._owner_state_ints:
                    oinfo[4][sidx] = self._downgrade_int
            elif self._sec_deep:
                if oinfo[5].probe(line) in self._owner_state_ints:
                    oinfo[5].set_state(line, self._downgrade_int)
            if owner != home:
                net.charge_hop(owner, home, time + delay, data=True)
            net.charge_memory(home, time + delay)
            self.stats.sharing_writebacks += 1
            # ADD_SHARER: old owner and requester now share the line.
            entry.state = row.next_dir
            entry.mask = (1 << owner) | (1 << node)
            entry.owner = None
        else:
            # READ_MEMORY: home memory holds the valid copy.
            if home == node:
                base = lat.read_fill_local
                delay = net.charge_fill_local(node, time)
                access_class = AccessClass.LOCAL
            else:
                base = lat.read_fill_home
                delay = net.charge_fill_home(node, home, time)
                access_class = AccessClass.HOME
            # ADD_SHARER: the entry becomes (or stays) SHARED — or,
            # when the fill is exclusive (MESI's read miss to an
            # UNOWNED line), SET_OWNER names the reader as owner.
            entry.state = row.next_dir
            if row.sets_owner:
                entry.owner = node
                entry.mask = 0
            else:
                entry.mask |= 1 << node

        word = line // self._line_bytes
        self._fill_secondary(
            node, line, row.next_cache, word % self._sec_nsets, time
        )
        self._fill_primary(node, line, word % self._pri_nsets)
        arrival = time + base + delay
        return _OUTCOME((arrival, arrival, access_class))

    # -- cached writes ---------------------------------------------------------

    def write(
        self, node: int, addr: int, time: int, background: bool = False
    ) -> AccessOutcome:
        """Acquire exclusive ownership of the line containing ``addr``.

        ``retire`` is the ownership-acquired time (write-buffer retire);
        ``complete`` additionally covers invalidation acknowledgements.
        """
        line = addr - addr % self._line_bytes
        sindex = (line // self._line_bytes) % self._sec_nsets
        info = self._node_arrays[node]
        state = info[4][sindex] if info[3][sindex] == line else 0
        if not state and self._sec_deep:
            state = info[5].touch(line)
        return self._write_probed(node, addr, line, state, time, background)

    def _write_probed(
        self,
        node: int,
        addr: int,
        line: int,
        state: int,
        time: int,
        background: bool = False,
    ) -> AccessOutcome:
        """Everything :meth:`write` does after its probe: ``state`` is
        ``line``'s raw secondary state, already moved to plane 0 when it
        was found in a deeper one.  The memory interface's fused write
        probe hands its misses straight here, as its read probe hands
        secondary misses to :meth:`_read_fill`."""
        stats = self.stats
        info = self._node_arrays[node]
        word = line // self._line_bytes
        if state:
            info[5].hits += 1
            stats.writes_line_present += 1
        else:
            info[5].misses += 1
        stats.writes_total += 1
        hit = self.compiled.write_hit[state]
        if hit is not None:  # secondary-owned write hit (M, or E)
            # MESI's silent upgrade: an E copy becomes M with no
            # message (a no-op store for M itself).
            info[4][word % self._sec_nsets] = hit.next_cache
            retire = time + self._lat_write_owned_secondary
            writes = stats.writes_by_class
            writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
            outcome = _OUTCOME((retire, retire, _SECONDARY_HIT))
        else:
            outcome = self._acquire_ownership(
                node, line, time, had_shared=state, background=background
            )
            writes = stats.writes_by_class
            access_class = outcome[2]
            writes[access_class] = writes.get(access_class, 0) + 1
        # Write-through primary: refresh a present copy, as a re-insert
        # would (tag match on an invalid way is not presence; a deeper
        # copy moves to plane 0).
        pindex = word % self._pri_nsets
        if (info[0][pindex] == line and info[1][pindex]) or (
            self._pri_deep and info[2].touch(line)
        ):
            info[1][pindex] = 1  # LineState.SHARED
        if self.trace is not None:
            self.trace.record_write(
                node, addr, time, outcome.retire, outcome.complete,
                outcome.access_class.value,
            )
        return outcome

    def _acquire_ownership(
        self,
        node: int,
        line: int,
        time: int,
        had_shared: int,
        background: bool = False,
    ) -> AccessOutcome:
        lat = self.config.latency
        home = self._page_table[line // self._page_bytes]
        # Inline ``Directory.entry`` (get-or-create), as in _read_fill.
        entries = self._dir_maps[home]
        entry = entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            entries[line] = entry
        slot = (_WRITE_UPGRADE if had_shared else _WRITE_MISS) + entry.state
        row = self._situations[slot]
        if row is None:
            self.compiled.unresolved(slot)
        ack_extra = 0

        net = self.net
        word = line // self._line_bytes
        sidx = word % self._sec_nsets
        pindex = word % self._pri_nsets
        if row.fetches:
            owner = entry.owner
            self.stats.ownership_transfers += 1
            if owner == home or home == node:
                base = lat.write_owned_home
                via = home if home != node else owner
                delay = net.charge_fetch_owner_via(
                    node, via, home, owner, time, background=background
                )
                access_class = AccessClass.HOME
            else:
                base = lat.write_owned_remote
                delay = net.charge_fetch_owner_remote(
                    node, home, owner, time, background=background
                )
                access_class = AccessClass.REMOTE
            # INVALIDATE_OWNER: the transfer invalidates the previous
            # owner's copies at both levels.
            self._invalidate_copies(owner, line, sidx, pindex)
            self.stats.invalidations_sent += 1
        else:
            # READ_MEMORY, plus INVALIDATE_SHARERS when the entry lists
            # other caches (the mask is empty on an UNOWNED miss, so the
            # invalidation loop below degenerates to a no-op there).
            sharer_mask = entry.mask & ~(1 << node)
            if home == node:
                base = lat.write_owned_local
                delay = net.charge_write_local(node, time, background=background)
                access_class = AccessClass.LOCAL
            else:
                base = lat.write_owned_home
                delay = net.charge_fill_home(
                    node, home, time, background=background
                )
                access_class = AccessClass.HOME
            # Point-to-point invalidations to every other sharer, in
            # ascending node order (lowest set bit first — identical to
            # the sorted-set order the set representation used); the
            # requester retires at ownership, acknowledgements trail.
            while sharer_mask:
                low = sharer_mask & -sharer_mask
                sharer = low.bit_length() - 1
                sharer_mask ^= low
                self._invalidate_copies(sharer, line, sidx, pindex)
                net.charge_invalidation(home, sharer, node, time + delay, background)
                self.stats.invalidations_sent += 1
                ack_time = (
                    lat.invalidation_ack_local
                    if sharer == home == node
                    else lat.invalidation_ack_remote
                )
                ack_extra = max(ack_extra, ack_time)

        # SET_OWNER: the requester becomes the exclusive owner.
        entry.state = row.next_dir
        entry.owner = node
        entry.mask = 0

        info = self._node_arrays[node]
        if not had_shared:
            self._fill_secondary(node, line, row.next_cache, sidx, time)
        elif info[3][sidx] == line and info[4][sidx]:
            # Upgrade in place, keeping LRU order (packed ``set_state``).
            info[4][sidx] = row.next_cache
        else:
            # A deeper plane — or ``set_state``'s not-resident KeyError.
            info[5].set_state(line, row.next_cache)

        retire = time + base + delay
        return _OUTCOME((retire, retire + ack_extra, access_class))

    # -- prefetches ------------------------------------------------------------

    def prefetch(
        self, node: int, addr: int, exclusive: bool, time: int
    ) -> Optional[AccessOutcome]:
        """Fetch a line ahead of use (non-binding, Section 5.1).

        Returns None when the secondary cache already satisfies the
        prefetch (it is discarded); otherwise behaves like a read fill or
        ownership acquisition and fills *both* cache levels on return.
        """
        line = self.line_of(addr)
        state = self.caches[node].secondary.probe(line)
        if self.compiled.write_hit[state] is not None or (
            state != LineState.INVALID and not exclusive
        ):
            return None
        self.stats.prefetches_issued += 1
        if exclusive:
            if state == LineState.SHARED:
                self.stats.prefetch_upgrades += 1
            outcome = self._acquire_ownership(node, line, time, had_shared=state)
        else:
            outcome = self._read_fill(node, line, time)
        self.stats.count_prefetch(outcome.access_class)
        # Prefetch responses are placed in both caches (Section 5.1).
        self._fill_primary(
            node, line, (line // self._line_bytes) % self._pri_nsets
        )
        return outcome

    # -- uncached accesses ---------------------------------------------------

    def read_uncached(self, node: int, addr: int, time: int) -> AccessOutcome:
        """Shared read with shared-data caching disabled (Section 3).

        The latency is the corresponding memory latency minus the fill
        overhead (five to ten cycles less than Table 1).
        """
        line = self.line_of(addr)
        lat = self.config.latency
        home = self.home_of(line)
        if home == node:
            base = lat.read_fill_local - lat.uncached_discount
            delay = self.net.charge_bus(node, time, data=True)
            delay += self.net.charge_memory(home, time + delay)
            access_class = AccessClass.UNCACHED_LOCAL
        else:
            base = lat.read_fill_home - lat.uncached_discount
            delay = self.net.charge_bus(node, time, data=False)
            delay += self.net.charge_hop(node, home, time + delay, data=False)
            delay += self.net.charge_memory(home, time + delay)
            delay += self.net.charge_hop(home, node, time + delay, data=True)
            access_class = AccessClass.UNCACHED_REMOTE
        arrival = time + base + delay
        self.stats.count_read(access_class)
        return _OUTCOME((arrival, arrival, access_class))

    def write_uncached(
        self, node: int, addr: int, time: int, background: bool = False
    ) -> AccessOutcome:
        line = self.line_of(addr)
        lat = self.config.latency
        home = self.home_of(line)
        if home == node:
            base = lat.write_owned_local - lat.uncached_discount
            delay = self.net.charge_bus(node, time, data=True, background=background)
            delay += self.net.charge_memory(home, time + delay, background=background)
            access_class = AccessClass.UNCACHED_LOCAL
        else:
            base = lat.write_owned_home - lat.uncached_discount
            delay = self.net.charge_bus(node, time, data=True, background=background)
            delay += self.net.charge_hop(node, home, time + delay, data=True, background=background)
            delay += self.net.charge_memory(home, time + delay, background=background)
            access_class = AccessClass.UNCACHED_REMOTE
        retire = time + base + delay
        self.stats.count_write(access_class)
        outcome = _OUTCOME((retire, retire, access_class))
        if self.trace is not None:
            self.trace.record_write(
                node, addr, time, outcome.retire, outcome.complete,
                access_class.value,
            )
        return outcome

    # -- invariants (used by tests) --------------------------------------------

    def check_invariants(self) -> None:
        """Check global coherence invariants over all state.

        Raises :class:`~repro.sim.engine.SimulationError` on violation
        (not a bare ``assert``, so the checks survive ``python -O``).
        """
        num_nodes = len(self.caches)
        owner_states = self._owner_line_states
        dirty_holders = {}
        sharers_seen = {}
        for node in range(num_nodes):
            for line, state in self.caches[node].secondary.resident_lines():
                if state in owner_states:
                    if line in dirty_holders:
                        raise SimulationError(
                            f"two exclusive/dirty copies of line {line:#x} "
                            f"(nodes {dirty_holders[line]} and {node})"
                        )
                    dirty_holders[line] = node
                sharers_seen.setdefault(line, set()).add(node)
            for line, _state in self.caches[node].primary.resident_lines():
                if self.caches[node].secondary.probe(line) == LineState.INVALID:
                    raise SimulationError(
                        f"primary/secondary inclusion violated for line "
                        f"{line:#x} at node {node}"
                    )
        for home in range(num_nodes):
            for line in self.directories[home].known_lines():
                entry = self.directories[home].entry(line)
                entry.check()
                holders = sharers_seen.get(line, set())
                if entry.state == DirState.DIRTY:
                    if dirty_holders.get(line) != entry.owner:
                        raise SimulationError(
                            f"line {line:#x} DIRTY with owner {entry.owner} "
                            f"but dirty copy at {dirty_holders.get(line)}"
                        )
                    if holders != {entry.owner}:
                        raise SimulationError(
                            f"line {line:#x} DIRTY at owner {entry.owner} "
                            f"but cached by {holders}"
                        )
                elif entry.state == DirState.SHARED:
                    if line in dirty_holders:
                        raise SimulationError(
                            f"line {line:#x} SHARED in directory but dirty "
                            f"at node {dirty_holders[line]}"
                        )
                    if holders != entry.sharers:
                        raise SimulationError(
                            f"line {line:#x} sharers {entry.sharers} do not "
                            f"match cached copies {holders}"
                        )
                else:
                    if holders:
                        raise SimulationError(
                            f"line {line:#x} UNOWNED but cached by {holders}"
                        )
