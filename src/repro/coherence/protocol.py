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
entry — is not hard-wired here: it lives in the declarative
:data:`~repro.coherence.table.DIRECTORY_PROTOCOL_TABLE`.  Each handler
classifies its situation into a :class:`~repro.coherence.table.
ProtoEvent`, looks up the unique :class:`~repro.coherence.table.Rule`,
branches on the rule's action set, and applies the rule's declared next
states.  ``repro-1991 check --proto-lint`` statically verifies the table
(complete, deterministic, live, stutter-free); this module contributes
only the latency arithmetic and the action sequencing.

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
from typing import List, NamedTuple, Optional, Tuple

from repro.caches import DirectMappedCache, LineState
from repro.coherence.directory import Directory, DirectoryEntry, DirState
from repro.coherence.specs import get_spec, spec_names
from repro.coherence.table import (
    Action,
    ProtocolTableError,
    ProtoEvent,
    Rule,
)
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


class CoherenceProtocol:  # srclint: ok(missing-slots) — sanitizer/fault layers rebind instance methods
    """Transaction engine over the directories, caches, and interconnect.

    The protocol *state machine* is the declarative
    :attr:`table`; this class sequences the rule actions and charges
    the latencies.
    """

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
        #: The declarative state machine the handlers are driven off.
        self.table = spec.table
        #: Hit rules resolved once per instance: by directory precision
        #: a resident state pins the home entry (SHARED copies pin
        #: SHARED; owner states pin DIRTY), so the handlers need not
        #: consult the directory on a hit.  Raw-int views serve the
        #: packed fast paths, where the cache state arrives as a plain
        #: byte.  Read hits are state-preserving in every registered
        #: spec (protolint's stutter pass), so only write hits carry a
        #: next-state map (MESI's silent E -> M upgrade).
        self._read_hit_rules = {
            r.cache_state: r
            for r in self.table.rules
            if r.event is ProtoEvent.READ_HIT
        }
        self._read_hit_rule_by_int = {
            int(s): r for s, r in self._read_hit_rules.items()
        }
        self._read_hit_fills = {
            int(s): Action.FILL_FROM_CACHE in r.action_set
            for s, r in self._read_hit_rules.items()
        }
        self._write_hit_rules = {
            r.cache_state: r
            for r in self.table.rules
            if r.event is ProtoEvent.WRITE_HIT
        }
        self._write_hit_by_int = {
            int(s): r for s, r in self._write_hit_rules.items()
        }
        self._write_hit_fills = {
            int(s): Action.FILL_FROM_CACHE in r.action_set
            for s, r in self._write_hit_rules.items()
        }
        self._write_hit_next_by_int = {
            int(s): int(r.next_cache_state)
            for s, r in self._write_hit_rules.items()
        }
        #: Gate for the processors' inline SC write probe: the M-state
        #: write hit must exist, fill from cache, and preserve M for the
        #: probe's fixed ``state == 2`` fast path to be faithful.
        _m = int(LineState.DIRTY)
        self._write_hit_inline_ok = bool(
            self._write_hit_fills.get(_m)
            and self._write_hit_next_by_int.get(_m) == _m
        )
        #: States a remote read demotes in place (the owner-capable
        #: states) and what they demote to; local-write-complete states
        #: for the prefetch/fault-exposure probes.
        self._owner_line_states = spec.owner_states
        self._owner_state_ints = frozenset(int(s) for s in spec.owner_states)
        self._downgrade_state = spec.downgrade_state
        self._downgrade_int = int(spec.downgrade_state)
        self._write_hit_states = spec.write_hit_states()
        #: Replacement event per resident state (MESI adds the
        #: clean-exclusive notification, ``EVICT_EXCLUSIVE``).
        self._eviction_events = {
            r.cache_state: r.event
            for r in self.table.rules
            if r.event in (
                ProtoEvent.EVICT_CLEAN,
                ProtoEvent.EVICT_DIRTY,
                ProtoEvent.EVICT_EXCLUSIVE,
            )
        }
        #: Eviction dispatch, ``(victim_state, dir_state, others_cached)
        #: -> (rule, writes_back)``, filled lazily by
        #: :meth:`_eviction_rule` from ``table.lookup`` alone.
        self._eviction_rules = {}
        #: Precomputed unguarded dispatch over the table: read/write
        #: transitions resolve with one tuple-keyed dict probe; a miss
        #: falls back to ``table.lookup`` for the full error surface.
        self._dispatch = self.table.dispatch_index()
        #: Miss rules re-indexed by directory state (the only varying
        #: key coordinate once the event is known): ``(rule, fetches,
        #: sets_owner)`` triples pre-resolving the ``FETCH_FROM_OWNER``
        #: and ``SET_OWNER`` membership tests (the latter distinguishes
        #: MESI's exclusive read fill from a shared one).  ``None``
        #: marks a combination the dispatch index does not cover — the
        #: handlers fall back to ``table.lookup`` there for the full
        #: error surface.  Replaces a 3-tuple construction plus three
        #: enum hashes per miss with one list index.
        dispatch = self._dispatch

        def _rule_pair(key):
            rule = dispatch.get(key)
            if rule is None:
                return None
            return (
                rule,
                Action.FETCH_FROM_OWNER in rule.action_set,
                Action.SET_OWNER in rule.action_set,
            )

        _DIR_STATES = (DirState.UNOWNED, DirState.SHARED, DirState.DIRTY)
        self._read_miss_rules = [
            _rule_pair((LineState.INVALID, ds, ProtoEvent.READ_MISS))
            for ds in _DIR_STATES
        ]
        self._write_rules = [
            [
                _rule_pair((LineState.INVALID, ds, ProtoEvent.WRITE_MISS))
                for ds in _DIR_STATES
            ],
            [
                _rule_pair((LineState.SHARED, ds, ProtoEvent.WRITE_UPGRADE))
                for ds in _DIR_STATES
            ],
        ]
        self.stats = ProtocolStats()
        self._line_bytes = config.line_bytes
        #: Miss-path aliases: ``home_of`` and ``Directory.entry`` are
        #: one-line wrappers, so the hot handlers bind the underlying
        #: allocator method and entry dicts directly — one frame and one
        #: attribute chain fewer per miss.  ``_entries`` is mutated in
        #: place and never rebound (``Directory.reset`` leaves it alone).
        self._home_of = allocator.home_of
        self._dir_maps = [d._entries for d in directories]
        #: Memory-event trace recorder; installed by the machine when
        #: ``MachineConfig.trace_memory_events`` is set, else ``None``.
        self.trace = None
        #: Packed-array fast path: with both levels direct-mapped (every
        #: paper configuration) the hit checks index the caches' raw
        #: tag/state arrays directly.  The arrays are aliased here —
        #: DirectMappedCache mutates them in place and never rebinds.
        self._fast = bool(caches) and all(
            nc.primary.packed_arrays() is not None
            and nc.secondary.packed_arrays() is not None
            for nc in caches
        )
        if self._fast:
            self._primary_arrays = [nc.primary.packed_arrays() for nc in caches]
            self._secondary_arrays = [nc.secondary.packed_arrays() for nc in caches]
            self._pri_sets = caches[0].primary.geometry.num_sets
            self._sec_sets = caches[0].secondary.geometry.num_sets
            #: Per-node ``(ptags, pstates, primary, stags, sstates,
            #: secondary)`` — one list index resolves everything the hit
            #: checks touch.
            self._fast_info = [
                pa + (nc.primary,) + sa + (nc.secondary,)
                for nc, pa, sa in zip(
                    caches, self._primary_arrays, self._secondary_arrays
                )
            ]
        else:
            self._primary_arrays = self._secondary_arrays = None
            self._fast_info = None
            self._pri_sets = self._sec_sets = 0
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
            return caches.secondary.probe(line) not in self._write_hit_states
        if kind == "prefetch":
            state = caches.secondary.probe(line)
            if state in self._write_hit_states:
                return False  # discarded, no traffic
            if state != LineState.INVALID and not exclusive:
                return False  # discarded, no traffic
            return True
        if kind in ("read_uncached", "write_uncached"):
            # Uncached accesses always reach memory; only remote homes
            # put a message on the network.
            return self.home_of(line) != node
        raise ValueError(f"unknown access kind {kind!r}")

    def _install_primary(self, node: int, line: int) -> None:
        # Primary evictions are silent: the cache is write-through, so a
        # clean copy can always be dropped without directory action.
        self.caches[node].primary.insert(line, LineState.SHARED)

    def _install_secondary(
        self, node: int, line: int, state: LineState, time: int
    ) -> None:
        victim = self.caches[node].secondary.insert(line, state)
        if victim is not None:
            self._evict(node, victim[0], victim[1], time)

    def _evict(
        self, node: int, victim_line: int, victim_state: int, time: int
    ) -> None:
        """``node`` replaces ``victim_line``, held in ``victim_state``
        (a raw packed state or a :class:`LineState`), from its
        secondary cache."""
        # Inclusion: dropping a secondary line drops any primary copy
        # (packed form of ``primary.invalidate``, counter kept).
        fast = self._fast_info
        if fast is not None:
            info = fast[node]
            pindex = (victim_line // self._line_bytes) % self._pri_sets
            if info[0][pindex] == victim_line and info[1][pindex]:
                info[1][pindex] = 0
                info[2].invalidations_received += 1
        else:
            self.caches[node].primary.invalidate(victim_line)
        home = self._home_of(victim_line)
        entries = self._dir_maps[home]
        entry = entries.get(victim_line)
        if entry is None:
            entry = DirectoryEntry()
            entries[victim_line] = entry
        others = (entry.mask & ~(1 << node)) != 0
        resolved = self._eviction_rules.get((victim_state, entry.state, others))
        if resolved is None:
            resolved = self._eviction_rule(victim_state, entry.state, others)
        if resolved[1]:
            # WRITEBACK_MEMORY: write the dirty line back to home memory
            # (fire-and-forget: the write-back buffer hides its latency
            # from the evicting access, but the bandwidth is charged),
            # then release the home entry.
            net = self.net
            net.charge_bus(node, time, data=True, background=True)
            if home != node:
                net.charge_hop(node, home, time, data=True, background=True)
            net.charge_memory(home, time, background=True)
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

    def _eviction_rule(
        self, victim_state: int, dir_state: DirState, others: bool
    ) -> Tuple[Rule, bool]:
        """Resolve and cache ``(rule, writes_back)`` for an eviction
        situation.  Only a successful ``table.lookup`` is cached, so an
        uncovered or declared-impossible situation raises
        :class:`ProtocolTableError` on every call."""
        state = LineState(victim_state)
        event = self._eviction_events[state]
        # Dirty and clean-exclusive victims notify the home
        # unconditionally; only a clean eviction's rule key carries the
        # other-sharers guard.
        rule = self.table.lookup(
            state, dir_state, event,
            others if event is ProtoEvent.EVICT_CLEAN else None,
        )
        writes_back = Action.WRITEBACK_MEMORY in rule.action_set
        if not writes_back and Action.DROP_SHARER not in rule.action_set:
            raise SimulationError(
                f"eviction rule {rule.name!r} names no directory action"
            )
        resolved = self._eviction_rules[(victim_state, dir_state, others)] = (
            rule, writes_back,
        )
        return resolved

    # -- cached reads --------------------------------------------------------

    def read(self, node: int, addr: int, time: int) -> AccessOutcome:
        """Service a processor read at ``time``; returns data arrival."""
        line = addr - addr % self._line_bytes
        if self._fast:
            # Packed fast path: identical transitions and counter
            # updates to the generic path below, minus the per-level
            # method dispatch.  The dominant case — a primary hit — is
            # two list probes and a dict bump.
            info = self._fast_info[node]
            word = line // self._line_bytes
            index = word % self._pri_sets
            if info[0][index] == line and info[1][index]:
                info[2].hits += 1
                arrival = time + self._lat_read_primary_hit
                reads = self.stats.reads_by_class
                reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
                return _OUTCOME((arrival, arrival, _PRIMARY_HIT))
            info[2].misses += 1
            sindex = word % self._sec_sets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state:
                info[5].hits += 1
                if not self._read_hit_fills[state]:
                    rule = self._read_hit_rule_by_int[state]
                    raise ProtocolTableError(
                        f"read-hit rule does not fill from cache: "
                        f"{rule.describe()}"
                    )
                # Packed primary fill (``_install_primary`` inlined:
                # write-through level, silent eviction, counter kept).
                pindex = word % self._pri_sets
                ptags = info[0]
                pstates = info[1]
                if pstates[pindex] and ptags[pindex] != line:
                    info[2].evictions += 1
                ptags[pindex] = line
                pstates[pindex] = 1  # LineState.SHARED
                arrival = time + self._lat_read_fill_secondary
                reads = self.stats.reads_by_class
                reads[_SECONDARY_HIT] = reads.get(_SECONDARY_HIT, 0) + 1
                return _OUTCOME((arrival, arrival, _SECONDARY_HIT))
            info[5].misses += 1
            outcome = self._read_fill(node, line, time)
            self.stats.count_read(outcome.access_class)
            return outcome
        lat = self.config.latency
        caches = self.caches[node]
        if caches.primary.lookup(line) != LineState.INVALID:
            outcome = _OUTCOME((
                time + lat.read_primary_hit,
                time + lat.read_primary_hit,
                AccessClass.PRIMARY_HIT,
            ))
            self.stats.count_read(outcome.access_class)
            return outcome
        state = caches.secondary.lookup(line)
        if state != LineState.INVALID:
            rule = self._read_hit_rules[state]
            if Action.FILL_FROM_CACHE not in rule.action_set:
                raise ProtocolTableError(
                    f"read-hit rule does not fill from cache: {rule.describe()}"
                )
            self._install_primary(node, line)
            arrival = time + lat.read_fill_secondary
            self.stats.count_read(AccessClass.SECONDARY_HIT)
            return _OUTCOME((arrival, arrival, AccessClass.SECONDARY_HIT))
        outcome = self._read_fill(node, line, time)
        self.stats.count_read(outcome.access_class)
        return outcome

    def _read_fill(self, node: int, line: int, time: int) -> AccessOutcome:
        """Secondary miss: fetch the line, classify per Table 1."""
        lat = self.config.latency
        home = self._home_of(line)
        # Inline ``Directory.entry`` (get-or-create): one dict probe in
        # the steady state instead of a delegating method frame.
        entries = self._dir_maps[home]
        entry = entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            entries[line] = entry
        pair = self._read_miss_rules[entry.state]
        if pair is None:  # uncovered/impossible: full lookup error surface
            rule = self.table.lookup(
                LineState.INVALID, entry.state, ProtoEvent.READ_MISS
            )
            pair = (
                rule,
                Action.FETCH_FROM_OWNER in rule.action_set,
                Action.SET_OWNER in rule.action_set,
            )
        rule, fetches, sets_owner = pair

        net = self.net
        fast = self._fast_info
        if fetches:
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
            # demotes to the spec's downgrade state in place.
            # SHARING_WRITEBACK refreshes home memory (bandwidth
            # charged, latency hidden; a no-op refresh when the owner
            # held the line clean-exclusive).
            if fast is not None:
                oinfo = fast[owner]
                sidx = (line // self._line_bytes) % self._sec_sets
                if (
                    oinfo[3][sidx] == line
                    and oinfo[4][sidx] in self._owner_state_ints
                ):
                    oinfo[4][sidx] = self._downgrade_int
            elif self.caches[owner].secondary.probe(line) in self._owner_line_states:
                self.caches[owner].secondary.set_state(line, self._downgrade_state)
            if owner != home:
                net.charge_hop(owner, home, time + delay, data=True)
            net.charge_memory(home, time + delay)
            self.stats.sharing_writebacks += 1
            # ADD_SHARER: old owner and requester now share the line.
            entry.state = rule.next_dir_state
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
            entry.state = rule.next_dir_state
            if sets_owner:
                entry.owner = node
                entry.mask = 0
            else:
                entry.mask |= 1 << node

        if fast is not None:
            # Packed installs — same transitions and counters as
            # ``_install_secondary`` + ``_install_primary`` (a displaced
            # valid secondary line still goes through ``_evict``; a
            # nonzero state implies a real tag, so the ``!= -1`` test of
            # ``insert`` is subsumed).
            info = fast[node]
            word = line // self._line_bytes
            sidx = word % self._sec_sets
            stags = info[3]
            sstates = info[4]
            old_tag = stags[sidx]
            old_state = sstates[sidx]
            stags[sidx] = line
            sstates[sidx] = rule.next_cache_state
            if old_state and old_tag != line:
                info[5].evictions += 1
                self._evict(node, old_tag, old_state, time)
            pindex = word % self._pri_sets
            ptags = info[0]
            pstates = info[1]
            if pstates[pindex] and ptags[pindex] != line:
                info[2].evictions += 1
            ptags[pindex] = line
            pstates[pindex] = 1  # write-through level: silent eviction
        else:
            self._install_secondary(node, line, rule.next_cache_state, time)
            self._install_primary(node, line)
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
        stats = self.stats
        if self._fast:
            # Packed fast path — same transitions/counters as below.
            info = self._fast_info[node]
            word = line // self._line_bytes
            sindex = word % self._sec_sets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state:
                info[5].hits += 1
            else:
                info[5].misses += 1
            stats.writes_total += 1
            if state:
                stats.writes_line_present += 1
            whit = self._write_hit_by_int.get(state)
            if whit is not None:  # secondary-owned write hit (M, or E)
                if not self._write_hit_fills[state]:
                    raise ProtocolTableError(
                        "write-hit rule does not fill from cache: "
                        f"{whit.describe()}"
                    )
                # MESI's silent upgrade: an E copy becomes M with no
                # message (a no-op store for M itself).
                info[4][sindex] = self._write_hit_next_by_int[state]
                # Write-through primary: refresh the copy if present
                # (tag match on an invalid way is not presence).
                pindex = word % self._pri_sets
                if info[0][pindex] == line and info[1][pindex]:
                    info[1][pindex] = 1  # LineState.SHARED
                retire = time + self._lat_write_owned_secondary
                writes = stats.writes_by_class
                writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
                outcome = _OUTCOME((retire, retire, _SECONDARY_HIT))
            else:
                outcome = self._acquire_ownership(
                    node, line, time, had_shared=state, background=background
                )
                stats.count_write(outcome.access_class)
                # Refresh a present write-through primary copy in place
                # (probe-then-insert inlined: a tag match with a valid
                # state can only re-install as SHARED, no eviction).
                pindex = word % self._pri_sets
                if info[0][pindex] == line and info[1][pindex]:
                    info[1][pindex] = 1  # LineState.SHARED
            if self.trace is not None:
                self.trace.record_write(
                    node, addr, time, outcome.retire, outcome.complete,
                    outcome.access_class.value,
                )
            return outcome
        lat = self.config.latency
        caches = self.caches[node]
        state = caches.secondary.lookup(line)
        self.stats.writes_total += 1
        if state != LineState.INVALID:
            self.stats.writes_line_present += 1

        whit = self._write_hit_rules.get(state)
        if whit is not None:
            if Action.FILL_FROM_CACHE not in whit.action_set:
                raise ProtocolTableError(
                    "write-hit rule does not fill from cache: "
                    f"{whit.describe()}"
                )
            if whit.next_cache_state != state:
                # MESI's silent upgrade: E -> M with no message.
                caches.secondary.set_state(line, whit.next_cache_state)
            # Write-through primary: refresh the primary copy if present.
            if caches.primary.probe(line) != LineState.INVALID:
                caches.primary.insert(line, LineState.SHARED)
            retire = time + lat.write_owned_secondary
            self.stats.count_write(AccessClass.SECONDARY_HIT)
            outcome = _OUTCOME((retire, retire, AccessClass.SECONDARY_HIT))
        else:
            outcome = self._acquire_ownership(
                node, line, time, had_shared=state, background=background
            )
            self.stats.count_write(outcome.access_class)
            if caches.primary.probe(line) != LineState.INVALID:
                caches.primary.insert(line, LineState.SHARED)
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
        had_shared: LineState,
        background: bool = False,
    ) -> AccessOutcome:
        lat = self.config.latency
        home = self._home_of(line)
        # Inline ``Directory.entry`` (get-or-create), as in _read_fill.
        entries = self._dir_maps[home]
        entry = entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            entries[line] = entry
        pair = self._write_rules[1 if had_shared else 0][entry.state]
        if pair is None:  # uncovered/impossible: full lookup error surface
            event = (
                ProtoEvent.WRITE_MISS
                if had_shared == LineState.INVALID
                else ProtoEvent.WRITE_UPGRADE
            )
            rule = self.table.lookup(had_shared, entry.state, event)
            pair = (
                rule,
                Action.FETCH_FROM_OWNER in rule.action_set,
                Action.SET_OWNER in rule.action_set,
            )
        rule, fetches, _sets_owner = pair
        ack_extra = 0

        net = self.net
        fast = self._fast_info
        word = line // self._line_bytes
        if fetches:
            owner = entry.owner
            self.stats.ownership_transfers += 1
            if owner == home or home == node:
                base = lat.write_owned_home
                via = home if home != node else owner
                delay = net.charge_fetch_owner_via(
                    node, via, home, owner, time, background=background
                )
            else:
                base = lat.write_owned_remote
                delay = net.charge_fetch_owner_remote(
                    node, home, owner, time, background=background
                )
            access_class = (
                AccessClass.REMOTE if base == lat.write_owned_remote else AccessClass.HOME
            )
            # INVALIDATE_OWNER: the transfer invalidates the previous
            # owner's copies (packed form of ``cache.invalidate`` at
            # both levels, counters kept honest).
            if fast is not None:
                oinfo = fast[owner]
                sidx = word % self._sec_sets
                if oinfo[3][sidx] == line and oinfo[4][sidx]:
                    oinfo[4][sidx] = 0
                    oinfo[5].invalidations_received += 1
                pindex = word % self._pri_sets
                if oinfo[0][pindex] == line and oinfo[1][pindex]:
                    oinfo[1][pindex] = 0
                    oinfo[2].invalidations_received += 1
            else:
                self.caches[owner].secondary.invalidate(line)
                self.caches[owner].primary.invalidate(line)
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
            if fast is not None:
                sidx = word % self._sec_sets
                pindex = word % self._pri_sets
            while sharer_mask:
                low = sharer_mask & -sharer_mask
                sharer = low.bit_length() - 1
                sharer_mask ^= low
                if fast is not None:
                    sinfo = fast[sharer]
                    if sinfo[3][sidx] == line and sinfo[4][sidx]:
                        sinfo[4][sidx] = 0
                        sinfo[5].invalidations_received += 1
                    if sinfo[0][pindex] == line and sinfo[1][pindex]:
                        sinfo[1][pindex] = 0
                        sinfo[2].invalidations_received += 1
                else:
                    self.caches[sharer].secondary.invalidate(line)
                    self.caches[sharer].primary.invalidate(line)
                net.charge_hop(home, sharer, time + delay, data=False, background=background)
                net.charge_hop(sharer, node, time + delay, data=False, background=background)
                self.stats.invalidations_sent += 1
                ack_time = (
                    lat.invalidation_ack_local
                    if sharer == home == node
                    else lat.invalidation_ack_remote
                )
                ack_extra = max(ack_extra, ack_time)

        # SET_OWNER: the requester becomes the exclusive owner.
        entry.state = rule.next_dir_state
        entry.owner = node
        entry.mask = 0

        if fast is not None:
            # Packed install/upgrade — mirrors ``_install_secondary``
            # (miss) and ``set_state`` (upgrade, including its
            # not-resident error) without the method frames.
            info = fast[node]
            sidx = word % self._sec_sets
            stags = info[3]
            sstates = info[4]
            if had_shared:
                if stags[sidx] != line or not sstates[sidx]:
                    raise KeyError(f"line {line:#x} not resident")
                sstates[sidx] = rule.next_cache_state
            else:
                old_tag = stags[sidx]
                old_state = sstates[sidx]
                stags[sidx] = line
                sstates[sidx] = rule.next_cache_state
                if old_state and old_tag != line:
                    info[5].evictions += 1
                    self._evict(node, old_tag, old_state, time)
        elif had_shared == LineState.INVALID:
            self._install_secondary(node, line, rule.next_cache_state, time)
        else:
            self.caches[node].secondary.set_state(line, rule.next_cache_state)

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
        if state in self._write_hit_states or (
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
        self._install_primary(node, line)
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
