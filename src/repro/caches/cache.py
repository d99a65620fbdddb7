"""Cache arrays.

Both cache levels of the DASH processor environment are direct-mapped
with 16-byte lines.  The primary cache is write-through (lines are only
VALID or absent); the secondary cache is write-back and participates in
the coherence protocol (lines are SHARED or DIRTY).

Only *shared* data flows through these caches; instruction and private
references are assumed to hit, as in the paper (Section 2.3, footnote 2).

:class:`DirectMappedCache` also supports set-associative geometries with
LRU replacement (``CacheGeometry.ways > 1``) for the interference
ablations; the paper's experiments all use ``ways=1``.

Every geometry uses one packed, way-major layout: a flat ``_tags`` list
(line base addresses, ``-1`` for never-filled) and a ``_states``
bytearray of raw :class:`LineState` values, each with ``num_sets *
ways`` slots.  Way ``k`` of set ``i`` lives at slot ``i + k * num_sets``,
so plane 0 (slots ``0 .. num_sets - 1``) is exactly the direct-mapped
array.  Plane order is LRU order: plane 0 holds a set's most recently
used line.  An invalidation leaves a hole (state 0) in place; an insert
takes the set's first hole, or evicts its last plane, shifting the
planes above down by one.  The protocol's hot paths probe plane 0 with
plain integer indexing via :meth:`DirectMappedCache.packed_arrays` and
never construct an enum; only an associative plane-0 miss calls back
into the cache.  The public API still speaks :class:`LineState` members.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


from repro.config import CacheGeometry


class LineState(enum.IntEnum):
    """Coherence state of a cached line.

    The base directory-MSI protocol uses the first three members.
    ``EXCLUSIVE`` (clean, sole copy) is used by the MESI runtime
    protocol; ``OWNED`` (dirty, shared responsibility) appears only in
    the abstract MOESI :class:`~repro.coherence.specs.ProtocolSpec` —
    the runtime never installs it.
    """

    INVALID = 0
    SHARED = 1     # clean, possibly one of several copies
    DIRTY = 2      # exclusive, modified (secondary cache only)
    EXCLUSIVE = 3  # clean, sole copy (MESI's E; silent upgrade to DIRTY)
    OWNED = 4      # dirty, other clean copies may exist (MOESI's O)


#: Raw-byte -> member table for the packed state array (index == value).
_MEMBERS = (
    LineState.INVALID,
    LineState.SHARED,
    LineState.DIRTY,
    LineState.EXCLUSIVE,
    LineState.OWNED,
)


class DirectMappedCache:
    """A (set-associative capable) cache array of (tag, state) slots.

    ``tag`` stores the full line base address, which keeps lookups
    trivial and exact.  See the module docstring for the way-major
    plane layout; with ``ways == 1`` (DASH's configuration, and the
    default) there is a single plane.
    """

    __slots__ = (
        "geometry",
        "_tags",
        "_states",
        "_line_bytes",
        "_nsets",
        "_slots",
        "hits",
        "misses",
        "evictions",
        "invalidations_received",
    )

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._line_bytes = geometry.line_bytes
        self._nsets = geometry.num_sets
        self._slots = geometry.num_sets * geometry.ways
        self._tags = [-1] * self._slots
        self._states = bytearray(self._slots)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations_received = 0

    def packed_arrays(self):
        """The raw ``(tags, states)`` arrays.

        The list/bytearray are mutated in place and never rebound, so
        holders may alias them.  ``states`` entries are raw ints; the
        caller owns keeping the hit/miss counters honest when probing
        around the public API (see the protocol's packed probes).
        """
        return self._tags, self._states

    # -- plane helpers -------------------------------------------------------

    def _slot_of(self, line: int) -> int:
        """The slot holding ``line`` in a valid state, else -1."""
        tags = self._tags
        states = self._states
        for slot in range(
            (line // self._line_bytes) % self._nsets, self._slots, self._nsets
        ):
            if tags[slot] == line and states[slot]:
                return slot
        return -1

    def _to_front(self, slot: int, line: int, state: int) -> None:
        """Store ``(line, state)`` at plane 0 of ``slot``'s set, moving
        the lines in the planes before ``slot``'s one plane deeper
        (the entry at ``slot`` is overwritten)."""
        tags = self._tags
        states = self._states
        sets = self._nsets
        while slot >= sets:
            tags[slot] = tags[slot - sets]
            states[slot] = states[slot - sets]
            slot -= sets
        tags[slot] = line
        states[slot] = state

    # -- accesses ----------------------------------------------------------

    def touch(self, line: int) -> int:
        """Move a resident ``line`` to plane 0 (most recently used) and
        return its raw state; 0 when absent.  Counters are untouched."""
        slot = self._slot_of(line)
        if slot < 0:
            return 0
        state = self._states[slot]
        self._to_front(slot, line, state)
        return state

    def lookup(self, line: int) -> LineState:
        """State of ``line`` (INVALID when absent); counts hit/miss and
        refreshes LRU order."""
        state = self.touch(line)
        if state:
            self.hits += 1
        else:
            self.misses += 1
        return _MEMBERS[state]

    def probe(self, line: int) -> LineState:
        """State of ``line`` without touching counters or LRU order."""
        slot = self._slot_of(line)
        return _MEMBERS[self._states[slot]] if slot >= 0 else LineState.INVALID

    def insert(
        self, line: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Install ``line`` with ``state`` as its set's most recently
        used line.

        Returns ``(victim_line, victim_state)`` if a different valid line
        was evicted from the set, else None.
        """
        if state == LineState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        tags = self._tags
        states = self._states
        victim = None
        hole = -1
        for slot in range(
            (line // self._line_bytes) % self._nsets, self._slots, self._nsets
        ):
            if not states[slot]:
                if hole < 0:
                    hole = slot
            elif tags[slot] == line:
                break  # resident: moves to plane 0 from its own slot
        else:
            # Not resident: the first hole, else the last (LRU) plane.
            if hole >= 0:
                slot = hole
            else:
                victim = (tags[slot], _MEMBERS[states[slot]])
                self.evictions += 1
        self._to_front(slot, line, state)
        return victim

    def set_state(self, line: int, state: LineState) -> None:
        """Change the state of a resident line (e.g. SHARED -> DIRTY)
        without touching LRU order."""
        slot = self._slot_of(line)
        if slot < 0:
            raise KeyError(f"line {line:#x} not resident")
        self._states[slot] = state

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident, leaving a hole; True if something
        was dropped."""
        slot = self._slot_of(line)
        if slot < 0:
            return False
        self._states[slot] = 0
        self.invalidations_received += 1
        return True

    def resident_lines(self):
        """Iterate over (line, state) of valid entries (for invariants),
        set by set, most recently used first."""
        tags = self._tags
        states = self._states
        for first in range(self._nsets):
            for slot in range(first, self._slots, self._nsets):
                if states[slot]:
                    yield tags[slot], _MEMBERS[states[slot]]
