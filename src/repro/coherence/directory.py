"""Distributed directory state.

Cache coherence is maintained with an invalidating, distributed
directory-based protocol (Section 2.1): for each memory line, the
directory at the line's *home* node tracks which nodes cache it and, when
a write occurs, point-to-point invalidation messages are sent to every
remote copy, acknowledged back to the requester.

The directory here is kept *precise*: caches notify it on replacement,
so ``DIRTY`` always means the owner's secondary cache really holds the
line dirty, and ``sharers`` is exactly the set of caches holding it.
This precision is checked by the coherence invariant tests.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Set

from repro.sim.engine import SimulationError


class DirState(enum.IntEnum):
    UNOWNED = 0       # memory at the home node has the only valid copy
    SHARED = 1        # one or more caches hold clean copies
    DIRTY = 2         # exactly one cache holds a modified copy
    #: MOESI only: an OWNED cache is responsible for the (stale-in-memory)
    #: line while other caches hold clean copies of the same dirty value.
    #: The runtime directory never enters this state; it exists for the
    #: abstract MOESI :class:`~repro.coherence.specs.ProtocolSpec`.
    SHARED_DIRTY = 3


class DirectoryEntry:
    """Directory record for one memory line.

    The sharer set is packed into an integer bitmask (``mask``, bit i =
    node i caches the line): membership, add, and remove are single ALU
    operations and the record is three machine words, with no per-entry
    ``set`` allocation.  Hot protocol paths operate on ``mask``
    directly; the ``sharers`` property materialises a fresh ``set``
    snapshot for diagnostics, invariant sweeps, and tests — mutating
    that snapshot does not write back.
    """

    __slots__ = ("state", "mask", "owner")

    def __init__(
        self,
        state: DirState = DirState.UNOWNED,
        sharers: Optional[Iterable[int]] = None,
        owner: Optional[int] = None,
    ) -> None:
        self.state = state
        mask = 0
        if sharers:
            for node in sharers:
                mask |= 1 << node
        self.mask = mask
        self.owner = owner

    @property
    def sharers(self) -> Set[int]:
        mask = self.mask
        nodes = set()
        while mask:
            low = mask & -mask
            nodes.add(low.bit_length() - 1)
            mask ^= low
        return nodes

    @sharers.setter
    def sharers(self, value: Iterable[int]) -> None:
        mask = 0
        for node in value:
            mask |= 1 << node
        self.mask = mask

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry(state={self.state!r}, "
            f"sharers={self.sharers!r}, owner={self.owner!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectoryEntry):
            return NotImplemented
        return (
            self.state == other.state
            and self.mask == other.mask
            and self.owner == other.owner
        )

    def check(self) -> None:
        """Validate the entry's internal consistency.

        Raises :class:`~repro.sim.engine.SimulationError` (not a bare
        ``assert``) so the invariant survives ``python -O``.
        """
        if self.state == DirState.UNOWNED:
            if self.mask or self.owner is not None:
                raise SimulationError(
                    f"UNOWNED directory entry with sharers={self.sharers} "
                    f"owner={self.owner}"
                )
        elif self.state == DirState.SHARED:
            if not self.mask or self.owner is not None:
                raise SimulationError(
                    f"SHARED directory entry with sharers={self.sharers} "
                    f"owner={self.owner}"
                )
        else:
            if self.owner is None or self.mask:
                raise SimulationError(
                    f"DIRTY directory entry with sharers={self.sharers} "
                    f"owner={self.owner}"
                )


class Directory:
    """The directory slice stored at one home node."""

    __slots__ = ("node_id", "_entries", "nacks_sent")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._entries: Dict[int, DirectoryEntry] = {}
        #: Requests this directory bounced back to the requester (only
        #: nonzero when a fault plan injects directory NACKs).
        self.nacks_sent = 0

    def note_nack(self, line: int) -> None:
        """Record that this directory NACKed a request for ``line``."""
        self.nacks_sent += 1

    def reset(self) -> None:
        """Zero the per-run counters (``nacks_sent``) without touching
        the line entries.  Machines are built fresh per run, so this
        exists for callers that reuse a directory across supervised
        runs; the sanitizer separately asserts counters never go
        negative, so a stale or corrupted counter cannot hide."""
        self.nacks_sent = 0

    def entry(self, line: int) -> DirectoryEntry:
        entry = self._entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line] = entry
        return entry

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        """Entry for ``line`` if one exists, without creating it."""
        return self._entries.get(line)

    def known_lines(self):
        return list(self._entries)

    def drop_sharer(self, line: int, node: int) -> None:
        """Replacement hint: ``node`` evicted its clean copy of ``line``."""
        entry = self._entries.get(line)
        if entry is None:
            return
        entry.mask &= ~(1 << node)
        if entry.state == DirState.SHARED and not entry.mask:
            entry.state = DirState.UNOWNED

    def writeback(self, line: int, node: int) -> None:
        """Owner ``node`` wrote the dirty line back and dropped it."""
        entry = self._entries.get(line)
        if entry is None:
            return
        if entry.state == DirState.DIRTY and entry.owner == node:
            entry.state = DirState.UNOWNED
            entry.owner = None
            entry.mask = 0
