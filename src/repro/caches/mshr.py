"""Miss status holding registers (lockup-free cache support).

Lockup-free caches [Kroft 81] let new accesses proceed while misses are
outstanding — a universal requirement for RC, prefetching, and multiple
contexts (Section 7).  The MSHR table tracks every in-flight transaction
per line so that:

* a demand reference to a line with an outstanding prefetch *combines*
  with it instead of sending duplicate messages (Section 5.1), and
* a second context's miss to the same line piggybacks on the first.

Entries exist only where a later access can meet them: prefetches, and
demand misses on multi-context nodes.  A single context blocks on every
read (Section 4.1), so its demand read miss retires before its node
issues anything else; the memory interface records no entry for it,
only its retire time, and raises ``SimulationError`` on a ``read`` or
``prefetch`` issued earlier than that.

An entry is in flight while its ``complete_time`` is later than the
time of the access that reads it: the table is never swept before a
query.  The memory interface tests that maturity on every read and
drops matured entries in batches, so the table may still hold entries
that completed; :meth:`MSHRTable.add` replaces such an entry and
rejects only a live one.
"""

from __future__ import annotations

from typing import Dict, Optional


class OutstandingMiss:
    """One in-flight fill/ownership transaction for a line.

    Packed ``__slots__`` storage — allocated on every prefetch and on
    every multi-context demand miss, probed on every read while any
    miss is outstanding.
    """

    __slots__ = (
        "line", "exclusive", "issue_time", "complete_time",
        "is_prefetch", "combined",
    )

    def __init__(
        self,
        line: int,
        exclusive: bool,
        issue_time: int,
        complete_time: int,
        is_prefetch: bool,
        combined: bool = False,
    ) -> None:
        self.line = line
        self.exclusive = exclusive
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.is_prefetch = is_prefetch
        #: Set when a demand reference combined with this (prefetch) miss.
        self.combined = combined

    def __repr__(self) -> str:
        return (
            f"OutstandingMiss(line={self.line:#x}, "
            f"exclusive={self.exclusive}, issue_time={self.issue_time}, "
            f"complete_time={self.complete_time}, "
            f"is_prefetch={self.is_prefetch}, combined={self.combined})"
        )


class MSHRTable:
    """Outstanding-transaction table for one node's secondary cache.

    Completed entries stay until the memory interface collects them;
    readers test ``complete_time`` against their own time.
    """

    __slots__ = ("_misses", "combines")

    def __init__(self) -> None:
        self._misses: Dict[int, OutstandingMiss] = {}
        self.combines = 0

    def lookup(self, line: int) -> Optional[OutstandingMiss]:
        return self._misses.get(line)

    def add(self, miss: OutstandingMiss) -> None:
        """Track ``miss``, replacing an entry for its line that has
        completed by its issue time; a live one is an error."""
        old = self._misses.get(miss.line)
        if old is not None and old.complete_time > miss.issue_time:
            raise ValueError(f"line {miss.line:#x} already outstanding")
        self._misses[miss.line] = miss

    def combine(self, line: int) -> OutstandingMiss:
        """Attach a demand reference to an outstanding miss for ``line``."""
        miss = self._misses[line]
        miss.combined = True
        self.combines += 1
        return miss

    def retire(self, line: int) -> OutstandingMiss:
        """Remove and return the completed transaction for ``line``."""
        return self._misses.pop(line)

    def __len__(self) -> int:
        return len(self._misses)

    def outstanding_lines(self):
        return list(self._misses)
