"""Queued hardware resources.

A :class:`QueuedResource` models a unit that serves one transaction at a
time (a bus, a network link, a directory controller, a memory bank) using
earliest-free-time bookkeeping: a request arriving at ``t`` begins service
at ``max(t, next_free)`` and occupies the resource for its occupancy.

This gives first-order contention (queuing delay grows with offered load,
hot spots serialize) without simulating individual arbitration cycles,
matching the behavioural level of the paper's simulator.
"""

from __future__ import annotations


class QueuedResource:
    """A single-server FIFO resource with earliest-free-time queuing."""

    __slots__ = ("name", "_next_free", "_busy_total", "_transactions")

    def __init__(self, name: str) -> None:
        self.name = name
        self._next_free = 0
        self._busy_total = 0
        self._transactions = 0

    def acquire(self, time: int, occupancy: int) -> int:
        """Occupy the resource for ``occupancy`` pclocks starting no
        earlier than ``time``.

        Returns the time at which the transaction *finishes* service.
        The queuing delay experienced is ``start - time``.
        """
        if occupancy < 0:
            raise ValueError(f"negative occupancy {occupancy} on {self.name}")
        if time < 0:
            raise ValueError(
                f"acquire of {self.name} at t={time}, before simulation start"
            )
        start = time if time > self._next_free else self._next_free
        finish = start + occupancy
        self._next_free = finish
        self._busy_total += occupancy
        self._transactions += 1
        return finish

    @property
    def next_free(self) -> int:
        """Earliest time a new transaction could begin service."""
        return self._next_free

    @property
    def busy_total(self) -> int:
        """Total pclocks of service performed (utilization numerator)."""
        return self._busy_total

    @property
    def transactions(self) -> int:
        """Number of transactions served."""
        return self._transactions

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` pclocks spent serving transactions."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_total / elapsed)
