"""Latency model for synchronization operations.

The applications synchronize with the Argonne (ANL) macro package
primitives: locks, events (flags), and barriers.  We model each
synchronization operation as a round trip to the primitive's home node,
charged on the same buses and links as ordinary coherence traffic, with
base costs taken from the Table 1 read/write rows (a lock acquire is a
read-modify-write probe; a release is a write).

Waiting time spent blocked on a held lock, an unset flag, or an
incomplete barrier is accounted as *synchronization* stall by the
processor — except that applications may also choose to spin explicitly
(PTHOR's idle loop), in which case the spin shows up as busy time exactly
as the paper describes.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.interconnect import Interconnect
from repro.interconnect.plans import (
    SYNC_NOTIFY,
    SYNC_RELEASE_HOME,
    SYNC_RELEASE_LOCAL,
    SYNC_RMW_HOME,
    SYNC_RMW_LOCAL,
)
from repro.memlayout import SharedMemoryAllocator


class SyncCosts:
    """Computes round-trip costs for synchronization messages."""

    def __init__(
        self,
        config: MachineConfig,
        allocator: SharedMemoryAllocator,
        interconnect: Interconnect,
    ) -> None:
        self.config = config
        self.allocator = allocator
        self.net = interconnect

    def home_of(self, addr: int) -> int:
        return self.allocator.home_of(addr)

    @property
    def locks_cacheable(self) -> bool:
        """With coherent caches, lock lines are cacheable: a node that
        re-acquires a lock it touched last hits its own cache."""
        return self.config.caching_shared_data

    #: Cycles for a test&set / clear on a lock line already held in the
    #: acquiring node's cache (secondary-cache read-modify-write).
    cached_acquire_cycles: int = 4
    cached_release_cycles: int = 2

    def acquire_cost(self, node: int, addr: int, time: int) -> int:
        """Probe/acquire round trip from ``node`` to the primitive."""
        home = self.home_of(addr)
        lat = self.config.latency
        if home == node:
            base, plan = lat.read_fill_local, SYNC_RMW_LOCAL
        else:
            base, plan = lat.read_fill_home, SYNC_RMW_HOME
        return base + self.net.charge_path(plan, node, home, 0, 0, time)

    def release_cost(self, node: int, addr: int, time: int) -> int:
        """Release write from ``node`` to the primitive's home."""
        home = self.home_of(addr)
        lat = self.config.latency
        if home == node:
            base, plan = lat.write_owned_local, SYNC_RELEASE_LOCAL
        else:
            base, plan = lat.write_owned_home, SYNC_RELEASE_HOME
        return base + self.net.charge_path(plan, node, home, 0, 0, time)

    def notify_cost(self, home_addr: int, waiter_node: int, time: int) -> int:
        """Cost of informing a blocked waiter that it may proceed."""
        home = self.home_of(home_addr)
        lat = self.config.latency
        if home == waiter_node:
            return lat.read_fill_local
        delay = self.net.charge_path(SYNC_NOTIFY, waiter_node, home, 0, 0, time)
        return lat.read_fill_home - lat.read_fill_local + delay
