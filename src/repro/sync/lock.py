"""Lock manager.

Locks are granted in FIFO order.  An uncontended acquire costs one round
trip to the lock's home node; a contended acquire blocks the context and
is granted when the holder releases, plus a handoff notification.

Under release consistency, the caller computes the *release point* (all
prior writes complete, including invalidation acks) before invoking
:meth:`LockManager.release`; pipelined writes therefore let a remote
waiter observe the release sooner than under SC, which is the mechanism
by which RC shrinks synchronization time in Figure 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.sim.engine import EventEngine
from repro.sync.costs import SyncCosts

GrantCallback = Callable[[int], None]


@dataclass
class _LockState:
    held: bool = False
    holder: Optional[int] = None
    #: Earliest time a new acquire can be granted after the last release.
    free_time: int = 0
    #: Node whose cache holds the lock line (for cached re-acquires).
    last_toucher: Optional[int] = None
    waiters: Deque[Tuple[int, GrantCallback]] = field(default_factory=deque)


@dataclass
class LockStats:
    acquires: int = 0
    contended_acquires: int = 0
    releases: int = 0
    total_wait_cycles: int = 0


class LockManager:
    """All locks in the machine, keyed by lock address."""

    def __init__(self, engine: EventEngine, costs: SyncCosts) -> None:
        self.engine = engine
        self.costs = costs
        self._locks: Dict[int, _LockState] = {}
        self.stats = LockStats()

    def _state(self, addr: int) -> _LockState:
        state = self._locks.get(addr)
        if state is None:
            state = _LockState()
            self._locks[addr] = state
        return state

    def acquire(
        self, addr: int, node: int, time: int, callback: GrantCallback
    ) -> Optional[int]:
        """Attempt to acquire.  Returns the grant time if immediate,
        else None (``callback`` fires with the grant time later)."""
        lock = self._state(addr)
        self.stats.acquires += 1
        if self.costs.locks_cacheable and lock.last_toucher == node:
            # The lock line is still in this node's cache: test&set hit.
            probe_done = time + self.costs.cached_acquire_cycles
        else:
            probe_done = time + self.costs.acquire_cost(node, addr, time)
        if not lock.held:
            lock.held = True
            lock.holder = node
            lock.last_toucher = node
            grant = max(probe_done, lock.free_time)
            return grant
        self.stats.contended_acquires += 1
        lock.waiters.append((node, callback))
        return None

    def release(self, addr: int, node: int, time: int) -> int:
        """Release at ``time`` (already fenced by the caller under RC).

        Returns the time the release is globally visible.
        """
        lock = self._state(addr)
        if not lock.held:
            raise RuntimeError(f"release of unheld lock {addr:#x}")
        self.stats.releases += 1
        if self.costs.locks_cacheable and lock.last_toucher == node:
            visible = time + self.costs.cached_release_cycles
        else:
            visible = time + self.costs.release_cost(node, addr, time)
        lock.last_toucher = node
        if lock.waiters:
            waiter_node, callback = lock.waiters.popleft()
            grant = visible + self.costs.notify_cost(addr, waiter_node, visible)
            lock.holder = waiter_node
            lock.last_toucher = waiter_node
            self.engine.schedule(grant, lambda: callback(grant))
        else:
            lock.held = False
            lock.holder = None
            lock.free_time = visible
        return visible

    def is_held(self, addr: int) -> bool:
        return self._state(addr).held

    def pending(self):
        """Deadlock diagnostics: ``(addr, holder, waiter nodes)`` for
        every lock that is held or has queued waiters."""
        report = []
        for addr, lock in sorted(self._locks.items()):
            if lock.held or lock.waiters:
                report.append(
                    (addr, lock.holder, [node for node, _cb in lock.waiters])
                )
        return report
