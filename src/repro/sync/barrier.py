"""Barrier manager.

Barriers separate the phases of MP3D time steps and LU/PTHOR epochs.
Arrival has release semantics (the caller fences its write buffer first
under RC); the last arrival releases every participant, and each waiter
resumes after a notification hop back to its node.

Table 2 counts barrier *crossings* (one per participating process), and
:attr:`BarrierStats.crossings` matches that; :attr:`BarrierStats.episodes`
counts distinct barrier events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.sim.engine import EventEngine
from repro.sync.costs import SyncCosts

GrantCallback = Callable[[int], None]


@dataclass
class _BarrierState:
    arrivals: List[Tuple[int, GrantCallback]] = field(default_factory=list)
    latest_arrival: int = 0
    #: Participant count of the current episode (diagnostics only).
    participants: int = 0


@dataclass
class BarrierStats:
    crossings: int = 0
    episodes: int = 0
    total_wait_cycles: int = 0


class BarrierManager:
    """All barriers in the machine, keyed by barrier address."""

    def __init__(self, engine: EventEngine, costs: SyncCosts) -> None:
        self.engine = engine
        self.costs = costs
        self._barriers: Dict[int, _BarrierState] = {}
        self.stats = BarrierStats()

    def _state(self, addr: int) -> _BarrierState:
        state = self._barriers.get(addr)
        if state is None:
            state = _BarrierState()
            self._barriers[addr] = state
        return state

    def arrive(
        self,
        addr: int,
        participants: int,
        node: int,
        time: int,
        callback: GrantCallback,
    ) -> None:
        """Arrive at the barrier; ``callback`` fires with the resume time
        once all ``participants`` processes have arrived."""
        if participants <= 0:
            raise ValueError("barrier needs at least one participant")
        barrier = self._state(addr)
        barrier.participants = participants
        self.stats.crossings += 1
        arrival_done = time + self.costs.release_cost(node, addr, time)
        barrier.latest_arrival = max(barrier.latest_arrival, arrival_done)
        barrier.arrivals.append((node, callback))
        if len(barrier.arrivals) > participants:
            raise RuntimeError(
                f"barrier {addr:#x} got {len(barrier.arrivals)} arrivals "
                f"for {participants} participants"
            )
        if len(barrier.arrivals) == participants:
            self.stats.episodes += 1
            release_time = barrier.latest_arrival
            arrivals = barrier.arrivals
            barrier.arrivals = []
            barrier.latest_arrival = 0
            for waiter_node, waiter_callback in arrivals:
                grant = release_time + self.costs.notify_cost(
                    addr, waiter_node, release_time
                )
                self.engine.schedule(
                    grant, (lambda cb, g: lambda: cb(g))(waiter_callback, grant)
                )

    def pending(self):
        """Deadlock diagnostics: ``(addr, arrived nodes, participants)``
        for every barrier episode that has not released yet."""
        report = []
        for addr, barrier in sorted(self._barriers.items()):
            if barrier.arrivals:
                report.append(
                    (
                        addr,
                        [node for node, _cb in barrier.arrivals],
                        barrier.participants,
                    )
                )
        return report
