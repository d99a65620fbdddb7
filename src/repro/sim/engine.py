"""Discrete event simulation engine.

The engine is a classic calendar built on a binary heap.  Time is measured
in integer processor clocks (pclocks; the paper uses 1 pclock = 30 ns).
Events scheduled for the same time fire in FIFO order, which makes runs
deterministic.

The engine also exposes :meth:`EventEngine.peek_time`, which lets a
processor model decide whether it may keep executing *inline* (no event
round-trip) because no other event in the system can fire before the
processor's own local time.  This is the key fast path: streams of cache
hits cost zero heap operations.

:meth:`EventEngine.schedule` is the other half.  A processor that must
yield passes ``take``: when the event the dispatch loop would fire next
is another processor's continuation, ``schedule`` swaps the yielder's
own entry in for it with one heap operation, does the dispatch loop's
per-event bookkeeping, and returns that processor, which then runs in
the yielder's frame with no return into :meth:`run`.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Sentinel returned by :meth:`EventEngine.peek_time` when the calendar is
#: empty — any local time compares as "not behind" this.  An integer (not
#: ``float("inf")``) so pclock comparisons never mix in floats; 2**63 is
#: far beyond any reachable simulated time (the event limit bounds runs
#: to ~2e9 events).
TIME_INFINITY = 2**63

#: Default event budget before a run is declared a livelock.
DEFAULT_EVENT_LIMIT = 2_000_000_000


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class DeadlockError(SimulationError):
    """Raised when the calendar drains while work is still pending."""


class EventEngine:
    """A deterministic discrete-event calendar.

    Events are ``(time, callback)`` pairs.  ``run`` pops events in time
    order and invokes the callbacks; callbacks typically advance a
    processor, retire a memory transaction, or release a synchronization
    primitive, and may schedule further events.

    The public ``next_time`` attribute always equals the time of the
    earliest pending event (``TIME_INFINITY`` when the calendar is
    empty) whenever user code runs — i.e. outside the engine's own
    internal bookkeeping.  Hot paths may read it directly instead of
    calling :meth:`peek_time`.
    """

    __slots__ = (
        "_queue",
        "_seq",
        "_now",
        "next_time",
        "_events_processed",
        "_limit",
        "_heartbeat",
        "_heartbeat_every",
        "_next_heartbeat",
        "_check_at",
        "_deadline",
    )

    def __init__(self, event_limit: int = DEFAULT_EVENT_LIMIT) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0
        self.next_time = TIME_INFINITY
        self._events_processed = 0
        self._limit = event_limit
        self._heartbeat: Optional[Callable[["EventEngine"], None]] = None
        self._heartbeat_every = 0
        self._next_heartbeat = TIME_INFINITY
        #: Event count at which the per-event step must look at the
        #: event limit or the heartbeat: ``min(limit + 1, next beat)``.
        self._check_at = event_limit + 1
        #: Latest time ``schedule(..., take=)`` may fire: the running
        #: dispatch loop's deadline, -1 while none runs.
        self._deadline = -1

    @property
    def now(self) -> int:
        """Time of the most recently fired event."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostic)."""
        return self._events_processed

    def schedule(
        self,
        time: int,
        callback: Callable[[], None],
        take: Optional[Callable[..., None]] = None,
    ) -> Optional[object]:
        """Schedule ``callback`` to fire at ``time``; maybe take the next event.

        ``time`` must not be in the past relative to the engine clock;
        same-time scheduling is allowed and fires in FIFO order.

        Without ``take`` this returns ``None``.  With it, the call is
        "push, then fire the earliest event in place if it is owned":
        when, once ``callback`` is in the calendar, the earliest event's
        callback is ``take`` bound to some object, and the running
        :meth:`run` / :meth:`run_until` would fire it next (it is within
        the deadline), that event is popped with the dispatch loop's
        bookkeeping and its object returned *without* calling the
        callback: the caller runs it itself, in its own frame.  The push
        and the pop are one ``heapreplace``, or no heap operation at all
        when ``callback`` is itself the earliest event.  Outside a
        dispatch loop nothing is taken.  The event taken is exactly the
        one the dispatch loop would pop next, so firing order, event
        counts, the event limit and the heartbeat are unchanged.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        queue = self._queue
        entry = (time, self._seq, callback)
        self._seq += 1
        if take is not None:
            # The earliest event once ``entry`` is in; a tie goes to the
            # older entry.
            head = queue[0] if queue and queue[0][0] <= time else entry
            head_time, _seq, head_callback = head
            if (
                head_time <= self._deadline
                and getattr(head_callback, "__func__", None) is take
            ):
                if head is not entry:
                    heapq.heapreplace(queue, entry)
                    self.next_time = queue[0][0]
                self._now = head_time
                count = self._events_processed + 1
                self._events_processed = count
                if count >= self._check_at:
                    self._checkpoint(head_time)
                return head_callback.__self__  # type: ignore[attr-defined]
        heapq.heappush(queue, entry)
        if time < self.next_time:
            self.next_time = time
        return None

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` pclocks from now."""
        self.schedule(self._now + delay, callback)

    def peek_time(self) -> int:
        """Time of the earliest pending event, or ``TIME_INFINITY``.

        A component whose local clock is <= this value may safely act
        inline without an event round-trip: no other event can interleave
        before its local time.
        """
        return self.next_time

    @property
    def pending(self) -> int:
        """Number of events waiting in the calendar."""
        return len(self._queue)

    def set_heartbeat(
        self, callback: Optional[Callable[["EventEngine"], None]], every: int = 250_000
    ) -> None:
        """Invoke ``callback(engine)`` every ``every`` fired events.

        Used by watchdogs to check wall-clock progress from inside long
        runs; pass ``None`` to detach.  The callback may raise to abort
        the run (e.g. :class:`~repro.faults.watchdog.WatchdogTimeout`).
        """
        if callback is not None and every <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._heartbeat = callback
        if callback is None:
            self._next_heartbeat = TIME_INFINITY
        else:
            self._heartbeat_every = every
            self._next_heartbeat = self._events_processed + every
        self._check_at = min(self._limit + 1, self._next_heartbeat)

    def _fire_heartbeat(self) -> None:
        self._next_heartbeat = self._events_processed + self._heartbeat_every
        self._check_at = min(self._limit + 1, self._next_heartbeat)
        self._heartbeat(self)  # type: ignore[misc]

    def _checkpoint(self, time: int) -> None:
        """The slow half of the per-event step, entered once the event
        count reaches ``_check_at``: raise past the event limit, else
        beat the heartbeat when it is due."""
        if self._events_processed > self._limit:
            raise self._limit_error(time)
        if self._events_processed >= self._next_heartbeat:
            self._fire_heartbeat()

    def _limit_error(self, time: int) -> SimulationError:
        return SimulationError(
            f"event limit {self._limit} exceeded at t={time} with "
            f"{len(self._queue)} events pending; likely a livelock in "
            "the simulated program"
        )

    def _pop(self) -> Callable[[], None]:
        """Pop the earliest event and do its per-event bookkeeping.

        The dispatch step of :meth:`run` and :meth:`run_until`: advance
        the clock, restore the ``next_time`` invariant, count the event,
        and past ``_check_at`` enforce the event limit and beat the
        heartbeat.  Returns the callback, not yet called.  A take in
        :meth:`schedule` does the same bookkeeping.
        """
        queue = self._queue
        time, _seq, callback = heapq.heappop(queue)
        self._now = time
        if queue:
            self.next_time = queue[0][0]
        else:
            self.next_time = TIME_INFINITY
        count = self._events_processed + 1
        self._events_processed = count
        if count >= self._check_at:
            self._checkpoint(time)
        return callback

    def run(self) -> int:
        """Fire events until the calendar drains; return the final time."""
        queue = self._queue
        self._deadline = TIME_INFINITY
        try:
            while queue:
                self._pop()()
        finally:
            self._deadline = -1
        return self._now

    def run_until(self, deadline: int) -> int:
        """Fire events with time <= ``deadline``; return the final time."""
        queue = self._queue
        self._deadline = deadline
        try:
            while queue and queue[0][0] <= deadline:
                self._pop()()
        finally:
            self._deadline = -1
        if self._now < deadline:
            self._now = deadline
        return self._now
