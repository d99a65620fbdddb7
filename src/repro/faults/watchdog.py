"""Wall-clock/event-count watchdog with progress heartbeats.

A :class:`Watchdog` attaches to an :class:`~repro.sim.engine.EventEngine`
via :meth:`~repro.sim.engine.EventEngine.set_heartbeat`: every
``heartbeat_every`` fired events the engine calls back into the
watchdog, which records a :class:`Heartbeat` (events fired, simulated
time, wall seconds), optionally notifies a progress callback, and —
when a wall-clock limit is configured — aborts the run with
:class:`WatchdogTimeout` instead of letting a hung configuration stall
an entire sweep.

The timeout message carries the recent heartbeat trail (event and
simulated-time progress over wall time), so a stalled run is
distinguishable from a merely slow one at a glance: a livelock burns
events without advancing simulated time, a hang does neither.
"""

from __future__ import annotations

import os
import time as _time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Optional, Union

from repro.sim.engine import EventEngine, SimulationError


class WatchdogTimeout(SimulationError):
    """A run exceeded its wall-clock budget without completing."""


@dataclass(frozen=True)
class Heartbeat:
    """One progress sample taken every ``heartbeat_every`` events."""

    events: int
    sim_time: int
    wall_seconds: float

    def __str__(self) -> str:
        return (
            f"{self.wall_seconds:8.2f}s  {self.events:>12d} events  "
            f"sim t={self.sim_time}"
        )


def write_heartbeat_file(path: Union[str, Path], beat: Heartbeat) -> None:
    """Publish one heartbeat to ``path`` for out-of-process observers.

    Written via a sibling temp file + :func:`os.replace` so a reader can
    never observe a torn record; the file's mtime doubles as the
    liveness signal (a worker that stops firing events stops refreshing
    it).  Best-effort: I/O failures must never abort the watched run.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(
            f"{beat.events} {beat.sim_time} {beat.wall_seconds:.3f}\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
    except OSError:
        pass


def read_heartbeat_file(path: Union[str, Path]) -> Optional[Heartbeat]:
    """Parse a heartbeat published by :func:`write_heartbeat_file`
    (``None`` when absent, torn, or unreadable)."""
    try:
        fields = Path(path).read_text(encoding="utf-8").split()
        return Heartbeat(
            events=int(fields[0]),
            sim_time=int(fields[1]),
            wall_seconds=float(fields[2]),
        )
    except (OSError, ValueError, IndexError):
        return None


class Watchdog:
    """Aborts runs that stop making wall-clock progress."""

    def __init__(
        self,
        wall_clock_limit_s: Optional[float] = None,
        heartbeat_every: int = 250_000,
        on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
        clock: Callable[[], float] = _time.monotonic,
        trail_depth: int = 16,
        heartbeat_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if wall_clock_limit_s is not None and wall_clock_limit_s < 0:
            raise ValueError("wall-clock limit must be nonnegative")
        if heartbeat_every <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.wall_clock_limit_s = wall_clock_limit_s
        self.heartbeat_every = heartbeat_every
        self.on_heartbeat = on_heartbeat
        self.clock = clock
        self.heartbeats: Deque[Heartbeat] = deque(maxlen=trail_depth)
        #: When set, every heartbeat is also published to this file so
        #: an out-of-process supervisor can tell a hung worker (stale
        #: file) from a slow-but-progressing one (fresh file).
        self.heartbeat_path = Path(heartbeat_path) if heartbeat_path else None
        self._started_at: Optional[float] = None

    def attach(self, engine: EventEngine) -> "Watchdog":
        """Arm the watchdog on ``engine`` and start the wall clock."""
        self._started_at = self.clock()
        engine.set_heartbeat(self._tick, every=self.heartbeat_every)
        return self

    def detach(self, engine: EventEngine) -> None:
        engine.set_heartbeat(None)

    def _tick(self, engine: EventEngine) -> None:
        if self._started_at is None:
            self._started_at = self.clock()
        beat = Heartbeat(
            events=engine.events_processed,
            sim_time=engine.now,
            wall_seconds=self.clock() - self._started_at,
        )
        self.heartbeats.append(beat)
        if self.heartbeat_path is not None:
            write_heartbeat_file(self.heartbeat_path, beat)
        if self.on_heartbeat is not None:
            self.on_heartbeat(beat)
        limit = self.wall_clock_limit_s
        if limit is not None and beat.wall_seconds > limit:
            rate = beat.events / beat.wall_seconds if beat.wall_seconds else 0.0
            trail = "\n".join(f"  {b}" for b in self.heartbeats)
            raise WatchdogTimeout(
                f"no completion after {beat.wall_seconds:.2f}s wall-clock "
                f"(limit {limit:.2f}s): {beat.events} events fired, "
                f"sim t={beat.sim_time}, {rate:,.0f} events/s, "
                f"{engine.pending} events pending\n"
                f"heartbeat trail (oldest first):\n{trail}"
            )
