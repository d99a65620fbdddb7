"""Hardware context: one resident process of a multiple-context processor."""

from __future__ import annotations

import enum
from typing import Iterator

from repro.processor.accounting import Bucket
from repro.tango.ops import Op


class ContextState(enum.Enum):
    READY = "ready"         # may run now
    RUNNING = "running"     # currently loaded into the pipeline
    BLOCKED = "blocked"     # waiting with a known ready time
    SYNC_WAIT = "sync_wait" # waiting for a synchronization grant
    DONE = "done"           # process finished


class Context:
    """Wraps an application thread generator with scheduling state."""

    __slots__ = (
        "index",
        "process_id",
        "thread",
        "state",
        "ready_time",
        "block_cause",
        "block_start",
        "ops_executed",
        "on_grant",
    )

    def __init__(self, index: int, process_id: int, thread: Iterator[Op]) -> None:
        self.index = index
        self.process_id = process_id
        self.thread = thread
        self.state = ContextState.READY
        self.ready_time = 0
        self.block_cause: Bucket = Bucket.READ_STALL
        self.block_start = 0
        self.ops_executed = 0
        #: Cached grant callback (the closure is identical for every
        #: sync operation of this context, so the processor builds it
        #: once); trace-wrapped grants wrap it per operation.
        self.on_grant = None

    def block_until(self, ready_time: int, cause: Bucket, now: int) -> None:
        self.state = ContextState.BLOCKED
        self.ready_time = ready_time
        self.block_cause = cause
        self.block_start = now

    def block_on_sync(self, now: int) -> None:
        self.state = ContextState.SYNC_WAIT
        self.block_cause = Bucket.SYNC_STALL
        self.block_start = now

    def grant(self, ready_time: int) -> None:
        """A synchronization grant arrived: runnable at ``ready_time``."""
        if self.state != ContextState.SYNC_WAIT:
            raise RuntimeError(
                f"grant for context {self.index} in state {self.state}"
            )
        self.state = ContextState.BLOCKED
        self.ready_time = ready_time

    @property
    def live(self) -> bool:
        return self.state != ContextState.DONE
