"""Runtime coherence invariant sanitizer.

:class:`CoherenceSanitizer` instruments a built
:class:`~repro.system.machine.Machine` so that every protocol
transaction is followed by invariant checks over the state it touched:

* **SWMR** — at most one secondary cache holds the line dirty, and a
  dirty copy excludes all other cached copies;
* **inclusion** — a line resident in a primary cache is resident in the
  same node's secondary cache;
* **directory precision** — the home directory entry's state/sharers/
  owner agree exactly with the caches (the directory is notified on
  every replacement, so it is supposed to be exact, not conservative);
* **buffer bounds** — write-buffer and prefetch-buffer occupancy never
  exceed their configured depths, buffered retire times stay monotone,
  and MSHR entries never complete before they issue;
* **pending state** — the memory interface's fill arrivals form a heap
  whose head is the ``_next_fill`` watermark the processor loop tests,
  and its MSHR and buffered-line dictionaries stay within the bound at
  which their matured entries are collected.

Violations raise :class:`~repro.sim.engine.SimulationError` carrying a
trace of the most recent transactions so the offending sequence can be
reconstructed.  Instrumentation is installed through
:meth:`~repro.system.machine.Machine.interpose` on the protocol's and
memory interfaces' entry points — a machine without the sanitizer runs
the original bound methods and fused paths with zero added work, which
is what keeps the default configuration's performance unchanged.

Enable via ``MachineConfig(sanitize=True)`` or construct directly::

    machine = Machine(config.replace(sanitize=True))

The per-transaction check visits only the accessed line plus the issuing
node's buffers (O(nodes) per access); :meth:`check_machine` runs the
full-state sweep from
:meth:`~repro.coherence.protocol.CoherenceProtocol.check_invariants`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Optional

from repro.caches import LineState
from repro.coherence import AccessOutcome, CoherenceProtocol
from repro.coherence.directory import DirState
from repro.sim.engine import TIME_INFINITY, SimulationError


@dataclass(frozen=True)
class Transition:
    """One recorded protocol transaction."""

    time: int
    node: int
    kind: str
    addr: int
    retire: int
    complete: int
    access_class: str

    def __str__(self) -> str:
        return (
            f"t={self.time:<8d} node {self.node:<2d} {self.kind:<14s} "
            f"addr={self.addr:#x} -> {self.access_class} "
            f"retire={self.retire} complete={self.complete}"
        )


class TransitionTrace:
    """Ring buffer of the most recent transitions."""

    def __init__(self, depth: int = 64) -> None:
        self._entries: Deque[Transition] = deque(maxlen=depth)

    def record(self, transition: Transition) -> None:
        self._entries.append(transition)

    def __len__(self) -> int:
        return len(self._entries)

    def format(self) -> str:
        if not self._entries:
            return "  (no transitions recorded)"
        return "\n".join(f"  {t}" for t in self._entries)


class CoherenceSanitizer:
    """Per-transaction invariant checking for one machine."""

    def __init__(self, machine, trace_depth: int = 64) -> None:
        self.machine = machine
        self.protocol = machine.protocol
        self.trace = TransitionTrace(trace_depth)
        self.checks_performed = 0

    # -- instrumentation ------------------------------------------------------

    def install(self) -> "CoherenceSanitizer":
        """Wrap the protocol's and memory interfaces' entry points."""
        machine = self.machine
        for name in CoherenceProtocol.ENTRY_POINTS:
            machine.interpose(self.protocol, name, partial(self._checked, name))
        for iface in machine.memifaces:
            for name in ("read", "write", "prefetch"):
                machine.interpose(iface, name, partial(self._buffers_checked, iface))
        return self

    def _checked(self, name: str, original):
        """``original`` followed by the transition record and the line
        check.  Every entry point takes ``(node, addr, ..., time)``;
        prefetch's extra argument is ``exclusive``."""
        protocol = self.protocol

        def wrapper(node, addr, *args, **kwargs):
            outcome = original(node, addr, *args, **kwargs)
            kind = name
            if name == "prefetch" and args[0]:
                kind = "prefetch-excl"
            self._record(args[-1], node, kind, addr, outcome)
            self.check_line(protocol.line_of(addr))
            return outcome

        return wrapper

    def _buffers_checked(self, iface, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.check_buffers(iface)
            return result

        return wrapper

    def _record(
        self, time: int, node: int, kind: str, addr: int,
        outcome: Optional[AccessOutcome],
    ) -> None:
        if outcome is None:  # discarded prefetch
            self.trace.record(
                Transition(time, node, kind + "-drop", addr, time, time, "-")
            )
            return
        self.trace.record(
            Transition(
                time, node, kind, addr,
                outcome.retire, outcome.complete,
                outcome.access_class.value,
            )
        )

    # -- checks ---------------------------------------------------------------

    def check_line(self, line: int) -> None:
        """Validate SWMR, inclusion, and directory precision for ``line``."""
        self.checks_performed += 1
        caches = self.protocol.caches
        #: Owner-capable cache states per the active spec (M under MSI;
        #: M or E under MESI) — the states the directory's DIRTY entry
        #: must name the holder of.
        owner_states = self.protocol.spec.owner_states
        holders = set()
        dirty_holder = None
        for node, node_caches in enumerate(caches):
            state = node_caches.secondary.probe(line)
            if state == LineState.INVALID:
                if node_caches.primary.probe(line) != LineState.INVALID:
                    self._fail(
                        f"inclusion violated: line {line:#x} in primary but "
                        f"not secondary cache of node {node}"
                    )
                continue
            holders.add(node)
            if state in owner_states:
                if dirty_holder is not None:
                    self._fail(
                        f"SWMR violated: line {line:#x} exclusive/dirty at "
                        f"nodes {dirty_holder} and {node}"
                    )
                dirty_holder = node
        if dirty_holder is not None and holders != {dirty_holder}:
            self._fail(
                f"SWMR violated: line {line:#x} dirty at node "
                f"{dirty_holder} while cached by {sorted(holders)}"
            )

        home = self.protocol.home_of(line)
        entry = self.protocol.directories[home].peek(line)
        if entry is None:
            if holders:
                self._fail(
                    f"directory imprecise: line {line:#x} has no entry at "
                    f"home {home} but is cached by {sorted(holders)}"
                )
            return
        try:
            entry.check()
        except SimulationError as exc:  # srclint: ok(swallow-simulation-error) — _fail re-raises
            self._fail(f"line {line:#x} at home {home}: {exc}")
        if entry.state == DirState.DIRTY:
            if holders != {entry.owner}:
                self._fail(
                    f"directory imprecise: line {line:#x} DIRTY with owner "
                    f"{entry.owner} but cached by {sorted(holders)}"
                )
            if dirty_holder != entry.owner:
                self._fail(
                    f"directory imprecise: line {line:#x} owner "
                    f"{entry.owner} holds it in state "
                    f"{caches[entry.owner].secondary.probe(line).name}"
                )
        elif entry.state == DirState.SHARED:
            if dirty_holder is not None:
                self._fail(
                    f"directory imprecise: line {line:#x} SHARED but dirty "
                    f"at node {dirty_holder}"
                )
            if holders != entry.sharers:
                self._fail(
                    f"directory imprecise: line {line:#x} sharers "
                    f"{sorted(entry.sharers)} but cached by {sorted(holders)}"
                )
        else:
            if holders:
                self._fail(
                    f"directory imprecise: line {line:#x} UNOWNED but "
                    f"cached by {sorted(holders)}"
                )

    def check_buffers(self, iface) -> None:
        """Validate buffer occupancy bounds and ordering for one node."""
        self.checks_performed += 1
        config = self.machine.config
        depth = config.write_buffer_depth
        retires = iface._wb_retires
        if len(retires) > depth:
            self._fail(
                f"node {iface.node}: write buffer holds {len(retires)} "
                f"entries, depth is {depth}"
            )
        previous = None
        for retire in retires:
            if previous is not None and retire < previous:
                self._fail(
                    f"node {iface.node}: write buffer retire times not "
                    f"monotone ({retire} after {previous}) — FIFO order "
                    f"violated"
                )
            previous = retire
        if len(iface._pf_queue) > config.prefetch_buffer_depth:
            self._fail(
                f"node {iface.node}: prefetch buffer holds "
                f"{len(iface._pf_queue)} entries, depth is "
                f"{config.prefetch_buffer_depth}"
            )
        for line in iface.mshr.outstanding_lines():
            miss = iface.mshr.lookup(line)
            if miss is not None and miss.complete_time < miss.issue_time:
                self._fail(
                    f"node {iface.node}: MSHR entry for line {line:#x} "
                    f"completes at {miss.complete_time}, before its issue "
                    f"time {miss.issue_time}"
                )
        # The processor consumes fills only once its clock reaches
        # ``_next_fill``, so it must be the heap's head; and batched
        # collection keeps the two dictionaries within their bound.
        arrivals = iface._fill_arrivals
        if any(
            arrivals[(i - 1) // 2] > arrivals[i] for i in range(1, len(arrivals))
        ):
            self._fail(
                f"node {iface.node}: fill arrivals {arrivals} are not a heap"
            )
        head = arrivals[0] if arrivals else TIME_INFINITY
        if iface._next_fill != head:
            self._fail(
                f"node {iface.node}: fill watermark _next_fill="
                f"{iface._next_fill} is not the earliest pending fill "
                f"arrival {head}"
            )
        size = len(iface._misses) + len(iface._wb_lines)
        if size > iface._gc_bound:
            self._fail(
                f"node {iface.node}: {size} MSHR and buffered-line entries "
                f"exceed the collection bound _gc_bound={iface._gc_bound}"
            )

    def check_machine(self) -> None:
        """Full-state sweep over every cache, directory, and buffer."""
        self.checks_performed += 1
        try:
            self.protocol.check_invariants()
        except SimulationError as exc:  # srclint: ok(swallow-simulation-error) — _fail re-raises
            self._fail(str(exc))
        for iface in self.machine.memifaces:
            self.check_buffers(iface)
        self.check_counters()

    def check_counters(self) -> None:
        """Event counters are monotone: a negative value means counter
        state leaked between runs or a decrement snuck in."""
        self.checks_performed += 1
        for name, value in self.protocol.stats.counter_items():
            if value < 0:
                self._fail(f"protocol counter {name} is negative ({value})")
        for directory in self.protocol.directories:
            if directory.nacks_sent < 0:
                self._fail(
                    f"directory {directory.node_id} nacks_sent is "
                    f"negative ({directory.nacks_sent})"
                )

    def _fail(self, message: str) -> None:
        raise SimulationError(
            f"coherence invariant violated: {message}\n"
            f"transition trace (most recent last):\n{self.trace.format()}"
        )
