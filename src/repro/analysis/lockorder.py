"""Static lock-order deadlock analysis for Tango programs.

The runtime deadlock detector (PR 2's who-waits-on-what reports) only
fires when a particular schedule actually deadlocks.  This pass finds
*potential* deadlocks without timing a single access: it unrolls each
thread's op stream under the untimed
:class:`~repro.analysis.executor.LogicalExecutor` (synchronization
semantics only — no architecture simulation) and builds the program's
**acquisition graph**:

* a node per lock address;
* an edge ``a -> b`` whenever some thread requests lock ``b`` while
  holding lock ``a``, annotated with a witness site.

A cycle in this graph is the classic lock-order hazard: two threads
taking the same locks in opposite orders can deadlock under *some*
interleaving even if the analyzed schedule completes.  Cycles are found
via Tarjan's strongly-connected components; every SCC with a cycle is
reported once, with a concrete witness path and the sites that created
its edges.

The pass also cross-checks the blocking structure around barriers and
flags:

* **barrier participation** — a barrier whose declared participant
  count differs between threads, exceeds the process count, or exceeds
  the number of distinct threads that ever arrive, can never release a
  full episode (guaranteed deadlock);
* **hold-across-blocking** — a thread that enters a BARRIER or
  FLAG_WAIT while holding a lock stalls every other thread that needs
  the lock until the barrier/flag releases it — deadlock if one of
  *those* threads participates in the same barrier (reported as a
  warning, since the flag/barrier may be ordered before the lock by
  construction).

If the analyzed schedule itself deadlocks, that is reported as a
definite finding with the executor's who-waits-on-what detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.executor import LogicalExecutor, OpListener
from repro.analysis.tracecheck import tarjan_sccs
from repro.sim.engine import DeadlockError
from repro.tango import ops as O
from repro.tango.program import Program

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class AcquisitionSite:
    """Witness for one edge: where a thread took ``held`` then ``wanted``."""

    thread: int
    op_index: int
    held: int
    wanted: int

    def __str__(self) -> str:
        return (
            f"thread {self.thread} op#{self.op_index}: requests "
            f"{self.wanted:#x} while holding {self.held:#x}"
        )


@dataclass(frozen=True)
class LockOrderFinding:
    """One reported hazard."""

    severity: str
    code: str
    message: str
    #: Witness sites (edge provenance for cycles, empty otherwise).
    sites: Tuple[AcquisitionSite, ...] = ()

    def __str__(self) -> str:
        head = f"[{self.severity}] {self.code}: {self.message}"
        if not self.sites:
            return head
        return head + "".join(f"\n    {site}" for site in self.sites)


@dataclass
class LockOrderReport:
    """Everything the analysis learned about one program."""

    program: str
    num_threads: int
    findings: List[LockOrderFinding] = field(default_factory=list)
    #: The acquisition graph: lock -> set of locks requested while held.
    edges: Dict[int, Set[int]] = field(default_factory=dict)
    locks_seen: Set[int] = field(default_factory=set)
    barriers_seen: Set[int] = field(default_factory=set)

    @property
    def errors(self) -> List[LockOrderFinding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        head = (
            f"lock-order [{self.program}]: {len(self.locks_seen)} lock(s), "
            f"{len(self.barriers_seen)} barrier(s), "
            f"{sum(len(v) for v in self.edges.values())} acquisition "
            f"edge(s)"
        )
        if not self.findings:
            return head + " — no ordering hazards"
        lines = [head + f" — {len(self.findings)} finding(s):"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


class LockOrderAnalyzer(OpListener):
    """Listener that builds the acquisition graph from the op stream.

    Edges are recorded at *request* time (``on_op``), not grant time:
    the ordering hazard exists the moment a thread asks for ``b`` with
    ``a`` in hand, whether or not this schedule made it wait.
    """

    def __init__(self) -> None:
        self.edges: Dict[int, Set[int]] = {}
        self.sites: Dict[Tuple[int, int], AcquisitionSite] = {}
        self.locks_seen: Set[int] = set()
        self.barriers_seen: Set[int] = set()
        self.held: Dict[int, List[int]] = {}
        #: barrier addr -> declared participant counts (all seen).
        self.barrier_counts: Dict[int, Set[int]] = {}
        #: barrier addr -> distinct threads that ever arrive.
        self.barrier_threads: Dict[int, Set[int]] = {}
        #: (thread, blocking-op description, held locks) witnesses.
        self.hold_across: List[Tuple[int, int, str, Tuple[int, ...]]] = []
        self.num_processes = 0

    def on_start(self, allocator, num_processes: int) -> None:
        self.num_processes = num_processes

    def on_op(self, thread: int, index: int, op: tuple) -> None:
        if not isinstance(op, tuple) or not op:
            return
        code = op[0]
        if code == O.LOCK:
            addr = op[1]
            self.locks_seen.add(addr)
            held = self.held.setdefault(thread, [])
            for prior in held:
                self.edges.setdefault(prior, set()).add(addr)
                self.sites.setdefault(
                    (prior, addr),
                    AcquisitionSite(thread, index, prior, addr),
                )
            held.append(addr)
        elif code == O.UNLOCK:
            held = self.held.get(thread)
            if held and op[1] in held:
                held.remove(op[1])
        elif code == O.BARRIER:
            addr, participants = op[1], op[2]
            self.barriers_seen.add(addr)
            if isinstance(participants, int):
                self.barrier_counts.setdefault(addr, set()).add(participants)
            self.barrier_threads.setdefault(addr, set()).add(thread)
            self._note_blocking(thread, index, f"BARRIER({addr:#x})")
        elif code == O.FLAG_WAIT:
            self._note_blocking(thread, index, f"FLAG_WAIT({op[1]:#x})")

    def _note_blocking(self, thread: int, index: int, what: str) -> None:
        held = self.held.get(thread)
        if held:
            self.hold_across.append((thread, index, what, tuple(held)))


def _cycle_within(scc: Sequence[int], edges: Dict[int, Set[int]]) -> List[int]:
    """A short concrete cycle inside one cyclic SCC (BFS back to start)."""
    start = min(scc)
    members = set(scc)
    # BFS for the shortest path start -> ... -> start of length >= 1.
    parents: Dict[int, int] = {}
    frontier = [start]
    seen: Set[int] = set()
    while frontier:
        nxt: List[int] = []
        for node in frontier:
            for succ in sorted(edges.get(node, ())):
                if succ == start:
                    cycle = [start]
                    cursor = node
                    while cursor != start:
                        cycle.append(cursor)
                        cursor = parents[cursor]
                    if len(cycle) > 1:
                        cycle.append(start)
                        cycle.reverse()
                        return cycle
                    return [start, start]
                if succ in members and succ not in seen:
                    seen.add(succ)
                    parents[succ] = node
                    nxt.append(succ)
        frontier = nxt
    return [start]  # unreachable for a genuinely cyclic SCC


def analyze_program(
    program: Program, num_processes: int, **executor_kwargs
) -> LockOrderReport:
    """Unroll ``program`` untimed and analyze its acquisition graph."""
    analyzer = LockOrderAnalyzer()
    report = LockOrderReport(program=program.name, num_threads=num_processes)
    executor = LogicalExecutor(
        program,
        num_processes,
        listeners=[analyzer],
        strict=False,
        **executor_kwargs,
    )
    try:
        executor.run()
    except DeadlockError as exc:
        report.findings.append(
            LockOrderFinding(
                ERROR,
                "schedule-deadlock",
                f"the analyzed schedule itself deadlocked: {exc}",
            )
        )

    report.edges = analyzer.edges
    report.locks_seen = analyzer.locks_seen
    report.barriers_seen = analyzer.barriers_seen

    # Lock-order cycles.
    nodes = set(analyzer.edges).union(*analyzer.edges.values())
    for scc in tarjan_sccs(
        {n: sorted(analyzer.edges.get(n, ())) for n in sorted(nodes)}
    ):
        cyclic = len(scc) > 1 or (
            scc[0] in analyzer.edges.get(scc[0], ())
        )
        if not cyclic:
            continue
        cycle = _cycle_within(scc, analyzer.edges)
        sites = tuple(
            analyzer.sites[(a, b)]
            for a, b in zip(cycle, cycle[1:])
            if (a, b) in analyzer.sites
        )
        rendered = " -> ".join(f"{lock:#x}" for lock in cycle)
        report.findings.append(
            LockOrderFinding(
                ERROR,
                "lock-order-cycle",
                f"locks acquired in conflicting orders: {rendered} "
                f"(deadlock under an adverse interleaving)",
                sites,
            )
        )

    # Barrier participation.
    for addr in sorted(analyzer.barrier_counts):
        counts = analyzer.barrier_counts[addr]
        arrivals = analyzer.barrier_threads.get(addr, set())
        if len(counts) > 1:
            report.findings.append(
                LockOrderFinding(
                    ERROR,
                    "barrier-mismatch",
                    f"barrier {addr:#x} declared with conflicting "
                    f"participant counts {sorted(counts)}",
                )
            )
            continue
        declared = next(iter(counts))
        if analyzer.num_processes and declared > analyzer.num_processes:
            report.findings.append(
                LockOrderFinding(
                    ERROR,
                    "barrier-overcommit",
                    f"barrier {addr:#x} declares {declared} participants "
                    f"but only {analyzer.num_processes} process(es) exist",
                )
            )
        elif declared > len(arrivals):
            report.findings.append(
                LockOrderFinding(
                    ERROR,
                    "barrier-starved",
                    f"barrier {addr:#x} declares {declared} participants "
                    f"but only {len(arrivals)} distinct thread(s) ever "
                    f"arrive — no episode can release",
                )
            )

    # Locks held across blocking operations.
    for thread, index, what, held in analyzer.hold_across:
        held_rendered = ", ".join(f"{lock:#x}" for lock in held)
        report.findings.append(
            LockOrderFinding(
                WARNING,
                "lock-held-at-blocking-op",
                f"thread {thread} op#{index} blocks at {what} while "
                f"holding lock(s) {held_rendered}",
            )
        )
    return report


def analyze_apps(
    apps: Sequence[str] = ("MP3D", "LU", "PTHOR"),
) -> List[LockOrderReport]:
    """Run the analysis over the smoke configurations of the paper's
    applications (the ``repro-1991 check --lock-order`` entry point)."""
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program

    return [
        analyze_program(smoke_program(name), SMOKE_PROCESSES)
        for name in apps
    ]
