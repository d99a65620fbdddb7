"""Axiomatic trace-conformance checking of simulated executions.

The simulator is an *operational* model of each consistency model: SC
stalls, PC keeps a FIFO write buffer, WC fences at every synchronization
operation, RC fences at releases.  This module is the *second, axiomatic*
definition of the same models, derived independently in the TSOtool
style, and an offline checker that validates each recorded execution
against it:

1. With ``MachineConfig(trace_memory_events=True)`` the machine installs
   a :class:`MemoryEventTrace` recorder; the processor, memory interface,
   and coherence protocol append one :class:`TraceEvent` per shared read,
   write, acquire, and release (with issue / perform / complete times).
   With the flag off no recorder exists anywhere and runs are
   bit-identical to builds without this module.
2. :func:`check_trace` reconstructs the reads-from (rf) and coherence
   (co) relations from recorded load values, adds the declared model's
   preserved-program-order and synchronization axioms, and cycle-checks
   the union po|rf|co|fr — emitting a minimal human-readable witness
   cycle on violation.  Operational performance-order axioms (a blocking
   read holds up later ops; an SC write completes before the next op; a
   release fence covers earlier writes' completions) are checked
   directly against the recorded timestamps.

Value semantics match :mod:`repro.analysis.litmus`: the simulator is a
timing model, so a read's "value" is the number of writes to its cache
line that performed (ownership retired) at or before the read performed.
Coherence order is the protocol *transaction order* (event order), which
is how the eager-drain write buffer actually serializes writes — two
same-line writes can retire out of issue order (miss then dirty-hit)
while their ownership transactions stay ordered.

Soundness caveats (see DESIGN.md for the full table):

* a node always sees its *own* earlier writes (store forwarding and the
  eagerly-updated local hierarchy), so its reads' versions are clamped
  up to its latest prior same-line write; internal reads-from edges are
  therefore not added to the happens-before graph (program order and
  po-loc already cover them);
* cross-context visibility *within* one node under PC (a context
  observing its neighbour's unretired buffered write) is not modelled as
  an rf edge, so PC multi-context flag idioms are outside the checked
  fragment — the litmus matrix and the per-app CI runs use one context
  per processor;
* fault-injection runs retry protocol transactions, which would record
  duplicate write events; trace checking is meant for fault-free runs.
"""

from __future__ import annotations

import types
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import policy_for

#: Names of the intentionally-seeded consistency bugs (``repro-1991
#: check --trace-check --trace-mutate <name>``); each must be caught by
#: :func:`check_trace` with a printed witness.
MUTATION_NAMES = (
    "drop-inval-ack",
    "release-overtakes-writes",
    "forward-unissued-write",
)

#: (litmus test, model) used to demonstrate each seeded mutation.
_DEMO_FOR: Dict[str, Tuple[str, Consistency]] = {
    "drop-inval-ack": ("SB", Consistency.SC),
    "release-overtakes-writes": ("MP_flag", Consistency.RC),
    "forward-unissued-write": ("SB", Consistency.PC),
}


class TraceEvent:
    """One recorded memory or synchronization event.

    ``kind`` is ``"R"`` / ``"W"`` / ``"ACQ"`` / ``"REL"``.  Times:
    ``issue`` is when the operation reached the memory system, ``perform``
    when it took effect (data arrival for reads, ownership retire for
    writes, grant for acquires, visibility for releases), ``complete``
    additionally covers invalidation acknowledgements (writes), and
    ``fence`` is the release's write-completion fence point.
    """

    __slots__ = (
        "eid", "kind", "tid", "op_index", "node", "addr", "line",
        "issue", "perform", "complete", "fence", "source", "rf_eid",
        "access_class", "sync", "participants",
    )

    def __init__(
        self,
        eid: int,
        kind: str,
        tid: int,
        op_index: int,
        node: int,
        addr: int,
        line: int,
        issue: int,
        perform: int,
        complete: int,
        fence: Optional[int] = None,
        source: str = "",
        rf_eid: Optional[int] = None,
        access_class: str = "",
        sync: Optional[str] = None,
        participants: int = 0,
    ) -> None:
        self.eid = eid
        self.kind = kind
        self.tid = tid
        self.op_index = op_index
        self.node = node
        self.addr = addr
        self.line = line
        self.issue = issue
        self.perform = perform
        self.complete = complete
        self.fence = fence
        self.source = source
        self.rf_eid = rf_eid
        self.access_class = access_class
        self.sync = sync
        self.participants = participants

    def __repr__(self) -> str:
        return (
            f"TraceEvent(eid={self.eid}, {self.kind} t{self.tid}:"
            f"op#{self.op_index} addr={self.addr:#x} issue={self.issue} "
            f"perform={self.perform})"
        )


class MemoryEventTrace:
    """Append-only per-run event trace.

    The recorder is deliberately dumb: hooks hand it raw timestamps at
    the point each access is resolved, and all interpretation happens
    offline in :func:`check_trace`.
    """

    def __init__(self, line_bytes: int, allocator: Optional[Any] = None) -> None:
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes
        self.allocator = allocator
        self.events: List[TraceEvent] = []
        #: eid of the most recently recorded write (any node).
        self.last_write_eid: Optional[int] = None
        self._cur_tid = -1
        self._cur_op = -1
        #: (node, line) -> eid of the buffered write a forward would hit.
        self._buffered: Dict[Tuple[int, int], int] = {}

    # -- recording hooks ----------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def begin_op(self, tid: int, op_index: int) -> None:
        """Called by the processor before a READ/WRITE reaches the
        memory interface, so nested hooks can attribute the event."""
        self._cur_tid = tid
        self._cur_op = op_index

    def record_read(
        self,
        node: int,
        addr: int,
        issue: int,
        perform: int,
        source: str,
        access_class: str,
        rf_eid: Optional[int] = None,
    ) -> TraceEvent:
        event = TraceEvent(
            eid=len(self.events), kind="R", tid=self._cur_tid,
            op_index=self._cur_op, node=node, addr=addr,
            line=self.line_of(addr), issue=issue, perform=perform,
            complete=perform, source=source, rf_eid=rf_eid,
            access_class=access_class,
        )
        self.events.append(event)
        return event

    def record_write(
        self,
        node: int,
        addr: int,
        issue: int,
        perform: int,
        complete: int,
        access_class: str,
    ) -> TraceEvent:
        event = TraceEvent(
            eid=len(self.events), kind="W", tid=self._cur_tid,
            op_index=self._cur_op, node=node, addr=addr,
            line=self.line_of(addr), issue=issue, perform=perform,
            complete=complete, source="protocol", access_class=access_class,
        )
        self.events.append(event)
        self.last_write_eid = event.eid
        return event

    def note_buffered_line(self, node: int, line: int) -> None:
        """The write just recorded now sits in ``node``'s write buffer
        for ``line``; same-line reads may forward from it."""
        if self.last_write_eid is not None:
            self._buffered[(node, line)] = self.last_write_eid

    def buffered_writer(self, node: int, line: int) -> Optional[int]:
        return self._buffered.get((node, line))

    def record_acquire(
        self,
        tid: int,
        op_index: int,
        node: int,
        addr: int,
        issue: int,
        sync: str,
        participants: int = 0,
    ) -> TraceEvent:
        event = TraceEvent(
            eid=len(self.events), kind="ACQ", tid=tid, op_index=op_index,
            node=node, addr=addr, line=self.line_of(addr), issue=issue,
            perform=issue, complete=issue, source="sync", sync=sync,
            participants=participants,
        )
        self.events.append(event)
        return event

    def record_release(
        self,
        tid: int,
        op_index: int,
        node: int,
        addr: int,
        issue: int,
        fence: int,
        perform: int,
        sync: str,
        participants: int = 0,
    ) -> TraceEvent:
        event = TraceEvent(
            eid=len(self.events), kind="REL", tid=tid, op_index=op_index,
            node=node, addr=addr, line=self.line_of(addr), issue=issue,
            perform=perform, complete=perform, fence=fence, source="sync",
            sync=sync, participants=participants,
        )
        self.events.append(event)
        return event

    def wrap_grant(
        self, event: TraceEvent, on_grant: Callable[[int], None]
    ) -> Callable[[int], None]:
        """Wrap a blocked acquire's grant callback so the event's
        perform time is patched in when the grant finally arrives."""

        def granted(grant_time: int) -> None:
            event.perform = grant_time
            event.complete = grant_time
            on_grant(grant_time)

        return granted

    # -- rendering ----------------------------------------------------------

    def describe(self, event: TraceEvent) -> str:
        where = ""
        if self.allocator is not None:
            region = self.allocator.region_of(event.addr)
            if region is not None:
                where = f" ({region.name}+{event.addr - region.base:#x})"
        tag = event.sync or event.access_class or event.source
        if event.kind == "REL" and event.fence is not None:
            times = (
                f"issue={event.issue} fence={event.fence} "
                f"perform={event.perform}"
            )
        elif event.kind == "W":
            times = (
                f"issue={event.issue} perform={event.perform} "
                f"complete={event.complete}"
            )
        else:
            times = f"issue={event.issue} perform={event.perform}"
        return (
            f"t{event.tid}:op#{event.op_index} {event.kind} "
            f"addr={event.addr:#x}{where} [{tag}] {times}"
        )


# -- the conformance report --------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One conformance failure with a human-readable witness."""

    axiom: str
    detail: str
    witness: str

    def format(self) -> str:
        return f"[{self.axiom}] {self.detail}\n{self.witness}"


@dataclass
class ConformanceReport:
    """Everything :func:`check_trace` derived from one execution."""

    model: Consistency
    num_events: int
    violations: List[Violation] = field(default_factory=list)
    #: Derived value (count of line versions seen) per read eid.
    read_values: Dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        head = (
            f"trace-check[{self.model.name}]: {self.num_events} events, "
            f"{len(self.violations)} violation(s)"
        )
        if not self.violations:
            return head + " -- conformant"
        return "\n".join([head] + [v.format() for v in self.violations])


# -- the checker --------------------------------------------------------------

#: How many distinct cycles to report before truncating the output.
_MAX_CYCLE_REPORTS = 5


def check_trace(trace: MemoryEventTrace, model: Consistency) -> ConformanceReport:
    """Validate one recorded execution against ``model``'s axioms."""
    policy = policy_for(model)
    events = trace.events
    report = ConformanceReport(model=model, num_events=len(events))
    num_events = len(events)

    by_tid: Dict[int, List[TraceEvent]] = {}
    for e in events:
        by_tid.setdefault(e.tid, []).append(e)

    # Coherence order: per-line protocol transaction (event) order.
    co: Dict[int, List[TraceEvent]] = {}
    for e in events:
        if e.kind == "W":
            co.setdefault(e.line, []).append(e)
    co_pos: Dict[int, int] = {}
    performs: Dict[int, List[int]] = {}
    own_eids: Dict[Tuple[int, int], List[int]] = {}
    own_idx: Dict[Tuple[int, int], List[int]] = {}
    for line, writes in co.items():
        performs[line] = sorted(w.perform for w in writes)
        for index, w in enumerate(writes):
            co_pos[w.eid] = index
            key = (line, w.node)
            own_eids.setdefault(key, []).append(w.eid)
            own_idx.setdefault(key, []).append(index)

    graph: Dict[int, List[Tuple[int, str]]] = {e.eid: [] for e in events}

    def add_edge(src: int, dst: int, label: str) -> None:
        graph.setdefault(dst, [])
        graph.setdefault(src, []).append((dst, label))

    next_aux = [num_events]

    def new_aux() -> int:
        nid = next_aux[0]
        next_aux[0] += 1
        graph[nid] = []
        return nid

    # -- rf / fr from recorded values ------------------------------------
    for e in events:
        if e.kind != "R":
            continue
        writes = co.get(e.line, [])
        # The simulator's value semantics (see repro.analysis.litmus): a
        # read is serialized at the memory system when it ISSUES — the
        # data-arrival latency is delivery, not ordering — so it returns
        # the count of same-line writes whose ownership retired by then.
        v = bisect_right(performs.get(e.line, []), e.issue)
        # Own-hierarchy visibility: the issuing node's caches and write
        # buffer reflect its own writes at transaction (event) order, so
        # a read never returns a version older than the node's latest
        # prior write to the line, even if that write's global retire is
        # still pending.
        key = (e.line, e.node)
        if key in own_eids:
            k = bisect_right(own_eids[key], e.eid)
            if k:
                v = max(v, own_idx[key][k - 1] + 1)
        if e.source == "forward":
            w: Optional[TraceEvent] = None
            if e.rf_eid is not None and 0 <= e.rf_eid < num_events:
                w = events[e.rf_eid]
            bad = None
            if w is None:
                bad = "forwarded read names no buffered write"
            elif w.kind != "W":
                bad = f"forward source eid {e.rf_eid} is {w.kind}, not a write"
            elif w.line != e.line:
                bad = (
                    f"read of line {e.line:#x} forwarded from a buffered "
                    f"write to line {w.line:#x}"
                )
            elif w.node != e.node:
                bad = f"forwarded from node {w.node}'s write buffer"
            if bad is not None:
                witness = "  " + trace.describe(e)
                if w is not None:
                    witness += "\n    claimed source: " + trace.describe(w)
                report.violations.append(
                    Violation("well-formed-forward", bad, witness)
                )
            else:
                assert w is not None
                v = max(v, co_pos[w.eid] + 1)
        report.read_values[e.eid] = v
        if 0 < v <= len(writes):
            w_rf = writes[v - 1]
            # Internal (same-node) reads-from is covered by po/po-loc;
            # adding it would point backwards in time for forwards.
            if w_rf.node != e.node:
                add_edge(w_rf.eid, e.eid, "rf (reads-from)")
        if v < len(writes):
            add_edge(e.eid, writes[v].eid, "fr (from-read)")

    # -- coherence chains -------------------------------------------------
    for writes in co.values():
        for a, b in zip(writes, writes[1:]):
            add_edge(a.eid, b.eid, "co (coherence order)")

    # -- preserved program order per model --------------------------------
    for tid in sorted(by_tid):
        evs = by_tid[tid]
        if model is Consistency.SC:
            for a, b in zip(evs, evs[1:]):
                add_edge(a.eid, b.eid, "po (SC: program order)")
            continue
        # Reads are blocking under every model, and acquires (WC: every
        # sync op) hold up everything after them.
        enters = ("R", "ACQ", "REL") if model is Consistency.WC else ("R", "ACQ")
        label = "ppo (blocking read/acquire before later ops)"
        prev_aux: Optional[int] = None
        for i in range(len(evs) - 1):
            e = evs[i]
            if prev_aux is None and e.kind not in enters:
                continue
            aux = new_aux()
            if prev_aux is not None:
                add_edge(prev_aux, aux, label)
            if e.kind in enters:
                add_edge(e.eid, aux, label)
            add_edge(aux, evs[i + 1].eid, label)
            prev_aux = aux
        # Same-line accesses stay in program order under every model.
        last_at_line: Dict[int, TraceEvent] = {}
        for e in evs:
            if e.kind not in ("R", "W"):
                continue
            prev = last_at_line.get(e.line)
            if prev is not None:
                add_edge(prev.eid, e.eid, "po-loc (same line)")
            last_at_line[e.line] = e
        if model is Consistency.PC:
            # The FIFO write buffer keeps writes in issue order.  Note
            # releases are NOT in this chain: PC has no fences, so a
            # release hands off on the synchronization manager's
            # timeline while earlier buffered writes are still in
            # flight — a W->REL edge here would be unsound (it produces
            # false cycles on lock-protected app data).
            prev_w: Optional[TraceEvent] = None
            for e in evs:
                if e.kind == "W":
                    if prev_w is not None:
                        add_edge(prev_w.eid, e.eid, "ppo (PC: FIFO write order)")
                    prev_w = e
        if policy.release_requires_completion:
            exits = (
                ("ACQ", "REL") if policy.acquire_requires_completion else ("REL",)
            )
            if any(e.kind in exits for e in evs[1:]):
                rel_label = (
                    "ppo (WC: fence after earlier ops)"
                    if model is Consistency.WC
                    else "ppo (RC: release after earlier ops)"
                )
                prev_aux = None
                for e in evs:
                    if prev_aux is not None and e.kind in exits:
                        add_edge(prev_aux, e.eid, rel_label)
                    aux = new_aux()
                    add_edge(e.eid, aux, rel_label)
                    if prev_aux is not None:
                        add_edge(prev_aux, aux, rel_label)
                    prev_aux = aux

    # -- synchronization edges --------------------------------------------
    sync_groups: Dict[Tuple[str, int], List[TraceEvent]] = {}
    for e in events:
        if e.sync is not None:
            sync_groups.setdefault((e.sync, e.addr), []).append(e)
    for (sync, _addr), sevs in sorted(sync_groups.items()):
        if sync == "lock":
            ordered = sorted(sevs, key=lambda e: (e.perform, e.eid))
            last_rel: Optional[TraceEvent] = None
            for e in ordered:
                if e.kind == "REL":
                    last_rel = e
                elif e.kind == "ACQ" and last_rel is not None:
                    add_edge(last_rel.eid, e.eid, "sync (lock hand-off)")
        elif sync == "flag":
            sets = sorted(
                (e for e in sevs if e.kind == "REL"),
                key=lambda e: (e.perform, e.eid),
            )
            for e in sevs:
                if e.kind != "ACQ":
                    continue
                for s in sets:
                    if s.perform <= e.perform:
                        add_edge(s.eid, e.eid, "sync (flag set before wait)")
                        break
        else:  # barrier: arrivals release all same-episode departures
            arrivals = sorted(
                (e for e in sevs if e.kind == "REL"),
                key=lambda e: (e.perform, e.eid),
            )
            departures = sorted(
                (e for e in sevs if e.kind == "ACQ"),
                key=lambda e: (e.perform, e.eid),
            )
            i = 0
            while i < len(arrivals):
                participants = max(1, arrivals[i].participants)
                for a in arrivals[i:i + participants]:
                    for d in departures[i:i + participants]:
                        add_edge(a.eid, d.eid, "sync (barrier episode)")
                i += participants

    # -- operational performance-order axioms ------------------------------
    _check_performance_order(trace, by_tid, model, policy, report)

    # -- cycle check --------------------------------------------------------
    successors = {
        node: [dst for dst, _label in succs] for node, succs in graph.items()
    }
    cyclic = [scc for scc in tarjan_sccs(successors) if len(scc) > 1]

    def scc_key(scc: List[int]) -> Tuple[int, int]:
        reals = [n for n in scc if n < num_events]
        return (len(scc), min(reals) if reals else num_events)

    for scc in sorted(cyclic, key=scc_key)[:_MAX_CYCLE_REPORTS]:
        reals = sorted(n for n in scc if n < num_events)
        if not reals:
            continue  # aux-only components cannot form cycles
        cycle = _shortest_cycle(graph, set(scc), reals[0])
        real_cycle = [(n, lbl) for n, lbl in cycle if n < num_events]
        report.violations.append(
            Violation(
                axiom="hb-acyclicity",
                detail=(
                    f"cycle of {len(real_cycle)} events in "
                    f"po|rf|co|fr+sync under the {model.name} axioms"
                ),
                witness=_render_cycle(trace, real_cycle),
            )
        )
    if len(cyclic) > _MAX_CYCLE_REPORTS:
        report.violations.append(
            Violation(
                axiom="hb-acyclicity",
                detail=(
                    f"{len(cyclic) - _MAX_CYCLE_REPORTS} further cyclic "
                    f"component(s) suppressed"
                ),
                witness="",
            )
        )
    return report


def _check_performance_order(
    trace: MemoryEventTrace,
    by_tid: Dict[int, List[TraceEvent]],
    model: Consistency,
    policy: Any,
    report: ConformanceReport,
) -> None:
    """Direct timestamp checks of the operational ordering guarantees."""

    def pair(prev: TraceEvent, nxt: TraceEvent, why: str) -> str:
        # A violated per-thread ordering axiom is a 2-event cycle: the
        # program-order edge forward and the observed temporal order
        # (the later op acting before the earlier one finished) back.
        return (
            "  witness cycle (2 events):\n"
            "    " + trace.describe(prev)
            + f"\n      --[{why}]--> " + trace.describe(nxt)
            + "\n      --[observed: acts before the prior op finished]--> "
            + f"back to t{prev.tid}:op#{prev.op_index} (cycle closes)"
        )

    for tid in sorted(by_tid):
        evs = by_tid[tid]
        max_complete: Optional[TraceEvent] = None
        for i, e in enumerate(evs):
            if i > 0:
                prev = evs[i - 1]
                if prev.kind in ("R", "ACQ") and e.issue < prev.perform:
                    report.violations.append(Violation(
                        "blocking-order",
                        f"t{tid}: op#{e.op_index} issued at {e.issue}, "
                        f"before the blocking {prev.kind} op#{prev.op_index} "
                        f"performed at {prev.perform}",
                        pair(prev, e, "blocking read/acquire holds later ops"),
                    ))
                if model is Consistency.SC:
                    if prev.kind == "W" and e.issue < prev.complete:
                        report.violations.append(Violation(
                            "sc-write-completion",
                            f"t{tid}: op#{e.op_index} issued at {e.issue} "
                            f"while write op#{prev.op_index} completes at "
                            f"{prev.complete} (invalidation acks outstanding)",
                            pair(prev, e, "SC: write completes before next op"),
                        ))
                    if prev.kind == "REL" and e.issue < prev.perform:
                        report.violations.append(Violation(
                            "sc-release-order",
                            f"t{tid}: op#{e.op_index} issued at {e.issue} "
                            f"before release op#{prev.op_index} performed at "
                            f"{prev.perform}",
                            pair(prev, e, "SC: release visible before next op"),
                        ))
            if max_complete is not None:
                if e.kind == "REL" and policy.release_requires_completion:
                    fence = e.fence if e.fence is not None else e.perform
                    if fence < max_complete.complete:
                        report.violations.append(Violation(
                            "release-completion",
                            f"t{tid}: release op#{e.op_index} fenced at "
                            f"{fence} while write op#{max_complete.op_index} "
                            f"completes at {max_complete.complete}",
                            pair(max_complete, e,
                                 "release waits for earlier writes' acks"),
                        ))
                if e.kind == "ACQ" and policy.acquire_requires_completion:
                    if e.issue < max_complete.complete:
                        report.violations.append(Violation(
                            "acquire-completion",
                            f"t{tid}: acquire op#{e.op_index} issued at "
                            f"{e.issue} while write op#{max_complete.op_index} "
                            f"completes at {max_complete.complete}",
                            pair(max_complete, e,
                                 "WC: acquire waits for earlier writes"),
                        ))
            if e.kind == "W" and (
                max_complete is None or e.complete > max_complete.complete
            ):
                max_complete = e


Node = TypeVar("Node", bound=Hashable)


def tarjan_sccs(graph: Mapping[Node, Sequence[Node]]) -> List[List[Node]]:
    """Strongly connected components (iterative Tarjan).  Roots and
    successors are visited in the mapping's and the lists' order, so the
    component order is deterministic."""
    index_of: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    sccs: List[List[Node]] = []
    counter = 0
    for root in graph:
        if root in index_of:
            continue
        work: List[Tuple[Node, int]] = [(root, 0)]
        while work:
            node, edge_i = work.pop()
            if edge_i == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            succs = graph.get(node, ())
            descend: Optional[Node] = None
            while edge_i < len(succs):
                dst = succs[edge_i]
                edge_i += 1
                if dst not in index_of:
                    descend = dst
                    break
                if dst in on_stack:
                    low[node] = min(low[node], index_of[dst])
            if descend is not None:
                work.append((node, edge_i))
                work.append((descend, 0))
                continue
            if low[node] == index_of[node]:
                scc: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _shortest_cycle(
    graph: Mapping[int, List[Tuple[int, str]]], scc: Set[int], start: int
) -> List[Tuple[int, str]]:
    """BFS shortest cycle through ``start`` inside one SCC.

    Returns ``[(node, out_label), ...]``: node ``i``'s ``out_label``
    annotates its edge to node ``i+1`` (the last node's edge closes the
    cycle back to ``start``).
    """
    parent: Dict[int, Tuple[int, str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for dst, label in graph.get(node, ()):
            if dst not in scc:
                continue
            if dst == start:
                rev_nodes: List[int] = []
                rev_labels: List[str] = []
                cur = node
                while cur != start:
                    rev_nodes.append(cur)
                    p, lbl = parent[cur]
                    rev_labels.append(lbl)
                    cur = p
                nodes = [start] + rev_nodes[::-1]
                labels = rev_labels[::-1] + [label]
                return list(zip(nodes, labels))
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (node, label)
                queue.append(dst)
    return []


def _render_cycle(
    trace: MemoryEventTrace, real_cycle: Sequence[Tuple[int, str]]
) -> str:
    if not real_cycle:
        return "  (unrenderable cycle)"
    lines = [f"  witness cycle ({len(real_cycle)} events):"]
    first = trace.events[real_cycle[0][0]]
    lines.append("    " + trace.describe(first))
    for i, (eid, label) in enumerate(real_cycle):
        if i + 1 < len(real_cycle):
            nxt = trace.describe(trace.events[real_cycle[i + 1][0]])
        else:
            nxt = f"back to t{first.tid}:op#{first.op_index} (cycle closes)"
        lines.append(f"      --[{label}]--> {nxt}")
    return "\n".join(lines)


# -- seeded mutations ----------------------------------------------------------


def _write_dropping_acks(self: Any, addr: int, now: int) -> Any:
    """BUG: an SC write releases the processor at ownership (retire)
    instead of completion, letting the next op overtake pending
    invalidation acknowledgements."""
    from repro.system.memiface import NodeMemoryInterface, WriteResult

    if self.config.caching_shared_data and self.policy.write_stalls_processor:
        outcome = self.protocol.write(self.node, addr, now)
        return WriteResult(outcome.retire, 0, outcome.access_class)
    return NodeMemoryInterface.write(self, addr, now)


def _release_point_overtaking(self: Any, now: int) -> int:
    """BUG: releases no longer wait for buffered writes to complete."""
    return now


def _read_forwarding_unissued(self: Any, addr: int, now: int) -> Any:
    """BUG: reads forward from the write buffer whenever it holds a
    live line, regardless of whether the buffered line matches."""
    from repro.coherence import AccessClass
    from repro.system.memiface import NodeMemoryInterface, ReadResult

    line = self.protocol.line_of(addr)
    live = [buffered for buffered, t in self._wb_lines.items() if t > now]
    miss = self.mshr.lookup(line)
    if live and (miss is None or miss.complete_time <= now):
        victim = min(live)
        self.store_forwards += 1
        lat = self.config.latency.read_primary_hit
        if self.trace is not None:
            self.trace.record_read(
                node=self.node, addr=addr, issue=now, perform=now + lat,
                source="forward",
                access_class=AccessClass.PRIMARY_HIT.value,
                rf_eid=self.trace.buffered_writer(self.node, victim),
            )
        return ReadResult(now + lat, AccessClass.PRIMARY_HIT, False)
    return NodeMemoryInterface.read(self, addr, now)


#: Mutation name -> (memory-interface entry point, buggy replacement).
_MUTATIONS = {
    "drop-inval-ack": ("write", _write_dropping_acks),
    "release-overtakes-writes": ("release_point", _release_point_overtaking),
    "forward-unissued-write": ("read", _read_forwarding_unissued),
}


def apply_mutation(machine: Any, name: str) -> None:
    """Install one intentionally-buggy behaviour on a built machine,
    through ``Machine.interpose`` like every other observer."""
    if name not in _MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; expected one of {MUTATION_NAMES}"
        )
    entry_point, buggy = _MUTATIONS[name]
    for iface in machine.memifaces:
        machine.interpose(
            iface, entry_point,
            lambda _current, iface=iface: types.MethodType(buggy, iface),
        )


# -- traced runners ------------------------------------------------------------


class TracedRun(NamedTuple):
    """A litmus schedule run with tracing on, plus its conformance."""

    trace: MemoryEventTrace
    report: ConformanceReport
    #: Thread-major body read values derived from the trace (same shape
    #: as the operational litmus outcome tuple).
    outcome: Tuple[int, ...]
    #: The machine the schedule ran on, for operational assertions
    #: (e.g. per-node ``store_forwards`` counters) alongside the
    #: axiomatic ones.
    machine: Any = None


def litmus_read_values(
    trace: MemoryEventTrace,
    report: ConformanceReport,
    num_threads: int,
    skip_per_tid: int,
) -> Tuple[int, ...]:
    """Thread-major derived values of body reads (warm reads skipped)."""
    values: List[int] = []
    for tid in range(num_threads):
        reads = [e for e in trace.events if e.tid == tid and e.kind == "R"]
        for e in reads[skip_per_tid:]:
            values.append(report.read_values[e.eid])
    return tuple(values)


def run_traced_litmus(
    test: Any,
    model: Consistency,
    schedule: Optional[Sequence[int]] = None,
    config_overrides: Optional[Mapping[str, object]] = None,
    mutation: Optional[str] = None,
) -> TracedRun:
    """Run one litmus schedule with tracing enabled and check it.

    Unlike :func:`repro.analysis.litmus._run_one` this tolerates body
    reads that bypass the protocol (store forwards, MSHR combines): the
    trace records them with their provenance, which is exactly what the
    bypass corner tests and mutation demos need.
    """
    from repro.analysis.litmus import _build_program
    from repro.system import Machine

    sched = tuple(schedule) if schedule is not None else tuple([0] * test.num_threads)
    addresses: Dict[str, int] = {}
    program = _build_program(test, sched, addresses)
    kwargs: Dict[str, object] = dict(
        num_processors=test.num_threads,
        consistency=model,
        contention=ContentionConfig(enabled=False),
        trace_memory_events=True,
    )
    if config_overrides:
        kwargs.update(config_overrides)
    config = dash_scaled_config(**kwargs)
    machine = Machine(config)
    if mutation is not None:
        apply_mutation(machine, mutation)
    machine.load(program)
    machine.run()
    trace = machine.trace
    assert trace is not None
    report = check_trace(trace, model)
    outcome = litmus_read_values(
        trace, report, test.num_threads, len(test.data_vars)
    )
    return TracedRun(
        trace=trace, report=report, outcome=outcome, machine=machine
    )


def run_mutation_demo(name: str) -> ConformanceReport:
    """Run the demonstration litmus test for one seeded mutation; the
    returned report must NOT be ok (the checker must catch the bug)."""
    from repro.analysis.litmus import standard_suite

    if name not in _DEMO_FOR:
        raise ValueError(
            f"unknown mutation {name!r}; expected one of {MUTATION_NAMES}"
        )
    test_name, model = _DEMO_FOR[name]
    test = next(t for t in standard_suite() if t.name == test_name)
    return run_traced_litmus(test, model, mutation=name).report


def check_app(
    app: str,
    model: Consistency = Consistency.RC,
    config_overrides: Optional[dict] = None,
) -> ConformanceReport:
    """Trace one smoke-scale application run and check conformance.

    ``config_overrides`` fields (e.g. ``protocol``) are applied on top
    of the standard traced configuration — the spec tests use this to
    trace-check an application under MESI.
    """
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.system import Machine

    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        consistency=model,
        trace_memory_events=True,
    )
    if config_overrides:
        config = config.replace(**config_overrides)
    machine = Machine(config)
    machine.load(smoke_program(app))
    machine.run()
    assert machine.trace is not None
    return check_trace(machine.trace, model)
