"""Per-node memory interface.

Sits between a processor and the coherence protocol, implementing the
processor environment of Figure 1: the read path through the two cache
levels, the 16-entry write buffer (used under RC), the 16-entry prefetch
buffer, and the MSHRs of the lockup-free secondary cache.

Write buffering uses an *eager drain* model: the ownership transaction of
a buffered write is evaluated at enqueue time with its future issue time,
so the directory and caches reflect the write immediately while the
retire/completion times carry the buffer's FIFO and pipelining
constraints.  Under release consistency this is semantically safe — RC
explicitly allows writes to propagate early, and only the *release* fence
(handled via :meth:`release_point`) constrains ordering.  Under SC the
buffer is bypassed entirely and the processor stalls to completion.

MSHR entries exist only where a later access can meet them in flight:
prefetches, and demand misses on multi-context nodes.  A single context
blocks on every read (Section 4.1), so no access of its node can issue
before its demand read miss retires; that miss makes no entry, and the
interface keeps only its retire time.  A ``read`` or ``prefetch`` issued
on a single-context node before that time is a sequence the processor
never produces, and raises :class:`~repro.sim.engine.SimulationError`.

Pending state is never swept before it is read.  Every query tests
maturity itself: an MSHR entry is in flight while its ``complete_time``
is later than ``now``, a buffered line while its retire time is, and
the two buffers' full checks first drop their matured heads.  Matured
dictionary entries are dead weight only; :meth:`_collect` drops them in
batches once ``_misses`` and ``_wb_lines`` together reach
``_gc_bound``.  Collecting at ``now`` is safe because a node's accesses
follow its processor clock, which never goes backwards: what has
matured by ``now`` stays matured for every later query.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Deque, Dict, List, NamedTuple, Optional

from repro.caches import MSHRTable, OutstandingMiss
from repro.coherence import AccessClass, CoherenceProtocol
from repro.config import MachineConfig
from repro.consistency import ConsistencyPolicy
from repro.sim.engine import TIME_INFINITY, EventEngine, SimulationError

_PRIMARY_HIT = AccessClass.PRIMARY_HIT
_SECONDARY_HIT = AccessClass.SECONDARY_HIT

#: Fill watermark sentinel: no fill is pending.
_NEVER = TIME_INFINITY

#: Floor of ``_gc_bound``, the combined size of ``_misses`` and
#: ``_wb_lines`` at which their matured entries are collected.
_GC_FLOOR = 64

#: ``_write_buffered``'s marker for a write the owned-write probe has
#: already served (a raw secondary state is never negative).
_OWNED_HIT = -1


class ReadResult(NamedTuple):
    ready: int
    access_class: AccessClass
    combined_with_prefetch: bool


class WriteResult(NamedTuple):
    #: Time the processor may execute its next instruction.
    proceed: int
    #: Cycles the processor spent stalled because the write buffer was
    #: full (RC only; zero under SC, whose stall is ``proceed - now``).
    buffer_full_stall: int
    access_class: AccessClass


class PrefetchResult(NamedTuple):
    #: Cycles the processor stalled on a full prefetch buffer.
    buffer_full_stall: int
    #: True if the prefetch was dropped (line present / already in flight).
    discarded: bool


#: Frame-free constructors, one per result type: build through the C
#: ``tuple.__new__`` (what the generated ``__new__`` ultimately calls),
#: with no Python frame per access — same type, same fields.
_MK_READ = partial(tuple.__new__, ReadResult)
_MK_WRITE = partial(tuple.__new__, WriteResult)
_MK_PREFETCH = partial(tuple.__new__, PrefetchResult)


class NodeMemoryInterface:
    """One node's processor-side memory port."""

    #: Entry points an observer may wrap through
    #: :meth:`~repro.system.machine.Machine.interpose`.
    ENTRY_POINTS = ("read", "write", "prefetch", "release_point")

    def __init__(
        self,
        node: int,
        config: MachineConfig,
        policy: ConsistencyPolicy,
        protocol: CoherenceProtocol,
        engine: EventEngine,
    ) -> None:
        self.node = node
        self.config = config
        self.policy = policy
        self.protocol = protocol
        self.engine = engine
        self.mshr = MSHRTable()
        #: Memory-event trace recorder; installed by the machine when
        #: ``MachineConfig.trace_memory_events`` is set, else ``None``.
        self.trace = None

        # Write buffer (eager drain): retire times of the buffered
        # writes, newest last; values are monotone.  Matured heads stay
        # until a full check drops them.
        self._wb_retires: Deque[int] = deque()
        self._wb_last_retire = 0
        # Retire times of the last `max_outstanding` issued writes, for
        # the in-flight pipelining cap of the lockup-free cache.
        self._wb_inflight: Deque[int] = deque()
        # Latest completion time (incl. invalidation acks) of any
        # buffered write.  A release waits only for the latest, and a
        # completion already reached is no later than ``now``, so one
        # maximum serves ``release_point`` and never expires.
        self._wb_complete = 0
        # Buffered lines for read forwarding: line -> retire time.  A
        # line forwards while its retire time is later than ``now``;
        # matured entries wait for ``_collect``.
        self._wb_lines: Dict[int, int] = {}

        # Prefetch buffer: issue times of the bus-delayed prefetches,
        # newest last.  A prefetch that issues at once never occupies
        # it.  Matured heads stay until a full check drops them.
        self._pf_queue: Deque[int] = deque()
        self._pf_last_issue: Optional[int] = None

        # Pending primary-cache fill arrivals, a min-heap: each will
        # lock the processor out for `prefetch_fill_stall` cycles.
        self._fill_arrivals: List[int] = []
        #: Earliest pending fill arrival, the heap's head.  The processor
        #: loop consumes fills only once its clock reaches it.
        self._next_fill = _NEVER

        # Hot-path scalars and aliases.  The MSHR's dict is mutated in
        # place and never rebound, so aliasing it here is safe; the read
        # path probes it on every access.  Its entries, like
        # ``_wb_lines``'s, are collected once both together reach
        # ``_gc_bound``, which doubles from the survivors of the last
        # collection.
        self._misses = self.mshr._misses
        self._gc_bound = _GC_FLOOR
        self._line_bytes = config.line_bytes
        #: Single-context node: demand read misses make no MSHR entry
        #: (see the module docstring); ``_demand_retire`` is the retire
        #: time of the last one, which no read or prefetch may precede.
        #: It stays 0 on a multi-context node, so the guard never fires.
        self._single = config.contexts_per_processor == 1
        self._demand_retire = 0
        self._bypass = bool(config.write_buffer_bypass and policy.reads_bypass_writes)
        #: SC: a write stalls the processor until it completes (the
        #: policy is frozen, so its property is read once, here).
        self._write_stalls = policy.write_stalls_processor
        self._cached = bool(config.caching_shared_data)
        self._wb_depth = config.write_buffer_depth
        self._max_wb = config.max_outstanding_writes
        self._pf_depth = config.prefetch_buffer_depth
        self._pf_gap = config.contention.bus_occupancy_header

        # Fused probes (see read/write/prefetch): the protocol's packed
        # hit and discard checks run inline here — identical counters
        # and latencies, minus the protocol's call frames — and their
        # misses go straight to the protocol's post-probe helpers
        # (``_read_fill``, ``_write_probed``).  Like the protocol, they
        # read only its compiled table, whose compile step has checked
        # that every hit rule fills from the cache.  ``_fused`` gates
        # them all, and the processor's inline probes with them: the
        # machine clears it on every node when an observer installs
        # through ``Machine.interpose`` or a memory-event trace is
        # installed, so every observer sees the protocol's own entry
        # points.  The
        # aliased containers (``_node_arrays``, the stats dicts) are
        # mutated in place and never rebound.
        self._fused = True
        self._arrays = protocol._node_arrays[node]
        self._pri_nsets = protocol._pri_nsets
        self._sec_nsets = protocol._sec_nsets
        self._pri_deep = protocol._pri_deep
        self._sec_deep = protocol._sec_deep
        self._stats = protocol.stats
        self._reads = protocol.stats.reads_by_class
        self._writes = protocol.stats.writes_by_class
        self._lat_rph = protocol._lat_read_primary_hit
        self._lat_rfs = protocol._lat_read_fill_secondary
        self._lat_wos = protocol._lat_write_owned_secondary
        # The compiled table's write-hit rows by raw state byte: the
        # fused probes serve exactly the states the active protocol
        # calls write hits (MESI adds E), with the rule's next state.
        self._write_hit = protocol.compiled.write_hit

        # Counters
        self.write_buffer_full_stall_cycles = 0
        self.prefetch_buffer_full_stall_cycles = 0
        self.prefetches_discarded = 0
        self.prefetches_sent = 0
        self.demand_combined_with_prefetch = 0
        self.store_forwards = 0

    # -- collection -----------------------------------------------------------

    def _collect(self, now: int) -> None:
        """Drop the ``_misses`` and ``_wb_lines`` entries matured by
        ``now`` and set the next bound to twice the survivors (at least
        ``_GC_FLOOR``), so the sweeps cost O(1) per insert amortized.
        No query depends on it: each tests maturity itself."""
        lines = self._wb_lines
        for line in [line for line, t in lines.items() if t <= now]:
            del lines[line]
        misses = self._misses
        for line in [line for line, m in misses.items() if m.complete_time <= now]:
            del misses[line]
        survivors = len(lines) + len(misses)
        self._gc_bound = max(_GC_FLOOR, 2 * survivors)

    # -- reads ---------------------------------------------------------------

    def read(self, addr: int, now: int) -> ReadResult:
        if now < self._demand_retire:
            self._early_access("read", now)
        line = addr - addr % self._line_bytes

        miss = self._misses.get(line)
        if miss is not None and miss.complete_time > now:
            # Combine with the in-flight transaction (Section 5.1): the
            # reference completes as soon as the earlier response returns.
            self.mshr.combine(line)
            if miss.is_prefetch:
                self.demand_combined_with_prefetch += 1
            ready = max(now + 1, miss.complete_time)
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, ready, source="combine",
                    access_class=AccessClass.SECONDARY_HIT.value,
                )
            return _MK_READ((ready, AccessClass.SECONDARY_HIT, miss.is_prefetch))

        if self._bypass and self._wb_lines.get(line, 0) > now:
            # Same-line forward out of the write buffer: free.
            self.store_forwards += 1
            lat = self.config.latency.read_primary_hit
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, now + lat, source="forward",
                    access_class=AccessClass.PRIMARY_HIT.value,
                    rf_eid=self.trace.buffered_writer(self.node, line),
                )
            return _MK_READ((now + lat, AccessClass.PRIMARY_HIT, False))

        if not self._cached:
            outcome = self.protocol.read_uncached(self.node, addr, now)
            if self.trace is not None:
                self.trace.record_read(
                    self.node, addr, now, outcome.retire, source="uncached",
                    access_class=outcome.access_class.value,
                )
            return _MK_READ((outcome.retire, outcome.access_class, False))

        proto = self.protocol
        if self._fused:
            # Fused packed probe — bit-identical to protocol.read (same
            # counter bumps, same latencies); see the gate comment in
            # __init__.
            info = self._arrays
            word = line // self._line_bytes
            index = word % self._pri_nsets
            if (info[0][index] == line and info[1][index]) or (
                self._pri_deep and info[2].touch(line)
            ):
                info[2].hits += 1
                reads = self._reads
                reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rph, _PRIMARY_HIT, False))
            info[2].misses += 1
            sindex = word % self._sec_nsets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if not state and self._sec_deep:
                state = info[5].touch(line)
            if state:
                info[5].hits += 1
                proto._fill_primary(self.node, line, index)
                reads = self._reads
                reads[_SECONDARY_HIT] = reads.get(_SECONDARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rfs, _SECONDARY_HIT, False))
            info[5].misses += 1
            outcome = proto._read_fill(self.node, line, now)
            retire = outcome[0]
            access_class = outcome[2]
            reads = self._reads
            reads[access_class] = reads.get(access_class, 0) + 1
            if self._single:
                self._demand_retire = retire
            else:
                self._demand_miss(line, now, retire)
            return _MK_READ((retire, access_class, False))
        outcome = proto.read(self.node, addr, now)
        retire = outcome[0]
        access_class = outcome[2]
        if access_class is not _PRIMARY_HIT and access_class is not _SECONDARY_HIT:
            self._demand_miss(line, now, retire)
        if self.trace is not None:
            self.trace.record_read(
                self.node, addr, now, retire, source="memory",
                access_class=access_class.value,
            )
        return _MK_READ((retire, access_class, False))

    def _demand_miss(self, line: int, now: int, retire: int) -> None:
        """Track a demand read miss issued at ``now`` until ``retire``:
        an MSHR entry on a multi-context node, only the retire time on a
        single-context one (see the module docstring)."""
        if self._single:
            self._demand_retire = retire
            return
        if len(self._misses) + len(self._wb_lines) >= self._gc_bound:
            self._collect(now)
        self.mshr.add(OutstandingMiss(line, False, now, retire, False))

    def _early_access(self, kind: str, now: int) -> None:
        raise SimulationError(
            f"node {self.node}: {kind} at t={now} issued before its single "
            f"context's demand miss retires at t={self._demand_retire}"
        )

    # -- writes --------------------------------------------------------------

    def write(self, addr: int, now: int) -> WriteResult:
        proto = self.protocol
        if self._cached and self._fused:
            # Fused write probe, serving SC and RC alike: the secondary
            # state as ``protocol.write`` probes it (a deeper-plane copy
            # moves to plane 0, as on the read path).  An owned hit (M,
            # or E under MESI) is served here, bit-identical to
            # protocol.write's — same counter bumps, same primary
            # refresh; see the gate comment in __init__.  Anything else
            # is handed to ``_write_probed`` with the state already in
            # hand.  An owned hit never leaves the node, so its effect
            # does not depend on when it issues: SC retires it now, RC
            # at the buffered issue time.
            line = addr - addr % self._line_bytes
            info = self._arrays
            word = line // self._line_bytes
            sindex = word % self._sec_nsets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if not state and self._sec_deep:
                state = info[5].touch(line)
            hit = self._write_hit[state]
            if hit is None:
                if self._write_stalls:
                    outcome = proto._write_probed(self.node, addr, line, state, now)
                    return _MK_WRITE((outcome[1], 0, outcome[2]))
                return self._write_buffered(addr, now, state)
            # MESI's silent upgrade: an E copy becomes M with no
            # message (a no-op store for M itself).
            info[4][sindex] = hit.next_cache
            info[5].hits += 1
            stats = self._stats
            stats.writes_total += 1
            stats.writes_line_present += 1
            # Write-through primary: refresh the copy if present.
            pindex = word % self._pri_nsets
            if (info[0][pindex] == line and info[1][pindex]) or (
                self._pri_deep and info[2].touch(line)
            ):
                info[1][pindex] = 1  # LineState.SHARED
            writes = self._writes
            writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
            if self._write_stalls:
                return _MK_WRITE((now + self._lat_wos, 0, _SECONDARY_HIT))
            return self._write_buffered(addr, now, _OWNED_HIT)
        if self._write_stalls:
            # SC: the processor stalls until the write completes with
            # respect to all processors — ownership plus invalidation
            # acknowledgements when other copies existed.
            if self._cached:
                outcome = proto.write(self.node, addr, now)
            else:
                outcome = proto.write_uncached(self.node, addr, now)
            return _MK_WRITE((outcome.complete, 0, outcome.access_class))
        return self._write_buffered(addr, now, None)

    def _write_buffered(
        self, addr: int, now: int, state: Optional[int]
    ) -> WriteResult:
        """RC path: enqueue in the write buffer, drain eagerly.  ``state``
        is ``_OWNED_HIT`` when ``write``'s probe served the access, the
        probed secondary state when it did not, and None when the probe
        did not run."""
        if len(self._misses) + len(self._wb_lines) >= self._gc_bound:
            self._collect(now)
        full_stall = 0
        wb = self._wb_retires
        if len(wb) >= self._wb_depth:
            while wb and wb[0] <= now:
                wb.popleft()
            if len(wb) >= self._wb_depth:
                free_at = wb.popleft()
                full_stall = free_at - now
                self.write_buffer_full_stall_cycles += full_stall
                now = free_at

        issue = now
        inflight = self._wb_inflight
        if len(inflight) >= self._max_wb:
            issue = max(issue, inflight.popleft())

        line = addr - addr % self._line_bytes
        if state == _OWNED_HIT:
            retire = complete = issue + self._lat_wos
            access_class = _SECONDARY_HIT
        else:
            # Buffered writes drain on the background resource chain:
            # DASH gives demand reads priority over the write buffer.
            if state is not None:
                outcome = self.protocol._write_probed(
                    self.node, addr, line, state, issue, background=True
                )
            elif self._cached:
                outcome = self.protocol.write(
                    self.node, addr, issue, background=True
                )
            else:
                outcome = self.protocol.write_uncached(
                    self.node, addr, issue, background=True
                )
            retire = outcome.retire
            complete = outcome.complete
            access_class = outcome.access_class
        if retire < self._wb_last_retire:
            retire = self._wb_last_retire
        self._wb_last_retire = retire
        wb.append(retire)
        inflight.append(retire)
        if complete < retire:
            complete = retire
        if complete > self._wb_complete:
            self._wb_complete = complete
        self._wb_lines[line] = retire
        if self.trace is not None:
            # The write just recorded by the protocol hook is now the
            # buffered entry same-line reads would forward from.
            self.trace.note_buffered_line(self.node, line)
        return _MK_WRITE((now + 1, full_stall, access_class))

    # -- releases -------------------------------------------------------------

    def release_point(self, now: int) -> int:
        """Earliest time a release may be performed: all earlier writes
        complete, including invalidation acknowledgements (RC)."""
        if not self.policy.release_requires_completion:
            return now
        # Every buffered write completes no earlier than it retires, so
        # ``_wb_complete`` also covers ``_wb_last_retire``.
        complete = self._wb_complete
        return complete if complete > now else now

    # -- prefetches -------------------------------------------------------------

    def prefetch(self, addr: int, exclusive: bool, now: int) -> PrefetchResult:
        if now < self._demand_retire:
            self._early_access("prefetch", now)
        full_stall = 0
        pf = self._pf_queue
        if len(pf) >= self._pf_depth:
            while pf and pf[0] <= now:
                pf.popleft()
            if len(pf) >= self._pf_depth:
                free_at = pf.popleft()
                full_stall = free_at - now
                self.prefetch_buffer_full_stall_cycles += full_stall
                now = free_at

        line = addr - addr % self._line_bytes
        existing = self._misses.get(line)
        if existing is not None and existing.complete_time <= now:
            existing = None  # matured: no longer in flight
        if existing is not None and (existing.exclusive or not exclusive):
            # Already in flight with sufficient permission: drop.
            self.prefetches_discarded += 1
            return _MK_PREFETCH((full_stall, True))

        # The prefetch occupies a buffer slot until it issues; issues are
        # serialized through the node bus.
        issue = now
        last = self._pf_last_issue
        if last is not None and last + self._pf_gap > issue:
            issue = last + self._pf_gap
        self._pf_last_issue = issue
        if issue > now:
            # Held back by the bus: occupies a slot until it issues.
            pf.append(issue)

        proto = self.protocol
        if self._fused:
            # Fused discard — protocol.prefetch's own test on the packed
            # secondary state: a line present in a write-hit state, or
            # present at all for a shared prefetch, is already
            # satisfied.  A discard touches no protocol counter; a line
            # in a deeper plane is left to ``protocol.prefetch``'s own
            # test.  See the gate comment in __init__.
            sindex = (line // self._line_bytes) % self._sec_nsets
            info = self._arrays
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state and (not exclusive or self._write_hit[state] is not None):
                self.prefetches_discarded += 1
                return _MK_PREFETCH((full_stall, True))
        outcome = proto.prefetch(self.node, addr, exclusive, issue)
        if outcome is None:
            self.prefetches_discarded += 1
            return _MK_PREFETCH((full_stall, True))

        self.prefetches_sent += 1
        if existing is not None:
            # Upgrade over an in-flight shared fetch: chain completion.
            self.mshr.retire(line)
        elif len(self._misses) + len(self._wb_lines) >= self._gc_bound:
            self._collect(now)
        retire = outcome.retire
        self.mshr.add(OutstandingMiss(line, exclusive, issue, retire, True))
        # The returning fill locks the processor out of the primary cache.
        self.note_fill_arrival(retire)
        return _MK_PREFETCH((full_stall, False))

    # -- fill lockout -------------------------------------------------------------

    def note_fill_arrival(self, arrival: int) -> None:
        """Record a fill that will lock the processor out of the primary
        cache when it returns: a prefetch's, or a blocked context's
        miss returning while another context runs."""
        heappush(self._fill_arrivals, arrival)
        if arrival < self._next_fill:
            self._next_fill = arrival

    def consume_fill_stalls(self, now: int) -> int:
        """Number of pending fills that have arrived by ``now``; each
        locks the processor out of the primary cache for the fill time.
        They leave the heap, whose new head is ``_next_fill``."""
        arrivals = self._fill_arrivals
        count = 0
        while arrivals and arrivals[0] <= now:
            heappop(arrivals)
            count += 1
        self._next_fill = arrivals[0] if arrivals else _NEVER
        return count
