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
"""

from __future__ import annotations

from functools import partial

from collections import deque
from typing import Deque, Dict, NamedTuple, Optional

from repro.caches import MSHRTable, OutstandingMiss
from repro.coherence import AccessClass, CoherenceProtocol
from repro.coherence.table import ProtocolTableError
from repro.config import MachineConfig
from repro.consistency import ConsistencyPolicy
from repro.sim.engine import TIME_INFINITY, EventEngine

_PRIMARY_HIT = AccessClass.PRIMARY_HIT
_SECONDARY_HIT = AccessClass.SECONDARY_HIT

#: Expiry watermark sentinel: nothing pending matures before this.
_NEVER = TIME_INFINITY


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

        # Write buffer (eager drain): retire times of entries still
        # occupying the buffer, newest last; values are monotone.
        self._wb_retires: Deque[int] = deque()
        self._wb_last_retire = 0
        # Retire times of the last `max_outstanding` issued writes, for
        # the in-flight pipelining cap of the lockup-free cache.
        self._wb_inflight: Deque[int] = deque()
        # Completion times (incl. invalidation acks) not yet reached.
        self._wb_completions: list = []
        # Buffered lines for read forwarding: line -> retire time.
        self._wb_lines: Dict[int, int] = {}

        # Prefetch buffer: issue times of entries still occupying it.
        self._pf_queue: Deque[int] = deque()
        self._pf_last_issue: Optional[int] = None

        # Pending primary-cache fill arrivals that will lock the
        # processor out for `prefetch_fill_stall` cycles each.
        self._fill_arrivals: list = []
        #: Earliest pending fill arrival.  The processor loop consumes
        #: fills only once its clock reaches this watermark; every
        #: append lowers it, ``consume_fill_stalls`` recomputes it.
        self._next_fill = _NEVER

        # Hot-path scalars and aliases.  The MSHR's dict is mutated in
        # place and never rebound, so aliasing it here is safe; the read
        # path probes it on every access.
        self._misses = self.mshr._misses
        self._line_bytes = config.line_bytes
        self._bypass = bool(config.write_buffer_bypass and policy.reads_bypass_writes)
        self._cached = bool(config.caching_shared_data)
        #: True whenever any of the expiry-swept collections (write
        #: buffer, prefetch queue, MSHR) is non-empty.  Set at every
        #: enqueue site, recomputed by ``_expire``; the hot paths test
        #: ``_next_expiry`` instead, and the sanitizer checks both.
        self._busy = False
        #: Earliest time any tracked entry matures.  While ``now`` is
        #: before this watermark no entry can have expired, so callers
        #: skip the sweep outright; every enqueue site lowers it,
        #: ``_expire`` recomputes it from the survivors.
        self._next_expiry = _NEVER
        self._wb_depth = config.write_buffer_depth
        self._max_wb = config.max_outstanding_writes
        self._pf_depth = config.prefetch_buffer_depth
        self._pf_gap = config.contention.bus_occupancy_header

        # Fused probes (see read/write/prefetch): when the protocol's
        # packed fast path is live, the hit and discard checks run
        # inline here — identical counters and latencies, minus the
        # protocol's call frames.  The per-call gates disable a probe
        # the moment anything wraps ``protocol.read``/``write``/
        # ``prefetch`` (the sanitizer, the litmus recorder, and the
        # fault injector all install instance attributes) or installs
        # a memory-event trace, so every observer sees the classic
        # path.  The aliased containers (``_fast_info``, the stats
        # dicts) are mutated in place and never rebound.
        self._pdict = protocol.__dict__
        self._fuse = bool(getattr(protocol, "_fast", False))
        if self._fuse:
            self._finfo = protocol._fast_info
            self._pri_sets = protocol._pri_sets
            self._sec_sets = protocol._sec_sets
            self._stats = protocol.stats
            self._reads = protocol.stats.reads_by_class
            self._writes = protocol.stats.writes_by_class
            self._lat_rph = protocol._lat_read_primary_hit
            self._lat_rfs = protocol._lat_read_fill_secondary
            self._lat_wos = protocol._lat_write_owned_secondary
            # Spec-derived hit-rule views (see CoherenceProtocol): the
            # fused probes must serve exactly the states the active
            # protocol calls hits (MESI adds E) with the rule's declared
            # next state.
            self._rhit_fills = protocol._read_hit_fills
            self._rhit_rules = protocol._read_hit_rule_by_int
            self._whit_rules = protocol._write_hit_by_int
            self._whit_fills = protocol._write_hit_fills
            self._whit_next = protocol._write_hit_next_by_int
        else:
            self._finfo = None
            self._pri_sets = self._sec_sets = 0
            self._stats = self._reads = self._writes = None
            self._lat_rph = self._lat_rfs = self._lat_wos = 0
            self._rhit_fills = self._rhit_rules = None
            self._whit_rules = self._whit_fills = self._whit_next = None

        # Counters
        self.write_buffer_full_stall_cycles = 0
        self.prefetch_buffer_full_stall_cycles = 0
        self.prefetches_discarded = 0
        self.prefetches_sent = 0
        self.demand_combined_with_prefetch = 0
        self.store_forwards = 0

    # -- lazy expiry helpers ------------------------------------------------

    def _expire(self, now: int) -> None:
        """Drop every entry matured by ``now``.

        Each container is swept once, and the same pass folds the
        survivors into ``_next_expiry`` and ``_busy``.  Callers test
        the watermark first (``now >= self._next_expiry``), so the
        sweep runs only once something has actually matured.
        """
        horizon = _NEVER
        # The write buffer and prefetch queue are time-ordered: their
        # heads are their earliest survivors.
        wb = self._wb_retires
        while wb and wb[0] <= now:
            wb.popleft()
        if wb:
            horizon = wb[0]
        pf = self._pf_queue
        while pf and pf[0] <= now:
            pf.popleft()
        if pf and pf[0] < horizon:
            horizon = pf[0]
        comps = self._wb_completions
        if comps:
            live = []
            for t in comps:
                if t > now:
                    live.append(t)
                    if t < horizon:
                        horizon = t
            comps = self._wb_completions = live
        lines = self._wb_lines
        if lines:
            dead = []
            for line, t in lines.items():
                if t <= now:
                    dead.append(line)
                elif t < horizon:
                    horizon = t
            for line in dead:
                del lines[line]
        misses = self._misses
        if misses:
            done = []
            for line, miss in misses.items():
                t = miss.complete_time
                if t <= now:
                    done.append(line)
                elif t < horizon:
                    horizon = t
            # Retired in insertion order, which is the order their
            # waiters fire in.
            retire = self.mshr.retire
            for line in done:
                retire(line)
        self._busy = bool(wb or pf or comps or lines or misses)
        self._next_expiry = horizon

    # -- reads ---------------------------------------------------------------

    def read(self, addr: int, now: int) -> ReadResult:
        # Expiry only has work to do once something has matured; the
        # watermark keeps the dominant case free of the sweep entirely.
        if now >= self._next_expiry:
            self._expire(now)
        misses = self._misses
        line = addr - addr % self._line_bytes

        miss = misses.get(line)
        if miss is not None:
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

        if self._bypass and line in self._wb_lines:
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
        if (
            self._fuse
            and self.trace is None
            and proto.trace is None
            and "read" not in self._pdict
        ):
            # Fused packed probe — bit-identical to protocol.read's
            # fast path (same counter bumps, same latencies, same
            # table-sanity raise); see the gate comment in __init__.
            node = self.node
            info = self._finfo[node]
            word = line // self._line_bytes
            index = word % self._pri_sets
            if info[0][index] == line and info[1][index]:
                info[2].hits += 1
                reads = self._reads
                reads[_PRIMARY_HIT] = reads.get(_PRIMARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rph, _PRIMARY_HIT, False))
            info[2].misses += 1
            sindex = word % self._sec_sets
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state:
                info[5].hits += 1
                if not self._rhit_fills[state]:
                    rule = self._rhit_rules[state]
                    raise ProtocolTableError(
                        f"read-hit rule does not fill from cache: "
                        f"{rule.describe()}"
                    )
                # Packed primary fill (``_install_primary`` inlined:
                # write-through level, silent eviction, counter kept).
                ptags = info[0]
                pstates = info[1]
                if pstates[index] and ptags[index] != line:
                    info[2].evictions += 1
                ptags[index] = line
                pstates[index] = 1  # LineState.SHARED
                reads = self._reads
                reads[_SECONDARY_HIT] = reads.get(_SECONDARY_HIT, 0) + 1
                return _MK_READ((now + self._lat_rfs, _SECONDARY_HIT, False))
            info[5].misses += 1
            outcome = proto._read_fill(node, line, now)
            self._stats.count_read(outcome.access_class)
            retire = outcome[0]
            self.mshr.add(OutstandingMiss(line, False, now, retire, False))
            self._busy = True
            if retire < self._next_expiry:
                self._next_expiry = retire
            return _MK_READ((retire, outcome[2], False))
        outcome = proto.read(self.node, addr, now)
        retire = outcome[0]
        access_class = outcome[2]
        if access_class is not _PRIMARY_HIT and access_class is not _SECONDARY_HIT:
            self.mshr.add(OutstandingMiss(line, False, now, retire, False))
            self._busy = True
            if retire < self._next_expiry:
                self._next_expiry = retire
        if self.trace is not None:
            self.trace.record_read(
                self.node, addr, now, retire, source="memory",
                access_class=access_class.value,
            )
        return _MK_READ((retire, access_class, False))

    # -- writes --------------------------------------------------------------

    def write(self, addr: int, now: int) -> WriteResult:
        if now >= self._next_expiry:
            self._expire(now)
        proto = self.protocol
        # Owned-write probe (M, or E under MESI), serving SC and RC
        # alike: bit-identical to protocol.write's owned-hit fast path
        # — same counter bumps, same primary refresh, same table-sanity
        # raise; see the gate comment in __init__.  Counters are only
        # touched once the hit is established, so a miss leaves the
        # classic path's accounting untouched.  An owned hit never
        # leaves the node, so its effect does not depend on when it
        # issues: SC retires it now, RC at the buffered issue time.
        hit = False
        if (
            self._fuse
            and self._cached
            and self.trace is None
            and proto.trace is None
            and "write" not in self._pdict
        ):
            line = addr - addr % self._line_bytes
            info = self._finfo[self.node]
            word = line // self._line_bytes
            sindex = word % self._sec_sets
            state = info[4][sindex] if info[3][sindex] == line else 0
            rule = self._whit_rules.get(state)
            if rule is not None:
                if not self._whit_fills[state]:
                    raise ProtocolTableError(
                        "write-hit rule does not fill from cache: "
                        f"{rule.describe()}"
                    )
                # MESI's silent upgrade: an E copy becomes M with no
                # message (a no-op store for M itself).
                info[4][sindex] = self._whit_next[state]
                info[5].hits += 1
                stats = self._stats
                stats.writes_total += 1
                stats.writes_line_present += 1
                # Write-through primary: refresh the copy if present.
                pindex = word % self._pri_sets
                if info[0][pindex] == line and info[1][pindex]:
                    info[1][pindex] = 1  # LineState.SHARED
                writes = self._writes
                writes[_SECONDARY_HIT] = writes.get(_SECONDARY_HIT, 0) + 1
                hit = True
        if self.policy.write_stalls_processor:
            # SC: the processor stalls until the write completes with
            # respect to all processors — ownership plus invalidation
            # acknowledgements when other copies existed.
            if hit:
                return _MK_WRITE((now + self._lat_wos, 0, _SECONDARY_HIT))
            if self._cached:
                outcome = proto.write(self.node, addr, now)
            else:
                outcome = proto.write_uncached(self.node, addr, now)
            return _MK_WRITE((outcome.complete, 0, outcome.access_class))
        return self._write_buffered(addr, now, hit)

    def _write_buffered(self, addr: int, now: int, hit: bool) -> WriteResult:
        """RC path: enqueue in the write buffer, drain eagerly.  ``hit``
        is set when ``write``'s owned-write probe served the access."""
        full_stall = 0
        wb = self._wb_retires
        if len(wb) >= self._wb_depth:
            free_at = wb.popleft()
            full_stall = free_at - now
            self.write_buffer_full_stall_cycles += full_stall
            now = free_at
            if now >= self._next_expiry:
                self._expire(now)

        issue = now
        inflight = self._wb_inflight
        if len(inflight) >= self._max_wb:
            issue = max(issue, inflight.popleft())
        while len(inflight) >= self._max_wb:
            inflight.popleft()

        if hit:
            retire = complete = issue + self._lat_wos
            access_class = _SECONDARY_HIT
        else:
            # Buffered writes drain on the background resource chain:
            # DASH gives demand reads priority over the write buffer.
            if self._cached:
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
        if complete > now:
            self._wb_completions.append(complete)
        line = addr - addr % self._line_bytes
        self._wb_lines[line] = retire
        self._busy = True
        if retire < self._next_expiry:
            self._next_expiry = retire
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
        if now >= self._next_expiry:
            self._expire(now)
        horizon = now
        if self._wb_completions:
            horizon = max(horizon, max(self._wb_completions))
        if self._wb_last_retire > horizon:
            horizon = self._wb_last_retire
        return horizon

    # -- prefetches -------------------------------------------------------------

    def prefetch(self, addr: int, exclusive: bool, now: int) -> PrefetchResult:
        if now >= self._next_expiry:
            self._expire(now)
        full_stall = 0
        pf = self._pf_queue
        if len(pf) >= self._pf_depth:
            free_at = pf.popleft()
            full_stall = free_at - now
            self.prefetch_buffer_full_stall_cycles += full_stall
            now = free_at
            if now >= self._next_expiry:
                self._expire(now)

        line = addr - addr % self._line_bytes
        existing = self._misses.get(line)
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
        pf.append(issue)
        self._busy = True
        if issue < self._next_expiry:
            self._next_expiry = issue

        proto = self.protocol
        if (
            self._fuse
            and proto.trace is None
            and "prefetch" not in self._pdict
        ):
            # Fused discard — protocol.prefetch's own test on the packed
            # secondary state: a line present in a write-hit state, or
            # present at all for a shared prefetch, is already
            # satisfied.  A discard touches no protocol counter; see
            # the gate comment in __init__.
            sindex = (line // self._line_bytes) % self._sec_sets
            info = self._finfo[self.node]
            state = info[4][sindex] if info[3][sindex] == line else 0
            if state and (not exclusive or state in self._whit_rules):
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
        retire = outcome.retire
        self.mshr.add(OutstandingMiss(line, exclusive, issue, retire, True))
        if retire < self._next_expiry:
            self._next_expiry = retire
        # The returning fill locks the processor out of the primary cache.
        self.note_fill_arrival(retire)
        return _MK_PREFETCH((full_stall, False))

    # -- fill lockout -------------------------------------------------------------

    def note_fill_arrival(self, arrival: int) -> None:
        """Record a fill that will lock the processor out of the primary
        cache when it returns: a prefetch's, or a blocked context's
        miss returning while another context runs."""
        self._fill_arrivals.append(arrival)
        if arrival < self._next_fill:
            self._next_fill = arrival

    def consume_fill_stalls(self, now: int) -> int:
        """Number of pending fills that have arrived by ``now``; each
        locks the processor out of the primary cache for the fill time.
        The fills still pending set the new ``_next_fill``."""
        arrivals = self._fill_arrivals
        pending = []
        horizon = _NEVER
        for t in arrivals:
            if t > now:
                pending.append(t)
                if t < horizon:
                    horizon = t
        self._fill_arrivals = pending
        self._next_fill = horizon
        return len(arrivals) - len(pending)

    # -- queries ------------------------------------------------------------------

    @property
    def write_buffer_occupancy(self) -> int:
        return len(self._wb_retires)
