"""Exhaustive explicit-state model checking of the coherence protocol.

PR 1's sanitizer and PR 2's fault matrix check only the interleavings a
simulation happens to execute.  This module closes the gap: it abstracts
the directory + cache-controller state machine of
:mod:`repro.coherence.protocol` and :mod:`repro.coherence.directory`
into a small finite transition system and enumerates *every* reachable
state under a bounded configuration, checking the protocol's safety
invariants in each one and emitting a minimal counterexample trace on
violation.

The model is **protocol-parametric**: it is generated from a registered
:class:`~repro.coherence.specs.ProtocolSpec` — the spec's transition
table supplies the next states and abstract actions of every directory
serve and eviction, and the spec's semantic sets (owner / exclusive /
dirty / silent-upgrade states, owner- and sharer-tracking directory
states) instantiate both the transition semantics and the invariants.
The default spec is ``directory-msi``, for which the reachable space
(and its fingerprint) is identical to the pre-registry checker; ``mesi``
adds silent-upgrade edges and E fills, ``moesi`` adds dirty sharing
through OWNED/SHARED_DIRTY.

Abstraction
===========

The simulator resolves each transaction atomically at the directory (the
event calendar serializes conflicting transactions, behaviourally
equivalent to serialization at the home node).  The abstract model keeps
exactly the state those atomic transactions read and write:

* per cache, per line: a :class:`~repro.caches.LineState` (from the
  spec's cache-state alphabet) plus an abstract data value;
* per line: the home directory entry (:class:`~repro.coherence.directory.
  DirState`, sharer set, owner) and the memory copy's value;
* per line: the value of the most recent write to retire anywhere (the
  oracle for the data-value invariant);
* a bounded set of in-flight request messages, each carrying a retry
  counter so the directory-NACK/retry edges installed by
  :mod:`repro.faults` (bounded by
  :attr:`~repro.faults.plan.BackoffPolicy.max_retries`) are part of the
  explored space.

Transitions mirror the mutation blocks of ``protocol.py`` one-to-one,
driven by the spec's rules: read serves follow ``_read_fill`` (fetch
from owner, owner downgrade, sharing writeback when the rule charges
one), write serves follow ``_acquire_ownership`` (ownership transfer or
point-to-point invalidation of every other sharer), evictions follow
``_evict`` (write-back / replacement hint per the state's eviction
rule), and a NACK bounces a message back with its attempt counter
incremented.  Writes from a silent-upgrade state (MESI's E) are a
*local* edge — no message, the upgrade completes instantaneously inside
the cache, which is exactly the behavior ``protodiff`` certifies as
observationally invisible.  Because requests may be outstanding from
several caches at once and the directory may serve or NACK them in any
order, the checker explores every serialization the event calendar
could ever produce — including ones no seeded fault plan happens to
hit.

Invariants
==========

Checked in every reachable state, stated protocol-generically:

* **SWMR** — at most one copy in an owner state per line, and a copy in
  an *exclusive* state excludes all other cached copies (MOESI's OWNED
  is an owner state but not an exclusive one: sharers may coexist);
* **directory precision** — the home entry's state/sharers/owner agree
  exactly with the caches (the directory is precise, not conservative);
* **data value** — the owner's copy (when the entry tracks one) equals
  the most recently written value and every other holder equals the
  owner; without an owner, memory equals the last write and every clean
  copy equals memory (no lost updates);
* **message sanity** — the in-flight set respects its bound, one request
  per (cache, line), retry counters within budget;
* **no stuck state** — after enumeration, every reachable state can
  still reach a quiescent state (no message permanently unserveable:
  a reverse-reachability pass from the quiescent states must cover the
  whole space).

Soundness caveats: the model abstracts *protocol state*, not timing —
latency, contention, and buffer occupancy are out of scope (the runtime
sanitizer covers those), and exhaustiveness holds only up to the
configured bounds (caches, lines, values, in-flight messages, retries).

``mutation`` injects a deliberately broken transition (used by the unit
tests and the README example to demonstrate counterexample extraction —
never by the real checks).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.table import Action, ProtoEvent, ProtocolTableError
from repro.faults.plan import BackoffPolicy

#: Test-only broken transitions accepted by :class:`ProtocolModel`.
MUTATIONS = (
    # A write serve forgets to invalidate the highest-numbered other
    # sharer (stale copy survives: SWMR / precision / value violation).
    "skip-invalidation",
    # A dirty eviction drops the line without writing memory back
    # (memory keeps the stale value: data-value violation).
    "lost-writeback",
    # The directory refuses to serve a message once it has been bounced
    # past the retry budget's halfway point (stuck-state violation: the
    # message can never complete).
    "nack-forever",
)


def _default_spec():
    """The registry's ``directory-msi`` spec, imported lazily so this
    module can be imported while the spec package is being built."""
    from repro.coherence.specs import get_spec

    return get_spec("directory-msi")


def reachable_fingerprint(states) -> str:
    """Stable digest of a reachable-state set (canonical renderings,
    sorted).  Shared by the model checker and protolint's liveness pass
    so "the two analyses agree" is checkable as string equality."""
    digest = hashlib.sha256()
    for rendered in sorted(repr(state) for state in states):
        digest.update(rendered.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class Message(NamedTuple):
    """One in-flight request, directory-bound."""

    kind: str        # "R" or "W"
    cache: int
    line: int
    value: int       # written value for "W"; 0 and unused for "R"
    attempt: int     # NACK bounces survived so far


class CacheLine(NamedTuple):
    state: LineState
    value: int       # meaningful only when state != INVALID


class DirEntry(NamedTuple):
    state: DirState
    sharers: Tuple[int, ...]   # sorted
    owner: Optional[int]


class State(NamedTuple):
    """One global protocol state (canonical, hashable)."""

    caches: Tuple[Tuple[CacheLine, ...], ...]   # [cache][line]
    dirs: Tuple[DirEntry, ...]                  # [line]
    memory: Tuple[int, ...]                     # [line]
    latest: Tuple[int, ...]                     # [line] last written value
    msgs: Tuple[Message, ...]                   # sorted

    def describe(self) -> str:
        parts = []
        for node, lines in enumerate(self.caches):
            cells = ",".join(
                "I" if cl.state == LineState.INVALID
                else f"{cl.state.name[0]}(v{cl.value})"
                for cl in lines
            )
            parts.append(f"c{node}=[{cells}]")
        for line, entry in enumerate(self.dirs):
            detail = []
            if entry.owner is not None:
                detail.append(f"own={entry.owner}")
            if entry.sharers:
                detail.append("sh={" + ",".join(map(str, entry.sharers)) + "}")
            parts.append(
                f"dir{line}={entry.state.name}:{' '.join(detail) or '-'}"
                f" mem{line}=v{self.memory[line]}"
                f" latest{line}=v{self.latest[line]}"
            )
        if self.msgs:
            parts.append(
                "net=["
                + " ".join(
                    f"{m.kind}(c{m.cache},l{m.line}"
                    + (f",v{m.value}" if m.kind == "W" else "")
                    + (f",try{m.attempt}" if m.attempt else "")
                    + ")"
                    for m in self.msgs
                )
                + "]"
            )
        else:
            parts.append("net=[]")
        return " ".join(parts)


@dataclass(frozen=True)
class ModelConfig:
    """Bounds of the abstract transition system.

    The defaults — two caches, one line, two data values, two messages
    in flight, NACK/retry edges bounded by a two-retry backoff budget —
    are the configuration the acceptance tests and CI enumerate
    exhaustively.
    """

    num_caches: int = 2
    num_lines: int = 1
    num_values: int = 2
    max_in_flight: int = 2
    #: Retry bound for NACK edges, taken from the fault subsystem's
    #: backoff policy so the model and the injector agree on what a
    #: retry budget means.
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(max_retries=2)
    )
    #: Explore directory-NACK bounces (the fault-plan edges).
    nacks: bool = True
    #: Safety valve for misconfigured bounds; the checker aborts with an
    #: error rather than enumerating past this many states.
    max_states: int = 2_000_000

    def __post_init__(self) -> None:
        if self.num_caches < 1:
            raise ValueError("need at least one cache")
        if self.num_lines < 1 or self.num_values < 1:
            raise ValueError("need at least one line and one value")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")

    @property
    def max_retries(self) -> int:
        return self.backoff.max_retries


@dataclass
class Violation:
    """An invariant violation plus the minimal trace reaching it."""

    invariant: str
    message: str
    #: ``(action, state)`` steps from the initial state; the first entry
    #: is ``("initial", initial_state)``.
    trace: List[Tuple[str, State]]

    def format(self) -> str:
        return format_counterexample(self)


@dataclass
class ModelCheckResult:
    """What an exhaustive run found."""

    config: ModelConfig
    states_explored: int
    transitions_explored: int
    quiescent_states: int
    violation: Optional[Violation]
    #: Stable digest of the canonical reachable-state set: any change to
    #: the protocol's transition rules (or the bounds) changes it, so CI
    #: caches it to fail fast on unreviewed protocol diffs.
    fingerprint: str

    @property
    def ok(self) -> bool:
        return self.violation is None

    def summary(self) -> str:
        verdict = (
            "no invariant violations"
            if self.ok
            else f"VIOLATION of {self.violation.invariant}"
        )
        return (
            f"model check: {self.states_explored} states, "
            f"{self.transitions_explored} transitions "
            f"({self.quiescent_states} quiescent), {verdict}; "
            f"fingerprint {self.fingerprint[:16]}"
        )


def format_counterexample(violation: Violation) -> str:
    """Render a violation trace, one numbered step per line."""
    lines = [f"counterexample ({violation.invariant}): {violation.message}"]
    for step, (action, state) in enumerate(violation.trace):
        lines.append(f"  #{step:<3d} {action}")
        lines.append(f"       {state.describe()}")
    return "\n".join(lines)


class ProtocolModel:
    """The abstract transition system generated from a protocol spec.

    Subclasses (tests) may override the ``serve_read`` / ``serve_write``
    / ``evict`` rules to model protocol bugs; ``mutation`` selects one
    of the built-in broken transitions in :data:`MUTATIONS`; ``spec``
    picks the protocol (default: the registry's ``directory-msi``).
    """

    def __init__(
        self, config: Optional[ModelConfig] = None,
        mutation: Optional[str] = None,
        spec=None,
    ) -> None:
        self.config = config or ModelConfig()
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; expected one of {MUTATIONS}"
            )
        self.mutation = mutation
        self.spec = spec if spec is not None else _default_spec()
        self.table = self.spec.table
        #: Resident states whose write crosses the directory (a
        #: WRITE_UPGRADE rule exists for them); INVALID writes are
        #: always WRITE_MISS messages.
        self._upgrade_states = self.spec.upgrade_states()

    # -- state plumbing ----------------------------------------------------

    def initial_state(self) -> State:
        cfg = self.config
        invalid = CacheLine(LineState.INVALID, 0)
        return State(
            caches=tuple(
                tuple(invalid for _ in range(cfg.num_lines))
                for _ in range(cfg.num_caches)
            ),
            dirs=tuple(
                DirEntry(DirState.UNOWNED, (), None)
                for _ in range(cfg.num_lines)
            ),
            memory=tuple(0 for _ in range(cfg.num_lines)),
            latest=tuple(0 for _ in range(cfg.num_lines)),
            msgs=(),
        )

    @staticmethod
    def _set_cache(state: State, cache: int, line: int, cl: CacheLine) -> State:
        lines = list(state.caches[cache])
        lines[line] = cl
        caches = list(state.caches)
        caches[cache] = tuple(lines)
        return state._replace(caches=tuple(caches))

    @staticmethod
    def _set_dir(state: State, line: int, entry: DirEntry) -> State:
        dirs = list(state.dirs)
        dirs[line] = entry
        return state._replace(dirs=tuple(dirs))

    @staticmethod
    def _set_memory(state: State, line: int, value: int) -> State:
        memory = list(state.memory)
        memory[line] = value
        return state._replace(memory=tuple(memory))

    @staticmethod
    def _set_latest(state: State, line: int, value: int) -> State:
        latest = list(state.latest)
        latest[line] = value
        return state._replace(latest=tuple(latest))

    @staticmethod
    def _without_msg(state: State, msg: Message) -> State:
        msgs = list(state.msgs)
        msgs.remove(msg)
        return state._replace(msgs=tuple(sorted(msgs)))

    @staticmethod
    def _with_msg(state: State, msg: Message) -> State:
        return state._replace(msgs=tuple(sorted(state.msgs + (msg,))))

    def _final_dir(
        self, next_dir: DirState, sharers, owner: Optional[int]
    ) -> DirEntry:
        """Project tracked owner/sharers onto what ``next_dir`` stores."""
        spec = self.spec
        return DirEntry(
            next_dir,
            tuple(sorted(sharers))
            if next_dir in spec.sharer_dir_states else (),
            owner if next_dir in spec.owner_dir_states else None,
        )

    # -- transition rules (mirror protocol.py, driven by the spec) ---------

    def successors(self, state: State) -> Iterator[Tuple[str, State]]:
        cfg = self.config
        spec = self.spec
        pending = {(m.cache, m.line) for m in state.msgs}

        # Issue edges: a cache puts a new request on the network.  Reads
        # issue only on a miss; writes issue when the copy is absent or
        # needs a directory upgrade — hits resolve inside the cache and
        # touch no global state, and writes from a silent-upgrade state
        # (MESI's E) are the local edges generated below.
        if len(state.msgs) < cfg.max_in_flight:
            for cache in range(cfg.num_caches):
                for line in range(cfg.num_lines):
                    if (cache, line) in pending:
                        continue  # one outstanding request per (cache, line)
                    cl = state.caches[cache][line]
                    if cl.state == LineState.INVALID:
                        yield (
                            f"c{cache}: issue READ line{line}",
                            self._with_msg(
                                state, Message("R", cache, line, 0, 0)
                            ),
                        )
                    if (
                        cl.state == LineState.INVALID
                        or cl.state in self._upgrade_states
                    ):
                        for value in range(cfg.num_values):
                            yield (
                                f"c{cache}: issue WRITE line{line} v{value}",
                                self._with_msg(
                                    state,
                                    Message("W", cache, line, value, 0),
                                ),
                            )

        # Silent-upgrade edges: a write from E completes locally, with
        # no message for the directory to reorder against.
        if spec.silent_upgrade_states:
            for cache in range(cfg.num_caches):
                for line in range(cfg.num_lines):
                    cl = state.caches[cache][line]
                    if cl.state not in spec.silent_upgrade_states:
                        continue
                    upgraded = self.silent_write(state, cache, line)
                    if upgraded is not None:
                        yield from upgraded

        # Directory edges: serve or NACK any in-flight message.
        for msg in state.msgs:
            served = (
                self.serve_read(state, msg)
                if msg.kind == "R"
                else self.serve_write(state, msg)
            )
            if served is not None:
                yield served
            nacked = self.nack(state, msg)
            if nacked is not None:
                yield nacked

        # Eviction edges: any resident line may be replaced at any time.
        for cache in range(cfg.num_caches):
            for line in range(cfg.num_lines):
                if state.caches[cache][line].state != LineState.INVALID:
                    evicted = self.evict(state, cache, line)
                    if evicted is not None:
                        yield evicted

    def silent_write(
        self, state: State, cache: int, line: int
    ) -> Optional[List[Tuple[str, State]]]:
        """All silent-upgrade writes from ``cache``'s copy of ``line``
        (one edge per abstract value) — MESI's message-free E -> M."""
        cl = state.caches[cache][line]
        entry = state.dirs[line]
        try:
            rule = self.table.lookup(
                cl.state, entry.state, ProtoEvent.WRITE_HIT
            )
        except ProtocolTableError:
            return None  # mutated/broken state: no such edge
        edges = []
        for value in range(self.config.num_values):
            new = self._set_cache(
                state, cache, line, CacheLine(rule.next_cache_state, value)
            )
            new = self._set_latest(new, line, value)
            edges.append(
                (f"c{cache}: silent write line{line} v{value}", new)
            )
        return edges

    def serve_read(
        self, state: State, msg: Message
    ) -> Optional[Tuple[str, State]]:
        """The directory services a read request (``_read_fill``)."""
        if self._serve_refused(msg):
            return None
        spec = self.spec
        line = msg.line
        entry = state.dirs[line]
        label = f"dir: serve READ(c{msg.cache},l{line})"
        new = self._without_msg(state, msg)
        if entry.state in spec.owner_dir_states and entry.owner == msg.cache:
            # Stale request: the requester already owns the line (cannot
            # arise from the issue guards, but a mutated rule may create
            # it); completing with no state change keeps the model total.
            return (label + " [already-owner]", new)
        rule = self.table.lookup(
            LineState.INVALID, entry.state, ProtoEvent.READ_MISS
        )
        acts = rule.action_set
        sharers = set(entry.sharers)
        owner = entry.owner
        if Action.FETCH_FROM_OWNER in acts:
            owner_line = (
                state.caches[owner][line] if owner is not None else None
            )
            if owner_line is None or owner_line.state == LineState.INVALID:
                # The entry names a departed (or no) owner: the forward
                # reaches a node without the line, whose reply is
                # modelled as the abstract garbage value 0.  Unreachable
                # for the registered specs (directory precision holds in
                # every reachable state); under protodiff's seeded
                # write-back-drop mutations this is exactly the
                # stale-data divergence the differ witnesses.
                fill_value = 0
                label += " [stale-owner]"
            else:
                # The owner supplies the data; per the rule it either
                # downgrades (staying owner under MOESI dirty sharing,
                # joining the sharers otherwise) or keeps its state.
                fill_value = owner_line.value
                if Action.DOWNGRADE_OWNER in acts:
                    new = self._set_cache(
                        new, owner, line,
                        CacheLine(spec.downgrade_state, fill_value),
                    )
                    if rule.next_dir_state not in spec.owner_dir_states:
                        sharers.add(owner)
                        owner = None
                if Action.SHARING_WRITEBACK in acts:
                    new = self._set_memory(new, line, fill_value)
                    label += " [sharing-writeback]"
        else:
            # READ_MEMORY: home memory supplies the data.
            fill_value = state.memory[line]
        new = self._set_cache(
            new, msg.cache, line,
            CacheLine(rule.next_cache_state, fill_value),
        )
        if Action.ADD_SHARER in acts:
            sharers.add(msg.cache)
        if Action.SET_OWNER in acts:
            owner = msg.cache
        new = self._set_dir(
            new, line, self._final_dir(rule.next_dir_state, sharers, owner)
        )
        return (label, new)

    def serve_write(
        self, state: State, msg: Message
    ) -> Optional[Tuple[str, State]]:
        """The directory grants ownership (``_acquire_ownership``)."""
        if self._serve_refused(msg):
            return None
        spec = self.spec
        line = msg.line
        entry = state.dirs[line]
        requester = state.caches[msg.cache][line]
        event = (
            ProtoEvent.WRITE_MISS
            if requester.state == LineState.INVALID
            else ProtoEvent.WRITE_UPGRADE
        )
        rule = self.table.lookup(requester.state, entry.state, event)
        acts = rule.action_set
        label = f"dir: serve WRITE(c{msg.cache},l{line},v{msg.value})"
        new = self._without_msg(state, msg)
        sharers = set(entry.sharers)
        owner = entry.owner
        if (
            Action.INVALIDATE_OWNER in acts
            and owner is not None
            and owner != msg.cache
        ):
            # Ownership transfer: the previous owner's copy is
            # invalidated; data flows owner -> requester (memory stays
            # stale until a writeback).
            new = self._set_cache(
                new, owner, line, CacheLine(LineState.INVALID, 0)
            )
            label += f" [transfer from c{owner}]"
            owner = None
        if Action.INVALIDATE_SHARERS in acts or sharers:
            # Point-to-point invalidations to every other sharer.
            others = [s for s in sorted(sharers) if s != msg.cache]
            if self.mutation == "skip-invalidation" and others:
                spared = max(others)
                others = [s for s in others if s != spared]
                label += f" [BUG: c{spared} not invalidated]"
            for sharer in others:
                new = self._set_cache(
                    new, sharer, line, CacheLine(LineState.INVALID, 0)
                )
            if others:
                label += " [invalidate " + ",".join(
                    f"c{s}" for s in others
                ) + "]"
        new = self._set_cache(
            new, msg.cache, line,
            CacheLine(rule.next_cache_state, msg.value),
        )
        if Action.SET_OWNER in acts:
            owner = msg.cache
        new = self._set_dir(
            new, line, self._final_dir(rule.next_dir_state, (), owner)
        )
        new = self._set_latest(new, line, msg.value)
        return (label, new)

    def nack(
        self, state: State, msg: Message
    ) -> Optional[Tuple[str, State]]:
        """The directory bounces the request; the requester retries.

        The retry counter is bounded by the backoff policy's budget —
        in the simulator the injector raises ``RetryBudgetExceeded``
        past it, so the model stops generating bounce edges there (a
        message at the bound can only be served).
        """
        if not self.config.nacks:
            return None
        if msg.attempt >= self.config.max_retries:
            return None
        bounced = msg._replace(attempt=msg.attempt + 1)
        return (
            f"dir: NACK {msg.kind}(c{msg.cache},l{msg.line}) "
            f"-> retry {bounced.attempt}/{self.config.max_retries}",
            self._with_msg(self._without_msg(state, msg), bounced),
        )

    def _serve_refused(self, msg: Message) -> bool:
        """``nack-forever``: past half the retry budget the broken
        directory never services the request again — with the bounce
        edges capped at the budget, the message ends up permanently
        unserveable and the no-stuck-state pass flags it."""
        if self.mutation != "nack-forever":
            return False
        return msg.attempt >= max(1, self.config.max_retries // 2)

    def evict(
        self, state: State, cache: int, line: int
    ) -> Optional[Tuple[str, State]]:
        """A cache replaces the line (``_evict``)."""
        spec = self.spec
        cl = state.caches[cache][line]
        new = self._set_cache(
            state, cache, line, CacheLine(LineState.INVALID, 0)
        )
        entry = state.dirs[line]
        # The guard is evaluated on the directory's view, exactly as the
        # runtime's eviction handler does.
        holders = set(entry.sharers)
        if entry.owner is not None:
            holders.add(entry.owner)
        others = bool(holders - {cache})
        try:
            rule = self.table.lookup(
                cl.state, entry.state, spec.eviction_event(cl.state), others
            )
        except (ProtocolTableError, KeyError):
            # Broken/mutated state the table rules out: drop the copy
            # and fall back to a replacement hint so the model stays
            # total (the invariant pass already flagged such states).
            sharers = set(entry.sharers) - {cache}
            if entry.state in spec.sharer_dir_states:
                new = self._set_dir(
                    new, line,
                    self._final_dir(
                        entry.state
                        if sharers or entry.owner is not None
                        else DirState.UNOWNED,
                        sharers, entry.owner,
                    ),
                )
            return (f"c{cache}: evict line{line} clean", new)
        acts = rule.action_set
        sharers = set(entry.sharers) - {cache}
        owner = None if entry.owner == cache else entry.owner
        if Action.WRITEBACK_MEMORY in acts:
            if self.mutation == "lost-writeback":
                # The dirty data is dropped on the floor: the directory
                # learns of the eviction but memory keeps a stale value.
                new = self._set_dir(
                    new, line,
                    self._final_dir(rule.next_dir_state, sharers, owner),
                )
                return (
                    f"c{cache}: evict line{line} [BUG: writeback lost]",
                    new,
                )
            # Write-back: memory refreshed, entry updated per the rule
            # (the runtime ``_evict`` release; MESI's E write-back carries clean
            # data, MOESI's owner eviction finally refreshes memory).
            new = self._set_memory(new, line, cl.value)
            new = self._set_dir(
                new, line,
                self._final_dir(rule.next_dir_state, sharers, owner),
            )
            return (f"c{cache}: evict line{line} writeback v{cl.value}", new)
        # Clean replacement hint (the runtime ``_evict`` drop-sharer).
        new = self._set_dir(
            new, line, self._final_dir(rule.next_dir_state, sharers, owner)
        )
        return (f"c{cache}: evict line{line} clean", new)

    # -- invariants --------------------------------------------------------

    def check_state(self, state: State) -> Optional[Tuple[str, str]]:
        """Return ``(invariant, message)`` for the first violation."""
        cfg = self.config
        spec = self.spec
        for line in range(cfg.num_lines):
            holders = []
            owned = []       # holders in an owner state (M/E/O)
            exclusive = []   # holders in an exclusive state (M/E)
            for cache in range(cfg.num_caches):
                cl = state.caches[cache][line]
                if cl.state == LineState.INVALID:
                    continue
                holders.append(cache)
                if cl.state in spec.owner_states:
                    owned.append(cache)
                if cl.state in spec.exclusive_states:
                    exclusive.append(cache)
            if len(owned) > 1:
                return (
                    "swmr",
                    f"line {line} owned at caches {owned}",
                )
            if exclusive and holders != exclusive:
                return (
                    "swmr",
                    f"line {line} exclusive at c{exclusive[0]} while cached "
                    f"by {holders}",
                )
            entry = state.dirs[line]
            if entry.state in spec.owner_dir_states:
                if entry.owner is None or (
                    entry.sharers
                    and entry.state not in spec.sharer_dir_states
                ):
                    return (
                        "directory-sharer-set",
                        f"line {line} {entry.state.name} with "
                        f"owner={entry.owner} sharers={entry.sharers}",
                    )
                expected_sharers = tuple(
                    h for h in holders if h != entry.owner
                )
                if entry.state in spec.sharer_dir_states:
                    membership_ok = (
                        entry.sharers == expected_sharers
                        and entry.owner in owned
                    )
                else:
                    membership_ok = holders == [entry.owner] and bool(owned)
                if not membership_ok:
                    return (
                        "directory-precision",
                        f"line {line} {entry.state.name} at owner "
                        f"c{entry.owner} but cached by {holders} "
                        f"(owned at {owned})",
                    )
                owner_value = state.caches[entry.owner][line].value
                if owner_value != state.latest[line]:
                    return (
                        "data-value",
                        f"line {line} owner c{entry.owner} holds v"
                        f"{owner_value}, last write was v{state.latest[line]}",
                    )
                for holder in holders:
                    value = state.caches[holder][line].value
                    if value != owner_value:
                        return (
                            "data-value",
                            f"line {line} copy at c{holder} holds v{value} "
                            f"while owner c{entry.owner} holds "
                            f"v{owner_value}",
                        )
            else:
                if entry.owner is not None:
                    return (
                        "directory-sharer-set",
                        f"line {line} {entry.state.name} with "
                        f"owner={entry.owner}",
                    )
                if (
                    entry.state in spec.sharer_dir_states
                    and not entry.sharers
                ):
                    return (
                        "directory-sharer-set",
                        f"line {line} {entry.state.name} with empty "
                        f"sharer set",
                    )
                if entry.state == DirState.UNOWNED and entry.sharers:
                    return (
                        "directory-sharer-set",
                        f"line {line} UNOWNED with sharers={entry.sharers}",
                    )
                expected = tuple(holders)
                if entry.sharers != expected:
                    return (
                        "directory-precision",
                        f"line {line} {entry.state.name} sharers="
                        f"{entry.sharers} but cached by {expected}",
                    )
                if owned:
                    return (
                        "directory-precision",
                        f"line {line} {entry.state.name} but owned at "
                        f"c{owned[0]}",
                    )
                if state.memory[line] != state.latest[line]:
                    return (
                        "data-value",
                        f"line {line} memory holds v{state.memory[line]} "
                        f"but last write was v{state.latest[line]} and no "
                        f"cache owns the line",
                    )
                for holder in holders:
                    value = state.caches[holder][line].value
                    if value != state.memory[line]:
                        return (
                            "data-value",
                            f"line {line} clean copy at c{holder} holds "
                            f"v{value}, memory holds v{state.memory[line]}",
                        )
        if len(state.msgs) > cfg.max_in_flight:
            return (
                "message-bound",
                f"{len(state.msgs)} messages in flight, bound is "
                f"{cfg.max_in_flight}",
            )
        seen = set()
        for msg in state.msgs:
            if (msg.cache, msg.line) in seen:
                return (
                    "message-bound",
                    f"c{msg.cache} has two requests in flight for line "
                    f"{msg.line}",
                )
            seen.add((msg.cache, msg.line))
            if msg.attempt > cfg.max_retries:
                return (
                    "message-bound",
                    f"{msg.kind}(c{msg.cache},l{msg.line}) retried "
                    f"{msg.attempt} times, budget is {cfg.max_retries}",
                )
        return None


class ModelChecker:
    """BFS enumeration of every reachable state, with trace extraction."""

    def __init__(self, model: Optional[ProtocolModel] = None) -> None:
        self.model = model or ProtocolModel()

    def run(self) -> ModelCheckResult:
        model = self.model
        cfg = model.config
        initial = model.initial_state()
        parent: Dict[State, Optional[Tuple[State, str]]] = {initial: None}
        preds: Dict[State, List[State]] = {}
        queue = deque([initial])
        transitions = 0

        violation = self._violation_at(initial, parent)
        while queue and violation is None:
            state = queue.popleft()
            for label, succ in model.successors(state):
                transitions += 1
                preds.setdefault(succ, []).append(state)
                if succ in parent:
                    continue
                parent[succ] = (state, label)
                if len(parent) > cfg.max_states:
                    raise RuntimeError(
                        f"state space exceeded max_states="
                        f"{cfg.max_states}; tighten the model bounds"
                    )
                violation = self._violation_at(succ, parent)
                if violation is not None:
                    break
                queue.append(succ)

        quiescent = sum(1 for s in parent if not s.msgs)
        if violation is None:
            violation = self._check_no_stuck(parent, preds)
        return ModelCheckResult(
            config=cfg,
            states_explored=len(parent),
            transitions_explored=transitions,
            quiescent_states=quiescent,
            violation=violation,
            fingerprint=self._fingerprint(parent),
        )

    # -- helpers -----------------------------------------------------------

    def _violation_at(
        self,
        state: State,
        parent: Dict[State, Optional[Tuple[State, str]]],
    ) -> Optional[Violation]:
        found = self.model.check_state(state)
        if found is None:
            return None
        invariant, message = found
        return Violation(invariant, message, self._trace_to(state, parent))

    @staticmethod
    def _trace_to(
        state: State,
        parent: Dict[State, Optional[Tuple[State, str]]],
    ) -> List[Tuple[str, State]]:
        steps: List[Tuple[str, State]] = []
        cursor: Optional[State] = state
        while cursor is not None:
            link = parent[cursor]
            if link is None:
                steps.append(("initial", cursor))
                cursor = None
            else:
                prev, label = link
                steps.append((label, cursor))
                cursor = prev
        steps.reverse()
        return steps

    def _check_no_stuck(
        self,
        parent: Dict[State, Optional[Tuple[State, str]]],
        preds: Dict[State, List[State]],
    ) -> Optional[Violation]:
        """Reverse reachability from the quiescent states: any state that
        cannot drain its in-flight messages is a livelock/stuck state."""
        can_quiesce = {s for s in parent if not s.msgs}
        frontier = deque(can_quiesce)
        while frontier:
            state = frontier.popleft()
            for pred in preds.get(state, ()):
                if pred not in can_quiesce:
                    can_quiesce.add(pred)
                    frontier.append(pred)
        stuck = [s for s in parent if s not in can_quiesce]
        if not stuck:
            return None
        # Report the stuck state with the shortest reaching trace (the
        # BFS discovery order of `parent` preserves insertion order).
        witness = stuck[0]
        return Violation(
            "no-stuck-state",
            f"{len(stuck)} reachable state(s) can never drain their "
            f"in-flight messages; first witness has "
            f"{len(witness.msgs)} message(s) stuck",
            self._trace_to(witness, parent),
        )

    @staticmethod
    def _fingerprint(parent: Dict[State, object]) -> str:
        return reachable_fingerprint(parent)


def check_protocol(
    config: Optional[ModelConfig] = None,
    mutation: Optional[str] = None,
    spec=None,
) -> ModelCheckResult:
    """Convenience wrapper: build a model and exhaustively check it."""
    return ModelChecker(
        ProtocolModel(config, mutation=mutation, spec=spec)
    ).run()
