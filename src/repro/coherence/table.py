"""The coherence protocol as a declarative transition table.

Historically the directory protocol lived as hard-wired branches inside
:mod:`repro.coherence.protocol` — correct, but opaque: no analyzer could
enumerate the transitions, so checking completeness or adding a second
protocol (MESI, MOESI) meant reading ~600 lines of imperative code.  This module lifts the state machine into data:

* every ``(cache-state, directory-state, event)`` combination the
  protocol can encounter maps to exactly one :class:`Rule` — the
  abstract actions performed plus the requester's and the home entry's
  next states — or to an :class:`Impossible` declaration stating *why*
  the combination cannot arise (directory precision, hit/miss
  definitions);
* the imperative handlers in :class:`~repro.coherence.protocol.
  CoherenceProtocol` and the fused probes of the memory interface and
  processor are *driven off* this table through its one compiled form,
  :class:`CompiledTable` (built and checked once by
  :meth:`TransitionTable.compile`): they index a situation's rule row,
  branch on its action flags, and apply its declared next states.  Only
  this module knows how a situation resolves to a rule.  The golden
  payload digests, the litmus matrix, and the trace-conformance oracle
  prove the lifted table is bit-identical to the old branches;
* :mod:`repro.analysis.protolint` statically checks the table —
  complete, deterministic, live (cross-checked against the model
  checker's reachable states), and stutter-free — and fingerprints it
  for CI.

Scope: the table describes the *secondary-cache + home-directory* state
machine, i.e. the globally visible protocol.  The write-through primary
cache (pure inclusion detail), uncached accesses (coherence bypassed by
definition), and all latency/queuing arithmetic stay in the imperative
layer; see the soundness caveats in DESIGN.md.

The requester's cache state and the home entry's state determine the
requester's *relation* to the entry because the directory is precise: a
SHARED copy implies membership in ``sharers`` and a DIRTY copy implies
``owner == requester``.  The only dynamic guard a rule may carry is
``others_cached`` — whether any *other* cache holds the line — which
decides e.g. whether a clean eviction leaves the entry SHARED or
returns it to UNOWNED.
"""

from __future__ import annotations

import enum
import hashlib
import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, NoReturn, Optional, Tuple

from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.sim.engine import SimulationError


class ProtoEvent(enum.Enum):
    """What the requesting (or evicting) cache is doing to the line."""

    READ_HIT = "read_hit"            # secondary supplies the data
    READ_MISS = "read_miss"          # fill request reaches the home
    WRITE_HIT = "write_hit"          # already exclusive in secondary
    WRITE_MISS = "write_miss"        # ownership request, no copy held
    WRITE_UPGRADE = "write_upgrade"  # ownership request, clean copy held
    EVICT_CLEAN = "evict_clean"      # replacement of a SHARED line
    EVICT_DIRTY = "evict_dirty"      # replacement of a DIRTY line
    EVICT_EXCLUSIVE = "evict_exclusive"  # replacement of a MESI E line

    # Members are singletons, so the identity hash agrees with equality;
    # it keeps the analyzers' rule-key hashing at C speed instead of the
    # pure-Python ``Enum.__hash__``.
    __hash__ = object.__hash__


class Action(enum.Enum):
    """Abstract protocol actions a rule performs, in no particular
    order — sequencing (and every latency charge) stays imperative."""

    FILL_FROM_CACHE = "fill_from_cache"      # hit completes locally
    READ_MEMORY = "read_memory"              # home memory supplies data
    FETCH_FROM_OWNER = "fetch_from_owner"    # dirty third party forwards
    DOWNGRADE_OWNER = "downgrade_owner"      # owner DIRTY -> SHARED
    SHARING_WRITEBACK = "sharing_writeback"  # refresh home memory
    ADD_SHARER = "add_sharer"                # requester joins sharers
    INVALIDATE_SHARERS = "invalidate_sharers"  # point-to-point invals
    INVALIDATE_OWNER = "invalidate_owner"    # ownership transfer inval
    SET_OWNER = "set_owner"                  # requester becomes owner
    WRITEBACK_MEMORY = "writeback_memory"    # dirty eviction writeback
    DROP_SHARER = "drop_sharer"              # replacement hint

    # Identity hash (consistent with equality — members are singletons):
    # the analyzers test ``action in rule.action_set`` per explored state.
    # Code that needs a deterministic ordering over actions must sort,
    # as ``repro.analysis.latbound`` does.
    __hash__ = object.__hash__


class ProtocolTableError(SimulationError):
    """A transition was requested that the table declares impossible
    (or does not cover at all) — a protocol bug, not a user error."""


#: The domain of the paper's three-state directory protocol.  A
#: :class:`TransitionTable` defaults to this trio; richer protocols
#: (MESI's E, MOESI's O) pass their own state/event tuples so the
#: completeness obligation scales with the spec instead of silently
#: widening every existing table when an enum gains a member.
CLASSIC_CACHE_STATES: Tuple[LineState, ...] = (
    LineState.INVALID, LineState.SHARED, LineState.DIRTY,
)
CLASSIC_DIR_STATES: Tuple[DirState, ...] = (
    DirState.UNOWNED, DirState.SHARED, DirState.DIRTY,
)
CLASSIC_EVENTS: Tuple[ProtoEvent, ...] = (
    ProtoEvent.READ_HIT, ProtoEvent.READ_MISS, ProtoEvent.WRITE_HIT,
    ProtoEvent.WRITE_MISS, ProtoEvent.WRITE_UPGRADE,
    ProtoEvent.EVICT_CLEAN, ProtoEvent.EVICT_DIRTY,
)


@dataclass(frozen=True)
class Rule:  # srclint: ok(missing-slots) — a dozen static table rows, not per-event state
    """One transition: ``(cache, dir, event[, guard]) -> (actions, next)``."""

    name: str
    cache_state: LineState
    dir_state: DirState
    event: ProtoEvent
    #: Guard: do *other* caches hold the line?  ``None`` = don't care.
    others_cached: Optional[bool]
    actions: Tuple[Action, ...]
    next_cache_state: LineState
    next_dir_state: DirState

    @property
    def key(self) -> Tuple[LineState, DirState, ProtoEvent]:
        return (self.cache_state, self.dir_state, self.event)

    @functools.cached_property
    def action_set(self) -> frozenset:
        # Cached: the analyzers test membership per explored state,
        # and rebuilding the frozenset would hash every member each
        # time.  (``cached_property`` writes the instance
        # ``__dict__`` directly, so it works on a frozen dataclass.)
        return frozenset(self.actions)

    def matches(self, others: Optional[bool]) -> bool:
        """Whether the guard admits a situation with ``others`` other
        holders (``None`` matches only an unguarded rule)."""
        if self.others_cached is None:
            return True
        return others == self.others_cached

    def overlaps(self, other: "Rule") -> bool:
        """Two rules overlap when some concrete situation satisfies
        both keys and both guards."""
        if self.key != other.key:
            return False
        if self.others_cached is None or other.others_cached is None:
            return True
        return self.others_cached == other.others_cached

    def changes_state(self) -> bool:
        return (
            self.next_cache_state != self.cache_state
            or self.next_dir_state != self.dir_state
        )

    def describe(self) -> str:
        guard = (
            ""
            if self.others_cached is None
            else f" [others={'yes' if self.others_cached else 'no'}]"
        )
        acts = ",".join(a.value for a in self.actions) or "-"
        return (
            f"{self.name}: ({self.cache_state.name}, {self.dir_state.name}, "
            f"{self.event.value}){guard} -> [{acts}] "
            f"-> ({self.next_cache_state.name}, {self.next_dir_state.name})"
        )


@dataclass(frozen=True)
class Impossible:  # srclint: ok(missing-slots) — static table rows, not per-event state
    """A ``(cache, dir, event)`` combination declared unreachable."""

    cache_state: LineState
    dir_state: DirState
    event: ProtoEvent
    reason: str

    @property
    def key(self) -> Tuple[LineState, DirState, ProtoEvent]:
        return (self.cache_state, self.dir_state, self.event)

    def describe(self) -> str:
        return (
            f"impossible ({self.cache_state.name}, {self.dir_state.name}, "
            f"{self.event.value}): {self.reason}"
        )


class TransitionTable:
    """An introspectable set of :class:`Rule` and :class:`Impossible`
    entries with O(1) lookup, compiled once for the runtime drivers.

    Construction never validates beyond indexing — broken tables (the
    seeded protolint mutations) must be constructible so the analyzer
    has something to catch.  When overlapping rules are indexed the
    first one wins at lookup time, mirroring a priority-ordered match.
    """

    __slots__ = (
        "name", "rules", "impossible", "_index", "_impossible_keys",
        "cache_states", "dir_states", "events", "_compiled",
    )

    def __init__(
        self,
        rules: Tuple[Rule, ...],
        impossible: Tuple[Impossible, ...],
        name: str = "directory-invalidate",
        cache_states: Tuple[LineState, ...] = CLASSIC_CACHE_STATES,
        dir_states: Tuple[DirState, ...] = CLASSIC_DIR_STATES,
        events: Tuple[ProtoEvent, ...] = CLASSIC_EVENTS,
    ) -> None:
        self.name = name
        self.cache_states = tuple(cache_states)
        self.dir_states = tuple(dir_states)
        self.events = tuple(events)
        self.rules = tuple(rules)
        self.impossible = tuple(impossible)
        self._impossible_keys = {imp.key: imp for imp in self.impossible}
        index: Dict[Tuple, Rule] = {}
        for rule in self.rules:
            guards = (True, False, None) if rule.others_cached is None else (
                rule.others_cached,
            )
            for guard in guards:
                index.setdefault(rule.key + (guard,), rule)
        self._index = index
        self._compiled: Optional[CompiledTable] = None

    # -- runtime lookup ----------------------------------------------------

    def lookup(
        self,
        cache_state: LineState,
        dir_state: DirState,
        event: ProtoEvent,
        others: Optional[bool] = None,
    ) -> Rule:
        """The unique rule for a concrete situation.

        Raises :class:`ProtocolTableError` when the situation is
        declared impossible or simply not covered — either way the
        protocol reached a state its own specification rules out.
        """
        rule = self._index.get((cache_state, dir_state, event, others))
        if rule is not None:
            return rule
        imp = self._impossible_keys.get((cache_state, dir_state, event))
        if imp is not None:
            raise ProtocolTableError(
                f"protocol reached a declared-impossible transition: "
                f"{imp.describe()}"
            )
        raise ProtocolTableError(
            f"no rule covers ({cache_state.name}, {dir_state.name}, "
            f"{event.value}, others={others}) in table {self.name!r}"
        )

    def compile(self) -> "CompiledTable":
        """The int-indexed form the runtime drives, built and checked
        once per table (see :class:`CompiledTable`).

        Raises :class:`ProtocolTableError` when a rule breaks a fact the
        runtime relies on instead of testing per access: every read and
        write hit fills from the cache, and every eviction names its
        directory action.  A table that fails is not cached, so each
        call raises again.
        """
        if self._compiled is None:
            for rule in self.rules:
                acts = rule.action_set
                if (
                    rule.event in _HIT_EVENTS
                    and Action.FILL_FROM_CACHE not in acts
                ):
                    raise ProtocolTableError(
                        f"{rule.event.value.replace('_', '-')} rule does not "
                        f"fill from cache: {rule.describe()}"
                    )
                if (
                    rule.event in EVICTION_EVENTS
                    and Action.WRITEBACK_MEMORY not in acts
                    and Action.DROP_SHARER not in acts
                ):
                    raise ProtocolTableError(
                        f"eviction rule {rule.name!r} names no directory action"
                    )
            self._compiled = CompiledTable(self)
        return self._compiled

    def rule_named(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)

    # -- introspection (protolint's raw material) --------------------------

    def domain(self) -> Iterator[Tuple[LineState, DirState, ProtoEvent]]:
        """Every ``(cache, dir, event)`` combination the table must
        either handle or declare impossible — the cross product of this
        table's *own* state and event alphabets."""
        for cache_state in self.cache_states:
            for dir_state in self.dir_states:
                for event in self.events:
                    yield (cache_state, dir_state, event)

    def rules_for(
        self, key: Tuple[LineState, DirState, ProtoEvent]
    ) -> List[Rule]:
        return [rule for rule in self.rules if rule.key == key]

    def declared_impossible(
        self, key: Tuple[LineState, DirState, ProtoEvent]
    ) -> Optional[Impossible]:
        return self._impossible_keys.get(key)

    def fingerprint(self) -> str:
        """Stable digest of the canonical table rendering: any rule or
        impossibility change (states, guards, actions, reasons) changes
        it, so CI caches it to fail fast on unreviewed protocol diffs."""
        digest = hashlib.sha256()
        digest.update(self.name.encode())
        digest.update(b"\n")
        for rule in sorted(self.rules, key=lambda r: r.describe()):
            digest.update(rule.describe().encode())
            digest.update(b"\n")
        for imp in sorted(self.impossible, key=lambda i: i.describe()):
            digest.update(imp.describe().encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def describe(self) -> str:
        lines = [f"transition table {self.name!r}: {len(self.rules)} "
                 f"rule(s), {len(self.impossible)} impossible combo(s)"]
        lines.extend(f"  {rule.describe()}" for rule in self.rules)
        return "\n".join(lines)


_HIT_EVENTS = (ProtoEvent.READ_HIT, ProtoEvent.WRITE_HIT)
#: The three replacement events.
EVICTION_EVENTS = (
    ProtoEvent.EVICT_CLEAN, ProtoEvent.EVICT_DIRTY, ProtoEvent.EVICT_EXCLUSIVE,
)

#: The coordinates of :func:`situation`: every member of each enum, so
#: a slot means the same situation in every table.
_EVENTS: Tuple[ProtoEvent, ...] = tuple(ProtoEvent)
_EVENT_ORD = {event: i for i, event in enumerate(_EVENTS)}
_OTHERS: Tuple[Optional[bool], ...] = (False, True, None)
_N_CACHE = len(LineState)
_N_DIR = len(DirState)


def situation(
    event: ProtoEvent,
    cache_state: LineState,
    others: Optional[bool] = None,
    dir_state: int = 0,
) -> int:
    """The slot of a situation in :attr:`CompiledTable.situations`.

    The directory state is innermost, so a handler that knows the other
    three coordinates adds the raw directory state to
    ``situation(event, cache_state, others)``.
    """
    return (
        (_EVENT_ORD[event] * _N_CACHE + cache_state) * len(_OTHERS)
        + _OTHERS.index(others)
    ) * _N_DIR + dir_state


class Row:
    """One rule as the runtime reads it: plain slots, so each field is
    one attribute load on the hot paths."""

    __slots__ = (
        "rule_id", "next_cache", "next_dir", "fills", "fetches",
        "sets_owner", "writes_back",
    )

    def __init__(self, rule_id: int, rule: Rule) -> None:
        acts = rule.action_set
        self.rule_id = rule_id  # index in ``TransitionTable.rules``
        self.next_cache = int(rule.next_cache_state)  # the raw state byte
        self.next_dir = rule.next_dir_state
        self.fills = Action.FILL_FROM_CACHE in acts
        self.fetches = Action.FETCH_FROM_OWNER in acts
        self.sets_owner = Action.SET_OWNER in acts
        self.writes_back = Action.WRITEBACK_MEMORY in acts


class CompiledTable:
    """A :class:`TransitionTable` as int-indexed tuples, what the runtime
    handlers read instead of calling ``lookup`` per access.  Build it
    through :meth:`TransitionTable.compile`, which also checks it.

    * ``rows[rule_id]`` is the :class:`Row` of ``table.rules[rule_id]``;
    * ``situations[situation(event, cache, others, dir)]`` is the row of
      the rule ``lookup`` returns there, or ``None`` where it raises;
    * ``read_hit[state]`` and ``write_hit[state]`` are the hit rows by
      raw state byte (``None`` for no such hit): by directory precision
      a resident state pins the home entry;
    * ``eviction_slots[state][others]`` is the slot, less the directory
      state, of evicting a ``state`` line while other caches do (or do
      not) hold it.  Only a clean eviction's rule key carries that
      guard; the other evictions notify the home unconditionally.
    """

    __slots__ = (
        "table", "rows", "situations", "read_hit", "write_hit",
        "eviction_slots",
    )

    def __init__(self, table: TransitionTable) -> None:
        self.table = table
        self.rows = tuple(Row(i, rule) for i, rule in enumerate(table.rules))
        row_of = {id(rule): row for rule, row in zip(table.rules, self.rows)}
        situations: List[Optional[Row]] = [None] * (
            len(_EVENTS) * _N_CACHE * len(_OTHERS) * _N_DIR
        )
        for (cache, dir_state, event, others), rule in table._index.items():
            situations[situation(event, cache, others, dir_state)] = (
                row_of[id(rule)]
            )
        self.situations = tuple(situations)

        def first(events, state):
            return next((
                (rule, row) for rule, row in zip(table.rules, self.rows)
                if rule.event in events and rule.cache_state == state
            ), (None, None))

        self.read_hit = tuple(
            first((ProtoEvent.READ_HIT,), s)[1] for s in LineState
        )
        self.write_hit = tuple(
            first((ProtoEvent.WRITE_HIT,), s)[1] for s in LineState
        )
        slots = []
        for state in LineState:
            # A state no eviction rule names resolves as an uncovered
            # clean eviction.
            rule = first(EVICTION_EVENTS, state)[0]
            event = ProtoEvent.EVICT_CLEAN if rule is None else rule.event
            guarded = event is ProtoEvent.EVICT_CLEAN
            slots.append(tuple(
                situation(event, state, others if guarded else None)
                for others in (False, True)
            ))
        self.eviction_slots = tuple(slots)

    def unresolved(self, slot: int) -> NoReturn:
        """The one "no rule" path: raise ``lookup``'s own
        :class:`ProtocolTableError` for the situation at ``slot``."""
        rest, dir_state = divmod(slot, _N_DIR)
        rest, others = divmod(rest, len(_OTHERS))
        event, cache = divmod(rest, _N_CACHE)
        self.table.lookup(
            LineState(cache), DirState(dir_state), _EVENTS[event],
            _OTHERS[others],
        )
        raise ProtocolTableError(f"{self.table.name!r}: slot {slot} lost its rule")


# -- the invalidating directory protocol ------------------------------------

def impossibility_reason(
    cache_state: LineState, dir_state: DirState, event: ProtoEvent
) -> Optional[str]:
    """Why a combination cannot arise, or ``None`` when it is legal.

    The constraints are exactly the ones the runtime sanitizer and the
    model checker enforce: hit/miss definitions tie the event to the
    requester's cache state, and directory *precision* ties the
    requester's cache state to the home entry's state.
    """
    return spec_impossibility_reason(
        cache_state, dir_state, event,
        required_cache={
            ProtoEvent.READ_MISS: (LineState.INVALID,),
            ProtoEvent.WRITE_MISS: (LineState.INVALID,),
            ProtoEvent.WRITE_HIT: (LineState.DIRTY,),
            ProtoEvent.WRITE_UPGRADE: (LineState.SHARED,),
            ProtoEvent.EVICT_CLEAN: (LineState.SHARED,),
            ProtoEvent.EVICT_DIRTY: (LineState.DIRTY,),
        },
        compatible_dir_states={
            LineState.SHARED: (DirState.SHARED,),
            LineState.DIRTY: (DirState.DIRTY,),
        },
    )


def spec_impossibility_reason(
    cache_state: LineState,
    dir_state: DirState,
    event: ProtoEvent,
    required_cache: Dict[ProtoEvent, Tuple[LineState, ...]],
    compatible_dir_states: Dict[LineState, Tuple[DirState, ...]],
) -> Optional[str]:
    """Protocol-parametric form of :func:`impossibility_reason`.

    ``required_cache`` maps each non-read-hit event to the requester
    cache states it is defined for; ``compatible_dir_states`` encodes
    directory precision — for a resident requester state, the home
    entry states it can coexist with.  The spec constructors feed each
    protocol's own precision discipline through this one function so
    every registered spec's impossibility reasons are derived, not
    hand-maintained.
    """
    if event == ProtoEvent.READ_HIT:
        if cache_state == LineState.INVALID:
            return "a read hit requires a resident secondary copy"
    else:
        allowed = required_cache.get(event, ())
        if cache_state not in allowed:
            names = " or ".join(s.name for s in allowed) or "<none>"
            return (
                f"{event.value} is defined for a requester whose secondary "
                f"copy is {names}, not {cache_state.name}"
            )
    compatible = compatible_dir_states.get(cache_state)
    if compatible is not None and dir_state not in compatible:
        names = "/".join(s.name for s in compatible)
        return (
            f"directory precision: a {cache_state.name} copy implies the "
            f"home entry is {names}"
        )
    return None


#: The transitions of the paper's invalidating directory protocol, one
#: rule per legal combination (two for the guarded clean eviction).
_DIRECTORY_RULES: Tuple[Rule, ...] = (
    Rule(
        "read-hit-shared",
        LineState.SHARED, DirState.SHARED, ProtoEvent.READ_HIT, None,
        (Action.FILL_FROM_CACHE,),
        LineState.SHARED, DirState.SHARED,
    ),
    Rule(
        "read-hit-owned",
        LineState.DIRTY, DirState.DIRTY, ProtoEvent.READ_HIT, None,
        (Action.FILL_FROM_CACHE,),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "read-miss-unowned",
        LineState.INVALID, DirState.UNOWNED, ProtoEvent.READ_MISS, None,
        (Action.READ_MEMORY, Action.ADD_SHARER),
        LineState.SHARED, DirState.SHARED,
    ),
    Rule(
        "read-miss-shared",
        LineState.INVALID, DirState.SHARED, ProtoEvent.READ_MISS, None,
        (Action.READ_MEMORY, Action.ADD_SHARER),
        LineState.SHARED, DirState.SHARED,
    ),
    Rule(
        "read-miss-dirty-remote",
        LineState.INVALID, DirState.DIRTY, ProtoEvent.READ_MISS, None,
        (Action.FETCH_FROM_OWNER, Action.DOWNGRADE_OWNER,
         Action.SHARING_WRITEBACK, Action.ADD_SHARER),
        LineState.SHARED, DirState.SHARED,
    ),
    Rule(
        "write-hit-owned",
        LineState.DIRTY, DirState.DIRTY, ProtoEvent.WRITE_HIT, None,
        (Action.FILL_FROM_CACHE,),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "write-miss-unowned",
        LineState.INVALID, DirState.UNOWNED, ProtoEvent.WRITE_MISS, None,
        (Action.READ_MEMORY, Action.SET_OWNER),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "write-miss-shared",
        LineState.INVALID, DirState.SHARED, ProtoEvent.WRITE_MISS, None,
        (Action.READ_MEMORY, Action.INVALIDATE_SHARERS, Action.SET_OWNER),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "write-miss-dirty",
        LineState.INVALID, DirState.DIRTY, ProtoEvent.WRITE_MISS, None,
        (Action.FETCH_FROM_OWNER, Action.INVALIDATE_OWNER, Action.SET_OWNER),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "write-upgrade-shared",
        LineState.SHARED, DirState.SHARED, ProtoEvent.WRITE_UPGRADE, None,
        (Action.READ_MEMORY, Action.INVALIDATE_SHARERS, Action.SET_OWNER),
        LineState.DIRTY, DirState.DIRTY,
    ),
    Rule(
        "evict-clean-other-sharers",
        LineState.SHARED, DirState.SHARED, ProtoEvent.EVICT_CLEAN, True,
        (Action.DROP_SHARER,),
        LineState.INVALID, DirState.SHARED,
    ),
    Rule(
        "evict-clean-last",
        LineState.SHARED, DirState.SHARED, ProtoEvent.EVICT_CLEAN, False,
        (Action.DROP_SHARER,),
        LineState.INVALID, DirState.UNOWNED,
    ),
    Rule(
        "evict-dirty",
        LineState.DIRTY, DirState.DIRTY, ProtoEvent.EVICT_DIRTY, None,
        (Action.WRITEBACK_MEMORY,),
        LineState.INVALID, DirState.UNOWNED,
    ),
)


def build_directory_table() -> TransitionTable:
    """The invalidating directory protocol as a transition table, with
    every combination not covered by a rule explicitly declared
    impossible (with its precision/hit-definition reason)."""
    covered = {rule.key for rule in _DIRECTORY_RULES}
    impossible: List[Impossible] = []
    for cache_state in CLASSIC_CACHE_STATES:
        for dir_state in CLASSIC_DIR_STATES:
            for event in CLASSIC_EVENTS:
                if (cache_state, dir_state, event) in covered:
                    continue
                reason = impossibility_reason(cache_state, dir_state, event)
                if reason is None:
                    # A legal combination without a rule: leave it
                    # *uncovered* rather than inventing an excuse —
                    # protolint's completeness pass exists to catch
                    # exactly this.
                    continue
                impossible.append(
                    Impossible(cache_state, dir_state, event, reason)
                )
    return TransitionTable(_DIRECTORY_RULES, tuple(impossible))


#: The table the imperative protocol drivers and protolint both use.
DIRECTORY_PROTOCOL_TABLE = build_directory_table()


#: Declarative Table 1 pricing of each rule: which ``LatencyTable``
#: field supplies the base (uncontended) latency of a transaction that
#: fires the rule, per requester/home/owner *topology*.  Topology keys:
#:
#: * ``"any"``          — topology-independent (hits, evictions);
#: * ``"local"``        — requester is the home node;
#: * ``"home"``         — requester != home, serviced at the home;
#: * ``"dirty-home"``   — dirty line, two-party collapse (owner == home,
#:   or home == requester with a remote owner — both price identically);
#: * ``"dirty-remote"`` — dirty line, three-party transaction
#:   (requester != home != owner).
#:
#: ``None`` means the rule charges no demand latency at all (clean
#: replacement hints are free; dirty-eviction write-backs are
#: latency-hidden behind the write-back buffer, bandwidth only).
#:
#: This map is *data about* the table, kept next to it so a rule change
#: and its pricing change land in the same diff; it stays out of
#: :class:`Rule` itself because latency is the imperative layer's
#: business (see the module docstring).  ``repro.analysis.latbound``
#: walks it to derive per-transaction-class latency envelopes and
#: cross-checks it against the imperative charge sequences in
#: :mod:`repro.coherence.protocol`.
RULE_LATENCY_ANNOTATIONS: Dict[str, Dict[str, Optional[str]]] = {
    "read-hit-shared": {"any": "read_fill_secondary"},
    "read-hit-owned": {"any": "read_fill_secondary"},
    "read-miss-unowned": {"local": "read_fill_local",
                          "home": "read_fill_home"},
    "read-miss-shared": {"local": "read_fill_local",
                         "home": "read_fill_home"},
    "read-miss-dirty-remote": {"dirty-home": "read_fill_home",
                               "dirty-remote": "read_fill_remote"},
    "write-hit-owned": {"any": "write_owned_secondary"},
    "write-miss-unowned": {"local": "write_owned_local",
                           "home": "write_owned_home"},
    "write-miss-shared": {"local": "write_owned_local",
                          "home": "write_owned_home"},
    "write-miss-dirty": {"dirty-home": "write_owned_home",
                         "dirty-remote": "write_owned_remote"},
    "write-upgrade-shared": {"local": "write_owned_local",
                             "home": "write_owned_home"},
    "evict-clean-other-sharers": {"any": None},
    "evict-clean-last": {"any": None},
    "evict-dirty": {"any": None},
}
