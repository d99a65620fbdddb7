"""The :class:`ProtocolSpec` container and its constructor helpers.

A spec is a *pure declaration*: the transition table plus the small
amount of semantic metadata the protocol-generic analyzers need but
cannot read off the table itself — which cache states denote sole
copies, which may hold a value newer than memory, which admit silent
(message-free) write upgrades, and how the abstract directory tracks
owners and sharers.  Everything else (eviction events per state, the
states a write hit or upgrade is defined for) is derived from the
table, so a spec cannot drift from its own rules.

Files in this package are checked by srclint's ``spec-purity`` rule:
no imports from the simulation/system layers and no module-scope calls
beyond the spec constructors, so importing a spec can never start a
simulation or take a dependency the analyzers don't have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.table import (
    EVICTION_EVENTS,
    Impossible,
    ProtoEvent,
    Rule,
    TransitionTable,
    spec_impossibility_reason,
)


@dataclass(frozen=True)
class ProtocolSpec:  # srclint: ok(missing-slots) — a handful of registry singletons
    """One coherence protocol, packaged for the static analyzers.

    ``table`` carries the rules, impossibilities, and the per-table
    state/event alphabets; the remaining fields are the semantic facts
    the model checker, lint passes, and envelope derivation interpret
    the rules with.  All state sets are over :class:`LineState` /
    :class:`DirState` members that must appear in the table's alphabets.
    """

    name: str
    description: str
    table: TransitionTable
    #: Per-rule Table 1 pricing (``latbound``'s raw material), same
    #: shape as ``RULE_LATENCY_ANNOTATIONS``.
    latency_annotations: Mapping[str, Mapping[str, Optional[str]]]
    #: Cache states in which the holder is *the* line's owner — the
    #: directory's ``owner`` field names it and its copy is
    #: authoritative for the line's current value.
    owner_states: frozenset
    #: Cache states guaranteeing no other cache holds the line.
    exclusive_states: frozenset
    #: Cache states whose copy may be newer than home memory (a holder
    #: outside these states always matches memory).
    dirty_states: frozenset
    #: Cache states from which a write completes with *no message at
    #: all* (MESI's E -> M): the abstract model gives these a local,
    #: instantaneous write edge.
    silent_upgrade_states: frozenset
    #: The state a remote read demotes the owner to (MSI/MESI: SHARED
    #: with a sharing write-back; MOESI: OWNED, memory left stale).
    downgrade_state: LineState
    #: Directory states in which the entry names an owner.
    owner_dir_states: frozenset
    #: Directory states in which the entry carries a sharer mask.
    sharer_dir_states: frozenset
    #: Whether :mod:`repro.coherence.protocol` can drive this spec at
    #: runtime (MOESI is analyzer-only until the runtime grows O).
    runtime_supported: bool

    # -- table-derived views -------------------------------------------------

    def eviction_event(self, state: LineState) -> ProtoEvent:
        """The replacement event a resident ``state`` fires."""
        for rule in self.table.rules:
            if rule.event in EVICTION_EVENTS and rule.cache_state == state:
                return rule.event
        raise KeyError(f"{self.name}: no eviction rule for {state.name}")

    def write_hit_states(self) -> frozenset:
        """Resident states whose write is a WRITE_HIT in the table."""
        return frozenset(
            rule.cache_state for rule in self.table.rules
            if rule.event is ProtoEvent.WRITE_HIT
        )

    def upgrade_states(self) -> frozenset:
        """Resident states whose write is a WRITE_UPGRADE (a directory
        message) in the table."""
        return frozenset(
            rule.cache_state for rule in self.table.rules
            if rule.event is ProtoEvent.WRITE_UPGRADE
        )

    def fingerprint(self) -> str:
        return self.table.fingerprint()

    def describe(self) -> str:
        return (
            f"spec {self.name!r}: {len(self.table.rules)} rule(s), "
            f"{len(self.table.impossible)} impossible combo(s), "
            f"cache states "
            f"{'/'.join(s.name for s in self.table.cache_states)}, "
            f"fingerprint {self.fingerprint()[:16]}"
        )


def make_spec(
    name: str,
    description: str,
    rules: Tuple[Rule, ...],
    cache_states: Tuple[LineState, ...],
    dir_states: Tuple[DirState, ...],
    events: Tuple[ProtoEvent, ...],
    required_cache: Mapping[ProtoEvent, Tuple[LineState, ...]],
    compatible_dir_states: Mapping[LineState, Tuple[DirState, ...]],
    latency_annotations: Mapping[str, Mapping[str, Optional[str]]],
    owner_states: frozenset,
    exclusive_states: frozenset,
    dirty_states: frozenset,
    silent_upgrade_states: frozenset,
    downgrade_state: LineState,
    owner_dir_states: frozenset,
    sharer_dir_states: frozenset,
    runtime_supported: bool,
) -> ProtocolSpec:
    """Build a spec the way ``build_directory_table`` builds the MSI
    table: every domain combination not covered by a rule gets its
    impossibility reason derived from the protocol's own hit/precision
    discipline via
    :func:`~repro.coherence.table.spec_impossibility_reason`; legal
    uncovered combinations are left uncovered for protolint to flag."""
    covered = {rule.key for rule in rules}
    impossible: List[Impossible] = []
    for cache_state in cache_states:
        for dir_state in dir_states:
            for event in events:
                if (cache_state, dir_state, event) in covered:
                    continue
                reason = spec_impossibility_reason(
                    cache_state, dir_state, event,
                    dict(required_cache), dict(compatible_dir_states),
                )
                if reason is None:
                    continue
                impossible.append(
                    Impossible(cache_state, dir_state, event, reason)
                )
    table = TransitionTable(
        rules, tuple(impossible), name=name,
        cache_states=cache_states, dir_states=dir_states, events=events,
    )
    return ProtocolSpec(
        name=name,
        description=description,
        table=table,
        latency_annotations=latency_annotations,
        owner_states=owner_states,
        exclusive_states=exclusive_states,
        dirty_states=dirty_states,
        silent_upgrade_states=silent_upgrade_states,
        downgrade_state=downgrade_state,
        owner_dir_states=owner_dir_states,
        sharer_dir_states=sharer_dir_states,
        runtime_supported=runtime_supported,
    )
