"""Static analysis of the declarative coherence transition table.

The table in :mod:`repro.coherence.table` *is* the protocol: the
imperative handlers look their rule up and apply its actions, so any
defect in the table — a missing transition, two rules claiming the same
situation, a rule no execution can ever fire — is a protocol bug that
deserves a static, simulation-free verdict.  This module provides it,
in four passes, each **protocol-parametric**: pass a registered
:class:`~repro.coherence.specs.ProtocolSpec` (or any bare
:class:`~repro.coherence.table.TransitionTable`) and the completeness
domain, the observation vocabulary, and the conforming model are all
taken from it — ``--proto-matrix`` runs the whole battery over every
registered spec.  The passes:

* **completeness** — every ``(cache-state, directory-state, event)``
  combination in the table's domain is either covered by a rule (for
  every concrete value of its guard) or explicitly declared impossible
  with a reason; a combination that is both ruled and declared
  impossible is a contradiction;
* **determinism** — no two rules overlap: for every concrete situation
  at most one rule matches, so the table is a function, not a relation;
* **stutter-freedom** — no rule performs no actions *and* changes no
  state, and no cycle of action-free rules exists: every transition
  makes progress;
* **liveness / conformance** — the pass that keeps the table honest
  against reality.  It reads the reachable-state graph of the model
  checker's own run over the same abstraction
  (:class:`~repro.analysis.modelcheck.ProtocolModel`, enumerated once
  by :func:`~repro.analysis.modelcheck.explore`), projects every
  *observation* — a resident line that could be read, written, or
  evicted; an in-flight request about to be served — onto the table,
  and demands a successful lookup (a failure yields a **minimal witness
  trace**, BFS-shortest, in the model checker's rendering).  Each fired
  rule's declared next states are compared against what the model
  actually does (conformance); rules that never fire are **dead
  transitions** (the ``orphan-state`` mutation); declared-impossible
  combinations that are nevertheless observed are unsoundness findings.
  A model that violates an invariant is itself the finding, reported
  with its counterexample; the table is not checked against a graph
  that stops at the violating state.

Soundness caveats are inherited from both sides: the table covers the
secondary-cache + home-directory machine (not the write-through primary,
not uncached accesses, no latency arithmetic), and the liveness pass is
exhaustive only up to the model's bounds — a rule dead under
``ModelConfig(num_caches=2, num_lines=1)`` might fire in a larger
machine, which is why dead transitions name the bounds in their message.

``mutation`` (via :func:`mutated_table`) seeds a deliberately broken
table — mirroring ``--mc-mutate`` / ``--trace-mutate`` — so the tests
and the README can demonstrate each class of finding end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.modelcheck import (
    ModelCheckResult,
    ModelConfig,
    ProtocolModel,
    ReachableGraph,
    State,
    check_protocol,
    format_trace,
)
from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.table import (
    DIRECTORY_PROTOCOL_TABLE,
    ProtoEvent,
    ProtocolTableError,
    Rule,
    TransitionTable,
    build_directory_table,
)

#: Seeded table defects accepted by :func:`mutated_table`, mirroring the
#: model checker's ``MUTATIONS`` and the trace checker's mutations.
PROTO_MUTATIONS = (
    # Remove the dirty-remote read fill: a reachable (INVALID, DIRTY,
    # read_miss) observation has neither rule nor impossibility
    # (completeness hole, with a minimal witness from the model).
    "drop-transition",
    # Duplicate the clean-eviction rule without its guard: two rules
    # match the same concrete situations (determinism violation).
    "overlap-rule",
    # Replace a precision impossibility with a rule no execution can
    # reach: the rule never fires in the model (dead transition).
    "orphan-state",
)


@dataclass(frozen=True)
class Observation:
    """One concrete situation a reachable model state presents to the
    table: a lookup key plus the guard value and, for served requests
    and evictions, the model edge to conform against."""

    cache_state: LineState
    dir_state: DirState
    event: ProtoEvent
    others: Optional[bool]
    cache: int
    line: int

    def describe(self) -> str:
        guard = (
            ""
            if self.others is None
            else f" [others={'yes' if self.others else 'no'}]"
        )
        return (
            f"c{self.cache}/l{self.line}: ({self.cache_state.name}, "
            f"{self.dir_state.name}, {self.event.value}){guard}"
        )


@dataclass
class ProtoFinding:
    """One table defect, with a minimal witness where one exists."""

    check: str       # completeness | determinism | stutter | liveness | conformance
    message: str
    #: Rendered witness steps (``action`` + state line pairs), BFS-
    #: minimal when derived from the model; empty for purely static
    #: findings whose witness is the rule text itself.
    witness: List[str] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"[{self.check}] {self.message}"]
        for step in self.witness:
            lines.append(f"    {step}")
        return "\n".join(lines)


@dataclass
class ProtoLintResult:
    """Everything one protolint run established about a table."""

    table_name: str
    rules: int
    impossible: int
    table_fingerprint: str
    findings: List[ProtoFinding]
    #: Reachable states the model check explored (0 when skipped).
    states_explored: int
    #: Observations projected onto the table across those states.
    observations_checked: int
    #: The model check's reachable-state fingerprint (``None`` when the
    #: liveness pass was skipped).
    reachable_fingerprint: Optional[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        verdict = (
            "table is complete, deterministic, live, and stutter-free"
            if self.ok
            else f"{len(self.findings)} violation(s)"
        )
        return (
            f"proto lint [{self.table_name}]: {self.rules} rules, "
            f"{self.impossible} impossible combos, "
            f"{self.states_explored} model states, "
            f"{self.observations_checked} observations: {verdict}; "
            f"table fingerprint {self.table_fingerprint[:16]}"
        )

    def format(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {finding.format()}" for finding in self.findings)
        return "\n".join(lines)


# -- static passes ------------------------------------------------------------

def check_completeness(table: TransitionTable) -> List[ProtoFinding]:
    """Every domain key is ruled (for both guard values) or declared
    impossible — and never both."""
    findings: List[ProtoFinding] = []
    for key in table.domain():
        cache_state, dir_state, event = key
        rules = table.rules_for(key)
        impossible = table.declared_impossible(key)
        rendered = f"({cache_state.name}, {dir_state.name}, {event.value})"
        if rules and impossible is not None:
            findings.append(
                ProtoFinding(
                    "completeness",
                    f"{rendered} is covered by rule(s) "
                    f"{[r.name for r in rules]} but also declared "
                    f"impossible: {impossible.reason}",
                )
            )
        elif not rules and impossible is None:
            findings.append(
                ProtoFinding(
                    "completeness",
                    f"{rendered} has no rule and no impossibility "
                    f"declaration",
                )
            )
        elif rules:
            for others in (True, False):
                if not any(rule.matches(others) for rule in rules):
                    findings.append(
                        ProtoFinding(
                            "completeness",
                            f"{rendered} has no rule matching "
                            f"others={others}: guards "
                            f"{[r.others_cached for r in rules]} do not "
                            f"cover the guard domain",
                        )
                    )
    return findings


def check_determinism(table: TransitionTable) -> List[ProtoFinding]:
    """No concrete situation satisfies two rules."""
    findings: List[ProtoFinding] = []
    for i, first in enumerate(table.rules):
        for second in table.rules[i + 1:]:
            if first.overlaps(second):
                findings.append(
                    ProtoFinding(
                        "determinism",
                        f"rules {first.name!r} and {second.name!r} "
                        f"overlap on ({first.cache_state.name}, "
                        f"{first.dir_state.name}, {first.event.value})",
                        witness=[first.describe(), second.describe()],
                    )
                )
    return findings


def check_stutter(table: TransitionTable) -> List[ProtoFinding]:
    """No transition is a pure no-op, and no cycle of action-free
    transitions exists (every path through the table does work)."""
    findings: List[ProtoFinding] = []
    edges: Dict[Tuple[LineState, DirState],
                List[Tuple[Rule, Tuple[LineState, DirState]]]] = {}
    for rule in table.rules:
        if not rule.actions:
            if not rule.changes_state():
                findings.append(
                    ProtoFinding(
                        "stutter",
                        f"rule {rule.name!r} performs no actions and "
                        f"changes no state",
                        witness=[rule.describe()],
                    )
                )
            else:
                edges.setdefault(
                    (rule.cache_state, rule.dir_state), []
                ).append(
                    (rule, (rule.next_cache_state, rule.next_dir_state))
                )
    # Cycle detection over the action-free subgraph (DFS, three-color).
    done: Set[Tuple[LineState, DirState]] = set()
    for start in list(edges):
        if start in done:
            continue
        stack: List[Tuple[Tuple[LineState, DirState], List[Rule]]] = [
            (start, [])
        ]
        on_path: Set[Tuple[LineState, DirState]] = set()
        while stack:
            node, path = stack.pop()
            if node in on_path:
                findings.append(
                    ProtoFinding(
                        "stutter",
                        "cycle of action-free transitions: "
                        + " -> ".join(r.name for r in path),
                        witness=[r.describe() for r in path],
                    )
                )
                break
            if node in done:
                continue
            on_path.add(node)
            done.add(node)
            for rule, succ in edges.get(node, ()):
                stack.append((succ, path + [rule]))
    return findings


# -- the liveness / conformance pass ------------------------------------------

def _observations(
    state: State, config: ModelConfig, spec
) -> List[Observation]:
    """Project one reachable model state onto the table's vocabulary.

    The spec decides which events a resident copy presents: its
    eviction event per cache state (with the guard value attached only
    when the spec actually guards that key), and whether a write to it
    is a hit."""
    obs: List[Observation] = []
    write_hit_states = spec.write_hit_states()
    for line in range(config.num_lines):
        entry = state.dirs[line]
        holders = [
            c for c in range(config.num_caches)
            if state.caches[c][line].state != LineState.INVALID
        ]
        for cache in range(config.num_caches):
            cl = state.caches[cache][line]
            if cl.state == LineState.INVALID:
                continue
            others = any(h != cache for h in holders)
            obs.append(
                Observation(
                    cl.state, entry.state, ProtoEvent.READ_HIT, None,
                    cache, line,
                )
            )
            evict_event = spec.eviction_event(cl.state)
            guarded = any(
                rule.others_cached is not None
                for rule in spec.table.rules
                if rule.event is evict_event and rule.cache_state == cl.state
            )
            obs.append(
                Observation(
                    cl.state, entry.state, evict_event,
                    others if guarded else None, cache, line,
                )
            )
            if cl.state in write_hit_states:
                obs.append(
                    Observation(
                        cl.state, entry.state, ProtoEvent.WRITE_HIT, None,
                        cache, line,
                    )
                )
    for msg in state.msgs:
        cl = state.caches[msg.cache][msg.line]
        entry = state.dirs[msg.line]
        if msg.kind == "R":
            event = ProtoEvent.READ_MISS
        elif cl.state == LineState.INVALID:
            event = ProtoEvent.WRITE_MISS
        else:
            event = ProtoEvent.WRITE_UPGRADE
        obs.append(
            Observation(
                cl.state, entry.state, event, None, msg.cache, msg.line
            )
        )
    return obs


def _conformance_target(
    model: ProtocolModel, state: State, observation: Observation
) -> Optional[Tuple[LineState, DirState]]:
    """What the model actually does for this observation: the
    requester's and the home entry's state after the corresponding
    model edge (``None`` when the model has no such edge — hits resolve
    inside the cache and touch no global state)."""
    cache, line = observation.cache, observation.line
    event = observation.event
    if event is ProtoEvent.READ_HIT:
        return None
    if event is ProtoEvent.WRITE_HIT:
        if observation.cache_state in model.spec.silent_upgrade_states:
            # MESI's E -> M is a hit with a state change; conform it
            # against the model's local silent-write edge.
            edges = model.silent_write(state, cache, line)
            if edges:
                _, succ = edges[0]
                return (succ.caches[cache][line].state, succ.dirs[line].state)
        return None
    if event in (
        ProtoEvent.EVICT_CLEAN, ProtoEvent.EVICT_DIRTY,
        ProtoEvent.EVICT_EXCLUSIVE,
    ):
        edge = model.evict(state, cache, line)
    else:
        msg = next(
            m for m in state.msgs if m.cache == cache and m.line == line
        )
        edge = (
            model.serve_read(state, msg)
            if event == ProtoEvent.READ_MISS
            else model.serve_write(state, msg)
        )
    if edge is None:
        return None
    _, succ = edge
    return (succ.caches[cache][line].state, succ.dirs[line].state)


def _witness_to(state: State, graph: ReachableGraph) -> List[str]:
    """Rendered BFS-minimal trace from the initial state to ``state``."""
    return format_trace(graph.trace_to(state), indent="")


def check_liveness(
    table: TransitionTable, graph: ReachableGraph
) -> Tuple[List[ProtoFinding], int]:
    """Project every observation of the explored model's reachable
    states onto the table, and conform each fired rule against the model
    edge.

    ``graph`` is a complete exploration (a violation-free
    :func:`~repro.analysis.modelcheck.check_protocol` run's); its model
    fixes the protocol and the bounds, and ``table`` may differ from the
    model spec's own table when a seeded mutation is under test.

    Returns ``(findings, observations)``.
    """
    model = graph.model
    config = model.config
    findings: List[ProtoFinding] = []
    reported: Set[Tuple] = set()
    fired: Set[str] = set()
    states_seen: Set[Tuple[LineState, DirState]] = set()
    observations = 0
    for state in graph.parent:
        for observation in _observations(state, config, model.spec):
            observations += 1
            states_seen.add(
                (observation.cache_state, observation.dir_state)
            )
            key = (
                observation.cache_state, observation.dir_state,
                observation.event, observation.others,
            )
            try:
                rule = table.lookup(*key)
            except ProtocolTableError:
                if key in reported:
                    continue
                reported.add(key)
                declared = table.declared_impossible(key[:3])
                if declared is not None:
                    message = (
                        f"reachable observation {observation.describe()} "
                        f"is declared impossible ({declared.reason})"
                    )
                else:
                    message = (
                        f"reachable observation {observation.describe()} "
                        f"has no rule"
                    )
                findings.append(
                    ProtoFinding(
                        "liveness", message,
                        witness=_witness_to(state, graph),
                    )
                )
                continue
            fired.add(rule.name)
            target = _conformance_target(model, state, observation)
            if target is None:
                # Hits must be global no-ops for the model to be right
                # in not modelling them.
                if observation.event in (
                    ProtoEvent.READ_HIT, ProtoEvent.WRITE_HIT
                ) and rule.changes_state():
                    conf_key = ("hit", rule.name)
                    if conf_key not in reported:
                        reported.add(conf_key)
                        findings.append(
                            ProtoFinding(
                                "conformance",
                                f"hit rule {rule.name!r} declares a state "
                                f"change, but hits resolve inside the "
                                f"cache: {rule.describe()}",
                                witness=_witness_to(state, graph),
                            )
                        )
                continue
            declared_next = (rule.next_cache_state, rule.next_dir_state)
            if target != declared_next:
                conf_key = ("next", rule.name, target)
                if conf_key not in reported:
                    reported.add(conf_key)
                    findings.append(
                        ProtoFinding(
                            "conformance",
                            f"rule {rule.name!r} declares next states "
                            f"({declared_next[0].name}, "
                            f"{declared_next[1].name}) but the model "
                            f"transition yields ({target[0].name}, "
                            f"{target[1].name}) for "
                            f"{observation.describe()}",
                            witness=_witness_to(state, graph),
                        )
                    )

    for rule in table.rules:
        if rule.name not in fired:
            findings.append(
                ProtoFinding(
                    "liveness",
                    f"dead transition: rule {rule.name!r} never fires in "
                    f"any of the {len(graph.parent)} reachable states "
                    f"(bounds: {config.num_caches} caches, "
                    f"{config.num_lines} line(s)) — the combination "
                    f"({rule.cache_state.name}, {rule.dir_state.name}, "
                    f"{rule.event.value}) is unreachable",
                    witness=[rule.describe()],
                )
            )
    for cache_state, dir_state in sorted(
        states_seen, key=lambda pair: (pair[0].value, pair[1].value)
    ):
        # Defensive completeness of the *state* vocabulary: every
        # LineState x DirState pairing the model reaches must appear in
        # some rule key, else the table's state space is missing a
        # reachable state entirely (a dead *state* in reverse).
        if not any(
            rule.cache_state == cache_state and rule.dir_state == dir_state
            for rule in table.rules
        ):
            findings.append(
                ProtoFinding(
                    "liveness",
                    f"dead state: the model reaches ({cache_state.name}, "
                    f"{dir_state.name}) but no rule mentions it",
                )
            )
    return findings, observations


# -- entry points -------------------------------------------------------------

def lint_table(
    table: Optional[TransitionTable] = None,
    config: Optional[ModelConfig] = None,
    with_model: bool = True,
    spec=None,
    model_result: Optional[ModelCheckResult] = None,
) -> ProtoLintResult:
    """Run every pass over ``table`` (default: the directory protocol).

    Pass ``spec`` to lint a registered protocol spec: its table becomes
    the lint target (unless ``table`` overrides it with a mutated
    variant) and the conforming model runs that protocol's semantics.

    The liveness pass reads the graph of a
    :func:`~repro.analysis.modelcheck.check_protocol` run of ``spec``
    under ``config``; pass that run as ``model_result`` when the caller
    already has it, so the model is explored once.  A model that
    violates an invariant is reported as one liveness finding with its
    counterexample, and the observation pass is skipped: its graph stops
    at the violating state.

    ``with_model=False`` skips the liveness/conformance pass (used by
    unit tests exercising the static passes on synthetic tables whose
    states the model cannot reach).
    """
    if table is None:
        table = spec.table if spec is not None else DIRECTORY_PROTOCOL_TABLE
    findings: List[ProtoFinding] = []
    findings.extend(check_completeness(table))
    findings.extend(check_determinism(table))
    findings.extend(check_stutter(table))
    states = observations = 0
    reach_fp: Optional[str] = None
    if with_model:
        if model_result is None:
            model_result = check_protocol(config, spec=spec)
        states = model_result.states_explored
        reach_fp = model_result.fingerprint
        violation = model_result.violation
        if violation is not None:
            findings.append(
                ProtoFinding(
                    "liveness",
                    f"the model violates {violation.invariant} after "
                    f"{states} states: {violation.message}",
                    witness=format_trace(violation.trace, indent=""),
                )
            )
        else:
            live, observations = check_liveness(table, model_result.graph)
            findings.extend(live)
    return ProtoLintResult(
        table_name=table.name,
        rules=len(table.rules),
        impossible=len(table.impossible),
        table_fingerprint=table.fingerprint(),
        findings=findings,
        states_explored=states,
        observations_checked=observations,
        reachable_fingerprint=reach_fp,
    )


def mutated_table(mutation: str) -> TransitionTable:
    """A deliberately broken copy of the directory table (test/demo
    only, mirroring ``--mc-mutate`` / ``--trace-mutate``)."""
    base = build_directory_table()
    if mutation == "drop-transition":
        rules = tuple(
            rule for rule in base.rules
            if rule.name != "read-miss-dirty-remote"
        )
        return TransitionTable(
            rules, base.impossible, name=f"{base.name}[drop-transition]"
        )
    if mutation == "overlap-rule":
        from repro.coherence.table import Action

        shadow = Rule(
            "evict-clean-shadow",
            LineState.SHARED, DirState.SHARED, ProtoEvent.EVICT_CLEAN,
            None,
            (Action.DROP_SHARER,),
            LineState.INVALID, DirState.UNOWNED,
        )
        return TransitionTable(
            base.rules + (shadow,), base.impossible,
            name=f"{base.name}[overlap-rule]",
        )
    if mutation == "orphan-state":
        from repro.coherence.table import Action

        orphan_key = (
            LineState.SHARED, DirState.DIRTY, ProtoEvent.WRITE_UPGRADE
        )
        orphan = Rule(
            "write-upgrade-stale",
            *orphan_key,
            None,
            (Action.READ_MEMORY, Action.SET_OWNER),
            LineState.DIRTY, DirState.DIRTY,
        )
        impossible = tuple(
            imp for imp in base.impossible if imp.key != orphan_key
        )
        return TransitionTable(
            base.rules + (orphan,), impossible,
            name=f"{base.name}[orphan-state]",
        )
    raise ValueError(
        f"unknown mutation {mutation!r}; expected one of {PROTO_MUTATIONS}"
    )
