"""Static latency-bound analyzer: per-transaction latency envelopes.

The paper's contribution is an *analytic accounting* of where memory
latency goes under each latency reducing/tolerating technique.  The
simulator implements that accounting imperatively — Table 1 base
latencies plus queuing delay on the buses, links, directory controllers,
and memory banks along each transaction's path — but until this pass
nothing connected the declarative protocol table
(:mod:`repro.coherence.table`) and the machine parameters
(:mod:`repro.config`) to the latencies the simulator actually produces.

This module derives, symbolically from the table and the config, a
closed-form :class:`LatencyEnvelope` ``[min_cycles, max_cycles]`` per
:class:`TxnClass` and consistency model, and offers three things:

* **derivation** (:func:`derive_envelopes`) — walk every priced
  :class:`~repro.coherence.table.Rule` through the topology entries of
  its spec's ``latency_annotations`` (the analyzer is parametric over
  any registered :class:`~repro.coherence.specs.ProtocolSpec`;
  ``directory-msi`` is the default),
  read each class's charge path from the plans the runtime executes
  (:mod:`repro.interconnect.plans`, bound to the class's topology as
  :class:`ChargeStep` sequences), and compose
  ``min = base`` (queuing delays are nonnegative, so an unloaded
  machine is the exact floor) with
  ``max = base + sum(per-step contention ceilings)``;
* **static conformance** (:func:`check_accounting`) — the accounting
  rules the analytic model implies: every rule priced and charged to
  exactly one :class:`~repro.processor.accounting.Bucket`, charge paths
  connected (no uncharged hops), at most one directory pass per
  transaction, Table 1's additive distance ladder, monotonicity of
  every envelope in every config parameter, and the additive technique
  composition the paper claims (prefetch = demand fill, uncached =
  cached − discount, sync = read/write ladder);
* **audit** (:func:`audit_trace` / :func:`audit_app`) — replay a
  recorded :class:`~repro.analysis.tracecheck.MemoryEventTrace` and
  check every observed transaction latency falls inside its envelope,
  reporting the earliest (BFS-minimal) violating transaction as the
  witness.

Soundness caveats (also in DESIGN.md §13):

* The **min** bound is the uncontended Table 1 base:
  ``Interconnect.charge_path`` returns a nonnegative queuing delay, so
  the base is a true floor, reached by the first access of a quiet
  run on every path that visits no station twice (a remote fill's
  data reply waits out its own request header on the requester's
  bus).
* The **max** bound is a loose closed-form ceiling, not a tight one:
  each charge step waits at most ``(in-flight transactions − 1) ×
  (max charges a competitor puts on that station) × (max occupancy)``
  per station, with the in-flight count bounded by the architectural
  buffers (one demand reference plus the prefetch buffer per processor
  on the demand chain; the write buffer and attributed evictions on the
  background chain).  It holds for *fault-free* runs only — NACK
  retries re-charge the path and void any static ceiling — and the
  audit therefore runs without a fault plan.
* Blocked synchronization (``ACQ``/``REL`` events) and MSHR-combined
  reads inherit another transaction's completion time and are skipped
  by the audit; prefetch fills never record trace events, so the
  prefetch envelopes are validated only statically (they must equal the
  demand-fill envelopes they delegate to).

Three defects can be seeded with ``mutation=`` (the ``--lat-mutate``
demo, mirroring ``--mc-mutate`` / ``--proto-mutate``): dropping the
home→owner forward hop from the three-party read path
(``uncharged-hop``), charging the home directory twice on a remote
write miss (``double-charged-directory-occupancy``), and tightening the
home read-miss envelope below Table 1 (``envelope-too-tight``, caught
dynamically by the audit rather than statically — by design, to prove
the audit adds power the static passes lack).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import Consistency, MachineConfig, dash_scaled_config
from repro.coherence.table import Action, ProtoEvent, TransitionTable
from repro.interconnect import ChargeKind, max_occupancy, stations_per_charge
from repro.interconnect import plans
from repro.interconnect.plans import Plan
from repro.processor.accounting import BUCKET_FOR_PROTO_EVENT, Bucket

#: Seeded defects for the ``--lat-mutate`` demonstration.
LAT_MUTATIONS = (
    "uncharged-hop",
    "double-charged-directory-occupancy",
    "envelope-too-tight",
)


class TxnClass(enum.Enum):
    """Transaction classes the envelopes are derived for — the Table 1
    rows refined by dirty-line topology, plus the techniques."""

    READ_HIT_PRIMARY = "read-hit-primary"
    READ_HIT_SECONDARY = "read-hit-secondary"
    READ_MISS_LOCAL = "read-miss-local"
    READ_MISS_HOME = "read-miss-home"
    READ_MISS_DIRTY_HOME = "read-miss-dirty-home"
    READ_MISS_DIRTY_REMOTE = "read-miss-dirty-remote"
    WRITE_HIT_SECONDARY = "write-hit-secondary"
    WRITE_MISS_LOCAL = "write-miss-local"
    WRITE_MISS_HOME = "write-miss-home"
    WRITE_MISS_DIRTY_HOME = "write-miss-dirty-home"
    WRITE_MISS_DIRTY_REMOTE = "write-miss-dirty-remote"
    WRITE_UPGRADE_LOCAL = "write-upgrade-local"
    WRITE_UPGRADE_HOME = "write-upgrade-home"
    WRITEBACK = "writeback"
    PREFETCH_SHARED = "prefetch-shared"
    PREFETCH_EXCLUSIVE = "prefetch-exclusive"
    UNCACHED_READ_LOCAL = "uncached-read-local"
    UNCACHED_READ_REMOTE = "uncached-read-remote"
    UNCACHED_WRITE_LOCAL = "uncached-write-local"
    UNCACHED_WRITE_REMOTE = "uncached-write-remote"
    SYNC_RMW_LOCAL = "sync-rmw-local"
    SYNC_RMW_HOME = "sync-rmw-home"
    SYNC_RELEASE_LOCAL = "sync-release-local"
    SYNC_RELEASE_HOME = "sync-release-home"


@dataclass(frozen=True)
class ChargeStep:
    """One resource charge along a transaction's path.

    One step of a runtime plan, with ``where`` resolved: a node role
    (``req`` / ``home`` / ``owner`` / ``sharer``) for point resources,
    or ``"a->b"`` for a network traversal.
    ``action`` ties the step to the table action it prices (``None``
    for the non-table sync/uncached paths).  ``hidden`` marks charges
    whose latency the transaction does not wait for (sharing
    write-backs, eviction write-backs, invalidation fan-out): pure
    bandwidth, excluded from the envelope and the continuity walk.
    """

    kind: ChargeKind
    where: str
    data: bool
    action: Optional[Action] = None
    hidden: bool = False

    def describe(self) -> str:
        payload = "data" if self.data else "hdr"
        tag = " hidden" if self.hidden else ""
        return f"{self.kind.value}@{self.where}/{payload}{tag}"


@dataclass(frozen=True)
class LatencyEnvelope:
    """Closed-form latency bounds for one (model, class) pair.

    ``min_cycles`` is the exact uncontended Table 1 latency;
    ``max_cycles`` adds the static contention ceiling; ``ack_cycles``
    bounds how far a write's ``complete`` may trail its ``retire``
    (invalidation acknowledgements).  ``term_breakdown`` lists the
    ``(term, cycles)`` contributions that sum to ``max_cycles``.
    """

    txn_class: TxnClass
    model: Consistency
    min_cycles: int
    max_cycles: int
    ack_cycles: int
    term_breakdown: Tuple[Tuple[str, int], ...]

    def contains(self, latency: int) -> bool:
        return self.min_cycles <= latency <= self.max_cycles

    def describe(self) -> str:
        terms = " + ".join(f"{name}={value}" for name, value in
                           self.term_breakdown)
        return (
            f"{self.txn_class.value} [{self.min_cycles}, {self.max_cycles}] "
            f"ack<={self.ack_cycles}: {terms}"
        )


@dataclass(frozen=True)
class _ClassSpec:
    """How one transaction class maps onto the table and the config."""

    cls: TxnClass
    #: Transition-table rules this class prices (several rules share an
    #: envelope when their charge paths are identical).
    rules: Tuple[str, ...]
    #: Topology key into the spec's latency annotations.
    topology: str
    #: LatencyTable field supplying the base, or None (computed/zero).
    base_field: Optional[str]
    #: "read" / "write" / "writeback": picks the stall bucket and the
    #: resource chain (writes drain on the background chain when the
    #: consistency model buffers them).
    flavor: str


#: (rule event, annotation topology) -> (transaction class, flavor):
#: how a spec's latency annotations project onto the Table 1 rows.
_TOPOLOGY_CLASSES: Dict[Tuple[ProtoEvent, str], Tuple[TxnClass, str]] = {
    (ProtoEvent.READ_HIT, "any"): (TxnClass.READ_HIT_SECONDARY, "read"),
    (ProtoEvent.READ_MISS, "local"): (TxnClass.READ_MISS_LOCAL, "read"),
    (ProtoEvent.READ_MISS, "home"): (TxnClass.READ_MISS_HOME, "read"),
    (ProtoEvent.READ_MISS, "dirty-home"):
        (TxnClass.READ_MISS_DIRTY_HOME, "read"),
    (ProtoEvent.READ_MISS, "dirty-remote"):
        (TxnClass.READ_MISS_DIRTY_REMOTE, "read"),
    (ProtoEvent.WRITE_HIT, "any"): (TxnClass.WRITE_HIT_SECONDARY, "write"),
    (ProtoEvent.WRITE_MISS, "local"): (TxnClass.WRITE_MISS_LOCAL, "write"),
    (ProtoEvent.WRITE_MISS, "home"): (TxnClass.WRITE_MISS_HOME, "write"),
    (ProtoEvent.WRITE_MISS, "dirty-home"):
        (TxnClass.WRITE_MISS_DIRTY_HOME, "write"),
    (ProtoEvent.WRITE_MISS, "dirty-remote"):
        (TxnClass.WRITE_MISS_DIRTY_REMOTE, "write"),
    (ProtoEvent.WRITE_UPGRADE, "local"):
        (TxnClass.WRITE_UPGRADE_LOCAL, "write"),
    (ProtoEvent.WRITE_UPGRADE, "home"):
        (TxnClass.WRITE_UPGRADE_HOME, "write"),
}


def _derive_class_specs(spec):
    """Project ``spec``'s rules onto the Table 1 transaction classes.

    Walks the table in rule order: every annotated ``(rule, topology)``
    pair joins the class ``_TOPOLOGY_CLASSES`` names for it, ``None``
    bases split into the background WRITEBACK class (the rule notifies
    the home with a write-back message) or the zero-cost set (pure
    replacement hints).  Returns ``(class_specs, zero_cost_rules)``;
    for ``directory-msi`` this reproduces the hand-derived
    ``_RULE_SPECS`` exactly (pinned by a regression test).
    """
    grouped: Dict[TxnClass, Tuple[List[str], str, Optional[str], str]] = {}
    zero_cost: List[str] = []
    for rule in spec.table.rules:
        annotated = spec.latency_annotations.get(rule.name)
        if annotated is None:
            continue  # the annotation-coverage pass reports the gap
        for topo, base_field in annotated.items():
            if base_field is None:
                if Action.WRITEBACK_MEMORY in rule.action_set:
                    entry = grouped.setdefault(
                        TxnClass.WRITEBACK, ([], "any", None, "writeback")
                    )
                    entry[0].append(rule.name)
                else:
                    zero_cost.append(rule.name)
                continue
            try:
                cls, flavor = _TOPOLOGY_CLASSES[(rule.event, topo)]
            except KeyError:
                raise ValueError(
                    f"spec {spec.name!r}: rule {rule.name!r} annotates "
                    f"topology {topo!r} for event {rule.event.value!r}, "
                    f"which maps to no transaction class"
                ) from None
            entry = grouped.setdefault(cls, ([], topo, base_field, flavor))
            entry[0].append(rule.name)
    out = [_ClassSpec(TxnClass.READ_HIT_PRIMARY, (), "any",
                      "read_primary_hit", "read")]
    for cls in TxnClass:
        if cls in grouped:
            rules, topo, base_field, flavor = grouped[cls]
            out.append(_ClassSpec(cls, tuple(rules), topo, base_field,
                                  flavor))
    return tuple(out), tuple(zero_cost)


def _default_proto_spec():
    from repro.coherence.specs import get_spec

    return get_spec("directory-msi")


#: The table-backed transaction classes of the directory-MSI protocol —
#: the reference `_derive_class_specs` output, kept as documentation and
#: pinned against the derivation by a regression test.  Prefetch spans
#: and the sync/uncached paths are derived separately below.
_RULE_SPECS: Tuple[_ClassSpec, ...] = (
    _ClassSpec(TxnClass.READ_HIT_PRIMARY, (), "any",
               "read_primary_hit", "read"),
    _ClassSpec(TxnClass.READ_HIT_SECONDARY,
               ("read-hit-shared", "read-hit-owned"), "any",
               "read_fill_secondary", "read"),
    _ClassSpec(TxnClass.READ_MISS_LOCAL,
               ("read-miss-unowned", "read-miss-shared"), "local",
               "read_fill_local", "read"),
    _ClassSpec(TxnClass.READ_MISS_HOME,
               ("read-miss-unowned", "read-miss-shared"), "home",
               "read_fill_home", "read"),
    _ClassSpec(TxnClass.READ_MISS_DIRTY_HOME,
               ("read-miss-dirty-remote",), "dirty-home",
               "read_fill_home", "read"),
    _ClassSpec(TxnClass.READ_MISS_DIRTY_REMOTE,
               ("read-miss-dirty-remote",), "dirty-remote",
               "read_fill_remote", "read"),
    _ClassSpec(TxnClass.WRITE_HIT_SECONDARY,
               ("write-hit-owned",), "any",
               "write_owned_secondary", "write"),
    _ClassSpec(TxnClass.WRITE_MISS_LOCAL,
               ("write-miss-unowned", "write-miss-shared"), "local",
               "write_owned_local", "write"),
    _ClassSpec(TxnClass.WRITE_MISS_HOME,
               ("write-miss-unowned", "write-miss-shared"), "home",
               "write_owned_home", "write"),
    _ClassSpec(TxnClass.WRITE_MISS_DIRTY_HOME,
               ("write-miss-dirty",), "dirty-home",
               "write_owned_home", "write"),
    _ClassSpec(TxnClass.WRITE_MISS_DIRTY_REMOTE,
               ("write-miss-dirty",), "dirty-remote",
               "write_owned_remote", "write"),
    _ClassSpec(TxnClass.WRITE_UPGRADE_LOCAL,
               ("write-upgrade-shared",), "local",
               "write_owned_local", "write"),
    _ClassSpec(TxnClass.WRITE_UPGRADE_HOME,
               ("write-upgrade-shared",), "home",
               "write_owned_home", "write"),
    _ClassSpec(TxnClass.WRITEBACK,
               ("evict-dirty",), "any", None, "writeback"),
)

#: Actions that are pure state bookkeeping — cache-array and directory
#: entry updates folded into the Table 1 base, never a separate charge.
_FREE_ACTIONS = frozenset({
    Action.FILL_FROM_CACHE, Action.ADD_SHARER, Action.SET_OWNER,
    Action.DROP_SHARER, Action.DOWNGRADE_OWNER, Action.INVALIDATE_OWNER,
})

#: Rules priced at zero by construction: clean evictions only drop the
#: sharer bit at the home, a replacement hint with no charged traffic.
_ZERO_COST_RULES = ("evict-clean-other-sharers", "evict-clean-last")


def _resolve(where: str, topology: str) -> str:
    """Collapse node roles per topology: a ``local`` transaction's home
    is the requester; a ``dirty-home`` transaction's owner (and the
    stop it goes through) is the home (the ``home == requester, remote
    owner`` variant charges the same step multiset, so one resolution
    prices both)."""
    if topology == "local" and where == "home":
        return "req"
    if topology == "dirty-home" and where in ("owner", "via"):
        return "home"
    return where


def _bind(
    plan: Plan, topology: str, action: Optional[Action],
    hidden: bool = False, owner: str = "owner",
) -> List[ChargeStep]:
    """The analyzer's copy of a runtime plan: its steps in order, legs
    concatenated, roles resolved per ``topology``.  ``owner`` renames
    the owner slot (an invalidation's sharer)."""
    def role(name: str) -> str:
        return _resolve(owner if name == "owner" else name, topology)

    steps = []
    for leg in plan:
        for kind, where, data in leg:
            if kind is ChargeKind.LINK:
                src, dst = where.split("->")
                where = f"{role(src)}->{role(dst)}"
            else:
                where = role(where)
            steps.append(ChargeStep(kind, where, data, action, hidden))
    return steps


#: Owner-fetch plan per topology (``FETCH_OWNER_REMOTE`` otherwise).
_FETCH_PLANS = {
    "local": plans.FETCH_OWNER_LOCAL,
    "dirty-home": plans.FETCH_OWNER_VIA,
}


def _build_steps(
    table: TransitionTable, spec: _ClassSpec, mutation: Optional[str]
) -> Tuple[ChargeStep, ...]:
    """The charge path of one class: the runtime plans its rules'
    actions select for its topology."""
    topo = spec.topology
    if not spec.rules:  # primary hit: no memory-system traffic
        return ()
    # One class may price several rules (e.g. a write miss to an unowned
    # vs a shared line): the envelope must cover the worst of them, so
    # the charge path is built from the union of their action sets.
    acts = frozenset().union(
        *(table.rule_named(name).action_set for name in spec.rules)
    )
    rule = table.rule_named(spec.rules[0])
    is_read = rule.event in (ProtoEvent.READ_HIT, ProtoEvent.READ_MISS)

    if Action.FILL_FROM_CACHE in acts:
        return ()  # secondary hits complete inside the node

    if Action.WRITEBACK_MEMORY in acts:
        # Dirty eviction: fire-and-forget on the background chain, all
        # bandwidth, zero demand latency.
        return tuple(_bind(plans.WRITEBACK, topo, Action.WRITEBACK_MEMORY,
                           hidden=True))

    if Action.FETCH_FROM_OWNER in acts:
        # Dirty line: the request reaches the home directory, is
        # forwarded to the owner, and the owner supplies the data.
        plan = _FETCH_PLANS.get(topo, plans.FETCH_OWNER_REMOTE)
        if mutation == "uncharged-hop" and topo == "dirty-remote":
            plan = tuple(
                tuple(step for step in leg if step[1] != "home->owner")
                for leg in plan
            )
        steps = _bind(plan, topo, Action.FETCH_FROM_OWNER)
        if is_read and Action.SHARING_WRITEBACK in acts:
            # Home memory refresh: bandwidth charged, latency hidden
            # behind the forwarded reply.
            refresh = (plans.SHARING_WRITEBACK_AT_HOME
                       if topo == "dirty-home" else plans.SHARING_WRITEBACK)
            steps += _bind(refresh, topo, Action.SHARING_WRITEBACK,
                           hidden=True)
    else:
        # READ_MEMORY: a fill, or a write-ownership acquisition (miss or
        # upgrade), from home memory.
        if topo == "local":
            plan = plans.FILL_LOCAL if is_read else plans.OWN_LOCAL
        else:
            plan = plans.FILL_HOME if is_read else plans.OWN_HOME
        if mutation == "double-charged-directory-occupancy" and (
            spec.cls is TxnClass.WRITE_MISS_HOME
        ):
            (leg,) = plan
            again = next(s for s in leg if s[0] is ChargeKind.DIRECTORY)
            plan = (leg + (again,),)
        steps = _bind(plan, topo, Action.READ_MEMORY)
    if Action.INVALIDATE_SHARERS in acts:
        # Point-to-point invalidation fan-out: the requester retires
        # at ownership; the acknowledgement paths are charged but
        # never waited on (ack_cycles bounds the trailing window).
        # Applies to the fetch path too — MOESI's SHARED_DIRTY write
        # misses invalidate the extra sharers alongside the owner.
        steps += _bind(plans.INVALIDATION, topo, Action.INVALIDATE_SHARERS,
                       hidden=True, owner="sharer")
    return tuple(steps)


def _max_station_charges(kind: ChargeKind, config: MachineConfig) -> int:
    """How many times one *competing* transaction can charge a single
    station of ``kind``: a remote fill crosses its requester's bus
    twice; invalidation fan-out (and the sharing write-back) can put up
    to ``sharers + 2`` messages through one node's link; directory and
    memory units are passed at most once on a fault-free path."""
    if kind is ChargeKind.BUS:
        return 2
    if kind is ChargeKind.LINK:
        return config.num_processors + 2
    return 1


def _inflight_bound(config: MachineConfig, background: bool) -> int:
    """Architectural bound on simultaneously in-flight transactions
    competing on one resource chain.  Demand chain: one blocking
    reference plus a full prefetch buffer per processor.  Background
    chain: the write buffer, plus one attributed eviction per buffered
    or demand reference."""
    per_node = 1 + config.prefetch_buffer_depth
    if background:
        per_node = config.write_buffer_depth + per_node
    return config.num_processors * per_node


def _step_ceiling(
    step: ChargeStep, config: MachineConfig, background: bool
) -> int:
    """Worst-case queuing delay of one demand charge step."""
    if not config.contention.enabled:
        return 0
    competitors = _inflight_bound(config, background) - 1
    return (
        competitors
        * _max_station_charges(step.kind, config)
        * max_occupancy(config.contention, step.kind)
        * stations_per_charge(step.kind)
    )


def _write_chain_background(model: Consistency) -> bool:
    """PC/WC/RC retire writes from the write buffer on the background
    chain; SC stalls the processor and competes on the demand chain."""
    return model is not Consistency.SC


#: Non-table paths: the runtime plan each class prices and the topology
#: its roles resolve under.  Bases are computed from the LatencyTable in
#: ``_base_for``.
_SYNC_UNCACHED_PLANS = {
    TxnClass.UNCACHED_READ_LOCAL: (plans.UNCACHED_LOCAL, "local"),
    TxnClass.UNCACHED_READ_REMOTE: (plans.UNCACHED_READ_REMOTE, "home"),
    TxnClass.UNCACHED_WRITE_LOCAL: (plans.UNCACHED_LOCAL, "local"),
    TxnClass.UNCACHED_WRITE_REMOTE: (plans.UNCACHED_WRITE_REMOTE, "home"),
    TxnClass.SYNC_RMW_LOCAL: (plans.SYNC_RMW_LOCAL, "local"),
    TxnClass.SYNC_RMW_HOME: (plans.SYNC_RMW_HOME, "home"),
    TxnClass.SYNC_RELEASE_LOCAL: (plans.SYNC_RELEASE_LOCAL, "local"),
    TxnClass.SYNC_RELEASE_HOME: (plans.SYNC_RELEASE_HOME, "home"),
}


def _base_for(cls: TxnClass, config: MachineConfig) -> int:
    lat = config.latency
    return {
        TxnClass.UNCACHED_READ_LOCAL:
            lat.read_fill_local - lat.uncached_discount,
        TxnClass.UNCACHED_READ_REMOTE:
            lat.read_fill_home - lat.uncached_discount,
        TxnClass.UNCACHED_WRITE_LOCAL:
            lat.write_owned_local - lat.uncached_discount,
        TxnClass.UNCACHED_WRITE_REMOTE:
            lat.write_owned_home - lat.uncached_discount,
        TxnClass.SYNC_RMW_LOCAL: lat.read_fill_local,
        TxnClass.SYNC_RMW_HOME: lat.read_fill_home,
        TxnClass.SYNC_RELEASE_LOCAL: lat.write_owned_local,
        TxnClass.SYNC_RELEASE_HOME: lat.write_owned_home,
    }[cls]


class EnvelopeTable:
    """The derived envelopes for one config, keyed ``(model, class)``."""

    __slots__ = (
        "config", "mutation", "envelopes", "steps", "proto", "rule_specs",
        "zero_cost",
    )

    def __init__(
        self,
        config: MachineConfig,
        mutation: Optional[str],
        envelopes: Dict[Tuple[Consistency, TxnClass], LatencyEnvelope],
        steps: Dict[TxnClass, Tuple[ChargeStep, ...]],
        proto=None,
        rule_specs: Tuple[_ClassSpec, ...] = _RULE_SPECS,
        zero_cost: Tuple[str, ...] = _ZERO_COST_RULES,
    ) -> None:
        self.config = config
        self.mutation = mutation
        self.envelopes = envelopes
        self.steps = steps
        self.proto = proto if proto is not None else _default_proto_spec()
        self.rule_specs = rule_specs
        self.zero_cost = zero_cost

    def get(self, model: Consistency, cls: TxnClass) -> LatencyEnvelope:
        return self.envelopes[(model, cls)]

    def fingerprint(self) -> str:
        """Stable sha256 of the canonical envelope rendering: any bound,
        ack allowance, or term change — i.e. any change to the priced
        protocol paths or the latency/occupancy config — changes it."""
        digest = hashlib.sha256()
        for model in Consistency:
            for cls in TxnClass:
                digest.update(model.value.encode())
                digest.update(b" ")
                digest.update(self.get(model, cls).describe().encode())
                digest.update(b"\n")
        return digest.hexdigest()

    def format_table(self, model: Consistency) -> str:
        contention = "on" if self.config.contention.enabled else "off"
        lines = [
            f"latency envelopes (model={model.value}, "
            f"P={self.config.num_processors}, contention={contention}):",
            f"  {'class':<24} {'min':>6} {'max':>6} {'ack<=':>6}",
        ]
        for cls in TxnClass:
            env = self.get(model, cls)
            lines.append(
                f"  {cls.value:<24} {env.min_cycles:>6} "
                f"{env.max_cycles:>6} {env.ack_cycles:>6}"
            )
        return "\n".join(lines)


def derive_envelopes(
    config: Optional[MachineConfig] = None,
    mutation: Optional[str] = None,
    table: Optional[TransitionTable] = None,
    spec=None,
) -> EnvelopeTable:
    """Symbolically derive the envelope table for ``config``.

    ``spec`` picks the protocol (default: the registry's
    ``directory-msi``); the transaction classes and charge paths are
    derived from its table and latency annotations.  ``table``
    overrides the spec's transition table (mutation tests only).
    """
    if config is None:
        config = dash_scaled_config()
    if spec is None:
        spec = _default_proto_spec()
    if table is None:
        table = spec.table
    if mutation is not None and mutation not in LAT_MUTATIONS:
        raise ValueError(
            f"unknown latbound mutation {mutation!r} "
            f"(choose from {', '.join(LAT_MUTATIONS)})"
        )
    rule_specs, zero_cost = _derive_class_specs(spec)
    lat = config.latency
    steps_by_class: Dict[TxnClass, Tuple[ChargeStep, ...]] = {}
    envelopes: Dict[Tuple[Consistency, TxnClass], LatencyEnvelope] = {}

    for cs in rule_specs:
        steps_by_class[cs.cls] = _build_steps(table, cs, mutation)
    for cls, (plan, topo) in _SYNC_UNCACHED_PLANS.items():
        steps_by_class[cls] = tuple(_bind(plan, topo, None))
    steps_by_class[TxnClass.PREFETCH_SHARED] = ()
    steps_by_class[TxnClass.PREFETCH_EXCLUSIVE] = ()
    for cls in TxnClass:  # classes the spec never reaches stay empty
        steps_by_class.setdefault(cls, ())

    for model in Consistency:
        for cs in rule_specs:
            base = getattr(lat, cs.base_field) if cs.base_field else 0
            steps = steps_by_class[cs.cls]
            background = (
                cs.flavor == "writeback"
                or (cs.flavor == "write"
                    and _write_chain_background(model))
            )
            terms: List[Tuple[str, int]] = [
                (f"base:{cs.base_field or 'hidden'}", base)
            ]
            ceiling = 0
            for step in steps:
                if step.hidden:
                    continue
                wait = _step_ceiling(step, config, background)
                ceiling += wait
                terms.append((f"queue:{step.describe()}", wait))
            ack = 0
            if any(step.action is Action.INVALIDATE_SHARERS
                   for step in steps):
                ack = lat.invalidation_ack_remote
            envelopes[(model, cs.cls)] = LatencyEnvelope(
                cs.cls, model, base, base + ceiling, ack, tuple(terms)
            )
        for cls in _SYNC_UNCACHED_PLANS:
            base = _base_for(cls, config)
            background = cls in (
                TxnClass.UNCACHED_WRITE_LOCAL, TxnClass.UNCACHED_WRITE_REMOTE,
            ) and _write_chain_background(model)
            terms = [("base:derived", base)]
            ceiling = 0
            for step in steps_by_class[cls]:
                wait = _step_ceiling(step, config, background)
                ceiling += wait
                terms.append((f"queue:{step.describe()}", wait))
            envelopes[(model, cls)] = LatencyEnvelope(
                cls, model, base, base + ceiling, 0, tuple(terms)
            )
        # Prefetches delegate to the demand fill / ownership paths, so
        # their envelopes are the spans of the classes they can become.
        for pf_cls, members in (
            (TxnClass.PREFETCH_SHARED,
             (TxnClass.READ_MISS_LOCAL, TxnClass.READ_MISS_HOME,
              TxnClass.READ_MISS_DIRTY_HOME,
              TxnClass.READ_MISS_DIRTY_REMOTE)),
            (TxnClass.PREFETCH_EXCLUSIVE,
             (TxnClass.WRITE_MISS_LOCAL, TxnClass.WRITE_MISS_HOME,
              TxnClass.WRITE_MISS_DIRTY_HOME,
              TxnClass.WRITE_MISS_DIRTY_REMOTE,
              TxnClass.WRITE_UPGRADE_LOCAL, TxnClass.WRITE_UPGRADE_HOME)),
        ):
            spans = [envelopes[(model, m)] for m in members]
            envelopes[(model, pf_cls)] = LatencyEnvelope(
                pf_cls, model,
                min(e.min_cycles for e in spans),
                max(e.max_cycles for e in spans),
                max(e.ack_cycles for e in spans),
                tuple((f"span:{e.txn_class.value}", e.max_cycles)
                      for e in spans),
            )

    if mutation == "envelope-too-tight":
        # Seeded defect: claim home read misses always queue at least
        # one cycle, raising the envelope floor above the Table 1 base.
        # Both home-topology read classes are tightened (the audit
        # accepts the union interval of the candidates a trace event
        # cannot distinguish, so a defect must tighten the whole
        # union to be observable).  Plausible-looking, statically
        # self-consistent, and refuted by the first quiet home fill
        # the audit replays.
        for model in Consistency:
            for cls in (TxnClass.READ_MISS_HOME,
                        TxnClass.READ_MISS_DIRTY_HOME):
                key = (model, cls)
                env = envelopes[key]
                envelopes[key] = LatencyEnvelope(
                    env.txn_class, model, env.min_cycles + 1,
                    env.max_cycles, env.ack_cycles,
                    (("base:read_fill_home+1", env.min_cycles + 1),)
                    + env.term_breakdown[1:],
                )

    return EnvelopeTable(config, mutation, envelopes, steps_by_class,
                         proto=spec, rule_specs=rule_specs,
                         zero_cost=zero_cost)


# -- static conformance -------------------------------------------------------


@dataclass(frozen=True)
class LatFinding:
    """One accounting-conformance violation, with its witness."""

    check: str
    message: str
    witness: str = ""

    def format(self) -> str:
        text = f"[{self.check}] {self.message}"
        if self.witness:
            text += f"\n  witness: {self.witness}"
        return text


class LatBoundResult:
    """Outcome of the static pass: envelopes plus conformance findings."""

    __slots__ = ("table", "findings", "mutation")

    def __init__(
        self,
        table: EnvelopeTable,
        findings: List[LatFinding],
        mutation: Optional[str],
    ) -> None:
        self.table = table
        self.findings = findings
        self.mutation = mutation

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def fingerprint(self) -> str:
        return self.table.fingerprint()

    def summary(self) -> str:
        classes = len(TxnClass)
        models = len(Consistency)
        mut = f" (mutation={self.mutation})" if self.mutation else ""
        verdict = "ok" if self.ok else f"{len(self.findings)} finding(s)"
        return (
            f"{classes} transaction classes x {models} consistency models "
            f"derived from {len(self.table.proto.table.rules)} table "
            f"rule(s){mut}: {verdict}"
        )


def _path_of(steps: Tuple[ChargeStep, ...]) -> str:
    return " -> ".join(s.describe() for s in steps) or "(no charges)"


def _check_annotations(env_table: EnvelopeTable,
                       findings: List[LatFinding]) -> None:
    proto = env_table.proto
    annotations = proto.latency_annotations
    table = proto.table
    rule_names = {rule.name for rule in table.rules}
    from repro.config import LatencyTable

    lat_fields = {f.name for f in dataclasses.fields(LatencyTable)}
    for name in sorted(rule_names):
        if name not in annotations:
            findings.append(LatFinding(
                "annotation-coverage",
                f"table rule {name!r} has no latency annotation",
                table.rule_named(name).describe(),
            ))
    for name in sorted(annotations):
        if name not in rule_names:
            findings.append(LatFinding(
                "annotation-coverage",
                f"latency annotation names unknown rule {name!r}",
            ))
            continue
        for topo in sorted(annotations[name]):
            field_name = annotations[name][topo]
            if field_name is not None and field_name not in lat_fields:
                findings.append(LatFinding(
                    "annotation-coverage",
                    f"rule {name!r} topology {topo!r} prices unknown "
                    f"LatencyTable field {field_name!r}",
                ))
    priced = set(env_table.zero_cost)
    for name in env_table.zero_cost:
        if name in rule_names:
            rule = table.rule_named(name)
            costly = sorted(
                a.value for a in rule.action_set if a not in _FREE_ACTIONS
            )
            if costly:
                findings.append(LatFinding(
                    "annotation-coverage",
                    f"zero-cost rule {name!r} performs charged "
                    f"action(s): {', '.join(costly)}",
                    rule.describe(),
                ))
    for cs in env_table.rule_specs:
        priced.update(cs.rules)
        for rule_name in cs.rules:
            annotated = annotations.get(rule_name, {})
            expected = annotated.get(cs.topology, annotated.get("any"))
            declared = cs.base_field if cs.flavor != "writeback" else None
            if expected != declared:
                findings.append(LatFinding(
                    "annotation-coverage",
                    f"class {cs.cls.value} prices rule {rule_name!r} "
                    f"with {declared!r} but the annotation declares "
                    f"{expected!r} for topology {cs.topology!r}",
                ))
    for name in sorted(rule_names - priced):
        findings.append(LatFinding(
            "annotation-coverage",
            f"table rule {name!r} is priced by no transaction class",
            table.rule_named(name).describe(),
        ))


def _check_buckets(env_table: EnvelopeTable,
                   findings: List[LatFinding]) -> None:
    table = env_table.proto.table
    for event in ProtoEvent:
        if event.value not in BUCKET_FOR_PROTO_EVENT:
            findings.append(LatFinding(
                "bucket-accounting",
                f"ProtoEvent {event.value!r} maps to no TimeBreakdown "
                f"bucket",
            ))
    expected_flavor = {"read": Bucket.READ_STALL, "write": Bucket.WRITE_STALL,
                       "writeback": None}
    for cs in env_table.rule_specs:
        want = expected_flavor[cs.flavor]
        for rule_name in cs.rules:
            rule = table.rule_named(rule_name)
            got = BUCKET_FOR_PROTO_EVENT.get(rule.event.value)
            if got is not want:
                findings.append(LatFinding(
                    "bucket-accounting",
                    f"rule {rule_name!r} ({rule.event.value}) charges "
                    f"bucket {getattr(got, 'value', None)} but class "
                    f"{cs.cls.value} stalls in "
                    f"{getattr(want, 'value', None)}",
                    rule.describe(),
                ))


def _check_obligations(
    table: EnvelopeTable, findings: List[LatFinding]
) -> None:
    proto = table.proto.table
    for cs in table.rule_specs:
        if not cs.rules:
            continue
        steps = table.steps[cs.cls]
        priced_actions = {s.action for s in steps if s.action is not None}
        union_actions = frozenset().union(
            *(proto.rule_named(name).action_set for name in cs.rules)
        )
        for action in sorted(union_actions, key=lambda a: a.value):
            if action in _FREE_ACTIONS:
                if action in priced_actions:
                    findings.append(LatFinding(
                        "action-obligations",
                        f"class {cs.cls.value} charges bookkeeping "
                        f"action {action.value} (folded into the base "
                        f"by the analytic model)",
                        _path_of(steps),
                    ))
            elif action not in priced_actions:
                findings.append(LatFinding(
                    "action-obligations",
                    f"class {cs.cls.value} never charges action "
                    f"{action.value} of rule(s) {', '.join(cs.rules)}",
                    _path_of(steps),
                ))
        if Action.READ_MEMORY in union_actions:
            memory_steps = [
                s for s in steps
                if s.kind is ChargeKind.MEMORY and not s.hidden
            ]
            if len(memory_steps) != 1:
                findings.append(LatFinding(
                    "action-obligations",
                    f"class {cs.cls.value} charges home memory "
                    f"{len(memory_steps)} times (read_memory implies "
                    f"exactly one access)",
                    _path_of(steps),
                ))


def _check_continuity(
    table: EnvelopeTable, findings: List[LatFinding]
) -> None:
    """Every demand path must trace a connected message route: a point
    charge at a node the message has not reached means an uncharged
    network traversal."""
    classes = [cs.cls for cs in table.rule_specs]
    # Sync/uncached paths use the same walk.
    classes += sorted(_SYNC_UNCACHED_PLANS, key=lambda c: c.value)
    for cls in classes:
        steps = tuple(s for s in table.steps[cls] if not s.hidden)
        location = "req"
        for step in steps:
            if step.kind is ChargeKind.LINK:
                src, dst = step.where.split("->")
                if src != location:
                    findings.append(LatFinding(
                        "hop-continuity",
                        f"class {cls.value}: traversal {step.where} "
                        f"departs from {src} but the message is at "
                        f"{location}",
                        _path_of(steps),
                    ))
                location = dst
            elif step.where != location:
                findings.append(LatFinding(
                    "hop-continuity",
                    f"class {cls.value}: {step.describe()} is "
                    f"charged at {step.where} but the message is at "
                    f"{location} — an uncharged hop",
                    _path_of(steps),
                ))


def _check_directory_pass(
    table: EnvelopeTable, findings: List[LatFinding]
) -> None:
    for cs in table.rule_specs:
        steps = table.steps[cs.cls]
        passes = sum(
            1 for s in steps
            if s.kind is ChargeKind.DIRECTORY and not s.hidden
        )
        if passes > 1:
            findings.append(LatFinding(
                "directory-single-pass",
                f"class {cs.cls.value} charges the home directory "
                f"{passes} times; the controller serializes one pass "
                f"per transaction",
                _path_of(steps),
            ))


def _check_ladder(config: MachineConfig, findings: List[LatFinding]) -> None:
    lat = config.latency
    for label, ladder in (("read", lat.read_ladder()),
                          ("write", lat.write_ladder())):
        values = [value for _name, value in ladder]
        if values != sorted(values):
            findings.append(LatFinding(
                "ladder-additivity",
                f"{label} ladder is not nondecreasing with distance",
                " <= ".join(f"{n}={v}" for n, v in ladder),
            ))
    # Table 1's additive distance model: going one level further out
    # costs the same whether the access is a read or a write (home-local
    # is the network round trip + directory, remote-home is the third
    # party forward).
    read_hop1 = lat.read_fill_home - lat.read_fill_local
    write_hop1 = lat.write_owned_home - lat.write_owned_local
    read_hop2 = lat.read_fill_remote - lat.read_fill_home
    write_hop2 = lat.write_owned_remote - lat.write_owned_home
    if read_hop1 != write_hop1 or read_hop2 != write_hop2:
        findings.append(LatFinding(
            "ladder-additivity",
            "distance increments differ between reads and writes "
            "(the additive hop model no longer composes)",
            f"home-local: read {read_hop1} vs write {write_hop1}; "
            f"remote-home: read {read_hop2} vs write {write_hop2}",
        ))


def _check_sanity(table: EnvelopeTable, findings: List[LatFinding]) -> None:
    for model in Consistency:
        for cls in TxnClass:
            env = table.get(model, cls)
            if env.min_cycles > env.max_cycles:
                findings.append(LatFinding(
                    "envelope-sanity",
                    f"{model.value}/{cls.value}: min {env.min_cycles} > "
                    f"max {env.max_cycles}",
                ))
            if env.min_cycles < 0 or env.ack_cycles < 0:
                findings.append(LatFinding(
                    "envelope-sanity",
                    f"{model.value}/{cls.value}: negative bound",
                ))
            if cls is not TxnClass.WRITEBACK and env.min_cycles == 0:
                findings.append(LatFinding(
                    "envelope-sanity",
                    f"{model.value}/{cls.value}: zero-cycle demand "
                    f"transaction",
                ))
            span_cls = cls in (TxnClass.PREFETCH_SHARED,
                               TxnClass.PREFETCH_EXCLUSIVE)
            if (not table.config.contention.enabled
                    and not span_cls
                    and env.min_cycles != env.max_cycles):
                findings.append(LatFinding(
                    "envelope-sanity",
                    f"{model.value}/{cls.value}: contention disabled but "
                    f"envelope is not a point "
                    f"[{env.min_cycles}, {env.max_cycles}]",
                ))


def _check_technique_composition(
    table: EnvelopeTable, findings: List[LatFinding]
) -> None:
    lat = table.config.latency
    for model in Consistency:
        # Uncached = cached − fill overhead, exactly.
        for cls, cached_field in (
            (TxnClass.UNCACHED_READ_LOCAL, "read_fill_local"),
            (TxnClass.UNCACHED_READ_REMOTE, "read_fill_home"),
            (TxnClass.UNCACHED_WRITE_LOCAL, "write_owned_local"),
            (TxnClass.UNCACHED_WRITE_REMOTE, "write_owned_home"),
        ):
            want = getattr(lat, cached_field) - lat.uncached_discount
            got = table.get(model, cls).min_cycles
            if got != want:
                findings.append(LatFinding(
                    "technique-composition",
                    f"{model.value}/{cls.value}: uncached base {got} != "
                    f"{cached_field} - uncached_discount = {want}",
                ))
        # Sync probes ride the read/write ladder.
        for cls, field_name in (
            (TxnClass.SYNC_RMW_LOCAL, "read_fill_local"),
            (TxnClass.SYNC_RMW_HOME, "read_fill_home"),
            (TxnClass.SYNC_RELEASE_LOCAL, "write_owned_local"),
            (TxnClass.SYNC_RELEASE_HOME, "write_owned_home"),
        ):
            want = getattr(lat, field_name)
            got = table.get(model, cls).min_cycles
            if got != want:
                findings.append(LatFinding(
                    "technique-composition",
                    f"{model.value}/{cls.value}: sync base {got} != "
                    f"{field_name} = {want}",
                ))
        # Prefetch = the demand transaction it delegates to.
        for pf_cls, members in (
            (TxnClass.PREFETCH_SHARED,
             (TxnClass.READ_MISS_LOCAL, TxnClass.READ_MISS_DIRTY_REMOTE)),
            (TxnClass.PREFETCH_EXCLUSIVE,
             (TxnClass.WRITE_MISS_LOCAL, TxnClass.WRITE_MISS_DIRTY_REMOTE)),
        ):
            env = table.get(model, pf_cls)
            lo = min(table.get(model, m).min_cycles for m in members)
            if env.min_cycles != lo:
                findings.append(LatFinding(
                    "technique-composition",
                    f"{model.value}/{pf_cls.value}: prefetch floor "
                    f"{env.min_cycles} != cheapest demand fill {lo} "
                    f"(prefetch adds no transaction latency)",
                ))
        # Writes never complete later than retire + the remote ack.
        for cls in TxnClass:
            env = table.get(model, cls)
            if env.ack_cycles > lat.invalidation_ack_remote:
                findings.append(LatFinding(
                    "technique-composition",
                    f"{model.value}/{cls.value}: ack allowance "
                    f"{env.ack_cycles} exceeds invalidation_ack_remote",
                ))
    # Relaxing the model can only move writes to the (more contended)
    # background chain: SC write ceilings never exceed RC's.
    for cls in TxnClass:
        sc = table.get(Consistency.SC, cls)
        rc = table.get(Consistency.RC, cls)
        if sc.min_cycles != rc.min_cycles or sc.max_cycles > rc.max_cycles:
            findings.append(LatFinding(
                "technique-composition",
                f"{cls.value}: SC envelope [{sc.min_cycles}, "
                f"{sc.max_cycles}] is not dominated by RC "
                f"[{rc.min_cycles}, {rc.max_cycles}]",
            ))


#: Config perturbations for the monotonicity sweep, with the direction
#: every envelope bound must move: "up" (no bound decreases), "down"
#: (no bound increases), "max-up" (max bounds nondecreasing, min bounds
#: unchanged — contention-side parameters never touch the base).
_MONOTONE_PARAMS = (
    ("latency.read_primary_hit", "up"),
    ("latency.read_fill_secondary", "up"),
    ("latency.read_fill_local", "up"),
    ("latency.read_fill_home", "up"),
    ("latency.read_fill_remote", "up"),
    ("latency.write_owned_secondary", "up"),
    ("latency.write_owned_local", "up"),
    ("latency.write_owned_home", "up"),
    ("latency.write_owned_remote", "up"),
    ("latency.invalidation_ack_remote", "up"),
    ("latency.uncached_discount", "down"),
    ("contention.bus_occupancy_data", "max-up"),
    ("contention.bus_occupancy_header", "max-up"),
    ("contention.link_occupancy_data", "max-up"),
    ("contention.link_occupancy_header", "max-up"),
    ("contention.directory_occupancy", "max-up"),
    ("contention.memory_occupancy", "max-up"),
    ("num_processors", "max-up"),
    ("write_buffer_depth", "max-up"),
    ("prefetch_buffer_depth", "max-up"),
)


def _bumped(config: MachineConfig, param: str) -> MachineConfig:
    if param.startswith("latency."):
        field_name = param.split(".", 1)[1]
        new = dataclasses.replace(
            config.latency,
            **{field_name: getattr(config.latency, field_name) + 1},
        )
        return config.replace(latency=new)
    if param.startswith("contention."):
        field_name = param.split(".", 1)[1]
        new = dataclasses.replace(
            config.contention,
            **{field_name: getattr(config.contention, field_name) + 1},
        )
        return config.replace(contention=new)
    return config.replace(**{param: getattr(config, param) + 1})


def _check_monotonicity(
    config: MachineConfig, mutation: Optional[str],
    base_table: EnvelopeTable, findings: List[LatFinding],
) -> None:
    for param, direction in _MONOTONE_PARAMS:
        bumped = derive_envelopes(_bumped(config, param), mutation=mutation,
                                  spec=base_table.proto)
        for model in Consistency:
            for cls in TxnClass:
                old = base_table.get(model, cls)
                new = bumped.get(model, cls)
                if direction == "up":
                    bad = (new.min_cycles < old.min_cycles
                           or new.max_cycles < old.max_cycles)
                elif direction == "down":
                    bad = (new.min_cycles > old.min_cycles
                           or new.max_cycles > old.max_cycles)
                else:  # max-up
                    bad = (new.min_cycles != old.min_cycles
                           or new.max_cycles < old.max_cycles)
                if bad:
                    findings.append(LatFinding(
                        "param-monotonicity",
                        f"bumping {param} moves {model.value}/{cls.value} "
                        f"the wrong way ({direction})",
                        f"[{old.min_cycles}, {old.max_cycles}] -> "
                        f"[{new.min_cycles}, {new.max_cycles}]",
                    ))
                    return  # one witness per sweep keeps output bounded


def check_accounting(
    config: Optional[MachineConfig] = None,
    mutation: Optional[str] = None,
    spec=None,
) -> LatBoundResult:
    """Derive the envelopes and run every static conformance pass.

    ``spec`` selects the protocol (default: ``directory-msi``).
    """
    if config is None:
        config = dash_scaled_config()
    table = derive_envelopes(config, mutation=mutation, spec=spec)
    findings: List[LatFinding] = []
    _check_annotations(table, findings)
    _check_buckets(table, findings)
    _check_obligations(table, findings)
    _check_continuity(table, findings)
    _check_directory_pass(table, findings)
    _check_ladder(config, findings)
    _check_sanity(table, findings)
    _check_technique_composition(table, findings)
    _check_monotonicity(config, mutation, table, findings)
    return LatBoundResult(table, findings, mutation)


# -- trace audit --------------------------------------------------------------


#: Trace ``access_class`` -> candidate transaction classes for reads
#: serviced by the protocol.  A home fill cannot be distinguished from a
#: dirty-home fill in the trace (same Table 1 row), so the audit accepts
#: the union interval of all candidates.
_READ_CANDIDATES = {
    "primary_hit": (TxnClass.READ_HIT_PRIMARY,),
    "secondary_hit": (TxnClass.READ_HIT_SECONDARY,),
    "local": (TxnClass.READ_MISS_LOCAL,),
    "home": (TxnClass.READ_MISS_HOME, TxnClass.READ_MISS_DIRTY_HOME),
    "remote": (TxnClass.READ_MISS_DIRTY_REMOTE,),
    "uncached_local": (TxnClass.UNCACHED_READ_LOCAL,),
    "uncached_remote": (TxnClass.UNCACHED_READ_REMOTE,),
}

#: Same for writes; upgrades and misses share ownership envelopes.
_WRITE_CANDIDATES = {
    "secondary_hit": (TxnClass.WRITE_HIT_SECONDARY,),
    "local": (TxnClass.WRITE_MISS_LOCAL, TxnClass.WRITE_UPGRADE_LOCAL),
    "home": (TxnClass.WRITE_MISS_HOME, TxnClass.WRITE_UPGRADE_HOME,
             TxnClass.WRITE_MISS_DIRTY_HOME),
    "remote": (TxnClass.WRITE_MISS_DIRTY_REMOTE,),
    "uncached_local": (TxnClass.UNCACHED_WRITE_LOCAL,),
    "uncached_remote": (TxnClass.UNCACHED_WRITE_REMOTE,),
}

#: Read sources whose perform time is a protocol transaction's own
#: latency.  ``combine`` inherits an earlier miss's completion and
#: ``sync`` events include blocked waiting — neither is auditable.
_AUDITED_READ_SOURCES = frozenset({"memory", "forward", "uncached"})


@dataclass(frozen=True)
class AuditViolation:
    """One observed transaction outside its envelope."""

    eid: int
    kind: str
    node: int
    addr: int
    access_class: str
    issue: int
    observed: int
    lo: int
    hi: int
    what: str  # "latency" or "ack"
    candidates: Tuple[TxnClass, ...]

    def format(self) -> str:
        names = ", ".join(c.value for c in self.candidates)
        return (
            f"event {self.eid}: {self.kind}@node{self.node} "
            f"addr={self.addr:#x} class={self.access_class} "
            f"issue={self.issue} {self.what}={self.observed} outside "
            f"[{self.lo}, {self.hi}] (candidates: {names})"
        )


class AuditReport:
    """Result of replaying one trace against the envelope table."""

    __slots__ = (
        "app", "model", "checked", "skipped", "violations", "by_class",
    )

    def __init__(self, app: str, model: Consistency) -> None:
        self.app = app
        self.model = model
        self.checked = 0
        self.skipped = 0
        self.violations: List[AuditViolation] = []
        self.by_class: Dict[str, int] = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        classes = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.by_class.items())
        )
        head = (
            f"{self.app}/{self.model.value}: {self.checked} transaction(s) "
            f"audited ({self.skipped} inherited/sync skipped), "
            f"{len(self.violations)} envelope violation(s) [{classes}]"
        )
        if not self.violations:
            return head
        lines = [head]
        lines.append(
            "  earliest witness: " + self.violations[0].format()
        )
        for extra in self.violations[1:3]:
            lines.append("  also: " + extra.format())
        return "\n".join(lines)


def audit_trace(
    trace, table: EnvelopeTable, model: Consistency, app: str = "trace"
) -> AuditReport:
    """Check every auditable transaction in ``trace`` against its
    envelope.  Events are scanned in calendar order, so the first
    violation recorded is the BFS-minimal witness."""
    report = AuditReport(app, model)
    for event in trace.events:
        if event.kind == "R":
            if event.source not in _AUDITED_READ_SOURCES:
                report.skipped += 1
                continue
            candidates = _READ_CANDIDATES.get(event.access_class)
        elif event.kind == "W":
            candidates = _WRITE_CANDIDATES.get(event.access_class)
        else:  # ACQ/REL perform times include blocked waiting
            report.skipped += 1
            continue
        if candidates is None:
            report.skipped += 1
            continue
        envs = [table.get(model, cls) for cls in candidates]
        lo = min(env.min_cycles for env in envs)
        hi = max(env.max_cycles for env in envs)
        latency = event.perform - event.issue
        report.checked += 1
        report.by_class[event.access_class] = (
            report.by_class.get(event.access_class, 0) + 1
        )
        if not lo <= latency <= hi:
            report.violations.append(AuditViolation(
                event.eid, event.kind, event.node, event.addr,
                event.access_class, event.issue, latency, lo, hi,
                "latency", tuple(candidates),
            ))
            continue
        if event.kind == "W":
            ack = event.complete - event.perform
            ack_hi = max(env.ack_cycles for env in envs)
            if not 0 <= ack <= ack_hi:
                report.violations.append(AuditViolation(
                    event.eid, event.kind, event.node, event.addr,
                    event.access_class, event.issue, ack, 0, ack_hi,
                    "ack", tuple(candidates),
                ))
    return report


def audit_app(
    app: str,
    model: Consistency = Consistency.RC,
    mutation: Optional[str] = None,
    spec=None,
) -> AuditReport:
    """Trace one smoke-scale run of ``app`` (fault-free — the ceiling
    does not survive NACK retries) and audit it against the envelopes
    derived for that exact config."""
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.system import Machine

    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        consistency=model,
        trace_memory_events=True,
    )
    machine = Machine(config)
    machine.load(smoke_program(app))
    machine.run()
    table = derive_envelopes(config, mutation=mutation, spec=spec)
    return audit_trace(machine.trace, table, model, app=app)
