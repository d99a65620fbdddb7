"""Static differential protocol equivalence: are two specs
observationally the same memory?

``--proto-matrix`` proves each registered
:class:`~repro.coherence.specs.ProtocolSpec` safe *in isolation*; this
pass proves the relation the registry's docstrings claim between them —
"MESI is MSI plus silent E upgrades", "MOESI is MESI plus dirty
sharing" — by product-composing the two specs' reachable abstract
models and deciding **observational trace equivalence** on load-value /
ownership behavior.

Visible alphabet
================

The abstract model (:mod:`repro.analysis.modelcheck`) already
enumerates every serialization of issues, directory serves, NACKs, and
evictions under a bounded configuration.  The differ takes the labelled
edges of one :func:`~repro.analysis.modelcheck.explore` run per spec and
relabels each as either *visible* or *internal* (tau):

* ``W(c,l,v)`` — a write by cache ``c`` to line ``l`` takes effect
  globally: the directory grants ownership (``serve WRITE``) or a
  silent-upgrade write completes locally (MESI's E -> M).  This is the
  point the write becomes the line's latest value, i.e. the ownership
  transfer a program can observe through subsequent loads.
* ``R(c,l)->v`` — a read by cache ``c`` of line ``l`` completes with
  value ``v`` (``serve READ``; ``v`` is read off the requester's filled
  copy in the successor state).  This is the load-value observation.
* everything else — issues (the request's *effect* is the serve),
  evictions, write-backs, NACK/retry bounces, downgrades — is tau.

Two protocols are declared equivalent when their tau-closed visible
trace languages coincide.  The decision procedure is the classical
product construction: determinize each labelled transition system by
subset construction under tau-closure, then BFS the product of the two
determinizations; a pair where one side enables a visible action the
other cannot match refutes equivalence, and because the exploration is
breadth-first over visible steps (with a lexicographic tie-break on
action labels), the first divergence found is a minimal witness — the
shortest observable program behavior distinguishing the protocols.

Soundness caveats (also in DESIGN.md §15):

* The verdict is **trace equivalence, not bisimilarity**: internal
  branching structure (where a protocol commits to a choice) is not
  compared.  For coherence safety — which loads can return which
  values — trace equivalence is exactly the right relation; liveness
  and divergence (a protocol stuttering forever) are out of scope.
* The proof holds **up to the bounded configuration** (caches, lines,
  abstract values, in-flight messages, retry budget), like every other
  claim the model checker makes.  The default bounds are the ones CI
  enumerates.
* Values are abstract tokens: a stale reply from a departed owner is
  modelled as the distinguished value 0, so a mutation must corrupt a
  line whose latest value is nonzero to be caught — the BFS finds such
  a prefix automatically when one exists.

``mutated_spec`` seeds the demonstration defect
(``mesi-without-e-writeback``): MESI's clean-exclusive eviction drops
the line *silently*, leaving the home convinced the departed cache
still owns it.  The differ refutes ``directory-msi ~ mesi[mutated]``
with a witness ending in a stale load — the reason the E write-back
notification exists.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.modelcheck import ModelConfig, ProtocolModel, explore
from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.specs import ProtocolSpec
from repro.coherence.table import ProtoEvent, Rule, TransitionTable

#: Seeded defects for the ``--diff-mutate`` demonstration (applied to
#: the *right* spec of the pair).
DIFF_MUTATIONS = ("mesi-without-e-writeback",)

#: The registered spec every :data:`DIFF_MUTATIONS` entry is built from.
DIFF_MUTATION_BASE = "mesi"

#: A visible action: ("R"|"W", cache, line, value).
VisAct = Tuple[str, int, int, int]

_SERVE_READ = re.compile(r"dir: serve READ\(c(\d+),l(\d+)\)")
_SERVE_WRITE = re.compile(r"dir: serve WRITE\(c(\d+),l(\d+),v(\d+)\)")
_SILENT_WRITE = re.compile(r"c(\d+): silent write line(\d+) v(\d+)")


def format_act(act: VisAct) -> str:
    kind, cache, line, value = act
    if kind == "R":
        return f"R(c{cache},l{line})->v{value}"
    return f"W(c{cache},l{line},v{value})"


def _classify(label: str, succ) -> Optional[VisAct]:
    """The visible action of one model edge, or ``None`` for tau."""
    m = _SERVE_WRITE.match(label)
    if m:
        return ("W", int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _SILENT_WRITE.match(label)
    if m:
        return ("W", int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _SERVE_READ.match(label)
    if m:
        cache, line = int(m.group(1)), int(m.group(2))
        return ("R", cache, line, succ.caches[cache][line].value)
    return None


class _LTS:
    """One spec's reachable model as a labelled transition system with
    integer states and tau/visible edges."""

    __slots__ = ("initial", "tau", "visible", "states")

    def __init__(self, spec: ProtocolSpec, config: ModelConfig) -> None:
        graph = explore(ProtocolModel(config, spec=spec))
        index = {state: i for i, state in enumerate(graph.parent)}
        self.tau: Dict[int, List[int]] = {}
        self.visible: Dict[int, List[Tuple[VisAct, int]]] = {}
        for src, label, succ in graph.edges:
            act = _classify(label, succ)
            if act is None:
                self.tau.setdefault(index[src], []).append(index[succ])
            else:
                self.visible.setdefault(index[src], []).append(
                    (act, index[succ])
                )
        self.initial = 0
        self.states = len(index)

    def closure(self, states: FrozenSet[int]) -> FrozenSet[int]:
        """Tau-closure of a macro state."""
        seen: Set[int] = set(states)
        stack = list(states)
        while stack:
            for dst in self.tau.get(stack.pop(), ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def enabled(self, macro: FrozenSet[int]) -> Set[VisAct]:
        acts: Set[VisAct] = set()
        for s in macro:
            acts.update(act for act, _dst in self.visible.get(s, ()))
        return acts

    def step(self, macro: FrozenSet[int], act: VisAct) -> FrozenSet[int]:
        targets = {
            dst
            for s in macro
            for a, dst in self.visible.get(s, ())
            if a == act
        }
        return self.closure(frozenset(targets))


@dataclass(frozen=True)
class Divergence:
    """A minimal distinguishing behavior: after the visible ``prefix``
    (possible in both protocols), ``action`` is possible only in
    ``enabled_in``."""

    prefix: Tuple[VisAct, ...]
    action: VisAct
    enabled_in: str
    missing_in: str

    def format(self) -> str:
        lines = [
            f"divergence after {len(self.prefix)} visible step(s):"
        ]
        for i, act in enumerate(self.prefix):
            lines.append(f"  {i + 1}. {format_act(act)}")
        lines.append(
            f"  then {format_act(self.action)}: possible in "
            f"{self.enabled_in}, impossible in {self.missing_in}"
        )
        return "\n".join(lines)


class ProtoDiffResult:
    """Outcome of one differential run."""

    __slots__ = (
        "left", "right", "config", "equivalent", "divergence",
        "left_states", "right_states", "product_states",
    )

    def __init__(
        self,
        left: str,
        right: str,
        config: ModelConfig,
        equivalent: bool,
        divergence: Optional[Divergence],
        left_states: int,
        right_states: int,
        product_states: int,
    ) -> None:
        self.left = left
        self.right = right
        self.config = config
        self.equivalent = equivalent
        self.divergence = divergence
        self.left_states = left_states
        self.right_states = right_states
        self.product_states = product_states

    @property
    def ok(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        cfg = self.config
        verdict = (
            "observationally equivalent"
            if self.equivalent
            else "NOT equivalent"
        )
        return (
            f"proto diff {self.left} ~ {self.right}: {verdict} on "
            f"load-value/ownership traces ({self.left_states} vs "
            f"{self.right_states} model states, {self.product_states} "
            f"product macro-states; bounds: {cfg.num_caches} caches, "
            f"{cfg.num_lines} line(s), {cfg.num_values} value(s))"
        )

    def format(self) -> str:
        text = self.summary()
        if self.divergence is not None:
            text += "\n" + self.divergence.format()
        return text


def diff_config() -> ModelConfig:
    """The bounded configuration the differ explores: the model-check
    defaults minus the NACK/retry edges, which only multiply tau
    interleavings without changing the visible language."""
    return ModelConfig(nacks=False)


def diff_specs(
    left: ProtocolSpec,
    right: ProtocolSpec,
    config: Optional[ModelConfig] = None,
) -> ProtoDiffResult:
    """Decide observational trace equivalence of two specs.

    Builds both reachable models, determinizes them under tau-closure,
    and BFSes the product; the first one-sided visible action found (in
    breadth-first order, ties broken lexicographically) is returned as
    the minimal witness.
    """
    config = config or diff_config()
    lts_l = _LTS(left, config)
    lts_r = _LTS(right, config)
    start = (
        lts_l.closure(frozenset({lts_l.initial})),
        lts_r.closure(frozenset({lts_r.initial})),
    )
    seen = {start}
    queue: deque = deque([(start, ())])
    product_states = 1
    divergence: Optional[Divergence] = None
    while queue and divergence is None:
        (macro_l, macro_r), prefix = queue.popleft()
        en_l = lts_l.enabled(macro_l)
        en_r = lts_r.enabled(macro_r)
        for act in sorted(en_l | en_r):
            if act not in en_r:
                divergence = Divergence(prefix, act, left.name, right.name)
                break
            if act not in en_l:
                divergence = Divergence(prefix, act, right.name, left.name)
                break
            nxt = (lts_l.step(macro_l, act), lts_r.step(macro_r, act))
            if nxt not in seen:
                seen.add(nxt)
                product_states += 1
                queue.append((nxt, prefix + (act,)))
    return ProtoDiffResult(
        left.name, right.name, config,
        divergence is None, divergence,
        lts_l.states, lts_r.states, product_states,
    )


def mutated_spec(mutation: str) -> ProtocolSpec:
    """A deliberately broken MESI variant (test/demo only, mirroring
    ``--mc-mutate`` / ``--proto-mutate`` / ``--lat-mutate``).

    ``mesi-without-e-writeback``: the clean-exclusive eviction drops
    the line silently — no write-back notification, the directory entry
    stays DIRTY for a departed owner.  A later read miss is forwarded
    to the stale owner and fills with garbage, which the differ
    witnesses as a load-value divergence from ``directory-msi``.
    """
    if mutation not in DIFF_MUTATIONS:
        raise ValueError(
            f"unknown protodiff mutation {mutation!r}; expected one of "
            f"{DIFF_MUTATIONS}"
        )
    from repro.coherence.specs import get_spec
    import dataclasses

    base = get_spec(DIFF_MUTATION_BASE)
    broken = Rule(
        "evict-exclusive",
        LineState.EXCLUSIVE, DirState.DIRTY, ProtoEvent.EVICT_EXCLUSIVE,
        None,
        (),  # the write-back notification is dropped
        LineState.INVALID, DirState.DIRTY,  # home still believes E
    )
    rules = tuple(
        broken if rule.name == "evict-exclusive" else rule
        for rule in base.table.rules
    )
    table = TransitionTable(
        rules, base.table.impossible,
        name=f"{base.table.name}[{mutation}]",
        cache_states=base.table.cache_states,
        dir_states=base.table.dir_states,
        events=base.table.events,
    )
    return dataclasses.replace(
        base, name=f"{DIFF_MUTATION_BASE}[{mutation}]", table=table,
        runtime_supported=False,
    )
