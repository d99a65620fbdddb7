"""Fault injection at the interconnect/coherence-protocol boundary.

:class:`FaultInjector` instruments a built
:class:`~repro.system.machine.Machine` the same way the coherence
sanitizer does — through :meth:`~repro.system.machine.Machine.interpose`
over the protocol's transaction entry points (``read``, ``write``,
``prefetch``, ``read_uncached``, ``write_uncached``).  A machine whose
fault plan is empty never installs the injector at all, so the
fault-free fast path stays bit-identical to a machine without the fault
layer.

For every access that would actually put a message on the network
(:meth:`~repro.coherence.protocol.CoherenceProtocol.crosses_node_boundary`),
the injector consults the plan's deterministic random stream:

* a **NACK** bounces the request at the home directory: the requester
  pays a header round trip (with real queuing on the bus, links, and
  directory controller), waits out a capped exponential backoff, and
  re-issues;
* a **drop** loses the request in the network: the requester detects it
  by timeout and re-issues (the lost header's bandwidth is still
  charged on the background chain);
* a **delay** holds the response up for a bounded number of pclocks;
* a **duplicate** delivers the response twice, charging bandwidth on
  the path a second time without delaying the original.

Each transaction has a retry *budget* (``plan.backoff.max_retries``);
exhausting it raises :class:`RetryBudgetExceeded`, a
:class:`~repro.sim.engine.SimulationError` the experiment supervisor
classifies as transient.  Because the underlying protocol transaction is
only invoked once — at its final, penalty-shifted issue time — directory
and cache state stay exactly as coherent as in a fault-free run, which
is what lets fault runs pass the PR-1 sanitizer unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.coherence import AccessOutcome, CoherenceProtocol
from repro.faults.plan import FaultPlan
from repro.interconnect.plans import (
    DROP_LOCAL,
    DROP_REMOTE,
    DUPLICATE_LOCAL,
    DUPLICATE_REMOTE,
    NACK_LOCAL,
    NACK_REMOTE,
)
from repro.sim.engine import SimulationError


class RetryBudgetExceeded(SimulationError):
    """A transaction was NACKed/dropped more times than its budget."""


@dataclass
class FaultStats:
    """Aggregate fault-injection counters for one run."""

    eligible_transactions: int = 0
    drops_injected: int = 0
    nacks_injected: int = 0
    delays_injected: int = 0
    duplicates_injected: int = 0

    #: Re-issues performed (one per drop or NACK survived).
    retries: int = 0
    #: Largest number of attempts any single transaction needed.
    max_attempts: int = 0
    #: Pclocks of latency added by timeouts, NACK round trips, and
    #: backoff waits (the retry component of added latency).
    retry_cycles: int = 0
    #: Pclocks of latency added by delayed responses.
    delay_cycles: int = 0
    #: Retries broken down by access kind (read/write/prefetch/...).
    retries_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def faults_injected(self) -> int:
        return (
            self.drops_injected
            + self.nacks_injected
            + self.delays_injected
            + self.duplicates_injected
        )

    @property
    def added_cycles(self) -> int:
        return self.retry_cycles + self.delay_cycles

    def summary(self) -> str:
        return (
            f"{self.faults_injected} faults over "
            f"{self.eligible_transactions} network transactions: "
            f"{self.nacks_injected} NACKs, {self.drops_injected} drops, "
            f"{self.delays_injected} delays, "
            f"{self.duplicates_injected} duplicates; "
            f"{self.retries} retries (worst case {self.max_attempts} "
            f"attempts), +{self.added_cycles} pclocks"
        )


class FaultInjector:
    """Per-machine message fault injection with NACK/retry semantics."""

    def __init__(self, machine, plan: FaultPlan, seed_mix: int = 0) -> None:
        if plan.is_empty:
            raise ValueError("refusing to install an empty fault plan")
        self.machine = machine
        self.protocol = machine.protocol
        self.net = machine.interconnect
        self.plan = plan
        self.stats = FaultStats()
        # One deterministic stream per (plan, machine seed): the call
        # sequence is deterministic, so the injected faults are too.
        self._rng = random.Random(plan.seed * 1_000_003 + seed_mix)

    # -- instrumentation ----------------------------------------------------

    def install(self) -> "FaultInjector":
        """Wrap the protocol's transaction entry points.

        Installed *after* the sanitizer (when both are enabled) so the
        sanitizer checks the real, single protocol transaction and the
        injector only shifts its issue time and response latency.
        """
        for kind in CoherenceProtocol.ENTRY_POINTS:
            self.machine.interpose(self.protocol, kind, partial(self._wrap, kind))
        return self

    def _wrap(self, kind: str, original):
        """Every entry point takes ``(node, addr, ..., time)``;
        prefetch's extra argument is ``exclusive``."""
        protocol = self.protocol

        def wrapper(node, addr, *args, **kwargs):
            *extra, time = args
            if not protocol.crosses_node_boundary(kind, node, addr, *extra):
                return original(node, addr, *args, **kwargs)
            return self._faulted(
                kind, node, addr, time,
                lambda t: original(node, addr, *extra, t, **kwargs),
            )

        return wrapper

    # -- the fault path ------------------------------------------------------

    def _faulted(self, kind, node, addr, time, invoke) -> Optional[AccessOutcome]:
        plan = self.plan
        stats = self.stats
        rng = self._rng
        stats.eligible_transactions += 1
        line = self.protocol.line_of(addr)
        home = self.protocol.home_of(line)

        # Request side: NACKs and drops force re-issues with backoff.
        penalty = 0
        attempts = 1
        while True:
            roll = rng.random()
            if kind not in ("read_uncached", "write_uncached") and roll < plan.nack_rate:
                # Directory transaction buffer full: bounce the request.
                stats.nacks_injected += 1
                self.machine.directories[home].note_nack(line)
                cost = plan.nack_round_trip_cycles
                cost += self.net.charge_path(
                    NACK_REMOTE if home != node else NACK_LOCAL,
                    node, home, 0, 0, time + penalty,
                )
            elif roll < plan.nack_rate + plan.drop_rate:
                # Request lost in the network; detected by timeout.  The
                # dead header still consumed bandwidth on the way out.
                stats.drops_injected += 1
                self.net.charge_path(
                    DROP_REMOTE if home != node else DROP_LOCAL,
                    node, home, 0, 0, time + penalty, True,
                )
                cost = plan.drop_timeout_cycles
            else:
                break
            if attempts > plan.backoff.max_retries:
                raise RetryBudgetExceeded(
                    f"{kind} of addr {addr:#x} by node {node} at t={time} "
                    f"gave up after {attempts} attempts "
                    f"(budget {plan.backoff.max_retries} retries, "
                    f"{penalty + cost} pclocks burned) — the network is "
                    "too hostile for forward progress"
                )
            cost += plan.backoff.delay_for(attempts - 1)
            penalty += cost
            stats.retries += 1
            stats.retry_cycles += cost
            stats.retries_by_kind[kind] = stats.retries_by_kind.get(kind, 0) + 1
            attempts += 1
        stats.max_attempts = max(stats.max_attempts, attempts)

        outcome = invoke(time + penalty)
        if outcome is None:  # prefetch discarded (cannot happen after probe)
            return None

        # Response side: delays shift arrival, duplicates burn bandwidth.
        retire, complete = outcome.retire, outcome.complete
        if rng.random() < plan.delay_rate:
            held = rng.randint(1, plan.delay_max_cycles)
            stats.delays_injected += 1
            stats.delay_cycles += held
            retire += held
            complete += held
        if rng.random() < plan.duplicate_rate:
            stats.duplicates_injected += 1
            self.net.charge_path(
                DUPLICATE_REMOTE if home != node else DUPLICATE_LOCAL,
                node, home, 0, 0, retire, True,
            )
        if (retire, complete) == (outcome.retire, outcome.complete):
            return outcome
        return AccessOutcome(retire, complete, outcome.access_class)
