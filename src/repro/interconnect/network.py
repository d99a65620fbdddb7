"""Node bus and interconnection network contention model.

Each node owns three queued resources: its node bus (133 MB/s in DASH,
~4 bytes/pclock), and its network input and output links (~150 MB/s,
~4.5 bytes/pclock).  Coherence transactions charge occupancy on the
resources along their path; the *queuing delay* accumulated (time spent
waiting for each resource to become free) is added to the Table 1 base
latency of the transaction.  Occupancies themselves are considered part
of the base latency, so an unloaded machine reproduces Table 1 exactly.

The network itself is treated as a low-latency scalable fabric whose
transit time is folded into the Table 1 numbers; per-node links are the
bandwidth bottleneck, which is the first-order contention effect (e.g.
the hot-spotting the paper observed when LU prefetched whole columns in
a burst).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.config import ContentionConfig
from repro.interconnect.plans import PLANS, ROLES, ChargeKind, Plan, occupancy_of
from repro.sim.resource import QueuedResource

#: Station indices into ``NodeLinks.stations``.
_STATION = {ChargeKind.BUS: 0, ChargeKind.DIRECTORY: 3, ChargeKind.MEMORY: 4}
_LINK_IN, _LINK_OUT = 1, 2

#: A compiled plan: per leg, ``(role, station, occupancy)`` triples.
Compiled = Tuple[Tuple[Tuple[int, int, int], ...], ...]


def _compile_plan(plan: Plan, contention: ContentionConfig) -> Compiled:
    """Lower ``plan`` to the triples ``Interconnect.charge_path`` runs:
    a role index into its node arguments, a station index into that
    node's ``NodeLinks.stations``, and the occupancy under
    ``contention``.  A traversal ``src->dst`` becomes ``link_out`` at
    ``src`` then ``link_in`` at ``dst``."""
    legs = []
    for leg in plan:
        triples = []
        for kind, where, data in leg:
            occupancy = occupancy_of(contention, kind, data)
            if kind is ChargeKind.LINK:
                src, dst = where.split("->")
                triples.append((ROLES.index(src), _LINK_OUT, occupancy))
                triples.append((ROLES.index(dst), _LINK_IN, occupancy))
            else:
                triples.append((ROLES.index(where), _STATION[kind], occupancy))
        legs.append(tuple(triples))
    return tuple(legs)


@functools.lru_cache(maxsize=64)
def _compiled_plans(contention: ContentionConfig) -> Dict[int, Compiled]:
    """Every declared plan compiled for ``contention``, keyed by the
    plan's ``id`` (the plans are module constants, so ids are stable
    and, unlike the nested tuples, cheap to hash)."""
    return {id(plan): _compile_plan(plan, contention) for plan in PLANS.values()}


class NodeLinks:
    """The contended resources belonging to one node."""

    __slots__ = ("bus", "link_in", "link_out", "directory_ctl", "memory",
                 "stations")

    def __init__(self, node_id: int) -> None:
        self.bus = QueuedResource(f"node{node_id}.bus")
        self.link_in = QueuedResource(f"node{node_id}.link_in")
        self.link_out = QueuedResource(f"node{node_id}.link_out")
        self.directory_ctl = QueuedResource(f"node{node_id}.directory")
        self.memory = QueuedResource(f"node{node_id}.memory")
        #: The five resources in station-index order.
        self.stations = (
            self.bus, self.link_in, self.link_out, self.directory_ctl,
            self.memory,
        )


class Interconnect:
    """Per-node buses and links, charged along declared plans.

    Two parallel resource chains exist per node: the *demand* chain used
    by processor-blocking traffic (reads, SC writes, prefetch fetches),
    and a *background* chain used by write-buffer drains and eviction
    write-backs.  DASH gives demand reads priority over buffered writes
    (reads bypass the write buffer, and the bus arbiter favours them),
    so background traffic serializes against itself without inflating
    demand-read queuing.
    """

    def __init__(self, num_nodes: int, contention: ContentionConfig) -> None:
        self.num_nodes = num_nodes
        self.contention = contention
        self.nodes: List[NodeLinks] = [NodeLinks(i) for i in range(num_nodes)]
        self.background: List[NodeLinks] = [
            NodeLinks(i) for i in range(num_nodes)
        ]
        for links in self.background:
            for resource in links.stations:
                resource.name = "bg." + resource.name
        self._enabled = contention.enabled
        self._plans = _compiled_plans(contention)
        self._demand = [links.stations for links in self.nodes]
        self._background = [links.stations for links in self.background]

    def charge_path(
        self, plan: Plan, node: int, home: int, owner: int, via: int,
        time: int, background: bool = False,
    ) -> int:
        """Charge one transaction along ``plan`` (a plan declared in
        ``repro.interconnect.plans``), with its roles bound to ``node``
        (the requester), ``home``, ``owner`` and ``via``.  Returns the
        *queuing delay* met, not the service completion time.

        Inside a leg each station is requested when the previous one
        starts service; every leg is requested at ``time``, and the
        legs' delays are summed.  Each station's bookkeeping is
        ``QueuedResource.acquire``'s, inline.
        """
        if not self._enabled:
            return 0
        chain = self._background if background else self._demand
        at = (node, home, owner, via)
        delay = 0
        for leg in self._plans[id(plan)]:
            start = time
            for role, station, occupancy in leg:
                res = chain[at[role]][station]
                if res._next_free > start:
                    start = res._next_free
                res._next_free = start + occupancy
                res._busy_total += occupancy
                res._transactions += 1
            delay += start - time
        return delay

    def utilization_report(self, elapsed: int):
        """Per-resource utilization, for diagnostics and ablations."""
        return {
            resource.name: resource.utilization(elapsed)
            for links in self.nodes
            for resource in links.stations
        }
