"""Unit tests for the interconnect contention model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ContentionConfig
from repro.interconnect import PLANS, ChargeKind, Interconnect, occupancy_of, plans
from repro.interconnect.plans import ROLES


def make_net(enabled=True, **changes):
    return Interconnect(4, ContentionConfig(enabled=enabled, **changes))


def charge(net, plan, node=0, home=0, owner=0, via=0, time=0, background=False):
    return net.charge_path(plan, node, home, owner, via, time, background)


class TestCharging:
    def test_idle_resources_add_no_delay(self):
        for name, plan in PLANS.items():
            delay = charge(make_net(), plan, 0, 1, 2, 3, time=100)
            # A remote fill requests its data reply on the requester's
            # bus while its own request header still holds it (2).
            assert delay == (2 if plan is plans.FILL_HOME else 0), name

    def test_back_to_back_transactions_queue(self):
        net = make_net()
        charge(net, plans.DUPLICATE_LOCAL)  # one data bus charge: 5
        assert charge(net, plans.DUPLICATE_LOCAL) == 5

    def test_header_cheaper_than_data(self):
        net = make_net()
        charge(net, plans.SYNC_RELEASE_LOCAL)  # one header bus charge: 2
        assert charge(net, plans.SYNC_RELEASE_LOCAL) == 2

    def test_hop_charges_both_link_ends(self):
        net = make_net()
        charge(net, plans.SYNC_NOTIFY, node=1, home=0)  # hop 0 -> 1
        # Source link-out now busy; a second hop from 0 queues there.
        assert charge(net, plans.SYNC_NOTIFY, node=2, home=0) > 0
        # 1's link-in busy; traffic into 1 from elsewhere queues too.
        assert charge(net, plans.SYNC_NOTIFY, node=1, home=2) > 0

    def test_disabled_contention_never_delays(self):
        net = make_net(enabled=False)
        for _ in range(10):
            for plan in PLANS.values():
                assert charge(net, plan, 0, 1, 2, 3) == 0


class TestBackgroundChain:
    def test_background_does_not_delay_demand(self):
        net = make_net()
        for _ in range(10):
            charge(net, plans.DUPLICATE_LOCAL, background=True)
        assert charge(net, plans.DUPLICATE_LOCAL) == 0

    def test_background_serializes_against_itself(self):
        net = make_net()
        charge(net, plans.DUPLICATE_LOCAL, background=True)
        assert charge(net, plans.DUPLICATE_LOCAL, background=True) == 5

    def test_background_resources_are_named(self):
        net = make_net()
        assert net.background[0].bus.name.startswith("bg.")


_POINT_STATION = {
    ChargeKind.BUS: "bus",
    ChargeKind.DIRECTORY: "directory_ctl",
    ChargeKind.MEMORY: "memory",
}


def acquire_chain(net, plan, nodes, time, background):
    """``plan`` run as ``QueuedResource.acquire`` calls: inside a leg
    each station is requested at the previous station's service start;
    every leg is requested at ``time`` and the legs' delays are
    summed."""
    if not net.contention.enabled:
        return 0
    chain = net.background if background else net.nodes
    at = dict(zip(ROLES, nodes))
    delay = 0
    for leg in plan:
        request = time
        for kind, where, data in leg:
            occupancy = occupancy_of(net.contention, kind, data)
            if kind is ChargeKind.LINK:
                src, dst = where.split("->")
                stations = [chain[at[src]].link_out, chain[at[dst]].link_in]
            else:
                stations = [getattr(chain[at[where]], _POINT_STATION[kind])]
            for station in stations:
                request = station.acquire(request, occupancy) - occupancy
        delay += request - time
    return delay


def _resources(net):
    for chain in (net.nodes, net.background):
        for links in chain:
            yield from links.stations


def _snapshot(net):
    return [
        (r.name, r._next_free, r._busy_total, r._transactions) for r in _resources(net)
    ]


class TestFusedPaths:
    """``Interconnect.charge_path`` runs each declared plan exactly as
    the chain of ``QueuedResource.acquire`` calls the plan spells out:
    same returned delay, same bookkeeping on every resource of both
    chains, for any role binding, from arbitrary prior resource states,
    with contention on and off."""

    def test_charge_path_is_the_only_charge_method(self):
        assert [
            name for name in vars(Interconnect) if name.startswith("charge_")
        ] == ["charge_path"]

    @pytest.mark.parametrize("name", sorted(PLANS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_plan_equals_acquire_chain(self, name, data):
        plan = PLANS[name]
        occupancy = st.integers(0, 12)
        contention = ContentionConfig(
            bus_occupancy_data=data.draw(occupancy),
            bus_occupancy_header=data.draw(occupancy),
            link_occupancy_data=data.draw(occupancy),
            link_occupancy_header=data.draw(occupancy),
            directory_occupancy=data.draw(occupancy),
            memory_occupancy=data.draw(occupancy),
            enabled=data.draw(st.booleans()),
        )
        run, reference = Interconnect(4, contention), Interconnect(4, contention)
        next_free = data.draw(
            st.lists(st.integers(0, 300), min_size=40, max_size=40), label="next_free"
        )
        for a, b, free in zip(_resources(run), _resources(reference), next_free):
            a._next_free = b._next_free = free
        nodes = [data.draw(st.integers(0, 3), label=role) for role in ROLES]
        time = data.draw(st.integers(0, 300), label="time")
        background = data.draw(st.booleans(), label="background")

        got = run.charge_path(plan, *nodes, time, background)
        assert got == acquire_chain(reference, plan, nodes, time, background)
        assert _snapshot(run) == _snapshot(reference)


class TestReporting:
    def test_utilization_report_covers_all_nodes(self):
        net = make_net()
        charge(net, plans.DUPLICATE_LOCAL, home=2)  # node 2's bus
        report = net.utilization_report(100)
        assert "node2.bus" in report
        assert report["node2.bus"] > 0
        assert report["node0.bus"] == 0
        assert len(report) == 4 * 5


class TestHopEdgeCasesVsEnvelopes:
    """Interconnect edge cases cross-checked against the static latency
    envelopes (repro.analysis.latbound), walking the runtime's own
    plans: zero-hop local access, the max-distance three-party route,
    and contended vs contention-free bounds must all land inside what
    the analyzer derives."""

    def _envelopes(self, enabled=True, processors=4):
        from repro.analysis.latbound import derive_envelopes
        from repro.config import ContentionConfig, dash_scaled_config

        config = dash_scaled_config(
            num_processors=processors,
            contention=ContentionConfig(enabled=enabled),
        )
        return config, derive_envelopes(config)

    def test_zero_hop_local_access_charges_no_link(self):
        # A local fill never touches the network: neither its plan nor
        # its envelope has a link, and an idle bus+memory chain
        # reproduces the base.
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_LOCAL)
        assert not any("link" in name for name, _v in env.term_breakdown)
        assert not any(
            kind is ChargeKind.LINK for leg in plans.FILL_LOCAL for kind, _w, _d in leg
        )
        delay = charge(make_net(), plans.FILL_LOCAL)
        assert env.contains(config.latency.read_fill_local + delay)

    def test_max_distance_route_idle_hits_envelope_floor(self):
        # Three-party dirty-remote read: request bus, two forward hops,
        # owner bus, reply hop — the longest demand route there is.  On
        # an idle machine the queuing delay is zero and the observed
        # latency is exactly the envelope minimum.
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        delay = charge(make_net(), plans.FETCH_OWNER_REMOTE, node=0, home=1, owner=2)
        assert delay == 0
        assert config.latency.read_fill_remote + delay == env.min_cycles

    def test_contended_route_stays_under_envelope_ceiling(self):
        # Pile demand traffic onto every station of the three-party
        # route, then walk it: the accumulated queuing delay must stay
        # under the static per-step ceiling sum (max - min).
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        net = make_net()
        route = dict(node=0, home=1, owner=2)
        for _ in range(3):  # fewer competitors than the in-flight bound
            charge(net, plans.FETCH_OWNER_REMOTE, **route)
            charge(net, plans.SHARING_WRITEBACK, **route)
        delay = charge(net, plans.FETCH_OWNER_REMOTE, **route)
        assert delay > 0
        assert delay <= env.max_cycles - env.min_cycles

    def test_contention_free_bound_is_exact_point(self):
        # With contention disabled every charge returns zero delay and
        # the analyzer collapses each envelope to [base, base].
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes(enabled=False)
        env = table.get(Consistency.SC, TxnClass.READ_MISS_DIRTY_REMOTE)
        assert env.min_cycles == env.max_cycles
        net = make_net(enabled=False)
        delay = charge(net, plans.FETCH_OWNER_REMOTE, node=0, home=1, owner=2)
        assert delay == 0
        assert env.contains(config.latency.read_fill_remote)

    def test_contended_ceiling_wider_than_quiet(self):
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        _cfg, loud = self._envelopes(enabled=True)
        _cfg2, quiet = self._envelopes(enabled=False)
        for cls in (TxnClass.READ_MISS_HOME, TxnClass.WRITE_MISS_HOME):
            wide = loud.get(Consistency.RC, cls)
            point = quiet.get(Consistency.RC, cls)
            assert wide.min_cycles == point.min_cycles
            assert wide.max_cycles > point.max_cycles
