"""Unit tests for the interconnect contention model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ContentionConfig
from repro.interconnect import Interconnect


def make_net(enabled=True, **changes):
    return Interconnect(4, ContentionConfig(enabled=enabled, **changes))


class TestCharging:
    def test_idle_resources_add_no_delay(self):
        net = make_net()
        assert net.charge_bus(0, 100, data=True) == 0
        assert net.charge_hop(0, 1, 100, data=True) == 0
        assert net.charge_directory(1, 100) == 0
        assert net.charge_memory(1, 100) == 0

    def test_back_to_back_transactions_queue(self):
        net = make_net()
        net.charge_bus(0, 0, data=True)   # occupies 5
        delay = net.charge_bus(0, 0, data=True)
        assert delay == 5

    def test_header_cheaper_than_data(self):
        net = make_net()
        net.charge_bus(0, 0, data=False)  # occupies 2
        assert net.charge_bus(0, 0, data=False) == 2

    def test_hop_charges_both_link_ends(self):
        net = make_net()
        net.charge_hop(0, 1, 0, data=True)
        # Source link-out now busy; a second hop from 0 queues there.
        assert net.charge_hop(0, 2, 0, data=True) > 0
        # 1's link-in busy; traffic into 1 from elsewhere queues too.
        assert net.charge_hop(2, 1, 0, data=True) > 0

    def test_disabled_contention_never_delays(self):
        net = make_net(enabled=False)
        for _ in range(10):
            assert net.charge_bus(0, 0, data=True) == 0


class TestBackgroundChain:
    def test_background_does_not_delay_demand(self):
        net = make_net()
        for _ in range(10):
            net.charge_bus(0, 0, data=True, background=True)
        assert net.charge_bus(0, 0, data=True) == 0

    def test_background_serializes_against_itself(self):
        net = make_net()
        net.charge_bus(0, 0, data=True, background=True)
        assert net.charge_bus(0, 0, data=True, background=True) == 5

    def test_background_resources_are_named(self):
        net = make_net()
        assert net.background[0].bus.name.startswith("bg.")


def _bus(node, data):
    return lambda net, t, bg: net.charge_bus(node, t, data=data, background=bg)


def _hop(src, dst, data):
    return lambda net, t, bg: net.charge_hop(src, dst, t, data=data, background=bg)


def _directory(node):
    return lambda net, t, bg: net.charge_directory(node, t, background=bg)


def _memory(node):
    return lambda net, t, bg: net.charge_memory(node, t, background=bg)


#: Every fused ``charge_*`` transaction method and the single-station
#: sequence its docstring names: ``(node roles, chain, chained, steps)``.
#: ``chain`` is "either" when the method takes a ``background`` flag,
#: else the one chain it always charges.  A chained sequence requests
#: each step at ``time`` plus the delay so far; an unchained one
#: requests every step at ``time`` and sums the delays.
FUSED_PATHS = {
    "charge_fill_local": (
        ("node",), "either", True,
        lambda node: [_bus(node, True), _memory(node)],
    ),
    "charge_write_local": (
        ("node",), "either", True,
        lambda node: [_bus(node, True), _directory(node), _memory(node)],
    ),
    "charge_fill_home": (
        ("node", "home"), "either", True,
        lambda node, home: [
            _bus(node, False), _hop(node, home, False), _directory(home),
            _memory(home), _hop(home, node, True), _bus(node, True),
        ],
    ),
    "charge_fetch_owner_local": (
        ("node", "owner"), "demand", True,
        lambda node, owner: [
            _bus(node, False), _directory(node), _hop(node, owner, False),
            _bus(owner, True), _hop(owner, node, True),
        ],
    ),
    "charge_fetch_owner_via": (
        ("node", "via", "home", "owner"), "either", True,
        lambda node, via, home, owner: [
            _bus(node, False), _hop(node, via, False), _directory(home),
            _bus(owner, True), _hop(owner, node, True),
        ],
    ),
    "charge_fetch_owner_remote": (
        ("node", "home", "owner"), "either", True,
        lambda node, home, owner: [
            _bus(node, False), _hop(node, home, False), _directory(home),
            _hop(home, owner, False), _bus(owner, True), _hop(owner, node, True),
        ],
    ),
    "charge_writeback": (
        ("node", "home"), "background", False,
        lambda node, home: [_bus(node, True)]
        + ([_hop(node, home, True)] if home != node else [])
        + [_memory(home)],
    ),
    "charge_invalidation": (
        ("home", "sharer", "node"), "either", False,
        lambda home, sharer, node: [_hop(home, sharer, False), _hop(sharer, node, False)],
    ),
}


def _resources(net):
    for chain in (net.nodes, net.background):
        for links in chain:
            yield links.bus
            yield links.link_in
            yield links.link_out
            yield links.directory_ctl
            yield links.memory


def _snapshot(net):
    return [
        (r.name, r._next_free, r._busy_total, r._transactions) for r in _resources(net)
    ]


class TestFusedPaths:
    """Each fused transaction method equals the ``charge_bus`` /
    ``charge_hop`` / ``charge_directory`` / ``charge_memory`` sequence
    its docstring names: same returned delay, same bookkeeping on every
    resource of both chains, from arbitrary prior resource states."""

    def test_every_fused_method_is_covered(self):
        fused = {
            name for name in vars(Interconnect)
            if name.startswith("charge_") and name not in (
                "charge_bus", "charge_hop", "charge_directory", "charge_memory",
                # Fault-layer helpers: written as the sequence itself.
                "charge_nack", "charge_duplicate",
            )
        }
        assert fused == set(FUSED_PATHS)

    @pytest.mark.parametrize("method", sorted(FUSED_PATHS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fused_path_equals_its_charge_sequence(self, method, data):
        roles, chain, chained, steps_of = FUSED_PATHS[method]
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
        fused, reference = Interconnect(4, contention), Interconnect(4, contention)
        next_free = data.draw(
            st.lists(st.integers(0, 300), min_size=40, max_size=40), label="next_free"
        )
        for a, b, free in zip(_resources(fused), _resources(reference), next_free):
            a._next_free = b._next_free = free
        nodes = [data.draw(st.integers(0, 3), label=role) for role in roles]
        time = data.draw(st.integers(0, 300), label="time")
        background = {"demand": False, "background": True}.get(chain)
        if background is None:
            background = data.draw(st.booleans(), label="background")
            got = getattr(fused, method)(*nodes, time, background=background)
        else:
            got = getattr(fused, method)(*nodes, time)

        want = 0
        for step in steps_of(*nodes):
            want += step(reference, time + want if chained else time, background)
        assert got == want
        assert _snapshot(fused) == _snapshot(reference)


class TestReporting:
    def test_utilization_report_covers_all_nodes(self):
        net = make_net()
        net.charge_bus(2, 0, data=True)
        report = net.utilization_report(100)
        assert "node2.bus" in report
        assert report["node2.bus"] > 0
        assert report["node0.bus"] == 0
        assert len(report) == 4 * 5


class TestHopEdgeCasesVsEnvelopes:
    """Interconnect edge cases cross-checked against the static latency
    envelopes (repro.analysis.latbound) — zero-hop local access, the
    max-distance three-party route, and contended vs contention-free
    bounds must all land inside what the analyzer derives."""

    def _envelopes(self, enabled=True, processors=4):
        from repro.analysis.latbound import derive_envelopes
        from repro.config import ContentionConfig, dash_scaled_config

        config = dash_scaled_config(
            num_processors=processors,
            contention=ContentionConfig(enabled=enabled),
        )
        return config, derive_envelopes(config)

    def test_zero_hop_local_access_charges_no_link(self):
        # A local fill never touches the network: its envelope has no
        # link term, and an idle bus+memory chain reproduces the base.
        from repro.analysis.latbound import TxnClass
        from repro.config import Consistency

        config, table = self._envelopes()
        env = table.get(Consistency.SC, TxnClass.READ_MISS_LOCAL)
        assert not any("link" in name for name, _v in env.term_breakdown)
        net = make_net()
        delay = net.charge_bus(0, 0, data=True)
        delay += net.charge_memory(0, delay)
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
        net = make_net()
        req, home, owner = 0, 1, 2
        delay = net.charge_bus(req, 0, data=False)
        delay += net.charge_hop(req, home, delay, data=False)
        delay += net.charge_directory(home, delay)
        delay += net.charge_hop(home, owner, delay, data=False)
        delay += net.charge_bus(owner, delay, data=True)
        delay += net.charge_hop(owner, req, delay, data=True)
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
        req, home, owner = 0, 1, 2
        for _ in range(3):  # fewer competitors than the in-flight bound
            net.charge_bus(req, 0, data=True)
            net.charge_hop(req, home, 0, data=True)
            net.charge_directory(home, 0)
            net.charge_hop(home, owner, 0, data=True)
            net.charge_bus(owner, 0, data=True)
            net.charge_hop(owner, req, 0, data=True)
        delay = net.charge_bus(req, 0, data=False)
        delay += net.charge_hop(req, home, delay, data=False)
        delay += net.charge_directory(home, delay)
        delay += net.charge_hop(home, owner, delay, data=False)
        delay += net.charge_bus(owner, delay, data=True)
        delay += net.charge_hop(owner, req, delay, data=True)
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
        delay = net.charge_bus(0, 0, data=False)
        delay += net.charge_hop(0, 1, delay, data=False)
        delay += net.charge_directory(1, delay)
        delay += net.charge_hop(1, 2, delay, data=False)
        delay += net.charge_bus(2, delay, data=True)
        delay += net.charge_hop(2, 0, delay, data=True)
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
