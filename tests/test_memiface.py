"""Unit tests for the node memory interface (write/prefetch buffers,
MSHR combining, consistency behaviour)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import LineState
from repro.coherence import AccessClass
from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import policy_for
from repro.experiments import SMOKE_PROCESSES
from repro.sim.engine import TIME_INFINITY, SimulationError
from repro.system import Machine


def make_machine(consistency=Consistency.RC, **changes):
    config = dash_scaled_config(
        num_processors=4,
        consistency=consistency,
        contention=ContentionConfig(enabled=False),
        **changes,
    )
    machine = Machine(config)
    regions = [
        machine.allocator.alloc_local(f"r{i}", 8192, i) for i in range(4)
    ]
    return machine, regions


def close_gate(machine, name):
    """Pass-through wrapper on ``protocol.<name>``, installed through
    ``Machine.interpose``: routes the memory interface's accesses
    through the protocol's own entry points instead of its fused
    probes."""
    machine.interpose(
        machine.protocol, name, lambda original: lambda *args: original(*args)
    )


class TestSCWrites:
    def test_sc_write_stalls_to_completion(self):
        machine, regions = make_machine(Consistency.SC)
        iface = machine.memifaces[0]
        result = iface.write(regions[0].addr(0), 0)
        assert result.proceed == 18  # local ownership, no sharers

    def test_sc_write_waits_for_acks(self):
        machine, regions = make_machine(Consistency.SC)
        addr = regions[0].addr(0)
        machine.protocol.read(1, addr, 0)  # remote sharer
        result = machine.memifaces[0].write(addr, 10)
        lat = machine.config.latency
        assert result.proceed == 10 + lat.write_owned_local + lat.invalidation_ack_remote


class TestRCWrites:
    def test_rc_write_returns_immediately(self):
        machine, regions = make_machine(Consistency.RC)
        result = machine.memifaces[0].write(regions[0].addr(0), 0)
        assert result.proceed == 1
        assert result.buffer_full_stall == 0

    def test_rc_write_buffer_fills_and_stalls(self):
        machine, regions = make_machine(
            Consistency.RC, write_buffer_depth=2, max_outstanding_writes=1
        )
        iface = machine.memifaces[0]
        # Fill the buffer with remote write misses that retire slowly.
        for i in range(3):
            result = iface.write(regions[1].addr(i * 16), 0)
        assert result.buffer_full_stall > 0
        assert iface.write_buffer_full_stall_cycles > 0

    def test_release_point_covers_ack_horizon(self):
        machine, regions = make_machine(Consistency.RC)
        addr = regions[0].addr(0)
        machine.protocol.read(1, addr, 0)  # remote sharer to invalidate
        iface = machine.memifaces[0]
        iface.write(addr, 10)
        lat = machine.config.latency
        fence = iface.release_point(11)
        assert fence >= 10 + lat.write_owned_local + lat.invalidation_ack_remote

    def test_release_point_is_now_once_drained(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        iface.write(regions[0].addr(0), 0)
        assert iface.release_point(10_000) == 10_000

    def test_sc_release_point_is_now(self):
        machine, regions = make_machine(Consistency.SC)
        assert machine.memifaces[0].release_point(55) == 55

    def test_read_forwards_from_write_buffer(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)  # remote line: slow retire
        iface.write(addr, 0)
        result = iface.read(addr, 1)
        assert result.ready == 1 + machine.config.latency.read_primary_hit
        assert iface.store_forwards == 1


class TestPrefetchPath:
    def test_prefetch_then_demand_read_combines(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.read(addr, 5)
        assert result.combined_with_prefetch
        assert result.ready == 72  # completes when the prefetch returns
        assert iface.demand_combined_with_prefetch == 1

    def test_prefetch_after_completion_reads_hit(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.read(addr, 500)  # long after arrival
        assert result.access_class in (
            AccessClass.PRIMARY_HIT,
            AccessClass.SECONDARY_HIT,
        )

    def test_duplicate_prefetch_discarded(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.prefetch(addr, exclusive=False, now=0)
        result = iface.prefetch(addr, exclusive=False, now=1)
        assert result.discarded
        assert iface.prefetches_discarded == 1

    def test_prefetch_buffer_full_stalls(self):
        machine, regions = make_machine(Consistency.RC, prefetch_buffer_depth=2)
        iface = machine.memifaces[0]
        # Saturate the issue pipe so entries linger in the buffer.
        stall = 0
        for i in range(8):
            result = iface.prefetch(regions[1].addr(1024 + i * 16), False, 0)
            stall += result.buffer_full_stall
        assert stall > 0

    def test_fill_lockout_consumed_once(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        iface.prefetch(regions[1].addr(0), exclusive=False, now=0)
        assert iface.consume_fill_stalls(1000) == 1
        assert iface.consume_fill_stalls(1000) == 0


class TestMSHRCombining:
    # Two demand reads of one node overlap only when another context
    # runs while the first is outstanding: a single context blocks.

    def test_second_read_combines_with_first(self):
        machine, regions = make_machine(Consistency.RC, contexts_per_processor=2)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        first = iface.read(addr, 0)
        second = iface.read(addr, 5)  # while outstanding
        assert second.ready == first.ready

    def test_mshr_expires_lazily(self):
        machine, regions = make_machine(Consistency.RC, contexts_per_processor=2)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        line = iface.protocol.line_of(addr)
        first = iface.read(addr, 0)
        iface.read(regions[0].addr(64), 10_000)  # another line, another set
        # Matured, so no longer in flight, though not yet collected: a
        # read of its line does not combine with it.
        assert iface.mshr.lookup(line).complete_time == first.ready <= 10_000
        assert iface.read(addr, 10_001).access_class is AccessClass.PRIMARY_HIT
        assert iface.mshr.combines == 0
        iface._collect(10_001)
        assert iface.mshr.lookup(line) is None

    def test_add_replaces_only_a_completed_entry(self):
        from repro.caches import OutstandingMiss

        machine, _ = make_machine(Consistency.RC, contexts_per_processor=2)
        mshr = machine.memifaces[0].mshr
        mshr.add(OutstandingMiss(0x40, False, 0, 100, False))
        with pytest.raises(ValueError, match="already outstanding"):
            mshr.add(OutstandingMiss(0x40, False, 99, 300, False))
        mshr.add(OutstandingMiss(0x40, False, 100, 300, False))
        assert mshr.lookup(0x40).complete_time == 300


class TestSingleContextDemandMisses:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "observer"])
    def test_demand_miss_makes_no_mshr_entry(self, fused):
        results = []
        for contexts in (1, 2):
            machine, regions = make_machine(
                Consistency.SC, contexts_per_processor=contexts
            )
            if not fused:
                close_gate(machine, "read")
            iface = machine.memifaces[0]
            results.append(iface.read(regions[1].addr(0), 0))
            assert len(iface.mshr) == (0 if contexts == 1 else 1)
        assert results[0] == results[1] == (72, AccessClass.HOME, False)

    @pytest.mark.parametrize("kind", ["read", "prefetch"])
    def test_access_before_the_miss_retires_raises(self, kind):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        ready = iface.read(regions[1].addr(0), 0).ready
        other = regions[2].addr(0)
        with pytest.raises(SimulationError, match="before its single context"):
            if kind == "read":
                iface.read(other, ready - 1)
            else:
                iface.prefetch(other, False, ready - 1)
        # From the retire time on, the node may issue again.
        assert iface.read(other, ready).access_class is AccessClass.HOME


class TestUncachedMode:
    def test_uncached_read_and_write(self):
        machine, regions = make_machine(
            Consistency.SC, caching_shared_data=False
        )
        iface = machine.memifaces[0]
        lat = machine.config.latency
        read = iface.read(regions[0].addr(0), 0)
        assert read.ready == lat.read_fill_local - lat.uncached_discount
        write = iface.write(regions[0].addr(0), 0)
        assert write.proceed == lat.write_owned_local - lat.uncached_discount


class TestMESIPrefetchDiscard:
    """Fused and classic prefetch paths agree on every MESI outcome."""

    def _prefetch_counters(self, setup, exclusive, fused):
        machine, regions = make_machine(Consistency.RC, protocol="mesi")
        if not fused:
            close_gate(machine, "prefetch")
        addr = regions[0].addr(0)
        line = machine.protocol.line_of(addr)
        expected_state = setup(machine, addr)
        assert machine.protocol.caches[0].secondary.probe(line) == expected_state
        iface = machine.memifaces[0]
        result = iface.prefetch(addr, exclusive, 100)
        stats = machine.protocol.stats
        return (
            result.discarded,
            iface.prefetches_discarded,
            iface.prefetches_sent,
            stats.prefetches_issued,
            stats.prefetch_upgrades,
        )

    @staticmethod
    def _exclusive_copy(machine, addr):
        machine.protocol.read(0, addr, 0)  # sole reader: clean exclusive
        return LineState.EXCLUSIVE

    @staticmethod
    def _shared_copy(machine, addr):
        machine.protocol.read(1, addr, 0)
        machine.protocol.read(0, addr, 50)  # second reader: both shared
        return LineState.SHARED

    def _both_paths(self, setup, exclusive):
        fused = self._prefetch_counters(setup, exclusive, fused=True)
        classic = self._prefetch_counters(setup, exclusive, fused=False)
        assert fused == classic
        return fused

    def test_exclusive_prefetch_to_exclusive_line_is_discarded(self):
        assert self._both_paths(self._exclusive_copy, True) == (True, 1, 0, 0, 0)

    def test_shared_prefetch_to_shared_line_is_discarded(self):
        assert self._both_paths(self._shared_copy, False) == (True, 1, 0, 0, 0)

    def test_exclusive_prefetch_to_shared_line_upgrades(self):
        assert self._both_paths(self._shared_copy, True) == (False, 0, 1, 1, 1)


def pending_maturities(iface):
    """Every maturity time the batched collection tracks, in one list."""
    return [
        *iface._wb_lines.values(),
        *(miss.complete_time for miss in iface._misses.values()),
    ]


class TestWatermarks:
    def test_out_of_order_fill_arrivals_lower_the_watermark(self):
        machine, _ = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        assert iface._next_fill == TIME_INFINITY
        iface.note_fill_arrival(500)
        assert iface._next_fill == 500
        iface.note_fill_arrival(300)  # earlier than the pending one
        assert iface._next_fill == 300
        iface.note_fill_arrival(700)
        assert iface._next_fill == 300

    def test_consume_restores_the_fill_watermark(self):
        machine, _ = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        for arrival in (700, 300, 500):
            iface.note_fill_arrival(arrival)
        assert iface.consume_fill_stalls(200) == 0
        assert iface._next_fill == 300
        assert iface.consume_fill_stalls(400) == 1
        assert iface._next_fill == 500  # minimum of the rest
        assert iface.consume_fill_stalls(1000) == 2
        assert iface._next_fill == TIME_INFINITY
        assert iface.consume_fill_stalls(2000) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 400)), min_size=1, max_size=40
        )
    )
    def test_fill_heap_consumes_each_arrival_once(self, steps):
        # Notes at any time, consumes at a clock that never goes back:
        # each arrival is counted exactly once, by the first consume at
        # or after it, and the watermark is always the earliest pending.
        machine, _ = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        pending = []
        now = 0
        consumed = 0
        for note, t in steps:
            if note:
                iface.note_fill_arrival(t)
                pending.append(t)
            else:
                now = max(now, t)
                arrived = [a for a in pending if a <= now]
                pending = [a for a in pending if a > now]
                got = iface.consume_fill_stalls(now)
                assert got == len(arrived)
                consumed += got
            assert iface._next_fill == min(pending, default=TIME_INFINITY)
            assert sorted(iface._fill_arrivals) == sorted(pending)
        consumed += iface.consume_fill_stalls(TIME_INFINITY)
        assert consumed == sum(note for note, _ in steps)

    def test_collect_drops_exactly_the_matured_entries(self):
        # Two contexts, so the overlapping demand misses are tracked.
        machine, regions = make_machine(
            Consistency.RC,
            write_buffer_depth=4,
            max_outstanding_writes=2,
            contexts_per_processor=2,
        )
        iface = machine.memifaces[0]
        # A mix of buffered writes (local and remote, with a sharer to
        # invalidate), prefetches, and demand misses.
        machine.protocol.read(2, regions[1].addr(32), 0)
        iface.write(regions[1].addr(32), 0)
        iface.write(regions[0].addr(0), 1)
        iface.prefetch(regions[1].addr(512), False, 2)
        iface.prefetch(regions[2].addr(512), True, 3)
        iface.read(regions[3].addr(0), 4)
        iface.read(regions[0].addr(256), 5)
        iface.write(regions[2].addr(64), 6)
        pending = pending_maturities(iface)
        assert len(pending) > 5
        times = sorted(set(pending))
        probes = [0] + times + [t - 1 for t in times] + [times[-1] + 1]
        for now in sorted(probes):
            iface._collect(now)
            survivors = pending_maturities(iface)
            assert sorted(survivors) == sorted(t for t in pending if t > now)
            assert iface._gc_bound == max(64, 2 * len(survivors))

    def test_immediate_prefetch_occupies_no_slot(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        present = regions[0].addr(0)
        machine.protocol.read(0, present, 0)
        # Issued at once and then discarded: no trace in the buffer,
        # the MSHRs or the fill heap.
        assert iface.prefetch(present, False, 100).discarded
        assert not iface._pf_queue
        assert len(iface.mshr) == 0
        assert iface._next_fill == TIME_INFINITY
        # Issued at once and sent: only its MSHR entry, in flight, and
        # its returning fill are pending.
        remote = regions[1].addr(0)
        assert not iface.prefetch(remote, False, 200).discarded
        assert not iface._pf_queue
        miss = iface.mshr.lookup(machine.protocol.line_of(remote))
        assert miss.complete_time > 200
        assert iface._fill_arrivals == [miss.complete_time] == [iface._next_fill]

    def test_bus_delayed_prefetch_queues_and_fills_the_buffer(self):
        machine, regions = make_machine(Consistency.RC, prefetch_buffer_depth=2)
        iface = machine.memifaces[0]
        gap = machine.config.contention.bus_occupancy_header
        assert gap > 0
        line_bytes = machine.config.line_bytes
        stalls = []
        for i in range(4):
            addr = regions[1].addr(1024 + i * line_bytes)
            stalls.append(iface.prefetch(addr, False, 0).buffer_full_stall)
            if i == 1:
                # The second waits one bus gap, in a buffer slot.
                assert list(iface._pf_queue) == [gap]
        # The fourth finds both slots taken and waits for the first.
        assert stalls == [0, 0, 0, gap]
        assert list(iface._pf_queue) == [2 * gap, 3 * gap]
        assert iface.prefetch_buffer_full_stall_cycles == gap
        # Once both have issued, the full check drops them first: a
        # fifth prefetch neither stalls nor queues.
        addr = regions[1].addr(1024 + 4 * line_bytes)
        assert iface.prefetch(addr, False, 10 * gap).buffer_full_stall == 0
        assert not iface._pf_queue
        assert iface.prefetch_buffer_full_stall_cycles == gap

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # home node of the written line
                st.integers(0, 7),  # line within the region
                st.booleans(),  # another node reads it first
                st.integers(0, 60),  # cycles until the release
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_release_point_is_the_latest_completion(self, writes):
        machine, regions = make_machine(
            Consistency.RC, write_buffer_depth=3, max_outstanding_writes=2
        )
        completes = []

        def recording(original):
            def write(*args, **kwargs):
                outcome = original(*args, **kwargs)
                completes.append(outcome.complete)
                return outcome

            return write

        machine.interpose(machine.protocol, "write", recording)
        iface = machine.memifaces[0]
        now = 0
        for home, index, shared, gap in writes:
            addr = regions[home].addr(index * 64)
            if shared:
                machine.protocol.read(1 + home % 3, addr, now)
            now = iface.write(addr, now).proceed + gap
            expected = max([now, *completes, iface._wb_last_retire])
            assert iface.release_point(now) == expected


def eager_sweep(iface, now):
    """Reference for the lazy queries: drop everything matured by
    ``now`` from every pending container, as a sweep before each access
    would."""
    for queue in (iface._wb_retires, iface._pf_queue):
        while queue and queue[0] <= now:
            queue.popleft()
    iface._collect(now)


class TestLazyQueries:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("read", "write", "prefetch")),
                st.integers(0, 3),  # home node of the line
                st.integers(0, 5),  # line within the region
                st.booleans(),  # exclusive prefetch
                st.integers(0, 90),  # cycles until the next access
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_lazy_and_eager_sweeps_answer_alike(self, accesses):
        # Small buffers and two contexts, so full checks, combining and
        # store forwarding all come up.  One node never collects; the
        # reference sweeps everything matured before every access.
        nodes = []
        for _ in range(2):
            machine, regions = make_machine(
                Consistency.RC,
                write_buffer_depth=2,
                max_outstanding_writes=2,
                prefetch_buffer_depth=2,
                contexts_per_processor=2,
            )
            nodes.append((machine, regions))
        nodes[0][0].memifaces[0]._gc_bound = TIME_INFINITY
        now = 0
        for kind, home, index, exclusive, gap in accesses:
            answers = []
            for (machine, regions), eager in zip(nodes, (False, True)):
                iface = machine.memifaces[0]
                if eager:
                    eager_sweep(iface, now)
                addr = regions[home].addr(index * 64)
                if kind == "read":
                    answers.append(iface.read(addr, now))
                elif kind == "write":
                    answers.append(iface.write(addr, now))
                else:
                    answers.append(iface.prefetch(addr, exclusive, now))
            assert answers[0] == answers[1]
            now += gap
        lazy, eager = (machine.memifaces[0] for machine, _ in nodes)
        for name in (
            "store_forwards",
            "demand_combined_with_prefetch",
            "prefetches_discarded",
            "prefetches_sent",
            "write_buffer_full_stall_cycles",
            "prefetch_buffer_full_stall_cycles",
        ):
            assert getattr(lazy, name) == getattr(eager, name), name
        assert lazy.mshr.combines == eager.mshr.combines
        assert sorted(lazy._fill_arrivals) == sorted(eager._fill_arrivals)
        assert list(nodes[0][0].protocol.stats.counter_items()) == list(
            nodes[1][0].protocol.stats.counter_items()
        )


#: ``(id, machine changes, prefetching)``: the SC, RC+pf and RC
#: 4-context legs of the collection-policy differential.
POLICY_LEGS = [
    ("sc", {"num_processors": SMOKE_PROCESSES}, False),
    ("rc-pf", {"num_processors": SMOKE_PROCESSES, "consistency": Consistency.RC}, True),
    (
        "rc-4ctx",
        {
            "num_processors": SMOKE_PROCESSES // 4,
            "contexts_per_processor": 4,
            "context_switch_cycles": 4,
            "consistency": Consistency.RC,
        },
        False,
    ),
]


class TestCollectionPolicies:
    """When matured MSHR and buffered-line entries are collected changes
    neither the result nor the path any access takes."""

    #: Collect on every memory-interface access, at the default bound,
    #: at a bound floor of 2 (so smoke runs collect often), or never.
    POLICIES = ("every", "default", "floor-2", "never")

    @staticmethod
    def observe(monkeypatch, app, changes, prefetching, policy):
        import repro.system.memiface as memiface_module
        from repro.coherence import CoherenceProtocol
        from repro.experiments import build_app
        from repro.experiments.resultcache import canonical_result_bytes
        from repro.system.memiface import NodeMemoryInterface

        calls = dict.fromkeys(
            ("read", "write", "prefetch", "protocol.read", "_read_fill", "_collect"), 0
        )

        def counted(cls, name, key, collect):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[key] += 1
                if collect:
                    self._collect(args[-1])  # every entry point ends with now
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        # On the classes, before the machine is built, so every fused
        # and inline path stays open.
        for name in ("read", "write", "prefetch"):
            counted(NodeMemoryInterface, name, name, policy == "every")
        counted(NodeMemoryInterface, "_collect", "_collect", False)
        counted(CoherenceProtocol, "read", "protocol.read", False)
        counted(CoherenceProtocol, "_read_fill", "_read_fill", False)
        if policy == "floor-2":
            monkeypatch.setattr(memiface_module, "_GC_FLOOR", 2)
        machine = Machine(dash_scaled_config(**changes))
        if policy == "never":
            for iface in machine.memifaces:
                iface._gc_bound = TIME_INFINITY
        machine.load(build_app(app, "smoke", prefetching=prefetching))
        result = machine.run()
        monkeypatch.undo()
        refs = result.shared_reads + result.shared_writes
        inline = (refs - calls["read"] - calls["write"]) / refs
        collections = calls.pop("_collect")
        return (canonical_result_bytes(result), calls, inline), collections

    @pytest.mark.parametrize("app", ("MP3D", "LU", "PTHOR"))
    @pytest.mark.parametrize(
        "changes,prefetching",
        [leg[1:] for leg in POLICY_LEGS],
        ids=[leg[0] for leg in POLICY_LEGS],
    )
    def test_policies_agree(self, monkeypatch, app, changes, prefetching):
        observed = {
            policy: self.observe(monkeypatch, app, changes, prefetching, policy)
            for policy in self.POLICIES
        }
        reference = observed["default"][0]
        for policy, (seen, _) in observed.items():
            assert seen[0] == reference[0], f"{policy}: canonical result bytes differ"
            assert seen[1] == reference[1], f"{policy}: call counts differ"
            assert seen[2] == reference[2], f"{policy}: inline fraction differs"
        assert observed["never"][1] == 0 < observed["every"][1]
        if changes.get("consistency") is Consistency.RC:
            # A single SC context inserts nothing that could be collected.
            assert observed["floor-2"][1] > 0
