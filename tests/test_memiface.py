"""Unit tests for the node memory interface (write/prefetch buffers,
MSHR combining, consistency behaviour)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import LineState
from repro.coherence import AccessClass
from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import policy_for
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
        iface.read(addr, 0)
        iface.read(regions[0].addr(0), 10_000)  # triggers expiry
        assert iface.mshr.lookup(iface.protocol.line_of(addr)) is None


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
    """Every maturity time the expiry sweep tracks, in one list."""
    return [
        *iface._wb_retires,
        *iface._pf_queue,
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

    def test_expire_leaves_exact_expiry_watermark(self):
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
            iface._expire(now)
            survivors = pending_maturities(iface)
            assert all(t > now for t in survivors)
            assert iface._next_expiry == min(survivors, default=TIME_INFINITY)

    def test_immediate_prefetch_occupies_no_slot(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        present = regions[0].addr(0)
        machine.protocol.read(0, present, 0)
        # Issued at once and then discarded: no trace in the buffer or
        # the watermark.
        assert iface.prefetch(present, False, 100).discarded
        assert not iface._pf_queue
        assert iface._next_expiry == TIME_INFINITY
        # Issued at once and sent: only its MSHR entry is pending.
        remote = regions[1].addr(0)
        assert not iface.prefetch(remote, False, 200).discarded
        assert not iface._pf_queue
        miss = iface.mshr.lookup(machine.protocol.line_of(remote))
        assert iface._next_expiry == miss.complete_time

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
                assert iface._next_expiry == gap
        # The fourth finds both slots taken and waits for the first.
        assert stalls == [0, 0, 0, gap]
        assert list(iface._pf_queue) == [2 * gap, 3 * gap]
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
