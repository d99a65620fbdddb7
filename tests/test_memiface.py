"""Unit tests for the node memory interface (write/prefetch buffers,
MSHR combining, consistency behaviour)."""

from repro.caches import LineState
from repro.coherence import AccessClass
from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import policy_for
from repro.sim.engine import TIME_INFINITY
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
    def test_second_read_combines_with_first(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        first = iface.read(addr, 0)
        second = iface.read(addr, 5)  # while outstanding
        assert second.ready == first.ready

    def test_mshr_expires_lazily(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        addr = regions[1].addr(0)
        iface.read(addr, 0)
        iface.read(regions[0].addr(0), 10_000)  # triggers expiry
        assert iface.mshr.lookup(iface.protocol.line_of(addr)) is None


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


def close_prefetch_gate(machine):
    """Pass-through instance wrapper on ``protocol.prefetch``: the
    mechanism that routes the memory interface's prefetches through
    the classic protocol path instead of its fused discard."""
    original = machine.protocol.prefetch
    machine.protocol.prefetch = lambda *args: original(*args)


class TestMESIPrefetchDiscard:
    """Fused and classic prefetch paths agree on every MESI outcome."""

    def _prefetch_counters(self, setup, exclusive, fused):
        machine, regions = make_machine(Consistency.RC, protocol="mesi")
        if not fused:
            close_prefetch_gate(machine)
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
        *iface._wb_completions,
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
        machine, regions = make_machine(
            Consistency.RC, write_buffer_depth=4, max_outstanding_writes=2
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
            assert iface._busy == bool(survivors)
        assert not iface._busy

    def test_mshr_waiters_fire_in_insertion_order(self):
        machine, regions = make_machine(Consistency.RC)
        iface = machine.memifaces[0]
        remote = regions[1].addr(0)
        local = regions[0].addr(0)
        first = iface.read(remote, 0)  # slow: remote home
        second = iface.read(local, 1)  # fast: completes first
        assert second.ready < first.ready
        fired = []
        for addr in (remote, local):
            line = machine.protocol.line_of(addr)
            iface.mshr.combine(line, lambda t, line=line: fired.append((line, t)))
        iface._expire(10_000)
        assert fired == [
            (machine.protocol.line_of(remote), first.ready),
            (machine.protocol.line_of(local), second.ready),
        ]
