"""Unit tests for the processor model: accounting, stalls, switching."""

import pytest

from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.processor.accounting import Bucket, TimeBreakdown
from repro.processor.context import Context, ContextState
from repro.system import Machine
from repro.tango import Program
from repro.tango import ops as O


def run_threads(thread_bodies, consistency=Consistency.SC, **changes):
    """Run one thread per processor on a small quiet machine."""
    config = dash_scaled_config(
        num_processors=len(thread_bodies),
        consistency=consistency,
        contention=ContentionConfig(enabled=False),
        **changes,
    )

    def setup(allocator, num_processes):
        return {
            "regions": [
                allocator.alloc_local(f"r{i}", 8192, i % config.num_processors)
                for i in range(num_processes)
            ],
            "shared": allocator.alloc_round_robin("shared", 4096),
        }

    def factory(world, env):
        return thread_bodies[env.process_id % len(thread_bodies)](world, env)

    machine = Machine(config)
    machine.load(Program("test", setup, factory))
    result = machine.run()
    return machine, result


class TestAccounting:
    def test_busy_only_thread(self):
        def body(world, env):
            yield (O.BUSY, 100)

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.BUSY] == 100
        assert breakdown.total == 100

    def test_read_hit_counts_busy(self):
        def body(world, env):
            addr = world["regions"][0].addr(0)
            yield (O.READ, addr)  # local fill: 1 busy + 25 stall
            yield (O.READ, addr)  # primary hit: 1 busy

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.BUSY] == 2
        assert breakdown[Bucket.READ_STALL] == 25

    def test_sc_write_accounts_write_stall(self):
        def body(world, env):
            yield (O.WRITE, world["regions"][0].addr(0))

        machine, result = run_threads([body], consistency=Consistency.SC)
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.WRITE_STALL] == 17  # 18 - 1 busy cycle

    def test_rc_write_does_not_stall(self):
        def body(world, env):
            yield (O.WRITE, world["regions"][0].addr(0))

        machine, result = run_threads([body], consistency=Consistency.RC)
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.WRITE_STALL] == 0

    def test_partition_invariant(self):
        def body(world, env):
            region = world["regions"][env.process_id]
            for i in range(50):
                yield (O.READ, region.addr(i * 16 % 8192))
                yield (O.BUSY, 3)
                yield (O.WRITE, region.addr(i * 16 % 8192))
            yield (O.BARRIER, world["shared"].addr(0), env.num_processes)

        machine, result = run_threads([body, body, body])
        for processor in machine.processors:
            assert processor.breakdown.total == processor.finish_time

    def test_prefetch_overhead_accounted(self):
        def body(world, env):
            yield (O.PREFETCH, world["regions"][0].addr(0), False)
            yield (O.BUSY, 10)

        machine, result = run_threads([body])
        breakdown = result.per_processor[0]
        assert breakdown[Bucket.PREFETCH_OVERHEAD] >= 2


class TestMultipleContexts:
    def test_switch_on_long_stall(self):
        def body(world, env):
            # Each context reads a line homed on another node: 72 cycles.
            other = (env.process_id + 1) % env.num_processes
            yield (O.READ, world["regions"][other].addr(env.process_id * 2048))
            yield (O.BUSY, 10)

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        processor = machine.processors[0]
        assert processor.context_switches >= 1
        assert processor.breakdown[Bucket.SWITCH] >= 4

    def test_short_stall_does_not_switch(self):
        def body(world, env):
            addr = world["regions"][0].addr(0)
            yield (O.WRITE, addr)  # first write: long, switches
            yield (O.WRITE, addr)  # dirty-hit: 2 cycles, no switch

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert machine.processors[0].breakdown[Bucket.NO_SWITCH] >= 1

    def test_all_idle_when_every_context_blocked(self):
        def body(world, env):
            other = (env.process_id + 1) % env.num_processes
            for i in range(5):
                yield (O.READ, world["regions"][other].addr(env.process_id * 1024 + i * 16))

        machine, result = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert machine.processors[0].breakdown[Bucket.ALL_IDLE] > 0

    def test_work_conserving_overlap(self):
        """Two contexts with independent misses finish faster than
        double a single context's time."""

        def body(world, env):
            other = (env.process_id + 1) % env.num_processes
            for i in range(20):
                yield (O.READ, world["regions"][other].addr(env.process_id * 2048 + i * 16))
                yield (O.BUSY, 20)

        machine1, result1 = run_threads([body])
        machine2, result2 = run_threads(
            [body], contexts_per_processor=2, context_switch_cycles=4
        )
        assert result2.execution_time < 2 * result1.execution_time

    def test_context_counters(self):
        def body(world, env):
            yield (O.BUSY, 5)

        machine, result = run_threads([body], contexts_per_processor=4)
        assert all(p.finished for p in machine.processors)
        assert result.execution_time > 0


class TestSchedulerOrder:
    """Pins the round-robin dispatch order of a 4-context processor."""

    @staticmethod
    def _staggered(world, env):
        pid = env.process_id
        r = world["r"]
        if pid == 0:
            yield (O.READ, r.addr(0))
            yield (O.BUSY, 30)
            yield (O.READ, r.addr(1024))
            yield (O.BUSY, 3)
        elif pid == 1:
            yield (O.READ, r.addr(2048))
            yield (O.BUSY, 8)
            yield (O.READ, r.addr(3072))
        elif pid == 2:
            yield (O.BUSY, 9)
            yield (O.READ, r.addr(4096))
            yield (O.BUSY, 4)
        else:
            yield (O.BUSY, 40)
            yield (O.READ, r.addr(5120))
        yield (O.BARRIER, world["s"].addr(0), env.num_processes)
        yield (O.BUSY, 2 + pid)
        if pid == 1:
            yield (O.READ, r.addr(6144))  # misses with every other context done
            yield (O.BUSY, 1)

    def test_dispatch_sequence(self, monkeypatch):
        import repro.system.machine as machine_module

        dispatches = []
        holder = {}

        class RecordingContext(Context):
            """Logs ``(context, processor time)`` at every dispatch."""

            __slots__ = ("_state",)

            @property
            def state(self):
                return self._state

            @state.setter
            def state(self, value):
                self._state = value
                if value is ContextState.RUNNING:
                    dispatches.append((self.index, holder["p"].time))

        monkeypatch.setattr(machine_module, "Context", RecordingContext)
        config = dash_scaled_config(
            num_processors=1,
            consistency=Consistency.RC,
            contention=ContentionConfig(enabled=False),
            contexts_per_processor=4,
            context_switch_cycles=4,
        )

        def setup(allocator, num_processes):
            return {
                "r": allocator.alloc_local("r", 8192, 0),
                "s": allocator.alloc_local("s", 64, 0),
            }

        machine = Machine(config)
        processor = holder["p"] = machine.processors[0]
        machine.load(Program("sched", setup, self._staggered))
        machine.run()
        assert dispatches == [
            (0, 0), (1, 5), (2, 10), (3, 24),
            # Contexts 0-2 are all runnable: the scan starts after 3.
            (0, 81), (1, 120), (2, 133), (3, 142), (0, 151),
            # Context 1 then reaches the barrier last: every live
            # context awaits a grant and the processor parks.
            (1, 163),
            # Contexts 0, 1 and 3 are runnable: the scan starts after 1.
            (2, 211), (3, 219), (0, 228), (1, 234),
            # Context 1 idles alone and is re-dispatched without a switch.
            (1, 263),
        ]
        assert processor.context_switches == 13
        assert processor.breakdown[Bucket.SWITCH] == 52
        assert processor.breakdown[Bucket.ALL_IDLE] == 68
        assert processor.finish_time == 268


class TestSynchronizationOps:
    def test_lock_serializes_critical_sections(self):
        log = []

        def body(world, env):
            lock = world["shared"].addr(0)
            yield (O.LOCK, lock)
            log.append(("enter", env.process_id))
            yield (O.BUSY, 50)
            log.append(("exit", env.process_id))
            yield (O.UNLOCK, lock)

        run_threads([body, body, body])
        # Sections never interleave.
        for i in range(0, len(log), 2):
            assert log[i][0] == "enter"
            assert log[i + 1][0] == "exit"
            assert log[i][1] == log[i + 1][1]

    def test_barrier_joins_all(self):
        after = []

        def body(world, env):
            yield (O.BUSY, env.process_id * 100)
            yield (O.BARRIER, world["shared"].addr(0), env.num_processes)
            after.append(env.process_id)

        machine, result = run_threads([body, body, body, body])
        assert sorted(after) == [0, 1, 2, 3]

    def test_flag_orders_producer_consumer(self):
        order = []

        def producer(world, env):
            yield (O.BUSY, 500)
            order.append("produced")
            yield (O.FLAG_SET, world["shared"].addr(0))

        def consumer(world, env):
            yield (O.FLAG_WAIT, world["shared"].addr(0))
            order.append("consumed")

        run_threads([producer, consumer])
        assert order == ["produced", "consumed"]

    def test_sync_stall_accounted(self):
        def holder(world, env):
            yield (O.LOCK, world["shared"].addr(0))
            yield (O.BUSY, 1000)
            yield (O.UNLOCK, world["shared"].addr(0))

        def waiter(world, env):
            yield (O.BUSY, 1)
            yield (O.LOCK, world["shared"].addr(0))
            yield (O.UNLOCK, world["shared"].addr(0))

        machine, result = run_threads([holder, waiter])
        assert machine.processors[1].breakdown[Bucket.SYNC_STALL] > 500


class TestTermination:
    def test_deadlock_detected(self):
        from repro.sim import DeadlockError

        def body(world, env):
            yield (O.LOCK, world["shared"].addr(0))
            # Never unlocks; the second thread can never acquire.
            yield (O.BUSY, 10)

        with pytest.raises(DeadlockError):
            run_threads([body, body])

    def test_unknown_opcode_rejected(self):
        def body(world, env):
            yield (99, 0)

        with pytest.raises(ValueError):
            run_threads([body])
