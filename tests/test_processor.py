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

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_scan_order_is_the_modulo_scan(self, n):
        def body(world, env):
            yield (O.BUSY, 1)

        machine = Machine(dash_scaled_config(num_processors=1, contexts_per_processor=n))
        machine.load(Program("scan", lambda allocator, num_processes: {}, body))
        processor = machine.processors[0]
        processor.start()
        contexts = processor.contexts
        assert [ctx.index for ctx in contexts] == list(range(n))
        for last in range(-1, n):
            expected = tuple(contexts[(last + 1 + offset) % n] for offset in range(n))
            assert processor._scan[last] == expected

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


class TestProbeGates:
    """The inline probes are decided once, when the processor primes;
    observers install through ``Machine.interpose`` before the run, and
    any other way of replacing an entry point fails the run."""

    def test_wrapper_installed_mid_run_is_rejected(self):
        from repro.experiments import SMOKE_PROCESSES, build_app
        from repro.sim.engine import SimulationError

        machine = Machine(dash_scaled_config(num_processors=SMOKE_PROCESSES))
        machine.load(build_app("MP3D", "smoke"))
        protocol = machine.protocol

        def install(engine):
            if "read" not in vars(protocol):
                original = protocol.read
                protocol.read = lambda *args: original(*args)

        machine.engine.set_heartbeat(install, every=1000)
        with pytest.raises(SimulationError, match="changed mid-run"):
            machine.run()

    def test_interpose_mid_run_raises_immediately(self):
        from repro.experiments import SMOKE_PROCESSES, build_app
        from repro.sim.engine import SimulationError

        machine = Machine(dash_scaled_config(num_processors=SMOKE_PROCESSES))
        machine.load(build_app("MP3D", "smoke"))
        heartbeats = []

        def install(engine):
            heartbeats.append(engine.events_processed)
            machine.interpose(machine.protocol, "read", lambda original: original)

        machine.engine.set_heartbeat(install, every=1000)
        with pytest.raises(SimulationError, match="after Machine.run started"):
            machine.run()
        # The first attempt aborted the run and installed nothing.
        assert heartbeats == [1000]
        assert not machine._interposed

    def test_unknown_entry_point_is_rejected(self):
        machine = Machine(dash_scaled_config(num_processors=2))
        for target, name in [
            (machine.protocol, "_read_fill"),
            (machine.memifaces[0], "read_uncached"),
            (machine.processors[0], "read"),
        ]:
            with pytest.raises(ValueError, match="not an entry point"):
                machine.interpose(target, name, lambda original: original)

    @pytest.mark.parametrize(
        "target,name", [("protocol", "read"), ("memiface", "release_point")]
    )
    def test_direct_rebind_before_run_is_rejected(self, target, name):
        from repro.experiments import SMOKE_PROCESSES, build_app
        from repro.sim.engine import SimulationError

        machine = Machine(dash_scaled_config(num_processors=SMOKE_PROCESSES))
        machine.load(build_app("MP3D", "smoke"))
        obj = machine.protocol if target == "protocol" else machine.memifaces[1]
        original = getattr(obj, name)
        setattr(obj, name, lambda *args: original(*args))
        with pytest.raises(
            SimulationError, match="was replaced outside Machine.interpose"
        ):
            machine.run()
        assert machine.engine.events_processed == 0

    def test_sc_probe_serves_a_mesi_exclusive_write_hit(self, monkeypatch):
        """Under MESI a lone reader fills E, and its write is an owned
        hit the compiled table upgrades silently to M: the SC write
        probe serves it without entering ``memiface.write``."""
        from repro.caches import LineState
        from repro.experiments.resultcache import canonical_result_bytes
        from repro.system.memiface import NodeMemoryInterface

        calls = []
        original = NodeMemoryInterface.write

        def counted(self, addr, now):
            calls.append(addr)
            return original(self, addr, now)

        # On the class, before the machine is built, so the gates stay
        # open: Machine.interpose would close them.
        monkeypatch.setattr(NodeMemoryInterface, "write", counted)

        def body(world, env):
            addr = world.addr(0)
            if env.process_id == 0:
                yield (O.READ, addr)  # unshared: fills E
                yield (O.WRITE, addr)
            else:
                yield (O.BUSY, 1)

        def run(interposed):
            calls.clear()
            machine = Machine(dash_scaled_config(
                num_processors=2, consistency=Consistency.SC, protocol="mesi",
            ))
            if interposed:
                machine.interpose(
                    machine.protocol, "write", lambda orig: lambda *a, **k: orig(*a, **k)
                )
            program = Program(
                "mesi-e-write",
                lambda allocator, n: allocator.alloc_local("line", 4096, 0),
                body,
            )
            machine.load(program)
            result = machine.run()
            line = machine.protocol.line_of(program.world.addr(0))
            state = machine.protocol.caches[0].secondary.probe(line)
            return canonical_result_bytes(result), state, list(calls)

        inline, inline_state, inline_calls = run(interposed=False)
        assert inline_calls == []
        assert inline_state == LineState.DIRTY
        classic, classic_state, classic_calls = run(interposed=True)
        assert len(classic_calls) == 1  # the gate really was closed
        assert classic_state == LineState.DIRTY
        assert inline == classic


class TestInPlaceSwitch:
    """A yielding processor whose next event is another processor's
    continuation takes it in place (``EventEngine.schedule`` with
    ``take``); every outcome must equal the one the engine's dispatch
    loop produces."""

    @staticmethod
    def _smoke_machine(**changes):
        from repro.experiments import SMOKE_PROCESSES, build_app

        machine = Machine(
            dash_scaled_config(num_processors=SMOKE_PROCESSES, **changes)
        )
        machine.load(build_app("MP3D", "smoke"))
        return machine

    @staticmethod
    def _no_switch(monkeypatch):
        """Turn the in-place switch off: ``schedule`` drops ``take``, so
        it schedules, returns ``None`` and every event returns to
        ``run``."""
        from repro.sim.engine import EventEngine

        original = EventEngine.schedule
        monkeypatch.setattr(
            EventEngine,
            "schedule",
            lambda self, time, callback, take=None: original(self, time, callback),
        )

    @staticmethod
    def _via_take(excinfo) -> bool:
        """Was the error raised by a take inside ``schedule``?"""
        return any(entry.name == "schedule" for entry in excinfo.traceback)

    @staticmethod
    def _start(machine):
        """What ``Machine.run`` does before draining the calendar."""
        for processor in machine.processors:
            processor.start()

    def test_event_limit_overrun_reached_in_place_matches_run(self, monkeypatch):
        from repro.sim.engine import SimulationError

        limit = 5000
        with pytest.raises(SimulationError, match=f"event limit {limit} exceeded") as switched:
            self._smoke_machine(max_events=limit).run()
        assert self._via_take(switched)

        self._no_switch(monkeypatch)
        machine = self._smoke_machine(max_events=limit)
        with pytest.raises(SimulationError) as plain:
            machine.run()
        assert not self._via_take(plain)
        assert str(switched.value) == str(plain.value)
        assert machine.engine.events_processed == limit + 1

    def test_heartbeat_fires_at_exact_multiples(self):
        import sys

        machine = self._smoke_machine()
        beats = []
        in_place = []

        def beat(engine):
            beats.append(engine.events_processed)
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "schedule":
                frame = frame.f_back
            in_place.append(frame is not None)

        machine.engine.set_heartbeat(beat, every=97)
        result = machine.run()
        assert beats == list(range(97, result.events_processed + 1, 97))
        assert any(in_place)

    def test_run_until_fires_nothing_past_the_deadline(self, monkeypatch):
        from repro.sim.engine import TIME_INFINITY

        def drive(deadline):
            machine = self._smoke_machine()
            fired = []
            machine.engine.set_heartbeat(lambda e: fired.append(e.now), every=1)
            self._start(machine)
            machine.engine.run_until(deadline)
            engine = machine.engine
            queue = engine._queue
            assert engine.next_time == (min(queue)[0] if queue else TIME_INFINITY)
            state = (engine.now, engine.events_processed, engine.pending, engine.next_time)
            engine.run()
            finish = [p.finish_time for p in machine.processors]
            return fired, state, finish

        reference = self._smoke_machine().run()
        deadline = reference.execution_time // 3
        fired, state, finish = drive(deadline)
        assert fired and max(fired[:state[1]]) <= deadline
        assert state[3] > deadline
        assert max(finish) == reference.execution_time
        assert len(fired) == reference.events_processed

        self._no_switch(monkeypatch)
        assert drive(deadline) == (fired, state, finish)

    def test_exception_in_a_switched_processor_leaves_other_events_pending(
        self, monkeypatch
    ):
        from repro.processor.processor import Processor

        def body(shared, env):
            for i in range(40):
                yield (O.READ, shared.addr(16 * ((i * 7 + env.process_id) % 64)))
                yield (O.BUSY, 3)
                if env.process_id == 2 and i == 25:
                    raise RuntimeError("thread 2 failed")

        def attempt():
            """Run until thread 2 raises; return the nodes whose
            ``_loop`` the engine entered, and the calendar left behind."""
            entered = []
            original = Processor._loop

            def counting(self):
                entered.append(self.node_id)
                return original(self)

            with monkeypatch.context() as patch:
                # On the class, before the machine binds ``_loop_cb``.
                patch.setattr(Processor, "_loop", counting)
                machine = Machine(dash_scaled_config(num_processors=4))
                machine.load(Program(
                    "failing",
                    lambda allocator, n: allocator.alloc_round_robin("shared", 4096),
                    body,
                ))
                with pytest.raises(RuntimeError, match="thread 2 failed"):
                    machine.run()
            engine = machine.engine
            owner = {id(p._loop_cb): p.node_id for p in machine.processors}
            left = (
                engine.now,
                engine.events_processed,
                engine.next_time,
                sorted((t, seq, owner.get(id(cb))) for t, seq, cb in engine._queue),
            )
            return entered, left

        entered, left = attempt()
        # Node 2 was reached in place: the engine last entered another
        # processor's loop.
        assert entered[-1] != 2
        # Its continuation is consumed; every other one is still pending.
        assert sorted(node for _t, _s, node in left[3]) == [0, 1, 3]

        self._no_switch(monkeypatch)
        entered, plain = attempt()
        assert entered[-1] == 2
        assert plain == left
