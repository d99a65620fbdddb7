"""Tests for the analysis subsystem: vector clocks, the logical op
executor, the op-stream linter, the race detector, and the coherence
invariant sanitizer."""

import pytest

from repro.analysis import (
    CoherenceSanitizer,
    LogicalExecutor,
    OpLinter,
    RaceDetector,
    VectorClock,
    join_all,
    lint_ops,
    lint_program,
)
from repro.config import dash_scaled_config
from repro.sim.engine import DeadlockError, SimulationError
from repro.system import Machine
from repro.tango import Program
from repro.tango import ops as O


# -- vector clocks -----------------------------------------------------------

class TestVectorClock:
    def test_tick_and_epoch(self):
        clock = VectorClock()
        assert clock.epoch(3) == (3, 0)
        assert clock.tick(3) == (3, 1)
        assert clock.tick(3) == (3, 2)
        assert clock.get(3) == 2
        assert clock.get(0) == 0

    def test_join_is_pointwise_max(self):
        a = VectorClock({0: 3, 1: 1})
        b = VectorClock({1: 5, 2: 2})
        a.join(b)
        assert a == VectorClock({0: 3, 1: 5, 2: 2})

    def test_dominates_epoch(self):
        clock = VectorClock({0: 4})
        assert clock.dominates_epoch((0, 4))
        assert clock.dominates_epoch((0, 1))
        assert not clock.dominates_epoch((0, 5))
        assert not clock.dominates_epoch((1, 1))

    def test_partial_order(self):
        small = VectorClock({0: 1})
        big = VectorClock({0: 2, 1: 1})
        assert small <= big
        assert not big <= small

    def test_join_all(self):
        merged = join_all(
            [VectorClock({0: 1}), VectorClock({1: 2}), VectorClock({0: 3})]
        )
        assert merged == VectorClock({0: 3, 1: 2})

    def test_copy_is_independent(self):
        clock = VectorClock({0: 1})
        other = clock.copy()
        other.tick(0)
        assert clock.get(0) == 1


# -- test program helpers ----------------------------------------------------

def _program(thread_bodies, shared=("data", 64)):
    """A program with fixed per-thread op scripts; addresses are taken
    from a single region allocated at setup."""
    name, size = shared

    def setup(allocator, num_processes):
        return allocator.alloc_round_robin(name, size)

    def factory(region, env):
        def thread():
            for op in thread_bodies[env.process_id](region):
                yield op

        return thread()

    return Program("analysis-test", setup, factory)


# -- logical executor --------------------------------------------------------

class TestLogicalExecutor:
    def test_runs_threads_and_counts(self):
        bodies = [
            lambda r: [O.read(r.addr(0)), O.write(r.addr(0))],
            lambda r: [O.busy(5), O.read(r.addr(16))],
        ]
        executor = LogicalExecutor(_program(bodies), 2)
        summary = executor.run()
        assert summary.reads == 2
        assert summary.writes == 1
        assert summary.ops_executed == 4

    def test_lock_mutual_exclusion_order(self):
        events = []

        class Recorder(RaceDetector):
            def on_lock_acquired(self, thread, addr):
                events.append(("acq", thread))
                super().on_lock_acquired(thread, addr)

            def on_unlock(self, thread, addr):
                events.append(("rel", thread))
                super().on_unlock(thread, addr)

        bodies = [
            lambda r: [O.lock(r.addr(0)), O.busy(1), O.unlock(r.addr(0))]
        ] * 3
        LogicalExecutor(_program(bodies), 3, listeners=[Recorder()]).run()
        # Acquire/release strictly alternate: the lock is exclusive.
        for i in range(0, len(events), 2):
            assert events[i][0] == "acq"
            assert events[i + 1] == ("rel", events[i][1])

    def test_barrier_joins_all_threads(self):
        released = []

        class Recorder(RaceDetector):
            def on_barrier_release(self, addr, threads):
                released.append(sorted(threads))
                super().on_barrier_release(addr, threads)

        bodies = [lambda r: [O.barrier(r.addr(0), 4)]] * 4
        LogicalExecutor(_program(bodies), 4, listeners=[Recorder()]).run()
        assert released == [[0, 1, 2, 3]]

    def test_deadlock_on_missing_barrier_participant(self):
        bodies = [
            lambda r: [O.barrier(r.addr(0), 2)],
            lambda r: [O.busy(1)],  # never arrives
        ]
        with pytest.raises(DeadlockError, match="BARRIER"):
            LogicalExecutor(_program(bodies), 2).run()

    def test_deadlock_on_self_relock(self):
        bodies = [lambda r: [O.lock(r.addr(0)), O.lock(r.addr(0))]]
        with pytest.raises(DeadlockError, match="LOCK"):
            LogicalExecutor(_program(bodies), 1).run()

    def test_strict_rejects_unknown_opcode(self):
        bodies = [lambda r: [(99, 0)]]
        with pytest.raises(SimulationError, match="unknown opcode"):
            LogicalExecutor(_program(bodies), 1).run()

    def test_flag_wait_blocks_until_set(self):
        order = []
        bodies = [
            lambda r: [O.flag_wait(r.addr(0)), O.read(r.addr(16))],
            lambda r: [O.busy(1), O.flag_set(r.addr(0))],
        ]

        class Recorder(RaceDetector):
            def on_read(self, thread, index, addr):
                order.append("read")
                super().on_read(thread, index, addr)

            def on_flag_set(self, thread, addr):
                order.append("set")
                super().on_flag_set(thread, addr)

        LogicalExecutor(_program(bodies), 2, listeners=[Recorder()]).run()
        assert order == ["set", "read"]

    def test_spinning_thread_does_not_starve_others(self):
        # Thread 0 spins on a flag only thread 1 can set; the time slice
        # must rotate execution to thread 1 so the run terminates.
        def spinner(r):
            yield O.busy(1)

        bodies = [
            lambda r: iter([O.busy(1)] * 2000 + [O.flag_wait(r.addr(0))]),
            lambda r: [O.flag_set(r.addr(0))],
        ]
        summary = LogicalExecutor(_program(bodies), 2, slice_ops=50).run()
        assert summary.ops_executed == 2002


# -- op-stream lint ----------------------------------------------------------

class TestOpLint:
    def _codes(self, ops, **kwargs):
        return [issue.code for issue in lint_ops(ops, **kwargs)]

    def test_clean_stream(self):
        ops = [O.busy(3), O.lock(64), O.write(64), O.unlock(64),
               O.barrier(128, 1)]
        assert lint_ops(ops, num_processes=1) == []

    def test_not_a_tuple_and_empty(self):
        assert self._codes(["READ"]) == ["not-a-tuple"]
        assert self._codes([()]) == ["empty-op"]

    def test_unknown_opcode(self):
        assert self._codes([(42, 0)]) == ["unknown-opcode"]

    def test_bad_arity(self):
        assert self._codes([(O.READ, 1, 2)]) == ["bad-arity"]
        assert self._codes([(O.BARRIER, 64)]) == ["bad-arity"]

    def test_bad_operands(self):
        assert self._codes([(O.BUSY, -1)]) == ["bad-operand"]
        assert self._codes([(O.READ, "addr")]) == ["bad-operand"]
        assert self._codes([(O.WRITE, -8)]) == ["bad-operand"]
        assert self._codes([(O.PREFETCH, 64, 1)]) == ["bad-operand"]
        assert self._codes([(O.BARRIER, 64, 0)]) == ["bad-operand"]

    def test_lock_pairing(self):
        assert self._codes([O.unlock(64)]) == ["unlock-without-lock"]
        assert self._codes([O.lock(64), O.lock(64)]) == [
            "recursive-lock", "lock-left-held", "lock-left-held"]
        assert self._codes([O.lock(64)]) == ["lock-left-held"]

    def test_barrier_overcommit_and_mismatch(self):
        assert self._codes(
            [O.barrier(64, 5)], num_processes=2) == ["barrier-overcommit"]
        assert self._codes(
            [O.barrier(64, 2), O.barrier(64, 3)], num_processes=4
        ) == ["barrier-mismatch"]

    def test_flag_never_set(self):
        assert self._codes([O.flag_wait(64)]) == ["flag-never-set"]
        assert self._codes([O.flag_set(64), O.flag_wait(64)]) == []

    def test_unmapped_addr(self):
        from repro.memlayout import SharedMemoryAllocator

        allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
        region = allocator.alloc_round_robin("data", 64)
        assert self._codes([O.read(region.base)], allocator=allocator) == []
        assert self._codes(
            [O.read(region.base + 10_000_000)], allocator=allocator
        ) == ["unmapped-addr"]

    def test_location_format_is_stable(self):
        """``source:t<thread>:op#<index>`` is machine-parseable and part
        of the tool contract (CI greps it)."""
        issues = lint_ops([(42, 0)], thread=3, source="myapp")
        issue = issues[0]
        assert issue.source == "myapp"
        assert issue.location == "myapp:t3:op#0"
        assert str(issue) == (
            "[error] myapp:t3:op#0 unknown-opcode: "
            "opcode 42 is not in the Tango vocabulary"
        )

    def test_location_defaults_and_end_of_stream_marker(self):
        issues = lint_ops([O.lock(64)])
        assert issues[0].code == "lock-left-held"
        assert issues[0].location == "<ops>:t0:op#-1"

    def test_lint_program_stamps_program_name_as_source(self):
        from repro.apps.lu.app import LUConfig, lu_program

        program = lu_program(LUConfig(n=12))
        linter = OpLinter(source=program.name)
        assert linter.source == program.name

    def test_failures_strict_promotes_warnings(self):
        from repro.analysis.oplint import WARNING, LintIssue

        linter = OpLinter()
        linter.issues.append(
            LintIssue(WARNING, 0, 1, "some-warning", "advisory")
        )
        assert linter.failures() == []
        assert linter.failures(strict=True) == linter.issues
        assert linter.warnings == linter.issues

    def test_lint_program_clean_on_real_apps(self):
        from repro.apps.lu.app import LUConfig, lu_program
        from repro.apps.mp3d.app import MP3DConfig, mp3d_program

        assert lint_program(lu_program(LUConfig(n=12)), 4) == []
        config = MP3DConfig(
            num_particles=60, space_x=4, space_y=4, space_z=3, time_steps=1
        )
        assert lint_program(mp3d_program(config), 4) == []


# -- race detection ----------------------------------------------------------

class TestRaceDetector:
    def _run(self, bodies, n):
        detector = RaceDetector()
        LogicalExecutor(_program(bodies), n, listeners=[detector]).run()
        return detector

    def test_unsynchronized_write_write_race(self):
        bodies = [lambda r: [O.write(r.addr(0))]] * 2
        detector = self._run(bodies, 2)
        assert detector.races_found == 1
        assert detector.reports[0].kind == "write-write"
        assert detector.reports[0].region == "data"

    def test_unsynchronized_write_read_race(self):
        bodies = [
            lambda r: [O.write(r.addr(0))],
            lambda r: [O.read(r.addr(0))],
        ]
        detector = self._run(bodies, 2)
        kinds = {report.kind for report in detector.reports}
        # One direction races; which one depends on scheduling order.
        assert kinds <= {"write-read", "read-write"}
        assert detector.races_found >= 1

    def test_lock_ordering_suppresses_race(self):
        bodies = [
            lambda r: [O.lock(r.addr(16)), O.write(r.addr(0)),
                       O.unlock(r.addr(16))],
        ] * 2
        assert self._run(bodies, 2).races_found == 0

    def test_flag_ordering_suppresses_race(self):
        bodies = [
            lambda r: [O.write(r.addr(0)), O.flag_set(r.addr(16))],
            lambda r: [O.flag_wait(r.addr(16)), O.read(r.addr(0))],
        ]
        assert self._run(bodies, 2).races_found == 0

    def test_barrier_ordering_suppresses_race(self):
        bodies = [
            lambda r: [O.write(r.addr(0)), O.barrier(r.addr(16), 2)],
            lambda r: [O.barrier(r.addr(16), 2), O.read(r.addr(0))],
        ]
        assert self._run(bodies, 2).races_found == 0

    def test_concurrent_reads_are_not_racy(self):
        bodies = [lambda r: [O.read(r.addr(0))]] * 4
        assert self._run(bodies, 4).races_found == 0

    def test_race_after_barrier_still_detected(self):
        bodies = [
            lambda r: [O.barrier(r.addr(16), 2), O.write(r.addr(0))],
        ] * 2
        assert self._run(bodies, 2).races_found == 1

    def test_mp3d_has_benign_move_phase_races(self):
        """The paper notes MP3D's move phase updates space cells without
        locks; the detector must surface those races."""
        from repro.apps.mp3d.app import MP3DConfig, mp3d_program

        config = MP3DConfig(
            num_particles=120, space_x=4, space_y=6, space_z=3, time_steps=2
        )
        detector = RaceDetector()
        LogicalExecutor(
            mp3d_program(config), 8, listeners=[detector]
        ).run()
        assert detector.races_found >= 1
        assert any(
            report.region == "mp3d.cells" for report in detector.reports
        )

    def test_lu_is_race_free(self):
        """LU's pivot-column flags and barriers fully order its accesses."""
        from repro.apps.lu.app import LUConfig, lu_program

        detector = RaceDetector()
        LogicalExecutor(
            lu_program(LUConfig(n=16)), 8, listeners=[detector]
        ).run()
        assert detector.races_found == 0

    def test_report_cap(self):
        bodies = [
            lambda r: [O.write(r.addr(off)) for off in range(0, 64, 16)]
        ] * 2
        detector = RaceDetector(max_reports=2)
        LogicalExecutor(_program(bodies), 2, listeners=[detector]).run()
        assert len(detector.reports) == 2
        assert detector.races_found == 4


# -- coherence sanitizer -----------------------------------------------------

def _sanitized_machine(num_processors=4):
    return Machine(
        dash_scaled_config(num_processors=num_processors, sanitize=True)
    )


def _sharing_program(iterations=10):
    def setup(allocator, num_processes):
        return allocator.alloc_round_robin("shared", 256)

    def factory(region, env):
        def thread():
            for i in range(iterations):
                yield O.read(region.addr((i * 16) % 256))
                yield O.write(region.addr((i * 16) % 256))

        return thread()

    return Program("sharing", setup, factory)


class TestCoherenceSanitizer:
    def test_clean_run_passes_checks(self):
        machine = _sanitized_machine()
        assert machine.sanitizer is not None
        machine.load(_sharing_program())
        machine.run()
        assert machine.sanitizer.checks_performed > 0

    def test_disabled_by_default(self):
        machine = Machine(dash_scaled_config(num_processors=2))
        assert machine.sanitizer is None

    def test_corrupted_directory_entry_is_caught_with_trace(self):
        from repro.coherence.directory import DirState

        machine = _sanitized_machine()
        machine.load(_sharing_program())
        protocol = machine.protocol
        wrapped_write = protocol.write
        count = [0]

        def corrupting_write(node, addr, time, **kwargs):
            outcome = wrapped_write(node, addr, time, **kwargs)
            count[0] += 1
            if count[0] == 10:
                line = protocol.line_of(addr)
                home = protocol.home_of(line)
                entry = protocol.directories[home].entry(line)
                entry.state = DirState.SHARED  # really dirty at owner
            return outcome

        protocol.write = corrupting_write
        with pytest.raises(SimulationError) as excinfo:
            machine.run()
        message = str(excinfo.value)
        assert "coherence invariant violated" in message
        assert "transition trace" in message
        # The trace lists recent transactions with their timing.
        assert "retire=" in message

    def test_swmr_violation_is_caught(self):
        from repro.caches import LineState

        machine = _sanitized_machine()
        machine.load(_sharing_program())
        protocol = machine.protocol
        wrapped_write = protocol.write
        count = [0]

        def corrupting_write(node, addr, time, **kwargs):
            outcome = wrapped_write(node, addr, time, **kwargs)
            count[0] += 1
            if count[0] == 10:
                # Force a second dirty copy into another node's cache.
                line = protocol.line_of(addr)
                other = (node + 1) % len(protocol.caches)
                protocol.caches[other].secondary.insert(
                    line, LineState.DIRTY
                )
            return outcome

        protocol.write = corrupting_write
        with pytest.raises(SimulationError, match="SWMR|imprecise"):
            machine.run()

    def test_buffer_bound_violation_is_caught(self):
        machine = _sanitized_machine(num_processors=2)
        machine.load(_sharing_program(iterations=4))
        iface = machine.memifaces[0]
        # Overfill the write buffer behind the interface's back.
        for t in range(machine.config.write_buffer_depth + 1):
            iface._wb_retires.append(10**9 + t)
        with pytest.raises(SimulationError, match="write buffer holds"):
            machine.run()

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (
                lambda iface: setattr(iface, "_next_expiry", 10**12),
                "_next_expiry=",
            ),
            (lambda iface: setattr(iface, "_next_fill", 10**12), "_next_fill="),
        ],
        ids=["expiry-watermark", "fill-watermark"],
    )
    def test_stale_watermark_is_caught(self, corrupt, message):
        from repro.config import Consistency

        machine = Machine(
            dash_scaled_config(
                num_processors=2, consistency=Consistency.RC, sanitize=True
            )
        )
        region = machine.allocator.alloc_local("remote", 4096, 1)
        iface = machine.memifaces[0]
        # Real pending state: a buffered remote write, an in-flight
        # prefetch, and a fill due back while another context runs.
        iface.write(region.addr(0), 0)
        iface.prefetch(region.addr(64), False, 1)
        iface.note_fill_arrival(500)
        machine.sanitizer.check_buffers(iface)  # consistent so far
        corrupt(iface)
        with pytest.raises(SimulationError, match=message):
            machine.sanitizer.check_buffers(iface)

    def test_uninstall_restores_methods(self):
        machine = _sanitized_machine(num_processors=2)
        wrapped = machine.protocol.read
        machine.sanitizer.uninstall()
        assert machine.protocol.read is not wrapped
        machine.load(_sharing_program(iterations=4))
        machine.run()  # runs clean without instrumentation

    def test_sanitized_and_plain_runs_agree_on_timing(self):
        plain = Machine(dash_scaled_config(num_processors=4))
        plain.load(_sharing_program())
        plain_result = plain.run()
        sanitized = _sanitized_machine()
        sanitized.load(_sharing_program())
        sanitized_result = sanitized.run()
        assert (
            plain_result.execution_time == sanitized_result.execution_time
        )


# -- CLI ---------------------------------------------------------------------

class TestCheckCommand:
    def test_check_subcommand_passes(self, capsys):
        from repro.cli import main

        status = main(["check", "--app", "LU", "--checks", "lint,races"])
        captured = capsys.readouterr()
        assert status == 0
        assert "check: ok" in captured.out

    def test_check_rejects_unknown_check(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "--checks", "nonsense"])
