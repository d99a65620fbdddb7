"""Fault injection, NACK/retry, watchdogs, deadlock diagnostics, and
the crash-isolating experiment supervisor."""

import pytest

from repro.config import dash_scaled_config
from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
from repro.experiments.supervisor import ConfigStatus, ExperimentSupervisor
from repro.faults import (
    BackoffPolicy,
    FaultPlan,
    RetryBudgetExceeded,
    Watchdog,
    WatchdogTimeout,
)
from repro.sim import DeadlockError, EventEngine
from repro.sim.engine import SimulationError
from repro.system import Machine, run_program
from repro.tango import Program
from repro.tango import ops as O

APPS = ("MP3D", "LU", "PTHOR")


def smoke_config(**changes):
    return dash_scaled_config(num_processors=SMOKE_PROCESSES, **changes)


def run_smoke(app, **changes):
    return run_program(smoke_program(app), smoke_config(**changes))


# -- fault plans ------------------------------------------------------------


def test_plan_presets_and_emptiness():
    assert FaultPlan.empty().is_empty
    assert FaultPlan.preset("none", seed=3).is_empty
    assert not FaultPlan.smoke().is_empty
    assert not FaultPlan.preset("heavy").is_empty
    with pytest.raises(KeyError):
        FaultPlan.preset("nope")


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(delay_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(delay_max_cycles=0, delay_rate=0.1)
    with pytest.raises(ValueError):
        # Drops with a zero retry budget could never make progress.
        FaultPlan(drop_rate=0.1, backoff=BackoffPolicy(max_retries=0))


def test_backoff_grows_exponentially_and_caps():
    backoff = BackoffPolicy(
        initial_cycles=10, multiplier=2, cap_cycles=75, max_retries=8
    )
    assert [backoff.delay_for(k) for k in range(5)] == [10, 20, 40, 75, 75]
    with pytest.raises(ValueError):
        backoff.delay_for(-1)
    with pytest.raises(ValueError):
        BackoffPolicy(multiplier=0)


# -- empty plan is bit-identical (regression for the fast path) -------------


RESULT_FIELDS = (
    "execution_time",
    "events_processed",
    "per_processor",
    "protocol",
    "sync",
    "prefetch",
    "shared_reads",
    "shared_writes",
    "read_hits",
    "read_misses",
    "write_hits",
    "write_misses",
    "shared_data_bytes",
    "run_lengths",
)


@pytest.mark.parametrize("app", APPS)
def test_empty_plan_is_bit_identical_to_no_fault_layer(app):
    bare = run_smoke(app)
    empty = run_smoke(app, fault_plan=FaultPlan.empty(seed=99), seed=123)
    assert empty.faults is None  # no layer was installed at all
    for field in RESULT_FIELDS:
        assert getattr(bare, field) == getattr(empty, field), field


# -- fault runs: completion, determinism, sanitizer --------------------------


@pytest.mark.parametrize("app", APPS)
def test_seeded_faults_complete_and_pass_sanitizer(app):
    machine = Machine(
        smoke_config(sanitize=True, fault_plan=FaultPlan.smoke(seed=11))
    )
    machine.load(smoke_program(app))
    result = machine.run()  # SimulationError if any invariant breaks

    baseline = run_smoke(app)
    stats = result.faults
    assert stats is not None
    assert stats.eligible_transactions > 0
    assert stats.nacks_injected > 0
    assert stats.drops_injected > 0
    assert stats.delays_injected > 0
    assert stats.retries > 0
    assert result.fault_retries == stats.retries
    assert stats.added_cycles == stats.retry_cycles + stats.delay_cycles
    assert result.execution_time >= baseline.execution_time
    assert machine.sanitizer.checks_performed > 0
    assert sum(d.nacks_sent for d in machine.directories) == stats.nacks_injected


def test_sanitizer_sits_inside_the_fault_injector():
    """The sanitizer installs first, so it records every transaction
    with the protocol's own retire time; the injector's response delays
    are added outside it, on the way back to the memory interface."""
    from repro.analysis.invariants import TransitionTrace

    plan = FaultPlan(seed=2, delay_rate=0.5)
    machine = Machine(smoke_config(sanitize=True, fault_plan=plan))
    machine.sanitizer.trace = TransitionTrace(depth=10**6)
    returned = []

    def outermost(original):
        def wrapper(*args, **kwargs):
            outcome = original(*args, **kwargs)
            if outcome is not None:
                returned.append(outcome.retire)
            return outcome

        return wrapper

    for name in machine.protocol.ENTRY_POINTS:
        machine.interpose(machine.protocol, name, outermost)
    machine.load(smoke_program("LU"))
    result = machine.run()

    recorded = [
        t.retire for t in machine.sanitizer.trace._entries
        if not t.kind.endswith("-drop")
    ]
    assert len(recorded) == len(returned)
    held = [out - seen for out, seen in zip(returned, recorded)]
    assert min(held) == 0
    assert sum(held) == result.faults.delay_cycles > 0


def test_fault_schedule_is_reproducible_and_seed_sensitive():
    a = run_smoke("LU", fault_plan=FaultPlan.smoke(seed=5))
    b = run_smoke("LU", fault_plan=FaultPlan.smoke(seed=5))
    assert a.execution_time == b.execution_time
    assert a.faults.retries == b.faults.retries
    assert a.faults.retries_by_kind == b.faults.retries_by_kind

    c = run_smoke("LU", fault_plan=FaultPlan.smoke(seed=6))
    fingerprint = lambda r: (  # noqa: E731
        r.execution_time,
        r.faults.nacks_injected,
        r.faults.drops_injected,
        r.faults.delays_injected,
        r.faults.duplicates_injected,
        r.faults.retry_cycles,
    )
    assert fingerprint(a) != fingerprint(c)


def test_machine_seed_perturbs_plan_stream():
    a = run_smoke("LU", fault_plan=FaultPlan.smoke(seed=5), seed=0)
    b = run_smoke("LU", fault_plan=FaultPlan.smoke(seed=5), seed=1)
    assert (a.execution_time, a.faults.retry_cycles) != (
        b.execution_time,
        b.faults.retry_cycles,
    )


def test_delay_and_duplicate_only_plan_never_retries():
    plan = FaultPlan(seed=2, delay_rate=0.3, duplicate_rate=0.2)
    result = run_smoke("LU", fault_plan=plan)
    stats = result.faults
    assert stats.delays_injected > 0
    assert stats.duplicates_injected > 0
    assert stats.retries == 0
    assert stats.retry_cycles == 0
    assert result.execution_time >= run_smoke("LU").execution_time


def test_retry_budget_exhaustion_raises():
    plan = FaultPlan(
        seed=1, nack_rate=1.0, backoff=BackoffPolicy(max_retries=2)
    )
    with pytest.raises(RetryBudgetExceeded, match="gave up after"):
        run_smoke("LU", fault_plan=plan)


# -- watchdog ---------------------------------------------------------------


def rearming_engine(event_limit=10_000_000):
    engine = EventEngine(event_limit=event_limit)

    def rearm():
        engine.schedule(engine.now + 1, rearm)

    engine.schedule(0, rearm)
    return engine


def test_watchdog_times_out_hung_run():
    engine = rearming_engine()
    watchdog = Watchdog(wall_clock_limit_s=0.0, heartbeat_every=100)
    watchdog.attach(engine)
    with pytest.raises(WatchdogTimeout, match="heartbeat trail"):
        engine.run()
    assert watchdog.heartbeats  # progress was recorded before the abort


def test_watchdog_records_heartbeats_without_limit():
    engine = EventEngine()
    for t in range(35):
        engine.schedule(t, lambda: None)
    beats = []
    watchdog = Watchdog(
        wall_clock_limit_s=None, heartbeat_every=10, on_heartbeat=beats.append
    )
    watchdog.attach(engine)
    engine.run()
    assert len(beats) == 3
    assert [b.events for b in beats] == [10, 20, 30]


def test_machine_run_accepts_watchdog():
    result = run_program(
        smoke_program("LU"),
        smoke_config(),
        watchdog=Watchdog(wall_clock_limit_s=300.0),
    )
    assert result.execution_time > 0


# -- deadlock diagnostics ---------------------------------------------------


def stuck_flag_program():
    def setup(allocator, num_processes):
        return {"sync": allocator.alloc_round_robin("sync", 4096)}

    def factory(world, env):
        def thread():
            yield (O.BUSY, 5)
            if env.process_id == 0:
                yield (O.FLAG_WAIT, world["sync"].addr(0))  # never set

        return thread()

    return Program("stuck-flag", setup, factory)


def test_deadlock_dumps_who_waits_on_what():
    machine = Machine(dash_scaled_config(num_processors=2))
    machine.load(stuck_flag_program())
    with pytest.raises(DeadlockError) as excinfo:
        machine.run()
    message = str(excinfo.value)
    assert "who waits on what" in message
    assert "sync_wait" in message
    assert "flag" in message
    assert "waiting nodes [0]" in message


def test_deadlock_reports_barrier_arrivals():
    def setup(allocator, num_processes):
        return {"sync": allocator.alloc_round_robin("sync", 4096)}

    def factory(world, env):
        def thread():
            yield (O.BUSY, 10)
            if env.process_id == 0:
                return  # never arrives
            yield (O.BARRIER, world["sync"].addr(0), env.num_processes)

        return thread()

    machine = Machine(dash_scaled_config(num_processors=4))
    machine.load(Program("missing-participant", setup, factory))
    with pytest.raises(DeadlockError, match=r"3/4 \s*arrived"):
        machine.run()


# -- experiment supervisor --------------------------------------------------


def test_supervisor_isolates_a_crashing_config():
    def boom():
        raise SimulationError("deliberately broken configuration")

    report = ExperimentSupervisor().run_sweep(
        "demo",
        [("good-1", lambda: 1), ("bad", boom), ("good-2", lambda: 2)],
    )
    assert [e.status for e in report.entries] == [
        ConfigStatus.PASSED,
        ConfigStatus.FAILED,
        ConfigStatus.PASSED,
    ]
    assert not report.ok
    assert report.results() == [1, 2]
    assert report.failed[0].name == "bad"
    assert "deliberately broken" in report.failed[0].error
    assert "1 failed" in report.format()


def test_supervisor_retries_transient_failure_once():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 1:
            raise WatchdogTimeout("first attempt starved")
        return 42

    report = ExperimentSupervisor().run_sweep("demo", [("flaky", flaky)])
    entry = report.entries[0]
    assert entry.status is ConfigStatus.DEGRADED
    assert entry.attempts == 2
    assert entry.result == 42
    assert "starved" in entry.error
    assert report.ok  # degraded still counts as completed


def test_supervisor_does_not_retry_permanent_failures():
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("logic bug")

    report = ExperimentSupervisor().run_sweep("demo", [("broken", broken)])
    assert report.entries[0].status is ConfigStatus.FAILED
    assert len(calls) == 1  # no pointless second attempt


def test_supervisor_passes_watchdog_to_willing_jobs():
    seen = []

    def job(watchdog=None):
        seen.append(watchdog)
        return "done"

    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(wall_clock_limit_s=1.0)
    )
    report = supervisor.run_sweep("demo", [("job", job), ("thunk", lambda: 0)])
    assert report.ok
    assert isinstance(seen[0], Watchdog)


def test_sweep_with_one_hostile_config_degrades_gracefully():
    """Acceptance: a sweep where one configuration deliberately fails
    (retry budget too small for a 100% NACK network) still produces a
    partial report: the hostile config is marked failed, the rest pass."""
    hostile = FaultPlan(seed=1, nack_rate=1.0, backoff=BackoffPolicy(max_retries=1))
    jobs = [
        ("LU/clean", lambda: run_smoke("LU")),
        ("LU/hostile", lambda: run_smoke("LU", fault_plan=hostile)),
        ("LU/faulty-but-survivable",
         lambda: run_smoke("LU", fault_plan=FaultPlan.smoke(seed=4))),
    ]
    report = ExperimentSupervisor().run_sweep("figure-demo", jobs)
    assert not report.ok
    assert [e.name for e in report.failed] == ["LU/hostile"]
    # Transient classification: the hostile config got its one retry.
    assert report.failed[0].attempts == 2
    assert len(report.results()) == 2
    assert "RetryBudgetExceeded" in report.failed[0].error


# -- counter hygiene across supervised runs ----------------------------------


def test_back_to_back_supervised_runs_do_not_leak_counters():
    """Regression: two identical seeded fault runs in one supervised
    sweep must report identical per-run counters — machines are built
    fresh, so nothing (nacks_sent, retries, protocol stats) may
    accumulate from the first run into the second."""
    machines = []

    def job():
        machine = Machine(
            smoke_config(sanitize=True, fault_plan=FaultPlan.smoke(seed=11))
        )
        machine.load(smoke_program("LU"))
        result = machine.run()
        machines.append(machine)
        return result

    report = ExperimentSupervisor().run_sweep(
        "leak-check", [("first", job), ("second", job)]
    )
    assert report.ok
    first, second = report.results()
    assert first.faults.nacks_injected == second.faults.nacks_injected
    assert first.faults.retries == second.faults.retries
    assert first.execution_time == second.execution_time
    totals = [
        sum(d.nacks_sent for d in machine.directories)
        for machine in machines
    ]
    assert totals[0] == totals[1] == first.faults.nacks_injected
    for machine in machines:
        for name, value in machine.protocol.stats.counter_items():
            assert value >= 0, name


def test_directory_and_stats_reset():
    """The explicit reset hooks zero the counters a reused machine
    would otherwise carry over."""
    machine = Machine(
        smoke_config(sanitize=True, fault_plan=FaultPlan.smoke(seed=11))
    )
    machine.load(smoke_program("LU"))
    machine.run()
    stats = machine.protocol.stats
    assert any(value > 0 for _name, value in stats.counter_items())
    stats.reset()
    assert all(value == 0 for _name, value in stats.counter_items())
    for directory in machine.directories:
        directory.reset()
        assert directory.nacks_sent == 0


def test_sanitizer_catches_negative_counter():
    """The end-of-run full sweep now asserts counter non-negativity."""
    machine = Machine(smoke_config(sanitize=True))
    machine.load(smoke_program("LU"))
    machine.directories[0].nacks_sent = -1
    with pytest.raises(SimulationError, match="nacks_sent"):
        machine.run()
