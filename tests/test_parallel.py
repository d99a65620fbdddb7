"""Differential tests: serial vs parallel vs cache-replayed sweeps.

The parallel executor and the result cache are only admissible if they
change *where* and *whether* a point runs, never *what* it measures.
Every test here compares canonical result payloads byte-for-byte
across execution modes, for a Figure-2-style mini-sweep (cache on/off
per app) — including under a seeded fault plan.
"""

import pytest

from repro.config import dash_scaled_config
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    SweepPoint,
    app_config,
    canonical_result_bytes,
    sweep_points_for,
)
from repro.experiments.figures import figure2
from repro.experiments.parallel import JobsError, resolve_jobs, run_point
from repro.experiments.supervisor import ConfigStatus, ExperimentSupervisor
from repro.faults import FaultPlan


def _mini_fig2_points(fault_plan=None, apps=("MP3D", "LU")):
    """A Figure-2-style mini-sweep: cache off/on per app, 4 processors,
    smoke-scale data sets."""
    base = dash_scaled_config(num_processors=4, seed=7, fault_plan=fault_plan)
    points = []
    for app in apps:
        for caching in (False, True):
            label = "cache" if caching else "no_cache"
            points.append(
                SweepPoint(
                    name=f"{app}/{label}",
                    app=app,
                    dataset=app_config(app, "smoke"),
                    config=base.replace(caching_shared_data=caching),
                )
            )
    return points


def _payloads(report):
    return [canonical_result_bytes(e.result) for e in report.entries]


class TestSerialVsParallel:
    def test_parallel_results_bit_identical_to_serial(self):
        points = _mini_fig2_points()
        supervisor = ExperimentSupervisor()
        serial = supervisor.run_sweep_points("serial", points, jobs=1)
        parallel = supervisor.run_sweep_points("parallel", points, jobs=2)
        assert serial.ok and parallel.ok
        assert [e.name for e in serial.entries] == [e.name for e in parallel.entries]
        assert _payloads(serial) == _payloads(parallel)

    def test_parallel_identical_under_seeded_fault_plan(self):
        points = _mini_fig2_points(fault_plan=FaultPlan.smoke(seed=7), apps=("LU",))
        supervisor = ExperimentSupervisor()
        serial = supervisor.run_sweep_points("serial-faults", points, jobs=1)
        parallel = supervisor.run_sweep_points("parallel-faults", points, jobs=2)
        assert serial.ok and parallel.ok
        assert _payloads(serial) == _payloads(parallel)
        # The fault layer actually fired, and identically so.
        for entry_s, entry_p in zip(serial.entries, parallel.entries):
            assert entry_s.result.faults is not None
            assert entry_s.result.faults.faults_injected > 0
            assert entry_s.result.faults == entry_p.result.faults

    def test_report_preserves_sweep_order(self):
        points = _mini_fig2_points()
        report = ExperimentSupervisor().run_sweep_points("order", points, jobs=4)
        assert [e.name for e in report.entries] == [p.name for p in points]

    def test_parallel_isolates_a_crashing_point(self):
        # An impossible scale for PTHOR-as-named-app: unknown app name
        # crashes inside the worker; the other points must survive.
        points = _mini_fig2_points(apps=("LU",))
        points.insert(
            1, SweepPoint(name="boom", app="NOSUCH", dataset=app_config("LU", "smoke"))
        )
        report = ExperimentSupervisor().run_sweep_points("crash", points, jobs=2)
        assert not report.ok
        statuses = {e.name: e.status for e in report.entries}
        assert statuses["boom"] is ConfigStatus.FAILED
        assert all(
            s is ConfigStatus.PASSED for n, s in statuses.items() if n != "boom"
        )
        boom = next(e for e in report.entries if e.name == "boom")
        assert "NOSUCH" in boom.error


class TestCacheReplay:
    def test_cache_hits_replay_bit_identical_payloads(self, tmp_path):
        points = _mini_fig2_points()
        supervisor = ExperimentSupervisor()
        cache = ResultCache(tmp_path)
        first = supervisor.run_sweep_points("first", points, jobs=1, cache=cache)
        assert first.cache_hits == 0
        assert first.cache_misses == len(points)
        replay = supervisor.run_sweep_points("replay", points, jobs=1, cache=cache)
        assert replay.cache_hits == len(points)
        assert replay.cache_hits / len(points) >= 0.9
        assert _payloads(first) == _payloads(replay)

    def test_cache_replay_identical_under_fault_plan(self, tmp_path):
        points = _mini_fig2_points(fault_plan=FaultPlan.smoke(seed=7), apps=("LU",))
        supervisor = ExperimentSupervisor()
        cache = ResultCache(tmp_path)
        first = supervisor.run_sweep_points("first", points, jobs=1, cache=cache)
        replay = supervisor.run_sweep_points("replay", points, jobs=2, cache=cache)
        assert replay.cache_hits == len(points)
        assert _payloads(first) == _payloads(replay)

    def test_format_shows_cache_counters(self, tmp_path):
        points = _mini_fig2_points(apps=("LU",))
        supervisor = ExperimentSupervisor()
        cache = ResultCache(tmp_path)
        supervisor.run_sweep_points("first", points, jobs=1, cache=cache)
        text = supervisor.run_sweep_points(
            "replay", points, jobs=1, cache=cache
        ).format()
        assert "cache: 2 hits, 0 misses" in text
        assert "[cached]" in text


class TestRunnerIntegration:
    """The acceptance-criteria path: a Figure-2 sweep through the
    ExperimentRunner with jobs>1 and a persistent cache."""

    def test_figure2_parallel_prewarm_matches_serial(self, tmp_path):
        serial = ExperimentRunner(scale="smoke")
        bars_serial = figure2(serial)

        parallel = ExperimentRunner(scale="smoke", jobs=4, cache_dir=tmp_path)
        report = parallel.prewarm(sweep_points_for(["fig2"], parallel))
        assert report.ok
        bars_parallel = figure2(parallel)
        # Rendering consumed only pre-warmed results: no extra runs.
        assert parallel.runs_performed == len(report.entries)

        for app in bars_serial:
            for bar_s, bar_p in zip(bars_serial[app], bars_parallel[app]):
                assert bar_s.label == bar_p.label
                assert canonical_result_bytes(
                    bar_s.result
                ) == canonical_result_bytes(bar_p.result)

    def test_second_invocation_served_from_cache(self, tmp_path):
        first = ExperimentRunner(scale="smoke", jobs=2, cache_dir=tmp_path)
        points = sweep_points_for(["fig2"], first)
        report1 = first.prewarm(points)
        assert report1.cache_hits == 0

        second = ExperimentRunner(scale="smoke", jobs=2, cache_dir=tmp_path)
        report2 = second.prewarm(points)
        assert report2.cache_hits / len(points) >= 0.9
        assert "cache:" in report2.format()
        assert _payloads(report1) == _payloads(report2)

    def test_runner_run_consults_disk_cache_across_instances(self, tmp_path):
        config = dash_scaled_config(num_processors=4)
        first = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        result_a = first.run("LU", config)
        assert first.result_cache.stores == 1

        second = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        result_b = second.run("LU", config)
        assert second.result_cache.hits == 1
        assert canonical_result_bytes(result_a) == canonical_result_bytes(result_b)

    def test_scale_changes_the_cache_key(self, tmp_path):
        config = dash_scaled_config(num_processors=4)
        smoke = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        smoke.run("LU", config)
        bench = ExperimentRunner(scale="bench", cache_dir=tmp_path)
        bench.run("LU", config)
        assert bench.result_cache.hits == 0
        assert bench.result_cache.stores == 1


class TestJobsResolution:
    def test_explicit_jobs_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(JobsError, match=r"--jobs must be >= 1, got 0"):
            resolve_jobs(0)
        with pytest.raises(JobsError, match=r"--jobs must be >= 1"):
            resolve_jobs(-4)

    def test_non_integer_jobs_rejected(self):
        with pytest.raises(JobsError, match=r"--jobs must be a positive integer"):
            resolve_jobs(2.5)
        with pytest.raises(JobsError, match=r"--jobs"):
            resolve_jobs(True)  # bools are not job counts

    def test_garbage_env_rejected_naming_the_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(JobsError, match=r"REPRO_JOBS.*'banana'"):
            resolve_jobs(None)

    def test_nonpositive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(JobsError, match=r"REPRO_JOBS must be >= 1"):
            resolve_jobs(None)

    def test_jobs_error_reaches_the_cli_as_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["summary", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_cache_dir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        runner = ExperimentRunner(scale="smoke")
        assert runner.result_cache is not None
        assert runner.result_cache.root == tmp_path / "rc"


def test_run_point_matches_direct_run():
    point = SweepPoint(
        name="LU", app="LU", dataset=app_config("LU", "smoke"),
        config=dash_scaled_config(num_processors=4),
    )
    from repro.experiments import build_app
    from repro.system import run_program

    direct = run_program(
        build_app("LU", "smoke"), dash_scaled_config(num_processors=4)
    )
    assert canonical_result_bytes(run_point(point)) == canonical_result_bytes(direct)


def test_sweep_points_deduplicate_across_targets():
    runner = ExperimentRunner(scale="smoke")
    points = sweep_points_for(["fig3", "fig4", "table2"], runner)
    # fig3's SC/RC and table2's cached-SC are subsets of fig4's points:
    # 3 apps x (SC, SC+pf, RC, RC+pf) with no duplicates.
    keys = [(p.app, p.prefetching, p.config) for p in points]
    assert len(keys) == len(set(keys))
    assert len(points) == 12


def test_watchdog_limit_crosses_the_pool_boundary():
    from repro.experiments.parallel import _watchdog_wall_limit
    from repro.faults import Watchdog

    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(wall_clock_limit_s=42.0)
    )
    assert _watchdog_wall_limit(supervisor) == pytest.approx(42.0)
    assert _watchdog_wall_limit(ExperimentSupervisor()) is None


def test_watchdog_params_cross_the_pool_boundary():
    from repro.experiments.parallel import _watchdog_params
    from repro.faults import Watchdog

    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(
            wall_clock_limit_s=9.0, heartbeat_every=1234
        )
    )
    assert _watchdog_params(supervisor) == (pytest.approx(9.0), 1234)
    assert _watchdog_params(ExperimentSupervisor()) == (None, 250_000)


def test_exhausted_wall_limit_fails_points_through_the_pool():
    """A zero wall-clock budget trips the watchdog in every worker, so
    each point comes back FAILED with the WatchdogTimeout named — the
    supervisor's wall-limit semantics survive the pool boundary."""
    from repro.faults import Watchdog

    points = _mini_fig2_points(apps=("LU",))
    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(
            wall_clock_limit_s=0.0, heartbeat_every=50
        )
    )
    report = supervisor.run_sweep_points("starved", points, jobs=2)
    assert len(report.entries) == len(points)
    for entry in report.entries:
        assert entry.status is ConfigStatus.FAILED
        assert "WatchdogTimeout" in entry.error


class TestWorkerOutcomes:
    """Direct tests of the worker-side executor (run in-process)."""

    @staticmethod
    def _task(point, **kwargs):
        from repro.experiments.parallel import WorkerTask

        return WorkerTask(index=0, point=point, **kwargs)

    def test_interrupt_is_a_distinct_outcome(self):
        """KeyboardInterrupt in the worker must surface as
        ``interrupted`` — never folded into ``fail`` — so graceful
        shutdown can tell user cancellation from point crashes."""
        from repro.experiments.parallel import _execute_point_in_worker

        point = SweepPoint(
            name="LU/interrupt", app="LU", dataset=app_config("LU", "smoke"),
            config=dash_scaled_config(num_processors=2),
            chaos="interrupt",
        )
        outcome = _execute_point_in_worker(self._task(point))
        assert outcome.status == ConfigStatus.INTERRUPTED.value
        assert outcome.payload is None
        assert "cancelled mid-point" in outcome.error

    def test_system_exit_is_a_distinct_outcome(self, monkeypatch):
        from repro.experiments import parallel

        point = SweepPoint(
            name="boom", app="no-such-app", dataset=app_config("LU", "smoke"),
            chaos="exit",
        )
        monkeypatch.setattr(
            parallel, "inject_chaos",
            lambda spec: (_ for _ in ()).throw(SystemExit(3)),
        )
        outcome = parallel._execute_point_in_worker(self._task(point))
        assert outcome.status == ConfigStatus.INTERRUPTED.value
        assert outcome.error.startswith("SystemExit")

    def test_retry_exhaustion_reports_failed_with_attempt_count(self):
        """Every attempt timing out (transient) ends FAILED with
        ``attempts == max_attempts`` — the retry budget is visible, not
        silently swallowed."""
        from repro.experiments.parallel import _execute_point_in_worker

        point = SweepPoint(
            name="LU/starved", app="LU", dataset=app_config("LU", "smoke"),
            config=dash_scaled_config(num_processors=2),
        )
        outcome = _execute_point_in_worker(
            self._task(point, wall_limit=0.0, max_attempts=3, heartbeat_every=50)
        )
        assert outcome.status == ConfigStatus.FAILED.value
        assert outcome.attempts == 3
        assert outcome.payload is None
        assert "WatchdogTimeout" in outcome.error

    def test_non_transient_failure_does_not_burn_the_retry_budget(self):
        from repro.experiments.parallel import _execute_point_in_worker

        point = SweepPoint(
            name="bad", app="no-such-app", dataset=app_config("LU", "smoke")
        )
        outcome = _execute_point_in_worker(self._task(point, max_attempts=3))
        assert outcome.status == ConfigStatus.FAILED.value
        assert outcome.attempts == 1
        assert outcome.error
