"""The pool driver under killed, hung and interrupted workers.

The acceptance test mirrors a real operational incident end to end: a
sweep whose pool workers get SIGKILLed mid-run is interrupted, then
rerun over the same result cache.  The rerun must replay exactly the
points the first run finished, simulate the rest, and finish with
payload digests **bit-identical** to the committed goldens
(``tests/goldens/*.json``) — the same digests an uninterrupted serial
run produces — while the point that keeps killing its workers is
quarantined instead of aborting the sweep.

Everything here is deterministic: chaos is injected per point (not by
timing), interruption uses :class:`ServiceControl`'s ``stop_after``
test hook (the exact code path a SIGINT takes), and "did the rerun
measure the same thing" is a hash comparison, not a heuristic.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, app_config, run_point
from repro.experiments.parallel import (
    PoolSupervisor,
    ServiceControl,
    ServicePolicy,
    SweepPoint,
    execute_sweep_points,
)
from repro.experiments.resultcache import ResultCache, canonical_result_bytes
from repro.experiments.supervisor import ConfigStatus, ExperimentSupervisor

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_APPS = ("MP3D", "LU", "PTHOR")

#: Fast supervision knobs for tests: tight polling, standard two-strike
#: quarantine.
FAST = ServicePolicy(poison_threshold=2, poll_interval_s=0.05)


def _golden_points():
    """The exact (app, data set, config) points the committed goldens pin."""
    config = dash_scaled_config(num_processors=SMOKE_PROCESSES)
    return [
        SweepPoint(name=app, app=app, dataset=app_config(app, "smoke"), config=config)
        for app in GOLDEN_APPS
    ]


def _golden_digest(app: str) -> str:
    return json.loads(
        (GOLDEN_DIR / f"{app.lower()}.json").read_text()
    )["payload_sha256"]


def _digests(report):
    """Digest of each finished point's payload bytes, as the cache holds
    them (hits) or the worker shipped them (misses)."""
    return {
        e.name: hashlib.sha256(e.payload).hexdigest()
        for e in report.entries
        if e.ok and e.payload is not None
    }


def _sweep(points, jobs=2, policy=FAST, control=None, cache=None):
    return execute_sweep_points(
        ExperimentSupervisor(), "chaos", points, jobs=jobs, cache=cache,
        policy=policy, control=control,
    )


def _small(seed: int, **chaos):
    """A cheap 2-processor LU point for supervision-behaviour tests."""
    return SweepPoint(
        name=f"LU/{chaos.get('chaos') or 'clean'}-{seed}",
        app="LU",
        dataset=app_config("LU", "smoke"),
        config=dash_scaled_config(num_processors=2, seed=seed),
        **chaos,
    )


class TestAcceptance:
    def test_killed_interrupted_sweep_finishes_on_rerun_over_the_cache(
        self, tmp_path
    ):
        """The headline guarantee: SIGKILL chaos + interruption + a
        rerun over the same cache == the uninterrupted serial run, bit
        for bit, with the poison point quarantined."""
        kill_once = SweepPoint(
            name="LU/kill-once",
            app="LU",
            dataset=app_config("LU", "smoke"),
            config=dash_scaled_config(num_processors=2, seed=21),
            chaos=f"sigkill-once:{tmp_path / 'strike.marker'}",
        )
        points = _golden_points() + [
            kill_once,
            SweepPoint(
                name="LU/poison",
                app="LU",
                dataset=app_config("LU", "smoke"),
                config=dash_scaled_config(num_processors=2, seed=23),
                chaos="sigkill",
            ),
        ]
        cache = ResultCache(tmp_path / "cache")

        # Run 1: workers being SIGKILLed, interrupted after two
        # completions (stop_after is the SIGINT code path).
        first = _sweep(points, control=ServiceControl(stop_after=2), cache=cache)
        assert first.interrupted, first.format()
        assert not first.failed, first.format()
        assert first.entries[-1].status in (
            ConfigStatus.QUARANTINED, ConfigStatus.INTERRUPTED,
        ), first.format()
        finished = sum(1 for e in first.entries if e.ok)

        # Run 2: the same sweep over the same cache, nothing else.
        rerun = _sweep(points, cache=ResultCache(tmp_path / "cache"))
        assert len(rerun.entries) == len(points), rerun.format()
        assert rerun.cache_hits == finished, rerun.format()
        assert {e.name for e in rerun.quarantined} == {"LU/poison"}, (
            rerun.format()
        )
        assert not rerun.failed, rerun.format()
        assert not rerun.interrupted, rerun.format()

        digests = _digests(rerun)
        for app in GOLDEN_APPS:
            assert digests[app] == _golden_digest(app), (
                f"{app}: rerun payload digest diverged from "
                f"tests/goldens/{app.lower()}.json"
            )
        serial = canonical_result_bytes(
            run_point(dataclasses.replace(kill_once, chaos=None))
        )
        assert digests["LU/kill-once"] == hashlib.sha256(serial).hexdigest()


class TestSupervision:
    def test_sigkill_recovery_is_degraded_not_lost(self, tmp_path):
        """An innocent point whose pool was killed out from under it is
        retried and reported degraded — never lost, never failed."""
        points = [
            _small(1),
            _small(2, chaos=f"sigkill-once:{tmp_path / 'once.marker'}"),
            _small(3),
        ]
        report = _sweep(points)
        assert report.ok, report.format()
        degraded = {e.name for e in report.degraded}
        assert degraded, "pool restart should mark recovered points degraded"
        for entry in report.degraded:
            assert "restart" in entry.error or entry.attempts > 1

    def test_poison_point_is_quarantined_and_innocents_finish(self):
        points = [_small(1), _small(2, chaos="sigkill"), _small(3)]
        report = _sweep(points)
        quarantined = {e.name for e in report.quarantined}
        assert quarantined == {points[1].name}, report.format()
        assert not report.failed, report.format()
        assert not report.interrupted, report.format()
        entry = report.quarantined[0]
        assert "poison point" in entry.error
        assert entry.attempts >= FAST.poison_threshold

    def test_hung_worker_is_detected_via_heartbeats(self):
        """A worker that sleeps without heartbeating is declared hung
        (no completion + stale heartbeat files), its pool is killed and
        restarted, and the hanging point is quarantined."""
        points = [_small(1), _small(2, chaos="hang:30")]
        policy = ServicePolicy(
            poison_threshold=2, poll_interval_s=0.05, hang_timeout_s=0.75
        )
        report = _sweep(points, policy=policy)
        assert {e.name for e in report.quarantined} == {points[1].name}, (
            report.format()
        )
        assert "hang" in report.quarantined[0].error
        assert not report.failed, report.format()

    def test_restart_budget_backstops_a_crash_loop(self):
        """With a restart budget too small to isolate the killer, the
        sweep still terminates: remaining points fail loudly instead of
        looping forever."""
        points = [_small(1, chaos="sigkill"), _small(2, chaos="sigkill")]
        policy = ServicePolicy(poison_threshold=99, max_pool_restarts=1,
                               poll_interval_s=0.05)
        report = _sweep(points, policy=policy)
        assert len(report.entries) == 2
        assert len(report.failed) == 2, report.format()
        for entry in report.failed:
            assert "budget exhausted" in entry.error


class TestServiceControl:
    def test_stop_after_requests_stop_deterministically(self):
        control = ServiceControl(stop_after=2)
        control.note_entry()
        assert not control.stop_requested
        control.note_entry()
        assert control.stop_requested

    def test_second_signal_escalates(self):
        import signal as signal_mod

        control = ServiceControl()
        with control.handle_signals():
            handler = signal_mod.getsignal(signal_mod.SIGINT)
            handler(signal_mod.SIGINT, None)
            assert control.stop_requested
            assert control.signals_seen == [signal_mod.SIGINT]
            with pytest.raises(KeyboardInterrupt):
                handler(signal_mod.SIGINT, None)
        # Handlers restored on exit.
        assert signal_mod.getsignal(signal_mod.SIGINT) is not handler

    def test_interrupted_worker_outcome_reaches_the_report(self):
        """A worker-side KeyboardInterrupt (chaos 'interrupt') surfaces
        as an interrupted entry — distinct from fail — through the
        whole pool stack."""
        pooled = _sweep([_small(1, chaos="interrupt"), _small(2)])
        names = {e.name: e.status for e in pooled.entries}
        assert names["LU/interrupt-1"] is ConfigStatus.INTERRUPTED
        assert names["LU/clean-2"] in (
            ConfigStatus.PASSED, ConfigStatus.DEGRADED,
        )
        assert not pooled.failed, pooled.format()


def test_pool_supervisor_emits_exactly_one_entry_per_point(tmp_path):
    """Invariant: no point is lost and none is double-reported, even
    with a killer in the mix."""
    seen = []
    points = [
        (0, _small(1)),
        (1, _small(2, chaos=f"sigkill-once:{tmp_path / 'k.marker'}")),
        (2, _small(3)),
    ]
    PoolSupervisor(jobs=2, policy=FAST).run(
        points, lambda index, point, entry: seen.append(index)
    )
    assert sorted(seen) == [0, 1, 2]
