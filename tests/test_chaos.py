"""Chaos tests: the sweep service under killed, hung, and interrupted
workers.

The acceptance test mirrors a real operational incident end to end: a
journaled sweep whose pool workers get SIGKILLed mid-run is interrupted,
its journal tail is corrupted the way a crash would, and ``resume``
must finish the sweep with payload digests **bit-identical** to the
committed goldens (``tests/goldens/*.json``) — the same digests an
uninterrupted serial run produces — while the point that keeps killing
its workers is quarantined instead of aborting the sweep.

Everything here is deterministic: chaos is injected per point (not by
timing), interruption uses :class:`ServiceControl`'s ``stop_after``
test hook (the exact code path a SIGINT takes), and "did the resumed
run measure the same thing" is a hash comparison, not a heuristic.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, app_config
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import SweepPoint
from repro.experiments import resultcache
from repro.experiments.resultcache import canonical_result_bytes, run_fingerprint
from repro.experiments.supervisor import ConfigStatus
from repro.experiments.sweepservice import (
    PoolSupervisor,
    ServiceControl,
    ServicePolicy,
    SweepService,
)

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
    return {
        e.name: hashlib.sha256(canonical_result_bytes(e.result)).hexdigest()
        for e in report.entries
        if e.ok and e.result is not None
    }


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
    def test_interrupted_corrupted_resumed_sweep_matches_goldens(self, tmp_path):
        """The headline guarantee: SIGKILL chaos + interruption +
        journal-tail corruption + resume == the uninterrupted serial
        run, bit for bit, with the poison point quarantined."""
        points = _golden_points() + [
            SweepPoint(
                name="LU/kill-once",
                app="LU",
                dataset=app_config("LU", "smoke"),
                config=dash_scaled_config(num_processors=2, seed=21),
                chaos=f"sigkill-once:{tmp_path / 'strike.marker'}",
            ),
            SweepPoint(
                name="LU/poison",
                app="LU",
                dataset=app_config("LU", "smoke"),
                config=dash_scaled_config(num_processors=2, seed=23),
                chaos="sigkill",
            ),
        ]
        journal_dir = tmp_path / "journal"

        # Phase 1: run with workers being SIGKILLed, interrupted after
        # two completions (stop_after is the SIGINT code path).
        service = SweepService(
            journal_dir, policy=FAST, control=ServiceControl(stop_after=2)
        )
        run_id, first = service.start("acceptance", points, jobs=2)
        assert first.interrupted, first.format()
        assert not first.failed, first.format()

        # Phase 2: corrupt the journal tail like a crash mid-append.
        journal_path = journal_dir / f"{run_id}.jsonl"
        with open(journal_path, "ab") as fh:
            fh.write(b'{"record": {"type": "point", "index": 1, "status"')
        assert RunJournal.load(journal_path).dropped_lines == 1

        # Phase 3: resume to completion.
        resumed = SweepService(
            journal_dir, policy=FAST, control=ServiceControl()
        ).resume(run_id, jobs=2)

        assert len(resumed.entries) == len(points), resumed.format()
        assert {e.name for e in resumed.quarantined} == {"LU/poison"}, (
            resumed.format()
        )
        assert not resumed.failed, resumed.format()
        assert not resumed.interrupted, resumed.format()
        assert resumed.restored, "resume should reuse journaled outcomes"

        digests = _digests(resumed)
        for app in GOLDEN_APPS:
            assert digests[app] == _golden_digest(app), (
                f"{app}: resumed payload digest diverged from "
                f"tests/goldens/{app.lower()}.json"
            )
        # The kill-once point completed too (its worker died exactly once).
        assert "LU/kill-once" in digests


class TestSupervision:
    def test_sigkill_recovery_is_degraded_not_lost(self, tmp_path):
        """An innocent point whose pool was killed out from under it is
        retried and reported degraded — never lost, never failed."""
        points = [
            _small(1),
            _small(2, chaos=f"sigkill-once:{tmp_path / 'once.marker'}"),
            _small(3),
        ]
        service = SweepService(tmp_path / "journal", policy=FAST)
        _, report = service.start("recovery", points, jobs=2)
        assert report.ok, report.format()
        degraded = {e.name for e in report.degraded}
        assert degraded, "pool restart should mark recovered points degraded"
        for entry in report.degraded:
            assert "restart" in entry.error or entry.attempts > 1

    def test_poison_point_is_quarantined_and_innocents_finish(self, tmp_path):
        points = [_small(1), _small(2, chaos="sigkill"), _small(3)]
        service = SweepService(tmp_path / "journal", policy=FAST)
        _, report = service.start("poison", points, jobs=2)
        quarantined = {e.name for e in report.quarantined}
        assert quarantined == {points[1].name}, report.format()
        assert not report.failed, report.format()
        assert not report.interrupted, report.format()
        entry = report.quarantined[0]
        assert "poison point" in entry.error
        assert entry.attempts >= FAST.poison_threshold

    def test_hung_worker_is_detected_via_heartbeats(self, tmp_path):
        """A worker that sleeps without heartbeating is declared hung
        (no completion + stale heartbeat files), its pool is killed and
        restarted, and the hanging point is quarantined."""
        points = [_small(1), _small(2, chaos="hang:30")]
        policy = ServicePolicy(
            poison_threshold=2, poll_interval_s=0.05, hang_timeout_s=0.75
        )
        service = SweepService(tmp_path / "journal", policy=policy)
        _, report = service.start("hang", points, jobs=2)
        assert {e.name for e in report.quarantined} == {points[1].name}, (
            report.format()
        )
        assert "hang" in report.quarantined[0].error
        assert not report.failed, report.format()

    def test_restart_budget_backstops_a_crash_loop(self, tmp_path):
        """With a restart budget too small to isolate the killer, the
        sweep still terminates: remaining points fail loudly instead of
        looping forever."""
        points = [_small(1, chaos="sigkill"), _small(2, chaos="sigkill")]
        policy = ServicePolicy(poison_threshold=99, max_pool_restarts=1,
                               poll_interval_s=0.05)
        service = SweepService(tmp_path / "journal", policy=policy)
        _, report = service.start("budget", points, jobs=2)
        assert len(report.entries) == 2
        assert len(report.failed) == 2, report.format()
        for entry in report.failed:
            assert "budget exhausted" in entry.error

    def test_incidents_are_journaled(self, tmp_path):
        journal_dir = tmp_path / "journal"
        points = [
            _small(1),
            _small(2, chaos=f"sigkill-once:{tmp_path / 'm.marker'}"),
        ]
        service = SweepService(journal_dir, policy=FAST)
        run_id, report = service.start("incidents", points, jobs=2)
        assert report.ok, report.format()
        state = RunJournal.load(journal_dir / f"{run_id}.jsonl")
        assert any(i["kind"] == "worker-crash" for i in state.incidents)


class TestResumeEdges:
    def test_resume_of_a_complete_run_is_pure_restore(self, tmp_path):
        points = [_small(1), _small(2)]
        service = SweepService(tmp_path / "journal", policy=FAST)
        run_id, first = service.start("done", points, jobs=1)
        assert first.ok
        again = SweepService(tmp_path / "journal", policy=FAST).resume(
            run_id, jobs=1
        )
        assert again.ok
        assert len(again.restored) == len(points)
        assert _digests(again) == _digests(first)

    def test_lost_cache_payload_forces_a_rerun(self, tmp_path):
        """A journaled pass whose cached payload vanished (or rotted)
        must re-run, not restore a result we cannot verify."""
        points = [_small(1)]
        service = SweepService(tmp_path / "journal", policy=FAST)
        run_id, first = service.start("rot", points, jobs=1)
        assert first.ok
        for entry in (tmp_path / "journal" / "cache").glob("*.json"):
            entry.unlink()
        again = SweepService(tmp_path / "journal", policy=FAST).resume(
            run_id, jobs=1
        )
        assert again.ok
        assert not again.restored  # verified re-execution, not blind trust
        assert _digests(again) == _digests(first)

    def test_source_change_reruns_journaled_points(self, tmp_path, monkeypatch):
        """A point journaled under other source is not restored, even
        though its payload still verifies under the journaled key."""
        points = [_small(1)]
        service = SweepService(tmp_path / "journal", policy=FAST)
        run_id, first = service.start("edited", points, jobs=1)
        assert first.ok
        monkeypatch.setattr(resultcache, "_SOURCE_DIGEST", "0" * 64)
        again = SweepService(tmp_path / "journal", policy=FAST).resume(
            run_id, jobs=1
        )
        assert again.ok
        assert not again.restored
        assert again.cache_misses == 1
        assert _digests(again) == _digests(first)
        state = RunJournal.load(tmp_path / "journal" / f"{run_id}.jsonl")
        assert state.points[0]["key"] == run_fingerprint(points[0])

    def test_quarantine_is_sticky_across_resume(self, tmp_path):
        points = [_small(1), _small(2, chaos="sigkill")]
        service = SweepService(tmp_path / "journal", policy=FAST)
        run_id, first = service.start("sticky", points, jobs=2)
        assert first.quarantined
        again = SweepService(tmp_path / "journal", policy=FAST).resume(
            run_id, jobs=1
        )
        assert {e.name for e in again.quarantined} == {points[1].name}
        assert again.quarantined[0].restored  # not re-executed

    def test_resume_without_meta_record_is_rejected(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir(parents=True)
        (journal_dir / "feedface0000.jsonl").write_bytes(b"garbage\n")
        with pytest.raises(ValueError, match="no readable meta"):
            SweepService(journal_dir).resume("feedface0000")

    def test_resume_unknown_run_id_is_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no journal for run"):
            SweepService(tmp_path / "journal").resume("deadbeef0000")


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

    def test_interrupted_worker_outcome_reaches_the_report(self, tmp_path):
        """A worker-side KeyboardInterrupt (chaos 'interrupt') surfaces
        as an interrupted entry — distinct from fail — through the
        whole pool + journal stack."""
        service = SweepService(tmp_path / "journal", policy=FAST)
        _, pooled = service.start(
            "kbd", [_small(1, chaos="interrupt"), _small(2)], jobs=2
        )
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
