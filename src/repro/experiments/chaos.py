"""Chaos harness for the sweep service.

Deterministic worker-process misbehaviour, injected per sweep point via
:attr:`~repro.experiments.parallel.SweepPoint.chaos` (the injection runs
*inside the worker*, before the simulation starts, so the simulator and
its results are never touched — chaos changes how a point executes,
never what it measures).  Specs:

``"sigkill"``
    SIGKILL the worker's own process, every time the point runs — a
    *poison point* that must end up quarantined.
``"sigkill-once:<marker-path>"``
    SIGKILL only the first execution (an atomic marker file remembers
    the strike), so supervision's restart/retry path can be proven to
    finish the point afterwards.
``"hang:<seconds>"``
    Sleep (bounded) without firing events or heartbeats — the shape of
    a hung worker, detectable only by heartbeat staleness.
``"interrupt"``
    Raise :class:`KeyboardInterrupt` in the worker, exercising the
    distinct ``interrupted`` outcome (a user's Ctrl-C reaches workers
    through the foreground process group in real runs).
``"fail"``
    Raise a plain exception (an ordinary crashing point, for mixing
    statuses in report tests).

``run_chaos_check`` is the ``repro-1991 check --chaos`` entry point: a
self-contained drill in a temp directory that SIGKILLs a pool worker
mid-sweep, interrupts the run, corrupts the journal tail, resumes, and
verifies the resumed sweep's payload digests are bit-identical to an
uninterrupted serial run — with the poison point quarantined rather
than the sweep aborted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.config import dash_scaled_config
from repro.experiments.registry import SweepPoint, app_config
from repro.experiments.resultcache import canonical_result_bytes
from repro.experiments.supervisor import ConfigStatus, ExperimentSupervisor
from repro.experiments.sweepservice import (
    ServiceControl,
    ServicePolicy,
    SweepService,
    resume_command,
)
from repro.experiments.journal import RunJournal


def inject_chaos(spec: str) -> None:
    """Execute one chaos spec inside the current (worker) process."""
    kind, _, arg = spec.partition(":")
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "sigkill-once":
        if _first_strike(arg):
            os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        # Bounded so an un-reaped worker can never outlive a test run.
        time.sleep(min(float(arg or 30.0), 300.0))
    elif kind == "interrupt":
        raise KeyboardInterrupt("chaos: injected worker interrupt")
    elif kind == "fail":
        raise RuntimeError("chaos: injected point failure")
    else:
        raise ValueError(f"unknown chaos spec {spec!r}")


def _first_strike(marker_path: str) -> bool:
    """Atomically claim the one-shot marker (True exactly once)."""
    if not marker_path:
        raise ValueError("sigkill-once needs a marker path: 'sigkill-once:<path>'")
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# -- the `check --chaos` drill -------------------------------------------------


def _drill_points(workdir: Path) -> List[SweepPoint]:
    """Three tiny innocent points plus one kill-once and one poison
    point, all at seconds scale (distinct seeds keep fingerprints
    distinct)."""
    lu = app_config("LU", "smoke")
    innocent = [
        SweepPoint(
            name=f"LU/innocent-{seed}",
            app="LU",
            dataset=lu,
            config=dash_scaled_config(num_processors=2, seed=seed),
        )
        for seed in (1, 2, 3)
    ]
    kill_once = SweepPoint(
        name="LU/kill-once",
        app="LU",
        dataset=lu,
        config=dash_scaled_config(num_processors=2, seed=11),
        chaos=f"sigkill-once:{workdir / 'kill-once.marker'}",
    )
    poison = SweepPoint(
        name="LU/poison",
        app="LU",
        dataset=lu,
        config=dash_scaled_config(num_processors=2, seed=13),
        chaos="sigkill",
    )
    return [innocent[0], kill_once, innocent[1], poison, innocent[2]]


def _serial_digests(points: List[SweepPoint]) -> Dict[str, str]:
    """Reference payload digests from an uninterrupted serial run of the
    clean variants of every point (chaos stripped: same measurements)."""
    supervisor = ExperimentSupervisor()
    clean = [dataclasses.replace(p, chaos=None) for p in points]
    report = supervisor.run_sweep_points("chaos-reference", clean, jobs=1)
    return {
        entry.name: hashlib.sha256(
            canonical_result_bytes(entry.result)
        ).hexdigest()
        for entry in report.entries
        if entry.ok
    }


def run_chaos_check(verbose: bool = False) -> int:
    """SIGKILL workers mid-sweep, interrupt, corrupt the journal tail,
    resume, and verify bit-identity against a serial run.  Returns 0
    when every stage behaves, 1 otherwise."""
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        workdir = Path(tmp)
        points = _drill_points(workdir)
        reference = _serial_digests(points)
        check(
            len(reference) == len(points),
            f"serial reference run completed all {len(points)} points",
        )

        policy = ServicePolicy(poison_threshold=2, poll_interval_s=0.05)
        # Stage 1: run with a worker-killer in the mix, interrupted
        # after two completions (a deterministic stand-in for Ctrl-C).
        control = ServiceControl(stop_after=2)
        service = SweepService(
            workdir / "journal", policy=policy, control=control,
            verbose=verbose,
        )
        run_id, first = service.start("chaos-drill", points, jobs=2)
        check(bool(first.interrupted), "interrupted run left unfinished points")
        check(
            all(e.status is not ConfigStatus.FAILED for e in first.entries),
            "no point was misreported as failed by the interruption",
        )
        print(f"  resume with: {resume_command(workdir / 'journal', run_id)}")

        # Stage 2: corrupt the journal tail the way a crash would —
        # a torn, half-written record plus binary garbage.
        journal_path = workdir / "journal" / f"{run_id}.jsonl"
        with open(journal_path, "ab") as fh:
            fh.write(b'{"record": {"type": "point", "index"')
            fh.write(b"\x00\xff garbage\n")
        state = RunJournal.load(journal_path)
        check(state.dropped_lines >= 1, "corrupted journal tail detected and dropped")

        # Stage 3: resume to completion; the poison point must be
        # quarantined, everything else must finish.
        resumed = SweepService(
            workdir / "journal", policy=policy, control=ServiceControl(),
            verbose=verbose,
        ).resume(run_id, jobs=2)
        check(
            len(resumed.entries) == len(points),
            "resumed report covers every sweep point",
        )
        quarantined = {e.name for e in resumed.quarantined}
        check(
            quarantined == {"LU/poison"},
            "poison point quarantined (and only it)",
        )
        check(not resumed.failed, "no failed entries after resume")
        digests = {
            e.name: hashlib.sha256(
                canonical_result_bytes(e.result)
            ).hexdigest()
            for e in resumed.entries
            if e.ok and e.result is not None
        }
        expected = {
            name: digest
            for name, digest in reference.items()
            if name != "LU/poison"
        }
        check(
            digests == expected,
            "resumed payload digests bit-identical to the serial run",
        )
        check(bool(resumed.restored), "resume restored journaled points")

    if failures:
        print(f"[chaos] FAILED: {len(failures)} stage(s) misbehaved")
        return 1
    print("[chaos] crash-tolerance drill passed")
    return 0
