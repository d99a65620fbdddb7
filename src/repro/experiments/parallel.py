"""Process-pool sweep execution over declarative sweep points.

The paper's figures and tables are sweeps of *independent* ``(app,
technique, MachineConfig)`` points, so they parallelize embarrassingly:
each point is described by a picklable :class:`SweepPoint` spec, fanned
out over a :class:`concurrent.futures.ProcessPoolExecutor`, executed in
a fresh child process (its own :class:`~repro.system.machine.Machine`,
so crash isolation is free), and shipped back as the *canonical payload
bytes* of its :class:`~repro.system.results.SimulationResult` — the
same bytes the result cache stores, so serial, parallel, and replayed
runs are directly comparable bit-for-bit.

Defaults are determinism-first: ``jobs=1`` (or the ``REPRO_JOBS``
environment variable) runs every point serially in-process through
:class:`~repro.experiments.supervisor.ExperimentSupervisor`'s existing
retry/watchdog machinery.  ``jobs>1`` preserves the supervisor's
semantics point-for-point — per-entry crash isolation, transient
retry-once (degraded), wall-clock watchdog limits, and
:class:`~repro.experiments.supervisor.SweepReport` ordering — it only
changes *where* each point runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig, dash_scaled_config
from repro.experiments.figures import FIGURE_VARIANTS, Variant, summary_variants
from repro.experiments.registry import APP_NAMES, build_app
from repro.experiments.resultcache import (
    ResultCache,
    canonical_result_bytes,
    timed,
)
from repro.experiments.supervisor import (
    TRANSIENT_ERRORS,
    ConfigStatus,
    ExperimentSupervisor,
    SweepEntry,
    SweepReport,
)
from repro.faults.watchdog import Watchdog
from repro.system import SimulationResult, run_program

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"


class JobsError(ValueError):
    """A job count that cannot drive a process pool (``--jobs 0``,
    ``REPRO_JOBS=banana``) — rejected loudly instead of being silently
    clamped or handed to :class:`~concurrent.futures.ProcessPoolExecutor`
    as garbage."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit job count, else ``REPRO_JOBS``, else 1 (serial).

    Raises :class:`JobsError` on a non-integer or non-positive count,
    naming the offending source (flag vs environment variable) so the
    CLI can surface it as a clean usage error.
    """
    source = "--jobs"
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        source = JOBS_ENV
        try:
            jobs = int(raw)
        except ValueError:
            raise JobsError(
                f"{source} must be a positive integer, got {raw!r}"
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise JobsError(f"{source} must be a positive integer, got {jobs!r}")
    if jobs <= 0:
        raise JobsError(f"{source} must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SweepPoint:
    """One independent point of a sweep: everything a worker process
    needs to rebuild and run the simulation (picklable by design —
    closures cannot cross the process boundary, specs can)."""

    name: str
    app: str
    scale: str = "default"
    prefetching: bool = False
    config: Optional[MachineConfig] = None
    #: Test-only misbehaviour spec executed *in the worker* before the
    #: simulation runs (``"sigkill"``, ``"hang:<s>"``, ...; see
    #: :mod:`repro.experiments.chaos`).  ``None`` in production.  Not
    #: part of the cache/journal fingerprint: chaos changes how a point
    #: executes, never what it measures.
    chaos: Optional[str] = None

    def resolved_config(self) -> MachineConfig:
        return self.config if self.config is not None else dash_scaled_config()


def run_point(point: SweepPoint, watchdog: Optional[Watchdog] = None) -> SimulationResult:
    """Build and run one sweep point (in whichever process calls it)."""
    program = build_app(point.app, point.scale, point.prefetching)
    return run_program(program, point.resolved_config(), watchdog=watchdog)


@dataclass(frozen=True)
class WorkerTask:
    """Everything shipped *to* a worker process for one point (picklable
    by design — the supervisor's closures cannot cross the boundary)."""

    index: int
    point: SweepPoint
    wall_limit: Optional[float] = None
    max_attempts: int = 2
    heartbeat_every: int = 250_000
    #: Directory the worker publishes liveness heartbeats into (one file
    #: per worker pid); ``None`` disables publication.
    heartbeat_dir: Optional[str] = None


@dataclass
class _PointOutcome:
    """Picklable result envelope shipped back from a worker process."""

    index: int
    status: str
    attempts: int
    wall_seconds: float
    payload: Optional[bytes]
    error: Optional[str]


def _worker_heartbeat_path(heartbeat_dir: Optional[str]) -> Optional[str]:
    return (
        os.path.join(heartbeat_dir, f"worker-{os.getpid()}.hb")
        if heartbeat_dir
        else None
    )


def _execute_point_in_worker(task: WorkerTask) -> _PointOutcome:
    """Worker-side mirror of ``ExperimentSupervisor._run_one``: crash
    isolation via try/except, transient failures retried (degraded on
    the second attempt), wall-clock watchdog per attempt.  Always
    *returns* — an exception never crosses the pool boundary — except
    for chaos-injected SIGKILLs, whose whole point is not returning.

    ``KeyboardInterrupt``/``SystemExit`` are reported as a distinct
    ``interrupted`` outcome (never folded into ``fail``), so graceful
    shutdown can tell "user cancelled" from "point crashed"."""
    point = task.point
    heartbeat_path = _worker_heartbeat_path(task.heartbeat_dir)
    if heartbeat_path is not None:
        # Initial liveness touch: a worker that is still *loading* a
        # point must not read as hung before its first engine heartbeat.
        from repro.faults.watchdog import Heartbeat, write_heartbeat_file

        write_heartbeat_file(heartbeat_path, Heartbeat(0, 0, 0.0))
    start = timed()
    error: Optional[str] = None
    attempt = 0
    try:
        if point.chaos:
            from repro.experiments.chaos import inject_chaos

            inject_chaos(point.chaos)
        for attempt in range(1, task.max_attempts + 1):
            watchdog = (
                Watchdog(
                    wall_clock_limit_s=task.wall_limit,
                    heartbeat_every=task.heartbeat_every,
                    heartbeat_path=heartbeat_path,
                )
                if task.wall_limit is not None or heartbeat_path is not None
                else None
            )
            try:
                result = run_point(point, watchdog=watchdog)
            except TRANSIENT_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
                continue  # transient: worth one more attempt
            except Exception as exc:  # crash isolation: report, don't raise  # srclint: ok(swallow-simulation-error)
                error = f"{type(exc).__name__}: {exc}"
                break
            return _PointOutcome(
                index=task.index,
                status=ConfigStatus.PASSED.value
                if attempt == 1
                else ConfigStatus.DEGRADED.value,
                attempts=attempt,
                wall_seconds=timed() - start,
                payload=canonical_result_bytes(result),
                error=error if attempt > 1 else None,
            )
    except (KeyboardInterrupt, SystemExit) as exc:
        return _PointOutcome(
            index=task.index,
            status=ConfigStatus.INTERRUPTED.value,
            attempts=max(attempt, 1),
            wall_seconds=timed() - start,
            payload=None,
            error=f"{type(exc).__name__}: worker cancelled mid-point",
        )
    return _PointOutcome(
        index=task.index,
        status=ConfigStatus.FAILED.value,
        attempts=min(attempt, task.max_attempts) if attempt else task.max_attempts,
        wall_seconds=timed() - start,
        payload=None,
        error=error,
    )


def _watchdog_wall_limit(supervisor: ExperimentSupervisor) -> Optional[float]:
    """Extract the wall-clock budget the supervisor's watchdog factory
    would grant, so worker processes can arm an equivalent watchdog
    (the factory itself is usually a closure and cannot be pickled)."""
    return _watchdog_params(supervisor)[0]


def _watchdog_params(
    supervisor: ExperimentSupervisor,
) -> Tuple[Optional[float], int]:
    """``(wall_clock_limit_s, heartbeat_every)`` the supervisor's
    watchdog factory would grant, probed once so equivalent watchdogs
    can be armed on the far side of the pool boundary."""
    if supervisor.watchdog_factory is None:
        return None, 250_000
    probe = supervisor.watchdog_factory()
    return (
        getattr(probe, "wall_clock_limit_s", None),
        getattr(probe, "heartbeat_every", 250_000),
    )


def execute_sweep_points(
    supervisor: ExperimentSupervisor,
    name: str,
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    policy=None,
    control=None,
    on_entry: Optional[Callable[[int, SweepPoint, SweepEntry], None]] = None,
    on_incident: Optional[Callable[[str, List[int], str], None]] = None,
) -> SweepReport:
    """Run ``points`` under ``supervisor`` semantics, with optional
    process-pool fan-out and result-cache short-circuiting.  The report
    preserves the order of ``points`` regardless of completion order.

    The pool path is *supervised* (see
    :class:`~repro.experiments.sweepservice.PoolSupervisor`): killed or
    hung workers are detected, the pool is restarted, lost points are
    retried under ``policy``'s budget, and repeat offenders are
    quarantined instead of aborting the sweep.  ``control`` (a
    :class:`~repro.experiments.sweepservice.ServiceControl`) makes the
    run stoppable: on a stop request, in-flight points drain and the
    rest are reported ``interrupted``.  ``on_entry`` fires once per
    produced entry *as it completes* (sweep index, point, entry) and
    ``on_incident`` once per supervision incident (kind, suspect
    indices, detail) — the journaling hooks."""
    jobs = resolve_jobs(jobs)
    entries: List[Optional[SweepEntry]] = [None] * len(points)

    def emit(index: int, point: SweepPoint, entry: SweepEntry) -> None:
        entries[index] = entry
        if on_entry is not None:
            on_entry(index, point, entry)

    pending: List[Tuple[int, SweepPoint, Optional[str]]] = []
    for index, point in enumerate(points):
        key = None
        if cache is not None:
            key = cache.key(
                point.app, point.scale, point.prefetching, point.resolved_config()
            )
            start = timed()
            cached = cache.load(key)
            if cached is not None:
                emit(
                    index,
                    point,
                    SweepEntry(
                        name=point.name,
                        status=ConfigStatus.PASSED,
                        attempts=0,
                        wall_seconds=timed() - start,
                        result=cached.result,
                        cache_hit=True,
                    ),
                )
                continue
        pending.append((index, point, key))

    if jobs == 1 or len(pending) <= 1:
        for index, point, key in pending:
            if control is not None and control.stop_requested:
                emit(index, point, _interrupted_entry(point))
                continue
            emit(index, point, _run_point_serial(supervisor, point, key, cache))
            if control is not None:
                control.note_entry()
    else:
        from repro.experiments.sweepservice import PoolSupervisor

        wall_limit, heartbeat_every = _watchdog_params(supervisor)
        keys = {index: key for index, _, key in pending}

        def pool_emit(index: int, point: SweepPoint, entry: SweepEntry) -> None:
            if cache is not None:
                if entry.cache_hit is None:
                    entry.cache_hit = False
                if entry.ok and isinstance(entry.result, SimulationResult):
                    cache.store(keys[index], entry.result, entry.wall_seconds)
            emit(index, point, entry)

        PoolSupervisor(
            jobs=jobs,
            max_attempts=supervisor.max_attempts,
            wall_limit=wall_limit,
            heartbeat_every=heartbeat_every,
            policy=policy,
            control=control,
            on_incident=on_incident,
        ).run([(index, point) for index, point, _ in pending], pool_emit)

    report = SweepReport(name=name)
    report.entries = [entry for entry in entries if entry is not None]
    if supervisor.verbose:
        for entry in report.entries:
            suffix = " [cached]" if entry.cache_hit else ""
            print(f"  [{entry.status.value}] {entry.name}{suffix}")
    return report


def _interrupted_entry(point: SweepPoint) -> SweepEntry:
    return SweepEntry(
        name=point.name,
        status=ConfigStatus.INTERRUPTED,
        attempts=0,
        wall_seconds=0.0,
        error="interrupted before completion (resume to finish)",
    )


def _run_point_serial(
    supervisor: ExperimentSupervisor,
    point: SweepPoint,
    key: Optional[str],
    cache: Optional[ResultCache],
) -> SweepEntry:
    """One point, in-process, through the supervisor's retry/watchdog
    path — identical semantics to a hand-written ``run_sweep`` thunk."""
    entry = supervisor._run_one(
        point.name, lambda watchdog=None: run_point(point, watchdog=watchdog)
    )
    if cache is not None:
        entry.cache_hit = False
        if entry.ok and isinstance(entry.result, SimulationResult):
            cache.store(key, entry.result, entry.wall_seconds)
    return entry


# -- sweep-point enumeration for the CLI and the claims check -----------------


def target_variants(target: str) -> List[Variant]:
    """The runs one figure/table target makes for every app (none for
    ``table1``: latency probes, not program runs)."""
    if target == "table1":
        return []
    if target == "table2":
        return [("cached-SC", dash_scaled_config(), False)]
    if target == "summary":
        return summary_variants()
    if target in FIGURE_VARIANTS:
        return FIGURE_VARIANTS[target]()
    raise KeyError(f"unknown sweep target {target!r}")


def sweep_points_for(targets: Sequence[str], runner) -> List[SweepPoint]:
    """Enumerate the unique sweep points the given figure/table targets
    will request from ``runner`` (see :func:`variant_points`)."""
    return variant_points(
        [(APP_NAMES, target_variants(target)) for target in targets], runner
    )


def variant_points(
    groups: Iterable[Tuple[Sequence[str], Sequence[Variant]]], runner
) -> List[SweepPoint]:
    """The sweep points of ``(apps, variants)`` groups, deduplicated
    across groups (the cached-SC baseline is shared by Figures 3-6 and
    Table 2), with the runner's scale and seed/max-events defaults
    applied so the points' fingerprints match what
    :meth:`ExperimentRunner.run` computes."""
    seen: Dict[Tuple[str, bool, MachineConfig], None] = {}
    points: List[SweepPoint] = []
    for apps, variants in groups:
        for label, config, prefetching in variants:
            config = runner.effective_config(config)
            for app in apps:
                dedupe = (app, prefetching, config)
                if dedupe in seen:
                    continue
                seen[dedupe] = None
                points.append(
                    SweepPoint(
                        name=f"{app}/{label}",
                        app=app,
                        scale=runner.scale,
                        prefetching=prefetching,
                        config=config,
                    )
                )
    return points
