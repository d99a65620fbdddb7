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

The pool is driven by :class:`PoolSupervisor`, which survives what the
stock executor does not: a SIGKILLed or hung worker restarts the pool,
the lost points re-run one at a time, and a point that keeps killing
its worker is quarantined so the sweep finishes without it.
:class:`ServiceControl` turns SIGINT/SIGTERM into a graceful stop.
Finished points are stored in the result cache as they land, so
rerunning an interrupted sweep over the same cache re-simulates exactly
the points that did not finish.  All wall-clock reads here are harness
supervision time and never enter simulated state.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig, dash_scaled_config
from repro.experiments.figures import FIGURE_VARIANTS, Variant, summary_variants
from repro.experiments.registry import APP_NAMES, SweepPoint, run_point
from repro.experiments.resultcache import (
    ResultCache,
    canonical_result_bytes,
    result_from_bytes,
    run_fingerprint,
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
from repro.system import SimulationResult

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


def inject_chaos(spec: str) -> None:
    """Execute one test-only misbehaviour spec (:attr:`SweepPoint.chaos`)
    inside the current worker process, before the simulation starts, so
    it changes how a point executes, never what it measures.

    ``"sigkill"`` kills the worker every time (a poison point);
    ``"sigkill-once:<marker-path>"`` kills only the first execution (an
    atomic marker file remembers the strike); ``"hang:<seconds>"``
    sleeps without heartbeating; ``"interrupt"`` raises
    :class:`KeyboardInterrupt`; ``"fail"`` raises a plain exception.
    """
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
    policy: Optional[ServicePolicy] = None,
    control: Optional[ServiceControl] = None,
) -> SweepReport:
    """Run ``points`` under ``supervisor`` semantics, with optional
    process-pool fan-out and result-cache short-circuiting.  The report
    preserves the order of ``points`` regardless of completion order.

    The pool path is *supervised* (see :class:`PoolSupervisor`): killed
    or hung workers are detected, the pool is restarted, lost points are
    retried under ``policy``'s budget, and repeat offenders are
    quarantined instead of aborting the sweep.  ``control`` (a
    :class:`ServiceControl`) makes the run stoppable: on a stop request,
    in-flight points drain and the rest are reported ``interrupted``.
    Every finished point is stored in ``cache`` as it completes, so a
    rerun of an interrupted sweep over the same cache simulates only
    what is left."""
    jobs = resolve_jobs(jobs)
    entries: List[Optional[SweepEntry]] = [None] * len(points)

    pending: List[Tuple[int, SweepPoint, Optional[str]]] = []
    for index, point in enumerate(points):
        key = None
        if cache is not None:
            key = run_fingerprint(point)
            start = timed()
            cached = cache.load(key)
            if cached is not None:
                entries[index] = SweepEntry(
                    name=point.name,
                    status=ConfigStatus.PASSED,
                    attempts=0,
                    wall_seconds=timed() - start,
                    result=cached.result,
                    cache_hit=True,
                    payload=cached.payload,
                )
                continue
        pending.append((index, point, key))

    if jobs == 1 or len(pending) <= 1:
        for index, point, key in pending:
            if control is not None and control.stop_requested:
                entries[index] = _interrupted_entry(point)
                continue
            entries[index] = _run_point_serial(supervisor, point, key, cache)
            if control is not None:
                control.note_entry()
    else:
        wall_limit, heartbeat_every = _watchdog_params(supervisor)
        keys = {index: key for index, _, key in pending}

        def pool_emit(index: int, point: SweepPoint, entry: SweepEntry) -> None:
            if cache is not None:
                if entry.cache_hit is None:
                    entry.cache_hit = False
                if entry.ok and entry.payload is not None:
                    cache.store_bytes(keys[index], entry.payload, entry.wall_seconds)
            entries[index] = entry

        PoolSupervisor(
            jobs=jobs,
            max_attempts=supervisor.max_attempts,
            wall_limit=wall_limit,
            heartbeat_every=heartbeat_every,
            policy=policy,
            control=control,
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
        error="interrupted before completion (rerun the sweep to finish)",
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
            entry.payload = cache.store(key, entry.result, entry.wall_seconds)
    return entry


# -- pool supervision ---------------------------------------------------------


def _now() -> float:
    return time.monotonic()  # srclint: ok(wall-clock) — pool supervision timing, never enters sim state


@dataclass
class ServicePolicy:
    """Supervision knobs for the pool layer."""

    #: Solo-pool kills/hangs a point may cause before it is quarantined
    #: (2 = one definitive strike plus one benefit-of-the-doubt retry).
    poison_threshold: int = 2
    #: Global pool-restart budget; exhausted => remaining points fail
    #: (backstop against a machine-wide crash loop, not a per-point cap).
    max_pool_restarts: int = 20
    #: No completion *and* no fresh worker heartbeat for this long means
    #: the pool is hung.  ``None`` disables hang detection.
    hang_timeout_s: Optional[float] = None
    #: Future-polling granularity; also bounds stop-request latency.
    poll_interval_s: float = 0.2
    #: How long a graceful stop waits for in-flight points to drain
    #: before abandoning them to a rerun.
    drain_timeout_s: float = 30.0


class ServiceControl:
    """Shared stop flag between signal handlers and the sweep loops."""

    def __init__(self, stop_after: Optional[int] = None) -> None:
        self.stop_requested = False
        self.signals_seen: List[int] = []
        #: Testing hook: request a stop after N executed entries, which
        #: deterministically simulates "the user hit Ctrl-C mid-sweep".
        self.stop_after = stop_after
        self._entries_seen = 0

    def request_stop(self, signum: int = 0) -> None:
        self.stop_requested = True
        if signum:
            self.signals_seen.append(signum)

    def note_entry(self) -> None:
        self._entries_seen += 1
        if self.stop_after is not None and self._entries_seen >= self.stop_after:
            self.stop_requested = True

    @contextmanager
    def handle_signals(self):
        """Install SIGINT/SIGTERM handlers that request a graceful stop
        (first signal) and restore default behaviour afterwards, so a
        second Ctrl-C still kills a wedged process the hard way."""
        previous = {}

        def _handler(signum, frame):
            if self.stop_requested:
                # Second signal: give up on graceful drain.
                raise KeyboardInterrupt
            self.request_stop(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # non-main thread / platform quirk
                pass
        try:
            yield self
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)


@dataclass
class _Incident:
    """One supervision event: the pool stopped being trustworthy."""

    kind: str                      # "worker-crash" | "hang"
    unresolved: List[int]          # sweep indices without an outcome
    detail: str


class PoolSupervisor:
    """Runs worker tasks on a restartable, kill-tolerant process pool.

    Gang phase: every pending point is submitted to a pool of ``jobs``
    workers.  On an incident the survivors are killed and the supervisor
    enters the isolation phase: remaining points run one at a time on a
    single-worker pool, so a crash or hang is *definitively* attributed
    to the point that was running.  Guilt beyond
    ``policy.poison_threshold`` quarantines the point; everything else
    completes (a clean point that merely shared a pool with a killer is
    retried and reported ``degraded``, never lost).
    """

    def __init__(
        self,
        jobs: int,
        max_attempts: int = 2,
        wall_limit: Optional[float] = None,
        heartbeat_every: int = 250_000,
        policy: Optional[ServicePolicy] = None,
        control: Optional[ServiceControl] = None,
    ) -> None:
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.wall_limit = wall_limit
        self.heartbeat_every = heartbeat_every
        self.policy = policy or ServicePolicy()
        self.control = control
        self.restarts = 0

    # -- public ------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Tuple[int, SweepPoint]],
        on_entry: Callable[[int, SweepPoint, SweepEntry], None],
    ) -> None:
        """Execute every task, emitting exactly one entry per point."""
        remaining: Dict[int, SweepPoint] = dict(tasks)
        crash_retries: Dict[int, int] = {index: 0 for index in remaining}
        guilt: Dict[int, int] = {index: 0 for index in remaining}
        isolation = False
        with tempfile.TemporaryDirectory(prefix="repro-hb-") as heartbeat_dir:
            while remaining:
                if self._stopped():
                    break
                if self.restarts > self.policy.max_pool_restarts:
                    for index in sorted(remaining):
                        point = remaining.pop(index)
                        on_entry(
                            index,
                            point,
                            SweepEntry(
                                name=point.name,
                                status=ConfigStatus.FAILED,
                                attempts=crash_retries[index],
                                wall_seconds=0.0,
                                error=(
                                    "pool supervision budget exhausted "
                                    f"({self.policy.max_pool_restarts} restarts)"
                                ),
                            ),
                        )
                    break
                if isolation:
                    batch = self._next_isolated(remaining)
                else:
                    batch = dict(remaining)
                incident = self._run_batch(
                    batch, remaining, crash_retries, heartbeat_dir, on_entry,
                    workers=1 if isolation else min(self.jobs, len(batch)),
                )
                if incident is None:
                    continue
                self.restarts += 1
                for index in incident.unresolved:
                    crash_retries[index] += 1
                    if isolation:
                        # Solo pool: the crash is attributable to this
                        # exact point — a definitive strike.
                        guilt[index] += 1
                        if guilt[index] >= self.policy.poison_threshold:
                            point = remaining.pop(index)
                            on_entry(
                                index,
                                point,
                                SweepEntry(
                                    name=point.name,
                                    status=ConfigStatus.QUARANTINED,
                                    attempts=crash_retries[index],
                                    wall_seconds=0.0,
                                    error=(
                                        f"poison point: {incident.kind} killed "
                                        f"{guilt[index]} isolated worker pool(s) "
                                        f"— {incident.detail}"
                                    ),
                                ),
                            )
                # After any incident, fall back to isolation: gang-phase
                # attribution is ambiguous, solo runs are definitive.
                isolation = True
        # Stop requested (or budget exhausted drained above): whatever
        # is left never ran — report it interrupted; a rerun finishes it.
        for index in sorted(remaining):
            on_entry(index, remaining[index], _interrupted_entry(remaining[index]))

    # -- internals ---------------------------------------------------------

    def _stopped(self) -> bool:
        return self.control is not None and self.control.stop_requested

    @staticmethod
    def _next_isolated(remaining: Dict[int, SweepPoint]) -> Dict[int, SweepPoint]:
        index = min(remaining)
        return {index: remaining[index]}

    def _task(self, index: int, point: SweepPoint, heartbeat_dir: str) -> WorkerTask:
        return WorkerTask(
            index=index,
            point=point,
            wall_limit=self.wall_limit,
            max_attempts=self.max_attempts,
            heartbeat_every=self.heartbeat_every,
            heartbeat_dir=heartbeat_dir,
        )

    def _run_batch(
        self,
        batch: Dict[int, SweepPoint],
        remaining: Dict[int, SweepPoint],
        crash_retries: Dict[int, int],
        heartbeat_dir: str,
        on_entry: Callable[[int, SweepPoint, SweepEntry], None],
        workers: int,
    ) -> Optional[_Incident]:
        """Submit ``batch`` to a fresh pool and collect completions.

        Returns ``None`` when every submitted point produced an outcome
        (or a graceful stop drained what it could), or an
        :class:`_Incident` naming the unresolved points when the pool
        crashed or hung.  Completed points are popped from ``remaining``
        and emitted through ``on_entry`` *immediately*, so a later
        incident can never lose an already-finished result.
        """
        from concurrent.futures import (
            FIRST_COMPLETED,
            CancelledError,
            ProcessPoolExecutor,
            wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = {
            pool.submit(
                _execute_point_in_worker, self._task(index, point, heartbeat_dir)
            ): index
            for index, point in sorted(batch.items())
        }
        pending = set(futures)
        broken: List[int] = []
        draining = False
        drain_deadline: Optional[float] = None
        last_progress = _now()
        try:
            while pending:
                done, pending = wait(
                    pending, timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                for future in sorted(done, key=lambda f: futures[f]):
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except CancelledError:
                        # Cancelled during a graceful drain: the point
                        # never started — stays in ``remaining`` and is
                        # reported interrupted by the caller.
                        continue
                    except BrokenProcessPool:
                        if draining:
                            continue  # counts as interrupted, not a crash
                        broken.append(index)
                        continue
                    except Exception as exc:  # unpicklable outcome etc.: not a sim failure  # srclint: ok(swallow-simulation-error)
                        if draining:
                            continue
                        point = remaining.pop(index)
                        on_entry(
                            index,
                            point,
                            SweepEntry(
                                name=point.name,
                                status=ConfigStatus.FAILED,
                                attempts=1,
                                wall_seconds=0.0,
                                error=f"{type(exc).__name__}: {exc}",
                            ),
                        )
                        continue
                    last_progress = _now()
                    point = remaining.pop(index)
                    on_entry(
                        index, point,
                        self._entry_from_outcome(point, outcome, crash_retries[index]),
                    )
                    if self.control is not None:
                        self.control.note_entry()
                if broken:
                    unresolved = sorted(broken + [futures[f] for f in pending])
                    self._kill_workers(pool)
                    return _Incident(
                        kind="worker-crash",
                        unresolved=unresolved,
                        detail="a pool worker died abruptly (SIGKILL/OOM)",
                    )
                if not pending:
                    break
                if not draining and self._stopped():
                    # Graceful stop: nothing new starts, in-flight
                    # points get a bounded chance to finish and be
                    # stored before we abandon them to a rerun.
                    draining = True
                    drain_deadline = _now() + policy.drain_timeout_s
                    pool.shutdown(wait=False, cancel_futures=True)
                if draining and drain_deadline is not None and _now() > drain_deadline:
                    self._kill_workers(pool)
                    break
                if (
                    not draining
                    and policy.hang_timeout_s is not None
                    and _now() - last_progress > policy.hang_timeout_s
                ):
                    if self._heartbeats_fresh(heartbeat_dir, policy.hang_timeout_s):
                        last_progress = _now()
                        continue
                    unresolved = sorted(futures[f] for f in pending)
                    self._kill_workers(pool)
                    return _Incident(
                        kind="hang",
                        unresolved=unresolved,
                        detail=(
                            f"no completion or worker heartbeat for "
                            f">{policy.hang_timeout_s:.1f}s"
                        ),
                    )
        finally:
            self._kill_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
        return None

    def _entry_from_outcome(
        self, point: SweepPoint, outcome, pool_retries: int
    ) -> SweepEntry:
        status = ConfigStatus(outcome.status)
        error = outcome.error
        if pool_retries and status is ConfigStatus.PASSED:
            # It finished, but only after the pool it first ran on was
            # killed out from under it — degraded, same as retry-once.
            status = ConfigStatus.DEGRADED
            error = (
                f"recovered after {pool_retries} worker-pool restart(s)"
            )
        result = (
            result_from_bytes(outcome.payload)
            if outcome.payload is not None
            else None
        )
        return SweepEntry(
            name=point.name,
            status=status,
            attempts=outcome.attempts + pool_retries,
            wall_seconds=outcome.wall_seconds,
            result=result,
            error=error,
            payload=outcome.payload,
        )

    @staticmethod
    def _kill_workers(pool) -> None:
        """SIGKILL every live worker of ``pool`` (hung workers ignore
        anything gentler).  Reaches into executor internals by necessity;
        tolerant of their absence on other Python versions."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                pass

    @staticmethod
    def _heartbeats_fresh(heartbeat_dir: str, within_s: float) -> bool:
        """True if any worker heartbeat file was refreshed recently —
        the pool is slow, not hung."""
        now = time.time()  # srclint: ok(wall-clock) — compared against file mtimes only
        try:
            names = sorted(os.listdir(heartbeat_dir))
        except OSError:
            return False
        for name in names:
            if not name.endswith(".hb"):
                continue
            try:
                mtime = os.stat(os.path.join(heartbeat_dir, name)).st_mtime
            except OSError:
                continue
            if now - mtime <= within_s:
                return True
        return False


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
    """The points :meth:`ExperimentRunner.run` simulates for ``(apps,
    variants)`` groups, deduplicated across groups (the cached-SC
    baseline is shared by Figures 3-6 and Table 2); the runner gives an
    app one data set, so ``(app, prefetching, config)`` is the point."""
    seen: Dict[Tuple[str, bool, MachineConfig], str] = {}
    for apps, variants in groups:
        for label, config, prefetching in variants:
            config = runner.effective_config(config)
            for app in apps:
                seen.setdefault((app, prefetching, config), label)
    return [
        runner.point(app, config, prefetching, label)
        for (app, prefetching, config), label in seen.items()
    ]
