"""Crash-tolerant, resumable sweep service.

Two layers live here, both on top of the PR-4 parallel sweep executor:

:class:`PoolSupervisor`
    Worker supervision for the process pool.  The stock
    ``ProcessPoolExecutor`` turns one SIGKILLed worker into a
    ``BrokenProcessPool`` that poisons *every* in-flight future; the
    supervisor instead treats a broken pool as an *incident*: it kills
    any survivors, restarts the pool, and re-runs the unresolved points
    **in isolation** (one worker, one point at a time) so the guilty
    point is identified deterministically rather than statistically.  A
    point that keeps killing its solo pool is *quarantined* — reported
    as :attr:`~repro.experiments.supervisor.ConfigStatus.QUARANTINED`
    — and the sweep finishes without it.  Hung workers are detected the
    same way via the :class:`~repro.faults.Watchdog` heartbeat files the
    workers publish: no completions *and* no fresh heartbeat within the
    policy's hang timeout means the pool is stalled, not slow.

:class:`SweepService`
    The durable run driver: every sweep gets an append-only fsync'd
    :class:`~repro.experiments.journal.RunJournal` (one ``point`` record
    per completion, payload digest included) plus a content-addressed
    result cache holding the payload bytes, which together make any
    interrupted run resumable with ``repro-1991 sweep --resume
    <run-id>``.  SIGINT/SIGTERM are handled gracefully through
    :class:`ServiceControl`: in-flight points drain, the journal is
    flushed, and the exact resume command is printed.

All wall-clock reads here are harness supervision time (when did the
pool last make progress) and never enter simulated state.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.journal import (
    JournalState,
    RunJournal,
    new_run_id,
    resolve_journal_dir,
)
from repro.experiments.parallel import (
    WorkerTask,
    _execute_point_in_worker,
    _interrupted_entry,
    execute_sweep_points,
)
from repro.experiments.registry import SweepPoint
from repro.experiments.resultcache import (
    ResultCache,
    decode,
    encode,
    result_from_bytes,
    run_fingerprint,
)
from repro.experiments.supervisor import (
    ConfigStatus,
    ExperimentSupervisor,
    SweepEntry,
    SweepReport,
)


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
    #: before abandoning them to the resume path.
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
        on_incident: Optional[Callable[[str, List[int], str], None]] = None,
    ) -> None:
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.wall_limit = wall_limit
        self.heartbeat_every = heartbeat_every
        self.policy = policy or ServicePolicy()
        self.control = control
        #: Observability hook: (kind, suspect indices, detail) per
        #: incident — the service journals these.
        self.on_incident = on_incident
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
                if self.on_incident is not None:
                    self.on_incident(
                        incident.kind, incident.unresolved, incident.detail
                    )
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
        # is left never ran — report it interrupted, resumable.
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
                    # journaled before we abandon them to resume.
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
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
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


# -- the durable service -------------------------------------------------------


def point_spec(index: int, point: SweepPoint, key: str) -> Dict:
    """The journal's ``meta`` description of one sweep point."""
    return {
        "index": index,
        "key": key,
        "name": point.name,
        "app": point.app,
        "dataset": encode(point.dataset),
        "prefetching": encode(point.prefetching),
        "config": encode(point.config),
        "chaos": point.chaos,
    }


def point_from_spec(spec: Dict) -> SweepPoint:
    """Rebuild the declarative sweep point a ``meta`` record describes."""
    return SweepPoint(
        name=spec["name"],
        app=spec["app"],
        dataset=decode(spec["dataset"]),
        prefetching=decode(spec["prefetching"]),
        config=decode(spec["config"]),
        chaos=spec.get("chaos"),
    )


def resume_command(journal_dir: Union[str, Path], run_id: str) -> str:
    """The exact CLI invocation that continues an interrupted run."""
    return f"repro-1991 sweep --resume {run_id} --journal-dir {journal_dir}"


class SweepService:
    """Journaled, supervised, resumable sweep execution.

    ``start`` journals the full declarative sweep up front, then records
    every point outcome (with its canonical payload digest) as it lands;
    payload bytes go to the content-addressed result cache (by default
    ``<journal-dir>/cache``).  ``resume`` rebuilds the sweep from the
    journal alone, restores every terminally-journaled point whose
    payload still verifies against its recorded digest, and executes
    only what is missing — interrupted, failed, and digest-mismatched
    points re-run; quarantined points stay quarantined (delete the
    journal to retry them).
    """

    def __init__(
        self,
        journal_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ResultCache] = None,
        policy: Optional[ServicePolicy] = None,
        control: Optional[ServiceControl] = None,
        verbose: bool = False,
    ) -> None:
        self.journal_dir = resolve_journal_dir(journal_dir)
        self.cache = cache or ResultCache(self.journal_dir / "cache")
        self.policy = policy or ServicePolicy()
        self.control = control or ServiceControl()
        self.verbose = verbose

    # -- entry points ------------------------------------------------------

    def start(
        self,
        name: str,
        points: Sequence[SweepPoint],
        supervisor: Optional[ExperimentSupervisor] = None,
        jobs: Optional[int] = None,
    ) -> Tuple[str, SweepReport]:
        """Run a fresh journaled sweep; returns ``(run_id, report)``."""
        run_id = new_run_id()
        specs = [
            point_spec(index, point, run_fingerprint(point))
            for index, point in enumerate(points)
        ]
        journal = RunJournal.create(self.journal_dir, run_id, name, specs)
        report = self._execute(
            journal, name, list(points), restored={}, supervisor=supervisor,
            jobs=jobs,
        )
        return run_id, report

    def resume(
        self,
        run_id: str,
        supervisor: Optional[ExperimentSupervisor] = None,
        jobs: Optional[int] = None,
    ) -> SweepReport:
        """Continue an interrupted run from its journal."""
        journal = RunJournal.open_existing(self.journal_dir, run_id)
        state = RunJournal.load(journal.path)
        if state.meta is None:
            raise ValueError(
                f"journal {journal.path} has no readable meta record "
                "(corrupted beyond resume, or written in an older journal "
                "format)"
            )
        specs = sorted(state.meta["points"], key=lambda s: s["index"])
        points = [point_from_spec(spec) for spec in specs]
        restored = self._restore(state, specs, points)
        if self.verbose:
            print(
                f"  resume {run_id}: {len(restored)} of {len(points)} points "
                f"restored from journal ({state.dropped_lines} corrupt "
                f"journal line(s) dropped)"
            )
        return self._execute(
            journal, state.meta.get("name", run_id), points, restored,
            supervisor=supervisor, jobs=jobs,
        )

    # -- internals ---------------------------------------------------------

    def _restore(
        self,
        state: JournalState,
        specs: Sequence[Dict],
        points: Sequence[SweepPoint],
    ) -> Dict[int, SweepEntry]:
        """Entries recoverable from the journal without re-execution.

        A point journaled under a key the current source no longer gives
        it re-runs.  A ``pass``/``degraded`` record is only restored when
        the cached payload still exists *and* hashes to the digest the
        journal recorded — anything less re-runs the point.
        ``quarantined`` restores as-is (no payload to verify).
        """
        restored: Dict[int, SweepEntry] = {}
        for index in state.completed_indices():
            if index >= len(points):
                continue
            key = run_fingerprint(points[index])
            if key != specs[index]["key"]:
                continue  # measured by other source: re-run
            record = state.points[index]
            status = ConfigStatus(record["status"])
            cached = None
            if status is not ConfigStatus.QUARANTINED:
                cached = self.cache.load(key)
                if cached is None or hashlib.sha256(
                    cached.payload
                ).hexdigest() != record.get("payload_sha256"):
                    continue  # payload lost, corrupt or not the journaled one: re-run
            restored[index] = SweepEntry(
                name=record.get("name", points[index].name),
                status=status,
                attempts=int(record.get("attempts", 0)),
                wall_seconds=float(record.get("wall_seconds", 0.0)),
                result=cached.result if cached else None,
                error=record.get("error"),
                cache_hit=True if cached else None,
                restored=True,
                payload=cached.payload if cached else None,
            )
        return restored

    def _execute(
        self,
        journal: RunJournal,
        name: str,
        points: List[SweepPoint],
        restored: Dict[int, SweepEntry],
        supervisor: Optional[ExperimentSupervisor],
        jobs: Optional[int],
    ) -> SweepReport:
        supervisor = supervisor or ExperimentSupervisor(verbose=self.verbose)
        entries: List[Optional[SweepEntry]] = [None] * len(points)
        for index, entry in restored.items():
            entries[index] = entry
        todo = [
            (index, point)
            for index, point in enumerate(points)
            if index not in restored
        ]
        local_to_global = {local: index for local, (index, _) in enumerate(todo)}

        def on_entry(local_index: int, point: SweepPoint, entry: SweepEntry) -> None:
            index = local_to_global[local_index]
            entries[index] = entry
            journal.record_point(
                index=index,
                key=run_fingerprint(point),
                name=point.name,
                status=entry.status.value,
                attempts=entry.attempts,
                wall_seconds=entry.wall_seconds,
                payload_sha256=self._payload_digest(entry),
                error=entry.error,
            )

        def on_incident(kind: str, suspects: List[int], detail: str) -> None:
            journal.record_incident(
                kind,
                [local_to_global.get(s, s) for s in suspects],
                detail,
            )

        completed = False
        try:
            if todo:
                execute_sweep_points(
                    supervisor,
                    name,
                    [point for _, point in todo],
                    jobs=jobs,
                    cache=self.cache,
                    policy=self.policy,
                    control=self.control,
                    on_entry=on_entry,
                    on_incident=on_incident,
                )
            completed = True
        finally:
            if self.control.stop_requested:
                journal.close("interrupted")
            elif completed:
                journal.close("complete")
            else:
                journal.close("aborted")

        report = SweepReport(name=name)
        report.entries = [entry for entry in entries if entry is not None]
        return report

    @staticmethod
    def _payload_digest(entry: SweepEntry) -> Optional[str]:
        if entry.ok and entry.payload is not None:
            return hashlib.sha256(entry.payload).hexdigest()
        return None
