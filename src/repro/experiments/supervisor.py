"""Crash-isolating experiment supervisor.

A figure sweep runs many machine configurations; one pathological
configuration (a deadlocked program variant, a hostile fault plan, a
watchdog timeout) must not take the whole sweep down with it.
:class:`ExperimentSupervisor` runs each configuration of a sweep in
isolation:

* every job runs inside its own try/except — a crash in one
  configuration cannot unwind the others (each job builds a fresh
  :class:`~repro.system.machine.Machine`, so no simulator state is
  shared either);
* *transient* failures (:class:`~repro.faults.RetryBudgetExceeded`,
  :class:`~repro.faults.WatchdogTimeout`) are retried once — a run that
  passes on the second attempt is reported as ``degraded`` rather than
  ``pass``;
* the sweep always produces a complete :class:`SweepReport` with
  per-configuration pass/degraded/fail status, so partial results
  survive and the failing configuration is named instead of lost.
"""

from __future__ import annotations

import enum
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.injector import RetryBudgetExceeded
from repro.faults.watchdog import Watchdog, WatchdogTimeout

#: Failure types worth one more attempt: they depend on scheduling
#: pressure (wall clock) or adversity budgets, not on program logic.
TRANSIENT_ERRORS: Tuple[type, ...] = (RetryBudgetExceeded, WatchdogTimeout)


class ConfigStatus(enum.Enum):
    PASSED = "pass"
    DEGRADED = "degraded"  # completed, but only on a retry attempt
    FAILED = "fail"
    #: The point's execution repeatedly killed pool workers (SIGKILL,
    #: OOM, hard hang); it is fenced off so the sweep can finish.
    QUARANTINED = "quarantined"
    #: Execution was cut short by the user (SIGINT/SIGTERM or a
    #: worker-side KeyboardInterrupt) — not a crash; a rerun finishes it.
    INTERRUPTED = "interrupted"


#: Statuses that mean "this point will never produce a result in this
#: run" for reasons other than user cancellation.
_NOT_OK = (ConfigStatus.FAILED, ConfigStatus.QUARANTINED, ConfigStatus.INTERRUPTED)


@dataclass
class SweepEntry:
    """Outcome of one configuration of a sweep."""

    name: str
    status: ConfigStatus
    attempts: int
    wall_seconds: float
    result: object = None
    error: Optional[str] = None
    #: ``True``: served from the result cache without running;
    #: ``False``: ran with a cache configured (a miss); ``None``: no
    #: cache was in play for this sweep.
    cache_hit: Optional[bool] = None
    #: The result's canonical payload bytes, when a cache or a worker
    #: process already produced them (``None`` otherwise).
    payload: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status not in _NOT_OK


@dataclass
class SweepReport:
    """Partial-failure-tolerant report over a whole sweep."""

    name: str
    entries: List[SweepEntry] = field(default_factory=list)

    def _with_status(self, status: ConfigStatus) -> List[SweepEntry]:
        return [e for e in self.entries if e.status is status]

    @property
    def passed(self) -> List[SweepEntry]:
        return self._with_status(ConfigStatus.PASSED)

    @property
    def degraded(self) -> List[SweepEntry]:
        return self._with_status(ConfigStatus.DEGRADED)

    @property
    def failed(self) -> List[SweepEntry]:
        return self._with_status(ConfigStatus.FAILED)

    @property
    def quarantined(self) -> List[SweepEntry]:
        return self._with_status(ConfigStatus.QUARANTINED)

    @property
    def interrupted(self) -> List[SweepEntry]:
        return self._with_status(ConfigStatus.INTERRUPTED)

    @property
    def ok(self) -> bool:
        """True when every configuration completed (possibly degraded)."""
        return not (self.failed or self.quarantined or self.interrupted)

    @property
    def cache_hits(self) -> int:
        """Entries served straight from the result cache."""
        return sum(1 for e in self.entries if e.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Entries that ran because the result cache had no entry."""
        return sum(1 for e in self.entries if e.cache_hit is False)

    def results(self) -> List[object]:
        """Results of the configurations that completed, sweep order."""
        return [e.result for e in self.entries if e.ok]

    def stats_line(self) -> str:
        """One-line status roll-up."""
        parts = [
            f"{len(self.passed)} passed",
            f"{len(self.degraded)} degraded",
            f"{len(self.failed)} failed",
        ]
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.interrupted:
            parts.append(f"{len(self.interrupted)} interrupted")
        return (
            f"sweep {self.name!r}: " + ", ".join(parts)
            + f" of {len(self.entries)} configurations"
        )

    def format(self) -> str:
        header = self.stats_line()
        if any(e.cache_hit is not None for e in self.entries):
            header += (
                f"; cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses"
            )
        lines = [header]
        for entry in self.entries:
            line = (
                f"  [{entry.status.value:^8s}] {entry.name} "
                f"({entry.attempts} attempt"
                f"{'s' if entry.attempts != 1 else ''}, "
                f"{entry.wall_seconds:.2f}s)"
            )
            if entry.cache_hit:
                line += " [cached]"
            if entry.error:
                first = entry.error.splitlines()[0]
                line += f" — {first}"
            lines.append(line)
        return "\n".join(lines)


class ExperimentSupervisor:
    """Runs sweep configurations in isolation with retry-once policy."""

    def __init__(
        self,
        max_attempts: int = 2,
        watchdog_factory: Optional[Callable[[], Watchdog]] = None,
        verbose: bool = False,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt per configuration")
        self.max_attempts = max_attempts
        self.watchdog_factory = watchdog_factory
        self.verbose = verbose

    def run_sweep(
        self,
        name: str,
        jobs: Sequence[Tuple[str, Callable[..., object]]],
    ) -> SweepReport:
        """Run ``(job name, callable)`` pairs, isolating failures.

        Each callable is invoked with a fresh ``watchdog=`` keyword when
        a watchdog factory is configured and the callable accepts it;
        plain thunks are invoked with no arguments.
        """
        report = SweepReport(name=name)
        for job_name, job in jobs:
            report.entries.append(self._run_one(job_name, job))
            if self.verbose:
                print(f"  [{report.entries[-1].status.value}] {job_name}")
        return report

    def run_sweep_points(
        self,
        name: str,
        points: Sequence,
        jobs: Optional[int] = None,
        cache=None,
    ) -> SweepReport:
        """Run declarative :class:`~repro.experiments.parallel.SweepPoint`
        specs, optionally fanned out over a process pool and short-
        circuited through a :class:`~repro.experiments.resultcache.ResultCache`.

        ``jobs=1`` (the default, or ``REPRO_JOBS``) runs serially
        in-process — determinism-by-default and byte-for-byte the same
        code path as :meth:`run_sweep`.  ``jobs>1`` dispatches cache
        misses to worker processes while preserving per-entry crash
        isolation, transient-retry, watchdog wall-clock limits, and the
        sweep order of the report.
        """
        from repro.experiments.parallel import execute_sweep_points

        return execute_sweep_points(self, name, points, jobs=jobs, cache=cache)

    def _run_one(self, name: str, job: Callable[..., object]) -> SweepEntry:
        start = time.perf_counter()  # srclint: ok(wall-clock) — harness timing, never enters sim state
        error: Optional[str] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = self._invoke(job)
            except TRANSIENT_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
                continue  # transient: worth one more attempt
            except Exception as exc:  # crash isolation: never unwind the sweep  # srclint: ok(swallow-simulation-error)
                error = f"{type(exc).__name__}: {exc}"
                break
            status = (
                ConfigStatus.PASSED if attempt == 1 else ConfigStatus.DEGRADED
            )
            return SweepEntry(
                name=name,
                status=status,
                attempts=attempt,
                wall_seconds=time.perf_counter() - start,  # srclint: ok(wall-clock)
                result=result,
                error=error if status is ConfigStatus.DEGRADED else None,
            )
        return SweepEntry(
            name=name,
            status=ConfigStatus.FAILED,
            attempts=min(attempt, self.max_attempts),
            wall_seconds=time.perf_counter() - start,  # srclint: ok(wall-clock)
            error=error,
        )

    def _invoke(self, job: Callable[..., object]) -> object:
        if self.watchdog_factory is not None and _accepts_watchdog(job):
            return job(watchdog=self.watchdog_factory())
        return job()


def _accepts_watchdog(job: Callable[..., object]) -> bool:
    try:
        parameters = inspect.signature(job).parameters
    except (TypeError, ValueError):
        return False
    return "watchdog" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
