"""Application registry, sweep points and the cached experiment runner.

A :class:`SweepPoint` is one simulated point: app, data-set config,
prefetching and machine config.  :func:`run_point` is the one place a
point is simulated, and
:func:`~repro.experiments.resultcache.run_fingerprint` is the one key
of both layers that remember its result: the runner's in-memory memo
and the on-disk :class:`~repro.experiments.resultcache.ResultCache`
(``cache_dir=`` / ``REPRO_CACHE_DIR``).  The
runner can pre-warm its memo over a process pool (``jobs=`` /
``REPRO_JOBS``, see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

from repro.apps.lu import LUConfig, lu_program
from repro.apps.lu import bench_scale as lu_bench, paper_scale as lu_paper
from repro.apps.mp3d import MP3DConfig, mp3d_program
from repro.apps.mp3d import bench_scale as mp3d_bench, paper_scale as mp3d_paper
from repro.apps.pthor import PTHORConfig, pthor_program
from repro.apps.pthor import bench_scale as pthor_bench, paper_scale as pthor_paper
from repro.config import MachineConfig, dash_scaled_config
from repro.experiments.resultcache import (
    ResultCache,
    resolve_cache_dir,
    run_fingerprint,
    timed,
)
from repro.faults.watchdog import Watchdog
from repro.system import SimulationResult, run_program
from repro.tango import Program

#: An application's data-set config.
AppConfig = Union[LUConfig, MP3DConfig, PTHORConfig]

APP_NAMES = ("MP3D", "LU", "PTHOR")

#: Processor count used by the ``smoke`` scale configurations below.
SMOKE_PROCESSES = 8

_BUILDERS: Dict[str, Callable[..., Program]] = {
    "MP3D": mp3d_program,
    "LU": lu_program,
    "PTHOR": pthor_program,
}

_SCALES: Dict[str, Dict[str, Callable[[], object]]] = {
    "MP3D": {
        "default": MP3DConfig,
        "paper": mp3d_paper,
        "bench": mp3d_bench,
        "smoke": lambda: MP3DConfig(
            num_particles=200, space_x=5, space_y=8, space_z=3, time_steps=2
        ),
        "medium": lambda: MP3DConfig(
            num_particles=800, space_x=8, space_y=8, space_z=4, time_steps=3
        ),
    },
    "LU": {
        "default": LUConfig,
        "paper": lu_paper,
        "bench": lu_bench,
        "smoke": lambda: LUConfig(n=16),
        "medium": lambda: LUConfig(n=40),
    },
    "PTHOR": {
        "default": PTHORConfig,
        "paper": pthor_paper,
        "bench": pthor_bench,
        "smoke": lambda: PTHORConfig(num_gates=200, clock_cycles=2),
        "medium": lambda: PTHORConfig(num_gates=800, clock_cycles=3),
    },
}

SCALE_NAMES = ("bench", "default", "medium", "paper", "smoke")


def app_config(app: str, scale: str = "default") -> AppConfig:
    """The application config object for a named scale."""
    try:
        return _SCALES[app][scale]()
    except KeyError:
        raise KeyError(f"unknown app/scale {app!r}/{scale!r}") from None


def smoke_program(app: str, prefetching: bool = False) -> Program:
    """A seconds-scale program for CI checks and the fault matrix
    (run with ``SMOKE_PROCESSES`` processors)."""
    return build_app(app, "smoke", prefetching)


def build_app(app: str, scale: str = "default", prefetching: bool = False) -> Program:
    """Build one of the paper's benchmarks by name."""
    return _BUILDERS[app](app_config(app, scale), prefetching)


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point: everything a worker process needs to
    rebuild and run it (picklable, unlike a closure).  Points are equal
    when they simulate the same thing: ``name`` and ``chaos`` are
    labels, outside equality and the cache key."""

    name: str = dataclasses.field(compare=False)
    app: str
    #: The data set itself, e.g. ``app_config(app, scale)``.
    dataset: AppConfig
    prefetching: bool = False
    config: MachineConfig = dataclasses.field(default_factory=dash_scaled_config)
    #: Test-only misbehaviour spec executed *in the worker* before the
    #: simulation runs (``"sigkill"``, ``"hang:<s>"``, ...; see
    #: :func:`repro.experiments.parallel.inject_chaos`).  ``None`` in
    #: production.
    chaos: Optional[str] = dataclasses.field(default=None, compare=False)


def run_point(point: SweepPoint, watchdog: Optional[Watchdog] = None) -> SimulationResult:
    """Build and run one sweep point (in whichever process calls it)."""
    program = _BUILDERS[point.app](point.dataset, point.prefetching)
    return run_program(program, point.config, watchdog=watchdog)


@dataclass
class RunRecord:
    result: SimulationResult
    wall_seconds: float


class ExperimentRunner:
    """Runs sweep points at one scale with memoization.

    Lookup order: in-memory memo, then (when ``cache_dir`` is set) the
    content-addressed on-disk result cache, then a real simulation run
    — which is stored back to both layers.  All three are keyed by
    :func:`~repro.experiments.resultcache.run_fingerprint`.
    """

    def __init__(
        self,
        scale: str = "default",
        verbose: bool = False,
        seed: int = 0,
        max_events: Optional[int] = None,
        cache_dir=None,
        jobs: Optional[int] = None,
    ) -> None:
        from repro.experiments.parallel import resolve_jobs

        self.scale = scale
        self.verbose = verbose
        #: Defaults threaded into every config run through this runner
        #: (CLI ``--seed`` / ``--max-events``); explicit config values
        #: are left alone when these are unset.
        self.seed = seed
        self.max_events = max_events
        #: Worker processes used by :meth:`prewarm` (1 = serial).
        self.jobs = resolve_jobs(jobs)
        cache_root = resolve_cache_dir(cache_dir)
        #: On-disk result cache, or ``None`` when disabled.
        self.result_cache = (
            ResultCache(cache_root) if cache_root is not None else None
        )
        self._memo: Dict[str, RunRecord] = {}
        #: Each app's data set at ``scale``, resolved on first use.
        self._datasets: Dict[str, AppConfig] = {}

    def effective_config(
        self, config: Optional[MachineConfig] = None
    ) -> MachineConfig:
        """The config a run will actually use: the scaled default when
        none is given, with the runner's seed/max-events defaults filled
        into unset fields."""
        config = config or dash_scaled_config()
        if self.seed and not config.seed:
            config = config.replace(seed=self.seed)
        if self.max_events is not None and config.max_events is None:
            config = config.replace(max_events=self.max_events)
        return config

    def point(
        self,
        app: str,
        config: Optional[MachineConfig] = None,
        prefetching: bool = False,
        label: Optional[str] = None,
    ) -> SweepPoint:
        """The sweep point ``run(app, config, prefetching)`` simulates:
        the runner's scale resolved to ``app``'s data set, and its
        defaults applied to ``config``."""
        dataset = self._datasets.get(app)
        if dataset is None:
            dataset = self._datasets[app] = app_config(app, self.scale)
        return SweepPoint(
            name=f"{app}/{label}" if label else app,
            app=app,
            dataset=dataset,
            prefetching=prefetching,
            config=self.effective_config(config),
        )

    def run(
        self,
        app: str,
        config: Optional[MachineConfig] = None,
        prefetching: bool = False,
    ) -> SimulationResult:
        return self.run_point(self.point(app, config, prefetching))

    def run_point(self, point: SweepPoint) -> SimulationResult:
        """``point``'s result: from the memo, else the result cache,
        else a simulation, which is stored to both."""
        key = run_fingerprint(point)
        record = self._memo.get(key)
        if record is not None:
            return record.result
        cache = self.result_cache
        cached = cache.load(key) if cache is not None else None
        if cached is not None:
            record = RunRecord(cached.result, cached.wall_seconds)
        else:
            start = timed()
            result = run_point(point)
            record = RunRecord(result, timed() - start)
            if cache is not None:
                cache.store(key, result, record.wall_seconds)
        self._memo[key] = record
        if self.verbose:
            config = point.config
            print(
                f"  [{'hit' if cached is not None else 'run'}] {point.name} "
                f"pf={point.prefetching} ctx={config.contexts_per_processor} "
                f"{config.consistency.value} cache={config.caching_shared_data} "
                f"-> T={record.result.execution_time} ({record.wall_seconds:.1f}s)"
            )
        return record.result

    def prewarm(self, points: Sequence[SweepPoint], supervisor=None):
        """Execute sweep points — in parallel when ``jobs>1``, through
        the on-disk cache when one is configured — and put their results
        in the memo, so later :meth:`run_point` calls for those points
        are hits.  Returns the
        :class:`~repro.experiments.supervisor.SweepReport` (per-entry
        wall time, pass/degraded/fail status, cache hit/miss counters).
        """
        from repro.experiments.supervisor import ExperimentSupervisor

        supervisor = supervisor or ExperimentSupervisor(verbose=self.verbose)
        report = supervisor.run_sweep_points(
            f"prewarm-{self.scale}",
            points,
            jobs=self.jobs,
            cache=self.result_cache,
        )
        for point, entry in zip(points, report.entries):
            if entry.ok and isinstance(entry.result, SimulationResult):
                self._memo[run_fingerprint(point)] = RunRecord(
                    entry.result, entry.wall_seconds
                )
        return report

    @property
    def runs_performed(self) -> int:
        return len(self._memo)
