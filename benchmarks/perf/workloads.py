"""Workloads and metrics of the simulator benchmark, and the worker
that measures one workload in its own process.

``run.py`` starts this file once per workload and trace mode::

    PYTHONPATH=src python benchmarks/perf/workloads.py WORKLOAD \\
        --seed N --seconds S --trace 0|1 --work-dir DIR

The worker prints one JSON object as its last line of output.

Every workload is a closed loop with one caller: the next simulation or
sweep pass starts only after the previous one returned.  The app seed
reaches the program only through the generated inputs (the app config's
``seed``); the sweeps use it to permute their point order.

Timings are in reference seconds: host seconds scaled by how much faster
or slower than on the reference host a fixed calibration loop ran while
they were measured (see :class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from stats import summarize
from tracer import LAYERS, THREAD_NEXT, Tracer

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Key of the sweep points' digests in ``expected.json``.
SWEEP_KEY = "sweep-points"

#: Sweep targets whose union of points the sweep workloads run.
SWEEP_TARGETS = ("table2", "fig2", "fig3", "fig4", "fig5", "fig6", "summary")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"sim"``, ``"sweep-cold"`` or ``"sweep-warm"``.
    kind: str
    app: str = ""
    scale: str = ""
    prefetching: bool = False
    #: ``dash_scaled_config`` overrides.
    machine: tuple = ()
    default_seed: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mp3d-sc",
            "MP3D 2000 particles under SC, 1 context (Figs 3/4 SC bar): miss-heavy "
            "migratory sharing on coherence, interconnect and engine; write and "
            "prefetch buffers bypassed",
            "sim", "MP3D", "default", False, (("consistency", "SC"),), 1991,
        ),
        Workload(
            "lu-rc-pf",
            "LU n=48 under RC with prefetching (Fig 4 RC+pf bar): buffered writes "
            "and prefetches load the write buffer, prefetch buffer and MSHRs",
            "sim", "LU", "bench", True, (("consistency", "RC"),), 7,
        ),
        Workload(
            "pthor-rc-4ctx",
            "PTHOR 1500 gates under RC, 4 contexts, 4-cycle switch (Fig 6 RC 4ctx "
            "bar): the only context-switching, lock-heavy workload",
            "sim", "PTHOR", "default", False,
            (("consistency", "RC"), ("contexts_per_processor", 4), ("context_switch_cycles", 4)),
            42,
        ),
        Workload(
            "sweep-cold",
            "all 39 smoke-scale figure/table sweep points into an empty result "
            "cache: every point simulated and stored",
            "sweep-cold",
        ),
        Workload(
            "sweep-warm",
            "all 39 smoke-scale sweep points replayed from a full result cache: "
            "the load path only, the simulator is bypassed",
            "sweep-warm",
        ),
    )
}

#: End-to-end metrics: ``(name, unit, better, bound)``.  ``bound`` is the
#: share of the parent's median by which a metric may worsen before a
#: change counts as a regression; README.md gives the host noise each
#: bound is set from.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.20),
    ("refs_per_s", "refs/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Per-layer metrics from the traced run: ``(name, unit, better, kind)``.
#: ``sim`` marks a simulated counter (any drift at the same seed is a
#: model change), ``count`` a deterministic count of host work, ``host``
#: a host-time measurement.
PER_LAYER = (
    ("sim.events", "count", "lower", "count"),
    ("sim.pclocks", "pclocks", "lower", "sim"),
    ("sim.schedule.calls", "count", "lower", "count"),
    ("sim.self_share", "fraction", "lower", "host"),
    ("processor.loop.calls", "count", "lower", "count"),
    ("processor.inline_frac", "fraction", "higher", "count"),
    ("processor.self_share", "fraction", "lower", "host"),
    ("processor.busy_frac", "fraction", "higher", "sim"),
    ("processor.read_stall_frac", "fraction", "lower", "sim"),
    ("processor.write_stall_frac", "fraction", "lower", "sim"),
    ("processor.sync_stall_frac", "fraction", "lower", "sim"),
    ("processor.switch_frac", "fraction", "lower", "sim"),
    ("apps.ops", "count", "lower", "count"),
    ("apps.self_share", "fraction", "lower", "host"),
    ("memiface.read.calls", "count", "lower", "count"),
    ("memiface.write.calls", "count", "lower", "count"),
    ("memiface.prefetch.calls", "count", "lower", "count"),
    ("memiface.release_point.calls", "count", "lower", "count"),
    ("memiface.fused_read_frac", "fraction", "higher", "count"),
    ("memiface.self_share", "fraction", "lower", "host"),
    ("memiface.wb_full_stall_pclocks", "pclocks", "lower", "sim"),
    ("memiface.pf_full_stall_pclocks", "pclocks", "lower", "sim"),
    ("memiface.prefetch_discard_frac", "fraction", "lower", "sim"),
    ("memiface.store_forwards", "count", "higher", "sim"),
    ("coherence.read.calls", "count", "lower", "count"),
    ("coherence.read_fill.calls", "count", "lower", "count"),
    ("coherence.write.calls", "count", "lower", "count"),
    ("coherence.prefetch.calls", "count", "lower", "count"),
    ("coherence.uncached.calls", "count", "lower", "count"),
    ("coherence.self_share", "fraction", "lower", "host"),
    ("coherence.reads.primary_hit", "count", "higher", "sim"),
    ("coherence.reads.secondary_hit", "count", "higher", "sim"),
    ("coherence.reads.local", "count", "lower", "sim"),
    ("coherence.reads.home", "count", "lower", "sim"),
    ("coherence.reads.remote", "count", "lower", "sim"),
    ("coherence.invalidations_sent", "count", "lower", "sim"),
    ("coherence.ownership_transfers", "count", "lower", "sim"),
    ("coherence.writebacks", "count", "lower", "sim"),
    ("interconnect.charge.calls", "count", "lower", "count"),
    ("interconnect.self_share", "fraction", "lower", "host"),
    ("interconnect.queue_pclocks", "pclocks", "lower", "sim"),
    ("interconnect.busy_pclocks", "pclocks", "lower", "sim"),
    ("interconnect.max_util", "fraction", "lower", "sim"),
    ("sync.lock.calls", "count", "lower", "count"),
    ("sync.flag.calls", "count", "lower", "count"),
    ("sync.barrier.calls", "count", "lower", "count"),
    ("sync.self_share", "fraction", "lower", "host"),
    ("sync.contended_frac", "fraction", "lower", "sim"),
    ("machine.self_share", "fraction", "lower", "host"),
    ("package.import_s", "s", "lower", "host"),
    ("resultcache.load.calls", "count", "lower", "count"),
    ("resultcache.store.calls", "count", "lower", "count"),
    ("resultcache.hit_frac", "fraction", "higher", "count"),
    ("resultcache.entry_kb", "KB", "lower", "host"),
    ("resultcache.self_share", "fraction", "lower", "host"),
    ("tracing.overhead", "ratio", "lower", "host"),
)

_SIMULATING = ("mp3d-sc", "lu-rc-pf", "pthor-rc-4ctx", "sweep-cold")

#: Which end-to-end metric the per-layer metrics of each layer (the part
#: of their name before the first dot) should move, and on which
#: workloads; README.md gives the self-time shares behind each entry.
#: ``None``: the metric is in no end-to-end metric.  Imports run once per
#: process, before anything is timed.
LAYER_MOVES = {
    "sim": ("refs_per_s", _SIMULATING),
    "processor": ("refs_per_s", _SIMULATING),
    "apps": ("refs_per_s", _SIMULATING),
    "memiface": ("refs_per_s", ("lu-rc-pf", "mp3d-sc")),
    "coherence": ("refs_per_s", ("mp3d-sc", "pthor-rc-4ctx", "lu-rc-pf")),
    "interconnect": ("refs_per_s", ("mp3d-sc", "pthor-rc-4ctx")),
    "sync": ("refs_per_s", ("pthor-rc-4ctx",)),
    "machine": ("setup_s", ("mp3d-sc", "lu-rc-pf", "pthor-rc-4ctx")),
    "package": None,
    "resultcache": ("op_s", ("sweep-warm", "sweep-cold")),
    "tracing": None,
}

#: Span names whose call counts make up each ``*.calls`` metric.
CALLS = {
    "sim.schedule.calls": ("EventEngine.schedule",),
    "processor.loop.calls": ("Processor._loop",),
    "memiface.read.calls": ("NodeMemoryInterface.read",),
    "memiface.write.calls": ("NodeMemoryInterface.write",),
    "memiface.prefetch.calls": ("NodeMemoryInterface.prefetch",),
    "memiface.release_point.calls": ("NodeMemoryInterface.release_point",),
    "coherence.read.calls": ("CoherenceProtocol.read",),
    "coherence.read_fill.calls": ("CoherenceProtocol._read_fill",),
    "coherence.write.calls": ("CoherenceProtocol.write",),
    "coherence.prefetch.calls": ("CoherenceProtocol.prefetch",),
    "coherence.uncached.calls": (
        "CoherenceProtocol.read_uncached",
        "CoherenceProtocol.write_uncached",
    ),
    "sync.lock.calls": ("LockManager.acquire", "LockManager.release"),
    "sync.flag.calls": ("FlagManager.wait", "FlagManager.set"),
    "sync.barrier.calls": ("BarrierManager.arrive",),
    "resultcache.load.calls": ("ResultCache.load",),
    "resultcache.store.calls": ("ResultCache.store",),
}

#: Fewest operations attempted per run, however short ``--seconds`` is.
MIN_OPS = 3

#: Seconds between two host-speed samples while an operation runs, and
#: iterations of :func:`calibration_loop` per sample (about 0.4 ms, so
#: sampling costs about 2% of the run).
SAMPLE_PERIOD_S = 0.02
CALIBRATION_ITERS = 500
#: Mean seconds of one sample on the reference host, a 2-vCPU cloud VM
#: running Python 3.11, in a quiet phase.
REFERENCE_S = 0.0004


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, i: int) -> int:
        self.value = (self.value * 31 + i) & 0xFFFF
        return self.value


def calibration_loop() -> int:
    """Fixed pure-Python work of the kinds the simulator does: attribute
    access, method calls, dict lookups and a heap.  It calls nothing of
    the simulator, so a change to the simulator cannot change its time."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    cell = _Cell()
    total = 0
    for i in range(CALIBRATION_ITERS):
        total += cell.bump(i)
        table[i & 1023] = table.get((i * 7) & 1023, 0) + 1
        heapq.heappush(heap, (total & 0x3FF, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class HostSpeed:
    """Host speed, sampled while a block of code runs.

    Host speed on the shared VM the bounds were set on drops by up to
    1.9x in bursts of a fraction of a second, more often in some minutes
    than in others, and CPU time slows as much as wall time.  A timer
    interrupts the block every :data:`SAMPLE_PERIOD_S` to time
    :func:`calibration_loop`; the mean sample is the block's mean
    slowdown.  Over 111 LU and 170 MP3D simulations, the mean sample
    correlated 0.96 and 0.97 with the simulation's host time, and
    scaling cut the spread of 15-second medians from 10% to 3% and from
    19% to 4%.  A single calibration before each operation read 1.0x or
    1.8x depending on whether it hit a burst.  README.md has the rest.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_loop()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    @contextmanager
    def sampling(self):
        """Sample three times before the block, on a timer during it, and
        once after it.  The samples before it cover a set-up of a few
        milliseconds, which the timer seldom hits."""
        for _ in range(3):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def seconds(self, begin: float, end: float) -> float:
        """Reference seconds between two ``perf_counter`` readings taken
        in the block: the host time minus the samples taken in between,
        times :data:`REFERENCE_S` over the mean of the samples taken
        within a sample period of the interval."""
        inside = 0.0
        near = []
        for start, took in zip(self.starts, self.times):
            if begin <= start < end:
                inside += took
            if begin - SAMPLE_PERIOD_S <= start <= end + SAMPLE_PERIOD_S:
                near.append(took)
        return (end - begin - inside) * REFERENCE_S / statistics.mean(near)


def digest(result) -> str:
    from repro.experiments.resultcache import canonical_result_bytes

    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def load_simulator() -> None:
    """Import everything the workloads call, so no import is timed."""
    import repro.apps  # noqa: F401
    import repro.experiments.parallel  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.experiments.resultcache  # noqa: F401
    import repro.system.machine  # noqa: F401


class Bench:
    """Shared bookkeeping: operations attempted, failed, and why.

    ``op()`` runs one operation and returns its set-up and run time in
    reference seconds, or ``None`` when it failed outright.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Simulated references per operation.
        self.refs = 0
        #: Result-cache hits per lookup, and median entry size, of the
        #: last operation (zero for a simulation).
        self.hit_frac = 0.0
        self.entry_kb = 0.0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)


class SimBench(Bench):
    """One simulation per operation: build the program, build the
    machine, load, run."""

    def __init__(self, workload: Workload, seed: int, expected: str | None) -> None:
        super().__init__()
        from repro.apps import lu_program, mp3d_program, pthor_program
        from repro.config import Consistency, dash_scaled_config
        from repro.experiments.registry import app_config
        from repro.system.machine import Machine

        self.machine_cls = Machine
        self.build_program = {"MP3D": mp3d_program, "LU": lu_program, "PTHOR": pthor_program}[
            workload.app
        ]
        self.app_config = dataclasses.replace(app_config(workload.app, workload.scale), seed=seed)
        self.prefetching = workload.prefetching
        overrides = {
            key: Consistency[value] if key == "consistency" else value
            for key, value in workload.machine
        }
        self.config = dash_scaled_config(**overrides)
        #: The digest every run must reproduce: the recorded one at the
        #: default seed, else the warm-up run's.
        self.reference = expected

    @property
    def digests(self) -> dict[str, str]:
        return {"run": self.reference} if self.reference else {}

    def warm_up(self) -> None:
        self.op()

    def op(self) -> tuple[float, float] | None:
        self.attempted += 1
        speed = HostSpeed()
        try:
            with speed.sampling():
                start = time.perf_counter()
                program = self.build_program(self.app_config, prefetching=self.prefetching)
                machine = self.machine_cls(self.config)
                machine.load(program)
                loaded = time.perf_counter()
                result = machine.run()
                end = time.perf_counter()
        except Exception as exc:  # one failed simulation, keep measuring
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.refs = result.shared_reads + result.shared_writes
        got = digest(result)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            self.fail(f"digest {got[:12]} != {self.reference[:12]}")
        return speed.seconds(start, loaded), speed.seconds(loaded, end)


class SweepBench(Bench):
    """One pass over every sweep point per operation, through a fresh
    ``ExperimentRunner``; a cold pass starts from an empty result cache,
    a warm pass from a full one."""

    def __init__(
        self, workload: Workload, seed: int, expected: dict | None, work_dir: Path
    ) -> None:
        super().__init__()
        from repro.experiments.parallel import sweep_points_for
        from repro.experiments.registry import ExperimentRunner

        self.runner_cls = ExperimentRunner
        self.points_for = sweep_points_for
        self.cold = workload.kind == "sweep-cold"
        self.work_dir = work_dir
        self.full_cache = work_dir / "full"
        names = [p.name for p in self.runner(work_dir / "probe")[1]]
        random.Random(seed).shuffle(names)
        self.order = {name: i for i, name in enumerate(names)}
        #: Digest per point name: recorded ones, else first seen.
        self.digests: dict[str, str] = dict(expected or {})

    def runner(self, cache_dir: Path):
        runner = self.runner_cls(scale="smoke", cache_dir=cache_dir, jobs=1)
        return runner, self.points_for(SWEEP_TARGETS, runner)

    def warm_up(self) -> None:
        if not self.cold:
            self.pass_over(self.full_cache, warm=False)
            return
        runner, points = self.runner(Path(tempfile.mkdtemp(dir=self.work_dir)))
        self.attempted += 1
        try:
            runner.run(points[0].app, points[0].config, points[0].prefetching)
        except Exception as exc:  # counted, and the timed passes still run
            self.fail(f"{points[0].name}: {type(exc).__name__}: {exc}")

    def op(self) -> tuple[float, float]:
        if not self.cold:
            return self.pass_over(self.full_cache, warm=True)
        cache_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            return self.pass_over(cache_dir, warm=False)
        finally:
            shutil.rmtree(cache_dir)

    def pass_over(self, cache_dir: Path, warm: bool) -> tuple[float, float]:
        """Run every point once; on a warm pass a cache miss is a failure."""
        speed = HostSpeed()
        results = []
        with speed.sampling():
            start = time.perf_counter()
            runner, points = self.runner(cache_dir)
            points.sort(key=lambda p: self.order[p.name])
            ready = time.perf_counter()
            for point in points:
                try:
                    results.append(runner.run(point.app, point.config, point.prefetching))
                except Exception as exc:  # one failed point, keep measuring
                    results.append(exc)
            end = time.perf_counter()

        self.attempted += len(points)
        refs = 0
        for point, result in zip(points, results):
            if isinstance(result, Exception):
                self.fail(f"{point.name}: {type(result).__name__}: {result}")
                continue
            refs += result.shared_reads + result.shared_writes
            got = digest(result)
            want = self.digests.setdefault(point.name, got)
            if got != want:
                self.fail(f"{point.name}: digest {got[:12]} != {want[:12]}")
        self.refs = refs
        cache = runner.result_cache
        if warm and cache.misses:
            self.fail(f"warm pass missed the cache {cache.misses} times", cache.misses)
        self.hit_frac = cache.hits / cache.lookups if cache.lookups else 0.0
        sizes = [path.stat().st_size for path in cache_dir.glob("*.json")]
        self.entry_kb = statistics.median(sizes) / 1024 if sizes else 0.0
        return speed.seconds(start, ready), speed.seconds(ready, end)


def make_bench(workload: Workload, seed: int, work_dir: Path, record: bool) -> Bench:
    expected = {} if record else json.loads(EXPECTED_PATH.read_text("utf-8"))
    if workload.kind == "sim":
        recorded = expected.get(workload.name, {})
        reference = recorded.get("sha256") if recorded.get("seed") == seed else None
        return SimBench(workload, seed, reference)
    return SweepBench(workload, seed, expected.get(SWEEP_KEY), work_dir)


class Deadline:
    """Closed-loop run length: another iteration starts only if one as
    long as the last still ends within ``seconds`` of the first."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.last = time.perf_counter()

    def another(self) -> bool:
        now = time.perf_counter()
        step, self.last = now - self.last, now
        return now - self.start + step <= self.seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics of an untraced run; empty if every operation
    failed.  ``setup_s`` is the median of the operations' own set-ups."""
    bench.warm_up()
    setups: list[float] = []
    ops: list[float] = []
    rates: list[float] = []
    clock = Deadline(seconds)
    tries = 0
    while clock.another() or tries < MIN_OPS:
        tries += 1
        gc.collect()
        timed = bench.op()
        if timed is None:
            continue
        setup_s, run_s = timed
        setups.append(setup_s)
        ops.append(setup_s + run_s)
        rates.append(bench.refs / run_s)
    if not ops:
        return {}
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "setup_s": summarize(setups, units["setup_s"]),
        "op_s": summarize(ops, units["op_s"]),
        "refs_per_s": summarize(rates, units["refs_per_s"]),
        "peak_rss_mb": summarize([peak_rss_mb()], units["peak_rss_mb"]),
    }


class Harvest:
    """Simulated counters of every machine a traced operation ran."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.max_util = 0.0

    def clear(self) -> None:
        self.totals.clear()
        self.max_util = 0.0

    def snapshot(self) -> tuple:
        return tuple(sorted(self.totals.items())), self.max_util

    def __call__(self, machine, result) -> None:
        t = self.totals
        t["events"] += result.events_processed
        t["pclocks"] += result.execution_time
        t["refs"] += result.shared_reads + result.shared_writes
        for bucket, cycles in result.aggregate.cycles.items():
            t[f"cycles.{bucket.value}"] += cycles
        t["cycles"] += sum(result.aggregate.cycles.values())
        stats = result.protocol
        for access_class, count in stats.reads_by_class.items():
            t[f"reads.{access_class.value}"] += count
        t["invalidations_sent"] += stats.invalidations_sent
        t["ownership_transfers"] += stats.ownership_transfers
        t["writebacks"] += stats.sharing_writebacks + stats.eviction_writebacks
        t["wb_full_stall"] += sum(m.write_buffer_full_stall_cycles for m in machine.memifaces)
        t["pf_full_stall"] += result.prefetch.buffer_full_stall_cycles
        t["pf_issued"] += result.prefetch.issued_by_processor
        t["pf_discarded"] += result.prefetch.discarded
        t["store_forwards"] += sum(m.store_forwards for m in machine.memifaces)
        t["lock_acquires"] += result.sync.lock_acquires
        t["lock_contended"] += result.sync.contended_acquires
        net = machine.interconnect
        t["busy_pclocks"] += sum(
            res.busy_total
            for links in net.nodes + net.background
            for res in (links.bus, links.link_in, links.link_out, links.directory_ctl, links.memory)
        )
        report = net.utilization_report(result.execution_time)
        self.max_util = max([self.max_util, *report.values()])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    counts: dict[str, int],
    sim: Counter,
    max_util: float,
    queue_pclocks: int,
    shares: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric, from one traced operation's call counts
    and simulated counters, plus host measurements."""
    values: dict[str, float] = {
        name: sum(counts.get(span, 0) for span in spans) for name, spans in CALLS.items()
    }
    values["interconnect.charge.calls"] = sum(
        n for name, n in counts.items() if name.startswith("Interconnect.charge_")
    )
    values["apps.ops"] = counts.get(THREAD_NEXT, 0)
    values["sim.events"] = sim["events"]
    values["sim.pclocks"] = sim["pclocks"]
    memiface_refs = values["memiface.read.calls"] + values["memiface.write.calls"]
    values["processor.inline_frac"] = _ratio(sim["refs"] - memiface_refs, sim["refs"])
    reads = values["memiface.read.calls"]
    values["memiface.fused_read_frac"] = _ratio(reads - values["coherence.read.calls"], reads)
    for bucket in ("busy", "read_stall", "write_stall", "sync_stall", "switch"):
        values[f"processor.{bucket}_frac"] = _ratio(sim[f"cycles.{bucket}"], sim["cycles"])
    values["memiface.wb_full_stall_pclocks"] = sim["wb_full_stall"]
    values["memiface.pf_full_stall_pclocks"] = sim["pf_full_stall"]
    values["memiface.prefetch_discard_frac"] = _ratio(sim["pf_discarded"], sim["pf_issued"])
    values["memiface.store_forwards"] = sim["store_forwards"]
    for access_class in ("primary_hit", "secondary_hit", "local", "home", "remote"):
        values[f"coherence.reads.{access_class}"] = sim[f"reads.{access_class}"]
    for name in ("invalidations_sent", "ownership_transfers", "writebacks"):
        values[f"coherence.{name}"] = sim[name]
    values["interconnect.queue_pclocks"] = queue_pclocks
    values["interconnect.busy_pclocks"] = sim["busy_pclocks"]
    values["interconnect.max_util"] = max_util
    values["sync.contended_frac"] = _ratio(sim["lock_contended"], sim["lock_acquires"])
    for layer in LAYERS:
        values[f"{layer}.self_share"] = shares[layer]
    values.update(extra)
    return values


def measure_traced(bench: Bench, seconds: float, import_s: float, spans_path: str | None) -> dict:
    """Per-layer metrics, empty if every operation failed.  Untraced and
    traced operations alternate, so the tracing overhead is measured in
    the same process.  A layer's share is its self time over all traced
    self time."""
    harvest = Harvest()
    tracer = Tracer(on_run=harvest)
    bench.warm_up()
    untraced: list[float] = []
    traced: list[float] = []
    shares: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    first = None
    clock = Deadline(seconds)
    tries = 0
    while clock.another() or tries == 0:
        tries += 1
        gc.collect()
        timed = bench.op()
        if timed is not None:
            untraced.append(sum(timed))
        tracer.reset()
        harvest.clear()
        gc.collect()
        with tracer.installed():
            timed = bench.op()
        if timed is None:
            continue
        traced.append(sum(timed))
        self_by_layer = tracer.self_by_layer()
        total = sum(self_by_layer.values())
        for layer, self_s in self_by_layer.items():
            shares[layer].append(_ratio(self_s, total))
        observed = (tracer.counts(), harvest.snapshot(), tracer.queue_pclocks)
        if first is None:
            first = observed
        elif observed != first:
            bench.fail("traced runs disagree on call counts or simulated counters")
    if first is None or not untraced:
        return {}
    if spans_path:
        tracer.dump(spans_path)
    counts, (totals, max_util), queue_pclocks = first
    extra = {
        "package.import_s": import_s,
        "resultcache.hit_frac": bench.hit_frac,
        "resultcache.entry_kb": bench.entry_kb,
        "tracing.overhead": statistics.median(traced) / statistics.median(untraced),
    }
    values = layer_metrics(
        counts,
        Counter(dict(totals)),
        max_util,
        queue_pclocks,
        {layer: statistics.median(v) for layer, v in shares.items()},
        extra,
    )
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, *_ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--record", action="store_true", help="compare against no recorded digests")
    parser.add_argument("--spans", help="write the last traced operation's spans here")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    load_simulator()
    import_s = time.perf_counter() - begin
    workload = WORKLOADS[args.workload]
    bench = make_bench(workload, args.seed, args.work_dir, args.record)
    if args.trace:
        metrics = measure_traced(bench, args.seconds, import_s, args.spans)
    else:
        metrics = measure(bench, args.seconds)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "trace": args.trace,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "errors": bench.errors,
                "digests": bench.digests,
                "wall_s": time.perf_counter() - begin,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
