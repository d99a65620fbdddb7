"""Simulation results: breakdowns, statistics, derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.coherence import AccessClass, ProtocolStats
from repro.config import MachineConfig
from repro.faults.injector import FaultStats
from repro.processor.accounting import Bucket, TimeBreakdown

_HIT_CLASSES = (AccessClass.PRIMARY_HIT, AccessClass.SECONDARY_HIT)


@dataclass
class SyncSummary:
    """Aggregated synchronization statistics for Table 2."""

    lock_acquires: int = 0
    contended_acquires: int = 0
    flag_waits: int = 0
    barrier_crossings: int = 0
    barrier_episodes: int = 0

    @property
    def locks_total(self) -> int:
        """Lock column of Table 2: lock acquires plus ANL event waits
        (the paper's LU counts its per-column event waits here)."""
        return self.lock_acquires + self.flag_waits


@dataclass
class PrefetchSummary:
    """Prefetch effectiveness statistics (Section 5)."""

    issued_by_processor: int = 0
    sent_to_memory: int = 0
    discarded: int = 0
    demand_combined: int = 0
    buffer_full_stall_cycles: int = 0


@dataclass
class SimulationResult:
    """Everything measured in one run of one program on one machine."""

    program_name: str
    config: MachineConfig
    execution_time: int
    per_processor: List[TimeBreakdown]
    protocol: ProtocolStats
    sync: SyncSummary
    prefetch: PrefetchSummary
    shared_reads: int
    shared_writes: int
    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int
    shared_data_bytes: int
    world: object = None
    #: Fault-injection counters (None when no fault layer was installed).
    faults: Optional[FaultStats] = None
    events_processed: int = 0
    run_lengths: List[int] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ---------------------------------------------------

    @property
    def num_processors(self) -> int:
        return len(self.per_processor)

    @property
    def aggregate(self) -> TimeBreakdown:
        """Sum of all processors' buckets, padded so every processor
        spans the full execution time (early finishers idle at the end)."""
        total = TimeBreakdown()
        for breakdown in self.per_processor:
            for bucket in Bucket:
                total.cycles[bucket] += breakdown.cycles[bucket]
            pad = self.execution_time - breakdown.total
            if pad > 0:
                pad_bucket = (
                    Bucket.ALL_IDLE
                    if self.config.contexts_per_processor > 1
                    else Bucket.SYNC_STALL
                )
                total.cycles[pad_bucket] += pad
        return total

    @property
    def busy_cycles(self) -> int:
        return sum(b.cycles[Bucket.BUSY] for b in self.per_processor)

    @property
    def processor_utilization(self) -> float:
        denom = self.execution_time * self.num_processors
        return self.busy_cycles / denom if denom else 0.0

    def read_hit_rate(self) -> Optional[float]:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else None

    def write_hit_rate(self) -> Optional[float]:
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else None

    def median_run_length(self) -> Optional[int]:
        """Median busy run between long-latency operations (the paper
        reports 11/6/7 pclocks for MP3D/LU/PTHOR under cached SC)."""
        if not self.run_lengths:
            return None
        ordered = sorted(self.run_lengths)
        return ordered[len(ordered) // 2]

    @property
    def fault_retries(self) -> int:
        """Transaction re-issues forced by injected NACKs/drops (0 when
        no fault layer was installed)."""
        return self.faults.retries if self.faults is not None else 0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Baseline execution time divided by this run's (>1 is faster)."""
        if self.execution_time == 0:
            raise ZeroDivisionError("degenerate run with zero time")
        return baseline.execution_time / self.execution_time

    def prefetch_coverage(self, baseline: "SimulationResult") -> Optional[float]:
        """Fraction of the baseline's misses that this (prefetching) run
        covered — the paper's *coverage factor* (Section 5.2)."""
        base_misses = baseline.read_misses + baseline.write_misses
        if base_misses == 0:
            return None
        run_misses = self.read_misses + self.write_misses
        covered = base_misses - max(0, run_misses - 0)
        return max(0.0, min(1.0, covered / base_misses))


def classify_counts(by_class: Dict[AccessClass, int]):
    """Split an access-class histogram into (hits, misses)."""
    hits = sum(count for cls, count in by_class.items() if cls in _HIT_CLASSES)
    misses = sum(
        count for cls, count in by_class.items() if cls not in _HIT_CLASSES
    )
    return hits, misses
