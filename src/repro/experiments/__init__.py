"""Experiment harness: regenerators for every table and figure."""

from repro.experiments.breakdown import (
    Bar,
    MULTI_COMPONENTS,
    SINGLE_COMPONENTS,
    multi_context_components,
    normalize,
    single_context_components,
)
from repro.experiments.figures import (
    FIGURE_VARIANTS,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    summary_speedups,
    summary_variants,
)
from repro.experiments.parallel import (
    JobsError,
    execute_sweep_points,
    resolve_jobs,
    sweep_points_for,
)
from repro.experiments.registry import (
    APP_NAMES,
    SCALE_NAMES,
    SMOKE_PROCESSES,
    ExperimentRunner,
    SweepPoint,
    app_config,
    build_app,
    run_point,
    smoke_program,
)
from repro.experiments.report import format_bars, format_table
from repro.experiments.resultcache import (
    ResultCache,
    canonical_result_bytes,
    config_fingerprint,
    result_from_bytes,
    run_fingerprint,
)
from repro.experiments.supervisor import (
    ConfigStatus,
    ExperimentSupervisor,
    SweepEntry,
    SweepReport,
)
from repro.experiments.tables import (
    LatencyProbe,
    Table2Row,
    table1,
    table2,
)

__all__ = [
    "APP_NAMES",
    "Bar",
    "ConfigStatus",
    "ExperimentRunner",
    "ExperimentSupervisor",
    "FIGURE_VARIANTS",
    "JobsError",
    "LatencyProbe",
    "MULTI_COMPONENTS",
    "ResultCache",
    "SCALE_NAMES",
    "SINGLE_COMPONENTS",
    "SMOKE_PROCESSES",
    "SweepEntry",
    "SweepPoint",
    "SweepReport",
    "Table2Row",
    "app_config",
    "build_app",
    "canonical_result_bytes",
    "config_fingerprint",
    "execute_sweep_points",
    "resolve_jobs",
    "result_from_bytes",
    "run_fingerprint",
    "run_point",
    "smoke_program",
    "summary_variants",
    "sweep_points_for",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "format_bars",
    "format_table",
    "multi_context_components",
    "normalize",
    "single_context_components",
    "summary_speedups",
    "table1",
    "table2",
]
