"""The paper's shape claims, as one declarative table.

The reproduction is judged on shape: who wins, by roughly what factor,
and where the crossovers fall.  Each :class:`Claim` states one such
fact as ``measured OP bound`` over a named *input* — a figure's bars,
the Section 7 speedups, a table, or a small sweep of execution times —
and is evaluated once per case (by default, once per app it covers).
Thresholds are recorded at ``bench`` scale only (:data:`SCALES`); a
claim that leans on a documented deviation names its EXPERIMENTS.md
entry.

``repro-1991 check --checks claims`` evaluates the table through an
:class:`~repro.experiments.registry.ExperimentRunner`, after fanning
:func:`points` out over ``--jobs`` workers and the ``--cache-dir``
result cache.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.base import PrefetchMode
from repro.config import CacheGeometry, Consistency, ContentionConfig, dash_scaled_config
from repro.experiments.figures import (
    Variant,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    summary_speedups,
)
from repro.experiments.parallel import target_variants, variant_points
from repro.experiments.registry import APP_NAMES, ExperimentRunner, SweepPoint
from repro.experiments.tables import table1, table2

#: The scales at which thresholds are recorded.
SCALES = ("bench",)

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


@dataclass(frozen=True)
class Sweep:
    """Execution times of ``variants`` for each of ``apps``, as
    ``{app: {label: pclocks}}``: the input of the ablation and
    consistency-spectrum claims."""

    apps: Tuple[str, ...]
    variants: Tuple[Variant, ...]

    def __call__(self, runner: ExperimentRunner) -> Dict[str, Dict[str, int]]:
        return {
            app: {
                label: runner.run(app, config, prefetching).execution_time
                for label, config, prefetching in self.variants
            }
            for app in self.apps
        }


def _bars(figure):
    """A figure's bars as ``{app: {label: Bar}}``."""
    return lambda runner: {
        app: {bar.label: bar for bar in bars}
        for app, bars in figure(runner).items()
    }


def _rc(**kw):
    return dash_scaled_config(consistency=Consistency.RC, **kw)


def _cache_sizes():
    for label, primary, secondary in (
        ("scaled 2K/4K", 2 * 1024, 4 * 1024),
        ("mid 8K/16K", 8 * 1024, 16 * 1024),
        ("full 64K/256K", 64 * 1024, 256 * 1024),
    ):
        base = dash_scaled_config(
            primary_cache=CacheGeometry(size_bytes=primary),
            secondary_cache=CacheGeometry(size_bytes=secondary),
        )
        yield (f"{label} SC", base, False)
        yield (f"{label} RC", base.replace(consistency=Consistency.RC), False)


def _distance_points(runner: ExperimentRunner) -> List[SweepPoint]:
    """LU under RC, prefetching 1, 3 and 6 lines ahead (never LU's
    default of 4, so no other input makes these points)."""
    base = runner.point("LU", _rc(), True)
    return [
        dataclasses.replace(
            base,
            name=f"LU/distance {distance}",
            dataset=dataclasses.replace(base.dataset, prefetch_distance_lines=distance),
        )
        for distance in (1, 3, 6)
    ]


def _prefetch_distance(runner: ExperimentRunner) -> Dict[str, Dict[str, int]]:
    return {"LU": {
        f"distance {point.dataset.prefetch_distance_lines}":
            runner.run_point(point).execution_time
        for point in _distance_points(runner)
    }}


#: Figure, table and Section 7 inputs: name -> value(runner).  Each name
#: is also a sweep target (:func:`~repro.experiments.parallel.target_variants`).
_TARGETS: Dict[str, Callable[[ExperimentRunner], Any]] = {
    "table1": lambda runner: table1(),
    "table2": lambda runner: {row.app: row for row in table2(runner)},
    "fig2": _bars(figure2),
    "fig3": _bars(figure3),
    "fig4": _bars(figure4),
    "fig5": _bars(figure5),
    "fig6": _bars(figure6),
    "summary": summary_speedups,
}

#: Ablation and consistency-spectrum inputs, run through the runner.
_SWEEPS: Dict[str, Sweep] = {
    "consistency": Sweep(APP_NAMES, tuple(
        (model.name, dash_scaled_config(consistency=model), False)
        for model in (Consistency.SC, Consistency.PC, Consistency.WC, Consistency.RC)
    )),
    "switch": Sweep(("MP3D",), tuple(
        (f"sw{switch}", dash_scaled_config(
            contexts_per_processor=4, context_switch_cycles=switch), False)
        for switch in (0, 32)
    )),
    "outstanding": Sweep(("MP3D",), tuple(
        (f"{outstanding} outstanding", _rc(max_outstanding_writes=outstanding), False)
        for outstanding in (1, 8)
    )),
    "contention": Sweep(("MP3D",), (
        ("queued resources", dash_scaled_config(), False),
        ("no contention",
         dash_scaled_config(contention=ContentionConfig(enabled=False)), False),
    )),
    "cache-size": Sweep(("MP3D",), tuple(_cache_sizes())),
    "mc-prefetch": Sweep(("MP3D",), tuple(
        (label, _rc(contexts_per_processor=4, context_switch_cycles=4), mode)
        for label, mode in (
            ("full prefetch", True), ("MC-aware prefetch", PrefetchMode.REMOTE_ONLY)
        )
    )),
}

INPUTS: Dict[str, Callable[[ExperimentRunner], Any]] = {
    **_TARGETS, **_SWEEPS, "prefetch-distance": _prefetch_distance,
}


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``measured(value, case) OP bound`` must hold for
    every case, where ``value`` is ``INPUTS[input](runner)``."""

    id: str
    #: The paper's figure, table or section it checks.
    source: str
    input: str
    apps: Tuple[str, ...]
    #: The claim in words, its bench-scale threshold as written.
    text: str
    measured: Callable[[Any, str], float]
    op: str
    #: The threshold, or ``bound(value, case)`` when it scales with
    #: another measurement.
    bound: Union[float, Callable[[Any, str], float]]
    #: Evaluation cases; by default, one per app.
    cases: Tuple[str, ...] = ()
    #: The EXPERIMENTS.md "Documented deviations" entry it depends on.
    deviation: Optional[int] = None


_ALL = APP_NAMES
_CROSS = ("cross-app",)


def _speedup(bars, app, base, faster):
    return bars[app][base].total / bars[app][faster].total


def _fig5_switch_claim(contexts: int) -> Claim:
    return Claim(
        f"fig5.sw4-beats-sw16-{contexts}ctx", "Figure 5", "fig5", _ALL,
        f"{contexts}ctx sw4 total <= {contexts}ctx sw16 total + 1.0",
        lambda b, app: b[app][f"{contexts}ctx sw4"].total, "<=",
        lambda b, app: b[app][f"{contexts}ctx sw16"].total + 1.0,
    )


def _fig6_rc_claim(contexts: int) -> Claim:
    return Claim(
        f"fig6.rc-beats-sc-{contexts}ctx", "Figure 6", "fig6", _ALL,
        f"RC {contexts}ctx total <= SC {contexts}ctx total * 1.08 + 2.0",
        lambda b, app: b[app][f"RC {contexts}ctx"].total, "<=",
        lambda b, app: b[app][f"SC {contexts}ctx"].total * 1.08 + 2.0,
    )


#: Every claim, in evaluation order.  Ids are unique.
CLAIMS: Tuple[Claim, ...] = (
    Claim("table1.latencies-exact", "Table 1", "table1", (),
          "probes whose measured latency differs from the paper's == 0",
          lambda probes, _: sum(not p.matches for p in probes), "==", 0,
          cases=("all probes",)),
    Claim("table2.mp3d-no-locks", "Table 2", "table2", ("MP3D",),
          "MP3D locks == 0", lambda rows, app: rows[app].locks, "==", 0),
    Claim("table2.pthor-locks-exceed-lu", "Table 2", "table2", ("PTHOR", "LU"),
          "PTHOR locks > LU locks",
          lambda rows, _: rows["PTHOR"].locks, ">",
          lambda rows, _: rows["LU"].locks, cases=_CROSS),
    Claim("table2.mp3d-reads-exceed-writes", "Table 2", "table2", ("MP3D",),
          "MP3D shared reads > shared writes",
          lambda rows, app: rows[app].shared_reads_k, ">",
          lambda rows, app: rows[app].shared_writes_k),
    Claim("table2.lu-reads-exceed-writes", "Table 2", "table2", ("LU",),
          "LU shared reads > 1.5 * shared writes",
          lambda rows, app: rows[app].shared_reads_k, ">",
          lambda rows, app: 1.5 * rows[app].shared_writes_k),
    Claim("fig2.caching-speedup", "Figure 2", "fig2", ("MP3D", "LU"),
          "no-cache total / cached total > 1.5",
          lambda b, app: _speedup(b, app, "no_cache", "cache"), ">", 1.5),
    Claim("fig2.pthor-caching-speedup", "Figure 2", "fig2", ("PTHOR",),
          "no-cache total / cached total > 0.85",
          lambda b, app: _speedup(b, app, "no_cache", "cache"), ">", 0.85,
          deviation=1),
    Claim("fig2.read-stall-removed", "Figure 2", "fig2", _ALL,
          "no-cache read stall - cached read stall > 0",
          lambda b, app: b[app]["no_cache"].component("read")
          - b[app]["cache"].component("read"), ">", 0),
    Claim("fig3.rc-removes-write-stall", "Figure 3", "fig3", _ALL,
          "RC write stall < 0.1 * max(SC write stall, 1e-9) + 1.0",
          lambda b, app: b[app]["RC"].component("write"), "<",
          lambda b, app: 0.1 * max(b[app]["SC"].component("write"), 1e-9) + 1.0),
    Claim("fig3.rc-not-slower", "Figure 3", "fig3", _ALL,
          "RC total <= SC total + 1e-6",
          lambda b, app: b[app]["RC"].total, "<=",
          lambda b, app: b[app]["SC"].total + 1e-6),
    Claim("fig3.mp3d-gains-more-than-lu", "Figure 3", "fig3", ("MP3D", "LU"),
          "MP3D SC/RC speedup > LU SC/RC speedup",
          lambda b, _: _speedup(b, "MP3D", "SC", "RC"), ">",
          lambda b, _: _speedup(b, "LU", "SC", "RC"), cases=_CROSS),
    Claim("fig4.sc-prefetch-cuts-read-stall", "Figure 4", "fig4", _ALL,
          "SC+pf read stall < SC read stall",
          lambda b, app: b[app]["SC+pf"].component("read"), "<",
          lambda b, app: b[app]["SC"].component("read")),
    Claim("fig4.rc-prefetch-cuts-read-stall", "Figure 4", "fig4", _ALL,
          "RC+pf read stall < RC read stall",
          lambda b, app: b[app]["RC+pf"].component("read"), "<",
          lambda b, app: b[app]["RC"].component("read")),
    Claim("fig4.rc-prefetch-best", "Figure 4", "fig4", _ALL,
          "RC+pf total <= min(SC, SC+pf, RC totals) + 1.0",
          lambda b, app: b[app]["RC+pf"].total, "<=",
          lambda b, app: min(b[app][label].total for label in ("SC", "SC+pf", "RC"))
          + 1.0),
    Claim("fig4.prefetch-overhead-visible", "Figure 4", "fig4", _ALL,
          "SC+pf prefetch overhead > 0",
          lambda b, app: b[app]["SC+pf"].component("pf_overhead"), ">", 0),
    Claim("fig4.mp3d-gains-more-than-pthor", "Figure 4", "fig4", ("MP3D", "PTHOR"),
          "MP3D SC/SC+pf speedup > PTHOR SC/SC+pf speedup",
          lambda b, _: _speedup(b, "MP3D", "SC", "SC+pf"), ">",
          lambda b, _: _speedup(b, "PTHOR", "SC", "SC+pf"), cases=_CROSS),
    _fig5_switch_claim(2),
    _fig5_switch_claim(4),
    Claim("fig5.mp3d-contexts-pay", "Figure 5", "fig5", ("MP3D",),
          "4ctx sw4 total < 1ctx total",
          lambda b, app: b[app]["4ctx sw4"].total, "<",
          lambda b, app: b[app]["1ctx"].total),
    Claim("fig5.lu-switch-cost", "Figure 5", "fig5", ("LU",),
          "4ctx sw16 total > 4ctx sw4 total",
          lambda b, app: b[app]["4ctx sw16"].total, ">",
          lambda b, app: b[app]["4ctx sw4"].total),
    _fig6_rc_claim(1),
    _fig6_rc_claim(2),
    _fig6_rc_claim(4),
    Claim("fig6.best-combination", "Figure 6", "fig6", _ALL,
          "best total < 0.9 * SC 1ctx total",
          lambda b, app: min(bar.total for bar in b[app].values()), "<",
          lambda b, app: 0.9 * b[app]["SC 1ctx"].total),
    Claim("summary.caching-speedup", "Section 7", "summary", ("MP3D", "LU"),
          "cache over uncached > 1.5",
          lambda s, app: s[app]["cache_over_uncached"], ">", 1.5),
    Claim("summary.pthor-caching-speedup", "Section 7", "summary", ("PTHOR",),
          "cache over uncached > 0.85",
          lambda s, app: s[app]["cache_over_uncached"], ">", 0.85, deviation=1),
    Claim("summary.rc-speedup", "Section 7", "summary", _ALL,
          "RC over SC >= 1.0", lambda s, app: s[app]["rc_over_sc"], ">=", 1.0),
    Claim("summary.combined-speedup", "Section 7", "summary", ("MP3D", "LU"),
          "best combination over uncached > 2.5",
          lambda s, app: s[app]["combined_over_uncached"], ">", 2.5),
    Claim("summary.pthor-combined-speedup", "Section 7", "summary", ("PTHOR",),
          "best combination over uncached > 1.2",
          lambda s, app: s[app]["combined_over_uncached"], ">", 1.2, deviation=1),
    Claim("consistency.buffered-never-lose", "Section 4 (extension)", "consistency", _ALL,
          "max(PC, WC, RC) <= SC",
          lambda t, app: max(t[app]["PC"], t[app]["WC"], t[app]["RC"]), "<=",
          lambda t, app: t[app]["SC"]),
    Claim("consistency.wc-fences-cost", "Section 4 (extension)", "consistency", _ALL,
          "WC >= RC * 0.98",
          lambda t, app: t[app]["WC"], ">=", lambda t, app: t[app]["RC"] * 0.98),
    Claim("consistency.pc-fastest", "Section 4 (extension)", "consistency", _ALL,
          "PC <= WC * 1.02",
          lambda t, app: t[app]["PC"], "<=", lambda t, app: t[app]["WC"] * 1.02),
    Claim("ablation.switch-overhead", "ablation, Section 6", "switch", ("MP3D",),
          "4ctx, 0-cycle switch < 4ctx, 32-cycle switch",
          lambda t, app: t[app]["sw0"], "<", lambda t, app: t[app]["sw32"]),
    Claim("ablation.write-pipelining", "ablation", "outstanding", ("MP3D",),
          "RC, 8 outstanding writes <= 1 outstanding write * 1.02",
          lambda t, app: t[app]["8 outstanding"], "<=",
          lambda t, app: t[app]["1 outstanding"] * 1.02),
    Claim("ablation.contention", "ablation", "contention", ("MP3D",),
          "queued resources >= no contention",
          lambda t, app: t[app]["queued resources"], ">=",
          lambda t, app: t[app]["no contention"]),
    Claim("ablation.cache-size-rc-gain", "ablation, Section 2.3", "cache-size", ("MP3D",),
          "round(SC / RC, 2) >= 1.0",
          lambda t, size: round(t["MP3D"][f"{size} SC"] / t["MP3D"][f"{size} RC"], 2),
          ">=", 1.0, cases=("scaled 2K/4K", "mid 8K/16K", "full 64K/256K")),
    Claim("ablation.cache-size-time", "ablation, Section 2.3", "cache-size", ("MP3D",),
          "full 64K/256K SC < scaled 2K/4K SC",
          lambda t, app: t[app]["full 64K/256K SC"], "<",
          lambda t, app: t[app]["scaled 2K/4K SC"]),
    Claim("ablation.prefetch-distance-runs", "ablation, Section 5.2", "prefetch-distance",
          ("LU",), "runs completed at distances 1, 3, 6 == 3 (checks no shape)",
          lambda t, app: len(t[app]), "==", 3),
    Claim("ablation.mc-aware-prefetch", "Section 7 (extension)", "mc-prefetch", ("MP3D",),
          "RC 4ctx, MC-aware prefetch <= full prefetch",
          lambda t, app: t[app]["MC-aware prefetch"], "<=",
          lambda t, app: t[app]["full prefetch"]),
)


@dataclass(frozen=True)
class Outcome:
    """One claim evaluated on one case."""

    claim: Claim
    case: str
    measured: float
    bound: float

    @property
    def holds(self) -> bool:
        return _OPS[self.claim.op](self.measured, self.bound)

    def format(self) -> str:
        claim = self.claim
        note = f"  [deviation {claim.deviation}]" if claim.deviation else ""
        return (
            f"  {'ok  ' if self.holds else 'FAIL'} {claim.id:<34} {self.case:<13} "
            f"{_number(self.measured):>10} {claim.op:<2} {_number(self.bound):<10} "
            f"{claim.text}{note}"
        )


def _number(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.3f}"


def points(runner: ExperimentRunner, claims: Sequence[Claim] = CLAIMS) -> List[SweepPoint]:
    """Every simulation point the claims' inputs take from ``runner``,
    deduplicated, for :meth:`ExperimentRunner.prewarm`."""
    used = {claim.input for claim in claims}
    groups = [(APP_NAMES, target_variants(name)) for name in _TARGETS if name in used]
    groups += [
        (sweep.apps, sweep.variants) for name, sweep in _SWEEPS.items() if name in used
    ]
    distances = _distance_points(runner) if "prefetch-distance" in used else []
    return variant_points(groups, runner) + distances


def evaluate(runner: ExperimentRunner, claims: Sequence[Claim] = CLAIMS) -> List[Outcome]:
    """Evaluate ``claims`` in order, computing each input once."""
    values: Dict[str, Any] = {}
    outcomes = []
    for claim in claims:
        if claim.input not in values:
            values[claim.input] = INPUTS[claim.input](runner)
        value = values[claim.input]
        for case in claim.cases or claim.apps:
            bound = claim.bound(value, case) if callable(claim.bound) else claim.bound
            outcomes.append(Outcome(claim, case, claim.measured(value, case), bound))
    return outcomes
