"""Command-line interface.

``repro-1991 table1`` / ``table2`` / ``fig2`` .. ``fig6`` / ``summary`` /
``all`` regenerate the paper's tables and figures at a chosen workload
scale and print them next to the paper's published values.

``repro-1991 check`` runs the analysis passes declared once each in
:data:`CHECKS`: its flags, ``--list-checks``, the selection rules and
the verdict are all built from that registry.
"""

from __future__ import annotations

import argparse
import pathlib
import shlex
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.experiments import (
    ExperimentRunner,
    JobsError,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    format_bars,
    format_table,
    resolve_jobs,
    summary_speedups,
    sweep_points_for,
    table1,
    table2,
)
from repro.experiments import paper_data
from repro.analysis import (
    LAT_MUTATIONS,
    PROTO_MUTATIONS,
    LogicalExecutor,
    ModelConfig,
    OpLinter,
    RaceDetector,
    analyze_apps,
    audit_app,
    check_accounting,
    check_protocol,
    format_counterexample,
    lint_table,
    mutated_table,
)
from repro.analysis.modelcheck import MUTATIONS as MC_MUTATIONS
from repro.analysis.protodiff import (
    DIFF_MUTATION_BASE,
    DIFF_MUTATIONS,
    diff_specs,
    mutated_spec,
)
from repro.analysis.tracecheck import MUTATION_NAMES as TRACE_MUTATIONS


def _print_table1() -> None:
    probes = table1()
    rows = [
        (p.operation, p.expected, p.measured, "ok" if p.matches else "MISMATCH")
        for p in probes
    ]
    print(
        format_table(
            "Table 1: memory operation latencies (pclocks, no contention)",
            ["operation", "paper", "measured", ""],
            rows,
        )
    )


#: Table 2's measured columns (also its paper_data keys) and headers.
_TABLE2_COLUMNS = (
    ("useful_kcycles", "busy(K)"), ("shared_reads_k", "reads(K)"),
    ("shared_writes_k", "writes(K)"), ("locks", "locks"),
    ("barriers", "barriers"), ("shared_kbytes", "KB"),
)


def _print_table2(runner: ExperimentRunner) -> None:
    rows = []
    for row in table2(runner):
        cells = [row.app]
        for field, _ in _TABLE2_COLUMNS:
            value = getattr(row, field)
            cells.append(f"{value:.0f}" if isinstance(value, float) else value)
            cells.append(paper_data.TABLE2[row.app][field])
        rows.append(tuple(cells))
    headers = ["app"]
    for _, header in _TABLE2_COLUMNS:
        headers += [header, "paper"]
    print(
        format_table(
            f"Table 2: general statistics (measured at scale={runner.scale!r} "
            "vs paper's full workloads)",
            headers,
            rows,
        )
    )


def _figure(title: str, fn, paper, multi_context: bool = False):
    def render(runner: ExperimentRunner) -> None:
        bars = fn(runner)
        print(format_bars(title, bars, paper_totals=paper,
                          multi_context=multi_context))
    return render


def _print_summary(runner: ExperimentRunner) -> None:
    speedups = summary_speedups(runner)
    rows = []
    for app, values in speedups.items():
        rows.append(
            (
                app,
                values["cache_over_uncached"],
                values["rc_over_sc"],
                values["rc_pf_over_sc"],
                values["combined_over_uncached"],
            )
        )
    print(
        format_table(
            "Section 7 headline speedups (combined best is over the "
            "uncached baseline; paper reports 4-7x)",
            ["app", "cache", "RC/SC", "RC+pf/SC", "combined"],
            rows,
        )
    )


#: Every artifact target, in ``all`` order: name -> renderer(runner).
_ARTIFACTS = {
    "table1": lambda runner: _print_table1(),
    "table2": _print_table2,
    "fig2": _figure("Figure 2: effect of caching shared data", figure2,
                    paper_data.FIGURE2_TOTALS),
    "fig3": _figure("Figure 3: effect of relaxing the consistency model",
                    figure3, paper_data.FIGURE3_TOTALS),
    "fig4": _figure("Figure 4: effect of prefetching", figure4,
                    paper_data.FIGURE4_TOTALS),
    "fig5": _figure("Figure 5: effect of multiple contexts (SC)", figure5,
                    paper_data.FIGURE5_TOTALS, multi_context=True),
    "fig6": _figure("Figure 6: combining the schemes (switch latency 4)",
                    figure6, paper_data.FIGURE6_TOTALS, multi_context=True),
    "summary": _print_summary,
}

#: Artifact targets a sweep can enumerate simulation points for
#: (``table1`` is latency probes, not program runs).
_SWEEP_TARGETS = tuple(name for name in _ARTIFACTS if name != "table1")

_CHECK_APPS = ("MP3D", "LU", "PTHOR")


def _app_names(app: str) -> Tuple[str, ...]:
    return _CHECK_APPS if app == "all" else (app,)


def _check_programs(app: str):
    """Small (app name, program, processes) triples for ``repro check``."""
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program

    return [(name, smoke_program(name), SMOKE_PROCESSES)
            for name in _app_names(app)]


#: The ``--mc-*`` model-checker bounds: flag, default, help noun.
_MC_BOUNDS = (
    ("--mc-caches", 2, "number of caches"),
    ("--mc-lines", 1, "number of lines"),
    ("--mc-values", 2, "distinct data values"),
    ("--mc-in-flight", 2, "messages in flight"),
    ("--mc-retries", 2, "NACK retry budget"),
)


def _model_config(args) -> ModelConfig:
    """The ``--mc-*`` bounds shared by model, protolint and protomatrix."""
    from repro.faults.plan import BackoffPolicy

    return ModelConfig(
        num_caches=args.mc_caches,
        num_lines=args.mc_lines,
        num_values=args.mc_values,
        max_in_flight=args.mc_in_flight,
        backoff=BackoffPolicy(max_retries=args.mc_retries),
    )


def _indent(text: str) -> str:
    return text.replace("\n", "\n  ")


def check_fingerprint(label: str, path, computed: str, changed: str) -> int:
    """Compare-or-write a fingerprint cache file (CI's fast diff
    detector): write ``computed`` to ``path`` when absent, compare when
    present.  ``label`` opens every message (``[model]``, ``[protolint]
    table``, ...); ``changed`` says what a mismatch means and what to
    review.  Returns nonzero on a mismatch."""
    path = pathlib.Path(path)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(computed + "\n")
        print(f"{label} fingerprint cached to {path}")
        return 0
    cached = path.read_text().strip()
    if cached != computed:
        print(
            f"{label} fingerprint MISMATCH: cached {cached[:16]} != "
            f"computed {computed[:16]} — {changed} and delete {path} to "
            f"accept"
        )
        return 1
    print(f"{label} fingerprint matches cache ({path})")
    return 0


# -- one run(args) -> int per check ------------------------------------------


def _run_op_streams(args) -> int:
    """``lint`` and ``races`` share one logical execution per app, so
    their reports interleave app by app.  Only lint findings fail; data
    races are reported but do not fail the check (MP3D's move-phase
    races are benign and acknowledged by the paper)."""
    selected = select_checks(args)
    lint = "lint" in selected
    races = "races" in selected
    status = 0
    for name, program, processes in _check_programs(args.app):
        linter = OpLinter(source=name)
        detector = RaceDetector()
        listeners = [linter] if lint else []
        if races:
            listeners.append(detector)
        summary = LogicalExecutor(
            program, processes, listeners=listeners, strict=False
        ).run()
        print(f"[{name}] {summary.ops_executed} ops from "
              f"{summary.num_threads} threads")
        if lint:
            print(f"  {linter.format_issues()}")
            if linter.failures(args.strict):
                status = 1
        if races:
            print(f"  {detector.format_reports()}")
            if args.verbose:
                for report in detector.reports:
                    print(f"    {report}")
    return status


def _run_litmus(args) -> int:
    from repro.analysis.litmus import run_suite

    results = run_suite()
    bad = [result for result in results if not result.ok]
    print(f"[litmus] {len(results)} (test, model) pairs, "
          f"{len(bad)} violation(s)")
    for result in bad:
        print(f"  {result.explain()}")
    if args.verbose:
        for result in results:
            print(f"  {result.test.name} {result.model.name}: "
                  f"{sorted(result.observed)}")
    return 1 if bad else 0


def _run_invariants(args) -> int:
    from repro.config import dash_scaled_config
    from repro.sim.engine import SimulationError
    from repro.system import Machine

    status = 0
    for name, program, processes in _check_programs(args.app):
        config = dash_scaled_config(
            num_processors=processes, sanitize=True,
            seed=args.seed, max_events=args.max_events,
        )
        machine = Machine(config)
        machine.load(program)
        try:
            machine.run()
        except SimulationError as exc:  # srclint: ok(swallow-simulation-error) — reported, fails the check
            print(f"[invariants] {name}: FAILED\n{exc}")
            status = 1
        else:
            print(f"[invariants] {name}: ok "
                  f"({machine.sanitizer.checks_performed} checks)")
    return status


def run_fault_matrix(args) -> int:
    """The ``check --faults`` matrix: run each smoke app under a seeded
    fault plan with the coherence sanitizer armed and a wall-clock
    watchdog, supervised so one failing configuration does not take the
    others down.  Each app runs three machine legs: SC with one context,
    which exercises the protocol alone, and RC with prefetching and RC
    with four contexts, which put buffered writes, prefetches and MSHR
    entries in front of the sanitizer.  Returns nonzero if any
    configuration failed."""
    from repro.config import Consistency, dash_scaled_config
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.experiments.supervisor import ExperimentSupervisor
    from repro.faults import FaultPlan, Watchdog
    from repro.system import run_program

    fault_level = args.faults if args.faults != "none" else "smoke"
    plan = FaultPlan.preset(fault_level, seed=args.seed)
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        sanitize=True,
        seed=args.seed,
        max_events=args.max_events,
        fault_plan=plan,
    )
    rc = config.replace(consistency=Consistency.RC)
    legs = (
        ("SC", False, config),
        ("RC+pf", True, rc),
        ("RC 4ctx", False, rc.replace(contexts_per_processor=4)),
    )
    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(wall_clock_limit_s=90.0),
        verbose=args.verbose,
    )
    jobs = [
        (
            f"{name} {label}",
            (lambda n, pf, c: lambda watchdog=None: run_program(
                smoke_program(n, prefetching=pf), c, watchdog=watchdog
            ))(name, prefetching, leg_config),
        )
        for name in _app_names(args.app)
        for label, prefetching, leg_config in legs
    ]
    report = supervisor.run_sweep(f"faults-{fault_level}", jobs)
    print(f"[faults] plan={fault_level} seed={args.seed}")
    for entry in report.entries:
        if entry.ok:
            print(f"  {entry.name}: {entry.status.value} — "
                  f"{entry.result.faults.summary()}")
        else:
            print(f"  {entry.name}: FAILED — {entry.error.splitlines()[0]}")
    print(f"  {report.format().splitlines()[0]}")
    return 0 if report.ok else 1


def run_model_check(args) -> int:
    """The ``check --model-check`` entry point: exhaustively enumerate
    the abstract protocol, print the verdict (and the counterexample
    trace if an invariant broke), and optionally compare the
    reachable-state fingerprint against a cached one so CI fails fast on
    unreviewed protocol diffs.  Returns nonzero on a violation or a
    fingerprint mismatch."""
    result = check_protocol(_model_config(args), mutation=args.mc_mutate)
    print(f"[model] {result.summary()}")
    if result.violation is not None:
        print(format_counterexample(result.violation))
        return 1
    if args.mc_fingerprint:
        return check_fingerprint(
            "[model]", args.mc_fingerprint, result.fingerprint,
            "the reachable state space changed; review the protocol diff",
        )
    return 0


def _run_lock_order(args) -> int:
    status = 0
    for report in analyze_apps(_app_names(args.app)):
        print(f"[lockorder] {report.format()}")
        bad = report.findings if args.strict else report.errors
        if bad:
            status = 1
    return status


def _run_src_lint(args) -> int:
    from repro.analysis.srclint import (
        default_root, failures, format_issues, lint_tree,
    )

    issues = lint_tree()
    print(f"[srclint] {default_root()}: {format_issues(issues)}")
    return 1 if failures(issues, args.strict) else 0


def run_proto_lint(args) -> int:
    """The ``check --proto-lint`` entry point: statically verify the
    declarative protocol transition table (complete, deterministic,
    live against the model checker's reachable states, stutter-free),
    printing each violation with its minimal witness trace.  With
    ``--proto-fingerprint``, cache the canonical table fingerprint so CI
    fails fast on unreviewed table diffs.  Returns nonzero on any
    finding or fingerprint mismatch."""
    mutation = args.proto_mutate
    table = mutated_table(mutation) if mutation is not None else None
    result = lint_table(table, config=_model_config(args))
    print(f"[protolint] {result.summary()}")
    for finding in result.findings:
        print("  " + _indent(finding.format()))
    if not result.ok:
        return 1
    if args.proto_fingerprint:
        return check_fingerprint(
            "[protolint] table", args.proto_fingerprint,
            result.table_fingerprint,
            "the transition table changed; review the diff",
        )
    return 0


def run_proto_matrix(args) -> int:
    """The ``check --proto-matrix`` entry point: model-check and
    proto-lint every registered protocol spec (``directory-msi``,
    ``mesi``, ``moesi``), so a spec cannot land in the registry without
    the full static battery passing over it.  With
    ``--proto-matrix-fingerprints DIR``, cache one fingerprint file per
    spec (``<DIR>/<name>.fp`` holding the spec fingerprint and the
    reachable-state fingerprint).  Returns nonzero on any violation,
    lint finding, or fingerprint mismatch."""
    from repro.coherence.specs import get_spec, spec_names

    config = _model_config(args)
    status = 0
    for name in spec_names():
        spec = get_spec(name)
        result = check_protocol(config, spec=spec)
        print(f"[protomatrix] {name}: {result.summary()}")
        if result.violation is not None:
            print(format_counterexample(result.violation))
            status = 1
            continue
        lint = lint_table(config=config, spec=spec, model_result=result)
        print(f"[protomatrix] {name}: {lint.summary()}")
        for finding in lint.findings:
            print("  " + _indent(finding.format()))
        if not lint.ok:
            status = 1
        elif args.proto_matrix_fingerprints and check_fingerprint(
            f"[protomatrix] {name}:",
            pathlib.Path(args.proto_matrix_fingerprints) / f"{name}.fp",
            f"{spec.fingerprint()} {result.fingerprint}",
            "the spec or its reachable state space changed; review the diff",
        ):
            status = 1
    return status


def run_proto_diff(args) -> int:
    """The ``check --proto-diff LEFT RIGHT`` entry point: decide
    observational trace equivalence of two registered specs by product-
    composing their reachable models (tau-closed determinization + BFS),
    printing the verdict and, on refutation, the minimal witness trace.

    Without a pair, diff every unordered pair of registered specs —
    the registry's claimed containment chain.  With ``--diff-mutate``,
    seed the mutation into the *right* spec (always
    :data:`~repro.analysis.protodiff.DIFF_MUTATION_BASE`); the expected
    (and nonzero-returning) outcome is a refutation with a printed
    witness, mirroring ``--mc-mutate``.  Returns nonzero when any pair
    is found inequivalent."""
    import itertools

    from repro.coherence.specs import get_spec, spec_names

    pair, mutation = args.proto_diff, args.diff_mutate
    if mutation is not None:
        left = get_spec(pair[0] if pair else "directory-msi")
        pairs = [(left, mutated_spec(mutation))]
    elif pair:
        pairs = [(get_spec(pair[0]), get_spec(pair[1]))]
    else:
        pairs = [(get_spec(left), get_spec(right))
                 for left, right in itertools.combinations(spec_names(), 2)]
    status = 0
    for left, right in pairs:
        result = diff_specs(left, right)
        print("[protodiff] " + _indent(result.format()))
        if not result.ok:
            status = 1
    return status


def _validate_proto_diff(args) -> Optional[str]:
    """Reject unregistered ``--proto-diff`` specs, and a RIGHT spec other
    than the one ``--diff-mutate`` mutates (it would be silently
    ignored)."""
    if args.proto_diff is None:
        return None
    from repro.coherence.specs import spec_names

    bad = [n for n in args.proto_diff if n not in spec_names()]
    if bad:
        return (
            f"unknown protocol spec(s): {', '.join(bad)} "
            f"(registered: {', '.join(spec_names())})"
        )
    right = args.proto_diff[1]
    if args.diff_mutate is not None and right != DIFF_MUTATION_BASE:
        return (
            f"--diff-mutate {args.diff_mutate} mutates the "
            f"{DIFF_MUTATION_BASE} spec, so RIGHT must be "
            f"{DIFF_MUTATION_BASE} (got {right})"
        )
    return None


def run_lat_bound(args) -> int:
    """The ``check --lat-bound`` entry point: derive the per-transaction
    latency envelopes from the protocol table and run the static
    accounting conformance passes; with ``--lat-audit``, additionally
    replay a traced smoke run per app (under SC and RC) and verify every
    observed transaction latency falls inside its envelope.  With
    ``--lat-mutate``, seed the defect into the derivation and print the
    detecting witness (nonzero exit when detected, mirroring
    ``--proto-mutate``).  With ``--lat-fingerprint``, cache the
    canonical envelope fingerprint so CI fails fast on unreviewed
    latency-model diffs."""
    from repro.config import Consistency

    mutation = args.lat_mutate
    result = check_accounting(mutation=mutation)
    print(f"[latbound] {result.summary()}")
    for finding in result.findings:
        print("  " + _indent(finding.format()))
    if args.verbose:
        print("  " + _indent(result.table.format_table(Consistency.RC)))

    if mutation is not None:
        if result.findings:
            return 1  # detected statically, witnesses printed above
        # The remaining defect class only shifts the bounds; replay one
        # traced smoke run and let the audit produce the witness.
        report = audit_app("MP3D", mutation=mutation)
        print("[latbound] " + _indent(report.format()))
        return 0 if report.ok else 1

    if result.findings:
        return 1

    if args.lat_audit:
        bad = 0
        for name in _app_names(args.app):
            for model in (Consistency.SC, Consistency.RC):
                report = audit_app(name, model)
                print("[latbound] " + _indent(report.format()))
                if not report.ok:
                    bad += 1
        if bad:
            return 1

    if args.lat_fingerprint:
        return check_fingerprint(
            "[latbound] envelope", args.lat_fingerprint, result.fingerprint,
            "the latency model changed; review the diff",
        )
    return 0


def run_trace_check(args) -> int:
    """The ``check --trace-check`` entry point.

    With ``--trace-mutate``, run the mutation's demonstration litmus
    test with the seeded consistency bug installed and print the witness
    — the expected (and nonzero-returning) outcome is a detected
    violation, mirroring ``--mc-mutate``.  Otherwise cross-validate the
    whole litmus matrix against the axiomatic oracle and trace one
    smoke run per requested app under RC.  Returns nonzero on any
    conformance failure."""
    from repro.analysis.tracecheck import check_app, run_mutation_demo

    mutation = args.trace_mutate
    if mutation is not None:
        report = run_mutation_demo(mutation)
        print(f"[trace] mutation {mutation!r}:")
        print("  " + _indent(report.format()))
        return 0 if report.ok else 1

    from repro.analysis.litmus import run_suite

    status = 0
    results = run_suite(trace_check=True)
    bad = [result for result in results if result.conformance_failures]
    print(f"[trace] litmus matrix: {len(results)} (test, model) pairs "
          f"cross-validated, {len(bad)} conformance failure(s)")
    for result in bad:
        print(f"  {result.explain()}")
        status = 1
    if args.verbose:
        for result in results:
            print(f"  {result.test.name} {result.model.name}: "
                  f"{len(result.by_schedule)} schedules conform")
    for name in _app_names(args.app):
        report = check_app(name)
        print(f"[trace] {name}: {report.format()}")
        if not report.ok:
            status = 1
    return status


def _run_layout_lint(args) -> int:
    from repro.analysis.layoutlint import check_app_baselines

    ok, lines = check_app_baselines()
    print("[layout] bundled apps vs known-finding baselines:")
    for line in lines:
        print(line)
    return 0 if ok else 1


def _prewarm(runner: ExperimentRunner, points) -> bool:
    """Fan ``points`` out over the worker pool and the result cache, when
    either is on, and print the sweep report; False if a point failed.
    Later :meth:`ExperimentRunner.run` calls for the points are memo hits."""
    if not points or (runner.jobs == 1 and runner.result_cache is None):
        return True
    report = runner.prewarm(points)
    print(report.format())
    if runner.result_cache is not None:
        print(runner.result_cache.stats_line())
    print()
    return report.ok


def _run_claims(args) -> int:
    from repro.experiments import claims

    runner = ExperimentRunner(
        scale=args.scale or claims.SCALES[0],
        verbose=args.verbose,
        seed=args.seed,
        max_events=args.max_events,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
    )
    table = claims.CLAIMS
    if not _prewarm(runner, claims.points(runner, table)):
        return 1
    outcomes = claims.evaluate(runner, table)
    print(f"[claims] the paper's shape claims at scale={runner.scale!r}:")
    for outcome in outcomes:
        print(outcome.format())
    failed = list(dict.fromkeys(o.claim.id for o in outcomes if not o.holds))
    print(f"[claims] {len(table) - len(failed)} of {len(table)} claims hold"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def _validate_claims(args) -> Optional[str]:
    from repro.experiments.claims import SCALES

    if args.scale is not None and args.scale not in SCALES:
        return (f"the claims check has thresholds at --scale "
                f"{', '.join(SCALES)} only, none at {args.scale!r}")
    try:
        resolve_jobs(args.jobs)
    except JobsError as exc:
        return str(exc)
    return None


# -- the check registry ------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One ``check`` flag.  ``spec`` is its argparse keyword arguments;
    ``selects`` means giving it (any non-default value) runs the owning
    check; ``role`` marks the seeded-mutation flag (``"mutate"``) and the
    fingerprint-cache path (``"fingerprint"``)."""

    flag: str
    spec: dict
    selects: bool = False
    role: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def given(self, args) -> bool:
        return getattr(args, self.dest) != self.spec.get("default", False)


def _flag(flag: str, *, selects: bool = False, role: Optional[str] = None,
          **spec) -> Option:
    return Option(flag, spec, selects, role)


def _switch(flag: str, help: str) -> Option:
    """A ``store_true`` flag that selects its check."""
    return Option(flag, dict(action="store_true", help=help), selects=True)


@dataclass(frozen=True)
class Check:
    """One ``repro-1991 check`` pass, declared once."""

    name: str
    description: str
    run: Callable[[argparse.Namespace], int]
    options: Tuple[Option, ...] = ()
    default: bool = False
    #: Argument validation run before any check: an error message or None.
    validate: Optional[Callable[[argparse.Namespace], Optional[str]]] = None

    def option(self, role: str) -> Optional[Option]:
        return next((o for o in self.options if o.role == role), None)

    @property
    def mutations(self) -> Tuple[str, ...]:
        """The seeded defects its mutate flag accepts, as declared by the
        analyzer that owns them."""
        mutate = self.option("mutate")
        return tuple(mutate.spec["choices"]) if mutate else ()


#: Every analysis pass, in run order.
CHECKS: Tuple[Check, ...] = (
    Check("lint", "structural lint of each app's op streams (op shape, sync pairing)",
          _run_op_streams, default=True),
    Check("races", "happens-before data-race detection over the op streams",
          _run_op_streams, default=True),
    Check("litmus", "consistency litmus matrix through the full machine",
          _run_litmus, default=True),
    Check("invariants", "sanitized smoke simulation (SWMR, inclusion, precision)",
          _run_invariants, default=True),
    Check("faults", "smoke apps under seeded message faults, sanitizer armed",
          run_fault_matrix, (
              _flag("--faults", selects=True, choices=["none", "smoke", "heavy"],
                    default="none",
                    help="fault plan for the 'faults' check: run the smoke apps "
                         "under seeded message faults (drops, delays, duplicates, "
                         "directory NACKs) with the coherence sanitizer armed"),
          )),
    Check("model", "exhaustive model check of the abstract directory protocol",
          run_model_check, (
              _switch("--model-check",
                      "exhaustively model-check the abstract directory protocol "
                      "(SWMR, data values, directory precision, no stuck states) "
                      "over the --mc-* bounds, printing a minimal counterexample "
                      "trace on violation"),
              _flag("--mc-mutate", selects=True, role="mutate", choices=MC_MUTATIONS,
                    default=None,
                    help="model-check a deliberately broken protocol variant (demo: "
                         "each mutation yields a minimal counterexample trace)"),
              _flag("--mc-fingerprint", role="fingerprint", default=None, metavar="PATH",
                    help="cache the model checker's reachable-state fingerprint at "
                         "PATH: written when absent, compared when present "
                         "(mismatch fails the check — CI's fast protocol-diff "
                         "detector)"),
          )),
    Check("lockorder", "static lock-order deadlock and barrier analysis",
          _run_lock_order, (
              _switch("--lock-order",
                      "static deadlock analysis: build the lock/barrier "
                      "acquisition graph of each application's op streams and "
                      "report lock-order cycles and barrier mismatches"),
          )),
    Check("srclint", "determinism + hot-path lint over the simulator source",
          _run_src_lint, (
              _switch("--lint-src",
                      "determinism lint over the simulator source itself "
                      "(unseeded random, wall-clock reads, unordered-set "
                      "iteration, mutable defaults, swallowed SimulationError, "
                      "stale srclint acknowledgements)"),
          )),
    Check("protolint", "static completeness/determinism/liveness check of the "
                       "declarative protocol transition table",
          run_proto_lint, (
              _switch("--proto-lint",
                      "statically verify the declarative protocol transition "
                      "table: complete (every reachable (state, event) pair "
                      "handled or declared impossible), deterministic (no "
                      "overlapping rules), live (no dead states/transitions, "
                      "cross-checked against the model checker's reachable "
                      "states), and stutter-free, with minimal witness traces"),
              _flag("--proto-mutate", selects=True, role="mutate",
                    choices=PROTO_MUTATIONS, default=None,
                    help="proto-lint a deliberately broken copy of the table (demo: "
                         "each mutation yields a violation with a witness)"),
              _flag("--proto-fingerprint", role="fingerprint", default=None,
                    metavar="PATH",
                    help="cache the canonical table fingerprint at PATH: written "
                         "when absent, compared when present (mismatch fails the "
                         "check — CI's fast table-diff detector)"),
          )),
    Check("protomatrix", "model check + protolint over every registered "
                         "protocol spec (directory-msi, mesi, moesi)",
          run_proto_matrix, (
              _switch("--proto-matrix",
                      "model-check and proto-lint every registered protocol "
                      "spec (directory-msi, mesi, moesi) under the --mc-* "
                      "bounds, so a registry entry cannot drift without the "
                      "full static battery noticing"),
              _flag("--proto-matrix-fingerprints", role="fingerprint", default=None,
                    metavar="DIR",
                    help="with --proto-matrix: cache one fingerprint file per spec "
                         "under DIR (<spec>.fp, written when absent, compared when "
                         "present; mismatch fails the check — CI's fast "
                         "spec-diff detector)"),
          )),
    Check("protodiff", "differential protocol equivalence: product-compose two "
                       "specs' reachable models and prove (or refute with a "
                       "minimal witness) observational equivalence",
          run_proto_diff, (
              _flag("--proto-diff", selects=True, nargs=2, default=None,
                    metavar=("LEFT", "RIGHT"),
                    help="differential protocol equivalence: product-compose the "
                         "two named specs' reachable models (tau-closed "
                         "determinization + BFS) and prove observational "
                         "equivalence on load-value/ownership traces, or refute it "
                         "with a minimal witness; use '--checks protodiff' alone "
                         "to diff every registered pair"),
              _flag("--diff-mutate", selects=True, role="mutate",
                    choices=DIFF_MUTATIONS, default=None,
                    help="run --proto-diff against a deliberately broken right "
                         "spec (demo: the mutation must be refuted with a printed "
                         "witness trace and a nonzero exit)"),
          ), validate=_validate_proto_diff),
    Check("latbound", "static per-transaction latency envelopes derived from "
                      "the protocol table, with optional trace audit",
          run_lat_bound, (
              _switch("--lat-bound",
                      "derive closed-form per-transaction latency envelopes from "
                      "the protocol transition table and the machine config, and "
                      "statically verify the accounting (every rule priced into "
                      "exactly one stall bucket, connected charge paths, single "
                      "directory pass, Table 1's additive distance ladder, "
                      "monotonicity in every config parameter, additive technique "
                      "composition)"),
              _switch("--lat-audit",
                      "with --lat-bound: replay a traced smoke run per app under "
                      "SC and RC and verify every observed transaction latency "
                      "falls inside its derived envelope (fault-free runs only)"),
              _flag("--lat-mutate", selects=True, role="mutate",
                    choices=LAT_MUTATIONS, default=None,
                    help="run --lat-bound with a deliberately seeded accounting "
                         "defect (demo: the first two are caught statically with a "
                         "witness path, envelope-too-tight is caught by the trace "
                         "audit with a witness transaction)"),
              _flag("--lat-fingerprint", role="fingerprint", default=None,
                    metavar="PATH",
                    help="cache the canonical envelope fingerprint at PATH: written "
                         "when absent, compared when present (mismatch fails the "
                         "check — CI's fast latency-model-diff detector)"),
          )),
    Check("trace", "axiomatic trace conformance (litmus matrix + smoke runs)",
          run_trace_check, (
              _switch("--trace-check",
                      "axiomatic trace conformance: cross-validate the litmus "
                      "matrix against the declared model's happens-before axioms "
                      "and trace one smoke run per app under RC"),
              _flag("--trace-mutate", selects=True, role="mutate",
                    choices=TRACE_MUTATIONS, default=None,
                    help="run --trace-check's demo litmus test with a deliberately "
                         "seeded consistency bug installed (each mutation yields a "
                         "printed witness cycle and a nonzero exit)"),
          )),
    Check("layout", "static memory-layout lint of the bundled apps",
          _run_layout_lint, (
              _switch("--layout-lint",
                      "static memory-layout lint over the bundled apps: false "
                      "sharing and malformed prefetch streams, compared against "
                      "the known-finding baselines"),
          )),
    Check("claims", "the paper's shape claims (Tables 1-2, Figures 2-6, Section 7, "
                    "ablations) at bench scale",
          _run_claims, validate=_validate_claims),
)

_BY_NAME = {check.name: check for check in CHECKS}
_DEFAULT_CHECKS = tuple(check.name for check in CHECKS if check.default)


def select_checks(args) -> List[str]:
    """Resolve the ``check`` subcommand's flags to the names of the
    passes to run.  A selecting flag runs its pass; ``--checks a,b``
    adds an explicit list and ``--all`` every pass, each followed by the
    flag-selected ones.  With no selection at all, the documented
    default subset runs (the bare default is *not* the full suite)."""
    flagged = [
        check.name for check in CHECKS
        if any(o.selects and o.given(args) for o in check.options)
    ]
    if args.all_checks:
        names = list(_BY_NAME)
    elif args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    else:
        return flagged or list(_DEFAULT_CHECKS)
    return names + [name for name in flagged if name not in names]


def run_check(args, names: List[str]) -> int:
    """The ``repro check`` subcommand: run each selected pass in registry
    order.  A failure latches the moment it happens — a later passing
    check can never mask it — and the verdict names every casualty."""
    failed: List[str] = []
    ran = set()
    for check in CHECKS:
        # lint and races share one run function, called once.
        if check.name not in names or check.run in ran:
            continue
        ran.add(check.run)
        mutate = check.option("mutate")
        if check.run(args):
            failed.append(check.name)
        elif mutate is not None and mutate.given(args):
            mutation = getattr(args, mutate.dest)
            print(f"[{check.name}] mutation {mutation!r} was NOT detected")
    if failed:
        print(f"check: FAILED ({', '.join(failed)})")
        return 1
    print("check: ok")
    return 0


def list_checks() -> str:
    """The ``--list-checks`` rendering: every pass with its one-liner,
    the CLI flags that select it, and whether it is in the no-flags
    default subset, with the ``--all`` semantics spelled out."""
    lines = ["available checks (run order):"]
    for check in CHECKS:
        marker = "*" if check.default else " "
        lines.append(f"  {marker} {check.name:<11} {check.description}")
        flags = ", ".join(o.flag for o in check.options)
        via = flags or f"--checks {check.name}"
        lines.append(
            f"    default: {'yes' if check.default else 'no'}; flags: {via}"
        )
    lines.append(
        "checks marked * run by default; --all runs every check; "
        "--checks a,b or a dedicated flag runs just those"
    )
    return "\n".join(lines)


#: Where ``sweep`` stores results when neither ``--cache-dir`` nor
#: ``REPRO_CACHE_DIR`` names a cache: rerunning it must find them.
SWEEP_CACHE_DIR = ".repro/cache"


def run_sweep_command(args, parser) -> int:
    """The ``repro-1991 sweep`` subcommand: simulate the targets' points
    into the result cache over a supervised worker pool.  SIGINT/SIGTERM
    drain in-flight points and print the command that finishes the
    sweep: the same one, whose finished points are now cache hits.
    Exit status: 0 all points ok, 1 any point failed or quarantined,
    130 interrupted."""
    from repro.experiments.parallel import (
        ServiceControl,
        ServicePolicy,
        execute_sweep_points,
    )
    from repro.experiments.resultcache import ResultCache, resolve_cache_dir
    from repro.experiments.supervisor import ExperimentSupervisor
    from repro.faults import Watchdog

    names = [t.strip() for t in args.targets.split(",") if t.strip()]
    if names == ["all"]:
        names = list(_SWEEP_TARGETS)
    unknown = [t for t in names if t not in _SWEEP_TARGETS]
    if unknown:
        parser.error(
            f"unknown sweep targets: {', '.join(unknown)} "
            f"(choose from {', '.join(_SWEEP_TARGETS)}, or 'all')"
        )
    runner = ExperimentRunner(
        scale=args.scale,
        verbose=args.verbose,
        seed=args.seed,
        max_events=args.max_events,
    )
    points = sweep_points_for(names, runner)
    if not points:
        parser.error("the selected targets produce no sweep points")
    cache_dir = resolve_cache_dir(args.cache_dir) or pathlib.Path(SWEEP_CACHE_DIR)
    cache = ResultCache(cache_dir)
    watchdog_factory = None
    if args.hang_timeout is not None:
        # Smoke-scale apps fire too few events for the default 250k
        # heartbeat interval; a tight interval keeps the liveness files
        # fresh so a slow-but-alive pool is never mistaken for a hang.
        watchdog_factory = lambda: Watchdog(heartbeat_every=2000)  # noqa: E731
    supervisor = ExperimentSupervisor(
        watchdog_factory=watchdog_factory, verbose=args.verbose
    )
    control = ServiceControl()
    with control.handle_signals():
        report = execute_sweep_points(
            supervisor, "sweep:" + ",".join(names), points,
            jobs=args.jobs, cache=cache,
            policy=ServicePolicy(hang_timeout_s=args.hang_timeout),
            control=control,
        )

    print(report.format())
    print(cache.stats_line())
    if report.interrupted:
        print(f"interrupted — rerun to finish: {_rerun_command(args, cache_dir)}")
        return 130
    return 0 if report.ok else 1


def _rerun_command(args, cache_dir: pathlib.Path) -> str:
    """The ``sweep`` invocation that finishes an interrupted one: the
    same points over the same cache."""
    argv = ["repro-1991", "sweep", "--targets", args.targets,
            "--scale", args.scale, "--cache-dir", str(cache_dir)]
    for flag, value in (("--jobs", args.jobs), ("--seed", args.seed or None),
                        ("--max-events", args.max_events),
                        ("--hang-timeout", args.hang_timeout)):
        if value is not None:
            argv += [flag, str(value)]
    return shlex.join(argv)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-1991`` argument parser; every ``check`` flag comes
    from :data:`CHECKS`."""
    others = [check.name for check in CHECKS if not check.default]
    selecting = [o.flag for c in CHECKS for o in c.options if o.selects]
    parser = argparse.ArgumentParser(
        prog="repro-1991",
        description=(
            "Regenerate the tables and figures of Gupta et al., "
            "'Comparative Evaluation of Latency Reducing and Tolerating "
            "Techniques' (ISCA 1991)."
        ),
    )
    add = parser.add_argument
    add("what", choices=[*_ARTIFACTS, "all", "check", "sweep"],
        help="which artifact to regenerate, 'check' to run the "
             "analysis suite (" + ", ".join(_DEFAULT_CHECKS) + ", plus "
             + ", ".join(others) + "), or 'sweep' to simulate the targets' "
             "points into the result cache over a supervised worker pool "
             "(rerun it to finish an interrupted sweep)")
    add("--scale", choices=["bench", "default", "paper", "smoke"], default=None,
        help="workload scale (paper = the full data sets; slow; "
             "smoke = the seconds-scale CI data sets; default: default, "
             "and bench for the claims check, the one scale with "
             "recorded thresholds)")
    add("--jobs", type=int, default=None, metavar="N",
        help="run independent sweep points over N worker processes "
             "(default: $REPRO_JOBS or 1 = serial; results are "
             "bit-identical either way)")
    add("--cache-dir", default=None, metavar="DIR",
        help="content-addressed on-disk result cache: repeat runs of an "
             "unchanged (app, scale, config, version) point are replayed "
             "instead of re-simulated (default: $REPRO_CACHE_DIR, else "
             "disabled; for 'sweep', " + SWEEP_CACHE_DIR + ")")
    add("--app", choices=["MP3D", "LU", "PTHOR", "all"], default="all",
        help="application(s) for the 'check' subcommand")
    add("--targets", default="summary", metavar="T1,T2",
        help="for 'sweep': comma-separated artifact targets whose "
             "simulation points make up the sweep (table2, fig2..fig6, "
             "summary, or 'all'; default: summary)")
    add("--hang-timeout", type=float, default=None, metavar="S",
        help="for 'sweep': declare the worker pool hung after S seconds "
             "with no completion and no worker heartbeat, then restart "
             "it and retry the lost points (default: disabled)")
    add("--checks", default=None,
        help="comma-separated subset of checks to run: " + ",".join(_BY_NAME)
             + " (default: " + ",".join(_DEFAULT_CHECKS) + " — NOT the "
             "full suite; use --all for everything, --list-checks to "
             "enumerate; just the selected checks when "
             + ", ".join(selecting[:-1]) + ", or " + selecting[-1] + " is given)")
    add("--all", dest="all_checks", action="store_true",
        help="run every check in the suite (the documented "
             "everything mode; the bare default runs only "
             + ",".join(_DEFAULT_CHECKS) + ")")
    add("--list-checks", action="store_true",
        help="list every check with a one-line description and exit")
    for check in CHECKS:
        for option in check.options:
            add(option.flag, **option.spec)
    add("--strict", action="store_true",
        help="promote warnings to failures (op-stream lint warnings, "
             "lock-order warnings)")
    for flag, default, bound in _MC_BOUNDS:
        add(flag, type=int, default=default, metavar="N",
            help=f"model checker bound: {bound} (default {default})")
    add("--seed", type=int, default=0,
        help="master seed threaded into MachineConfig: makes fault "
             "plans and their retry schedules reproducible")
    add("--max-events", type=int, default=None, metavar="N",
        help="event-engine livelock guard: abort any single run after "
             "N events instead of the default 2e9")
    add("--verbose", action="store_true", help="log each simulation run")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.what == "check":
        if args.list_checks:
            print(list_checks())
            return 0
        names = select_checks(args)
        unknown = set(names) - set(_BY_NAME)
        if unknown:
            parser.error(f"unknown checks: {', '.join(sorted(unknown))}")
        for name in names:
            validate = _BY_NAME[name].validate
            error = validate(args) if validate else None
            if error:
                parser.error(error)
        return run_check(args, names)

    # Unset, --scale means "default" everywhere but the claims check.
    args.scale = args.scale or "default"
    if args.what == "sweep":
        try:
            return run_sweep_command(args, parser)
        except JobsError as exc:
            parser.error(str(exc))

    try:
        runner = ExperimentRunner(
            scale=args.scale,
            verbose=args.verbose,
            seed=args.seed,
            max_events=args.max_events,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
        )
    except JobsError as exc:
        parser.error(str(exc))
    targets = list(_ARTIFACTS) if args.what == "all" else [args.what]

    if not _prewarm(runner, sweep_points_for(targets, runner)):
        return 1

    def render(target: str) -> None:
        _ARTIFACTS[target](runner)
        print()

    if args.what == "all":
        # Supervised: one failing artifact still lets the rest print,
        # and the partial report names the casualty.
        from repro.experiments.supervisor import ExperimentSupervisor

        supervisor = ExperimentSupervisor()
        report = supervisor.run_sweep(
            "all-artifacts",
            [(t, (lambda tt: lambda: render(tt))(t)) for t in targets],
        )
        if not report.ok:
            print(report.format())
            return 1
        return 0

    render(targets[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
