"""Tests for the command-line interface (cheap targets only)."""

import functools
import pathlib
import re
import shlex

import pytest

from repro.cli import CHECKS, build_parser, main, select_checks


def test_table1_prints_and_succeeds(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "ok" in out
    assert "MISMATCH" not in out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_help_lists_targets():
    with pytest.raises(SystemExit):
        main(["--help"])


def test_interrupted_sweep_finishes_when_its_printed_command_reruns(
    tmp_path, monkeypatch, capsys
):
    """Stopped after two entries (``stop_after`` is the code path a
    SIGINT takes), ``sweep`` prints the command that finishes it."""
    from repro.experiments import parallel

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    cache = tmp_path / "D"
    monkeypatch.setattr(
        parallel, "ServiceControl",
        functools.partial(parallel.ServiceControl, stop_after=2),
    )
    argv = ["sweep", "--targets", "fig2", "--scale", "smoke",
            "--cache-dir", str(cache)]
    assert main(argv) == 130
    out = capsys.readouterr().out
    rerun = shlex.split(out.split("interrupted — rerun to finish: ")[1])
    assert rerun == ["repro-1991", *argv]

    monkeypatch.undo()
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert main(rerun[1:]) == 0
    assert f"result cache {cache}: 2 hits, 4 misses, 4 stored\n" in (
        capsys.readouterr().out
    )


def test_sweep_stores_under_the_default_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert main(["sweep", "--targets", "fig2", "--scale", "smoke"]) == 0
    assert "result cache .repro/cache: 0 hits, 6 misses, 6 stored\n" in (
        capsys.readouterr().out
    )
    assert len(list((tmp_path / ".repro" / "cache").glob("*.json"))) == 6


def test_fault_matrix_smoke_single_app(capsys):
    assert main(["check", "--app", "LU", "--faults", "smoke", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "plan=smoke seed=7" in out
    assert "retries" in out  # per-app fault summary line
    # Buffered writes, prefetches and MSHR entries reach the sanitizer.
    for leg in ("LU SC:", "LU RC+pf:", "LU RC 4ctx:"):
        assert leg in out
    assert "3 passed, 0 degraded, 0 failed of 3" in out
    assert "check: ok" in out


def test_faults_flag_selects_only_the_fault_check(capsys):
    main(["check", "--app", "LU", "--faults", "smoke"])
    out = capsys.readouterr().out
    assert "[faults]" in out
    assert "[litmus]" not in out  # --faults alone means just the matrix


def test_unknown_check_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--checks", "sorcery"])


def test_max_events_aborts_run(capsys):
    status = main(
        ["check", "--app", "LU", "--checks", "invariants", "--max-events", "100"]
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "event limit 100 exceeded" in out
    assert "check: FAILED" in out


# -- static-analysis checks: model, lockorder, srclint ------------------------


def test_model_check_flag_passes_and_prints_summary(capsys):
    status = main(["check", "--model-check"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[model]" in out
    assert "no invariant violations" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


def test_model_check_mutation_fails_with_counterexample(capsys):
    status = main(["check", "--model-check", "--mc-mutate", "skip-invalidation"])
    out = capsys.readouterr().out
    assert status == 1
    assert "counterexample" in out
    assert "check: FAILED" in out


def test_model_check_fingerprint_cache_roundtrip(tmp_path, capsys):
    fp = str(tmp_path / "model.fingerprint")
    assert main(["check", "--model-check", "--mc-fingerprint", fp]) == 0
    assert "fingerprint cached" in capsys.readouterr().out
    assert main(["check", "--model-check", "--mc-fingerprint", fp]) == 0
    assert "fingerprint matches" in capsys.readouterr().out


def test_model_check_fingerprint_mismatch_fails(tmp_path, capsys):
    fp = tmp_path / "model.fingerprint"
    fp.write_text("0" * 64 + "\n")
    status = main(["check", "--model-check", "--mc-fingerprint", str(fp)])
    out = capsys.readouterr().out
    assert status == 1
    assert "MISMATCH" in out


def test_model_check_bounds_are_settable(capsys):
    status = main(
        ["check", "--model-check", "--mc-caches", "1", "--mc-values", "1",
         "--mc-in-flight", "1"]
    )
    assert status == 0
    assert "[model]" in capsys.readouterr().out


def test_lock_order_flag_runs_all_apps_clean(capsys):
    status = main(["check", "--lock-order"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("[lockorder]") == 3  # MP3D, LU, PTHOR
    assert "no ordering hazards" in out


def test_lint_src_flag_runs_clean(capsys):
    status = main(["check", "--lint-src"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[srclint]" in out
    assert "src lint: clean" in out


def test_static_flags_combine(capsys):
    status = main(["check", "--lint-src", "--lock-order", "--model-check"])
    out = capsys.readouterr().out
    assert status == 0
    for tag in ("[model]", "[lockorder]", "[srclint]"):
        assert tag in out


def test_checks_list_accepts_new_names(capsys):
    status = main(["check", "--checks", "srclint"])
    assert status == 0
    assert "[srclint]" in capsys.readouterr().out


def test_lint_and_races_share_one_execution_per_app(capsys):
    assert main(["check", "--app", "LU", "--checks", "races,lint"]) == 0
    out = capsys.readouterr().out
    assert out.count("[LU]") == 1  # one op-stream run feeds both reports
    assert "check: ok" in out


def test_strict_flag_accepted_with_lint(capsys):
    status = main(["check", "--app", "LU", "--checks", "lint", "--strict"])
    assert status == 0
    assert "check: ok" in capsys.readouterr().out


# -- trace conformance and layout lint ----------------------------------------


def test_trace_mutate_prints_witness_and_fails(capsys):
    status = main(["check", "--trace-mutate", "drop-inval-ack"])
    out = capsys.readouterr().out
    assert status == 1
    assert "[trace] mutation 'drop-inval-ack'" in out
    assert "witness cycle" in out
    assert "check: FAILED (trace)" in out


def test_layout_lint_flag_matches_baselines(capsys):
    status = main(["check", "--layout-lint"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[layout]" in out
    assert "PTHOR: 25 known finding(s), none new" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


# -- exit-code aggregation ----------------------------------------------------


def test_failing_check_not_masked_by_later_passing_one(capsys):
    # The trace check fails (seeded mutation) before the layout check
    # passes; the combined invocation must still exit nonzero and name
    # the casualty.
    status = main(
        ["check", "--lint-src", "--trace-mutate", "drop-inval-ack",
         "--layout-lint"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "src lint: clean" in out          # srclint passed...
    assert "none new" in out                 # ...and so did layout,
    assert "check: FAILED (trace)" in out    # yet the verdict is red.


def test_verdict_names_every_failing_check(capsys):
    status = main(
        ["check", "--app", "LU", "--checks", "invariants,srclint",
         "--max-events", "100"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "check: FAILED (invariants)" in out


def test_verdict_lists_failures_in_run_order(capsys):
    status = main(
        ["check", "--trace-mutate", "drop-inval-ack", "--model-check",
         "--mc-mutate", "skip-invalidation"]
    )
    assert status == 1
    assert "check: FAILED (model, trace)" in capsys.readouterr().out


# -- transition-table protolint -----------------------------------------------


def test_proto_lint_flag_passes_and_prints_summary(capsys):
    status = main(["check", "--proto-lint"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[protolint]" in out
    assert "complete, deterministic, live, and stutter-free" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


def test_proto_mutate_prints_witness_and_fails(capsys):
    status = main(["check", "--proto-mutate", "drop-transition"])
    out = capsys.readouterr().out
    assert status == 1
    assert "[completeness]" in out
    assert "[liveness]" in out
    assert "#0   initial" in out  # BFS-minimal witness trace
    assert "check: FAILED (protolint)" in out


def test_proto_fingerprint_cache_roundtrip(tmp_path, capsys):
    fp = str(tmp_path / "proto.fingerprint")
    assert main(["check", "--proto-lint", "--proto-fingerprint", fp]) == 0
    assert "fingerprint cached" in capsys.readouterr().out
    assert main(["check", "--proto-lint", "--proto-fingerprint", fp]) == 0
    assert "fingerprint matches" in capsys.readouterr().out


def test_proto_fingerprint_mismatch_fails(tmp_path, capsys):
    fp = tmp_path / "proto.fingerprint"
    fp.write_text("0" * 64 + "\n")
    status = main(["check", "--proto-lint", "--proto-fingerprint", str(fp)])
    out = capsys.readouterr().out
    assert status == 1
    assert "MISMATCH" in out


# -- protocol matrix and differential equivalence -----------------------------


def test_proto_matrix_verifies_every_registered_spec(capsys):
    from repro.coherence.specs import spec_names

    assert main(["check", "--proto-matrix"]) == 0
    out = capsys.readouterr().out
    for name in spec_names():
        assert f"[protomatrix] {name}:" in out
    assert "check: ok" in out


def test_proto_matrix_explores_each_spec_once(monkeypatch, capsys):
    from repro.analysis.modelcheck import ModelConfig, ProtocolModel, check_protocol
    from repro.coherence.specs import get_spec, spec_names

    states = sum(
        check_protocol(ModelConfig(), spec=get_spec(name)).states_explored
        for name in spec_names()
    )
    calls = []
    original = ProtocolModel.successors

    def counted(self, state):
        calls.append(state)
        return original(self, state)

    monkeypatch.setattr(ProtocolModel, "successors", counted)
    assert main(["check", "--proto-matrix"]) == 0
    capsys.readouterr()
    assert len(calls) == states == 3006


def test_proto_matrix_fingerprints_roundtrip(tmp_path, capsys):
    from repro.coherence.specs import spec_names

    fp_dir = str(tmp_path / "matrix")
    assert main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints", fp_dir]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("fingerprint cached") == len(spec_names())
    assert main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints", fp_dir]
    ) == 0
    assert capsys.readouterr().out.count("fingerprint matches") == len(
        spec_names()
    )


def test_proto_matrix_fingerprint_mismatch_fails(tmp_path, capsys):
    fp_dir = tmp_path / "matrix"
    fp_dir.mkdir()
    (fp_dir / "mesi.fp").write_text("0" * 16 + "\n")
    status = main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints",
         str(fp_dir)]
    )
    assert status == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_proto_diff_pair_proves_equivalence(capsys):
    assert main(["check", "--proto-diff", "directory-msi", "mesi"]) == 0
    out = capsys.readouterr().out
    assert "observationally equivalent" in out
    assert "check: ok" in out


def test_proto_diff_alone_covers_every_registered_pair(capsys):
    assert main(["check", "--checks", "protodiff"]) == 0
    out = capsys.readouterr().out
    assert "directory-msi ~ mesi" in out
    assert "directory-msi ~ moesi" in out
    assert "mesi ~ moesi" in out


def test_proto_diff_unknown_spec_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--proto-diff", "directory-msi", "mosi"])


def test_diff_mutate_is_refuted_with_witness(capsys):
    status = main(
        ["check", "--proto-diff", "directory-msi", "mesi",
         "--diff-mutate", "mesi-without-e-writeback"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "NOT equivalent" in out
    assert "divergence after" in out
    assert "impossible in directory-msi" in out




def test_diff_mutate_rejects_a_right_spec_it_does_not_mutate(capsys):
    # The mutation is built from mesi; a different RIGHT spec used to be
    # silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--proto-diff", "mesi", "moesi",
              "--diff-mutate", "mesi-without-e-writeback"])
    assert exc.value.code == 2
    assert "RIGHT must be mesi (got moesi)" in capsys.readouterr().err
    # The CI/README spelling names the mutated spec and still runs.
    status = main(["check", "--proto-diff", "directory-msi", "mesi",
                   "--diff-mutate", "mesi-without-e-writeback"])
    assert status == 1
    assert ("directory-msi ~ mesi[mesi-without-e-writeback]"
            in capsys.readouterr().out)


# -- check selection: the registry, --list-checks, --all, defaults ------------


def _selected(*flags):
    return select_checks(build_parser().parse_args(["check", *flags]))


def test_select_checks_proto_matrix_and_diff_flags():
    assert _selected("--proto-matrix") == ["protomatrix"]
    assert _selected("--proto-diff", "directory-msi", "mesi") == ["protodiff"]
    assert _selected("--diff-mutate", "mesi-without-e-writeback") == [
        "protodiff"
    ]


def test_list_checks_names_every_check_and_defaults(capsys):
    status = main(["check", "--list-checks"])
    out = capsys.readouterr().out
    assert status == 0
    for check in CHECKS:
        assert check.name in out
    assert "checks marked * run by default" in out
    # Default markers line up with the documented default subset.
    starred = [
        line.split()[1] for line in out.splitlines()
        if line.strip().startswith("*")
    ]
    assert starred == [check.name for check in CHECKS if check.default]


def test_list_checks_prints_flags_and_default_membership(capsys):
    main(["check", "--list-checks"])
    out = capsys.readouterr().out
    # Every check's dedicated flags appear; flagless checks point at
    # --checks <name>; membership lines match the default subset.
    for check in CHECKS:
        if check.options:
            for option in check.options:
                assert option.flag in out
        else:
            assert f"--checks {check.name}" in out
    defaults = sum(check.default for check in CHECKS)
    assert out.count("default: yes") == defaults
    assert out.count("default: no") == len(CHECKS) - defaults


def test_check_flags_table_covers_every_check():
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)
    flags = [option.flag for check in CHECKS for option in check.options]
    assert len(set(flags)) == len(flags)  # each flag owned by one check
    for check in CHECKS:
        assert _selected("--checks", check.name) == [check.name]


def test_select_checks_lat_flags_select_latbound():
    assert _selected("--lat-bound") == ["latbound"]
    assert _selected("--lat-audit") == ["latbound"]
    assert _selected("--lat-mutate", "uncharged-hop") == ["latbound"]


def test_select_checks_default_is_documented_subset():
    assert _selected() == ["lint", "races", "litmus", "invariants"]
    assert _selected() == [check.name for check in CHECKS if check.default]


def test_select_checks_all_runs_everything_once():
    # dedicated flag deduped, order kept
    assert _selected("--all", "--proto-lint") == [c.name for c in CHECKS]


def test_select_checks_dedicated_flags_are_exclusive():
    assert _selected("--proto-lint") == ["protolint"]
    assert _selected("--proto-mutate", "overlap-rule") == ["protolint"]


def test_select_checks_explicit_list_merges_flags():
    assert _selected("--checks", "lint,litmus", "--proto-lint") == [
        "lint", "litmus", "protolint"
    ]


# -- pins: the CLI surface the docs and CI rely on ----------------------------

_LIST_CHECKS = """\
available checks (run order):
  * lint        structural lint of each app's op streams (op shape, sync pairing)
    default: yes; flags: --checks lint
  * races       happens-before data-race detection over the op streams
    default: yes; flags: --checks races
  * litmus      consistency litmus matrix through the full machine
    default: yes; flags: --checks litmus
  * invariants  sanitized smoke simulation (SWMR, inclusion, precision)
    default: yes; flags: --checks invariants
    faults      smoke apps under seeded message faults, sanitizer armed
    default: no; flags: --faults
    model       exhaustive model check of the abstract directory protocol
    default: no; flags: --model-check, --mc-mutate, --mc-fingerprint
    lockorder   static lock-order deadlock and barrier analysis
    default: no; flags: --lock-order
    srclint     determinism + hot-path lint over the simulator source
    default: no; flags: --lint-src
    protolint   static completeness/determinism/liveness check of the declarative protocol transition table
    default: no; flags: --proto-lint, --proto-mutate, --proto-fingerprint
    protomatrix model check + protolint over every registered protocol spec (directory-msi, mesi, moesi)
    default: no; flags: --proto-matrix, --proto-matrix-fingerprints
    protodiff   differential protocol equivalence: product-compose two specs' reachable models and prove (or refute with a minimal witness) observational equivalence
    default: no; flags: --proto-diff, --diff-mutate
    latbound    static per-transaction latency envelopes derived from the protocol table, with optional trace audit
    default: no; flags: --lat-bound, --lat-audit, --lat-mutate, --lat-fingerprint
    trace       axiomatic trace conformance (litmus matrix + smoke runs)
    default: no; flags: --trace-check, --trace-mutate
    layout      static memory-layout lint of the bundled apps
    default: no; flags: --layout-lint
    claims      the paper's shape claims (Tables 1-2, Figures 2-6, Section 7, ablations) at bench scale
    default: no; flags: --checks claims
checks marked * run by default; --all runs every check; --checks a,b or a dedicated flag runs just those
"""


def test_list_checks_output_is_pinned(capsys):
    assert main(["check", "--list-checks"]) == 0
    assert capsys.readouterr().out == _LIST_CHECKS


_EVERY_CHECK = (
    "lint", "races", "litmus", "invariants", "faults", "model", "lockorder",
    "srclint", "protolint", "protomatrix", "protodiff", "latbound", "trace",
    "layout", "claims",
)

#: Every ``repro-1991 check`` flag combination in .github/workflows/ci.yml
#: and README.md, with the passes it selects.
_DOCUMENTED_INVOCATIONS = [
    ("", ("lint", "races", "litmus", "invariants")),
    ("--faults smoke", ("faults",)),
    ("--faults smoke --seed 7", ("faults",)),
    ("--lint-src", ("srclint",)),
    ("--lock-order --strict", ("lockorder",)),
    ("--trace-check", ("trace",)),
    ("--trace-check --app all", ("trace",)),
    ("--layout-lint", ("layout",)),
    ("--all", _EVERY_CHECK),
    ("--app LU --checks races", ("races",)),
    ("--model-check", ("model",)),
    ("--model-check --mc-caches 3", ("model",)),
    ("--model-check --mc-fingerprint .ci-cache/model.fingerprint", ("model",)),
    ("--model-check --mc-fingerprint .ci/model.fingerprint", ("model",)),
    ("--model-check --mc-mutate skip-invalidation", ("model",)),
    ("--mc-mutate skip-invalidation", ("model",)),
    ("--mc-mutate lost-writeback", ("model",)),
    ("--mc-mutate nack-forever", ("model",)),
    ("--proto-lint", ("protolint",)),
    ("--proto-lint --proto-fingerprint .ci-cache/proto.fingerprint",
     ("protolint",)),
    ("--proto-lint --proto-fingerprint .ci/proto.fingerprint", ("protolint",)),
    ("--proto-mutate drop-transition", ("protolint",)),
    ("--proto-mutate overlap-rule", ("protolint",)),
    ("--proto-mutate orphan-state", ("protolint",)),
    ("--proto-matrix", ("protomatrix",)),
    ("--proto-matrix --proto-matrix-fingerprints .ci-cache/proto-matrix",
     ("protomatrix",)),
    ("--checks protodiff", ("protodiff",)),
    ("--proto-diff directory-msi mesi", ("protodiff",)),
    ("--proto-diff directory-msi mesi --diff-mutate mesi-without-e-writeback",
     ("protodiff",)),
    ("--trace-mutate drop-inval-ack", ("trace",)),
    ("--lat-bound", ("latbound",)),
    ("--lat-bound --lat-fingerprint .ci-cache/latbound.fingerprint",
     ("latbound",)),
    ("--lat-bound --lat-fingerprint .ci/latbound.fingerprint", ("latbound",)),
    ("--lat-bound --lat-audit", ("latbound",)),
    ("--app LU --lat-bound --lat-audit", ("latbound",)),
    ("--lat-mutate uncharged-hop", ("latbound",)),
    ("--lat-mutate double-charged-directory-occupancy", ("latbound",)),
    ("--lat-mutate envelope-too-tight", ("latbound",)),
    ("--checks claims", ("claims",)),
    ("--checks claims --jobs 2 --cache-dir .ci-cache/results", ("claims",)),
    ("--checks claims --jobs 4 --cache-dir ~/.cache/repro", ("claims",)),
]


@pytest.mark.parametrize(
    "flags, expected", _DOCUMENTED_INVOCATIONS,
    ids=[flags or "bare" for flags, _ in _DOCUMENTED_INVOCATIONS],
)
def test_documented_invocations_select_pinned_checks(flags, expected):
    assert tuple(_selected(*shlex.split(flags))) == expected


#: A literal ``repro-1991 check`` invocation: the flags run up to a
#: comment, a shell operator, a closing backtick or parenthesis, or the
#: end of the line.
_INVOCATION = re.compile(r"repro-1991 check((?: +[^\s#`|&)]+)*)")


def _invocations_in(path):
    text = (pathlib.Path(__file__).parent.parent / path).read_text()
    for match in _INVOCATION.finditer(text):
        flags = match.group(1).strip()
        # ``"$@"`` and ``"$m"`` expand in a shell loop; their expanded
        # forms are listed one by one.  ``--list-checks`` prints the
        # registry and runs no check (its output is pinned above).
        if "$" not in flags and flags != "--list-checks":
            yield flags


@pytest.mark.parametrize("path", [".github/workflows/ci.yml", "README.md"])
def test_every_documented_invocation_is_listed(path):
    listed = {flags for flags, _ in _DOCUMENTED_INVOCATIONS}
    found = list(_invocations_in(path))
    assert found, f"no repro-1991 check invocation found in {path}"
    assert [flags for flags in found if flags not in listed] == []


# -- one parametrized pass over the registry ----------------------------------

#: What each seeded mutation's detection must print.
_MUTATION_WITNESSES = {
    "skip-invalidation": ("counterexample (swmr)", "#0   initial"),
    "lost-writeback": ("counterexample (data-value)", "#0   initial"),
    "nack-forever": ("counterexample (no-stuck-state)", "#0   initial"),
    "drop-transition": ("[completeness]", "[liveness]", "#0   initial"),
    "overlap-rule": ("[determinism]", "overlap on"),
    "orphan-state": ("[liveness] dead transition",),
    "mesi-without-e-writeback": (
        "NOT equivalent", "divergence after", "impossible in directory-msi",
    ),
    "uncharged-hop": ("[hop-continuity]", "witness: "),
    "double-charged-directory-occupancy": (
        "[directory-single-pass]", "witness: ",
    ),
    "envelope-too-tight": ("earliest witness:",),
    "drop-inval-ack": ("[trace] mutation 'drop-inval-ack'", "witness cycle"),
    "release-overtakes-writes": ("[release-completion]", "witness cycle"),
    "forward-unissued-write": ("[well-formed-forward]", "claimed source:"),
}

_MUTATIONS = [
    (check, mutation) for check in CHECKS for mutation in check.mutations
]


def test_every_declared_mutation_has_a_witness_marker():
    assert [m for _, m in _MUTATIONS] == list(_MUTATION_WITNESSES)


@pytest.mark.parametrize(
    "check, mutation", _MUTATIONS, ids=[m for _, m in _MUTATIONS]
)
def test_declared_mutation_is_detected_with_witness(check, mutation, capsys):
    flag = check.option("mutate").flag
    status = main(["check", "--checks", check.name, flag, mutation])
    out = capsys.readouterr().out
    assert status == 1
    for marker in _MUTATION_WITNESSES[mutation]:
        assert marker in out
    assert "was NOT detected" not in out
    assert out.rstrip().endswith(f"check: FAILED ({check.name})")


_FINGERPRINTED = [check for check in CHECKS if check.option("fingerprint")]

#: Each fingerprint-bearing check's message prefix (tag and noun).
_FINGERPRINT_LABELS = {
    "model": "[model] fingerprint",
    "protolint": "[protolint] table fingerprint",
    "protomatrix": "[protomatrix] mesi: fingerprint",
    "latbound": "[latbound] envelope fingerprint",
}


def test_fingerprint_bearing_checks():
    assert [check.name for check in _FINGERPRINTED] == list(_FINGERPRINT_LABELS)


@pytest.mark.parametrize(
    "check", _FINGERPRINTED, ids=[check.name for check in _FINGERPRINTED]
)
def test_fingerprint_cache_roundtrip_and_tamper(check, tmp_path, capsys):
    from repro.coherence.specs import spec_names

    path = tmp_path / "fingerprint"
    argv = ["check", "--checks", check.name,
            check.option("fingerprint").flag, str(path)]
    # protomatrix caches one file per registered spec under a directory.
    files = len(spec_names()) if check.name == "protomatrix" else 1
    assert main(argv) == 0
    assert capsys.readouterr().out.count("fingerprint cached") == files
    assert main(argv) == 0
    assert capsys.readouterr().out.count("fingerprint matches") == files
    for cached in [path] if path.is_file() else sorted(path.iterdir()):
        cached.write_text("0" * 64 + "\n")
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.count("fingerprint MISMATCH") == files
    label = re.escape(_FINGERPRINT_LABELS[check.name])
    assert re.search(
        label + r" MISMATCH: cached 0{16} != computed [0-9a-f]{16} — .+; "
        r"review the (protocol )?diff and delete \S+ to accept", out
    )
    assert out.rstrip().endswith(f"check: FAILED ({check.name})")


def test_undetected_mutation_is_reported(monkeypatch, capsys):
    import repro.analysis.tracecheck as tracecheck

    class Clean:
        ok = True

        def format(self):
            return "no violations"

    monkeypatch.setattr(tracecheck, "run_mutation_demo", lambda name: Clean())
    assert main(["check", "--trace-mutate", "drop-inval-ack"]) == 0
    out = capsys.readouterr().out
    assert "[trace] mutation 'drop-inval-ack' was NOT detected" in out
