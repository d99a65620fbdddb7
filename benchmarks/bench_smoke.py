"""Smoke/medium-scale performance trajectory of the simulation core.

Runs each application at the requested workload scale (``--scale smoke``
is the same seconds-scale configuration ``repro-1991 check`` uses;
``--scale medium`` is ~6x larger, big enough that per-event cost
dominates machine construction) and records per-app wall time and
simulator throughput to ``BENCH_smoke.json`` / ``BENCH_medium.json`` at the
repository root.  The committed files are the measured trajectory later
PRs compare against when touching hot paths; CI regenerates them and
uploads fresh copies as artifacts.

Methodology: the timed section is ``Machine.run`` only (construction and
program load are excluded — the claim is about the simulation core), the
best of ``--reps`` repetitions is kept (wall-clock noise is one-sided:
every slowdown is noise, the fastest rep is closest to the machine's
true cost), and simulated event counts are asserted identical across
reps.

Each payload carries a ``provenance`` block — git revision and
timestamp (passed in by the bench driver via ``--git-rev`` /
``--timestamp``, so the measurement itself stays free of wall-clock
date reads; the revision falls back to ``git rev-parse`` when the flag
is absent), plus the host name and core count — so a committed baseline
can always be traced to the machine and commit that produced it.
Provenance never participates in the regression comparison.

``--check`` is the trajectory guard: instead of overwriting the file,
it compares the fresh measurement against the committed one and fails
(exit 1) on any of

* a throughput collapse — any app below half its committed events/sec (the "did this PR accidentally make the simulator 2x
  slower" tripwire; wall-clock noise between hosts is real, so the
  threshold is deliberately coarse);
* committed-vs-fresh drift in a simulated event count, which is
  deterministic and must match exactly.

Unlike the figure/table benchmarks in this directory, this is a plain
script (``python benchmarks/bench_smoke.py``), not a pytest-benchmark
target: it measures the simulator engine itself, not a reproduction
claim, and must stay runnable in a bare CI step with no plugins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import dash_scaled_config  # noqa: E402
from repro.experiments.registry import (  # noqa: E402
    APP_NAMES,
    SMOKE_PROCESSES,
    build_app,
)
from repro.system import Machine  # noqa: E402

#: One committed trajectory file per scale.
OUTPUTS = {
    "smoke": REPO_ROOT / "BENCH_smoke.json",
    "medium": REPO_ROOT / "BENCH_medium.json",
}

#: Default repetitions per app; best rep is recorded.
DEFAULT_REPS = 5


def _detect_git_rev() -> str | None:
    """Best-effort ``git rev-parse`` fallback when the driver passes no
    ``--git-rev`` (never fails the benchmark)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def provenance(git_rev: str | None, timestamp: str | None) -> dict:
    return {
        "git_rev": git_rev if git_rev is not None else _detect_git_rev(),
        "timestamp": timestamp,
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
    }


def _measure_app(app: str, scale: str, reps: int) -> dict:
    """Best-of-``reps`` timing of ``Machine.run`` for one app."""
    config = dash_scaled_config(num_processors=SMOKE_PROCESSES)
    best_wall = None
    events = None
    execution_time = None
    for _ in range(reps):
        machine = Machine(config)
        machine.load(build_app(app, scale))
        start = time.perf_counter()
        result = machine.run()
        wall = time.perf_counter() - start
        if events is None:
            events = result.events_processed
            execution_time = result.execution_time
        elif events != result.events_processed:
            raise RuntimeError(
                f"{app}: event count varied between reps "
                f"({events:,} vs {result.events_processed:,}) — the "
                "simulator is supposed to be deterministic"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "wall_seconds": round(best_wall, 4),
        "events": events,
        "events_per_sec": round(events / best_wall) if best_wall else 0,
        "execution_time_pclocks": execution_time,
    }


def run_benchmarks(
    scale: str,
    reps: int = DEFAULT_REPS,
    git_rev: str | None = None,
    timestamp: str | None = None,
) -> dict:
    apps = {}
    for app in APP_NAMES:
        apps[app] = stats = _measure_app(app, scale, reps)
        print(
            f"  {app:6s} {stats['wall_seconds']:7.3f}s wall, "
            f"{stats['events']:>9,} events "
            f"({stats['events_per_sec']:>9,}/s), "
            f"T={stats['execution_time_pclocks']:,} pclocks"
        )
    return {
        "scale": scale,
        "processors": SMOKE_PROCESSES,
        "reps": reps,
        "python": platform.python_version(),
        "provenance": provenance(git_rev, timestamp),
        "apps": apps,
    }


#: An app is a regression when its fresh throughput is below
#: ``committed events/sec / REGRESSION_FACTOR``.
REGRESSION_FACTOR = 2.0


def trajectory_delta_line(committed: dict, fresh: dict) -> str:
    """One-line per-app throughput delta vs the committed baseline, with
    the baseline's provenance, for the CI log."""
    deltas = []
    for app, old in sorted(committed.get("apps", {}).items()):
        new = fresh["apps"].get(app)
        if new is None or not old.get("events_per_sec"):
            deltas.append(f"{app} n/a")
            continue
        change = 100.0 * (
            new["events_per_sec"] - old["events_per_sec"]
        ) / old["events_per_sec"]
        deltas.append(f"{app} {change:+.1f}%")
    prov = committed.get("provenance", {})
    baseline = prov.get("git_rev") or "unknown-rev"
    stamp = prov.get("timestamp")
    tail = f"{baseline}, {stamp}" if stamp else baseline
    return (
        "trajectory delta vs committed baseline ("
        + tail + "): " + ", ".join(deltas)
    )


def check_against(committed: dict, fresh: dict) -> int:
    """Compare a fresh measurement to the committed trajectory.

    Returns the number of regressions: throughput collapses (>2x slower
    than committed) and drifted deterministic event counts.  A baseline
    with no ``apps`` section counts as one, so the gate fails closed.
    Provenance metadata is reporting-only and never compared.
    """
    if not committed.get("apps"):
        print("  baseline has no per-app section — re-record it")
        return 1
    regressions = 0
    for app, old in sorted(committed["apps"].items()):
        new = fresh["apps"].get(app)
        if new is None:
            print(f"  {app}: MISSING from fresh run")
            regressions += 1
            continue
        if new["events"] != old["events"]:
            print(
                f"  {app}: simulated event count drifted "
                f"({old['events']:,} committed vs {new['events']:,} "
                f"fresh) — not a perf question, the simulation changed"
            )
            regressions += 1
        floor = old["events_per_sec"] / REGRESSION_FACTOR
        if new["events_per_sec"] < floor:
            print(
                f"  {app}: THROUGHPUT REGRESSION "
                f"{new['events_per_sec']:,}/s vs committed "
                f"{old['events_per_sec']:,}/s "
                f"(>{REGRESSION_FACTOR:.0f}x slower)"
            )
            regressions += 1
        else:
            print(
                f"  {app}: ok ({new['events_per_sec']:,}/s vs "
                f"committed {old['events_per_sec']:,}/s)"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(OUTPUTS), default="smoke",
        help="workload scale to measure (selects the output file)",
    )
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS, metavar="N",
        help="repetitions per app; the best rep is recorded",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline instead of "
             "overwriting it",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="with --check, compare against this file instead of the "
             "committed one (CI uses a cached same-host baseline here, "
             "which is a much tighter signal than cross-host wall "
             "clocks)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the measurement to this file instead of the "
             "committed per-scale one (CI uses this to seed the cached "
             "same-host baseline without touching the repo copy)",
    )
    parser.add_argument(
        "--git-rev", default=None, metavar="REV",
        help="git revision to stamp into the provenance block "
             "(default: git rev-parse --short HEAD, best effort)",
    )
    parser.add_argument(
        "--timestamp", default=None, metavar="ISO8601",
        help="timestamp to stamp into the provenance block (passed by "
             "the bench driver; the script itself never reads the date)",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    output = Path(args.output) if args.output else OUTPUTS[args.scale]
    print(
        f"{args.scale} benchmark ({SMOKE_PROCESSES} processors, "
        f"best of {args.reps}):"
    )
    payload = run_benchmarks(
        args.scale, reps=args.reps,
        git_rev=args.git_rev, timestamp=args.timestamp,
    )
    if args.check:
        baseline = Path(args.baseline) if args.baseline else OUTPUTS[args.scale]
        if not baseline.exists():
            print(f"{baseline} missing — nothing to check against")
            return 1
        committed = json.loads(baseline.read_text())
        print(f"trajectory check vs {baseline}:")
        regressions = check_against(committed, payload)
        print(trajectory_delta_line(committed, payload))
        if regressions:
            print(
                f"bench check: FAILED ({regressions} regression(s); "
                f"if intended, refresh with `python {Path(__file__).name} "
                f"--scale {args.scale}`)"
            )
            return 1
        print("bench check: ok")
        return 0
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
