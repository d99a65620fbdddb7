"""End-to-end and per-layer benchmark of the simulator.

Run every workload, untraced and then traced, each in a fresh process::

    python benchmarks/perf/run.py [--workload NAME ...] [--seed N] [--out FILE]

Every metric is printed as ``workload metric value unit``.  With one
workload, the last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end and per-layer
metrics together, or with ``--trace 0`` the end-to-end ones only and
with ``--trace 1`` the per-layer ones only::

    python benchmarks/perf/run.py --workload mp3d-sc --seed 1 --seconds 15 --trace 0

Outputs are checked against ``expected.json``; the exit code is 1 if any
operation failed or a worker crashed.  ``--record-expected`` rewrites
``expected.json`` from runs at each workload's default seed, for changes
to the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import EXPECTED_PATH, SWEEP_KEY, WORKLOADS  # noqa: E402

#: Seconds each run measures, unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 15
#: A worker that has not finished after this long is killed.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    """The environment minus ``REPRO_*`` overrides, with the sources
    on the import path and a fixed string-hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    record: bool = False,
    spans: str | None = None,
) -> dict:
    """Measure one workload in a fresh process.  A crashed or killed
    worker counts as one failed operation."""
    work_parent = ROOT / ".perf-work"
    work_parent.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_parent)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", work_dir,
    ]
    if record:
        cmd.append("--record")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return crashed(f"worker killed after {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return crashed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def crashed(message: str) -> dict:
    """The worker output that stands for a worker that crashed."""
    return {"attempted": 1, "failed": 1, "errors": [message], "digests": {},
            "wall_s": None, "metrics": {}}


def result_line(entry: dict) -> dict:
    """The JSON result line of one workload's entry in the results."""
    metrics = {**entry.get("end_to_end", {}), **entry.get("per_layer", {})}
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": value["value"], "unit": value["unit"]}
            for name, value in metrics.items()
        },
    }


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def provenance(git_rev: str | None, seconds: float) -> dict:
    if git_rev is None:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            git_rev = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg_start": loadavg(),
        "seconds": seconds,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def record_expected(seconds: float) -> int:
    """Rewrite ``expected.json`` from runs at each default seed."""
    expected: dict = {}
    for name, workload in WORKLOADS.items():
        out = run_worker(name, workload.default_seed, seconds, 0, record=True)
        if out["failed"]:
            print(f"{name}: cannot record: {out['errors']}", file=sys.stderr)
            return 1
        if workload.kind == "sim":
            expected[name] = {"seed": workload.default_seed, "sha256": out["digests"]["run"]}
        elif expected.setdefault(SWEEP_KEY, out["digests"]) != out["digests"]:
            print(f"{name}: sweep digests differ between workloads", file=sys.stderr)
            return 1
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark: end-to-end metrics untraced, per-layer metrics traced."
    )
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, help="app seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run only untraced (0) or only traced (1)")
    parser.add_argument("--out", help="write the results, with provenance, to this JSON file")
    parser.add_argument("--git-rev", help="revision recorded in --out (default: git rev-parse)")
    parser.add_argument("--spans", help="dump the raw spans of one workload's traced run here")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json (for changes to the benchmark only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected(0)
    names = args.workload or list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    if args.spans and (len(names) != 1 or 1 not in modes):
        parser.error("--spans needs exactly one workload and a traced run")
    spans = str(Path(args.spans).resolve()) if args.spans else None  # workers run in ROOT

    doc = {"provenance": provenance(args.git_rev, args.seconds) if args.out else {}}
    doc["workloads"] = {}
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        entry = doc["workloads"][name] = {
            "seed": seed, "attempted": 0, "failed": 0, "errors": [], "wall_s": {}
        }
        for trace in modes:
            out = run_worker(name, seed, args.seconds, trace, spans=spans if trace else None)
            entry["attempted"] += out["attempted"]
            entry["failed"] += out["failed"]
            entry["errors"] += out["errors"]
            entry["wall_s"]["traced" if trace else "untraced"] = out["wall_s"]
            entry["per_layer" if trace else "end_to_end"] = out["metrics"]
            for metric, value in out["metrics"].items():
                print(f"{name} {metric} {value['value']!r} {value['unit']}")
            for error in out["errors"]:
                print(f"{name}: FAILED {error}", file=sys.stderr)
    if args.out:
        doc["provenance"]["loadavg_end"] = loadavg()
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    if len(names) == 1:
        print(json.dumps(result_line(doc["workloads"][names[0]])))
    return 0 if all(entry["failed"] == 0 for entry in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
