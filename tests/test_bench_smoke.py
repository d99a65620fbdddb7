"""The ``benchmarks/bench_smoke.py --check`` gate on synthetic payloads.

The script is not a package module, so it is imported by path.  Only the
comparison is exercised here; no simulation runs.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_smoke.py"


@pytest.fixture(scope="module")
def bench_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload():
    return {
        "scale": "smoke",
        "provenance": {"git_rev": "abc1234", "timestamp": "2026-01-01T00:00:00Z"},
        "apps": {
            "LU": {"events": 3141, "events_per_sec": 200_000},
            "MP3D": {"events": 6446, "events_per_sec": 150_000},
            "PTHOR": {"events": 5336, "events_per_sec": 120_000},
        },
    }


def test_unchanged_payload_passes(bench_smoke):
    committed = _payload()
    assert bench_smoke.check_against(committed, copy.deepcopy(committed)) == 0


def test_provenance_is_never_compared(bench_smoke):
    fresh = _payload()
    fresh["provenance"] = {"git_rev": "fffffff", "timestamp": None}
    assert bench_smoke.check_against(_payload(), fresh) == 0


def test_event_count_drift_counts_once(bench_smoke):
    fresh = _payload()
    fresh["apps"]["MP3D"]["events"] += 1
    assert bench_smoke.check_against(_payload(), fresh) == 1


def test_throughput_collapse_counts_once(bench_smoke):
    fresh = _payload()
    # Just under half the committed rate trips the 2x gate ...
    fresh["apps"]["LU"]["events_per_sec"] = 99_999
    assert bench_smoke.check_against(_payload(), fresh) == 1
    # ... while exactly half, or any noise above it, does not.
    fresh["apps"]["LU"]["events_per_sec"] = 100_000
    assert bench_smoke.check_against(_payload(), fresh) == 0


def test_missing_app_counts(bench_smoke):
    fresh = _payload()
    del fresh["apps"]["PTHOR"]
    assert bench_smoke.check_against(_payload(), fresh) == 1


def test_baseline_without_apps_fails_closed(bench_smoke):
    committed = {"backends": {"heap": _payload()}}
    assert bench_smoke.check_against(committed, _payload()) == 1


def test_delta_line_names_baseline_and_changes(bench_smoke):
    fresh = _payload()
    fresh["apps"]["LU"]["events_per_sec"] = 220_000
    line = bench_smoke.trajectory_delta_line(_payload(), fresh)
    assert "abc1234, 2026-01-01T00:00:00Z" in line
    assert "LU +10.0%" in line and "MP3D +0.0%" in line
