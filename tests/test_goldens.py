"""Golden-result regression tests.

One small-scale configuration per application is pinned under
``tests/goldens/``: elapsed cycles, event counts, protocol and
synchronization counters, and the SHA-256 of the full canonical result
payload.  Serial runs must keep matching these bit-for-bit — the
simulator is deterministic by design, and the parallel/cache paths are
proven against the serial one, so this file anchors the whole chain.

After a *reviewed* behaviour change, regenerate with:

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, build_app
from repro.experiments.resultcache import canonical_result_bytes
from repro.system import run_program

GOLDEN_DIR = Path(__file__).parent / "goldens"

APPS = ("MP3D", "LU", "PTHOR")


def golden_config():
    """The pinned machine configuration (smoke apps, 8 processors, SC)."""
    return dash_scaled_config(num_processors=SMOKE_PROCESSES)


def golden_stats(result) -> dict:
    """The pinned observables of one run.  Scalars are listed
    explicitly so a mismatch names the drifted counter; the payload
    digest catches everything else."""
    return {
        "program": result.program_name,
        "execution_time": result.execution_time,
        "events_processed": result.events_processed,
        "busy_cycles": result.busy_cycles,
        "shared_reads": result.shared_reads,
        "shared_writes": result.shared_writes,
        "read_hits": result.read_hits,
        "read_misses": result.read_misses,
        "write_hits": result.write_hits,
        "write_misses": result.write_misses,
        "shared_data_bytes": result.shared_data_bytes,
        "invalidations_sent": result.protocol.invalidations_sent,
        "ownership_transfers": result.protocol.ownership_transfers,
        "writes_total": result.protocol.writes_total,
        "sharing_writebacks": result.protocol.sharing_writebacks,
        "eviction_writebacks": result.protocol.eviction_writebacks,
        "lock_acquires": result.sync.lock_acquires,
        "flag_waits": result.sync.flag_waits,
        "barrier_crossings": result.sync.barrier_crossings,
        "payload_sha256": hashlib.sha256(
            canonical_result_bytes(result)
        ).hexdigest(),
    }


def golden_path(app: str) -> Path:
    return GOLDEN_DIR / f"{app.lower()}.json"


def assert_matches_golden(path: Path, stats: dict, update: bool) -> None:
    """Compare ``stats`` with the golden at ``path``; rewrite the golden
    instead when ``update`` (``--update-goldens``) is set."""
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path}; generate with --update-goldens"
    )
    golden = json.loads(path.read_text())
    mismatches = {
        key: (golden.get(key), stats.get(key))
        for key in sorted(set(golden) | set(stats))
        if golden.get(key) != stats.get(key)
    }
    assert not mismatches, (
        f"{path.stem} drifted from "
        f"tests/goldens/{path.name} "
        f"(field: (golden, measured)): {mismatches}\n"
        "If this change is intended and reviewed, refresh with "
        "--update-goldens."
    )


@pytest.mark.parametrize("app", APPS)
def test_golden_stats_match(app, request):
    result = run_program(build_app(app, "smoke"), golden_config())
    assert_matches_golden(
        golden_path(app),
        golden_stats(result),
        request.config.getoption("--update-goldens"),
    )


def test_goldens_exist_for_every_app():
    for app in APPS:
        assert golden_path(app).exists(), (
            f"tests/goldens/{app.lower()}.json is missing"
        )
