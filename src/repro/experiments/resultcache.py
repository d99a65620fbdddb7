"""Content-addressed on-disk cache of simulation results.

A sweep point is identified by a *fingerprint*: the SHA-256 of a
canonical encoding of ``(app, data-set config, prefetching,
MachineConfig, source digest)``.  The encoding recurses through the
configs' frozen dataclasses (including the
:class:`~repro.faults.plan.FaultPlan` and its
:class:`~repro.faults.plan.BackoffPolicy`), tags enums by class and
value, and sorts every mapping, so two configs with equal field values
hash equal no matter how they were built, and *any* field change —
matrix size, latency table, cache geometry, fault rates, seed — changes
the key.  The :func:`source_digest` covers every source file of the
package, so a persisted cache never replays a result that other code
produced.

Cached payloads are the same canonical encoding applied to the
:class:`~repro.system.results.SimulationResult` (minus the application
``world``, which is app-specific object state, not a measurement), so a
cache hit replays the *bit-identical* measurement payload the original
run produced — the property the differential tests in
``tests/test_parallel.py`` lock in.

An entry file ``<key>.json`` holds two parts: one JSON header line
(``format``, ``key``, ``version``, ``sha256``, ``wall_seconds``), then
the canonical payload bytes exactly once.  The digest is checked on the
body as it sits on disk, and one ``json.loads`` with :func:`_revive` as
its object hook turns the body back into a result.  Corrupted,
truncated or relocated files fail the split, the header check, the
digest or the parse and are treated as misses, never as crashes.  An
entry of an older :data:`CACHE_FORMAT` is a miss too, so a format bump
re-simulates an existing cache once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Type, Union

import repro
from repro import __version__
from repro.apps.base import PrefetchMode
from repro.apps.lu import LUConfig
from repro.apps.mp3d import MP3DConfig
from repro.apps.pthor import PTHORConfig
from repro.coherence import AccessClass
from repro.coherence.protocol import ProtocolStats
from repro.config import (
    CacheGeometry,
    Consistency,
    ContentionConfig,
    LatencyTable,
    MachineConfig,
    PlacementPolicy,
)
from repro.faults.injector import FaultStats
from repro.faults.plan import BackoffPolicy, FaultPlan
from repro.processor.accounting import Bucket, TimeBreakdown
from repro.system.results import PrefetchSummary, SimulationResult, SyncSummary

if TYPE_CHECKING:
    from repro.experiments.registry import SweepPoint

#: On-disk format version; bump on any incompatible layout change.
CACHE_FORMAT = 2

#: Environment variable consulted when no explicit cache dir is given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DATACLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        BackoffPolicy,
        CacheGeometry,
        ContentionConfig,
        FaultPlan,
        FaultStats,
        LatencyTable,
        LUConfig,
        MachineConfig,
        MP3DConfig,
        PrefetchSummary,
        PTHORConfig,
        ProtocolStats,
        SimulationResult,
        SyncSummary,
        TimeBreakdown,
    )
}

_ENUMS: Dict[str, Type[enum.Enum]] = {
    cls.__name__: cls
    for cls in (AccessClass, Bucket, Consistency, PlacementPolicy, PrefetchMode)
}

#: Fields excluded from the canonical encoding, per dataclass: the
#: ``world`` is arbitrary application object state (particle lists,
#: circuit graphs), not a measurement, and is not required by any
#: figure or table regenerator.
_SKIP_FIELDS = {
    "SimulationResult": {"world"},
}


def encode(value: Any) -> Any:
    """Canonicalize ``value`` into JSON-serializable plain data.

    Deterministic by construction: dataclass fields are emitted in
    declaration order, dict entries are sorted by their encoded key, and
    enums are tagged ``{"__enum__": class, "value": ...}`` so decoding
    is lossless.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _DATACLASSES:
            raise TypeError(f"unregistered dataclass {name!r} in cache payload")
        skip = _SKIP_FIELDS.get(name, ())
        fields = {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in skip
        }
        return {"__dataclass__": name, "fields": fields}
    if isinstance(value, dict):
        entries = [[encode(k), encode(v)] for k, v in value.items()]
        entries.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__dict__": entries}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} for the result cache")


def _revive(obj: Dict[str, Any]) -> Any:
    """``json.loads`` object hook inverting :func:`encode`'s tags.

    The parser calls it bottom-up, so every nested value is already
    revived when its enclosing tag is seen.
    """
    if "__enum__" in obj:
        return _ENUMS[obj["__enum__"]](obj["value"])
    if "__dataclass__" in obj:
        return _DATACLASSES[obj["__dataclass__"]](**obj["fields"])
    if "__dict__" in obj:
        return dict(obj["__dict__"])
    return obj


def decode(value: Any) -> Any:
    """Inverse of :func:`encode` (tuples come back as lists)."""
    return json.loads(payload_bytes(value), object_hook=_revive)


def payload_bytes(payload: Any) -> bytes:
    """Serialize encoded data to canonical bytes (sorted keys, no
    whitespace) — the unit of bit-identity comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_result_bytes(result: SimulationResult) -> bytes:
    """The canonical measurement payload of one run, as bytes.

    Serial, parallel, and cache-replayed runs of the same sweep point
    must produce identical bytes here — the differential tests compare
    exactly this.
    """
    return payload_bytes(encode(result))


def result_from_bytes(blob: bytes) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from its canonical bytes
    (``world`` is ``None`` on the replayed result)."""
    return json.loads(blob, object_hook=_revive)


def config_fingerprint(config: MachineConfig) -> str:
    """SHA-256 over the canonical encoding of a machine configuration."""
    return hashlib.sha256(payload_bytes(encode(config))).hexdigest()


_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over every ``*.py`` file of the ``repro`` package, by
    relative path and bytes: the simulator's part of every cache key.
    Computed on first use and kept for the life of the process."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for relative, path in sorted(
            (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
        ):
            body = path.read_bytes()
            digest.update(f"{relative}\0{len(body)}\0".encode("utf-8"))
            digest.update(body)
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def run_fingerprint(point: "SweepPoint") -> str:
    """The content address of one sweep point: what it simulates and
    the source that simulates it.  A :class:`PrefetchMode` is keyed by
    its value: every member is truthy, so ``bool`` would give
    ``REMOTE_ONLY`` the key of full prefetching."""
    prefetching = point.prefetching
    doc = {
        "app": point.app,
        "dataset": encode(point.dataset),
        "prefetching": (
            prefetching.value if isinstance(prefetching, PrefetchMode)
            else bool(prefetching)
        ),
        "config": encode(point.config),
        "source": source_digest(),
    }
    return hashlib.sha256(payload_bytes(doc)).hexdigest()


@dataclass
class CachedRun:
    """A replayed cache entry: the result, the original run's wall time,
    and the canonical payload bytes it was stored as."""

    result: SimulationResult
    wall_seconds: float
    payload: bytes


class ResultCache:
    """On-disk content-addressed store of serialized run results.

    One ``<key>.json`` file per fingerprint (a header line, then the
    payload), written atomically (temp file + rename) so a crashed
    writer never leaves a half-entry that poisons later runs:
    unparsable or digest-mismatched files read as misses.

    Concurrent writers (a supervised sweep's pool restarts can overlap
    a retry with a straggler finishing the same point) are serialized
    through an advisory ``flock`` on a sidecar lockfile where the
    platform supports it; the temp-file + rename protocol keeps the
    cache corruption-free even without the lock, so the lock only
    prevents redundant simultaneous writes, never guards correctness.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[CachedRun]:
        """Replay a stored run, or ``None`` on any miss — including a
        corrupted, truncated, or mismatched entry."""
        try:
            head, sep, blob = self.path_for(key).read_bytes().partition(b"\n")
            if not sep:
                raise ValueError("no header line")
            header = json.loads(head)
            if header["format"] != CACHE_FORMAT or header["key"] != key:
                raise ValueError("stale or relocated cache entry")
            if hashlib.sha256(blob).hexdigest() != header["sha256"]:
                raise ValueError("payload digest mismatch")
            result = result_from_bytes(blob)
            wall = float(header.get("wall_seconds", 0.0))
        except (OSError, ValueError, KeyError, TypeError):
            # OSError: absent/unreadable; ValueError covers json parse
            # errors and our own integrity checks; KeyError/TypeError:
            # structurally mangled entries.  All are misses, not crashes.
            self.misses += 1
            return None
        if not isinstance(result, SimulationResult):
            self.misses += 1
            return None
        self.hits += 1
        return CachedRun(result=result, wall_seconds=wall, payload=blob)

    def store(
        self, key: str, result: SimulationResult, wall_seconds: float
    ) -> bytes:
        """Persist one run; returns its canonical payload bytes."""
        return self.store_bytes(key, canonical_result_bytes(result), wall_seconds)

    def store_bytes(self, key: str, blob: bytes, wall_seconds: float) -> bytes:
        """Persist one run's canonical payload bytes; returns them."""
        header = {
            "format": CACHE_FORMAT,
            "key": key,
            "version": __version__,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "wall_seconds": wall_seconds,
        }
        data = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob
        with _entry_lock(self.root, key):
            # The ".tmp" suffix keeps a killed writer's leftover out of
            # every "*.json" listing of the entries.
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".tmp-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self.stores += 1
        return blob

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def stats_line(self) -> str:
        return (
            f"result cache {self.root}: {self.hits} hits, "
            f"{self.misses} misses, {self.stores} stored"
        )


@contextmanager
def _entry_lock(root: Path, key: str):
    """Advisory per-entry write lock (``flock`` on a sidecar file).

    Best-effort by design: on platforms without ``fcntl`` (or when the
    lockfile cannot be created) writers fall back to unlocked atomic
    rename, which is already corruption-safe — last writer wins with a
    bit-identical payload, since the key is a content address.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: atomic rename alone is enough
        yield
        return
    lock_path = root / f".lock-{key}"
    try:
        fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        os.close(fd)


def resolve_cache_dir(cache_dir: Optional[Union[str, Path]]) -> Optional[Path]:
    """Explicit directory, else the ``REPRO_CACHE_DIR`` environment
    variable, else ``None`` (caching disabled)."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return Path(cache_dir) if cache_dir is not None else None


def timed(clock=time.perf_counter):
    """Harness wall-clock sampler (never enters simulated state)."""
    return clock()
