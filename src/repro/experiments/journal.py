"""Append-only, fsync'd, corruption-tolerant run journal for sweeps.

A sweep that takes hours must survive the death of the process driving
it: an OOM-killed worker, a Ctrl-C, a machine reboot.  The journal is
the durable half of that story — one JSONL file per *run* under a
journal directory, written strictly append-only, with every record

* **self-describing**: a ``meta`` record at the head carries the full
  declarative :class:`~repro.experiments.registry.SweepPoint` specs
  (data set and config serialized through the result cache's canonical
  encoding), so
  ``repro-1991 sweep --resume <run-id>`` needs *nothing* but the
  journal directory to rebuild the exact sweep;
* **self-checking**: each line embeds the SHA-256 of its own record, so
  a torn tail (the classic crash artifact: the process died mid-write)
  or any flipped byte fails verification and is *dropped*, never
  trusted and never fatal;
* **durable**: every append is flushed and ``fsync``'d before the
  caller proceeds, and the journal directory itself is fsync'd on
  creation, so a record the caller saw acknowledged survives a crash
  immediately after (within the filesystem's own guarantees — see
  DESIGN.md for the caveats);
* **keyed by content**: each ``point`` record carries the
  :func:`~repro.experiments.resultcache.run_fingerprint` of its sweep
  point and, on completion, the SHA-256 of the canonical result
  payload, so resume can verify that the current source still gives
  the point that key and that a restored result is bit-identical to
  what the original run produced.

The journal stores *outcomes and digests*, not payloads; the payload
bytes themselves live in the content-addressed
:class:`~repro.experiments.resultcache.ResultCache` next to the journal
(or wherever ``--cache-dir`` points).  Loading tolerates arbitrary
trailing garbage and interior corruption: valid records are kept, bad
lines are counted in :attr:`JournalState.dropped_lines`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import __version__

#: On-disk journal format version; bump on any incompatible change.
JOURNAL_FORMAT = 2

#: Environment variable consulted when no explicit journal dir is given.
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: Default journal directory (relative to the invoking cwd).
DEFAULT_JOURNAL_DIR = ".repro/journal"

#: ``point`` record statuses that count as "done, restorable on resume".
TERMINAL_STATUSES = ("pass", "degraded", "quarantined")


def new_run_id() -> str:
    """A fresh 12-hex-char run identifier (process-unique, not guessable
    from sweep content — two runs of the same sweep get distinct
    journals)."""
    return os.urandom(6).hex()


def resolve_journal_dir(journal_dir: Optional[Union[str, Path]]) -> Path:
    """Explicit directory, else ``REPRO_JOURNAL_DIR``, else the default."""
    if journal_dir is None:
        journal_dir = os.environ.get(JOURNAL_DIR_ENV) or DEFAULT_JOURNAL_DIR
    return Path(journal_dir)


def _record_digest(record: Dict[str, Any]) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JournalState:
    """Everything a loader could recover from one journal file."""

    path: Path
    meta: Optional[Dict[str, Any]] = None
    #: Latest ``point`` record per sweep index (later appends win, so a
    #: retried point's final outcome shadows its earlier ones).
    points: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    incidents: List[Dict[str, Any]] = field(default_factory=list)
    #: Lines that failed JSON parsing or digest verification.
    dropped_lines: int = 0

    @property
    def run_id(self) -> Optional[str]:
        return self.meta.get("run") if self.meta else None

    def completed_indices(self) -> List[int]:
        """Sweep indices whose recorded outcome is terminal (restorable)."""
        return sorted(
            index
            for index, record in self.points.items()
            if record.get("status") in TERMINAL_STATUSES
        )


class RunJournal:
    """One run's append-only journal file (``<dir>/<run-id>.jsonl``)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None  # opened lazily on first append

    # -- writing -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        journal_dir: Union[str, Path],
        run_id: str,
        name: str,
        point_specs: List[Dict[str, Any]],
    ) -> "RunJournal":
        """Start a new journal and durably write its ``meta`` record.

        ``point_specs`` is the full declarative sweep (one dict per
        point, including its canonical-encoded data set and config and
        its cache key) — everything resume needs to rebuild the run.
        """
        journal_dir = Path(journal_dir)
        journal_dir.mkdir(parents=True, exist_ok=True)
        journal = cls(journal_dir / f"{run_id}.jsonl")
        if journal.path.exists():
            raise FileExistsError(f"journal {journal.path} already exists")
        journal.append(
            {
                "type": "meta",
                "format": JOURNAL_FORMAT,
                "run": run_id,
                "name": name,
                "version": __version__,
                "created": time.time(),  # srclint: ok(wall-clock) — journal metadata, never enters sim state
                "points": point_specs,
            }
        )
        _fsync_dir(journal_dir)
        return journal

    @classmethod
    def open_existing(
        cls, journal_dir: Union[str, Path], run_id: str
    ) -> "RunJournal":
        """Open an existing journal for appending (resume path)."""
        path = Path(journal_dir) / f"{run_id}.jsonl"
        if not path.exists():
            raise FileNotFoundError(
                f"no journal for run {run_id!r} under {journal_dir} "
                f"(expected {path})"
            )
        return cls(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one self-checksummed record."""
        line = json.dumps(
            {"record": record, "sha256": _record_digest(record)},
            sort_keys=True,
            separators=(",", ":"),
        )
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(line.encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_point(
        self,
        index: int,
        key: str,
        name: str,
        status: str,
        attempts: int,
        wall_seconds: float,
        payload_sha256: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Journal one point's outcome (the unit of resumability)."""
        self.append(
            {
                "type": "point",
                "index": index,
                "key": key,
                "name": name,
                "status": status,
                "attempts": attempts,
                "wall_seconds": wall_seconds,
                "payload_sha256": payload_sha256,
                "error": error,
            }
        )

    def record_incident(self, kind: str, suspects: List[int], detail: str) -> None:
        """Journal a supervision incident (worker crash, hang, stop) —
        informational: loaders replay outcomes, not incidents."""
        self.append(
            {"type": "incident", "kind": kind, "suspects": suspects, "detail": detail}
        )

    def close(self, status: str) -> None:
        """Append a closing marker and release the file handle."""
        self.append({"type": "close", "status": status})
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> JournalState:
        """Replay a journal, dropping (and counting) corrupt lines.

        Corruption tolerance is per-line: a torn tail, truncated record,
        or bit-flipped byte invalidates only that line.  Unknown record
        types are ignored (forward compatibility).
        """
        path = Path(path)
        state = JournalState(path=path)
        try:
            raw = path.read_bytes()
        except OSError:
            return state
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            record = _verify_line(line)
            if record is None:
                state.dropped_lines += 1
                continue
            kind = record.get("type")
            if kind == "meta":
                if record.get("format") == JOURNAL_FORMAT:
                    state.meta = record
                else:
                    state.dropped_lines += 1
            elif kind == "point":
                index = record.get("index")
                if isinstance(index, int):
                    state.points[index] = record
                else:
                    state.dropped_lines += 1
            elif kind == "incident":
                state.incidents.append(record)
            # "close" and unknown types: informational, skipped.
        return state


def _verify_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse and digest-check one journal line (``None`` on any defect)."""
    try:
        wrapper = json.loads(line.decode("utf-8"))
        record = wrapper["record"]
        if _record_digest(record) != wrapper["sha256"]:
            return None
        if not isinstance(record, dict):
            return None
        return record
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a freshly created journal file survives a
    crash (POSIX semantics; harmless no-op where unsupported)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
