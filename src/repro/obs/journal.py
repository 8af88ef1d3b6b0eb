"""Durable, append-only run event journal (``events.jsonl``).

A multi-hour sharded run needs a progress signal that survives the
process: the journal is a schema-versioned JSONL file in the run's
checkpoint/telemetry directory recording the operational story — shard
start/finish, retries, quarantines, pool restarts, threshold-cache
persist/load, worker heartbeats — one event per line:

``{"v": 1, "ts": 1754480000.0, "event": "shard_finish", "run_id":
"1f2ab3c4d5e6", "pid": 4242, "shard": 7, "pairs": 256, ...}``

Durability and concurrency discipline:

- every append is **one** ``os.write`` to an ``O_APPEND`` file
  descriptor, so concurrent writers — worker processes heartbeating
  into the same file — never interleave bytes within a line;
- the journal is append-only: a resumed run appends to the same file
  (with a ``resumed`` marker event) instead of truncating it, so the
  full history of interrupt/resume cycles reads as one stream;
- :func:`read_events` tolerates a torn trailing line (a writer killed
  mid-append) by skipping undecodable lines instead of raising, and the
  next append starts a new line first, so the torn line never swallows
  the next event.

:class:`EventJournal` is picklable (the fd is reopened lazily per
process), which is how the MapReduce engine ships it into worker
processes for heartbeats.  The module-level *current journal*
(:func:`get_journal` / :func:`scoped_journal` / :func:`journal_emit`)
lets deep layers — the engine's retry loop, the stage graph — emit
events without threading a handle through every constructor, mirroring
the registry pattern of :mod:`repro.obs.registry`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "JOURNAL_FILE",
    "JOURNAL_SCHEMA_VERSION",
    "JournalSchemaError",
    "EventJournal",
    "read_events",
    "tail_events",
    "get_journal",
    "set_journal",
    "scoped_journal",
    "journal_emit",
]

#: Default journal file name inside a checkpoint/telemetry directory.
JOURNAL_FILE = "events.jsonl"

#: Version stamped into every event as ``"v"``.
JOURNAL_SCHEMA_VERSION = 1


class JournalSchemaError(ValueError):
    """A journal written by a newer schema than this reader understands.

    A ``ValueError`` subclass so existing readers that already guard
    with ``except ValueError`` (``repro watch``, the status service)
    degrade to a clear one-line message instead of a traceback.
    """


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for event field values."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class EventJournal:
    """Append-only JSONL event log shared by every process of one run."""

    def __init__(
        self, path: Union[str, Path], *, run_id: Optional[str] = None
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    @classmethod
    def in_dir(
        cls, directory: Union[str, Path], *, run_id: Optional[str] = None
    ) -> "EventJournal":
        """The journal at ``<directory>/events.jsonl`` (dir created)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / JOURNAL_FILE, run_id=run_id)

    # -- pickling (workers append to the same file by path) ----------------

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path, "run_id": self.run_id}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.run_id = state.get("run_id")
        self._fd = None
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------

    def _ensure_fd(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record as written.

        The record is serialized to a single line and written with one
        ``os.write`` call on an ``O_APPEND`` descriptor — concurrent
        appenders (worker processes) cannot tear each other's lines.  A
        file that does not end in a newline (a writer killed mid-append)
        gets one first, in the same write, so the torn line cannot
        swallow this record.
        """
        record: Dict[str, Any] = {
            "v": JOURNAL_SCHEMA_VERSION,
            "ts": time.time(),
            "event": event,
            "pid": os.getpid(),
        }
        if self.run_id is not None:
            record["run_id"] = self.run_id
        for key, value in fields.items():
            if value is not None:
                record[key] = _jsonable(value)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            fd = self._ensure_fd()
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
        return record

    def close(self) -> None:
        """Close the file descriptor (reopened lazily on next append)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """All decodable events in the journal (empty when absent)."""
        return read_events(self.path)

    def tail(self, n: int = 50) -> List[Dict[str, Any]]:
        """The last ``n`` decodable events."""
        return tail_events(self.path, n)


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read every decodable event from a journal file.

    A line that does not parse as a JSON object — typically a torn
    trailing line left by a killed writer — is skipped, never fatal: the
    journal must stay readable mid-run and after any crash.  A line that
    *does* parse but carries a schema version newer than
    :data:`JOURNAL_SCHEMA_VERSION` raises :class:`JournalSchemaError`
    instead of being misread: forward compatibility fails loudly with
    one clear line, not with silently wrong status.
    """
    path = Path(path)
    if not path.exists():
        return []
    events: List[Dict[str, Any]] = []
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            version = record.get("v")
            if isinstance(version, int) and version > JOURNAL_SCHEMA_VERSION:
                raise JournalSchemaError(
                    f"journal {path} uses schema v{version}; this reader "
                    f"understands up to v{JOURNAL_SCHEMA_VERSION} — "
                    f"upgrade repro to read it"
                )
            events.append(record)
    return events


def tail_events(path: Union[str, Path], n: int = 50) -> List[Dict[str, Any]]:
    """The last ``n`` decodable events of a journal file."""
    if n <= 0:
        return []
    return read_events(path)[-n:]


# -- current journal --------------------------------------------------------

_current: Optional[EventJournal] = None


def get_journal() -> Optional[EventJournal]:
    """The currently active journal, or None when no run is journaling."""
    return _current


def set_journal(journal: Optional[EventJournal]) -> Optional[EventJournal]:
    """Install ``journal`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = journal
    return previous


class scoped_journal:
    """Context manager activating a journal for the enclosed block.

    >>> with scoped_journal(EventJournal.in_dir("/tmp/run")):
    ...     journal_emit("run_start", n_shards=4)
    """

    def __init__(self, journal: Optional[EventJournal]) -> None:
        self._journal = journal
        self._previous: Optional[EventJournal] = None

    def __enter__(self) -> Optional[EventJournal]:
        self._previous = set_journal(self._journal)
        return self._journal

    def __exit__(self, *_exc: Any) -> None:
        set_journal(self._previous)


def journal_emit(event: str, **fields: Any) -> None:
    """Append to the current journal; a no-op when none is active."""
    journal = get_journal()
    if journal is not None:
        journal.append(event, **fields)
