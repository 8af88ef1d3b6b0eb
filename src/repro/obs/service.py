"""Live run status: journal folding and the stdlib HTTP status service.

The paper's detection infrastructure runs as a long-lived service that
operators watch (Section VII); this module gives sharded runs the same
property with nothing beyond the stdlib:

- :func:`build_status` folds the event journal (see
  :mod:`repro.obs.journal`) into one JSON-able status dict — shards
  done/total, per-shard state, pairs/sec throughput, ETA, last
  heartbeat per worker, retry/quarantine counts;
- :class:`StatusServer` serves that status over HTTP from a background
  thread (``http.server.ThreadingHTTPServer``), alongside the live
  Prometheus exposition and the journal tail:

  ========== =======================================================
  ``/status``  status JSON (``build_status`` over the journal)
  ``/metrics`` Prometheus text of the live registry (``to_prometheus``)
  ``/events``  journal tail as NDJSON (``?n=<count>``, default 50)
  ``/``        tiny text index of the endpoints
  ========== =======================================================

``repro run --status-port N`` starts one next to a sharded run and
``repro watch`` polls it (or folds the journal directly); see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from repro.obs.export import to_prometheus
from repro.obs.journal import read_events, tail_events
from repro.obs.registry import MetricsRegistry

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "build_status",
    "render_status",
    "StatusServer",
]

#: Version stamped into every ``/status`` payload as ``"schema"``.
STATUS_SCHEMA_VERSION = 1


def _number(record: Dict[str, Any], field: str, kind: Callable) -> Any:
    """``record[field]`` (default 0) converted by ``kind``.

    A value ``kind`` rejects raises ``ValueError`` naming the event, so
    readers of a damaged journal report one line, not a traceback.
    """
    value = record.get(field, 0)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"journal event {record.get('event')!r} has a non-numeric "
            f"{field!r}: {value!r}"
        ) from None


def build_status(
    events: List[Dict[str, Any]], *, now: Optional[float] = None
) -> Dict[str, Any]:
    """Fold journal events into one run-status dict.

    The journal is append-only across interrupt/resume cycles, so the
    fold deduplicates by shard index: a shard is *done* once any
    ``shard_finish`` or ``shard_resumed`` event names it, regardless of
    how many runs the journal spans.  Throughput and ETA come from the
    ``shard_finish`` events' pair counts and durations; worker liveness
    from the newest ``heartbeat`` per worker pid.  A count or duration
    that is not a number raises ``ValueError`` naming the event.
    """
    # An empty (or not-yet-created) journal folds to state "waiting":
    # a watcher pointed at a run that has not started yet should see
    # "waiting for run", not an error or a bogus terminal state.
    status: Dict[str, Any] = {
        "schema": STATUS_SCHEMA_VERSION,
        "run_id": None,
        "state": "waiting",
        "resumed": False,
        "shards": {"total": 0, "done": 0, "running": 0, "states": {}},
        "pairs": {"processed": 0, "detected": 0},
        "throughput": {"pairs_per_second": None, "eta_seconds": None},
        "workers": {},
        "quarantined": 0,
        "retries": 0,
        "pool_restarts": 0,
        "events": len(events),
        "last_event_ts": None,
    }
    states: Dict[str, str] = status["shards"]["states"]
    done: set = set()
    finish_pairs = 0
    finish_seconds = 0.0
    finish_count = 0
    for record in events:
        kind = record.get("event")
        ts = record.get("ts")
        if ts is not None:
            status["last_event_ts"] = ts
        if record.get("run_id") is not None:
            status["run_id"] = record["run_id"]
        if kind == "run_start":
            status["state"] = "running"
            if record.get("n_shards") is not None:
                status["shards"]["total"] = _number(record, "n_shards", int)
        elif kind == "resumed":
            status["resumed"] = True
        elif kind == "shard_start":
            shard = str(record.get("shard"))
            if shard not in done:
                states[shard] = "running"
        elif kind in ("shard_finish", "shard_resumed"):
            shard = str(record.get("shard"))
            done.add(shard)
            states[shard] = (
                "resumed" if kind == "shard_resumed" else "done"
            )
            if kind == "shard_finish":
                pairs = _number(record, "pairs", int)
                status["pairs"]["processed"] += pairs
                status["pairs"]["detected"] += _number(record, "detected", int)
                if record.get("seconds") is not None:
                    finish_pairs += pairs
                    finish_seconds += _number(record, "seconds", float)
                    finish_count += 1
        elif kind == "heartbeat":
            worker = str(record.get("worker", record.get("pid")))
            if ts is not None:
                status["workers"][worker] = ts
        elif kind == "retry":
            status["retries"] += 1
        elif kind == "pool_restart":
            status["pool_restarts"] += 1
        elif kind == "quarantine":
            status["quarantined"] += 1
        elif kind == "run_finish":
            status["state"] = "finished"
        elif kind == "run_suspended":
            status["state"] = "suspended"
    status["shards"]["done"] = len(done)
    status["shards"]["running"] = sum(
        1 for state in states.values() if state == "running"
    )
    if finish_seconds > 0:
        rate = finish_pairs / finish_seconds
        status["throughput"]["pairs_per_second"] = round(rate, 3)
        remaining = status["shards"]["total"] - len(done)
        if remaining > 0 and finish_count:
            mean_shard = finish_seconds / finish_count
            status["throughput"]["eta_seconds"] = round(
                mean_shard * remaining, 3
            )
        elif remaining <= 0:
            status["throughput"]["eta_seconds"] = 0.0
    return status


def render_status(status: Dict[str, Any]) -> str:
    """Human one-glance rendering of a :func:`build_status` dict."""
    shards = status["shards"]
    throughput = status["throughput"]
    if status.get("state") == "waiting" and not status.get("events"):
        return "waiting for run (no journal events yet)\n"
    lines = [
        f"run {status['run_id'] or '?'}  [{status['state']}]"
        + ("  (resumed)" if status.get("resumed") else ""),
        f"shards   {shards['done']}/{shards['total']} done"
        f" ({shards['running']} running)",
        f"pairs    {status['pairs']['processed']} processed, "
        f"{status['pairs']['detected']} detected",
    ]
    if throughput["pairs_per_second"] is not None:
        eta = throughput["eta_seconds"]
        lines.append(
            f"rate     {throughput['pairs_per_second']:.1f} pairs/s"
            + (f", eta {eta:.0f}s" if eta is not None else "")
        )
    if status["workers"]:
        lines.append(f"workers  {len(status['workers'])} heartbeating")
    problems = [
        f"{name} {status[name]}"
        for name in ("retries", "pool_restarts", "quarantined")
        if status[name]
    ]
    if problems:
        lines.append("issues   " + ", ".join(problems))
    return "\n".join(lines) + "\n"


class _StatusHandler(BaseHTTPRequestHandler):
    """Routes one request; the server instance carries the data sources."""

    server: "_StatusHTTPServer"

    # BaseHTTPRequestHandler logs every request to stderr by default.
    def log_message(self, *_args: Any) -> None:  # noqa: D102
        pass

    def _send(
        self, payload: str, content_type: str, code: int = 200
    ) -> None:
        body = payload.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/status":
                status = build_status(self.server.read_journal())
                self._send(
                    json.dumps(status, sort_keys=True) + "\n",
                    "application/json",
                )
            elif route == "/metrics":
                self._send(
                    to_prometheus(self.server.registry),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/events":
                query = parse_qs(parsed.query)
                try:
                    n = int(query.get("n", ["50"])[0])
                except ValueError:
                    n = 50
                lines = [
                    json.dumps(event, sort_keys=True)
                    for event in self.server.tail_journal(n)
                ]
                self._send(
                    "\n".join(lines) + ("\n" if lines else ""),
                    "application/x-ndjson",
                )
            elif route == "/":
                self._send(
                    "repro status service\n"
                    "  /status   run status JSON\n"
                    "  /metrics  Prometheus text exposition\n"
                    "  /events   journal tail (?n=50)\n",
                    "text/plain; charset=utf-8",
                )
            else:
                self._send("not found\n", "text/plain; charset=utf-8", 404)
        except Exception as exc:  # never kill the serving thread
            self._send(f"error: {exc}\n", "text/plain; charset=utf-8", 500)


class _StatusHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, registry, journal_path) -> None:
        super().__init__(address, _StatusHandler)
        self.registry = registry
        self.journal_path = journal_path

    def read_journal(self) -> List[Dict[str, Any]]:
        if self.journal_path is None:
            return []
        return read_events(self.journal_path)

    def tail_journal(self, n: int) -> List[Dict[str, Any]]:
        if self.journal_path is None:
            return []
        return tail_events(self.journal_path, n)


class StatusServer:
    """Background HTTP server exposing a run's live status.

    >>> server = StatusServer(journal_path=ckpt / "events.jsonl",
    ...                       registry=registry, port=0)
    >>> port = server.start()   # port 0 binds an ephemeral port
    >>> ...                     # run; curl /status, /metrics, /events
    >>> server.stop()

    The server thread is a daemon and every read re-folds the journal
    from disk, so it observes exactly what crashed-run forensics would.
    """

    def __init__(
        self,
        *,
        journal_path: Optional[Union[str, Path]] = None,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._server: Optional[_StatusHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._server is not None:
            return self.port
        self._server = _StatusHTTPServer(
            (self.host, self.port), self.registry, self.journal_path
        )
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-status-server",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "StatusServer":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
