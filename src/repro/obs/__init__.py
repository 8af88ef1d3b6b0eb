"""Pipeline-wide telemetry: metrics registry, span tracing, exporters.

BAYWATCH is an operational system — the paper accounts for every filter
stage's data-volume reduction (Table 3) and for where cluster time is
spent.  This package gives the reproduction the same visibility:

- :mod:`repro.obs.registry` — counters, gauges, histograms (p50/p95/p99)
  and timers, scoped per run, with snapshot/merge aggregation across
  threads and MapReduce worker processes;
- :mod:`repro.obs.tracing` — nested wall-clock (and optional
  peak-memory) spans over the 8 filter stages, the MapReduce engine's
  reduce tasks, and the detector's internal steps;
- :mod:`repro.obs.export` — the human run report (funnel + stage
  latency tables), JSON lines, Prometheus text format, and the trace
  renderers (ASCII tree + Chrome trace-event JSON);
- :mod:`repro.obs.journal` — the durable, append-only run event
  journal (``events.jsonl``): shard progress, retries, quarantines,
  pool restarts, worker heartbeats — safe under concurrent workers;
- :mod:`repro.obs.service` — the live status/metrics HTTP service
  (``/status``, ``/metrics``, ``/events``) behind ``repro run
  --status-port`` and ``repro watch``;
- :mod:`repro.obs.profiling` — span-level cProfile/tracemalloc hotspot
  collection (``span(..., profile=...)`` or ``REPRO_PROFILE``).

Telemetry is **off by default** and free when off: the active registry
is a shared no-op unless ``REPRO_TELEMETRY=1`` is set or a caller
installs a real one (``scoped_registry(MetricsRegistry())`` or the CLI's
``--telemetry <dir>``).

See ``docs/OBSERVABILITY.md`` for metric/span naming and how to read
the run report.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

from repro.obs.export import (
    PROFILES_FILE,
    TELEMETRY_FILES,
    TRACE_FILE,
    from_jsonl,
    render_run_report,
    render_trace_tree,
    spans_from_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    write_telemetry,
)
from repro.obs.journal import (
    JOURNAL_FILE,
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    JournalSchemaError,
    get_journal,
    journal_emit,
    read_events,
    scoped_journal,
    set_journal,
    tail_events,
)
from repro.obs.provenance import (
    PROVENANCE_FILE,
    PROVENANCE_SCHEMA_VERSION,
    ProvenancePolicy,
    ProvenanceRecorder,
    ProvenanceSchemaError,
    VerdictRecord,
    audit_report,
    chain_outcome,
    diff_runs,
    group_chains,
    read_provenance,
    render_audit,
    render_diff,
    render_explain,
    write_provenance,
)
from repro.obs.service import (
    STATUS_SCHEMA_VERSION,
    StatusServer,
    build_status,
    render_status,
)
from repro.obs.profiling import (
    SpanProfile,
    drain_profiles,
    pending_profiles,
    profiles_from_jsonl,
    profiles_to_jsonl,
    render_profiles,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    get_registry,
    scoped_registry,
    set_registry,
    telemetry_enabled,
)
from repro.obs.tracing import (
    Span,
    SpanRecord,
    TraceContext,
    TraceNode,
    build_trace_tree,
    clear_spans,
    current_span_id,
    current_span_path,
    current_trace,
    drain_spans,
    new_run_id,
    new_span_id,
    new_trace_id,
    pending_spans,
    record_spans,
    scoped_trace,
    set_trace,
    span,
    start_trace,
    task_trace_payload,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "telemetry_enabled",
    "Span",
    "span",
    "current_span_path",
    "SpanRecord",
    "TraceContext",
    "TraceNode",
    "build_trace_tree",
    "clear_spans",
    "current_span_id",
    "current_trace",
    "drain_spans",
    "new_run_id",
    "new_span_id",
    "new_trace_id",
    "pending_spans",
    "record_spans",
    "scoped_trace",
    "set_trace",
    "start_trace",
    "task_trace_payload",
    "render_run_report",
    "render_trace_tree",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "from_jsonl",
    "to_prometheus",
    "write_telemetry",
    "TELEMETRY_FILES",
    "PROFILES_FILE",
    "TRACE_FILE",
    "JOURNAL_FILE",
    "JOURNAL_SCHEMA_VERSION",
    "JournalSchemaError",
    "EventJournal",
    "get_journal",
    "set_journal",
    "scoped_journal",
    "journal_emit",
    "read_events",
    "tail_events",
    "STATUS_SCHEMA_VERSION",
    "StatusServer",
    "build_status",
    "render_status",
    "PROVENANCE_FILE",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenancePolicy",
    "ProvenanceRecorder",
    "ProvenanceSchemaError",
    "VerdictRecord",
    "audit_report",
    "chain_outcome",
    "diff_runs",
    "group_chains",
    "read_provenance",
    "render_audit",
    "render_diff",
    "render_explain",
    "write_provenance",
    "SpanProfile",
    "drain_profiles",
    "pending_profiles",
    "profiles_to_jsonl",
    "profiles_from_jsonl",
    "render_profiles",
    "configure_logging",
    "LOG_FORMAT",
]

#: One consistent line format across every repro module.
LOG_FORMAT = "%(asctime)s %(levelname)-8s %(name)s: %(message)s"
LOG_DATE_FORMAT = "%Y-%m-%d %H:%M:%S"

_HANDLER_MARK = "_repro_obs_handler"


def configure_logging(
    level: int = logging.INFO, *, stream: Optional[TextIO] = None
) -> logging.Logger:
    """Attach one consistently formatted handler to the ``repro`` logger.

    Idempotent: calling it again only adjusts the level (and stream, if
    given), so libraries and the CLI can both call it safely.  Returns
    the package logger.  Logs go to ``stderr`` by default so they never
    corrupt report output on ``stdout``.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    for handler in logger.handlers:
        if getattr(handler, _HANDLER_MARK, False):
            if stream is not None:
                handler.setStream(stream)  # type: ignore[attr-defined]
            return logger
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, LOG_DATE_FORMAT))
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    logger.propagate = False
    return logger
