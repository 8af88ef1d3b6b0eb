"""Exporters: run report (text), JSON lines, Prometheus text format.

Three consumers, three formats:

- :func:`render_run_report` — the analyst-facing summary: the funnel
  table (the paper's Table 3 data-volume-reduction view), a stage
  latency table built from span histograms, and the raw counters and
  gauges (cache hit rates, MapReduce job stats, retry counts).
- :func:`to_jsonl` — one JSON object per line for machine consumption;
  :func:`from_jsonl` round-trips it (this is what ``repro stats``
  reads).
- :func:`to_prometheus` — Prometheus-style text exposition (counters as
  ``_total``, histograms as ``_count``/``_sum`` plus quantile samples)
  for scraping into an existing monitoring stack.

:func:`write_telemetry` writes all three into a directory —
``report.txt``, ``metrics.jsonl``, ``metrics.prom`` — each atomically
(tmp file + rename, the same discipline as checkpoint shards) so a
killed run never leaves a truncated telemetry file behind.  When
distributed tracing collected span records (see
:mod:`repro.obs.tracing`) they are drained into ``trace.jsonl``
alongside; ``repro trace`` renders them (:func:`render_trace_tree`) or
exports Chrome trace-event JSON (:func:`to_chrome_trace`,
Perfetto/chrome://tracing loadable).
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import profiling
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    SpanRecord,
    TraceNode,
    build_trace_tree,
    drain_spans,
)

__all__ = [
    "render_run_report",
    "to_jsonl",
    "from_jsonl",
    "to_prometheus",
    "write_telemetry",
    "TELEMETRY_FILES",
    "PROFILES_FILE",
    "TRACE_FILE",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "render_trace_tree",
    "to_chrome_trace",
]

#: Files produced by :func:`write_telemetry` in the target directory.
TELEMETRY_FILES = ("report.txt", "metrics.jsonl", "metrics.prom")

#: Span-profile hotspots (written only when profiling collected any).
PROFILES_FILE = "profiles.jsonl"

#: Distributed-trace span records (written only when tracing collected any).
TRACE_FILE = "trace.jsonl"

#: A funnel is a FunnelStats-like object (with ``.steps``) or the raw
#: list of (step_name, pairs_in, pairs_out) triples.
FunnelLike = Union[Any, Sequence[Tuple[str, int, int]]]

_SPAN_SECONDS = re.compile(r"^span\.(?P<path>.+)\.seconds$")


def _funnel_steps(funnel: Optional[FunnelLike]) -> List[Tuple[str, int, int]]:
    if funnel is None:
        return []
    steps = getattr(funnel, "steps", funnel)
    return [(str(name), int(n_in), int(n_out)) for name, n_in, n_out in steps]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:9.3f}s"
    return f"{seconds * 1e3:8.2f}ms"


# -- human-readable run report ---------------------------------------------


def _summary_line(registry: MetricsRegistry) -> Optional[str]:
    """One glanceable health line: cache effectiveness and retries.

    The raw counters are further down the report; the two an operator
    actually scans for — is the ThresholdCache pulling its weight, and
    did any MapReduce tasks need retrying — get surfaced up top.
    """
    counters = dict(registry.counters())
    parts: List[str] = []
    hits = counters.get("detector.threshold_cache.hits", 0)
    misses = counters.get("detector.threshold_cache.misses", 0)
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        parts.append(
            f"threshold cache {rate:.1f}% hits ({hits}/{hits + misses})"
        )
    if any(name.startswith("mapreduce.") for name in counters):
        retries = counters.get("mapreduce.task_retries", 0)
        parts.append(f"mapreduce task retries {retries}")
        restarts = counters.get("mapreduce.pool_restarts", 0)
        if restarts:
            parts.append(f"pool restarts {restarts}")
        quarantined = counters.get("mapreduce.tasks_quarantined", 0)
        if quarantined:
            parts.append(f"tasks quarantined {quarantined}")
        resumed = counters.get("mapreduce.shards_resumed", 0)
        if resumed:
            parts.append(f"shards resumed {resumed}")
    if not parts:
        return None
    return "summary: " + "; ".join(parts)


def render_run_report(
    registry: MetricsRegistry,
    *,
    funnel: Optional[FunnelLike] = None,
    title: str = "BAYWATCH run report",
) -> str:
    """The analyst-facing text report (funnel + latency + counters)."""
    lines: List[str] = [f"== {title} =="]

    summary = _summary_line(registry)
    if summary is not None:
        lines.append(summary)

    steps = _funnel_steps(funnel)
    if steps:
        lines.append("")
        lines.append("-- funnel: data volume reduction (Table 3 view) --")
        lines.append(f"{'step':34s} {'in':>10s} {'out':>10s} {'kept':>7s}")
        for name, n_in, n_out in steps:
            kept = f"{100.0 * n_out / n_in:6.2f}%" if n_in else "     -"
            lines.append(f"{name:34s} {n_in:>10d} {n_out:>10d} {kept:>7s}")
        first_in = steps[0][1]
        last_out = steps[-1][2]
        if first_in:
            lines.append(
                f"{'total reduction':34s} {first_in:>10d} {last_out:>10d} "
                f"{100.0 * last_out / first_in:6.2f}%"
            )

    latency_rows = []
    other_histograms = []
    for histogram in registry.histograms():
        match = _SPAN_SECONDS.match(histogram.name)
        if match:
            latency_rows.append((match.group("path"), histogram))
        else:
            other_histograms.append(histogram)

    if latency_rows:
        lines.append("")
        lines.append("-- stage latency (wall clock) --")
        lines.append(
            f"{'span':44s} {'calls':>6s} {'total':>10s} {'mean':>10s} "
            f"{'p50':>10s} {'p95':>10s} {'p99':>10s}"
        )
        for path, h in latency_rows:
            q = h.percentiles()
            lines.append(
                f"{path:44s} {h.count:>6d} {_fmt_seconds(h.total):>10s} "
                f"{_fmt_seconds(h.mean):>10s} {_fmt_seconds(q['p50']):>10s} "
                f"{_fmt_seconds(q['p95']):>10s} {_fmt_seconds(q['p99']):>10s}"
            )

    counters = list(registry.counters())
    if counters:
        lines.append("")
        lines.append("-- counters --")
        for name, value in counters:
            lines.append(f"{name:58s} {value:>12d}")

    gauges = list(registry.gauges())
    if gauges:
        lines.append("")
        lines.append("-- gauges --")
        for name, value in gauges:
            lines.append(f"{name:58s} {value:>12g}")

    if other_histograms:
        lines.append("")
        lines.append("-- distributions --")
        lines.append(
            f"{'histogram':44s} {'count':>6s} {'mean':>10s} {'p50':>10s} "
            f"{'p95':>10s} {'p99':>10s} {'max':>10s}"
        )
        for h in other_histograms:
            q = h.percentiles()
            maximum = h.max if h.count else 0.0
            lines.append(
                f"{h.name:44s} {h.count:>6d} {h.mean:>10.3f} "
                f"{q['p50']:>10.3f} {q['p95']:>10.3f} {q['p99']:>10.3f} "
                f"{maximum:>10.3f}"
            )

    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines) + "\n"


# -- JSON lines -------------------------------------------------------------


def to_jsonl(
    registry: MetricsRegistry, *, funnel: Optional[FunnelLike] = None
) -> str:
    """One JSON object per metric (and per funnel step), one per line."""
    records: List[Dict[str, Any]] = []
    for index, (name, n_in, n_out) in enumerate(_funnel_steps(funnel)):
        records.append(
            {
                "type": "funnel_step",
                "index": index,
                "step": name,
                "pairs_in": n_in,
                "pairs_out": n_out,
            }
        )
    for name, value in registry.counters():
        records.append({"type": "counter", "name": name, "value": value})
    for name, value in registry.gauges():
        records.append({"type": "gauge", "name": name, "value": value})
    for h in registry.histograms():
        records.append(
            {
                "type": "histogram",
                "name": h.name,
                "count": h.count,
                "total": h.total,
                "min": h.min if h.count else None,
                "max": h.max if h.count else None,
                "mean": h.mean,
                **h.percentiles(),
                "samples": list(h.samples),
            }
        )
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def from_jsonl(
    text: str,
) -> Tuple[MetricsRegistry, List[Tuple[str, int, int]]]:
    """Rebuild a registry (and funnel steps) from :func:`to_jsonl` output."""
    registry = MetricsRegistry()
    steps: List[Tuple[int, str, int, int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "counter":
            registry.counter(record["name"]).inc(record["value"])
        elif kind == "gauge":
            registry.gauge(record["name"]).set(record["value"])
        elif kind == "histogram":
            histogram = registry.histogram(record["name"])
            histogram.count = record["count"]
            histogram.total = record["total"]
            histogram.min = (
                record["min"] if record["min"] is not None else math.inf
            )
            histogram.max = (
                record["max"] if record["max"] is not None else -math.inf
            )
            histogram.samples = [float(v) for v in record.get("samples", [])]
        elif kind == "funnel_step":
            steps.append(
                (
                    int(record.get("index", len(steps))),
                    record["step"],
                    record["pairs_in"],
                    record["pairs_out"],
                )
            )
    steps.sort()
    return registry, [(name, n_in, n_out) for _i, name, n_in, n_out in steps]


# -- Prometheus text format -------------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _prom_escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of the registry.

    Emits ``# HELP`` and ``# TYPE`` headers for every metric and escapes
    label values, so the output passes promtool-style parsing; the HELP
    string carries the original dotted metric name, which survives the
    underscore mangling and keeps the exposition greppable.
    """
    lines: List[str] = []
    for name, value in registry.counters():
        prom = _prom_name(name)
        lines.append(f"# HELP {prom}_total "
                     f"{_prom_escape_help(f'repro counter {name}')}")
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {value}")
    for name, value in registry.gauges():
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} "
                     f"{_prom_escape_help(f'repro gauge {name}')}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for h in registry.histograms():
        prom = _prom_name(h.name)
        lines.append(f"# HELP {prom} "
                     f"{_prom_escape_help(f'repro histogram {h.name}')}")
        lines.append(f"# TYPE {prom} summary")
        for quantile, value in (
            ("0.5", h.quantile(0.5)),
            ("0.95", h.quantile(0.95)),
            ("0.99", h.quantile(0.99)),
        ):
            lines.append(
                f'{prom}{{quantile="{_prom_escape_label(quantile)}"}} {value}'
            )
        lines.append(f"{prom}_sum {h.total}")
        lines.append(f"{prom}_count {h.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- distributed traces -----------------------------------------------------


def spans_to_jsonl(records: Iterable[SpanRecord]) -> str:
    """One JSON object per span record, one per line."""
    return "".join(
        json.dumps(record.to_dict(), sort_keys=True) + "\n"
        for record in records
    )


def spans_from_jsonl(text: str) -> List[SpanRecord]:
    """Inverse of :func:`spans_to_jsonl` (skips undecodable lines)."""
    records: List[SpanRecord] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "span_id" in payload:
            records.append(SpanRecord.from_dict(payload))
    return records


def _render_node(
    node: TraceNode, lines: List[str], prefix: str, last: bool, root: bool
) -> None:
    record = node.record
    if root:
        connector, child_prefix = "", ""
    else:
        connector = "└─ " if last else "├─ "
        child_prefix = prefix + ("   " if last else "│  ")
    marker = " (orphaned)" if node.orphaned else ""
    error = " !" if record.error else ""
    label = f"{prefix}{connector}{record.name}{marker}{error}"
    lines.append(
        f"{label:56s} {_fmt_seconds(record.seconds):>10s}  pid {record.pid}"
    )
    for index, child in enumerate(node.children):
        _render_node(
            child, lines, child_prefix if not root else "",
            index == len(node.children) - 1, False,
        )


def render_trace_tree(records: Iterable[SpanRecord]) -> str:
    """ASCII rendering of the stitched trace tree(s).

    One header per trace id, then the span tree with durations and the
    pid each span ran in — worker-side spans show their worker pids
    under the engine's spans.  Orphaned subtrees (parent span lost with
    a crashed worker) are flagged rather than hidden.
    """
    records = list(records)
    if not records:
        return "(no trace recorded)\n"
    by_trace: Dict[str, List[SpanRecord]] = {}
    for record in records:
        by_trace.setdefault(record.trace_id, []).append(record)
    lines: List[str] = []
    for trace_id in sorted(
        by_trace, key=lambda t: min(r.start for r in by_trace[t])
    ):
        group = by_trace[trace_id]
        run_id = next((r.run_id for r in group if r.run_id), None)
        pids = sorted({r.pid for r in group})
        header = f"trace {trace_id[:16]}"
        if run_id:
            header += f"  run {run_id}"
        header += f"  ({len(group)} spans, {len(pids)} process"
        header += "es)" if len(pids) != 1 else ")"
        lines.append(header)
        for root in build_trace_tree(group):
            _render_node(root, lines, "", True, True)
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def to_chrome_trace(records: Iterable[SpanRecord]) -> str:
    """Chrome trace-event JSON (Perfetto / chrome://tracing loadable).

    Each span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps; pid/tid are the recording process, so the
    timeline groups engine and worker spans by process.
    """
    events: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: r.start):
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.seconds * 1e6,
                "pid": record.pid,
                "tid": record.pid,
                "args": {
                    "path": record.path,
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    "trace_id": record.trace_id,
                    "run_id": record.run_id,
                    "error": record.error,
                },
            }
        )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, sort_keys=True
    )


# -- one-stop writer --------------------------------------------------------


def write_telemetry(
    directory: Union[str, Path],
    registry: MetricsRegistry,
    *,
    funnel: Optional[FunnelLike] = None,
    title: str = "BAYWATCH run report",
) -> Dict[str, Path]:
    """Write report.txt / metrics.jsonl / metrics.prom into ``directory``.

    When span profiling collected hotspots during the run (``profile=``
    spans or ``REPRO_PROFILE``), they are drained into ``profiles.jsonl``
    alongside — ``repro stats --profile`` renders them.  When
    distributed tracing collected span records (a trace context was
    active, see :mod:`repro.obs.tracing`), they are drained into
    ``trace.jsonl`` — ``repro trace`` renders them.  Every file is
    written atomically (tmp + rename, the checkpoint-shard discipline)
    so a kill mid-write never leaves truncated telemetry.  Creates the
    directory if needed; returns the written paths keyed by file name.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    outputs = {
        "report.txt": render_run_report(registry, funnel=funnel, title=title),
        "metrics.jsonl": to_jsonl(registry, funnel=funnel),
        "metrics.prom": to_prometheus(registry),
    }
    profiles = profiling.drain_profiles()
    if profiles:
        outputs[PROFILES_FILE] = profiling.profiles_to_jsonl(profiles)
    spans = drain_spans(registry)
    if spans:
        outputs[TRACE_FILE] = spans_to_jsonl(spans)
    written: Dict[str, Path] = {}
    for name, payload in outputs.items():
        path = target / name
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        written[name] = path
    return written
