"""Lightweight span tracing for the 8-step funnel.

A *span* measures one named unit of work — a filter stage, a MapReduce
job, a detector step — as a context manager:

>>> from repro.obs import span
>>> with span("pipeline.run"):
...     with span("step1_global_whitelist"):
...         pass

Spans nest: the inner span above is recorded under the dotted path
``pipeline.run.step1_global_whitelist``, so the run report's latency
table shows both the whole and its parts.  Nesting is tracked per
thread; worker processes start their own stacks (a forked worker drops
the stack it inherited), so a dispatched task's spans record paths
rooted at ``task.reduce``, and their measurements flow
back through registry snapshots (see :mod:`repro.obs.registry`).

Each completed span observes its wall-clock duration into the current
registry's histogram ``span.<path>.seconds``.  With ``trace_memory=True``
(or ``REPRO_TELEMETRY_MEMORY=1``) the span also records the
:mod:`tracemalloc` peak during the block into ``span.<path>.peak_kb`` —
useful for sizing rescale/merge windows, but markedly slower, so it is
opt-in per span.

A span can also carry a *profiler*: ``span(..., profile="cprofile")``
(or ``"tracemalloc"``) attaches a hotspot collector for the duration of
the block, and the resulting top-N table is recorded into the
module-level profile store (see :mod:`repro.obs.profiling`) under the
span's dotted path.  Setting ``REPRO_PROFILE=cprofile|tracemalloc``
blanket-enables profiling on every span — cProfile cannot nest, so in
that mode only the outermost span of each thread collects.

Distributed tracing: when a :class:`TraceContext` is active (see
:func:`start_trace` / :func:`scoped_trace`) every completed span is also
captured as a :class:`SpanRecord` — span id, parent id, wall-clock start
and duration, pid — into a bounded buffer on the registry the span
recorded into, so a run's records leave with its telemetry and a run
nobody exports leaves nothing behind.  The MapReduce
engine ships each worker task's records back with its registry snapshot
and folds them in via :func:`record_spans`, so worker-side spans carry
parent links into the engine's span tree; :func:`build_trace_tree`
stitches the merged records into one tree per trace (orphans — children
of spans lost with a crashed worker — surface as extra roots instead of
disappearing).  ``repro trace`` renders the tree and exports Chrome
trace-event JSON (see :mod:`repro.obs.export`).

When telemetry is off (the NullRegistry is current) a span costs two
function calls and records nothing.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs import profiling
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "span",
    "current_span_path",
    "TraceContext",
    "SpanRecord",
    "TRACE_SPAN_LIMIT",
    "new_run_id",
    "new_trace_id",
    "new_span_id",
    "current_trace",
    "set_trace",
    "scoped_trace",
    "start_trace",
    "current_span_id",
    "task_trace_payload",
    "record_spans",
    "pending_spans",
    "drain_spans",
    "clear_spans",
    "build_trace_tree",
    "TraceNode",
]

_stack = threading.local()


def _path_stack() -> List[str]:
    stack = getattr(_stack, "names", None)
    if stack is None:
        stack = _stack.names = []
    return stack


def _id_stack() -> List[Optional[str]]:
    """Span ids parallel to :func:`_path_stack` (None when untraced)."""
    stack = getattr(_stack, "ids", None)
    if stack is None:
        stack = _stack.ids = []
    return stack


def _forget_inherited_spans() -> None:
    """Start a forked child with an empty span stack.

    The child never closes the spans its parent had open at fork time.
    Kept, they would parent every span a forked worker opens under the
    span that was open when its pool started, instead of under the
    ``parent_span_id`` shipped with each task.
    """
    _stack.names = []
    _stack.ids = []


os.register_at_fork(after_in_child=_forget_inherited_spans)


def current_span_path() -> str:
    """The dotted path of the innermost open span ('' outside any)."""
    return ".".join(_path_stack())


# -- trace context ----------------------------------------------------------


def new_run_id() -> str:
    """A short operator-facing run identifier (12 hex chars)."""
    return uuid.uuid4().hex[:12]


def new_trace_id() -> str:
    """A globally unique trace identifier."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A span identifier unique within its trace (16 hex chars)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """Identity one process/task traces under.

    ``parent_span_id`` links records started here under a span that is
    open in *another* process — this is the cross-worker propagation
    seam: the engine embeds ``(trace_id, parent_span_id)`` in each task
    payload and the worker installs it before running the task.
    """

    trace_id: str
    parent_span_id: Optional[str] = None
    run_id: Optional[str] = None

    def to_payload(self) -> Dict[str, Optional[str]]:
        """Picklable dict form for embedding in task payloads."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "run_id": self.run_id,
        }


_trace_local = threading.local()


def current_trace() -> Optional[TraceContext]:
    """The active trace context of this thread (None when untraced)."""
    return getattr(_trace_local, "context", None)


def set_trace(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``context`` as current; returns the previous one."""
    previous = current_trace()
    _trace_local.context = context
    return previous


class scoped_trace:
    """Context manager activating a trace context for a block.

    >>> with scoped_trace(TraceContext(trace_id=new_trace_id())):
    ...     pass  # spans in here are captured as SpanRecords
    """

    def __init__(self, context: Optional[TraceContext]) -> None:
        self._context = context
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        self._previous = set_trace(self._context)
        return self._context

    def __exit__(self, *_exc: Any) -> None:
        set_trace(self._previous)


def start_trace(
    run_id: Optional[str] = None, *, trace_id: Optional[str] = None
) -> TraceContext:
    """Install (and return) a fresh root trace context for this thread."""
    context = TraceContext(
        trace_id=trace_id if trace_id is not None else new_trace_id(),
        run_id=run_id,
    )
    set_trace(context)
    return context


def current_span_id() -> Optional[str]:
    """The innermost open span's id (falls back to the context's parent)."""
    for span_id in reversed(_id_stack()):
        if span_id is not None:
            return span_id
    context = current_trace()
    return context.parent_span_id if context is not None else None


def task_trace_payload() -> Optional[Dict[str, Optional[str]]]:
    """The trace payload a dispatched task should run under.

    Returns ``None`` when no trace is active; otherwise a picklable dict
    whose ``parent_span_id`` is the *currently open* span, so spans the
    task opens in its worker process come back parented here.
    """
    context = current_trace()
    if context is None:
        return None
    return TraceContext(
        trace_id=context.trace_id,
        parent_span_id=current_span_id(),
        run_id=context.run_id,
    ).to_payload()


# -- span records -----------------------------------------------------------

#: A registry keeps at most this many span records.
TRACE_SPAN_LIMIT = 20000

_records_lock = threading.Lock()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, as captured under an active trace context."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    path: str
    start: float  # wall clock (epoch seconds)
    seconds: float
    pid: int
    run_id: Optional[str] = None
    error: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "seconds": self.seconds,
            "pid": self.pid,
            "run_id": self.run_id,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            name=str(payload.get("name", "")),
            path=str(payload.get("path", "")),
            start=float(payload.get("start", 0.0)),
            seconds=float(payload.get("seconds", 0.0)),
            pid=int(payload.get("pid", 0)),
            run_id=payload.get("run_id"),
            error=bool(payload.get("error", False)),
        )


def _capture(record: SpanRecord, registry: MetricsRegistry) -> None:
    if not registry.enabled:
        return
    with _records_lock:
        if len(registry.span_records) < TRACE_SPAN_LIMIT:
            registry.span_records.append(record)


def record_spans(
    records: Iterable[Union[SpanRecord, Dict[str, Any]]],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold records shipped from another process into ``registry``.

    This is the merge half of cross-worker propagation: the engine calls
    it with the records each worker task drained before returning.
    ``registry`` defaults to the current one; a disabled registry keeps
    nothing.
    """
    target = registry if registry is not None else get_registry()
    for record in records:
        if isinstance(record, dict):
            record = SpanRecord.from_dict(record)
        _capture(record, target)


def pending_spans(
    registry: Optional[MetricsRegistry] = None,
) -> List[SpanRecord]:
    """The records ``registry`` (default: the current one) holds."""
    target = registry if registry is not None else get_registry()
    if not target.enabled:
        return []
    with _records_lock:
        return list(target.span_records)


def drain_spans(
    registry: Optional[MetricsRegistry] = None,
) -> List[SpanRecord]:
    """Return and clear the records of ``registry`` (default: current)."""
    target = registry if registry is not None else get_registry()
    if not target.enabled:
        return []
    with _records_lock:
        drained = list(target.span_records)
        target.span_records.clear()
    return drained


def clear_spans(registry: Optional[MetricsRegistry] = None) -> None:
    """Discard the records of ``registry`` (default: the current one)."""
    drain_spans(registry)


# -- trace tree -------------------------------------------------------------


class TraceNode:
    """One span in a stitched trace tree (children sorted by start)."""

    __slots__ = ("record", "children", "orphaned")

    def __init__(self, record: SpanRecord, *, orphaned: bool = False) -> None:
        self.record = record
        self.children: List["TraceNode"] = []
        self.orphaned = orphaned


def build_trace_tree(
    records: Iterable[SpanRecord],
) -> List[TraceNode]:
    """Stitch merged span records into root trace nodes.

    Records whose parent is missing — the parent span was lost with a
    crashed worker, or the records were truncated — become additional
    roots flagged ``orphaned=True`` rather than being dropped, so a
    partial trace still renders.  Roots and children are ordered by
    wall-clock start.
    """
    nodes: Dict[str, TraceNode] = {}
    ordered: List[TraceNode] = []
    for record in records:
        node = TraceNode(record)
        # Duplicate span ids (a record shipped twice) keep the first.
        if record.span_id in nodes:
            continue
        nodes[record.span_id] = node
        ordered.append(node)
    roots: List[TraceNode] = []
    for node in ordered:
        parent_id = node.record.parent_id
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            node.orphaned = True
            roots.append(node)
    for node in ordered:
        node.children.sort(key=lambda child: child.record.start)
    roots.sort(key=lambda root: root.record.start)
    return roots


def _memory_default() -> bool:
    return os.environ.get("REPRO_TELEMETRY_MEMORY", "").strip() not in (
        "", "0", "false",
    )


class Span:
    """One traced block; see module docstring.  Not reusable."""

    __slots__ = ("name", "path", "seconds", "peak_kb", "_registry",
                 "_memory", "_start", "_started_tracemalloc",
                 "_profile", "_collector", "span_id", "parent_id",
                 "_trace", "_wall_start")

    def __init__(
        self,
        name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace_memory: Optional[bool] = None,
        profile: Optional[Union[bool, str]] = None,
    ) -> None:
        self.name = name
        self.path = ""
        self.seconds = 0.0
        self.peak_kb: Optional[float] = None
        self._registry = registry
        self._memory = trace_memory
        self._start = 0.0
        self._started_tracemalloc = False
        self._profile = profile
        self._collector = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._trace: Optional[TraceContext] = None
        self._wall_start = 0.0

    def _profile_kind(self) -> Optional[str]:
        """Resolve the profiling kind: explicit argument beats the env.

        ``True`` means "the env kind, else cProfile"; ``False`` opts a
        span out even under blanket ``REPRO_PROFILE``.
        """
        if self._profile is False:
            return None
        if self._profile is True:
            return profiling.profile_mode() or "cprofile"
        if isinstance(self._profile, str):
            return self._profile
        return profiling.profile_mode()

    def __enter__(self) -> "Span":
        registry = self._registry if self._registry is not None else get_registry()
        self._registry = registry
        if not registry.enabled:
            return self
        stack = _path_stack()
        ids = _id_stack()
        context = current_trace()
        if context is not None:
            self.span_id = new_span_id()
            parent = next(
                (sid for sid in reversed(ids) if sid is not None), None
            )
            self.parent_id = (
                parent if parent is not None else context.parent_span_id
            )
            self._trace = context
            self._wall_start = time.time()
        stack.append(self.name)
        ids.append(self.span_id)
        self.path = ".".join(stack)
        memory = self._memory if self._memory is not None else _memory_default()
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracemalloc.reset_peak()
            self._memory = True
        kind = self._profile_kind()
        if kind is not None:
            self._collector = profiling.start_collector(kind)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        self.seconds = time.perf_counter() - self._start
        if self._collector is not None:
            hotspots = self._collector.stop()
            profiling.record_profile(
                profiling.SpanProfile(
                    path=self.path,
                    kind=self._collector.kind,
                    seconds=self.seconds,
                    hotspots=hotspots,
                )
            )
            self._collector = None
        if self._memory:
            _current, peak = tracemalloc.get_traced_memory()
            self.peak_kb = peak / 1024.0
            if self._started_tracemalloc:
                tracemalloc.stop()
            registry.histogram(f"span.{self.path}.peak_kb").observe(self.peak_kb)
        registry.histogram(f"span.{self.path}.seconds").observe(self.seconds)
        if self._trace is not None and self.span_id is not None:
            _capture(
                registry=registry,
                record=SpanRecord(
                    trace_id=self._trace.trace_id,
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                    name=self.name,
                    path=self.path,
                    start=self._wall_start,
                    seconds=self.seconds,
                    pid=os.getpid(),
                    run_id=self._trace.run_id,
                    error=bool(_exc and _exc[0] is not None),
                ),
            )
        stack = _path_stack()
        ids = _id_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
            if ids:
                ids.pop()


def span(
    name: str,
    *,
    registry: Optional[MetricsRegistry] = None,
    trace_memory: Optional[bool] = None,
    profile: Optional[Union[bool, str]] = None,
) -> Span:
    """Open a span named ``name`` on the current (or given) registry."""
    return Span(
        name, registry=registry, trace_memory=trace_memory, profile=profile
    )
