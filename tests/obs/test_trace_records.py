"""Distributed tracing: contexts, span records, tree stitching, export."""

import json
import os

import pytest

from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    SpanRecord,
    TraceContext,
    build_trace_tree,
    clear_spans,
    current_span_id,
    current_trace,
    drain_spans,
    new_run_id,
    new_span_id,
    new_trace_id,
    pending_spans,
    record_spans,
    render_trace_tree,
    scoped_registry,
    scoped_trace,
    set_trace,
    span,
    spans_from_jsonl,
    spans_to_jsonl,
    start_trace,
    task_trace_payload,
    to_chrome_trace,
)


@pytest.fixture(autouse=True)
def _clean_trace_state():
    clear_spans()
    set_trace(None)
    yield
    clear_spans()
    set_trace(None)


class TestTraceContext:
    def test_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()
        assert new_span_id() != new_span_id()
        assert len(new_run_id()) == 12

    def test_start_trace_installs_context(self):
        context = start_trace("run42")
        assert current_trace() is context
        assert context.run_id == "run42"
        assert context.parent_span_id is None

    def test_scoped_trace_restores_previous(self):
        outer = start_trace("outer")
        with scoped_trace(TraceContext(trace_id="t2")) as inner:
            assert current_trace() is inner
        assert current_trace() is outer

    def test_payload_roundtrips_through_pickleable_dict(self):
        context = TraceContext(
            trace_id="t1", parent_span_id="p1", run_id="r1"
        )
        payload = context.to_payload()
        assert TraceContext(**payload) == context

    def test_task_payload_none_without_trace(self):
        assert task_trace_payload() is None

    def test_task_payload_parents_under_open_span(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            start_trace("run")
            with span("engine") as open_span:
                payload = task_trace_payload()
                assert payload["parent_span_id"] == open_span.span_id
                assert payload["trace_id"] == current_trace().trace_id


class TestSpanCapture:
    def test_traced_spans_record_parent_links(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            start_trace("run")
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        records = {record.name: record for record in pending_spans(registry)}
        assert records["inner"].parent_id == outer.span_id
        assert records["outer"].parent_id is None
        assert records["inner"].span_id == inner.span_id
        assert records["inner"].pid == os.getpid()
        assert records["inner"].run_id == "run"

    def test_worker_side_root_parents_under_payload(self):
        """A span opened under a shipped context links across processes."""
        registry = MetricsRegistry()
        with scoped_registry(registry):
            start_trace("run")
            with span("engine"):
                payload = task_trace_payload()
        # Simulate the worker: fresh thread state, installed payload.
        worker = MetricsRegistry()
        with scoped_registry(worker):
            with scoped_trace(TraceContext(**payload)):
                with span("task.reduce"):
                    pass
        (record,) = drain_spans(worker)
        assert record.parent_id == payload["parent_span_id"]
        assert record.trace_id == payload["trace_id"]

    def test_no_records_without_trace(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            with span("untraced"):
                pass
        assert pending_spans(registry) == []

    def test_no_records_when_registry_disabled(self):
        start_trace("run")
        with scoped_registry(NullRegistry()):
            with span("off"):
                pass
        assert pending_spans() == []

    def test_error_flag_set_on_exception(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            start_trace("run")
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
        (record,) = pending_spans(registry)
        assert record.error is True

    def test_drain_clears_buffer(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            start_trace("run")
            with span("a"):
                pass
            assert len(drain_spans()) == 1
            assert pending_spans() == []

    def test_record_spans_accepts_dicts(self):
        record = SpanRecord(
            trace_id="t", span_id="s", parent_id=None, name="n",
            path="n", start=1.0, seconds=0.5, pid=123,
        )
        registry = MetricsRegistry()
        record_spans([record.to_dict()], registry)
        assert pending_spans(registry) == [record]
        record_spans([record.to_dict()], NullRegistry())  # keeps nothing

    def test_records_belong_to_the_registry_they_were_traced_into(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        start_trace("run")
        for registry, name in ((first, "one"), (second, "two")):
            with scoped_registry(registry):
                with span(name):
                    pass
        assert [r.name for r in pending_spans(first)] == ["one"]
        assert [r.name for r in drain_spans(second)] == ["two"]
        assert [r.name for r in pending_spans(first)] == ["one"]


def _record(span_id, parent_id, name, start=0.0, **kwargs):
    return SpanRecord(
        trace_id=kwargs.pop("trace_id", "t"),
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        path=name,
        start=start,
        seconds=kwargs.pop("seconds", 0.1),
        pid=kwargs.pop("pid", 1),
        **kwargs,
    )


class TestTraceTree:
    def test_single_tree(self):
        records = [
            _record("root", None, "run", start=0.0),
            _record("a", "root", "detect", start=1.0),
            _record("b", "root", "rank", start=2.0),
            _record("c", "a", "task", start=1.5),
        ]
        roots = build_trace_tree(records)
        assert len(roots) == 1
        root = roots[0]
        assert [child.record.name for child in root.children] == [
            "detect", "rank",
        ]
        assert root.children[0].children[0].record.name == "task"

    def test_missing_parent_becomes_orphan_root(self):
        """Spans whose parent died with a crashed worker still render."""
        records = [
            _record("root", None, "run"),
            _record("lost", "vanished-with-worker", "task.reduce"),
        ]
        roots = build_trace_tree(records)
        assert len(roots) == 2
        orphan = [node for node in roots if node.record.span_id == "lost"][0]
        assert orphan.orphaned is True
        assert [n for n in roots if n.record.span_id == "root"][0].orphaned \
            is False

    def test_duplicate_span_ids_keep_first(self):
        records = [
            _record("root", None, "run", seconds=1.0),
            _record("root", None, "run", seconds=9.0),
        ]
        roots = build_trace_tree(records)
        assert len(roots) == 1
        assert roots[0].record.seconds == 1.0

    def test_children_sorted_by_start(self):
        records = [
            _record("root", None, "run"),
            _record("late", "root", "second", start=5.0),
            _record("early", "root", "first", start=1.0),
        ]
        (root,) = build_trace_tree(records)
        assert [child.record.name for child in root.children] == [
            "first", "second",
        ]


class TestTraceExport:
    def test_render_tree_shows_header_names_and_orphans(self):
        records = [
            _record("root", None, "run", run_id="myrun", pid=10),
            _record("a", "root", "detect", start=1.0, pid=20),
            _record("lost", "gone", "task.reduce", start=2.0, pid=30),
        ]
        text = render_trace_tree(records)
        assert "myrun" in text
        assert "run" in text and "detect" in text
        assert "(orphaned)" in text
        assert "3 processes" in text or "pid" in text

    def test_render_empty_is_a_note(self):
        assert render_trace_tree([]).strip() != ""

    def test_jsonl_roundtrip(self):
        records = [
            _record("root", None, "run"),
            _record("a", "root", "detect", start=1.0),
        ]
        assert spans_from_jsonl(spans_to_jsonl(records)) == records

    def test_jsonl_skips_garbage_lines(self):
        text = spans_to_jsonl([_record("root", None, "run")]) + "garbage\n"
        assert len(spans_from_jsonl(text)) == 1

    def test_chrome_trace_is_loadable_complete_events(self):
        records = [
            _record("root", None, "run", start=10.0, seconds=2.0),
            _record("a", "root", "detect", start=10.5, seconds=0.25, pid=2),
        ]
        payload = json.loads(to_chrome_trace(records))
        events = payload["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        detect = [e for e in events if e["name"] == "detect"][0]
        assert detect["dur"] == pytest.approx(0.25 * 1e6)
        assert detect["pid"] == 2
        assert detect["args"]["parent_id"] == "root"
