"""Tests for the run-report, JSONL, and Prometheus exporters."""

import json
import logging

import pytest

from repro.obs import (
    TELEMETRY_FILES,
    MetricsRegistry,
    configure_logging,
    from_jsonl,
    render_run_report,
    to_jsonl,
    to_prometheus,
    write_telemetry,
)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("detector.threshold_cache.hits").inc(7)
    registry.counter("detector.threshold_cache.misses").inc(3)
    registry.gauge("pipeline.population_size").set(42)
    for value in (0.1, 0.2, 0.3):
        registry.histogram("span.pipeline.seconds").observe(value)
    registry.histogram("detector.detect.seconds").observe(0.05)
    return registry


FUNNEL = [
    ("1 global whitelist", 100, 60),
    ("2 local whitelist", 60, 20),
    ("8 weighted ranking", 20, 5),
]


class TestRunReport:
    def test_contains_funnel_rows(self, registry):
        text = render_run_report(registry, funnel=FUNNEL)
        assert "1 global whitelist" in text
        assert "100" in text and "60" in text
        assert "total reduction" in text
        assert "5.00%" in text  # 5 of 100 kept overall

    def test_contains_latency_and_counters(self, registry):
        text = render_run_report(registry, funnel=FUNNEL)
        assert "stage latency" in text
        assert "pipeline" in text
        assert "detector.threshold_cache.hits" in text
        assert "pipeline.population_size" in text
        assert "detector.detect.seconds" in text

    def test_empty_registry(self):
        text = render_run_report(MetricsRegistry())
        assert "no telemetry recorded" in text

    def test_summary_line_cache_hit_rate(self, registry):
        text = render_run_report(registry)
        assert "summary: threshold cache 70.0% hits (7/10)" in text

    def test_summary_line_mapreduce_retries(self):
        reg = MetricsRegistry()
        reg.counter("mapreduce.WordCount.input_records").inc(10)
        reg.counter("mapreduce.task_retries").inc(2)
        text = render_run_report(reg)
        assert "mapreduce task retries 2" in text

    def test_summary_line_zero_retries_still_shown(self):
        reg = MetricsRegistry()
        reg.counter("mapreduce.WordCount.input_records").inc(10)
        text = render_run_report(reg)
        assert "mapreduce task retries 0" in text

    def test_no_summary_line_without_relevant_counters(self):
        reg = MetricsRegistry()
        reg.counter("pipeline.runs").inc()
        assert "summary:" not in render_run_report(reg)

    def test_accepts_funnel_stats_object(self, registry):
        from repro.filtering.pipeline import FunnelStats

        funnel = FunnelStats()
        funnel.record("1 global whitelist", 10, 4)
        text = render_run_report(registry, funnel=funnel)
        assert "1 global whitelist" in text


class TestJsonl:
    def test_lines_are_valid_json(self, registry):
        lines = to_jsonl(registry, funnel=FUNNEL).splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {record["type"] for record in records}
        assert kinds == {"funnel_step", "counter", "gauge", "histogram"}

    def test_round_trip(self, registry):
        payload = to_jsonl(registry, funnel=FUNNEL)
        rebuilt, steps = from_jsonl(payload)
        assert steps == FUNNEL
        assert dict(rebuilt.counters()) == dict(registry.counters())
        assert dict(rebuilt.gauges()) == dict(registry.gauges())
        original = registry.histogram("span.pipeline.seconds")
        clone = rebuilt.histogram("span.pipeline.seconds")
        assert clone.count == original.count
        assert clone.total == pytest.approx(original.total)
        assert clone.quantile(0.5) == pytest.approx(original.quantile(0.5))


class TestPrometheus:
    def test_counter_and_summary_lines(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE repro_detector_threshold_cache_hits_total counter" in text
        assert "repro_detector_threshold_cache_hits_total 7" in text
        assert "repro_pipeline_population_size 42" in text
        assert 'repro_span_pipeline_seconds{quantile="0.5"}' in text
        assert "repro_span_pipeline_seconds_count 3" in text

    def test_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestWriteTelemetry:
    def test_writes_all_three_files(self, registry, tmp_path):
        target = tmp_path / "telemetry"
        written = write_telemetry(target, registry, funnel=FUNNEL)
        assert set(written) == set(TELEMETRY_FILES)
        for name in TELEMETRY_FILES:
            assert (target / name).stat().st_size > 0
        assert "1 global whitelist" in (target / "report.txt").read_text()


class TestConfigureLogging:
    def test_idempotent_single_handler(self):
        logger = configure_logging(logging.INFO)
        again = configure_logging(logging.DEBUG)
        assert logger is again
        marked = [
            handler for handler in logger.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert logger.level == logging.DEBUG

    def test_module_loggers_inherit(self):
        configure_logging(logging.INFO)
        child = logging.getLogger("repro.mapreduce.engine")
        assert child.getEffectiveLevel() == logging.INFO


class TestPrometheusFormat:
    """The exposition must survive promtool: HELP/TYPE and escaping."""

    def test_help_and_type_precede_every_metric(self, registry):
        text = to_prometheus(registry)
        lines = text.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0].split(" ")[0]
            base = name
            for suffix in ("_count", "_sum", "_total"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            header_names = {
                header.split()[2]
                for header in lines[:index]
                if header.startswith(("# HELP", "# TYPE"))
            }
            assert any(
                candidate in header_names for candidate in (name, base)
            ), f"sample line {line!r} has no preceding HELP/TYPE"

    def test_help_lines_for_each_kind(self, registry):
        text = to_prometheus(registry)
        assert "# HELP repro_detector_threshold_cache_hits_total" in text
        assert "# TYPE repro_pipeline_population_size gauge" in text
        assert "# HELP repro_pipeline_population_size" in text
        assert "# TYPE repro_span_pipeline_seconds summary" in text

    def test_label_escaping(self):
        from repro.obs.export import _prom_escape_help, _prom_escape_label

        assert _prom_escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert _prom_escape_help("line1\nline2\\x") == "line1\\nline2\\\\x"


class TestAtomicTelemetryWrites:
    def test_no_tmp_files_left_behind(self, registry, tmp_path):
        target = tmp_path / "telemetry"
        write_telemetry(target, registry, funnel=FUNNEL)
        assert not list(target.glob("*.tmp"))

    def test_rewrite_replaces_existing_files(self, registry, tmp_path):
        target = tmp_path / "telemetry"
        write_telemetry(target, registry, funnel=FUNNEL)
        first = (target / "metrics.jsonl").read_text()
        registry.counter("detector.threshold_cache.hits").inc()
        write_telemetry(target, registry, funnel=FUNNEL)
        assert (target / "metrics.jsonl").read_text() != first

    def test_trace_spans_drain_into_trace_jsonl(self, registry, tmp_path):
        from repro.obs import (
            TRACE_FILE,
            clear_spans,
            pending_spans,
            scoped_registry,
            span,
            spans_from_jsonl,
            start_trace,
            set_trace,
        )

        clear_spans()
        try:
            with scoped_registry(registry):
                start_trace("writeme")
                with span("traced"):
                    pass
            written = write_telemetry(tmp_path / "t", registry)
            assert TRACE_FILE in written
            records = spans_from_jsonl(written[TRACE_FILE].read_text())
            assert records[0].name == "traced"
            assert pending_spans(registry) == []  # drained, not copied
        finally:
            set_trace(None)
            clear_spans()
