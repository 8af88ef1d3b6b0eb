"""End-to-end telemetry tests over both detection executors.

A small synthetic enterprise trace runs through
:class:`BaywatchPipeline`, with detection in-process and on a
:class:`MapReduceEngine`, under a scoped registry; the resulting funnel
report must agree with the run's :class:`FunnelStats`, include
per-stage wall-clock timings, and carry the ThresholdCache hit/miss
counters.
"""

import logging

import pytest

from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.filtering.pipeline import FunnelStats
from repro.mapreduce.engine import MapReduceEngine
from repro.obs import (
    MetricsRegistry,
    drain_spans,
    get_registry,
    render_run_report,
    scoped_registry,
)
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec


@pytest.fixture(scope="module")
def records():
    config = EnterpriseConfig(
        n_hosts=12,
        n_sites=25,
        duration=86_400.0 / 8,
        implants=(ImplantSpec("zbot", "zeus", n_infected=1, period=120.0),),
        seed=5,
    )
    trace, _truth = EnterpriseSimulator(config).generate()
    return trace


CONFIG_KWARGS = dict(local_whitelist_threshold=0.2, ranking_percentile=0.5)


@pytest.fixture
def propagating_repro_logger():
    """Let ``repro`` records reach caplog's root handler even if
    ``configure_logging`` (which disables propagation) ran earlier."""
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous


class TestPipelineTelemetry:
    @pytest.fixture(scope="class")
    def run(self, records):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            report = BaywatchPipeline(
                PipelineConfig(**CONFIG_KWARGS)
            ).run_records(records)
        return registry, report

    def test_funnel_report_matches_funnel_stats(self, run):
        registry, report = run
        text = render_run_report(registry, funnel=report.funnel)
        for name, pairs_in, pairs_out in report.funnel.steps:
            row = next(
                line for line in text.splitlines() if line.startswith(name)
            )
            fields = row[len(name):].split()
            assert int(fields[0]) == pairs_in
            assert int(fields[1]) == pairs_out

    def test_every_stage_has_a_span(self, run):
        registry, _report = run
        names = {h.name for h in registry.histograms()}
        for stage in (
            "step1_global_whitelist",
            "step2_local_whitelist",
            "step3_5_periodicity_detection",
            "step6_token_filter",
            "step7_novelty_filter",
            "step8_weighted_ranking",
        ):
            assert f"span.pipeline.{stage}.seconds" in names

    def test_threshold_cache_counters_present(self, run):
        registry, _report = run
        counters = dict(registry.counters())
        hits = counters.get("detector.threshold_cache.hits", 0)
        misses = counters.get("detector.threshold_cache.misses", 0)
        assert hits + misses > 0
        assert counters["detector.pairs_total"] > 0

    def test_detector_counters_consistent_with_funnel(self, run):
        registry, report = run
        counters = dict(registry.counters())
        detection = next(
            (n_in, n_out)
            for name, n_in, n_out in report.funnel.steps
            if name.startswith("3-5")
        )
        assert counters["detector.pairs_total"] == detection[0]
        assert counters["detector.pairs_periodic"] == detection[1]


class TestRunnerTelemetry:
    @pytest.fixture(scope="class", params=[1, 2])
    def run(self, records, request):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            with MapReduceEngine(
                n_workers=request.param, min_parallel_records=16
            ) as engine:
                report = BaywatchPipeline(
                    PipelineConfig(**CONFIG_KWARGS), engine=engine
                ).run_records(records)
        # With telemetry on, an engine run traces itself; leave no span
        # records behind for later telemetry-export tests.
        drain_spans()
        return registry, report

    def test_funnel_report_matches_funnel_stats(self, run):
        registry, report = run
        text = render_run_report(registry, funnel=report.funnel)
        for name, pairs_in, pairs_out in report.funnel.steps:
            assert name in text
        assert "total reduction" in text

    def test_jobstats_surfaced_as_counters(self, run):
        registry, report = run
        counters = dict(registry.counters())
        assert counters["mapreduce.BeaconingDetectionJob.input_records"] > 0
        assert counters["mapreduce.BeaconingDetectionJob.output_records"] == (
            len(report.detected_cases)
        )
        assert counters["pipeline.runs"] == 1

    def test_worker_detector_metrics_merged_into_parent(self, run):
        # With n_workers=2 the detection job runs in worker processes;
        # their child registries must flow back through snapshots.
        registry, report = run
        counters = dict(registry.counters())
        assert counters["detector.pairs_total"] > 0
        assert counters["detector.pairs_periodic"] == len(report.detected_cases)

    def test_phase_spans_recorded(self, run):
        registry, _report = run
        names = {h.name for h in registry.histograms()}
        assert "span.records_to_summaries.seconds" in names
        for phase in (
            "local_whitelist_build",
            "step3_5_periodicity_detection.shard",
            "step8_weighted_ranking",
        ):
            assert f"span.run.{phase}.seconds" in names


class TestNoOpMode:
    def test_disabled_run_records_nothing(self, records):
        ambient = get_registry()
        report = BaywatchPipeline(
            PipelineConfig(**CONFIG_KWARGS)
        ).run_records(records)
        assert report.funnel.steps
        assert get_registry() is ambient
        if not ambient.enabled:
            assert ambient.is_empty()


class TestFunnelConsistency:
    def test_monotonic_funnel_passes(self):
        funnel = FunnelStats()
        funnel.record("1 a", 10, 5)
        funnel.record("2 b", 5, 2)
        assert funnel.validate() == []

    def test_step_emitting_more_than_input_flagged(
        self, caplog, propagating_repro_logger
    ):
        funnel = FunnelStats()
        funnel.record("1 a", 5, 9)
        with caplog.at_level(logging.WARNING, logger="repro"):
            problems = funnel.validate()
        assert len(problems) == 1
        assert "more pairs than it received" in problems[0]
        assert any("funnel inconsistency" in r.message for r in caplog.records)

    def test_step_input_exceeding_previous_output_flagged(self):
        funnel = FunnelStats()
        funnel.record("1 a", 10, 4)
        funnel.record("2 b", 7, 3)
        problems = funnel.validate()
        assert len(problems) == 1
        assert "previous step only emitted" in problems[0]

    def test_strict_mode_raises(self):
        funnel = FunnelStats()
        funnel.record("1 a", 5, 9)
        with pytest.raises(ValueError, match="not monotonic"):
            funnel.validate(strict=True)


class TestRetryLogging:
    def test_retried_failure_logged_at_warning(
        self, caplog, propagating_repro_logger
    ):
        from repro.mapreduce.job import MapReduceJob

        class FlakyOnce(MapReduceJob):
            n_partitions = 1
            attempts = 0

            def reduce(self, key, values):
                FlakyOnce.attempts += 1
                if FlakyOnce.attempts == 1:
                    raise RuntimeError("transient")
                yield key, sum(values)

        engine = MapReduceEngine(max_retries=1)
        with caplog.at_level(logging.WARNING, logger="repro"):
            output = engine.run(FlakyOnce(), [("k", 1), ("k", 2)])
        assert output == [("k", 3)]
        assert any(
            "attempt 1 of 2" in record.message for record in caplog.records
        )
