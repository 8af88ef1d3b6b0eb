"""Pipeline behaviour on prebuilt summaries and report surfaces."""

import pytest

from repro.core.timeseries import ActivitySummary
from repro.filtering import BaywatchPipeline, PipelineConfig


def beacon_summary(source, destination, period=120.0, count=100, urls=()):
    return ActivitySummary.from_timestamps(
        source, destination, [i * period for i in range(count)], urls=urls
    )


@pytest.fixture
def pipeline():
    return BaywatchPipeline(
        PipelineConfig(local_whitelist_threshold=0.5, ranking_percentile=0.0)
    )


class TestRunSummaries:
    def test_detects_prebuilt_beacon(self, pipeline):
        import numpy as np

        rng = np.random.default_rng(0)
        summaries = [
            beacon_summary("mac1", "xqzwvkpj.com"),
            ActivitySummary.from_timestamps(
                "mac2", "www.dailynews-site.com",
                sorted(rng.uniform(0, 86_400, size=100)),
            ),
        ]
        report = pipeline.run_summaries(summaries)
        detected = {c.destination for c in report.detected_cases}
        assert "xqzwvkpj.com" in detected
        assert "www.dailynews-site.com" not in detected

    def test_reported_destinations_deduped_in_order(self, pipeline):
        summaries = [
            beacon_summary("mac1", "xqzwvkpj.com"),
            beacon_summary("mac2", "xqzwvkpj.com"),
            beacon_summary("mac3", "qqwjzkvx.net", period=300.0),
        ]
        report = pipeline.run_summaries(summaries)
        dests = report.reported_destinations
        assert len(dests) == len(set(dests))
        assert set(dests) <= {"xqzwvkpj.com", "qqwjzkvx.net"}

    def test_same_destination_consolidated(self, pipeline):
        summaries = [
            beacon_summary("mac1", "xqzwvkpj.com", count=50),
            beacon_summary("mac2", "xqzwvkpj.com", count=200),
        ]
        report = pipeline.run_summaries(summaries)
        ranked = [c for c in report.ranked_cases
                  if c.destination == "xqzwvkpj.com"]
        assert len(ranked) == 1
        # The strongest case (more events) represents the destination.
        assert ranked[0].summary.event_count == 200

    def test_token_filter_uses_summary_urls(self, pipeline):
        summaries = [
            beacon_summary(
                "mac1", "updates-provider.com",
                urls=tuple(["/v1/update/check"] * 10),
            ),
        ]
        report = pipeline.run_summaries(summaries)
        assert report.detected_cases  # detection fires...
        assert report.ranked_cases == []  # ...but tokens suppress it

    def test_empty_summaries(self, pipeline):
        report = pipeline.run_summaries([])
        assert report.ranked_cases == []
        assert report.population_size == 0


class TestRunOptions:
    def test_rescale_merges_each_pair_in_time_order(self, pipeline):
        from repro.core.timeseries import merge, rescale
        from repro.filtering.pipeline import rescale_and_merge

        days = [
            ActivitySummary.from_timestamps(
                "mac1", "xqzwvkpj.com",
                [day * 86_400.0 + i * 120.0 for i in range(50)],
                urls=(f"/day{day}",),
            )
            for day in range(3)
        ]
        other = beacon_summary("mac0", "qqwjzkvx.net")
        merged = rescale_and_merge([days[2], other, days[0], days[1]], 60.0)
        assert merged == [
            rescale(other, 60.0), merge([rescale(s, 60.0) for s in days])
        ]
        assert merged[1].urls == ("/day0", "/day1", "/day2")
        report = pipeline.run_summaries(days[::-1], analysis_time_scale=60.0)
        [case] = report.detected_cases
        assert case.summary == merged[1]

    @pytest.mark.parametrize("value", [0.0, -5.0, 0.5, float("nan"),
                                       float("inf")])
    def test_analysis_time_scale_it_cannot_honour(self, pipeline, value):
        with pytest.raises(ValueError, match="analysis_time_scale"):
            pipeline.run_summaries([], analysis_time_scale=value)

    def test_sharding_keywords_need_an_engine(self, pipeline):
        with pytest.raises(ValueError, match="checkpoint_dir, shard_size"):
            pipeline.run_summaries([], shard_size=4, checkpoint_dir="x")
        with pytest.raises(ValueError, match="engine"):
            BaywatchPipeline(detection_job_factory=object)


class TestOperationsDefaults:
    def test_default_cadences_shape(self):
        from repro.operations import DEFAULT_CADENCES

        names = [c.name for c in DEFAULT_CADENCES]
        assert names == ["daily", "weekly", "monthly"]
        scales = [c.time_scale for c in DEFAULT_CADENCES]
        assert scales == sorted(scales), "coarser cadence, coarser scale"
        windows = [c.window_days for c in DEFAULT_CADENCES]
        assert windows == sorted(windows)


class TestScorerTraining:
    def _traced(self, summaries, monkeypatch, delay):
        import time

        from repro.filtering import pipeline as pipeline_module
        from repro.lm.domains import default_scorer
        from repro.obs import (
            MetricsRegistry,
            pending_spans,
            scoped_registry,
            scoped_trace,
            TraceContext,
        )

        trained = default_scorer()

        def cold_factory():
            time.sleep(delay)  # stands in for ~1 s of training
            return trained

        monkeypatch.setattr(pipeline_module, "default_scorer", cold_factory)
        registry = MetricsRegistry()
        with scoped_registry(registry), scoped_trace(TraceContext("t")):
            report = BaywatchPipeline(
                PipelineConfig(local_whitelist_threshold=0.5,
                               ranking_percentile=0.0)
            ).run_summaries(summaries)
        return report, pending_spans(registry)

    def test_training_has_its_own_span(self, monkeypatch):
        delay = 0.3
        report, records = self._traced(
            [beacon_summary("mac1", "xqzwvkpj.com")], monkeypatch, delay
        )
        assert report.detected_cases
        [training] = [r for r in records if r.name == "lm.train_scorer"]
        assert training.seconds >= delay
        [stage] = [r for r in records
                   if r.name == "step3_5_periodicity_detection"]
        assert training.parent_id == stage.span_id
        children = sum(r.seconds for r in records
                       if r.parent_id == stage.span_id)
        assert stage.seconds - children < delay

    def test_a_run_that_detects_nothing_trains_nothing(self, monkeypatch):
        import numpy as np

        rng = np.random.default_rng(0)
        noise = ActivitySummary.from_timestamps(
            "mac2", "www.dailynews-site.com",
            sorted(rng.uniform(0, 86_400, size=100)),
        )
        report, records = self._traced([noise], monkeypatch, 0.0)
        assert not report.detected_cases
        assert all(r.name != "lm.train_scorer" for r in records)
