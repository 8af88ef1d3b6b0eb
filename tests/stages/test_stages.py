"""Unit tests for the shared stage graph (repro.stages)."""

import pytest

from repro.core.timeseries import ActivitySummary
from repro.filtering import GlobalWhitelist, PipelineConfig
from repro.filtering.pipeline import FunnelStats
from repro.obs import MetricsRegistry, scoped_registry
from repro.stages import (
    GlobalWhitelistStage,
    LocalWhitelistStage,
    MinEventsStage,
    PeriodicityDetectionStage,
    PopularityIndex,
    Stage,
    StageContext,
    build_report,
    default_stages,
    run_stages,
)


def summary(source, destination, n_events=12, period=60.0):
    return ActivitySummary.from_timestamps(
        source, destination, [i * period for i in range(n_events)]
    )


def make_context(**overrides):
    defaults = dict(config=PipelineConfig())
    defaults.update(overrides)
    return StageContext(**defaults)


class TestPopularityIndex:
    def test_from_summaries_counts_distinct_sources(self):
        summaries = [
            summary("h1", "a.net"),
            summary("h1", "a.net"),  # duplicate pair: still one source
            summary("h2", "a.net"),
            summary("h2", "b.net"),
            summary("h3", "c.net"),
        ]
        index = PopularityIndex.from_summaries(summaries)
        assert index.population == 3
        assert index.similar_sources("a.net") == 2
        assert index.ratio("a.net") == pytest.approx(2 / 3)
        assert index.ratio("unseen.net") == 0.0

    def test_empty_population_has_zero_ratios(self):
        index = PopularityIndex.from_summaries([])
        assert index.population == 0
        assert index.ratio("x") == 0.0

    def test_whitelisting_needs_min_sources_and_threshold(self):
        index = PopularityIndex.from_counts(
            {"popular.net": 3, "rare.net": 1}, population=4
        )
        assert index.is_whitelisted("popular.net", 0.5)
        assert not index.is_whitelisted("popular.net", 0.9)  # below tau_p
        assert not index.is_whitelisted("rare.net", 0.0)  # too few sources


class TestRunStages:
    def test_records_funnel_rows_and_counters(self):
        class DropOdd(Stage):
            name = "drop odd"
            span_name = "drop_odd"

            def apply(self, context, items):
                return [x for x in items if x % 2 == 0]

        context = make_context()
        registry = MetricsRegistry()
        with scoped_registry(registry):
            out = run_stages(context, [DropOdd()], [1, 2, 3, 4])
        assert out == [2, 4]
        assert context.funnel.steps == [("drop odd", 4, 2)]
        counters = dict(registry.counters())
        assert counters["stage.drop_odd.pairs_in"] == 4
        assert counters["stage.drop_odd.pairs_out"] == 2
        names = {h.name for h in registry.histograms()}
        assert "span.drop_odd.seconds" in names

    def test_default_stage_order_matches_funnel(self):
        detection = PeriodicityDetectionStage(lambda context, items: ([], []))
        names = [stage.name for stage in default_stages(detection)]
        assert names == [
            "1 global whitelist",
            "2 local whitelist",
            "  (min events)",
            "3-5 periodicity detection",
            "6 token filter",
            "7 novelty filter",
            "8 weighted ranking",
        ]

    def test_base_stage_apply_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage().apply(make_context(), [])


class TestIndividualStages:
    def test_global_whitelist_stage_drops_listed_destinations(self):
        context = make_context(
            global_whitelist=GlobalWhitelist(domains=("cdn.example.com",))
        )
        kept = GlobalWhitelistStage().apply(
            context, [summary("h1", "cdn.example.com"), summary("h1", "c2.net")]
        )
        assert [s.destination for s in kept] == ["c2.net"]

    def test_local_whitelist_stage_uses_context_popularity(self):
        context = make_context(
            config=PipelineConfig(local_whitelist_threshold=0.5),
            popularity=PopularityIndex.from_counts(
                {"everyone.net": 4, "rare.net": 1}, population=4
            ),
        )
        kept = LocalWhitelistStage().apply(
            context,
            [summary("h1", "everyone.net"), summary("h1", "rare.net")],
        )
        assert [s.destination for s in kept] == ["rare.net"]

    def test_min_events_stage_enforces_config(self):
        context = make_context(config=PipelineConfig(min_events=10))
        kept = MinEventsStage().apply(
            context,
            [summary("h1", "a.net", n_events=4),
             summary("h1", "b.net", n_events=12)],
        )
        assert [s.destination for s in kept] == ["b.net"]

    def test_detection_stage_publishes_cases_and_quarantine(self):
        sentinel = object()

        def executor(context, summaries):
            return [], [sentinel]

        context = make_context()
        out = PeriodicityDetectionStage(executor).apply(
            context, [summary("h1", "a.net")]
        )
        assert out == []
        assert context.detected == []
        assert context.quarantined == [sentinel]


class TestBuildReport:
    def test_report_carries_context_state(self):
        context = make_context(
            popularity=PopularityIndex.from_counts({}, population=7),
        )
        context.funnel = FunnelStats()
        context.funnel.record("1 global whitelist", 3, 3)
        report = build_report(context, [])
        assert report.population_size == 7
        assert report.ranked_cases == []
        assert report.funnel.steps == [("1 global whitelist", 3, 3)]
        assert report.quarantined == []
