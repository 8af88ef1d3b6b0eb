"""Edge-path tests for the pipeline with detection on the engine."""

import pytest

from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.mapreduce import MapReduceEngine
from repro.synthetic import ProxyLogRecord


@pytest.fixture
def runner():
    return BaywatchPipeline(
        PipelineConfig(local_whitelist_threshold=0.2, ranking_percentile=0.0),
        engine=MapReduceEngine(),
    )


class TestRunnerEdges:
    def test_empty_records(self, runner):
        report = runner.run_records([])
        assert report.ranked_cases == []
        assert report.detected_cases == []
        assert report.population_size == 0

    def test_single_pair_non_periodic(self, runner, rng):
        timestamps = sorted(rng.uniform(0, 86_400, size=50))
        records = [
            ProxyLogRecord(float(t), "mac1", "10.0.0.1", "rand.com", "/x")
            for t in timestamps
        ]
        report = runner.run_records(records)
        assert report.detected_cases == []

    def test_all_whitelisted(self, runner):
        records = [
            ProxyLogRecord(float(i * 60), "mac1", "10.0.0.1", "google.com", "/")
            for i in range(50)
        ]
        report = runner.run_records(records)
        assert report.detected_cases == []
        # Funnel records the global-whitelist drop.
        step = dict(
            (name, (i, o)) for name, i, o in report.funnel.steps
        )["1 global whitelist"]
        assert step == (1, 0)

    def test_novelty_across_runs(self, rng):
        from repro.filtering import NoveltyStore

        records = [
            ProxyLogRecord(float(i * 60), "mac1", "10.0.0.1",
                           "xqzwvkpj.com", "/gate.php")
            for i in range(200)
        ]
        novelty = NoveltyStore()
        config = PipelineConfig(
            local_whitelist_threshold=0.2, ranking_percentile=0.0
        )
        first = BaywatchPipeline(
            config, engine=MapReduceEngine(), novelty=novelty
        ).run_records(records)
        second = BaywatchPipeline(
            config, engine=MapReduceEngine(), novelty=novelty
        ).run_records(records)
        assert len(first.ranked_cases) == 1
        assert second.ranked_cases == []
