"""Integration tests for the pipeline with detection on the engine."""

from repro.filtering import BaywatchPipeline
from repro.mapreduce import MapReduceEngine


def engine_pipeline(config):
    """The pipeline with detection on a serial engine."""
    return BaywatchPipeline(config, engine=MapReduceEngine())


class TestRunner:
    def test_finds_malicious(self, enterprise, pipeline_config):
        records, truth = enterprise
        report = engine_pipeline(pipeline_config).run_records(records)
        detected = {case.destination for case in report.detected_cases}
        assert truth.malicious_destinations <= detected

    def test_agrees_with_in_process_pipeline(self, enterprise, pipeline_config):
        records, _truth = enterprise
        engine_report = engine_pipeline(pipeline_config).run_records(records)
        pipeline_report = BaywatchPipeline(pipeline_config).run_records(records)
        assert {c.destination for c in engine_report.detected_cases} == {
            c.destination for c in pipeline_report.detected_cases
        }
        assert [c.destination for c in engine_report.ranked_cases] == [
            c.destination for c in pipeline_report.ranked_cases
        ]

    def test_rescaled_run_still_detects(self, enterprise, pipeline_config):
        """Coarse-granularity analysis (the long-window mode) still
        finds a 90 s beacon when analyzed at 30 s resolution."""
        records, truth = enterprise
        report = engine_pipeline(pipeline_config).run_records(
            records, analysis_time_scale=30.0
        )
        detected = {case.destination for case in report.detected_cases}
        assert truth.malicious_destinations <= detected
