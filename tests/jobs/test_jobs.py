"""Tests for the periodicity-detection MapReduce job (Section VII-D)."""

import pytest

from repro.core.timeseries import ActivitySummary
from repro.jobs import BeaconingDetectionJob
from repro.jobs.records import DetectionCase
from repro.mapreduce import MapReduceEngine


@pytest.fixture
def engine():
    return MapReduceEngine()


class TestDetectionJob:
    def test_detects_beacon(self, engine):
        summary = ActivitySummary.from_timestamps(
            "m", "evil.com", [i * 60.0 for i in range(200)]
        )
        output = engine.run(
            BeaconingDetectionJob(), [(summary.pair, summary)]
        )
        assert len(output) == 1
        _pair, case = output[0]
        assert isinstance(case, DetectionCase)
        assert case.detection.dominant_period == pytest.approx(60.0, rel=0.05)

    def test_skips_short_series(self, engine):
        summary = ActivitySummary.from_timestamps("m", "d", [0.0, 60.0, 120.0])
        job = BeaconingDetectionJob()
        assert engine.run(job, [(summary.pair, summary)]) == []

    def test_non_periodic_not_reported(self, engine, rng):
        timestamps = sorted(rng.uniform(0, 86_400, size=100))
        summary = ActivitySummary.from_timestamps("m", "d", timestamps)
        assert engine.run(BeaconingDetectionJob(), [(summary.pair, summary)]) == []

    def test_pickles_without_detector(self):
        import pickle

        job = BeaconingDetectionJob()
        job._get_detector()
        clone = pickle.loads(pickle.dumps(job))
        assert clone._detector is None
