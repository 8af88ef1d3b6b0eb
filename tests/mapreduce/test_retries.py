"""Fault-injection tests for the engine's task retries."""

import os
import tempfile

import pytest

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.obs import MetricsRegistry, scoped_registry


class FlakyJob(MapReduceJob):
    """Fails the first ``fail_times`` reduce calls for a marked key.

    Failure state lives in a file so it survives process boundaries
    (parallel workers) and is visible to the retrying engine.
    """

    n_partitions = 4

    def __init__(self, fail_times: int, marker_path: str) -> None:
        self.fail_times = fail_times
        self.marker_path = marker_path

    def _count(self) -> int:
        try:
            with open(self.marker_path) as handle:
                return int(handle.read() or 0)
        except FileNotFoundError:
            return 0

    def _bump(self) -> int:
        count = self._count() + 1
        with open(self.marker_path, "w") as handle:
            handle.write(str(count))
        return count

    def reduce(self, key, values):
        if key == "poison" and self._bump() <= self.fail_times:
            raise RuntimeError("injected task failure")
        for value in values:
            yield key, value


@pytest.fixture
def marker(tmp_path):
    return str(tmp_path / "failures")


INPUTS = [("ok", 1), ("poison", 2), ("fine", 3)]


class TestRetries:
    def test_no_retries_propagates(self, marker):
        engine = MapReduceEngine(max_retries=0)
        with pytest.raises(RuntimeError, match="injected"):
            engine.run(FlakyJob(1, marker), INPUTS)

    def test_retry_recovers_transient_failure(self, marker):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            engine = MapReduceEngine(max_retries=2)
            output = engine.run(FlakyJob(1, marker), INPUTS)
        assert sorted(output) == sorted(INPUTS)
        assert dict(registry.counters())["mapreduce.task_retries"] == 1

    def test_persistent_failure_still_raises(self, marker):
        engine = MapReduceEngine(max_retries=2)
        with pytest.raises(RuntimeError, match="injected"):
            engine.run(FlakyJob(100, marker), INPUTS)

    def test_parallel_retry_recovers(self, marker):
        inputs = INPUTS * 30  # over min_parallel_records
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=2
        ) as engine:
            output = engine.run(FlakyJob(1, marker), inputs)
        assert len(output) == len(inputs)

    def test_retry_budget_restored_after_parallel_failure(self, marker):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=3
        ) as engine:
            engine.run(FlakyJob(2, marker), INPUTS * 30)
            assert engine.max_retries == 3

    def test_invalid_retries(self):
        with pytest.raises(ValueError):
            MapReduceEngine(max_retries=-1)
