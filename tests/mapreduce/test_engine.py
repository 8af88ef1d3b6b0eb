"""Tests for the local MapReduce engine."""

import os

import pytest

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob, stable_hash
from repro.obs import MetricsRegistry, scoped_registry


class WordCountJob(MapReduceJob):
    """The canonical example: count words keyed one record per word."""

    n_partitions = 8

    def reduce(self, key, values):
        yield key, sum(values)


def _words(lines):
    return [(word, 1) for _index, line in lines for word in line.split()]


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the fox jumps"),
]
WORDS = _words(LINES)


class TestSerialEngine:
    def test_word_count(self):
        output = dict(MapReduceEngine().run(WordCountJob(), WORDS))
        assert output["the"] == 3
        assert output["fox"] == 2
        assert output["dog"] == 1

    def test_empty_input(self):
        assert MapReduceEngine().run(WordCountJob(), []) == []

    def test_stats_recorded(self):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            MapReduceEngine().run(WordCountJob(), WORDS)
        counters = dict(registry.counters())
        assert counters["mapreduce.WordCountJob.input_records"] == 10
        assert counters["mapreduce.WordCountJob.output_records"] == 7

    def test_deterministic_output_order(self):
        a = MapReduceEngine().run(WordCountJob(), WORDS)
        b = MapReduceEngine().run(WordCountJob(), WORDS)
        assert a == b


class TestParallelEngine:
    def test_matches_serial_output(self):
        words = _words(
            (i, f"word{i % 7} word{i % 3} common") for i in range(300)
        )
        serial = sorted(MapReduceEngine().run(WordCountJob(), words))
        with MapReduceEngine(n_workers=3, min_parallel_records=10) as engine:
            parallel = sorted(engine.run(WordCountJob(), words))
        assert serial == parallel

    def test_small_inputs_stay_serial(self):
        engine = MapReduceEngine(n_workers=4, min_parallel_records=1000)
        output = dict(engine.run(WordCountJob(), WORDS))
        assert output["the"] == 3
        assert not engine.executor.active  # never spun up

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            MapReduceEngine(n_workers=0)


class GroupCountJob(WordCountJob):
    """Word count whose job copies report how many groups they reduced."""

    def __init__(self):
        self.reduced = 0
        self.merged = []

    def reduce(self, key, values):
        self.reduced += 1
        yield key, sum(values)

    def worker_state(self):
        return os.getpid(), self.reduced

    def merge_worker_state(self, state):
        self.merged.append(state)


class TestWorkerState:
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_dispatched_tasks_hand_their_state_back(self, telemetry):
        job = GroupCountJob()
        registry = MetricsRegistry() if telemetry else None
        with scoped_registry(registry), MapReduceEngine(
            n_workers=2, min_parallel_records=1
        ) as engine:
            output = dict(engine.run(job, WORDS))
        assert output["the"] == 3
        # One state per partition task, each from a worker's copy.
        assert len(job.merged) == len({job.partition(w) for w, _ in WORDS})
        assert sum(count for _pid, count in job.merged) == len(output)
        assert os.getpid() not in {pid for pid, _count in job.merged}
        assert job.reduced == 0

    def test_inline_tasks_reduce_on_the_callers_job(self):
        job = GroupCountJob()
        engine = MapReduceEngine(n_workers=2, min_parallel_records=1000)
        output = dict(engine.run(job, WORDS))
        assert job.reduced == len(output)
        assert job.merged == []


class TestPartitioning:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash(("a", "b")) == stable_hash(("a", "b"))
        assert stable_hash("x") != stable_hash("y")

    def test_partition_in_range(self):
        job = WordCountJob()
        for key in ["alpha", "beta", ("pair", 1), 42]:
            assert 0 <= job.partition(key) < job.n_partitions
