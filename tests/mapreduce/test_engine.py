"""Tests for the local MapReduce engine."""

import pytest

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob, stable_hash


class WordCountJob(MapReduceJob):
    """The canonical example: count words across lines."""

    n_partitions = 8

    def map(self, key, value):
        for word in value.split():
            yield word, 1

    def reduce(self, key, values):
        yield key, sum(values)


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the fox jumps"),
]


class TestSerialEngine:
    def test_word_count(self):
        output = dict(MapReduceEngine().run(WordCountJob(), LINES))
        assert output["the"] == 3
        assert output["fox"] == 2
        assert output["dog"] == 1

    def test_empty_input(self):
        assert MapReduceEngine().run(WordCountJob(), []) == []

    def test_stats_recorded(self):
        engine = MapReduceEngine()
        engine.run(WordCountJob(), LINES)
        stats = engine.last_stats
        assert stats.input_records == 3
        assert stats.mapped_records == 10
        assert stats.distinct_keys == 7
        assert stats.output_records == 7

    def test_deterministic_output_order(self):
        a = MapReduceEngine().run(WordCountJob(), LINES)
        b = MapReduceEngine().run(WordCountJob(), LINES)
        assert a == b


class TestParallelEngine:
    def test_matches_serial_output(self):
        lines = [(i, f"word{i % 7} word{i % 3} common") for i in range(300)]
        serial = sorted(MapReduceEngine().run(WordCountJob(), lines))
        with MapReduceEngine(n_workers=3, min_parallel_records=10) as engine:
            parallel = sorted(engine.run(WordCountJob(), lines))
        assert serial == parallel

    def test_small_inputs_stay_serial(self):
        engine = MapReduceEngine(n_workers=4, min_parallel_records=1000)
        output = dict(engine.run(WordCountJob(), LINES))
        assert output["the"] == 3
        assert not engine.executor.active  # never spun up

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            MapReduceEngine(n_workers=0)


class TestPartitioning:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash(("a", "b")) == stable_hash(("a", "b"))
        assert stable_hash("x") != stable_hash("y")

    def test_partition_in_range(self):
        job = WordCountJob()
        for key in ["alpha", "beta", ("pair", 1), 42]:
            assert 0 <= job.partition(key) < job.n_partitions
