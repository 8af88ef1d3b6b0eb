"""Run telemetry integration: journal, status, and traces of sharded runs."""

import logging

import pytest

from repro.filtering import BaywatchPipeline
from repro.jobs import CheckpointStore, IncompleteRunError
from repro.mapreduce import MapReduceEngine
from repro.obs import (
    JOURNAL_FILE,
    MetricsRegistry,
    build_status,
    build_trace_tree,
    clear_spans,
    pending_spans,
    read_events,
    render_trace_tree,
    scoped_registry,
    set_trace,
)


@pytest.fixture(autouse=True)
def _clean_trace_state():
    clear_spans()
    set_trace(None)
    yield
    clear_spans()
    set_trace(None)


def engine_pipeline(config, engine=None):
    """The pipeline with detection on ``engine`` (a serial one by default)."""
    return BaywatchPipeline(
        config, engine=engine if engine is not None else MapReduceEngine()
    )


def _events_of(kind, events):
    return [event for event in events if event["event"] == kind]


class TestJournalOfShardedRun:
    def test_journal_tells_the_run_story(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        runner.run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt), run_id="jrun01"
        )
        events = read_events(ckpt / JOURNAL_FILE)
        assert events, "sharded run with checkpoint_dir must journal"
        assert all(event["run_id"] == "jrun01" for event in events)
        assert len(_events_of("run_start", events)) == 1
        assert len(_events_of("run_finish", events)) == 1
        n_shards = _events_of("run_start", events)[0]["n_shards"]
        starts = _events_of("shard_start", events)
        finishes = _events_of("shard_finish", events)
        assert len(starts) == len(finishes) == n_shards
        assert {event["shard"] for event in finishes} == set(range(n_shards))
        for event in finishes:
            assert event["pairs"] > 0
            assert event["seconds"] >= 0
        # The stage graph journals funnel steps too.
        stages = {event["stage"] for event in _events_of("stage", events)}
        assert "step5_detection" in stages or len(stages) > 0

    def test_status_matches_checkpoint_manifest(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        runner.run_records(records, shard_size=5, checkpoint_dir=str(ckpt))
        status = build_status(read_events(ckpt / JOURNAL_FILE))
        progress = CheckpointStore(str(ckpt)).progress()
        assert status["shards"]["total"] == progress["n_shards"]
        assert status["shards"]["done"] == progress["done"]
        assert progress["remaining"] == 0
        assert status["state"] == "finished"

    def test_journal_dir_without_checkpoints(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        jdir = tmp_path / "journal-only"
        runner = engine_pipeline(pipeline_config)
        runner.run_records(records, shard_size=5, journal_dir=str(jdir))
        events = read_events(jdir / JOURNAL_FILE)
        assert _events_of("run_finish", events)

    def test_no_journal_without_directories(
        self, enterprise, pipeline_config
    ):
        records, _truth = enterprise
        runner = engine_pipeline(pipeline_config)
        report = runner.run_records(records, shard_size=5)
        assert report.ranked_cases  # runs fine, just unjournaled


class TestInterruptResumeJournal:
    def test_resume_appends_without_duplicate_finishes(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        with pytest.raises(IncompleteRunError):
            runner.run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt),
                max_shards=2, run_id="cycle1",
            )
        first_cycle = read_events(ckpt / JOURNAL_FILE)
        assert _events_of("run_suspended", first_cycle)
        finished_first = {
            event["shard"] for event in _events_of("shard_finish", first_cycle)
        }
        assert len(finished_first) == 2

        resumed_runner = engine_pipeline(pipeline_config)
        resumed_runner.run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt),
            resume=True, run_id="cycle2",
        )
        events = read_events(ckpt / JOURNAL_FILE)
        # Append-only: the first cycle's records are still at the front.
        assert events[: len(first_cycle)] == first_cycle
        assert _events_of("resumed", events)

        # No shard finishes twice across the whole journal; resumed
        # shards appear as shard_resumed instead.
        finishes = [e["shard"] for e in _events_of("shard_finish", events)]
        assert len(finishes) == len(set(finishes))
        resumed_shards = {
            event["shard"] for event in _events_of("shard_resumed", events)
        }
        assert resumed_shards == finished_first

        status = build_status(events)
        assert status["resumed"] is True
        assert status["state"] == "finished"
        assert status["shards"]["done"] == status["shards"]["total"]

    def test_resume_journals_cache_load(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        with pytest.raises(IncompleteRunError):
            runner.run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=1
            )
        engine_pipeline(pipeline_config).run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt), resume=True
        )
        events = read_events(ckpt / JOURNAL_FILE)
        assert _events_of("cache_persist", events)
        assert _events_of("cache_load", events)


class TestDistributedTrace:
    def test_parallel_run_stitches_one_tree_with_worker_spans(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        # min_parallel_records=1 forces even small detection shards
        # through the worker pool, so detect spans genuinely run in
        # other processes.
        engine = MapReduceEngine(n_workers=2, min_parallel_records=1)
        runner = engine_pipeline(pipeline_config, engine)
        registry = MetricsRegistry()
        with scoped_registry(registry), engine:
            runner.run_records(
                records, shard_size=5,
                checkpoint_dir=str(tmp_path / "ckpt"), run_id="trace01",
            )
        spans = pending_spans()
        assert spans
        roots = build_trace_tree(spans)
        assert len(roots) == 1, "all spans must stitch under the run span"
        root = roots[0]
        assert root.record.name == "run"
        assert root.record.run_id == "trace01"

        engine_pid = root.record.pid
        worker_detects = [
            record for record in spans
            if record.name == "detect" and record.pid != engine_pid
        ]
        assert worker_detects, "worker-side detect spans must ship back"
        by_id = {record.span_id: record for record in spans}
        for record in worker_detects:
            # Walk to the root: the chain must terminate at the run span.
            node = record
            for _hop in range(100):
                if node.parent_id is None:
                    break
                node = by_id[node.parent_id]
            assert node.span_id == root.record.span_id

        text = render_trace_tree(spans)
        assert "trace01" in text
        assert "detect" in text

    def test_serial_run_records_no_spans_without_telemetry(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        runner = engine_pipeline(pipeline_config)
        runner.run_records(
            records, shard_size=5, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert pending_spans() == []

    def test_worker_heartbeats_reach_the_journal(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        engine = MapReduceEngine(n_workers=2, min_parallel_records=1)
        runner = engine_pipeline(pipeline_config, engine)
        with engine:
            runner.run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt)
            )
        events = read_events(ckpt / JOURNAL_FILE)
        heartbeats = _events_of("heartbeat", events)
        assert heartbeats, "workers must heartbeat even without telemetry"
        engine_pid = _events_of("run_start", events)[0]["pid"]
        assert any(event["pid"] != engine_pid for event in heartbeats)


class TestEngineLogContext:
    def test_retry_warnings_carry_run_and_shard(self, caplog):
        engine = MapReduceEngine(max_retries=1, retry_backoff=0.0)
        engine.set_run_context(run_id="ctx01", shard=7)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return "ok"

        with caplog.at_level(logging.WARNING, logger="repro"):
            assert engine._attempt(flaky) == "ok"
        assert any(
            "run ctx01" in record.getMessage()
            and "shard 7" in record.getMessage()
            for record in caplog.records
        )

    def test_context_clears(self):
        engine = MapReduceEngine()
        engine.set_run_context(run_id="x", shard=1)
        assert engine._log_ctx() == "[run x shard 1] "
        engine.set_run_context()
        assert engine._log_ctx() == ""
