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


def _events_of(kind, events):
    return [event for event in events if event["event"] == kind]


class TestJournalOfShardedRun:
    def test_journal_tells_the_run_story(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = BaywatchPipeline(pipeline_config)
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
        runner = BaywatchPipeline(pipeline_config)
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
        runner = BaywatchPipeline(pipeline_config)
        runner.run_records(records, shard_size=5, journal_dir=str(jdir))
        events = read_events(jdir / JOURNAL_FILE)
        assert _events_of("run_finish", events)

    def test_no_journal_without_directories(
        self, enterprise, pipeline_config
    ):
        records, _truth = enterprise
        runner = BaywatchPipeline(pipeline_config)
        report = runner.run_records(records, shard_size=5)
        assert report.ranked_cases  # runs fine, just unjournaled


class TestInterruptResumeJournal:
    def test_resume_appends_without_duplicate_finishes(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = BaywatchPipeline(pipeline_config)
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

        resumed_runner = BaywatchPipeline(pipeline_config)
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

    def test_resume_over_a_torn_last_line_keeps_every_event(
        self, enterprise, pipeline_config, tmp_path
    ):
        import shutil

        records, _truth = enterprise
        ckpt, clean = tmp_path / "ckpt", tmp_path / "clean"
        with pytest.raises(IncompleteRunError):
            BaywatchPipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt),
                max_shards=2, run_id="cycle1",
            )
        shutil.copytree(ckpt, clean)
        # A writer killed mid-append leaves a torn last line.
        with (ckpt / JOURNAL_FILE).open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "shard_fin')
        for directory in (clean, ckpt):
            BaywatchPipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(directory),
                resume=True, run_id="cycle2",
            )

        def resumed_run(directory):
            return [
                event["event"]
                for event in read_events(directory / JOURNAL_FILE)
                if event.get("run_id") == "cycle2"
            ]

        assert resumed_run(ckpt) == resumed_run(clean)
        assert resumed_run(ckpt)[-1] == "run_finish"
        status = build_status(read_events(ckpt / JOURNAL_FILE))
        assert status["state"] == "finished"

    def test_resume_journals_cache_load(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = BaywatchPipeline(pipeline_config)
        with pytest.raises(IncompleteRunError):
            runner.run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=1
            )
        BaywatchPipeline(pipeline_config).run_records(
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
        runner = BaywatchPipeline(pipeline_config, engine=engine)
        registry = MetricsRegistry()
        with scoped_registry(registry), engine:
            runner.run_records(
                records, shard_size=5,
                checkpoint_dir=str(tmp_path / "ckpt"), run_id="trace01",
            )
        spans = pending_spans(registry)
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

    def test_worker_spans_sit_under_the_shard_that_dispatched_them(
        self, enterprise, pipeline_config
    ):
        records, _truth = enterprise
        engine = MapReduceEngine(n_workers=2, min_parallel_records=1)
        registry = MetricsRegistry()
        with scoped_registry(registry), engine:
            BaywatchPipeline(pipeline_config, engine=engine).run_records(
                records, shard_size=5
            )
        spans = pending_spans(registry)
        by_id = {record.span_id: record for record in spans}
        shards = [record for record in spans if record.name == "shard"]
        tasks = [record for record in spans if record.name.startswith("task.")]
        assert len(shards) >= 2 and tasks

        def ancestors(record):
            while record.parent_id in by_id:
                record = by_id[record.parent_id]
                yield record.span_id

        owners = set()
        for task in tasks:
            # Shards run one after another, so the shard whose wall
            # clock window holds the task's start dispatched it.
            (dispatcher,) = [
                shard for shard in shards
                if shard.start <= task.start <= shard.start + shard.seconds
            ]
            assert dispatcher.span_id in set(ancestors(task)), task
            owners.add(dispatcher.span_id)
            assert task.path == task.name
            phase = task.name.split(".")[1]
            assert by_id[task.parent_id].name == phase
        assert owners == {shard.span_id for shard in shards}

    def test_unexported_runs_leave_no_records_behind(
        self, enterprise, pipeline_config, tmp_path
    ):
        from repro.obs import TRACE_FILE, spans_from_jsonl, write_telemetry

        records, _truth = enterprise
        for run_id in ("first", "second"):
            with scoped_registry(MetricsRegistry()):
                BaywatchPipeline(pipeline_config).run_records(
                    records, shard_size=50, run_id=run_id
                )
        registry = MetricsRegistry()
        with scoped_registry(registry):
            report = BaywatchPipeline(pipeline_config).run_records(
                records, shard_size=50, run_id="third"
            )
        written = write_telemetry(tmp_path, registry, funnel=report.funnel)
        spans = spans_from_jsonl(written[TRACE_FILE].read_text())
        assert len({record.trace_id for record in spans}) == 1
        assert {record.run_id for record in spans} == {"third"}
        assert pending_spans(registry) == []

    def test_serial_run_records_no_spans_without_telemetry(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        runner = BaywatchPipeline(pipeline_config)
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
        runner = BaywatchPipeline(pipeline_config, engine=engine)
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
    def test_retry_warnings_carry_run_and_shard(self, caplog, tmp_path):
        from repro.mapreduce.testing import TransientFaultJob

        engine = MapReduceEngine(max_retries=1, retry_backoff=0.0)
        engine.set_run_context(run_id="ctx01", shard=7)
        job = TransientFaultJob(str(tmp_path / "marker"), fail_times=1)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert engine.run(job, [("poison", "ok")]) == [("poison", "ok")]
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
