"""Checkpointed sharded execution: serialization, resume, quarantine."""

import json

import pytest

from repro.core.timeseries import ActivitySummary
from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.jobs import (
    BeaconingDetectionJob,
    CheckpointMismatch,
    CheckpointStore,
    IncompleteRunError,
)
from repro.jobs.checkpoint import (
    case_from_dict,
    case_to_dict,
    quarantine_from_dict,
    quarantine_to_dict,
    run_fingerprint,
    summary_to_dict,
)
from repro.mapreduce import MapReduceEngine
from repro.mapreduce.engine import QuarantinedTask
from repro.obs import JOURNAL_FILE, read_events
from repro.sources.proxy import records_to_summaries


def engine_pipeline(config):
    """The pipeline with detection on a serial engine."""
    return BaywatchPipeline(config, engine=MapReduceEngine())


def finished_shards(journal_dir, since=0):
    """``(shard, n_shards)`` of each ``shard_finish`` in the journal."""
    events = read_events(journal_dir / JOURNAL_FILE)[since:]
    n_shards = next(e["n_shards"] for e in events if e["event"] == "run_start")
    return [
        (event["shard"], n_shards)
        for event in events
        if event["event"] == "shard_finish"
    ]


def _report_signature(report):
    """Everything that must match between two equivalent runs."""
    return {
        "funnel": list(report.funnel.steps),
        "ranked": [
            (c.destination, round(c.rank_score, 9)) for c in report.ranked_cases
        ],
        "detected": sorted(
            (c.summary.source, c.destination) for c in report.detected_cases
        ),
        "population": report.population_size,
    }


class TestSerialization:
    def test_detection_case_roundtrip(self, enterprise, pipeline_config):
        records, _truth = enterprise
        summaries = records_to_summaries(records)
        output = MapReduceEngine().run(
            BeaconingDetectionJob(pipeline_config.detector),
            [(summary.pair, summary) for summary in summaries],
        )
        cases = [case for _pair, case in output]
        assert cases, "fixture produced no detection cases"
        # Older checkpoints also stored four ranking fields, never set.
        legacy = dict(
            popularity=0.0, similar_sources=1, lm_score=0.0, rank_score=0.0
        )
        for case in cases:
            payload = json.loads(json.dumps(case_to_dict(case)))
            assert case_from_dict(payload) == case
            assert case_from_dict({**payload, **legacy}) == case

    def test_quarantine_tuple_key_roundtrip(self):
        entry = QuarantinedTask(
            phase="reduce", key=("h-3", "evil.example"), error="boom", attempts=2
        )
        restored = quarantine_from_dict(
            json.loads(json.dumps(quarantine_to_dict(entry)))
        )
        assert restored == entry

    def test_fingerprint_sensitive_to_inputs(self):
        pairs = [("a", "x"), ("b", "y")]
        base = run_fingerprint(pairs, config_repr="cfg", shard_size=4)
        assert base == run_fingerprint(pairs, config_repr="cfg", shard_size=4)
        assert base != run_fingerprint(pairs[:1], config_repr="cfg", shard_size=4)
        assert base != run_fingerprint(pairs, config_repr="other", shard_size=4)
        assert base != run_fingerprint(pairs, config_repr="cfg", shard_size=8)


class TestShardedEquivalence:
    def test_sharded_matches_unsharded(self, enterprise, pipeline_config):
        records, truth = enterprise
        plain = BaywatchPipeline(pipeline_config).run_records(records)
        sharded = engine_pipeline(pipeline_config).run_records(
            records, shard_size=7
        )
        assert _report_signature(sharded) == _report_signature(plain)
        detected = {c.destination for c in sharded.detected_cases}
        assert truth.malicious_destinations <= detected
        assert sharded.quarantined == []

    def test_shard_callback_and_gauge(
        self, enterprise, pipeline_config, tmp_path
    ):
        from repro.obs import MetricsRegistry, pending_spans, scoped_registry

        records, _truth = enterprise
        registry = MetricsRegistry()
        with scoped_registry(registry):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=7, journal_dir=str(tmp_path)
            )
        # The run's span records went to its own registry, not to a
        # process-wide buffer a later run would export.
        assert pending_spans(registry) and pending_spans() == []
        completions = finished_shards(tmp_path)
        assert completions, "no shard completions observed"
        n_shards = completions[0][1]
        assert [i for i, _n in completions] == list(range(n_shards))
        assert dict(registry.gauges())["runner.shards_total"] == n_shards

    def test_shard_size_validated(self, enterprise, pipeline_config):
        records, _truth = enterprise
        with pytest.raises(ValueError, match="shard_size"):
            engine_pipeline(pipeline_config).run_records(records, shard_size=0)

    def test_max_shards_requires_checkpoint_dir(
        self, enterprise, pipeline_config
    ):
        records, _truth = enterprise
        with pytest.raises(ValueError, match="checkpoint_dir"):
            engine_pipeline(pipeline_config).run_records(records, max_shards=1)


class TestInterruptResume:
    def test_interrupt_then_resume_is_identical(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        uninterrupted = engine_pipeline(pipeline_config).run_records(
            records, shard_size=5
        )

        with pytest.raises(IncompleteRunError) as excinfo:
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=2
            )
        assert excinfo.value.completed == 2
        assert excinfo.value.total > 2
        store = CheckpointStore(ckpt)
        assert store.completed_shards() == [0, 1]

        first_cycle = len(read_events(ckpt / JOURNAL_FILE))
        resumed = engine_pipeline(pipeline_config).run_records(
            records,
            shard_size=5,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        rerun = [shard for shard, _n in finished_shards(ckpt, first_cycle)]
        # Only the shards missing from the checkpoint were re-run...
        assert min(rerun) == 2
        # ...and the assembled report is indistinguishable from the
        # uninterrupted one.
        assert _report_signature(resumed) == _report_signature(uninterrupted)

    def test_resume_counts_shards_resumed(
        self, enterprise, pipeline_config, tmp_path
    ):
        from repro.obs import MetricsRegistry, pending_spans, scoped_registry

        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        runner.run_records(records, shard_size=5, checkpoint_dir=str(ckpt))

        registry = MetricsRegistry()
        with scoped_registry(registry):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), resume=True
            )
        assert pending_spans(registry) and pending_spans() == []
        counters = dict(registry.counters())
        assert counters["mapreduce.shards_resumed"] >= 1

    def test_leftover_tmp_file_is_not_a_shard(
        self, enterprise, pipeline_config, tmp_path
    ):
        """A SIGKILL mid-write leaves only a ``*.tmp`` file; resume must
        treat that shard as incomplete and re-run it."""
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        uninterrupted = engine_pipeline(pipeline_config).run_records(
            records, shard_size=5
        )
        with pytest.raises(IncompleteRunError):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=2
            )
        # Simulate the kill-mid-write of the next shard.
        (ckpt / "shard-00002.jsonl.tmp").write_text('{"type": "cas', "utf-8")
        store = CheckpointStore(ckpt)
        assert not store.has_shard(2)

        resumed = engine_pipeline(pipeline_config).run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt), resume=True
        )
        assert _report_signature(resumed) == _report_signature(uninterrupted)

    def test_resume_against_changed_config_refuses(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        with pytest.raises(IncompleteRunError):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=1
            )
        changed = PipelineConfig(
            local_whitelist_threshold=0.9, ranking_percentile=0.5
        )
        with pytest.raises(CheckpointMismatch):
            engine_pipeline(changed).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), resume=True
            )

    def test_resume_against_changed_shard_size_refuses(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        with pytest.raises(IncompleteRunError):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=1
            )
        with pytest.raises(CheckpointMismatch):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=9, checkpoint_dir=str(ckpt), resume=True
            )

    def test_fresh_run_clears_stale_checkpoint(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        with pytest.raises(IncompleteRunError):
            engine_pipeline(pipeline_config).run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=2
            )
        # resume=False (the default) starts over; stale shards vanish
        # and the run completes end to end.
        report = engine_pipeline(pipeline_config).run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt)
        )
        store = CheckpointStore(ckpt)
        assert len(store.completed_shards()) == len(
            set(store.completed_shards())
        )
        assert report.detected_cases


class _PoisonedDetectionJob(BeaconingDetectionJob):
    """Detection job that dies on one destination (module-level so
    worker processes can unpickle it)."""

    POISON_DESTINATION = None  # set via factory closure below

    def __init__(self, *args, poison_destination="", **kwargs):
        super().__init__(*args, **kwargs)
        self._poison_destination = poison_destination

    def reduce_partition(self, grouped):
        grouped = list(grouped)
        for key, _summaries in grouped:
            if key[1] == self._poison_destination:
                raise RuntimeError(f"poisoned pair {key}")
        return super().reduce_partition(grouped)


class TestQuarantineEndToEnd:
    def test_poison_pair_quarantined_batch_completes(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, truth = enterprise
        ckpt = tmp_path / "ckpt"
        victim = sorted(truth.malicious_destinations)[0]

        def factory(*args, **kwargs):
            return _PoisonedDetectionJob(
                *args, poison_destination=victim, **kwargs
            )

        engine = MapReduceEngine(max_retries=1, quarantine=True)
        runner = BaywatchPipeline(
            pipeline_config, engine=engine, detection_job_factory=factory
        )
        report = runner.run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt)
        )

        # The batch completed; the poisoned pair is reported, not fatal.
        assert report.quarantined, "no quarantine entries in report"
        assert all(e.phase == "reduce" for e in report.quarantined)
        assert {e.key[1] for e in report.quarantined} == {victim}
        assert victim not in {c.destination for c in report.detected_cases}

        # The consolidated quarantine report landed on disk as JSONL.
        store = CheckpointStore(ckpt)
        persisted = store.read_quarantine()
        assert [e.key for e in persisted] == [e.key for e in report.quarantined]

    def test_poison_without_quarantine_aborts(
        self, enterprise, pipeline_config
    ):
        records, truth = enterprise
        victim = sorted(truth.malicious_destinations)[0]

        def factory(*args, **kwargs):
            return _PoisonedDetectionJob(
                *args, poison_destination=victim, **kwargs
            )

        runner = BaywatchPipeline(
            pipeline_config,
            engine=MapReduceEngine(),
            detection_job_factory=factory,
        )
        with pytest.raises(RuntimeError, match="poisoned pair"):
            runner.run_records(records, shard_size=5)


class TestProgress:
    def test_progress_tracks_manifest_and_shards(
        self, enterprise, pipeline_config, tmp_path
    ):
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        with pytest.raises(IncompleteRunError):
            runner.run_records(
                records, shard_size=5, checkpoint_dir=str(ckpt), max_shards=2
            )
        store = CheckpointStore(str(ckpt))
        progress = store.progress()
        assert progress["done"] == 2
        assert progress["completed"] == [0, 1]
        assert progress["n_shards"] > 2
        assert progress["remaining"] == progress["n_shards"] - 2
        assert progress["fingerprint"]

        engine_pipeline(pipeline_config).run_records(
            records, shard_size=5, checkpoint_dir=str(ckpt), resume=True
        )
        progress = store.progress()
        assert progress["remaining"] == 0
        assert progress["done"] == progress["n_shards"]

    def test_progress_on_fresh_directory(self, tmp_path):
        progress = CheckpointStore(str(tmp_path)).progress()
        assert progress == {
            "n_shards": 0,
            "completed": [],
            "done": 0,
            "remaining": 0,
            "fingerprint": None,
        }

    def test_clear_keeps_the_event_journal(
        self, enterprise, pipeline_config, tmp_path
    ):
        """A fresh (non-resume) run clears shards but never the journal."""
        records, _truth = enterprise
        ckpt = tmp_path / "ckpt"
        runner = engine_pipeline(pipeline_config)
        runner.run_records(records, shard_size=5, checkpoint_dir=str(ckpt))
        journal = ckpt / "events.jsonl"
        assert journal.exists()
        size_after_first = journal.stat().st_size
        CheckpointStore(str(ckpt)).clear()
        assert journal.exists()
        assert journal.stat().st_size == size_after_first


class TestDamagedCheckpoint:
    """A checkpoint that cannot be trusted is refused, naming the file.

    ``tests/test_cli.py`` resumes damaged shards and manifests end to
    end; these cover the other readers and the fresh-run path.
    """

    @pytest.fixture
    def store(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.begin("fp", n_shards=2, shard_size=1, resume=False)
        store.write_shard(0, [])
        store.write_quarantine([
            QuarantinedTask(phase="map", key=("h", "d"), error="x", attempts=2)
        ])
        return store

    def test_intact_store_reads_back(self, store):
        assert store.read_shard(0) == ([], [])
        assert store.manifest()["fingerprint"] == "fp"
        assert [e.key for e in store.read_quarantine()] == [("h", "d")]

    def test_shard_files_without_a_manifest_are_refused(self, store):
        store.manifest_path.unlink()
        with pytest.raises(CheckpointMismatch, match="no manifest.json"):
            store.begin("fp", n_shards=2, shard_size=1, resume=True)
        # A fresh run clears them instead.
        store.begin("fp", n_shards=2, shard_size=1, resume=False)
        assert store.completed_shards() == []

    def test_truncated_manifest(self, store):
        store.manifest_path.write_text('{"fingerprint": "f', encoding="utf-8")
        with pytest.raises(
            CheckpointMismatch, match="manifest.json is damaged"
        ):
            store.begin("fp", n_shards=2, shard_size=1, resume=True)
        store.begin("fp", n_shards=2, shard_size=1, resume=False)

    def test_float_list_intervals_are_refused(self, store):
        # The interval encoding that came before intervals_f8.
        summary = summary_to_dict(
            ActivitySummary.from_timestamps("mac1", "a.com", [0.0, 60.0, 120.0])
        )
        del summary["intervals_f8"]
        summary["intervals"] = [60.0, 60.0]
        path = store._shard_path(0)
        path.write_text(json.dumps(
            {"type": "case", "summary": summary, "detection": {}}
        ) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointMismatch) as caught:
            store.read_shard(0)
        assert str(caught.value) == (
            f"checkpoint file {path} is damaged (missing field "
            f"'intervals_f8'); refusing to resume"
        )

    def test_malformed_provenance_shard(self, store):
        store._provenance_shard_path(0).write_text(
            '{"v": 1, "unexpected": true}\n', encoding="utf-8"
        )
        with pytest.raises(
            CheckpointMismatch, match="provenance-00000.jsonl is damaged"
        ):
            store.read_provenance_shard(0)

    def test_malformed_quarantine_report(self, store):
        store.quarantine_path.write_text(
            '{"phase": "map"}\n', encoding="utf-8"
        )
        with pytest.raises(
            CheckpointMismatch, match="quarantine.jsonl is damaged"
        ):
            store.read_quarantine()
