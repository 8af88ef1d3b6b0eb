"""Front-end parity: one stage graph, identical reports everywhere.

The same synthetic enterprise trace runs through every execution mode —
the in-process :class:`BaywatchPipeline`, the serial
:class:`BaywatchRunner`, a 2-worker engine, and an
interrupt-and-resume sharded run — and must produce *identical*
:class:`PipelineReport` contents: ranked cases, detected cases, funnel
rows, population, and quarantine list.  This is the acceptance test for
the shared :mod:`repro.stages` graph: any funnel-semantics fork between
front ends shows up here as a report mismatch.
"""

import pytest

from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.jobs import BaywatchRunner, IncompleteRunError
from repro.lm.domains import default_scorer
from repro.mapreduce.engine import MapReduceEngine
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec

CONFIG = dict(local_whitelist_threshold=0.2, ranking_percentile=0.5)


@pytest.fixture(scope="module")
def records():
    config = EnterpriseConfig(
        n_hosts=10,
        n_sites=20,
        duration=86_400.0 / 8,
        implants=(
            ImplantSpec("zbot", "zeus", n_infected=1, period=120.0),
            ImplantSpec("slowbeacon", "apt", n_infected=1, period=300.0),
        ),
        seed=11,
    )
    trace, _truth = EnterpriseSimulator(config).generate()
    return trace


@pytest.fixture(scope="module")
def scorer():
    return default_scorer()


def report_signature(report):
    """Everything that must agree across front ends, as plain data."""
    return {
        "ranked": [
            (c.source, c.destination, round(c.rank_score, 9))
            for c in report.ranked_cases
        ],
        "detected": sorted(
            (
                c.source,
                c.destination,
                round(c.popularity, 9),
                c.similar_sources,
                round(c.lm_score, 9),
            )
            for c in report.detected_cases
        ),
        "funnel": report.funnel.steps,
        "population": report.population_size,
        "quarantined": [q.key for q in report.quarantined],
    }


@pytest.fixture(scope="module")
def pipeline_report(records, scorer):
    return BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_records(records)


def test_serial_runner_matches_pipeline(records, scorer, pipeline_report):
    runner_report = BaywatchRunner(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run(records)
    assert report_signature(runner_report) == report_signature(pipeline_report)


def test_two_worker_engine_matches_pipeline(records, scorer, pipeline_report):
    with MapReduceEngine(n_workers=2, min_parallel_records=16) as engine:
        runner_report = BaywatchRunner(
            PipelineConfig(**CONFIG), engine=engine, scorer=scorer
        ).run(records)
    assert report_signature(runner_report) == report_signature(pipeline_report)


def test_thread_engine_matches_pipeline(records, scorer, pipeline_report):
    # Worker threads instead of worker processes: same stage graph, no
    # pickling, still bit-identical output.
    with MapReduceEngine(
        n_workers=2, executor="threads", min_parallel_records=16
    ) as engine:
        runner_report = BaywatchRunner(
            PipelineConfig(**CONFIG), engine=engine, scorer=scorer
        ).run(records)
    assert report_signature(runner_report) == report_signature(pipeline_report)


def test_executor_config_matches_pipeline(records, scorer, pipeline_report):
    # The PipelineConfig.executor knob alone (no explicit engine) must
    # select the backend and leave the report untouched.
    runner = BaywatchRunner(
        PipelineConfig(**CONFIG, executor="threads"), scorer=scorer
    )
    assert runner.engine.executor.name == "threads"
    with runner.engine:
        runner_report = runner.run(records)
    assert report_signature(runner_report) == report_signature(pipeline_report)


def test_shard_queue_engine_matches_pipeline(
    records, scorer, pipeline_report, tmp_path
):
    # The multi-host backend: the coordinator never computes a task
    # itself, two real worker processes drain the queue — and the
    # report is still bit-identical to the in-process pipeline.
    from repro.mapreduce.executors import ShardQueueExecutor
    from repro.mapreduce.testing import WorkerFleet

    queue = str(tmp_path / "ckpt" / "queue")
    executor = ShardQueueExecutor(queue, claim_ttl=5.0, poll_interval=0.02)
    with WorkerFleet(queue, 2, claim_ttl=5.0):
        with MapReduceEngine(
            n_workers=2, executor=executor, min_parallel_records=16
        ) as engine:
            report = BaywatchRunner(
                PipelineConfig(**CONFIG), engine=engine, scorer=scorer
            ).run_sharded(
                records,
                shard_size=4,
                checkpoint_dir=str(tmp_path / "ckpt"),
            )
    assert report_signature(report) == report_signature(pipeline_report)


def test_processes_checkpoint_resumes_under_shard_queue(
    records, scorer, pipeline_report, tmp_path
):
    # The executor is a mechanism, not an input: a run interrupted on
    # the process pool must resume on the shard queue (same checkpoint
    # fingerprint) and finish with the canonical report.
    from repro.mapreduce.testing import WorkerFleet

    checkpoint = str(tmp_path / "ckpt")
    interrupted = BaywatchRunner(
        PipelineConfig(**CONFIG, executor="processes"), scorer=scorer
    )
    with interrupted.engine, pytest.raises(IncompleteRunError):
        interrupted.run_sharded(
            records,
            shard_size=4,
            checkpoint_dir=checkpoint,
            max_shards=2,
        )
    resumed = BaywatchRunner(
        PipelineConfig(**CONFIG, executor="shard-queue"), scorer=scorer
    )
    queue = str(tmp_path / "ckpt" / "queue")
    with WorkerFleet(queue, 2, claim_ttl=5.0):
        with resumed.engine:
            report = resumed.run_sharded(
                records,
                shard_size=4,
                checkpoint_dir=checkpoint,
                resume=True,
            )
    assert report_signature(report) == report_signature(pipeline_report)


def test_interrupted_resumed_sharded_run_matches_pipeline(
    records, scorer, pipeline_report, tmp_path
):
    checkpoint = str(tmp_path / "ckpt")
    interrupted = BaywatchRunner(PipelineConfig(**CONFIG), scorer=scorer)
    with pytest.raises(IncompleteRunError):
        interrupted.run_sharded(
            records,
            shard_size=4,
            checkpoint_dir=checkpoint,
            max_shards=2,
        )
    resumed = BaywatchRunner(PipelineConfig(**CONFIG), scorer=scorer)
    report = resumed.run_sharded(
        records,
        shard_size=4,
        checkpoint_dir=checkpoint,
        resume=True,
    )
    assert report_signature(report) == report_signature(pipeline_report)


def test_pipeline_accepts_iterator_source(records, scorer, pipeline_report):
    streamed = BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_records(iter(records))
    assert report_signature(streamed) == report_signature(pipeline_report)


def verdict_signature(records):
    """Everything that must agree across executors, per verdict record."""
    return [
        (
            r.source,
            r.destination,
            r.stage,
            r.kept,
            r.reason,
            r.near_miss,
            tuple(sorted(r.values.items(), key=lambda kv: kv[0])),
        )
        for r in records
    ]


@pytest.mark.parametrize("sample", [1.0, 0.05])
def test_provenance_verdicts_identical_across_executors(
    records, scorer, tmp_path, sample
):
    # The same verdict chains — stage, kept/dropped, reason, near-miss
    # flag, and governing numbers — must come out of the in-process
    # pipeline, the serial runner, and an interrupt-and-resumed sharded
    # run, and survive the JSONL round-trip through the checkpoint
    # directory unchanged.
    from repro.obs import ProvenancePolicy, read_provenance

    policy = ProvenancePolicy(sample_early_drops=sample)
    config = dict(CONFIG, provenance=policy)

    base = BaywatchPipeline(
        PipelineConfig(**config), scorer=scorer
    ).run_records(records)
    assert base.provenance, "provenance-enabled run recorded nothing"
    base_sig = verdict_signature(base.provenance)

    runner = BaywatchRunner(
        PipelineConfig(**config), scorer=scorer
    ).run(records)
    assert verdict_signature(runner.provenance) == base_sig

    checkpoint = str(tmp_path / f"ckpt-{sample}")
    with pytest.raises(IncompleteRunError):
        BaywatchRunner(PipelineConfig(**config), scorer=scorer).run_sharded(
            records, shard_size=4, checkpoint_dir=checkpoint, max_shards=2
        )
    sharded = BaywatchRunner(
        PipelineConfig(**config), scorer=scorer
    ).run_sharded(
        records, shard_size=4, checkpoint_dir=checkpoint, resume=True
    )
    assert verdict_signature(sharded.provenance) == base_sig
    assert report_signature(sharded) == report_signature(base)

    from pathlib import Path

    merged = read_provenance(Path(checkpoint))
    assert verdict_signature(merged) == base_sig


def test_provenance_off_records_nothing(records, scorer, pipeline_report):
    assert pipeline_report.provenance == []


def test_batched_sharded_run_with_persisted_cache_matches_pipeline(
    records, scorer, pipeline_report, tmp_path
):
    from pathlib import Path

    from repro.core.permutation import ThresholdCache

    config = PipelineConfig(**CONFIG)
    checkpoint = str(tmp_path / "ckpt")
    interrupted = BaywatchRunner(config, scorer=scorer)
    with pytest.raises(IncompleteRunError):
        interrupted.run_sharded(
            records,
            shard_size=4,
            checkpoint_dir=checkpoint,
            max_shards=2,
        )
    # The interrupted run persisted its threshold-cache warmth next to
    # the shard checkpoints, and the file round-trips into a cache.
    cache_path = Path(checkpoint) / "threshold-cache.json"
    assert cache_path.is_file()
    assert ThresholdCache().load(cache_path) > 0

    resumed = BaywatchRunner(config, scorer=scorer)
    report = resumed.run_sharded(
        records,
        shard_size=4,
        checkpoint_dir=checkpoint,
        resume=True,
    )
    assert report_signature(report) == report_signature(pipeline_report)


def test_columnar_pipeline_matches_pipeline(records, scorer, pipeline_report):
    # Chunks and object records reach the same fold through the two
    # pipeline entry points; the reports must be bit-identical.
    from repro.sources.columnar import records_to_chunks

    columnar = BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_chunks(records_to_chunks(records, chunk_size=256))
    assert report_signature(columnar) == report_signature(pipeline_report)


def test_columnar_shm_sharded_run_matches_pipeline(
    records, scorer, pipeline_report, tmp_path
):
    # Columnar ingestion + shared-memory detection payloads across a
    # 2-worker engine: still the same report, and no /dev/shm residue.
    import os

    from repro.mapreduce.shm import SEGMENT_PREFIX
    from repro.sources.columnar import records_to_chunks

    with MapReduceEngine(n_workers=2, min_parallel_records=16) as engine:
        report = BaywatchRunner(
            PipelineConfig(**CONFIG, use_shared_memory=True),
            engine=engine,
            scorer=scorer,
        ).run_chunks_sharded(
            records_to_chunks(records, chunk_size=256),
            shard_size=4,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
    assert report_signature(report) == report_signature(pipeline_report)
    if os.path.isdir("/dev/shm"):
        assert not [
            n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
        ]


def test_checkpoint_resumes_across_data_planes(
    records, scorer, pipeline_report, tmp_path
):
    # Records and chunks fold to bit-identical summaries, so the
    # sharded-run fingerprints agree: a checkpoint written through
    # run_sharded must resume through run_chunks_sharded (and finish
    # with the canonical report).
    from repro.sources.columnar import records_to_chunks

    checkpoint = str(tmp_path / "ckpt")
    with pytest.raises(IncompleteRunError):
        BaywatchRunner(PipelineConfig(**CONFIG), scorer=scorer).run_sharded(
            records, shard_size=4, checkpoint_dir=checkpoint, max_shards=2
        )
    report = BaywatchRunner(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_chunks_sharded(
        records_to_chunks(records, chunk_size=128),
        shard_size=4,
        checkpoint_dir=checkpoint,
        resume=True,
    )
    assert report_signature(report) == report_signature(pipeline_report)
