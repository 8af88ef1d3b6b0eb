"""Executor parity: one stage graph, identical reports everywhere.

The same synthetic enterprise trace runs through every execution mode
of :class:`BaywatchPipeline` — the default serial engine, a 2-worker
engine, the shard queue, and an interrupt-and-resume sharded run — and
must produce *identical* :class:`PipelineReport` contents: ranked
cases, detected cases, funnel rows, population, and quarantine list.
Where detection executes is a mechanism, never an input: any divergence
shows up here as a report mismatch.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.jobs import IncompleteRunError
from repro.lm.domains import default_scorer
from repro.mapreduce.engine import MapReduceEngine
from repro.sources.columnar import read_log_chunks
from repro.sources.proxy import write_log
from repro.stages import PeriodicityDetectionStage
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec

CONFIG = dict(local_whitelist_threshold=0.2, ranking_percentile=0.5)
# Two workers that receive every shard: most shards hold 4 of the 14
# detection pairs, which any threshold above 4 would run inline.
WORKERS = dict(n_workers=2, min_parallel_records=1)


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
    """Everything that must agree across executors, as plain data."""
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


def test_two_worker_engine_matches_pipeline(records, scorer, pipeline_report):
    with MapReduceEngine(**WORKERS) as engine:
        engine_report = BaywatchPipeline(
            PipelineConfig(**CONFIG), engine=engine, scorer=scorer
        ).run_records(records)
    assert report_signature(engine_report) == report_signature(pipeline_report)


def test_shard_queue_engine_matches_pipeline(
    records, scorer, pipeline_report, tmp_path
):
    # The multi-host backend: the coordinator never computes a task
    # itself, two real worker processes drain the queue — and the
    # report is still bit-identical to the serial one.
    from repro.mapreduce.executors import ShardQueueExecutor
    from repro.mapreduce.testing import WorkerFleet

    queue = str(tmp_path / "ckpt" / "queue")
    executor = ShardQueueExecutor(queue, claim_ttl=5.0, poll_interval=0.02)
    with WorkerFleet(queue, 2, claim_ttl=5.0):
        with MapReduceEngine(executor=executor, **WORKERS) as engine:
            report = BaywatchPipeline(
                PipelineConfig(**CONFIG), engine=engine, scorer=scorer
            ).run_records(
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
    with MapReduceEngine(executor="processes", **WORKERS) as engine:
        with pytest.raises(IncompleteRunError):
            BaywatchPipeline(
                PipelineConfig(**CONFIG), engine=engine, scorer=scorer
            ).run_records(
                records,
                shard_size=4,
                checkpoint_dir=checkpoint,
                max_shards=2,
            )
    queue = str(tmp_path / "ckpt" / "queue")
    with WorkerFleet(queue, 2, claim_ttl=5.0):
        with MapReduceEngine(executor="shard-queue", **WORKERS) as engine:
            report = BaywatchPipeline(
                PipelineConfig(**CONFIG), engine=engine, scorer=scorer
            ).run_records(
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
    interrupted = BaywatchPipeline(PipelineConfig(**CONFIG), scorer=scorer)
    with pytest.raises(IncompleteRunError):
        interrupted.run_records(
            records,
            shard_size=4,
            checkpoint_dir=checkpoint,
            max_shards=2,
        )
    resumed = BaywatchPipeline(PipelineConfig(**CONFIG), scorer=scorer)
    report = resumed.run_records(
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
    # flag, and governing numbers — must come out of an uninterrupted
    # run and an interrupt-and-resumed sharded run, and survive the
    # JSONL round-trip through the checkpoint directory unchanged.
    from repro.obs import ProvenancePolicy, read_provenance

    policy = ProvenancePolicy(sample_early_drops=sample)
    config = dict(CONFIG, provenance=policy)

    base = BaywatchPipeline(
        PipelineConfig(**config), scorer=scorer
    ).run_records(records)
    assert base.provenance, "provenance-enabled run recorded nothing"
    base_sig = verdict_signature(base.provenance)

    checkpoint = str(tmp_path / f"ckpt-{sample}")
    with pytest.raises(IncompleteRunError):
        BaywatchPipeline(PipelineConfig(**config), scorer=scorer).run_records(
            records, shard_size=4, checkpoint_dir=checkpoint, max_shards=2
        )
    sharded = BaywatchPipeline(
        PipelineConfig(**config), scorer=scorer
    ).run_records(
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
    interrupted = BaywatchPipeline(config, scorer=scorer)
    with pytest.raises(IncompleteRunError):
        interrupted.run_records(
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

    resumed = BaywatchPipeline(config, scorer=scorer)
    report = resumed.run_records(
        records,
        shard_size=4,
        checkpoint_dir=checkpoint,
        resume=True,
    )
    assert report_signature(report) == report_signature(pipeline_report)


def test_worker_run_saves_the_serial_threshold_buckets(
    records, scorer, tmp_path
):
    # Worker tasks hand back the buckets they derive, so a run whose
    # every shard reaches the worker processes saves what a serial run
    # saves (with no buckets shipped back it saved no file at all).
    import json

    def saved_entries(engine, name):
        checkpoint = tmp_path / name
        BaywatchPipeline(
            PipelineConfig(**CONFIG), engine=engine, scorer=scorer
        ).run_records(records, shard_size=4, checkpoint_dir=str(checkpoint))
        payload = (checkpoint / "threshold-cache.json").read_text()
        return json.loads(payload)["entries"]

    serial = saved_entries(MapReduceEngine(), "serial")
    with MapReduceEngine(executor="processes", **WORKERS) as engine:
        workers = saved_entries(engine, "workers")
    assert serial
    assert workers == serial


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
    # Columnar ingestion with detection on a 2-worker engine, its task
    # inputs pickled into the worker processes: still the same report.
    from repro.sources.columnar import records_to_chunks

    with MapReduceEngine(**WORKERS) as engine:
        report = BaywatchPipeline(
            PipelineConfig(**CONFIG), engine=engine, scorer=scorer
        ).run_chunks(
            records_to_chunks(records, chunk_size=256),
            shard_size=4,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
    assert report_signature(report) == report_signature(pipeline_report)


def test_checkpoint_resumes_across_data_planes(
    records, scorer, pipeline_report, tmp_path
):
    # Records and chunks fold to bit-identical summaries, so the
    # sharded-run fingerprints agree: a checkpoint written through
    # run_records must resume through run_chunks (and finish with the
    # canonical report).
    from repro.sources.columnar import records_to_chunks

    checkpoint = str(tmp_path / "ckpt")
    with pytest.raises(IncompleteRunError):
        BaywatchPipeline(PipelineConfig(**CONFIG), scorer=scorer).run_records(
            records, shard_size=4, checkpoint_dir=checkpoint, max_shards=2
        )
    report = BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_chunks(
        records_to_chunks(records, chunk_size=128),
        shard_size=4,
        checkpoint_dir=checkpoint,
        resume=True,
    )
    assert report_signature(report) == report_signature(pipeline_report)


@pytest.fixture(scope="module")
def small_log(records, scorer, tmp_path_factory):
    """The trace as a proxy log on disk, and its serial report."""
    path = tmp_path_factory.mktemp("log") / "proxy.tsv"
    write_log(records, path)
    report = BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_chunks(read_log_chunks(path))
    return path, len(records), report


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_report_invariant_to_executor_shards_and_chunks(
    small_log, scorer, data
):
    # Input order is left out on purpose: ties in the URL sample break
    # by arrival order.
    path, n_records, expected = small_log
    # Shards cut the pairs that reach detection.
    n_pairs = dict((name, n) for name, n, _ in expected.funnel.steps)[
        PeriodicityDetectionStage.name
    ]
    chunk_size = data.draw(st.integers(1, n_records), label="chunk_size")
    shard_size = data.draw(st.integers(1, n_pairs), label="shard_size")
    report = BaywatchPipeline(
        PipelineConfig(**CONFIG), scorer=scorer
    ).run_chunks(
        read_log_chunks(path, chunk_size=chunk_size), shard_size=shard_size
    )
    assert report_signature(report) == report_signature(expected)
