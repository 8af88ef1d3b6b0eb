"""Interrupt→resume discipline for per-shard provenance checkpoints.

A sharded run writes ``provenance-NNNNN.jsonl`` next to each shard
checkpoint (before the shard file, which is the commit point), and a
resumed run reloads those instead of re-deriving verdicts.  These tests
pin the crash-tolerance contract: torn trailing lines are skipped,
resumed shards never duplicate verdict records, and the merged store of
an interrupted-then-resumed run is byte-identical to an uninterrupted
one.
"""

from pathlib import Path

import pytest

from repro.filtering import BaywatchPipeline, PipelineConfig
from repro.jobs import IncompleteRunError
from repro.jobs.checkpoint import CheckpointStore
from repro.lm.domains import default_scorer
from repro.mapreduce import MapReduceEngine
from repro.obs import (
    PROVENANCE_FILE,
    ProvenancePolicy,
    ProvenanceSchemaError,
    read_provenance,
)
from repro.obs.provenance import records_from_jsonl
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec

CONFIG = dict(
    local_whitelist_threshold=0.2,
    ranking_percentile=0.5,
    provenance=ProvenancePolicy(sample_early_drops=1.0),
)


@pytest.fixture(scope="module")
def records():
    config = EnterpriseConfig(
        n_hosts=10,
        n_sites=20,
        duration=86_400.0 / 8,
        implants=(ImplantSpec("zbot", "zeus", n_infected=1, period=120.0),),
        seed=7,
    )
    trace, _truth = EnterpriseSimulator(config).generate()
    return trace


@pytest.fixture(scope="module")
def scorer():
    return default_scorer()


def engine_pipeline(scorer):
    """The pipeline with detection on a serial engine."""
    return BaywatchPipeline(
        PipelineConfig(**CONFIG), engine=MapReduceEngine(), scorer=scorer
    )


@pytest.fixture(scope="module")
def uninterrupted(records, scorer):
    return engine_pipeline(scorer).run_records(records, shard_size=4)


def signature(prov_records):
    return [
        (r.source, r.destination, r.stage, r.kept, r.reason, r.near_miss,
         tuple(sorted(r.values.items(), key=lambda kv: kv[0])))
        for r in prov_records
    ]


def interrupt(records, scorer, checkpoint):
    with pytest.raises(IncompleteRunError):
        engine_pipeline(scorer).run_records(
            records, shard_size=4, checkpoint_dir=str(checkpoint),
            max_shards=2,
        )


def resume(records, scorer, checkpoint):
    return engine_pipeline(scorer).run_records(
        records, shard_size=4, checkpoint_dir=str(checkpoint), resume=True
    )


def test_resume_tolerates_torn_trailing_provenance_line(
    records, scorer, uninterrupted, tmp_path
):
    checkpoint = tmp_path / "ckpt"
    interrupt(records, scorer, checkpoint)
    shards = sorted(checkpoint.glob("provenance-*.jsonl"))
    assert shards, "interrupted run left no provenance shards"
    # Simulate a writer killed mid-append: a torn, undecodable tail.
    with shards[0].open("a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "source": "tru')
    report = resume(records, scorer, checkpoint)
    assert signature(report.provenance) == signature(uninterrupted.provenance)


def test_resumed_shards_do_not_duplicate_verdicts(
    records, scorer, tmp_path
):
    checkpoint = tmp_path / "ckpt"
    interrupt(records, scorer, checkpoint)
    report = resume(records, scorer, checkpoint)
    seen = set()
    for record in report.provenance:
        key = (record.source, record.destination, record.stage)
        assert key not in seen, f"duplicate verdict record {key}"
        seen.add(key)


def test_merged_store_matches_uninterrupted_run(
    records, scorer, uninterrupted, tmp_path
):
    checkpoint = tmp_path / "ckpt"
    interrupt(records, scorer, checkpoint)
    report = resume(records, scorer, checkpoint)
    assert signature(report.provenance) == signature(uninterrupted.provenance)
    # The merged on-disk store round-trips to the same verdicts.
    merged = read_provenance(checkpoint)
    assert signature(merged) == signature(uninterrupted.provenance)
    # Without the merged file (a run interrupted before the final
    # merge), the per-shard union still yields every detection-phase
    # verdict — the funnel-stage records only exist in the merged store.
    (checkpoint / PROVENANCE_FILE).unlink()
    union = read_provenance(checkpoint)
    detection_only = [
        r for r in uninterrupted.provenance
        if r.stage in ("spectral", "pruning", "acf")
    ]
    assert signature(union) == signature(detection_only)


def test_missing_provenance_shard_is_recomputed_on_resume(
    records, scorer, uninterrupted, tmp_path
):
    # An older checkpoint (or a crash between the two writes) can leave
    # a shard file without its provenance sidecar; resume re-derives the
    # verdicts from the checkpointed detections instead of dropping them.
    checkpoint = tmp_path / "ckpt"
    interrupt(records, scorer, checkpoint)
    shards = sorted(checkpoint.glob("provenance-*.jsonl"))
    assert shards
    shards[0].unlink()
    report = resume(records, scorer, checkpoint)
    assert signature(report.provenance) == signature(uninterrupted.provenance)


def test_newer_schema_provenance_shard_fails_with_clear_error(tmp_path):
    path = tmp_path / "provenance.jsonl"
    path.write_text(
        '{"v": 99, "source": "h", "destination": "d", "stage": "acf", '
        '"kept": true}\n',
        encoding="utf-8",
    )
    with pytest.raises(ProvenanceSchemaError, match="v99"):
        read_provenance(path)


def test_corrupt_provenance_record_fails_with_clear_error():
    # JSON-decodable but not a verdict record: that is corruption, not a
    # torn line, and must fail loudly rather than silently dropping.
    with pytest.raises(ProvenanceSchemaError):
        records_from_jsonl('{"v": 1, "unexpected": true}\n')


def test_clear_removes_provenance_artifacts(records, scorer, tmp_path):
    checkpoint = tmp_path / "ckpt"
    interrupt(records, scorer, checkpoint)
    store = CheckpointStore(str(checkpoint))
    assert sorted(checkpoint.glob("provenance-*.jsonl"))
    store.clear()
    assert not sorted(checkpoint.glob("provenance-*.jsonl"))
    assert not (checkpoint / PROVENANCE_FILE).exists()
