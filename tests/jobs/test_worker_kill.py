"""A worker SIGKILLed mid-shard changes where detection ran, not what it found."""

import os
import signal
from functools import partial

from repro.filtering import BaywatchPipeline
from repro.jobs.detection import BeaconingDetectionJob
from repro.mapreduce.engine import MapReduceEngine
from repro.obs import MetricsRegistry, drain_spans, scoped_registry


class WorkerKillerDetectionJob(BeaconingDetectionJob):
    """SIGKILLs the first worker to reduce a victim pair (one atomic shot)."""

    def __init__(self, *args, marker_path, victims, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker_path = str(marker_path)
        self.victims = frozenset(victims)
        self._creator_pid = os.getpid()

    def reduce_partition(self, grouped):
        if os.getpid() != self._creator_pid and any(
            key in self.victims for key, _values in grouped
        ):
            try:
                os.close(os.open(self.marker_path, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().reduce_partition(grouped)


def test_worker_killed_mid_shard_matches_serial_run(
    enterprise, pipeline_config, tmp_path
):
    records, _truth = enterprise
    serial = BaywatchPipeline(
        pipeline_config, engine=MapReduceEngine()
    ).run_records(records)
    # Kill the worker that detects a reported pair, so a lost result
    # would show in the ranking.
    victims = {(case.source, case.destination) for case in serial.ranked_cases}
    marker = tmp_path / "killed"
    registry = MetricsRegistry()
    # Shards of 8 pairs reach the worker processes, not the inline path.
    with scoped_registry(registry), MapReduceEngine(
        n_workers=2, min_parallel_records=4, max_retries=2
    ) as engine:
        killed = BaywatchPipeline(
            pipeline_config,
            engine=engine,
            detection_job_factory=partial(
                WorkerKillerDetectionJob, marker_path=marker, victims=victims
            ),
        ).run_records(records, shard_size=8, checkpoint_dir=str(tmp_path / "ckpt"))
    drain_spans()  # the traced run buffered its spans globally
    assert marker.exists()
    assert dict(registry.counters())["mapreduce.pool_restarts"] >= 1
    assert killed.quarantined == [] and killed.ranked_cases
    assert killed.ranked_cases == serial.ranked_cases
    assert killed.funnel.steps == serial.funnel.steps
