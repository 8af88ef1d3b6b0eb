"""Shared-memory summary arena: zero-copy parity and segment hygiene.

Two contracts under test:

1. *Parity* — a :class:`SummaryView` read out of the arena is
   value-identical to the :class:`ActivitySummary` that was packed in
   (endpoints, time scale, intervals, URLs, and bit-identical
   ``timestamps()``).
2. *Hygiene* — the creator always unlinks the segment, even when a
   worker is SIGKILLed mid-shard: ``/dev/shm`` must hold no
   ``baywatch-*`` segments after a sharded run returns.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.timeseries import ActivitySummary
from repro.filtering import PipelineConfig
from repro.jobs import BaywatchRunner
from repro.jobs.detection import BeaconingDetectionJob
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.shm import SEGMENT_PREFIX, SummaryArena
from repro.obs import MetricsRegistry, drain_spans, scoped_registry
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec


def make_summaries():
    return [
        ActivitySummary.from_timestamps(
            "aa:bb:cc:00:00:01",
            "c2.example.com",
            [0.0, 60.0, 120.0, 181.0, 240.0],
            urls=("http://c2.example.com/a", "http://c2.example.com/b?q=1"),
        ),
        ActivitySummary.from_timestamps(
            "aa:bb:cc:00:00:02",
            "bücher.example.com",  # non-ASCII: utf-8 blob offsets matter
            [5.0, 305.0],
            time_scale=30.0,
        ),
        ActivitySummary.from_timestamps(
            "aa:bb:cc:00:00:03",
            "single.example.com",
            [42.0],  # no intervals at all
            urls=("http://single.example.com/",),
        ),
    ]


def baywatch_segments():
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        pytest.skip("no /dev/shm on this platform")
    return sorted(n for n in names if n.startswith(SEGMENT_PREFIX))


class TestSummaryArena:
    def test_views_materialize_to_the_packed_summaries(self):
        summaries = make_summaries()
        with SummaryArena.pack(summaries) as arena:
            assert len(arena) == len(summaries)
            assert [v.materialize() for v in arena.views()] == summaries

    def test_view_fields_match_without_materializing(self):
        summaries = make_summaries()
        with SummaryArena.pack(summaries) as arena:
            for view, summary in zip(arena.views(), summaries):
                assert view.pair == summary.pair
                assert view.source == summary.source
                assert view.destination == summary.destination
                assert view.time_scale == summary.time_scale
                assert view.first_timestamp == summary.first_timestamp
                assert view.event_count == summary.event_count
                assert view.urls == summary.urls
                assert tuple(view.interval_array()) == summary.intervals

    def test_timestamps_bit_identical(self):
        summaries = make_summaries()
        with SummaryArena.pack(summaries) as arena:
            for view, summary in zip(arena.views(), summaries):
                ours = view.timestamps()
                theirs = summary.timestamps()
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)

    def test_worker_side_attach_reads_the_same_data(self):
        summaries = make_summaries()
        arena = SummaryArena.pack(summaries)
        try:
            attached = SummaryArena.attach(arena.handle())
            try:
                assert [
                    v.materialize() for v in attached.views()
                ] == summaries
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_view_index_out_of_range(self):
        with SummaryArena.pack(make_summaries()) as arena:
            with pytest.raises(IndexError):
                arena.view(len(arena))
            with pytest.raises(IndexError):
                arena.view(-1)

    def test_creator_unlink_removes_the_segment(self):
        arena = SummaryArena.pack(make_summaries())
        name = arena.handle().name
        assert name.removeprefix("/") in {
            s for s in baywatch_segments()
        } or name in baywatch_segments()
        arena.close()
        arena.unlink()
        assert name not in baywatch_segments()
        arena.unlink()  # idempotent

    def test_attached_copy_never_unlinks(self):
        arena = SummaryArena.pack(make_summaries())
        try:
            attached = SummaryArena.attach(arena.handle())
            attached.close()
            attached.unlink()  # non-owner: must be a no-op
            # The creator can still read everything.
            assert arena.view(0).pair == make_summaries()[0].pair
        finally:
            arena.close()
            arena.unlink()

    def test_context_manager_cleans_up(self):
        before = baywatch_segments()
        with SummaryArena.pack(make_summaries()) as arena:
            name = arena.handle().name
            assert arena.view(1).time_scale == 30.0
        assert name not in baywatch_segments()
        assert baywatch_segments() == before


class WorkerKillerDetectionJob(BeaconingDetectionJob):
    """A detection job that SIGKILLs exactly one worker, mid-shard —
    the death the arena lifecycle must absorb without leaking the
    shared segment.

    Follows :class:`repro.mapreduce.testing.WorkerKillerJob` in firing
    only from a process other than the creator's, but claims its single
    shot with an atomic ``O_CREAT|O_EXCL`` marker: a read-bump-write
    counter file races between concurrent workers (a reader can catch
    the file mid-truncate and see zero), which would re-kill on every
    retry until the engine gives up.
    """

    def __init__(self, *args, marker_path, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker_path = str(marker_path)
        self._creator_pid = os.getpid()

    def reduce_partition(self, grouped):
        # The engine calls reduce_partition once per partition; the
        # job's reduce is only its one-group form, so the hook sits here.
        if os.getpid() != self._creator_pid:
            try:
                fd = os.open(
                    self.marker_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return super().reduce_partition(grouped)


@pytest.fixture(scope="module")
def trace():
    config = EnterpriseConfig(
        n_hosts=6,
        n_sites=10,
        duration=86_400.0 / 12,
        implants=(ImplantSpec("zbot", "zeus", n_infected=1, period=120.0),),
        seed=5,
    )
    records, _truth = EnterpriseSimulator(config).generate()
    return records


class TestSegmentHygiene:
    # Threshold high enough that most pairs survive the local whitelist
    # — detection shards must be big enough to engage worker processes
    # (and therefore the arena attach path) rather than falling back to
    # the serial in-process loop.
    CONFIG = dict(
        local_whitelist_threshold=0.9,
        ranking_percentile=0.5,
        use_shared_memory=True,
    )

    def test_sharded_shm_run_releases_all_segments(self, trace, tmp_path):
        assert baywatch_segments() == []
        runner = BaywatchRunner(
            PipelineConfig(**self.CONFIG),
            engine=MapReduceEngine(n_workers=2, min_parallel_records=4),
        )
        report = runner.run_sharded(
            trace, shard_size=8, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert report.population_size > 0
        assert baywatch_segments() == []

    def test_worker_killed_mid_shard_leaks_no_segments(self, trace, tmp_path):
        assert baywatch_segments() == []
        marker = tmp_path / "killed"

        def factory(*args, **kwargs):
            return WorkerKillerDetectionJob(
                *args, marker_path=marker, **kwargs
            )

        registry = MetricsRegistry()
        with scoped_registry(registry):
            with MapReduceEngine(
                n_workers=2, min_parallel_records=4, max_retries=2
            ) as engine:
                runner = BaywatchRunner(
                    PipelineConfig(**self.CONFIG),
                    engine=engine,
                    detection_job_factory=factory,
                )
                report = runner.run_sharded(
                    trace, shard_size=8, checkpoint_dir=str(tmp_path / "ckpt")
                )
        # With telemetry enabled the sharded run installed a trace
        # context; clear the global span buffer so this test leaves no
        # records behind for later telemetry-export tests to pick up.
        drain_spans()
        # The kill actually happened, the engine recovered, and the
        # creator still unlinked every arena segment on the way out.
        assert marker.exists()
        assert dict(registry.counters())["mapreduce.pool_restarts"] >= 1
        assert report.population_size > 0
        assert baywatch_segments() == []

    def test_shm_report_matches_pickled_payload_report(self, trace):
        plain_config = dict(self.CONFIG, use_shared_memory=False)
        shm = BaywatchRunner(PipelineConfig(**self.CONFIG)).run(trace)
        plain = BaywatchRunner(PipelineConfig(**plain_config)).run(trace)
        assert [
            (c.source, c.destination, c.rank_score) for c in shm.ranked_cases
        ] == [
            (c.source, c.destination, c.rank_score)
            for c in plain.ranked_cases
        ]
        assert shm.funnel.steps == plain.funnel.steps
