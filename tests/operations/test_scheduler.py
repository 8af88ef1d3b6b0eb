"""Tests for the multi-timescale operator (Section X)."""

import pytest

from repro.filtering import PipelineConfig
from repro.operations import Cadence, MultiTimescaleOperator
from repro.operations.scheduler import DAY
from repro.synthetic import (
    EnterpriseConfig,
    EnterpriseSimulator,
    ImplantSpec,
)


@pytest.fixture(scope="module")
def three_day_run():
    """One 3-day trace fed day by day.

    The fast implant (120 s) is caught daily; the slow one beacons
    every 8 hours — three events per day are below the detector's
    four-event minimum, so only the merged 3-day coarse pass can see
    enough history.
    """
    implants = (
        ImplantSpec("fast", "zeus", n_infected=1, period=120.0),
        ImplantSpec("slow", "zeus", n_infected=1, period=28_800.0),
    )
    config = EnterpriseConfig(
        n_hosts=15,
        n_sites=30,
        duration=3 * DAY,
        session_rate=0.3 / 3600.0,
        implants=implants,
        seed=400,
    )
    records, truth = EnterpriseSimulator(config).generate()
    operator = MultiTimescaleOperator(
        PipelineConfig(local_whitelist_threshold=0.25, ranking_percentile=0.0),
        cadences=(
            Cadence("daily", every_days=1, window_days=1, time_scale=1.0),
            Cadence("3day", every_days=3, window_days=3, time_scale=60.0),
        ),
    )
    for day in range(3):
        start, end = day * DAY, (day + 1) * DAY
        operator.ingest_day(
            [r for r in records if start <= r.timestamp < end]
        )
    return operator, [truth]


class TestMultiTimescaleOperator:
    def test_daily_fires_every_day(self, three_day_run):
        operator, _truths = three_day_run
        daily = [run for run in operator.runs if run[0] == "daily"]
        assert [day for _n, day, _r in daily] == [1, 2, 3]

    def test_coarse_cadence_fires_on_schedule(self, three_day_run):
        operator, _truths = three_day_run
        coarse = [run for run in operator.runs if run[0] == "3day"]
        assert [day for _n, day, _r in coarse] == [3]

    def test_fast_implants_reported(self, three_day_run):
        operator, truths = three_day_run
        reported = set(operator.reported_destinations())
        fast = {
            d for t in truths
            for d, spec in t.implant_by_destination.items()
            if spec.name == "fast"
        }
        assert fast & reported

    def test_slow_implant_caught_by_coarse_pass(self, three_day_run):
        """A 4-hour beacon (6 events/day) needs the merged window."""
        operator, truths = three_day_run
        slow = {
            d for t in truths
            for d, spec in t.implant_by_destination.items()
            if spec.name == "slow"
        }
        coarse_reports = [
            case.destination
            for name, _day, report in operator.runs
            if name == "3day"
            for case in report.ranked_cases
        ]
        assert slow & set(coarse_reports)

    def test_novelty_shared_across_cadences(self, three_day_run):
        operator, _truths = three_day_run
        reported = operator.reported_destinations()
        assert len(reported) == len(set(reported))

    def test_days_fed_counter(self, three_day_run):
        operator, _truths = three_day_run
        assert operator.days_fed == 3

    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            Cadence("bad", every_days=0, window_days=1, time_scale=1.0)

    def test_requires_a_cadence(self):
        with pytest.raises(ValueError):
            MultiTimescaleOperator(cadences=())

    def test_cadence_finer_than_the_fold_is_refused(self):
        # The fold is 1 s, so a 0.5 s cadence cannot be honoured.
        fine = Cadence("fine", every_days=1, window_days=2, time_scale=0.5)
        with pytest.raises(ValueError, match="analysis_time_scale"):
            MultiTimescaleOperator(cadences=(fine,))


def _toy_day(day, period=600.0):
    from repro.sources.proxy import ProxyLogRecord

    start = day * DAY
    return [
        ProxyLogRecord(
            timestamp=start + i * period,
            source_mac="mac1",
            source_ip="10.0.0.1",
            destination="c2.example.net",
            url="/poll",
        )
        for i in range(int(DAY / period))
    ]


class TestRollingStore:
    """The operator persists each day and evicts beyond its window."""

    def _operator(self, tmp_path, window_days=2):
        from repro.jobs import SummaryStore

        store = SummaryStore(tmp_path / "summaries")
        operator = MultiTimescaleOperator(
            PipelineConfig(ranking_percentile=0.0),
            cadences=(
                Cadence(
                    "daily",
                    every_days=1,
                    window_days=window_days,
                    time_scale=60.0,
                ),
            ),
            store=store,
        )
        return operator, store

    def test_each_day_lands_in_the_store(self, tmp_path):
        operator, store = self._operator(tmp_path)
        operator.ingest_day(_toy_day(0))
        assert store.days() == [0]
        assert store.load_day(0)[0].pair == ("mac1", "c2.example.net")

    def test_old_days_are_evicted(self, tmp_path):
        operator, store = self._operator(tmp_path, window_days=2)
        for day in range(4):
            operator.ingest_day(_toy_day(day))
        assert store.days() == [2, 3]
        assert operator.days_fed == 4

    def test_refed_day_is_idempotent(self, tmp_path):
        operator, store = self._operator(tmp_path)
        operator.ingest_day(_toy_day(0))
        before = store.load_day(0)[0].event_count
        # A crash-replayed day overwrites rather than doubles.
        store.append_day(0, store.load_day(0), replace=True)
        assert store.load_day(0)[0].event_count == before

    def test_in_memory_buffer_stays_bounded(self, tmp_path):
        operator, _store = self._operator(tmp_path, window_days=2)
        for day in range(5):
            operator.ingest_day(_toy_day(day))
        assert len(operator._daily_summaries) == 2
