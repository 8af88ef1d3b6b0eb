"""Tests for the persistent summary store."""

import numpy as np
import pytest

from repro.core.timeseries import ActivitySummary
from repro.jobs import SummaryStore

DAY = 86_400.0


def day_summary(day, pair=("mac1", "evil.com"), period=300.0):
    start = day * DAY
    return ActivitySummary.from_timestamps(
        pair[0], pair[1],
        [start + i * period for i in range(20)],
    )


@pytest.fixture
def store(tmp_path):
    return SummaryStore(tmp_path / "summaries")


class TestSummaryStore:
    def test_append_and_load_day(self, store):
        assert store.append_day(0, [day_summary(0)]) == 1
        loaded = store.load_day(0)
        assert len(loaded) == 1
        assert loaded[0].pair == ("mac1", "evil.com")

    def test_days_listing(self, store):
        store.append_day(2, [day_summary(2)])
        store.append_day(0, [day_summary(0)])
        assert store.days() == [0, 2]

    def test_missing_day_is_empty(self, store):
        assert store.load_day(7) == []

    def test_reading_an_absent_day_does_not_create_it(self, store):
        store.append_day(0, [day_summary(0)])
        assert store.load_day(5) == []
        assert store.days() == [0]
        assert not store.has_day(5)
        window = store.load_window(window_days=3)
        assert [summary.pair for summary in window] == [
            ("mac1", "evil.com")
        ]

    def test_window_merges_per_pair(self, store):
        for day in range(3):
            store.append_day(day, [day_summary(day)])
        window = store.load_window(end_day=2, window_days=3)
        assert len(window) == 1
        assert window[0].event_count == 60

    def test_window_clips_to_available_days(self, store):
        store.append_day(0, [day_summary(0)])
        store.append_day(1, [day_summary(1)])
        window = store.load_window(end_day=1, window_days=10)
        assert window[0].event_count == 40

    def test_window_excludes_out_of_range_days(self, store):
        for day in range(5):
            store.append_day(day, [day_summary(day)])
        window = store.load_window(end_day=4, window_days=2)
        assert window[0].event_count == 40  # days 3 and 4 only

    def test_window_rescales(self, store):
        store.append_day(0, [day_summary(0)])
        window = store.load_window(end_day=0, window_days=1, time_scale=60.0)
        assert window[0].time_scale == 60.0

    def test_multiple_pairs_sorted(self, store):
        store.append_day(0, [
            day_summary(0, pair=("mac2", "b.com")),
            day_summary(0, pair=("mac1", "a.com")),
        ])
        window = store.load_window(end_day=0, window_days=1)
        assert [s.pair for s in window] == [("mac1", "a.com"), ("mac2", "b.com")]

    def test_default_end_day_is_latest(self, store):
        store.append_day(0, [day_summary(0)])
        store.append_day(3, [day_summary(3)])
        window = store.load_window(window_days=1)
        assert window[0].first_timestamp >= 3 * DAY

    def test_clear(self, store):
        store.append_day(0, [day_summary(0)])
        store.append_day(3, [day_summary(3)])
        store.clear()
        assert store.load_day(0) == []
        assert store.days() == [] and not store.has_day(0) and not store.has_day(3)
        # A resume loop that skips ingested days re-ingests day 3.
        store.append_day(3, [day_summary(3)])
        window = store.load_window(window_days=1)
        assert [(s.first_timestamp, s.event_count) for s in window] == [
            (3 * DAY, 20)
        ]

    def test_evict_before_drops_old_days(self, store):
        for day in range(4):
            store.append_day(day, [day_summary(day)])
        assert store.evict_before(2) == 2
        assert store.days() == [2, 3]
        assert store.load_day(0) == []
        assert store.load_day(1) == []
        # Surviving days are intact.
        assert store.load_day(2)[0].event_count == 20

    def test_evict_before_is_idempotent(self, store):
        store.append_day(0, [day_summary(0)])
        store.append_day(1, [day_summary(1)])
        assert store.evict_before(1) == 1
        assert store.evict_before(1) == 0
        assert store.days() == [1]

    def test_fused_window_matches_composed_rescale(self, store):
        from repro.core.timeseries import merge, rescale

        for day in range(3):
            store.append_day(day, [
                day_summary(day),
                day_summary(day, pair=("mac2", "b.com"), period=450.0),
            ])
        fused = store.load_window(end_day=2, window_days=3, time_scale=600.0)
        composed = {}
        for day in range(3):
            for summary in store.load_day(day):
                composed.setdefault(summary.pair, []).append(summary)
        expected = sorted(
            (
                merge([
                    rescale(s, 600.0)
                    for s in sorted(group, key=lambda s: s.first_timestamp)
                ])
                for group in composed.values()
            ),
            key=lambda s: s.pair,
        )
        assert fused == expected

    def test_empty_store_window(self, store):
        assert store.load_window() == []

    def test_detection_from_stored_window(self, store):
        """End to end: raw logs extracted once, detection from the store."""
        from repro.core import DetectorConfig, PeriodicityDetector

        for day in range(3):
            store.append_day(day, [day_summary(day)])
        window = store.load_window(window_days=3, time_scale=60.0)
        detector = PeriodicityDetector(DetectorConfig(seed=0))
        result = detector.detect_summary(window[0])
        assert result.periodic
        assert result.dominant_period == pytest.approx(300.0, rel=0.05)

    def test_has_day(self, store):
        assert not store.has_day(0)
        store.append_day(0, [day_summary(0)])
        assert store.has_day(0)
        assert not store.has_day(1)

    def test_append_replace_is_idempotent(self, store):
        """A resumed ingestion re-writing a day must not double counts."""
        store.append_day(0, [day_summary(0)])
        store.append_day(0, [day_summary(0)], replace=True)
        loaded = store.load_day(0)
        assert len(loaded) == 1
        assert loaded[0].event_count == 20

    def test_failed_replace_keeps_the_previous_day(self, store):
        def interrupted():
            yield day_summary(0, pair=("mac2", "b.com"))
            raise RuntimeError("extraction died")

        store.append_day(0, [day_summary(0)])
        with pytest.raises(RuntimeError, match="extraction died"):
            store.append_day(0, interrupted(), replace=True)
        assert store.has_day(0)
        assert store.load_day(0) == [day_summary(0)]
        assert [path.name for path in store.root.iterdir()] == ["day-00000"]

    def test_empty_day_counts_as_ingested(self, store):
        assert store.append_day(4, []) == 0
        assert store.has_day(4) and store.days() == [4]
        assert store.load_day(4) == [] and store.load_window() == []

    def test_append_without_replace_accumulates(self, store):
        store.append_day(0, [day_summary(0, pair=("mac1", "a.com"))])
        store.append_day(0, [day_summary(0, pair=("mac2", "b.com"))])
        assert len(store.load_day(0)) == 2

    def test_negative_day_rejected(self, store):
        with pytest.raises(ValueError):
            store.append_day(-1, [day_summary(0)])

    def test_has_day_does_not_scan_the_day_listing(self, store, monkeypatch):
        """The probe must stay O(1): no enumeration of every day."""
        store.append_day(0, [day_summary(0)])
        monkeypatch.setattr(
            store, "days",
            lambda: pytest.fail("has_day must not enumerate days"),
        )
        assert store.has_day(0)
        assert not store.has_day(1)


class TestPackedCodec:
    def summaries(self):
        return [
            day_summary(0),
            day_summary(0, pair=("mac2", "ünïcødé.example")),
            # Single-event summary: empty interval tuple.
            ActivitySummary("m", "d", 1.0, 123.456, (), ("http://d/x?y=1",)),
        ]

    def test_pack_unpack_roundtrip(self):
        from repro.jobs.summary_store import pack_summaries, unpack_summaries

        originals = self.summaries()
        restored = unpack_summaries(pack_summaries(originals))
        assert restored == originals
        # Same field types as a normally constructed summary.
        for summary in restored:
            assert summary.intervals.dtype == np.float64
            assert not summary.intervals.flags.writeable
        assert isinstance(restored[0].urls, tuple)

    def test_pack_empty_batch(self):
        from repro.jobs.summary_store import pack_summaries, unpack_summaries

        assert unpack_summaries(pack_summaries([])) == []

    def test_unknown_pack_version_rejected(self):
        import struct

        from repro.jobs.summary_store import unpack_summaries

        with pytest.raises(ValueError, match="version"):
            unpack_summaries(struct.pack("<HQQ", 99, 0, 0))


class TestResumedExtractionIdempotency:
    """Interrupt mid-``append_day``, resume with ``replace=True``.

    A resumed extraction must not double interval counts: the partial
    day left by the interrupt is cleared before the full day lands.
    """

    @staticmethod
    def summaries():
        from repro.sources.proxy import ProxyLogRecord, records_to_summaries

        records = [
            ProxyLogRecord(
                timestamp=float(30 * i),
                source_mac=f"aa:bb:cc:00:00:{i % 3:02x}",
                source_ip=f"10.0.0.{i % 3}",
                destination=f"site{i % 5}.example.com",
                url=f"http://site{i % 5}.example.com/p?q={i}",
                status=200,
                bytes_sent=100,
            )
            for i in range(240)
        ]
        return records_to_summaries(records)

    def test_resume_with_replace_does_not_double_counts(self, store):
        summaries = self.summaries()
        # First attempt dies mid-append: only a prefix of the day's
        # summaries made it to disk before the interrupt.
        store.append_day(0, summaries[: len(summaries) // 2])
        assert store.has_day(0)
        # Resume re-extracts the same day and replaces it.
        written = store.append_day(0, summaries, replace=True)
        assert written == len(summaries)
        loaded = store.load_day(0)
        assert sorted(loaded, key=lambda s: s.pair) == sorted(
            summaries, key=lambda s: s.pair
        )
        total_events = sum(s.event_count for s in loaded)
        assert total_events == 240

    def test_blind_reappend_would_double_counts(self, store):
        # The hazard replace=True exists to prevent: re-appending an
        # already-ingested day doubles every pair's history.
        summaries = self.summaries()
        store.append_day(0, summaries)
        store.append_day(0, summaries)
        merged = store.load_window(end_day=0, window_days=1)
        doubled = sum(s.event_count for s in merged)
        assert doubled > sum(s.event_count for s in summaries)
