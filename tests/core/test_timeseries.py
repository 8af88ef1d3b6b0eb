"""Unit and property tests for repro.core.timeseries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.timeseries import (
    ActivitySummary,
    bin_series,
    intervals_from_timestamps,
    merge,
    merge_rescaled,
    rescale,
    timestamps_from_intervals,
)


class TestIntervalConversions:
    def test_intervals_from_timestamps(self):
        out = intervals_from_timestamps([0.0, 10.0, 25.0])
        assert out.tolist() == [10.0, 15.0]

    def test_unsorted_input_is_sorted_first(self):
        out = intervals_from_timestamps([25.0, 0.0, 10.0])
        assert out.tolist() == [10.0, 15.0]

    def test_fewer_than_two_events(self):
        assert intervals_from_timestamps([5.0]).size == 0
        assert intervals_from_timestamps([]).size == 0

    def test_roundtrip(self):
        ts = [3.0, 8.0, 20.0, 21.5]
        intervals = intervals_from_timestamps(ts)
        back = timestamps_from_intervals(3.0, intervals)
        assert np.allclose(back, ts)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            timestamps_from_intervals(0.0, [-1.0])

    timestamps = st.lists(
        st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100
    )

    @given(timestamps)
    def test_roundtrip_property(self, ts):
        ts_sorted = sorted(ts)
        intervals = intervals_from_timestamps(ts_sorted)
        back = timestamps_from_intervals(ts_sorted[0], intervals)
        assert np.allclose(back, ts_sorted, atol=1e-6)


class TestBinSeries:
    def test_counts_events_per_slot(self):
        signal = bin_series([0.0, 0.5, 1.2, 3.9], time_scale=1.0)
        assert signal.tolist() == [2.0, 1.0, 0.0, 1.0]

    def test_binary_clips_counts(self):
        signal = bin_series([0.0, 0.5, 1.2], time_scale=1.0, binary=True)
        assert signal.tolist() == [1.0, 1.0]

    def test_span_extends_window(self):
        signal = bin_series([2.0], time_scale=1.0, span=(0.0, 4.0))
        assert signal.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_span_filters_outside_events(self):
        signal = bin_series([0.0, 10.0], time_scale=1.0, span=(0.0, 2.0))
        assert signal.sum() == 1.0

    def test_span_oob_raise_rejects_outside_events(self):
        with pytest.raises(ValueError, match="outside the span"):
            bin_series(
                [0.0, 10.0], time_scale=1.0, span=(0.0, 2.0), oob="raise"
            )

    def test_span_oob_raise_accepts_in_span_events(self):
        signal = bin_series(
            [0.0, 1.0, 2.0], time_scale=1.0, span=(0.0, 2.0), oob="raise"
        )
        assert signal.tolist() == [1.0, 1.0, 1.0]

    def test_invalid_oob_policy(self):
        with pytest.raises(ValueError):
            bin_series([1.0], time_scale=1.0, oob="fold")

    def test_slot_boundary_is_half_open(self):
        # An event exactly on a slot boundary belongs to the upper slot.
        signal = bin_series([1.0], time_scale=1.0, span=(0.0, 3.5))
        assert signal.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_end_boundary_event_lands_in_final_slot(self):
        # The covered window is the closed [start, end]: an event at
        # exactly ``end`` counts (it is not folded or dropped).
        signal = bin_series([2.0], time_scale=1.0, span=(0.0, 2.0))
        assert signal.tolist() == [0.0, 0.0, 1.0]

    def test_empty_without_span(self):
        assert bin_series([], time_scale=1.0).size == 0

    def test_total_count_preserved(self, rng):
        ts = np.sort(rng.uniform(0, 1000, size=137))
        signal = bin_series(ts, time_scale=7.0)
        assert signal.sum() == 137

    def test_invalid_time_scale(self):
        with pytest.raises(ValueError):
            bin_series([1.0], time_scale=0.0)


class TestActivitySummary:
    def make(self, **kwargs):
        defaults = dict(
            source="02:00:00:00:00:01",
            destination="evil.example.com",
            timestamps=[0.0, 60.0, 120.0, 180.0],
        )
        defaults.update(kwargs)
        return ActivitySummary.from_timestamps(**defaults)

    def test_from_timestamps_basic(self):
        summary = self.make()
        assert summary.event_count == 4
        assert summary.duration == 180.0
        assert summary.intervals == (60.0, 60.0, 60.0)

    def test_quantizes_to_time_scale(self):
        summary = ActivitySummary.from_timestamps(
            "s", "d", [0.4, 60.7, 121.2], time_scale=1.0
        )
        assert summary.intervals == (60.0, 61.0)

    def test_timestamps_roundtrip(self):
        summary = self.make()
        assert np.allclose(summary.timestamps(), [0.0, 60.0, 120.0, 180.0])

    def test_signal_length(self):
        summary = self.make()
        signal = summary.signal()
        assert signal.size == 181
        assert signal.sum() == 4

    def test_nonzero_intervals_drop_zeros(self):
        summary = ActivitySummary(
            source="s",
            destination="d",
            time_scale=1.0,
            first_timestamp=0.0,
            intervals=(0.0, 5.0, 0.0, 5.0),
        )
        assert summary.nonzero_intervals().tolist() == [5.0, 5.0]

    def test_empty_timestamps_rejected(self):
        with pytest.raises(ValueError):
            ActivitySummary.from_timestamps("s", "d", [])

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ActivitySummary(
                source="s",
                destination="d",
                time_scale=1.0,
                first_timestamp=0.0,
                intervals=(-1.0,),
            )

    def test_urls_preserved(self):
        summary = self.make(urls=["/a", "/b"])
        assert summary.urls == ("/a", "/b")


class TestRescale:
    def test_rescale_to_coarser(self):
        summary = ActivitySummary.from_timestamps(
            "s", "d", [0.0, 61.0, 121.0, 181.0], time_scale=1.0
        )
        coarse = rescale(summary, 60.0)
        assert coarse.time_scale == 60.0
        # Slots floor(t / 60): 0, 1, 2, 3.
        assert coarse.intervals == (60.0, 60.0, 60.0)

    def test_rescale_same_scale_is_identity(self):
        summary = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0])
        assert rescale(summary, 1.0) is summary

    def test_rescale_to_finer_rejected(self):
        summary = ActivitySummary.from_timestamps(
            "s", "d", [0.0, 60.0], time_scale=60.0
        )
        with pytest.raises(ValueError, match="finer"):
            rescale(summary, 1.0)

    def test_event_count_preserved(self, rng):
        ts = np.sort(rng.uniform(0, 10_000, size=50))
        summary = ActivitySummary.from_timestamps("s", "d", ts)
        coarse = rescale(summary, 300.0)
        assert coarse.event_count == summary.event_count


class TestMerge:
    def test_merges_two_days(self):
        day1 = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0])
        day2 = ActivitySummary.from_timestamps("s", "d", [86400.0, 86460.0])
        merged = merge([day1, day2])
        assert merged.event_count == 4
        assert merged.duration == 86460.0

    def test_single_summary_identity(self):
        day = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0])
        assert merge([day]) is day

    def test_rejects_different_pairs(self):
        a = ActivitySummary.from_timestamps("s", "d1", [0.0, 60.0])
        b = ActivitySummary.from_timestamps("s", "d2", [0.0, 60.0])
        with pytest.raises(ValueError, match="different pairs"):
            merge([a, b])

    def test_rejects_different_scales(self):
        a = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0], time_scale=1.0)
        b = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0], time_scale=60.0)
        with pytest.raises(ValueError, match="time scales"):
            merge([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge([])

    def test_urls_concatenated(self):
        a = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0], urls=["/a"])
        b = ActivitySummary.from_timestamps("s", "d", [120.0, 180.0], urls=["/b"])
        assert merge([a, b]).urls == ("/a", "/b")


class TestMergeRescaled:
    """The fused cadence fast path must equal rescale-then-merge exactly."""

    def _days(self, seed=0, n_days=4, time_scale=60.0):
        rng = np.random.default_rng(seed)
        day = 86_400.0
        return [
            ActivitySummary.from_timestamps(
                "mac1", "evil.com",
                np.sort(rng.uniform(index * day, (index + 1) * day, size=50)),
                time_scale=time_scale,
                urls=[f"/d{index}"],
            )
            for index in range(n_days)
        ]

    def test_bitwise_matches_composed_path(self):
        days = self._days()
        fused = merge_rescaled(days, 600.0)
        composed = merge([rescale(s, 600.0) for s in days])
        # Frozen-dataclass equality compares every field, so this is a
        # bit-exact check on the interval tuples too.
        assert fused == composed

    def test_skewed_event_counts_match_composed_path(self):
        # One busy day among near-empty ones makes the padded row grid
        # too sparse, so the per-summary cumsum path runs instead.
        busy = self._days(seed=3, n_days=1)[0]
        quiet = [
            ActivitySummary.from_timestamps(
                "mac1", "evil.com", [index * 86_400.0 + 5.0],
                time_scale=60.0,
            )
            for index in range(1, 6)
        ]
        days = [busy] + quiet
        composed = merge([rescale(s, 600.0) for s in days])
        assert merge_rescaled(days, 600.0) == composed

    def test_out_workspace_is_reused_and_result_unchanged(self):
        days = self._days(seed=1)
        workspace = np.empty(1024)
        fused = merge_rescaled(days, 600.0, out=workspace)
        assert fused == merge_rescaled(days, 600.0)

    def test_undersized_workspace_still_correct(self):
        days = self._days(seed=2)
        fused = merge_rescaled(days, 600.0, out=np.empty(3))
        assert fused == merge([rescale(s, 600.0) for s in days])

    def test_single_summary_matches_plain_rescale(self):
        day = self._days(n_days=1)[0]
        assert merge_rescaled([day], 600.0) == rescale(day, 600.0)

    def test_rejects_coarser_inputs(self):
        day = self._days(n_days=1, time_scale=600.0)[0]
        with pytest.raises(ValueError, match="finer"):
            merge_rescaled([day], 60.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_rescaled([], 60.0)
