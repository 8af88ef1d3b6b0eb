"""Unit and property tests for repro.core.timeseries."""

import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.timeseries import (
    ActivitySummary,
    SummaryColumns,
    WindowFold,
    bin_series,
    intervals_from_timestamps,
    merge,
    rescale,
    timestamps_from_intervals,
)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NON_FINITE_IDS = ["nan", "inf", "-inf"]


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
        assert summary.intervals.tolist() == [60.0, 60.0, 60.0]
        assert summary.intervals.dtype == np.float64
        assert not summary.intervals.flags.writeable

    def test_quantizes_to_time_scale(self):
        summary = ActivitySummary.from_timestamps(
            "s", "d", [0.4, 60.7, 121.2], time_scale=1.0
        )
        assert summary.intervals.tolist() == [60.0, 61.0]
        assert summary.intervals.dtype == np.float64
        assert not summary.intervals.flags.writeable

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

    @pytest.mark.parametrize("name", ["time_scale", "first_timestamp"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_scalar_rejected_naming_the_pair(self, name, value):
        scalars = dict(time_scale=1.0, first_timestamp=0.0)
        scalars[name] = value
        with pytest.raises(
            ValueError, match=rf"pair \('h', 'd'\): {name} must be finite"
        ):
            ActivitySummary("h", "d", intervals=(1.0,), **scalars)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(self.make(), **{name: value})


class TestIntervalArrays:
    """Intervals are read-only float64 arrays that no caller can write."""

    def test_read_only_float64_also_after_pickling(self):
        summary = ActivitySummary("s", "d", 1.0, 0.0, [60.0, 61.0])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(summary, protocol=protocol))
            assert restored == summary
            for ivals in (summary.intervals, restored.intervals):
                assert ivals.ndim == 1 and ivals.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    ivals[0] = 1.0

    def test_writes_to_the_input_array_do_not_reach_the_summary(self):
        source = np.array([60.0, 61.0, 62.0])
        frozen_view = source[:2]
        frozen_view.flags.writeable = False  # its base stays writable
        summaries = [
            ActivitySummary("s", "d", 1.0, 0.0, source[:2]),
            ActivitySummary("s", "d", 1.0, 0.0, frozen_view),
        ]
        source[:] = 0.0
        for summary in summaries:
            assert summary.intervals.tolist() == [60.0, 61.0]

    def test_equal_summaries_hash_equal(self):
        plus = ActivitySummary("s", "d", 1.0, 0.0, (0.0, 60.0))
        minus = ActivitySummary("s", "d", 1.0, 0.0, np.array([-0.0, 60.0]))
        assert plus.intervals.tobytes() != minus.intervals.tobytes()
        assert plus == minus and hash(plus) == hash(minus)
        assert len({plus, minus}) == 1
        assert plus != replace(plus, intervals=(0.0, 61.0))

    def test_duration_sums_left_to_right(self):
        summary = ActivitySummary("s", "d", 1.0, 0.0, [0.1] * 10)
        total = 0.0
        for value in [0.1] * 10:
            total += value
        assert summary.duration == total
        # numpy's pairwise sum rounds differently here.
        assert summary.intervals.sum() != total

    def test_columns_round_trip_as_views_of_one_buffer(self):
        summaries = [
            ActivitySummary("a", "x", 1.0, 5.0, (1.0, 2.0), ("/u",)),
            ActivitySummary("b", "y", 60.0, 0.0, (), ()),
            ActivitySummary("a", "z", 1.0, 9.0, (0.0,), ("/v", "/u")),
        ]
        columns = SummaryColumns.from_summaries(summaries)
        assert not columns.intervals.flags.writeable
        rows = columns.summaries()
        assert rows == summaries
        for row in rows:
            assert np.shares_memory(row.intervals, columns.intervals) or (
                row.intervals.size == 0
            )
        # A fold's pairs are views of the one buffer it merged into.
        merged = fold_columns(columns, None)
        assert merged == sorted(summaries, key=lambda s: s.pair)
        buffers = {id(row.intervals.base) for row in merged}
        assert len(buffers) == 1 and None not in buffers
        assert not merged[0].intervals.base.flags.writeable


class TestRescale:
    def test_rescale_to_coarser(self):
        summary = ActivitySummary.from_timestamps(
            "s", "d", [0.0, 61.0, 121.0, 181.0], time_scale=1.0
        )
        coarse = rescale(summary, 60.0)
        assert coarse.time_scale == 60.0
        # Slots floor(t / 60): 0, 1, 2, 3.
        assert coarse.intervals.tolist() == [60.0, 60.0, 60.0]
        assert coarse.intervals.dtype == np.float64
        assert not coarse.intervals.flags.writeable

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

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_target_scale_rejected(self, value):
        summary = ActivitySummary.from_timestamps("s", "d", [0.0, 60.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN arithmetic first
            with pytest.raises(
                ValueError,
                match=r"pair \('s', 'd'\): new_time_scale must be positive "
                "and finite",
            ):
                rescale(summary, value)


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


def fold_columns(columns, time_scale):
    """``columns`` through a window fold, as one batch."""
    fold = WindowFold(time_scale)
    fold.add(columns)
    return fold.summaries()


def merge_rows(summaries, time_scale):
    """The window fold over in-memory summaries, as one batch."""
    return fold_columns(SummaryColumns.from_summaries(summaries), time_scale)


class TestMergeRescaled:
    """The columnar kernel must equal rescale-then-merge exactly."""

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

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_target_scale_rejected(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="time_scale must be positive and finite"
            ):
                merge_rows(self._days(), value)

    @pytest.mark.parametrize("time_scale", [None, 600.0])
    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_first_timestamp_row_rejected(self, time_scale, value):
        # Columns are not validated themselves (the store's decoder
        # checks what it reads); the summaries they merge into are.
        columns = SummaryColumns.from_summaries(self._days(n_days=1))
        firsts = np.array([value])
        with pytest.raises(
            ValueError,
            match=r"pair \('mac1', 'evil.com'\): first_timestamp must be "
            "finite",
        ):
            with np.errstate(invalid="ignore"):
                fold_columns(
                    replace(columns, first_timestamp=firsts), time_scale
                )

    def test_bitwise_matches_composed_path(self):
        days = self._days()
        [fused] = merge_rows(days, 600.0)
        composed = merge([rescale(s, 600.0) for s in days])
        # Frozen-dataclass equality compares every field, so this is a
        # bit-exact check on the interval tuples too.
        assert fused == composed

    def test_skewed_event_counts_match_composed_path(self):
        # One busy day among near-empty ones: rows of very different
        # widths land in different grid classes.
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
        assert merge_rows(days, 600.0) == [composed]

    @pytest.mark.parametrize("time_scale", [0.3, 2.5, 600.0])
    def test_fractional_values_take_the_exact_slow_paths(self, time_scale):
        # Sub-second stored scales give fractional intervals (grid
        # running sums); a fractional target scale forces the interval
        # round trip.  Both must still match the composition bit for bit.
        rng = np.random.default_rng(5)
        days = [
            ActivitySummary.from_timestamps(
                "mac1", "evil.com",
                np.sort(rng.uniform(index * 500.0, (index + 1) * 500.0, 40)),
                time_scale=0.1, urls=[f"/d{index}"],
            )
            for index in range(5)
        ]
        composed = merge([rescale(s, time_scale) for s in days])
        [fused] = merge_rows(days, time_scale)
        assert fused == composed
        assert np.array_equal(
            np.array(fused.intervals).view(np.int64),
            np.array(composed.intervals).view(np.int64),
        )

    def test_pairs_merge_in_rescaled_start_order_sorted_by_pair(self):
        days = self._days(n_days=3)
        other = ActivitySummary.from_timestamps(
            "mac0", "b.com", [5.0, 65.0], urls=["/b"]
        )
        merged = merge_rows([days[2], other, days[0], days[1]], 600.0)
        assert merged == [
            rescale(other, 600.0), merge([rescale(s, 600.0) for s in days])
        ]
        assert merged[1].urls == ("/d0", "/d1", "/d2")

    def test_single_summary_matches_plain_rescale(self):
        day = self._days(n_days=1)[0]
        assert merge_rows([day], 600.0) == [rescale(day, 600.0)]

    def test_single_summary_at_its_own_scale_is_unchanged(self):
        day = ActivitySummary("s", "d", 1.0, 0.3, (0.1, 0.2), ("/u",))
        assert merge_rows([day], 1.0) == [day]
        assert merge_rows([day], None) == [day]

    def test_rejects_coarser_inputs(self):
        day = self._days(n_days=1, time_scale=600.0)[0]
        with pytest.raises(ValueError, match="finer"):
            merge_rows([day], 60.0)

    def test_none_keeps_each_pair_at_its_stored_scale(self):
        a = self._days(n_days=2, time_scale=60.0)
        b = ActivitySummary.from_timestamps(
            "mac2", "c.com", [0.0, 600.0, 1800.0], time_scale=600.0
        )
        merged = merge_rows(a + [b], None)
        assert merged == [merge(a), b]

    def test_none_rejects_a_pair_stored_at_two_scales(self):
        days = self._days(n_days=1) + self._days(n_days=1, time_scale=600.0)
        with pytest.raises(
            ValueError, match=r"\('mac1', 'evil.com'\).*60 s.*600 s"
        ):
            merge_rows(days, None)

    def test_empty_columns_merge_to_nothing(self):
        assert merge_rows([], 60.0) == []
        assert merge_rows([], None) == []

    def test_validates_the_target_scale(self):
        with pytest.raises(ValueError, match="time_scale"):
            merge_rows(self._days(n_days=1), 0.0)


FOLD_PAIRS = [("mac1", "a.com"), ("mac1", "b.com"), ("mac2", "a.com")]


@st.composite
def fold_rows(draw):
    """Rows of a few pairs at scales from 0.25 s to 60 s.  Negative
    first timestamps and fractional scales keep some batches off the
    exact whole-number path, so one pair can mix both kinds of row."""
    scale = draw(st.sampled_from([0.25, 1.0, 60.0]))
    gaps = draw(st.lists(st.integers(0, 5_000), max_size=10))
    return ActivitySummary(
        *draw(st.sampled_from(FOLD_PAIRS)),
        scale,
        draw(st.integers(-2_000, 200_000)) * scale,
        np.array(gaps, dtype=float) * scale,
        draw(st.lists(st.sampled_from(["/a", "/b?q=1", "/é"]), max_size=3)),
    )


def window_bits(fold_or_error):
    if isinstance(fold_or_error, Exception):
        return type(fold_or_error), str(fold_or_error)
    return [(s.pair, s.time_scale, np.float64(s.first_timestamp).tobytes(),
             s.intervals.tobytes(), s.urls) for s in fold_or_error]


def fold_batches(rows, cuts, time_scale):
    """``rows`` folded in batches split at ``cuts``, or the error."""
    fold = WindowFold(time_scale)
    edges = [0] + sorted(cut % (len(rows) + 1) for cut in cuts) + [len(rows)]
    try:
        for lo, hi in zip(edges, edges[1:]):
            fold.add(SummaryColumns.from_summaries(rows[lo:hi]))
        return fold.summaries()
    except ValueError as exc:
        return exc


class TestWindowFold:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(fold_rows(), max_size=12),
        cuts=st.lists(st.integers(0, 12), max_size=6),
        time_scale=st.sampled_from([None, 0.5, 1.0, 2.5, 60.0, 600.0]),
    )
    @example(  # one pair: an exact batch, then one below zero
        rows=[ActivitySummary("mac1", "a.com", 1.0, 10.0, [5.0, 700.0]),
              ActivitySummary("mac1", "a.com", 1.0, -1.0, [3.0])],
        cuts=[1], time_scale=600.0,
    )
    def test_batching_does_not_change_the_window(self, rows, cuts, time_scale):
        whole = fold_batches(rows, [], time_scale)
        assert window_bits(fold_batches(rows, cuts, time_scale)) == (
            window_bits(whole)
        )
        assert window_bits(
            fold_batches(rows, range(len(rows)), time_scale)
        ) == window_bits(whole)

    def test_summaries_empties_the_fold(self):
        fold = WindowFold(60.0)
        fold.add(SummaryColumns.from_summaries(
            [ActivitySummary("s", "d", 1.0, 0.0, [61.0], ("/u",))]
        ))
        assert len(fold.summaries()) == 1
        assert fold.summaries() == []
        fold.add(SummaryColumns.from_summaries(
            [ActivitySummary("t", "e", 1.0, 0.0, [], ("/v",))]
        ))
        [again] = fold.summaries()
        assert again.pair == ("t", "e") and again.urls == ("/v",)

    def test_urls_share_one_string_per_distinct_url(self):
        fold = WindowFold(None)
        for day in range(3):
            fold.add(SummaryColumns.from_summaries([
                ActivitySummary("s", f"d{pair}", 1.0, day * 86_400.0, [1.0],
                                ("/" + "x" * 40, "/y"))
                for pair in range(2)
            ]))
        merged = fold.summaries()
        assert {id(url) for s in merged for url in s.urls} == {
            id(url) for url in merged[0].urls[:2]
        }


class TestSummaryColumns:
    def test_rows_round_trip_with_shared_url_ids(self):
        summaries = [
            ActivitySummary("a", "x", 1.0, 5.0, (1.0, 2.0), ("/u", "/v", "/u")),
            ActivitySummary("b", "y", 60.0, 0.0, (), ()),
            ActivitySummary("a", "z", 1.0, 9.0, (0.0,), ("/v",)),
        ]
        columns = SummaryColumns.from_summaries(summaries)
        assert columns.url_table == ["/u", "/v"]
        assert columns.url_ids.tolist() == [0, 1, 0, 1]
        assert columns.summaries() == summaries

