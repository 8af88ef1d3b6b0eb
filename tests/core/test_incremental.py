"""Tests for the incremental sliding-DFT spectral engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.incremental import (
    DAY,
    IncrementalConfig,
    IncrementalSpectralEngine,
    IncrementalSpectralState,
    IncrementalStateCache,
    IncrementalStateMismatch,
    bin_span,
    bin_span_rows,
    screen_scales,
    slide_states,
)
from repro.core.periodogram import power_spectrum
from repro.core.permutation import ThresholdCache


def _random_bins(rng, size):
    return (rng.random(size) < 0.3).astype(float)


class TestSlidingDftParity:
    """The tentpole invariant: the maintained spectrum tracks the cold one."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=70),
        n_appends=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_tracks_cold_power_spectrum(self, n, n_appends, seed):
        """Bit-identical at refresh points, <= 1e-9 drift between them.

        Window lengths 16..70 cross several ``next_fast_len``
        boundaries, so both FFT-friendly and awkward lengths (primes,
        2*prime) are exercised.
        """
        rng = np.random.default_rng(seed)
        config = IncrementalConfig(refresh_every=4)
        state = IncrementalSpectralState(_random_bins(rng, n), config=config)
        for _ in range(n_appends):
            shift = int(rng.integers(1, max(2, n // 3)))
            outcome = state.append_bins(_random_bins(rng, shift))
            cold = power_spectrum(state.window)
            if state.power_exact:
                assert outcome in ("refresh", "fallback")
                np.testing.assert_array_equal(state.power(), cold)
            else:
                assert outcome == "slide"
                np.testing.assert_allclose(
                    state.power(), cold, atol=1e-9, rtol=1e-9
                )

    def test_refresh_cadence_is_exact(self):
        rng = np.random.default_rng(1)
        config = IncrementalConfig(refresh_every=3)
        state = IncrementalSpectralState(_random_bins(rng, 48), config=config)
        outcomes = [state.append_bins(_random_bins(rng, 2)) for _ in range(6)]
        assert outcomes == [
            "slide", "slide", "refresh", "slide", "slide", "refresh"
        ]
        np.testing.assert_array_equal(
            state.power(), power_spectrum(state.window)
        )

    def test_large_shift_falls_back_to_full_recompute(self):
        rng = np.random.default_rng(2)
        config = IncrementalConfig(max_drift_fraction=0.25)
        state = IncrementalSpectralState(_random_bins(rng, 40), config=config)
        outcome = state.append_bins(_random_bins(rng, 20))  # 50% > 25%
        assert outcome == "fallback"
        assert state.power_exact
        np.testing.assert_array_equal(
            state.power(), power_spectrum(state.window)
        )

    def test_tight_error_bound_forces_refresh(self):
        # Irrational-ish float bins guarantee rounding in the update, so
        # the Parseval self-check must exceed a near-zero bound quickly.
        rng = np.random.default_rng(3)
        config = IncrementalConfig(
            refresh_every=1_000_000, error_bound=1e-300
        )
        state = IncrementalSpectralState(rng.random(32), config=config)
        outcomes = {state.append_bins(rng.random(4)) for _ in range(8)}
        assert "refresh" in outcomes

    def test_empty_append_is_a_noop(self):
        state = IncrementalSpectralState(np.ones(16))
        before = state.power().copy()
        assert state.append_bins(np.array([])) == "noop"
        np.testing.assert_array_equal(state.power(), before)

    def test_window_tracks_absolute_grid(self):
        state = IncrementalSpectralState(np.zeros(8), start_bin=100)
        state.append_bins(np.ones(3))
        assert state.start_bin == 103
        assert state.end_bin == 111
        np.testing.assert_array_equal(state.window[-3:], np.ones(3))


class TestSlideStates:
    """Sliding many states at once equals sliding each one alone."""

    def _pair_of_copies(self, rng, count, n, config):
        windows = [_random_bins(rng, n) for _ in range(count)]
        return (
            [IncrementalSpectralState(w.copy(), 7, config=config)
             for w in windows],
            [IncrementalSpectralState(w.copy(), 7, config=config)
             for w in windows],
        )

    @pytest.mark.parametrize("refresh_every", [1, 3, 16])
    def test_matches_one_state_appends(self, monkeypatch, refresh_every):
        # A block of three rows splits the seven states unevenly.
        n = 40
        monkeypatch.setattr(incremental, "SLIDE_BLOCK", 3 * n)
        rng = np.random.default_rng(4)
        config = IncrementalConfig(refresh_every=refresh_every)
        batched, alone = self._pair_of_copies(rng, 7, n, config)
        for _ in range(5):
            new = _random_bins(rng, 7 * 6).reshape(7, 6)
            outcomes = slide_states(batched, new)
            assert outcomes == [
                state.append_bins(row) for state, row in zip(alone, new)
            ]
            for got, want in zip(batched, alone):
                assert got.start_bin == want.start_bin
                assert got.n_ones() == want.n_ones()
                assert got.max_power() == want.max_power()
                assert got.power_exact == want.power_exact
                np.testing.assert_array_equal(got.window, want.window)
                np.testing.assert_array_equal(got.power(), want.power())

    def test_large_shift_falls_back_for_every_state(self):
        rng = np.random.default_rng(5)
        config = IncrementalConfig(max_drift_fraction=0.25)
        states, _ = self._pair_of_copies(rng, 3, 40, config)
        outcomes = slide_states(states, _random_bins(rng, 60).reshape(3, 20))
        assert outcomes == ["fallback"] * 3
        for state in states:
            np.testing.assert_array_equal(
                state.power(), power_spectrum(state.window)
            )

    def test_rejects_mixed_window_lengths(self):
        states = [
            IncrementalSpectralState(np.ones(16)),
            IncrementalSpectralState(np.ones(20)),
        ]
        with pytest.raises(ValueError):
            slide_states(states, np.zeros((2, 2)))


class TestObserveMany:
    def _pairs(self, rng, days):
        pairs = []
        for index in range(12):
            if index % 4 == 0:
                ts = np.arange(0.0, days * DAY, 7200.0 + 600.0 * index)
            else:
                ts = np.sort(rng.uniform(0.0, days * DAY, size=8 * days))
            pairs.append((f"host-{index}", "dest.example", ts))
        return pairs

    def test_verdicts_do_not_depend_on_the_batch(self):
        # Feeding the pairs of a tick together or one by one must give
        # the same screen verdicts, on the rebuild tick and on slides.
        rng = np.random.default_rng(6)
        pairs = self._pairs(rng, days=9)
        together = IncrementalSpectralEngine(
            ThresholdCache(), time_scale=600.0
        )
        alone = IncrementalSpectralEngine(ThresholdCache(), time_scale=600.0)
        for start_day in range(3):
            for engine in (together, alone):
                engine.begin_tick(start_day, start_day + 6)
            batched = together.observe_many(pairs)
            single = [alone.observe_many([pair])[0] for pair in pairs]
            assert batched == single
        assert together.slides == alone.slides > 0
        assert together.rebuilds == alone.rebuilds == 12 * len(
            together.rungs
        )


class TestBinSpan:
    def test_rows_match_per_event_counts(self):
        rng = np.random.default_rng(8)
        series = [
            rng.uniform(0.0, 3000.0, size=size) for size in (0, 5, 40, 1)
        ]
        rows = bin_span_rows(series, 60.0, 10, 45, binary=False)
        for row, ts in zip(rows, series):
            expected = np.zeros(35)
            for t in ts:
                slot = int(np.floor(t / 60.0)) - 10
                if 0 <= slot < 35:
                    expected[slot] += 1.0
            np.testing.assert_array_equal(row, expected)

    def test_absolute_slots_are_window_independent(self):
        ts = np.array([10.0, 95.0, 210.0, 340.0])
        a = bin_span(ts, 60.0, 0, 8)
        b = bin_span(ts, 60.0, 2, 8)
        np.testing.assert_array_equal(a[2:], b)

    def test_binary_caps_at_one(self):
        ts = np.array([5.0, 6.0, 7.0])
        assert bin_span(ts, 60.0, 0, 4)[0] == 1.0
        assert bin_span(ts, 60.0, 0, 4, binary=False)[0] == 3.0

    def test_out_of_span_events_are_dropped(self):
        signal = bin_span(np.array([-5.0, 1e9]), 60.0, 0, 4)
        np.testing.assert_array_equal(signal, np.zeros(4))


class TestScreenScales:
    def test_rungs_divide_the_day(self):
        for scale, bins_per_day in screen_scales(
            time_scale=600.0, window_days=30
        ):
            assert bins_per_day * scale == pytest.approx(86_400.0)

    def test_finest_rung_matches_time_scale_bucket(self):
        rungs = screen_scales(time_scale=600.0, window_days=30)
        assert rungs[0][0] >= 600.0


class TestStateCachePersistence:
    def _cache(self, rng, n_states=5):
        cache = IncrementalStateCache(fingerprint="cfg-v1")
        for index in range(n_states):
            state = IncrementalSpectralState(
                _random_bins(rng, 24 + index), start_bin=index * 7
            )
            state.append_bins(_random_bins(rng, 3))
            cache.put(f"pair-{index}\x1fdest\x1f144", state)
        return cache

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        cache = self._cache(rng)
        path = tmp_path / "incremental-state.bin"
        cache.save(path)
        loaded = IncrementalStateCache.load(path, fingerprint="cfg-v1")
        assert sorted(loaded.keys()) == sorted(cache.keys())
        for key in cache.keys():
            original, restored = cache.get(key), loaded.get(key)
            assert restored.start_bin == original.start_bin
            assert restored.n == original.n
            np.testing.assert_array_equal(restored.window, original.window)
            np.testing.assert_array_equal(restored.power(), original.power())

    def test_restored_state_keeps_sliding(self, tmp_path):
        rng = np.random.default_rng(10)
        cache = self._cache(rng, n_states=1)
        path = cache.save(tmp_path / "state.bin")
        loaded = IncrementalStateCache.load(path, fingerprint="cfg-v1")
        key = cache.keys()[0]
        original, restored = cache.get(key), loaded.get(key)
        bins = _random_bins(rng, 4)
        assert original.append_bins(bins.copy()) == restored.append_bins(bins)
        np.testing.assert_array_equal(restored.power(), original.power())

    def test_fingerprint_mismatch_raises(self, tmp_path):
        rng = np.random.default_rng(11)
        path = self._cache(rng).save(tmp_path / "state.bin")
        with pytest.raises(IncrementalStateMismatch):
            IncrementalStateCache.load(path, fingerprint="other-config")

    def test_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"not a state cache")
        with pytest.raises((IncrementalStateMismatch, ValueError)):
            IncrementalStateCache.load(path, fingerprint="cfg-v1")
