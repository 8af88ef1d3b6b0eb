"""Tests for the batched multi-pair detection loop.

The contract under test is *bitwise* parity: every shape-grouped kernel
must reproduce its single-signal counterpart exactly (same floats, not
just close), and :class:`~repro.core.batch.BatchedDetector` must yield
the same ``DetectionResult``s however the pairs fall into chunks — one
call over every pair, one-pair ``detect_summary`` calls, or chunks cut
by a tiny slot budget.  Results are compared via ``repr`` because the
dataclasses carry NaN fields on rejection (``nan != nan`` defeats
``==``) while float repr round-trips exactly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.autocorrelation import autocorrelation
from repro.core.batch import (
    BatchedDetector,
    batch_autocorrelation,
    batch_power_spectra,
)
from repro.core.detector import DetectorConfig, PeriodicityDetector
from repro.core.periodogram import power_spectrum
from repro.core.permutation import ThresholdCache, ThresholdCacheMismatch
from repro.core.timeseries import ActivitySummary

DAY = 86_400.0


def _binary_rows(rng, rows, length):
    """Sparse binary signals shaped like real binned beacon traffic."""
    return (rng.random((rows, length)) < 0.08).astype(float)


class TestBatchPowerSpectra:
    def test_bitwise_matches_serial(self, rng):
        signals = _binary_rows(rng, 40, 1440)
        batched = batch_power_spectra(signals)
        for row in range(signals.shape[0]):
            assert np.array_equal(batched[row], power_spectrum(signals[row]))

    def test_dense_rows_match_too(self, rng):
        signals = rng.normal(size=(7, 256))
        batched = batch_power_spectra(signals)
        for row in range(7):
            assert np.array_equal(batched[row], power_spectrum(signals[row]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_power_spectra(np.zeros(16))  # 1-D
        with pytest.raises(ValueError):
            batch_power_spectra(np.zeros((2, 3)))  # too short


class TestBatchAutocorrelation:
    def test_bitwise_matches_serial_large_group(self, rng):
        # Regression guard: 2-D elementwise complex products round
        # differently from 1-D ones in numpy's SIMD paths, which showed
        # up only on groups of dozens of rows of real binned signals.
        signals = list(_binary_rows(rng, 40, 720))
        batched = batch_autocorrelation(signals)
        for signal, acf in zip(signals, batched):
            assert np.array_equal(acf, autocorrelation(signal))

    def test_mixed_lengths_share_padded_groups(self, rng):
        # next_fast_len(2n) collides for nearby n, so rows of different
        # original lengths land in one padded stack.
        lengths = [713, 714, 716, 718, 720, 720, 719, 715] * 5
        signals = [
            (rng.random(n) < 0.1).astype(float) for n in lengths
        ]
        batched = batch_autocorrelation(signals)
        for signal, acf in zip(signals, batched):
            assert acf.size == signal.size
            assert np.array_equal(acf, autocorrelation(signal))

    def test_degenerate_zero_variance_signal(self):
        flat = np.ones(64)
        varied = np.zeros(64)
        varied[::7] = 1.0
        batched = batch_autocorrelation([flat, varied])
        assert np.array_equal(batched[0], autocorrelation(flat))
        assert batched[0][0] == 1.0 and not batched[0][1:].any()
        assert np.array_equal(batched[1], autocorrelation(varied))

    def test_rejects_short_or_2d_signals(self):
        with pytest.raises(ValueError):
            batch_autocorrelation([np.zeros(3)])
        with pytest.raises(ValueError):
            batch_autocorrelation([np.zeros((4, 4))])


def _workload(seed, n_pairs=24):
    """Mixed beacons / sparse noise / degenerate pairs, several scales."""
    rng = np.random.default_rng(seed)
    summaries = []
    for index in range(n_pairs):
        kind = index % 4
        scale = float(rng.choice([1.0, 5.0, 30.0]))
        if kind == 0:  # beacon
            period = float(rng.uniform(40.0, 400.0))
            ts = np.cumsum(
                rng.normal(period, period * 0.05, size=int(rng.integers(40, 120)))
            )
            ts = ts[ts > 0]
        elif kind == 1:  # sparse noise
            ts = np.sort(rng.uniform(0, DAY / 4, size=int(rng.integers(5, 40))))
        elif kind == 2:  # too few events (early rejection)
            ts = np.sort(rng.uniform(0, 3600.0, size=int(rng.integers(1, 4))))
        else:  # degenerate: all events in one instant
            ts = np.full(int(rng.integers(4, 9)), 120.0)
        summaries.append(
            ActivitySummary.from_timestamps(
                f"h{index}", f"d{index % 5}", ts, time_scale=scale
            )
        )
    return summaries


def _chunking_runs(detector, summaries, pairs_per_call):
    """``repr``s of the same pairs detected under three chunkings.

    ``detect_summaries`` calls of ``pairs_per_call`` pairs each — one
    call over every pair when it covers the workload, while smaller
    values split the pairs the way the MapReduce engine's partitions
    do; one-pair ``detect_summary`` calls; and one call over every pair
    with a slot budget so small that every chunk closes after its first
    pair with slots.  The runs share the detector's threshold cache: a
    bucket's threshold comes from its own seeded draw, so cache warmth
    never changes a result.
    """
    calls = [
        result
        for start in range(0, len(summaries), pairs_per_call)
        for result in BatchedDetector(detector).detect_summaries(
            summaries[start : start + pairs_per_call]
        )
    ]
    per_pair = [detector.detect_summary(summary) for summary in summaries]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "SLOT_BUDGET", 1)
        tiny = BatchedDetector(detector).detect_summaries(summaries)
    return [[repr(result) for result in run] for run in (calls, per_pair, tiny)]


def _cached_detector():
    return PeriodicityDetector(
        DetectorConfig(seed=0), threshold_cache=ThresholdCache()
    )


class TestBatchedDetectorParity:
    @pytest.mark.parametrize("pairs_per_call", [1, 7, 256])
    def test_matches_serial_detection(self, pairs_per_call):
        calls, *others = _chunking_runs(
            _cached_detector(), _workload(seed=3), pairs_per_call
        )
        assert all(run == calls for run in others)

    def test_matches_serial_without_threshold_cache(self):
        # The no-cache path draws permutation shuffles from each pair's
        # seeded generator; every chunking must consume the exact same
        # random stream in the exact same order.
        whole, *others = _chunking_runs(
            PeriodicityDetector(DetectorConfig(seed=0)),
            _workload(seed=11, n_pairs=8),
            8,
        )
        assert all(run == whole for run in others)

    def test_empty_input(self):
        assert BatchedDetector().detect_summaries([]) == []

    def test_chunks_stay_within_the_slot_budget(self, monkeypatch):
        budget = 20_000
        monkeypatch.setattr(batch, "SLOT_BUDGET", budget)
        chunks = []
        original = BatchedDetector._detect_chunk

        def record(self, units):
            chunks.append((len(units), sum(unit.n_slots for unit in units)))
            return original(self, units)

        monkeypatch.setattr(BatchedDetector, "_detect_chunk", record)
        summaries = _workload(seed=3)
        results = BatchedDetector(_cached_detector()).detect_summaries(
            summaries
        )
        assert len(results) == len(summaries)
        assert sum(n_pairs for n_pairs, _slots in chunks) == len(summaries)
        # The workload needs several chunks, some of them multi-pair,
        # and one pair alone exceeds the budget.
        assert len(chunks) > 1
        assert any(n_pairs > 1 for n_pairs, _slots in chunks)
        assert any(slots > budget for _n_pairs, slots in chunks)
        for n_pairs, slots in chunks:
            assert slots <= budget or n_pairs == 1

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_pairs=st.integers(min_value=1, max_value=16),
        pairs_per_call=st.sampled_from([1, 2, 5, 64]),
    )
    def test_property_random_pair_sets(self, seed, n_pairs, pairs_per_call):
        calls, *others = _chunking_runs(
            _cached_detector(),
            _workload(seed=seed, n_pairs=n_pairs),
            pairs_per_call,
        )
        assert all(run == calls for run in others)


class TestThresholdCacheWarmth:
    def test_precompute_fills_buckets_without_stats(self):
        cache = ThresholdCache()
        computed = cache.precompute([(128, 12), (128, 13), (4096, 40)])
        assert computed == len(cache) > 0
        assert cache.hits == 0 and cache.misses == 0
        # a second precompute over the same grid is a no-op
        assert cache.precompute([(128, 12), (4096, 40)]) == 0

    def test_warm_lookup_matches_cold(self):
        cold = ThresholdCache()
        warm = ThresholdCache()
        warm.precompute([(500, 25)])
        assert warm.threshold(500, 25) == cold.threshold(500, 25)
        assert warm.hits == 1 and warm.misses == 0

    def test_repeated_lookup_uses_exact_front_map(self):
        cache = ThresholdCache()
        first = cache.threshold(777, 31)
        second = cache.threshold(777, 31)
        assert first == second
        assert cache.misses == 1 and cache.hits == 1

    def test_save_load_roundtrip(self, tmp_path):
        source = ThresholdCache()
        source.precompute([(64, 8), (1024, 30), (9000, 200)])
        path = source.save(tmp_path / "cache.json")
        target = ThresholdCache()
        assert target.load(path) == len(source)
        assert len(target) == len(source)
        assert target.threshold(1024, 30) == source.threshold(1024, 30)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratio": 1.10},
            {"permutations": 7},
            {"confidence": 0.5},
            {"seed": 9},
        ],
    )
    def test_load_refuses_mismatched_parameters(self, tmp_path, kwargs):
        source = ThresholdCache()
        source.precompute([(64, 8)])
        path = source.save(tmp_path / "cache.json")
        with pytest.raises(ThresholdCacheMismatch):
            ThresholdCache(**kwargs).load(path)

    def test_load_refuses_wrong_file_version(self, tmp_path):
        source = ThresholdCache()
        source.precompute([(64, 8)])
        path = source.save(tmp_path / "cache.json")
        payload = path.read_text(encoding="utf-8").replace(
            '"version": 1', '"version": 99'
        )
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ThresholdCacheMismatch):
            ThresholdCache().load(path)

    def test_pickled_cache_stays_warm(self):
        cache = ThresholdCache()
        expected = cache.threshold(640, 20)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == len(cache)
        assert clone.threshold(640, 20) == expected
        assert clone.hits == cache.hits + 1
