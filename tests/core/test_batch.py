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

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch, permutation
from repro.core.autocorrelation import autocorrelation
from repro.core.batch import (
    BatchedDetector,
    batch_autocorrelation,
    batch_power_spectra,
)
from repro.core.detector import DetectorConfig, PeriodicityDetector
from repro.core.gmm import select_gmm
from repro.core.periodogram import batch_max_power, power_spectrum
from repro.core.permutation import (
    CACHE_FILE_VERSION,
    ThresholdCache,
    ThresholdCacheMismatch,
    binary_shuffles,
    bucket_length,
)
from repro.core.timeseries import ActivitySummary, intervals_from_timestamps
from repro.obs import MetricsRegistry, scoped_registry

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


def _wide_workload(seed, n_wide=4):
    """Pairs holding a few hundred distinct intervals, among small pairs.

    Above 128 values numpy's pairwise sum changes its tree with the row
    length, so padding a pair's EM rows to a length set by the rest of
    its chunk would show up here as a chunking-dependent mixture.
    """
    rng = np.random.default_rng(seed)
    wide = []
    for index in range(n_wide):
        n_events = int(rng.integers(500, 900))
        if index % 2 == 0:  # heavily jittered beacon
            period = float(rng.uniform(90.0, 150.0))
            gaps = rng.normal(period, 0.4 * period, size=n_events)
            ts = np.cumsum(gaps.clip(1.0))
        else:  # dense noise over a day
            ts = np.sort(rng.uniform(0, DAY, size=n_events))
        wide.append(
            ActivitySummary.from_timestamps(
                f"w{index}", "wide", ts, time_scale=1.0
            )
        )
    small = _workload(seed, n_pairs=2 * n_wide)
    return [
        pair
        for trio in zip(small[::2], wide, small[1::2])
        for pair in trio
    ]


def _mixed_workload(seed, n_pairs=12):
    """Beacons, bursty browsing, sparse pairs and Conficker-style pairs.

    Enough of each that some pairs clear their permutation threshold at
    some scale and others at none, on both threshold paths.
    """
    rng = np.random.default_rng(seed)
    summaries = []
    for index in range(n_pairs):
        kind = index % 4
        if kind == 0:  # jittered beacon
            period = float(rng.uniform(60.0, 600.0))
            gaps = rng.normal(period, 0.05 * period,
                              size=int(rng.integers(30, 90)))
            ts = np.cumsum(gaps.clip(1.0))
        elif kind == 1:  # bursty browsing: sessions of quick requests
            starts = rng.uniform(0, DAY / 2, size=int(rng.integers(3, 8)))
            ts = np.concatenate([
                start + np.cumsum(
                    rng.exponential(4.0, size=int(rng.integers(3, 12)))
                )
                for start in starts
            ])
        elif kind == 2:  # a handful of requests over half a day
            ts = rng.uniform(0, DAY / 2, size=int(rng.integers(5, 12)))
        else:  # Conficker-style: bursts 7-8 s apart every ~3 hours
            sleeps = np.cumsum(
                rng.normal(3 * 3600.0, 60.0, size=int(rng.integers(4, 7)))
            )
            ts = np.concatenate([
                sleep + np.cumsum(rng.uniform(7.0, 8.0, size=8))
                for sleep in sleeps
            ])
        summaries.append(
            ActivitySummary.from_timestamps(
                f"h{index}", f"d{kind}", np.sort(ts),
                time_scale=float(rng.choice([1.0, 5.0])),
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


def _detector(cached):
    """The cached detector, or one deriving every threshold per pair."""
    if cached:
        return _cached_detector()
    return PeriodicityDetector(DetectorConfig(seed=0))


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

    @pytest.mark.parametrize("cached", [True, False])
    def test_matches_serial_on_wide_interval_pairs(self, cached):
        detector = (
            _cached_detector()
            if cached
            else PeriodicityDetector(DetectorConfig(seed=0))
        )
        summaries = _wide_workload(seed=5)
        gaps = [np.diff(summary.timestamps()) for summary in summaries]
        distinct = sorted(np.unique(gap[gap > 0]).size for gap in gaps)
        # Eight small pairs, and wide ones on both sides of 256 values.
        assert distinct[7] < 128 < distinct[8] < 256 < distinct[-1]
        whole, *others = _chunking_runs(detector, summaries, len(summaries))
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


class TestMixtureContract:
    """A pair's mixture is fitted exactly where analysis can use it.

    Only a scale whose spectrum clears its permutation threshold reads
    the mixture, so a pair with no such scale keeps none.  Every fitted
    mixture is the one a one-pair ``select_gmm`` call gives, on both
    threshold paths.
    """

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixture_only_where_a_scale_clears_its_threshold(
        self, cached, seed
    ):
        summaries = _mixed_workload(seed)
        results = BatchedDetector(_detector(cached)).detect_summaries(
            summaries
        )
        fitted = skipped = 0
        for summary, result in zip(summaries, results):
            intervals = intervals_from_timestamps(summary.timestamps())
            positive = intervals[intervals > 0]
            if positive.size < 4:
                assert result.mixture is None
                continue
            if not result.spectral_margin > 0:
                assert result.mixture is None
                skipped += 1
                continue
            fitted += 1
            # The pair's generator is seeded from the config and the
            # GMM draws from it first.
            assert repr(result.mixture) == repr(select_gmm(
                positive, max_components=4, rng=np.random.default_rng(0)
            ))
        assert fitted and skipped

    @pytest.mark.parametrize("cached", [True, False])
    def test_results_do_not_depend_on_chunking(self, cached):
        # Whole results, mixtures included: which pairs share a chunk
        # decides neither which pairs are fitted nor any other field.
        summaries = _mixed_workload(seed=2)
        whole, *others = _chunking_runs(
            _detector(cached), summaries, len(summaries)
        )
        assert all(run == whole for run in others)


class TestGmmTelemetry:
    def test_chunk_counts_twelve_fits_per_fitted_pair(self):
        rng = np.random.default_rng(4)
        beacons = [
            ActivitySummary.from_timestamps(
                f"h{index}",
                "beacon",
                np.cumsum(rng.normal(300.0, 20.0, size=40)),
                time_scale=1.0,
            )
            for index in range(5)
        ]
        too_few = ActivitySummary.from_timestamps(
            "h9", "rare", [10.0, 500.0], time_scale=1.0
        )
        registry = MetricsRegistry()
        with scoped_registry(registry):
            BatchedDetector(_cached_detector()).detect_summaries(
                beacons + [too_few]
            )
        counters = dict(registry.counters())
        assert counters["detector.batch.batches"] == 1
        # k = 1..4 components x 3 restarts for each beacon; the pair
        # rejected before planning fits nothing.
        assert counters["detector.gmm.fits"] == 12 * len(beacons)
        assert counters["detector.gmm.iterations"] >= 12 * len(beacons)
        assert 0 <= counters["detector.gmm.not_converged"] <= 12 * len(beacons)
        spans = {histogram.name for histogram in registry.histograms()}
        assert (
            "span.detect.batch.detect.batch.analyze.detect.batch.gmm.seconds"
            in spans
        )

    def test_pairs_no_scale_clears_are_counted_as_skipped(self):
        rng = np.random.default_rng(0)
        beacons = [
            ActivitySummary.from_timestamps(
                f"h{index}",
                "beacon",
                np.cumsum(rng.normal(300.0, 20.0, size=40)),
                time_scale=1.0,
            )
            for index in range(5)
        ]
        noise = [
            ActivitySummary.from_timestamps(
                f"n{index}", "noise", rng.uniform(0, DAY, size=40)
            )
            for index in range(2)
        ]
        sparse = [
            ActivitySummary.from_timestamps(
                f"s{index}", "sparse", rng.uniform(0, DAY, size=6)
            )
            for index in range(2)
        ]
        # Planned, but with 3 positive intervals: fits no mixture and is
        # not counted as skipped either.
        short = ActivitySummary.from_timestamps(
            "h9", "short", [0.0, 300.0, 600.0, 900.0]
        )
        registry = MetricsRegistry()
        with scoped_registry(registry):
            results = BatchedDetector(_cached_detector()).detect_summaries(
                beacons + noise + sparse + [short]
            )
        dead = results[len(beacons):-1]
        assert all(
            result.rejection_code == "spectral:power<threshold"
            and result.mixture is None
            for result in dead
        )
        assert all(result.mixture is not None for result in results[:5])
        counters = dict(registry.counters())
        assert counters["detector.batch.batches"] == 1
        assert counters["detector.gmm.fits"] == 12 * len(beacons)
        assert counters["detector.gmm.skipped"] == len(dead)


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
        text = path.read_text(encoding="utf-8")
        payload = text.replace(
            f'"version": {CACHE_FILE_VERSION}', '"version": 99'
        )
        assert payload != text
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ThresholdCacheMismatch):
            ThresholdCache().load(path)

    def test_load_refuses_a_version_1_file(self, tmp_path):
        # Version 1 derived buckets at round(ratio ** b) by permuting
        # full rows; its thresholds must not mix with version 2's.
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "version": 1, "ratio": 1.05, "permutations": 20,
            "confidence": 0.95, "seed": 0, "entries": [[85, 43, 12.5]],
        }), encoding="utf-8")
        cache = ThresholdCache()
        with pytest.raises(ThresholdCacheMismatch, match="file version 1"):
            cache.load(path)
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b'{"version": 2, "ratio": 1.05, "permutations"',
            b"[]",
            b'{"version": 2, "ratio": 1.05, "permutations": 20, '
            b'"confidence": 0.95, "seed": 0}',
            b'{"version": 2, "ratio": 1.05, "permutations": 20, '
            b'"confidence": 0.95, "seed": 0, "entries": [[85, 43]]}',
            b'{"version": 2, "ratio": 1.05, "permutations": 20, '
            b'"confidence": 0.95, "seed": 0, "entries": [[85, 43, 1.0], '
            b'["x", 1, 2.0]]}',
            b'{"version": 2, "ratio": 1.05, "permutations": 20, '
            b'"confidence": 0.95, "seed": 0, "entries": [[85, 43, null]]}',
            b'{"version": 2, "ratio": 1.05, "permutations": 20, '
            b'"confidence": 0.95, "seed": 0, "entries": [[85, 43, NaN]]}',
            b"\xff\xfe\x00",
        ],
        ids=[
            "empty", "truncated", "top-level-list", "no-entries",
            "short-entry", "non-numeric-key", "null-threshold",
            "nan-threshold", "not-utf8",
        ],
    )
    def test_load_refuses_corrupt_files(self, tmp_path, content):
        path = tmp_path / "cache.json"
        path.write_bytes(content)
        cache = ThresholdCache()
        with pytest.raises(ThresholdCacheMismatch):
            cache.load(path)
        assert len(cache) == 0

    def test_save_replaces_the_file_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        first = ThresholdCache()
        first.precompute([(64, 8)])
        first.save(path)
        before = path.read_text(encoding="utf-8")
        second = ThresholdCache()
        second.precompute([(64, 8), (1024, 30)])

        def killed(src, dst):
            raise OSError("killed mid-save")

        monkeypatch.setattr(permutation.os, "replace", killed)
        with pytest.raises(OSError):
            second.save(path)
        assert path.read_text(encoding="utf-8") == before
        monkeypatch.undo()
        second.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]
        assert ThresholdCache().load(path) == len(second) == 2

    def test_bucket_length_is_5_smooth_inside_the_bucket(self):
        def is_5_smooth(n):
            for factor in (2, 3, 5):
                while n % factor == 0:
                    n //= factor
            return n == 1

        ratio = 1.05
        last_bucket = round(math.log(2**21) / math.log(ratio))
        fallbacks = []
        for bucket in range(last_bucket + 1):
            length = bucket_length(bucket, ratio)
            top = max(4, round(ratio ** bucket))
            low = max(4, math.ceil(ratio ** (bucket - 0.5)))
            if any(is_5_smooth(n) for n in range(low, top + 1)):
                assert low <= length <= top and is_5_smooth(length)
                assert not any(
                    is_5_smooth(n) for n in range(length + 1, top + 1)
                )
            else:
                assert length == top
                fallbacks.append(bucket)
        assert fallbacks  # small buckets, e.g. 4.1 to 4.3 slots
        assert bucket_length(round(math.log(82_398) / math.log(ratio)),
                             ratio) == 81_920

    def test_every_shape_in_a_bucket_gets_the_same_threshold(self):
        reference = ThresholdCache()
        key = reference._key(1_296, 60)
        shapes = [
            (n, k)
            for n in range(1_200, 1_400)
            for k in range(50, 70)
            if reference._key(n, k) == key
        ]
        assert len(shapes) > 100
        values = {reference.threshold(n, k) for n, k in shapes}
        assert len(values) == 1 and reference.misses == 1
        # A bucket's value does not depend on which shape derived it.
        for n, k in shapes[:: len(shapes) // 4]:
            assert ThresholdCache().threshold(n, k) in values

    @pytest.mark.parametrize("n, k", [(1_296, 60), (5_000, 300), (20_736, 800)])
    def test_subset_draws_match_permuted_rows_in_distribution(self, n, k):
        # Placing k ones on a random k-subset is a shuffle of the binary
        # signal: the per-row maximum powers of both samples must pass
        # a two-sample KS test (fixed seeds, 300 rows each).  Drawing
        # 10% more ones fails it with p < 1e-13 at every shape here.
        from scipy.stats import ks_2samp

        rows, block = 300, 50
        signal = np.zeros(n)
        signal[:k] = 1.0
        subset_rng = np.random.default_rng(0)
        permuted_rng = np.random.default_rng(1)
        subset, permuted = [], []
        for _ in range(rows // block):
            subset.append(batch_max_power(
                binary_shuffles(subset_rng, block, n, k)
            ))
            permuted.append(batch_max_power(
                permuted_rng.permuted(np.tile(signal, (block, 1)), axis=1)
            ))
        result = ks_2samp(np.concatenate(subset), np.concatenate(permuted))
        assert result.pvalue > 0.01

    def test_pickled_cache_stays_warm(self):
        cache = ThresholdCache()
        expected = cache.threshold(640, 20)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == len(cache)
        assert clone.threshold(640, 20) == expected
        assert clone.hits == cache.hits + 1
