"""Unit tests for repro.utils.stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    gzip_compression_ratio,
    one_sample_t_test,
    one_sample_t_tests,
    percentile_threshold,
    shannon_entropy,
)


class TestOneSampleTTest:
    def test_matching_mean_gives_high_p(self, rng):
        samples = rng.normal(100.0, 5.0, size=200)
        assert one_sample_t_test(samples, 100.0) > 0.05

    def test_wrong_mean_gives_low_p(self, rng):
        samples = rng.normal(100.0, 5.0, size=200)
        assert one_sample_t_test(samples, 90.0) < 0.001

    def test_single_sample_is_inconclusive(self):
        assert one_sample_t_test([5.0], 5.0) == 1.0
        assert one_sample_t_test([5.0], 50.0) == 1.0

    def test_zero_variance_exact_match(self):
        assert one_sample_t_test([7.0, 7.0, 7.0], 7.0) == 1.0

    def test_zero_variance_mismatch(self):
        assert one_sample_t_test([7.0, 7.0, 7.0], 8.0) == 0.0

    def test_empty_is_inconclusive(self):
        assert one_sample_t_test([], 1.0) == 1.0


class TestOneSampleTTests:
    def test_rows_do_not_depend_on_each_other(self, rng):
        rows = rng.normal(100.0, 5.0, size=(6, 300))
        rows[2] = 7.0  # zero variance, mean matches its null below
        rows[3] = 7.0  # zero variance, mean does not
        popmeans = [100.0, 90.0, 7.0, 8.0, 100.5, 101.0]
        together = one_sample_t_tests(rows, popmeans)
        for row, popmean, p_value in zip(rows, popmeans, together):
            alone = one_sample_t_tests(row[np.newaxis, :], [popmean])[0]
            assert alone == p_value
        assert together[2] == 1.0 and together[3] == 0.0

    def test_matches_scipy(self, rng):
        from scipy import stats

        rows = rng.normal(50.0, 3.0, size=(4, 40))
        popmeans = [50.0, 49.0, 51.5, 45.0]
        expected = [
            stats.ttest_1samp(row, popmean).pvalue
            for row, popmean in zip(rows, popmeans)
        ]
        np.testing.assert_allclose(
            one_sample_t_tests(rows, popmeans), expected, rtol=1e-9
        )

    def test_fewer_than_two_columns_are_inconclusive(self):
        result = one_sample_t_tests(np.ones((3, 1)), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(result, np.ones(3))

    def test_rejects_misaligned_means(self):
        with pytest.raises(ValueError):
            one_sample_t_tests(np.ones((3, 4)), [1.0, 2.0])


class TestShannonEntropy:
    def test_empty_sequence(self):
        assert shannon_entropy("") == 0.0

    def test_single_symbol_zero_entropy(self):
        assert shannon_entropy("aaaa") == 0.0

    def test_uniform_two_symbols_one_bit(self):
        assert shannon_entropy("abab") == pytest.approx(1.0)

    def test_uniform_four_symbols_two_bits(self):
        assert shannon_entropy("abcd") == pytest.approx(2.0)

    def test_works_on_lists(self):
        assert shannon_entropy(["x", "y"]) == pytest.approx(1.0)

    @given(st.text(alphabet="xyz", min_size=1, max_size=100))
    def test_bounded_by_log_alphabet(self, text):
        assert 0.0 <= shannon_entropy(text) <= math.log2(3) + 1e-9


class TestGzipCompressionRatio:
    def test_empty_string(self):
        assert gzip_compression_ratio("") == 1.0

    def test_repetitive_compresses_well(self):
        repetitive = "x" * 10_000
        assert gzip_compression_ratio(repetitive) < 0.01

    def test_random_compresses_poorly(self, rng):
        letters = "abcdefghijklmnopqrstuvwxyz0123456789"
        random_text = "".join(rng.choice(list(letters), size=10_000))
        assert gzip_compression_ratio(random_text) > 0.5

    def test_regular_beats_irregular(self, rng):
        regular = "xxxxx" * 2000
        irregular = "".join(rng.choice(list("xyz"), size=10_000))
        assert gzip_compression_ratio(regular) < gzip_compression_ratio(irregular)


class TestPercentileThreshold:
    def test_paper_example_19th_of_20(self):
        values = list(range(1, 21))  # 1..20
        assert percentile_threshold(values, 0.95) == 19.0

    def test_full_confidence_returns_max(self):
        assert percentile_threshold([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_zero_confidence_returns_min(self):
        assert percentile_threshold([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_single_value(self):
        assert percentile_threshold([42.0], 0.95) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_threshold([], 0.95)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            percentile_threshold([1.0], 1.5)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_threshold_is_an_order_statistic(self, values, confidence):
        threshold = percentile_threshold(values, confidence)
        assert min(values) <= threshold <= max(values)
        assert threshold in values
