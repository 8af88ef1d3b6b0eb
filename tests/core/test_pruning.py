"""Unit tests for repro.core.pruning — the paper's step 2 filters."""

import math

import numpy as np
import pytest
from scipy import special

from repro.core.gmm import fit_gmm
from repro.core.pruning import (
    fold_intervals,
    prune_candidates,
    prune_high_frequency,
    prune_sampling_rate,
    t_test_candidate,
    t_test_candidates,
)


class TestHighFrequencyFilter:
    def test_tdss_example_from_paper(self):
        """Fig. 6: min interval 196 s prunes all candidates below it."""
        intervals = [404, 663, 400, 362, 1933, 445, 407, 423, 372, 395,
                     362, 400, 369, 822, 5512, 196, 1023, 635, 817, 919,
                     492, 423, 391, 442, 759]
        candidates = [30.5473, 2.36615, 387.34, 8.8351, 33.1626]
        decisions = prune_high_frequency(candidates, intervals)
        kept = [d.period for d in decisions if d.kept]
        assert kept == [387.34]

    def test_all_kept_when_periods_large(self):
        decisions = prune_high_frequency([100.0, 200.0], [50.0, 60.0])
        assert all(d.kept for d in decisions)

    def test_no_positive_intervals(self):
        decisions = prune_high_frequency([10.0], [0.0, 0.0])
        assert not decisions[0].kept
        assert "no positive intervals" in decisions[0].reason


class TestFoldIntervals:
    def test_identity_for_single_period(self):
        intervals = np.array([100.0, 101.0, 99.0])
        assert np.allclose(fold_intervals(intervals, 100.0), intervals)

    def test_doubles_fold_back(self):
        intervals = np.array([100.0, 200.0, 300.0])
        folded = fold_intervals(intervals, 100.0)
        assert np.allclose(folded, [100.0, 100.0, 100.0])

    def test_sub_period_intervals_untouched(self):
        intervals = np.array([10.0, 100.0])
        folded = fold_intervals(intervals, 100.0)
        assert folded[0] == 10.0


class TestTTest:
    def test_true_period_kept(self, rng):
        intervals = rng.normal(300.0, 10.0, size=100)
        decision = t_test_candidate(300.0, intervals)
        assert decision.kept
        assert decision.p_value > 0.05

    def test_wrong_period_pruned(self, rng):
        intervals = rng.normal(300.0, 10.0, size=100)
        decision = t_test_candidate(350.0, intervals, fold=False)
        assert not decision.kept

    def test_folding_tolerates_missing_events(self, rng):
        """25% missing beacons double some intervals; folding recovers."""
        base = rng.normal(300.0, 5.0, size=200)
        doubled = np.where(rng.random(200) < 0.25, base * 2, base)
        assert not t_test_candidate(300.0, doubled, fold=False).kept
        assert t_test_candidate(300.0, doubled, fold=True).kept

    def test_mixture_restricts_to_matching_cluster(self, rng):
        """Conficker-style two-period intervals pass via the mixture."""
        intervals = np.concatenate(
            [rng.normal(7.5, 0.3, size=300), rng.normal(10800.0, 30.0, size=20)]
        )
        mixture = fit_gmm(intervals, 2)
        without = t_test_candidate(7.5, intervals, mixture=None, fold=False)
        with_mix = t_test_candidate(7.5, intervals, mixture=mixture, fold=False)
        assert not without.kept
        assert with_mix.kept

    def test_no_positive_intervals_pruned(self):
        decision = t_test_candidate(10.0, [0.0, 0.0])
        assert not decision.kept

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            t_test_candidate(0.0, [1.0, 2.0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            t_test_candidate(10.0, [1.0, 2.0], alpha=2.0)


def _reference_t_test(period, intervals, *, mixture, fold, tolerance):
    """One period at a time, on 1-D arrays: the p-value the batched
    t-tests must reproduce exactly (same arithmetic, same order)."""
    ivals = np.asarray(intervals, dtype=float)
    ivals = ivals[ivals > 0]
    if mixture is not None and mixture.n_components > 1:
        means = np.asarray([c.mean for c in mixture.components])
        target = int(np.argmin(np.abs(means - period)))
        member = ivals[mixture.assign(ivals) == target]
        if member.size >= 2:
            ivals = member
    if fold:
        ivals = fold_intervals(ivals, period)
    mean = float(ivals.mean())
    popmean = float(np.clip(mean, period - tolerance, period + tolerance))
    std = float(ivals.std(ddof=1))
    if np.isclose(std, 0.0):
        return 1.0 if math.isclose(mean, popmean, rel_tol=1e-9,
                                   abs_tol=1e-9) else 0.0
    t_stat = (mean - popmean) / (std / math.sqrt(ivals.size))
    return float(2.0 * special.stdtr(ivals.size - 1, -abs(t_stat)))


class TestBatchedTTests:
    """Testing several periods at once equals testing them one by one."""

    PERIODS = [7.5, 7.0, 300.0, 3600.0, 10800.0, 10_000.0]
    TOLERANCES = [0.5, 0.0, 2.0, 60.0, 0.0, 300.0]

    def _intervals(self, rng):
        return np.concatenate([
            rng.normal(7.5, 0.3, size=300),
            rng.normal(10800.0, 30.0, size=20),
            np.zeros(5),
        ])

    @pytest.mark.parametrize("fold", [True, False])
    @pytest.mark.parametrize("with_mixture", [True, False])
    def test_matches_one_period_calls(self, rng, fold, with_mixture):
        intervals = self._intervals(rng)
        mixture = (
            fit_gmm(intervals[intervals > 0], 2) if with_mixture else None
        )
        batched = t_test_candidates(
            self.PERIODS, intervals, mixture=mixture, fold=fold,
            tolerances=self.TOLERANCES,
        )
        single = [
            t_test_candidate(
                period, intervals, mixture=mixture, fold=fold,
                tolerance=tolerance,
            )
            for period, tolerance in zip(self.PERIODS, self.TOLERANCES)
        ]
        assert batched == single
        reference = [
            _reference_t_test(
                period, intervals, mixture=mixture, fold=fold,
                tolerance=tolerance,
            )
            for period, tolerance in zip(self.PERIODS, self.TOLERANCES)
        ]
        assert [d.p_value for d in batched] == reference
        assert [d.kept for d in batched] == [p >= 0.05 for p in reference]

    def test_no_positive_intervals_prunes_every_period(self):
        decisions = t_test_candidates([5.0, 10.0], [0.0, 0.0])
        assert [d.kept for d in decisions] == [False, False]

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            t_test_candidates([5.0], [1.0, 2.0], tolerances=[-1.0])


class TestSamplingRateFilter:
    def test_too_few_cycles_pruned(self):
        decisions = prune_sampling_rate(
            [1000.0], n_events=100, duration=2000.0, min_cycles=3
        )
        assert not decisions[0].kept
        assert "cycles" in decisions[0].reason

    def test_enough_cycles_kept(self):
        decisions = prune_sampling_rate(
            [100.0], n_events=100, duration=2000.0, min_cycles=3
        )
        assert decisions[0].kept

    def test_too_few_events_pruned(self):
        decisions = prune_sampling_rate(
            [10.0], n_events=2, duration=2000.0, min_events=4
        )
        assert not decisions[0].kept
        assert "events" in decisions[0].reason

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            prune_sampling_rate([10.0], n_events=5, duration=100.0, min_cycles=0)
        with pytest.raises(ValueError):
            prune_sampling_rate([10.0], n_events=5, duration=100.0, min_events=1)


class TestPruneCandidates:
    def test_tdss_end_to_end(self, rng):
        """Only the true ~387 s candidate survives all three filters."""
        intervals = rng.normal(387.0, 30.0, size=200)
        intervals = np.maximum(intervals, 200.0)
        candidates = [30.5473, 2.36615, 387.34, 8.8351, 33.1626]
        decisions = prune_candidates(candidates, intervals)
        kept = [d.period for d in decisions if d.kept]
        assert kept == [387.34]

    def test_order_of_reasons(self, rng):
        """High-frequency rejection takes precedence over the t-test."""
        intervals = rng.normal(387.0, 30.0, size=200)
        decisions = prune_candidates([1.0], intervals)
        assert "min interval" in decisions[0].reason

    def test_one_decision_per_candidate(self, rng):
        intervals = rng.normal(100.0, 5.0, size=50)
        candidates = [50.0, 100.0, 150.0, 200.0]
        decisions = prune_candidates(candidates, intervals)
        assert len(decisions) == len(candidates)
        assert [d.period for d in decisions] == candidates
