"""Unit tests for repro.core.gmm."""

import math

import numpy as np
import pytest

from repro.core.gmm import _init_means, fit_gmm, select_gmm, select_gmms


@pytest.fixture
def two_cluster_data(rng):
    """Intervals mimicking Conficker: many ~5 s, some ~175 s."""
    fast = rng.normal(5.0, 0.5, size=400)
    slow = rng.normal(175.0, 3.0, size=100)
    return np.concatenate([fast, slow])


class TestFitGmm:
    def test_single_component_recovers_mean(self, rng):
        data = rng.normal(50.0, 2.0, size=500)
        model = fit_gmm(data, 1)
        assert model.components[0].mean == pytest.approx(50.0, abs=0.5)
        assert model.components[0].weight == pytest.approx(1.0)

    def test_two_components_recover_clusters(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 2)
        means = sorted(c.mean for c in model.components)
        assert means[0] == pytest.approx(5.0, abs=1.0)
        assert means[1] == pytest.approx(175.0, abs=5.0)

    def test_weights_sum_to_one(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 3)
        assert sum(c.weight for c in model.components) == pytest.approx(1.0)

    def test_variance_floor_respected(self):
        data = [5.0] * 20  # zero-variance data
        model = fit_gmm(data, 1)
        assert model.components[0].variance >= 1e-4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0], 2)

    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0], 0)

    def test_deterministic_with_seed(self, two_cluster_data):
        a = fit_gmm(two_cluster_data, 2, rng=np.random.default_rng(1))
        b = fit_gmm(two_cluster_data, 2, rng=np.random.default_rng(1))
        assert a.log_likelihood == b.log_likelihood


class TestSelectGmm:
    def test_bic_picks_two_for_two_clusters(self, two_cluster_data):
        model = select_gmm(two_cluster_data, max_components=4)
        assert model.n_components == 2

    def test_bic_picks_one_for_unimodal(self, rng):
        data = rng.normal(60.0, 1.0, size=300)
        model = select_gmm(data, max_components=4)
        assert model.n_components == 1

    def test_candidate_periods_heaviest_first(self, two_cluster_data):
        model = select_gmm(two_cluster_data, max_components=4)
        periods = model.candidate_periods()
        assert periods[0] == pytest.approx(5.0, abs=1.0)

    def test_min_count_keeps_rare_component(self, rng):
        # 500 fast intervals, only 8 slow ones (weight 1.6%).
        data = np.concatenate(
            [rng.normal(7.5, 0.2, size=500), rng.normal(10800.0, 10.0, size=8)]
        )
        model = select_gmm(data, max_components=4)
        by_weight_only = model.candidate_periods(min_weight=0.1)
        with_count = model.candidate_periods(min_weight=0.1, min_count=6)
        assert any(p > 10_000 for p in with_count)
        assert len(with_count) >= len(by_weight_only)

    def test_respects_sample_minimum(self):
        with pytest.raises(ValueError):
            select_gmm([1.0])


class TestResponsibilities:
    def test_hard_assignment_separates_clusters(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 2)
        assignment = model.assign([5.0, 175.0])
        assert assignment[0] != assignment[1]

    def test_responsibilities_rows_sum_to_one(self, two_cluster_data):
        model = fit_gmm(two_cluster_data, 3)
        resp = model.responsibilities(two_cluster_data[:50])
        assert np.allclose(resp.sum(axis=1), 1.0)


def _oracle_fit(x, k, rng, *, max_iter=200, tol=1e-6, variance_floor=1e-4):
    """Plain per-sample EM: the reference the vectorized kernel must match.

    Returns (means, variances, weights, log_likelihood, converged) with
    the parameters after the last M-step and the log-likelihood of the
    last E-step.
    """
    means = _init_means(x, k, rng)
    variances = np.full(k, max(float(np.var(x)), variance_floor))
    weights = np.full(k, 1.0 / k)
    previous = -np.inf
    for _ in range(max_iter):
        log_probs = (
            np.log(np.maximum(weights, 1e-300))
            - 0.5 * (math.log(2.0 * math.pi) + np.log(variances))
            - 0.5 * (x[:, None] - means) ** 2 / variances
        )
        peak = log_probs.max(axis=1, keepdims=True)
        log_norm = peak + np.log(
            np.exp(log_probs - peak).sum(axis=1, keepdims=True)
        )
        log_likelihood = float(log_norm.sum())
        resp = np.exp(log_probs - log_norm)
        counts = np.maximum(resp.sum(axis=0), 1e-12)
        weights = counts / x.size
        means = (resp * x[:, None]).sum(axis=0) / counts
        variances = np.maximum(
            (resp * (x[:, None] - means) ** 2).sum(axis=0) / counts,
            variance_floor,
        )
        done = abs(log_likelihood - previous) < tol * max(1.0, abs(previous))
        previous = log_likelihood
        if done:
            return means, variances, weights, previous, True
    return means, variances, weights, previous, False


def _oracle_select(x, max_components, rng, restarts=3):
    """BIC selection over oracle fits, earlier fits winning ties."""
    best = None
    for k in range(1, min(max_components, x.size) + 1):
        for _ in range(restarts):
            fit = _oracle_fit(x, k, rng)
            bic = (3 * k - 1) * math.log(x.size) - 2.0 * fit[3]
            if best is None or bic < best[0]:
                best = (bic, fit)
    return best


def _assert_matches(model, oracle, bic=None):
    means, variances, weights, log_likelihood, converged = oracle
    assert model.n_components == means.size
    assert model.converged == converged
    for got, want in (
        ([c.mean for c in model.components], means),
        ([c.variance for c in model.components], variances),
        ([c.weight for c in model.components], weights),
        ([model.log_likelihood], [log_likelihood]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    if bic is not None:
        assert model.bic == pytest.approx(bic, rel=1e-9)


def _quantized(rng):
    """Summary-style intervals: multiples of a 600 s scale, few distinct."""
    hourly = np.round(rng.normal(3600.0, 400.0, size=400) / 600.0) * 600.0
    sleeps = np.full(9, 10_800.0)
    return np.concatenate([np.maximum(hourly, 600.0), sleeps])


def _continuous(rng):
    """Every interval distinct."""
    return np.concatenate(
        [rng.normal(5.0, 0.5, size=300), rng.normal(175.0, 3.0, size=60)]
    )


ORACLE_CASES = {
    "quantized": _quantized,
    "continuous": _continuous,
    "zero_variance": lambda rng: np.full(20, 5.0),
    "fewer_distinct_than_k": lambda rng: np.array([1.0, 1, 1, 2, 2, 2, 2]),
}


class TestKernelMatchesPerSampleEm:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fit_gmm(self, case, k, rng):
        x = ORACLE_CASES[case](rng)
        for seed in range(3):
            model = fit_gmm(x, k, rng=np.random.default_rng(seed))
            _assert_matches(
                model, _oracle_fit(x, k, np.random.default_rng(seed))
            )

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_select_gmm(self, case, rng):
        x = ORACLE_CASES[case](rng)
        for seed in range(3):
            model = select_gmm(
                x, max_components=4, rng=np.random.default_rng(seed)
            )
            bic, oracle = _oracle_select(x, 4, np.random.default_rng(seed))
            _assert_matches(model, oracle, bic)

    def test_unconverged_fit_keeps_its_last_iteration(self, rng):
        x = _continuous(rng)
        model = fit_gmm(x, 3, max_iter=4, rng=np.random.default_rng(2))
        oracle = _oracle_fit(x, 3, np.random.default_rng(2), max_iter=4)
        assert not oracle[4]
        _assert_matches(model, oracle)

    def test_select_gmm_leaves_generator_as_init_draws_do(self, rng):
        x = _quantized(rng)
        fitted = np.random.default_rng(7)
        select_gmm(x, max_components=4, rng=fitted)
        drawn = np.random.default_rng(7)
        for k in range(1, 5):
            for _ in range(3):
                _init_means(x, k, drawn)
        assert fitted.bit_generator.state == drawn.bit_generator.state

    def test_one_call_for_many_samples_matches_one_call_each(self, rng):
        samples = [case(rng) for case in ORACLE_CASES.values()]
        samples.append(rng.exponential(120.0, size=700).round())
        together = select_gmms(
            samples,
            [np.random.default_rng(seed) for seed in range(len(samples))],
            max_components=[4] * len(samples),
        )
        alone = [
            select_gmm(x, max_components=4, rng=np.random.default_rng(seed))
            for seed, x in enumerate(samples)
        ]
        assert [repr(m) for m in together.mixtures] == [repr(m) for m in alone]
        assert together.fits == sum(
            3 * min(4, x.size) for x in samples
        )
        assert together.fits >= together.not_converged >= 0
        assert together.iterations >= together.fits
