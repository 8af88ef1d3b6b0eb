"""Gaussian mixture modelling of interval lists — paper Fig. 7.

Malware such as Conficker interleaves several periods (7-8 s bursts
separated by ~3 h sleeps).  A single dominant DFT peak cannot express
this, but the *interval list* can: it is a mixture of well-separated
Gaussian clusters, one per underlying period.  BAYWATCH fits 1-D Gaussian
mixture models with increasing component counts, selects the count by the
Bayesian Information Criterion (BIC), and reports each component mean as
a candidate period with its mixture weight.

The EM implementation is self-contained (no sklearn): k-means++-style
initialization, standard E/M updates with a variance floor, and
log-likelihood convergence monitoring.

EM runs over each sample's *distinct* values weighted by their counts,
which is the same likelihood as over the raw samples.  Interval lists
are multiples of their time scale, so a pair with hundreds of intervals
usually has a few dozen distinct values.  One kernel advances a stack
of fits together: each row is one (sample, component count, restart)
fit, and a row leaves the active set as soon as its log-likelihood
converges.  :func:`select_gmms` fits every mixture of a detection chunk
in one call; :func:`fit_gmm` and :func:`select_gmm` are its one-fit and
one-sample forms.  It is two steps a caller may also take apart:
:func:`draw_starts` draws a sample's initial means from its generator,
and :func:`fit_starts` runs EM from the drawn means of many samples.
Drawing every sample's means up front keeps each generator's stream
fixed while the caller fits only the samples it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import as_float_array, require, require_positive

_LOG_2PI = math.log(2.0 * math.pi)

#: Elements (fits x components x padded values) one EM block holds.  A
#: block array is 2 MB of float64 and an iteration keeps a few alive, so
#: the kernel's working set stays bounded however many fits a detection
#: chunk stacks; a single fit larger than this runs as a block alone.
EM_BLOCK = 1 << 18


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: a candidate period cluster."""

    mean: float
    variance: float
    weight: float

    @property
    def std(self) -> float:
        """Standard deviation of the component."""
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GaussianMixture:
    """A fitted 1-D Gaussian mixture over an interval list."""

    components: Tuple[GaussianComponent, ...]
    log_likelihood: float
    bic: float
    n_samples: int
    converged: bool

    @property
    def n_components(self) -> int:
        """Number of mixture components."""
        return len(self.components)

    def dominant_components(
        self, min_weight: float = 0.05, *, min_count: int = 0
    ) -> List[GaussianComponent]:
        """Components with enough support, heaviest first.

        A component is kept when it carries at least ``min_weight`` of
        the probability mass *or* is backed by at least ``min_count``
        samples — a handful of 3-hour sleep intervals among hundreds of
        burst beacons is a genuine period despite its tiny weight.
        """
        kept = [
            c
            for c in self.components
            if c.weight >= min_weight
            or (min_count > 0 and c.weight * self.n_samples >= min_count)
        ]
        return sorted(kept, key=lambda c: c.weight, reverse=True)

    def candidate_periods(
        self, min_weight: float = 0.05, *, min_count: int = 0
    ) -> List[float]:
        """Component means (candidate periods), heaviest first."""
        return [
            c.mean
            for c in self.dominant_components(min_weight, min_count=min_count)
        ]

    def responsibilities(self, values: Sequence[float]) -> np.ndarray:
        """Posterior component membership for each value, shape (n, k)."""
        x = as_float_array(values, "values")
        log_probs = _component_log_probs(x, self.components)
        log_norm = _logsumexp(log_probs, axis=1, keepdims=True)
        return np.exp(log_probs - log_norm)

    def assign(self, values: Sequence[float]) -> np.ndarray:
        """Hard assignment of each value to its most likely component."""
        return np.argmax(self.responsibilities(values), axis=1)


@dataclass(frozen=True)
class MixtureSelection:
    """What :func:`select_gmms` chose, and the EM work behind it."""

    #: The BIC-best mixture of each sample, in input order.
    mixtures: List[GaussianMixture]
    fits: int
    iterations: int
    not_converged: int


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    out = peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def _component_log_probs(
    x: np.ndarray, components: Sequence[GaussianComponent]
) -> np.ndarray:
    """Weighted log density of each sample under each component."""
    logs = np.empty((x.size, len(components)))
    for j, comp in enumerate(components):
        log_w = math.log(max(comp.weight, 1e-300))
        logs[:, j] = (
            log_w
            - 0.5 * (_LOG_2PI + math.log(comp.variance))
            - 0.5 * (x - comp.mean) ** 2 / comp.variance
        )
    return logs


def _init_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style spread initialization of component means.

    Draws from the raw samples, so how often a value occurs weighs its
    chance of being picked.  The squared distance to the nearest mean so
    far is updated one new mean at a time.
    """
    means = [float(rng.choice(x))]
    dist_sq = np.abs(x - means[0]) ** 2
    while len(means) < k:
        total = dist_sq.sum()
        if total <= 0:
            means.append(float(rng.choice(x)))
        else:
            means.append(float(rng.choice(x, p=dist_sq / total)))
        np.minimum(dist_sq, np.abs(x - means[-1]) ** 2, out=dist_sq)
    return np.asarray(means)


def _padded_length(n_distinct: int) -> int:
    """Row length of a sample with ``n_distinct`` distinct values.

    It depends on the sample alone.  numpy sums a row pairwise, in a
    tree whose shape changes with the row length above 128 elements,
    so padding rows to the longest sample of a stack would make a pair's
    mixture depend on the other pairs of its chunk.  Powers of two, at
    least 8, keep the number of row lengths, and so of kernel groups,
    small.
    """
    return max(8, 1 << (n_distinct - 1).bit_length())


@dataclass(frozen=True)
class _Sample:
    """One interval list as the EM kernel sees it.

    ``values`` holds the distinct values in ascending order, padded to
    :func:`_padded_length` by repeating the largest; ``counts`` holds
    their multiplicities and is zero on the padding, so padding never
    contributes to a sum.
    """

    values: np.ndarray
    counts: np.ndarray
    size: int
    spread: float

    @classmethod
    def of(cls, x: np.ndarray) -> "_Sample":
        values, counts = np.unique(x, return_counts=True)
        pad = _padded_length(values.size) - values.size
        return cls(
            values=np.pad(values, (0, pad), mode="edge"),
            counts=np.pad(counts.astype(float), (0, pad)),
            size=int(x.size),
            spread=float(np.var(x)),
        )


@dataclass
class _Fits:
    """Final state of a stack of EM fits, one row per fit.

    Columns beyond a row's own component count are padding.
    """

    n_components: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    log_likelihood: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def mixture(self, row: int, n_samples: int) -> GaussianMixture:
        """Row ``row`` as a :class:`GaussianMixture` over ``n_samples``."""
        k = int(self.n_components[row])
        components = tuple(
            GaussianComponent(float(m), float(v), float(w))
            for m, v, w in zip(
                self.means[row, :k],
                self.variances[row, :k],
                self.weights[row, :k],
            )
        )
        log_likelihood = float(self.log_likelihood[row])
        return GaussianMixture(
            components=components,
            log_likelihood=log_likelihood,
            bic=_bic(k, n_samples, log_likelihood),
            n_samples=n_samples,
            converged=bool(self.converged[row]),
        )


def _bic(k: int, n_samples: int, log_likelihood: float) -> float:
    # Parameters per component: mean, variance; weights contribute k - 1.
    return (3 * k - 1) * math.log(n_samples) - 2.0 * log_likelihood


def _fit_stack(
    samples: Sequence[_Sample],
    fits: Sequence[Tuple[int, np.ndarray]],
    *,
    max_iter: int = 200,
    tol: float = 1e-6,
    variance_floor: float = 1e-4,
) -> _Fits:
    """EM for every ``(sample index, initial means)`` fit of a stack.

    Fits are grouped by their sample's padded row length, and each group
    is cut into blocks of at most :data:`EM_BLOCK` elements that run to
    completion one after another.  A fit's arithmetic reads its own row
    only, so neither the grouping nor the blocking changes any result.
    """
    width = max(means.size for _index, means in fits)
    n_fits = len(fits)
    out = _Fits(
        n_components=np.array([means.size for _index, means in fits]),
        means=np.zeros((n_fits, width)),
        variances=np.zeros((n_fits, width)),
        weights=np.zeros((n_fits, width)),
        log_likelihood=np.zeros(n_fits),
        iterations=np.zeros(n_fits, dtype=int),
        converged=np.zeros(n_fits, dtype=bool),
    )
    groups: Dict[int, List[int]] = {}
    for row, (index, _means) in enumerate(fits):
        groups.setdefault(samples[index].values.size, []).append(row)
    for length, rows in groups.items():
        step = max(1, EM_BLOCK // (width * length))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            _em_block(
                [samples[fits[row][0]] for row in block],
                [fits[row][1] for row in block],
                np.asarray(block),
                out,
                width=width,
                max_iter=max_iter,
                tol=tol,
                variance_floor=variance_floor,
            )
    return out


def _em_block(
    samples: Sequence[_Sample],
    initial_means: Sequence[np.ndarray],
    rows: np.ndarray,
    out: _Fits,
    *,
    width: int,
    max_iter: int,
    tol: float,
    variance_floor: float,
) -> None:
    """Run one block of fits (equal row lengths) and store them in ``out``.

    Arrays are (fit, component, value): every reduction over values runs
    along one contiguous row, and the component axis is padded to
    ``width`` with components of zero weight whose log density is -inf.
    A fit is stored and dropped from the active set at the iteration
    that converges it, or at ``max_iter``.
    """
    x = np.stack([sample.values for sample in samples])
    counts = np.stack([sample.counts for sample in samples])
    size = np.array([float(sample.size) for sample in samples])
    k = out.n_components[rows]
    live = np.arange(width)[None, :] < k[:, None]
    # Added to the log weights: -inf silences a padding component.
    padding = np.where(live, 0.0, -np.inf)
    means = np.zeros((rows.size, width))
    for fit, start in enumerate(initial_means):
        means[fit, : start.size] = start
    spread = np.array(
        [max(sample.spread, variance_floor) for sample in samples]
    )
    variances = np.where(live, spread[:, None], 1.0)
    weights = np.where(live, 1.0 / k[:, None], 0.0)
    previous = np.full(rows.size, -np.inf)
    for iteration in range(1, max_iter + 1):
        # E-step: log density of each value under each component, then
        # the log-sum-exp over components.
        const = (np.log(np.maximum(weights, 1e-300)) + padding) - 0.5 * (
            _LOG_2PI + np.log(variances)
        )
        resp = np.subtract(x[:, None, :], means[:, :, None])
        np.square(resp, out=resp)
        resp *= (-0.5 / variances)[:, :, None]
        resp += const[:, :, None]
        peak = resp.max(axis=1, keepdims=True)
        resp -= peak
        np.exp(resp, out=resp)
        total = resp.sum(axis=1, keepdims=True)
        log_likelihood = (counts * (peak + np.log(total))[:, 0, :]).sum(axis=1)
        # M-step on responsibilities times counts: each value's mass.
        resp *= counts[:, None, :] / total
        mass = np.maximum(resp.sum(axis=2), 1e-12)
        weights = mass / size[:, None]
        means = (resp * x[:, None, :]).sum(axis=2) / mass
        spread_sq = np.subtract(x[:, None, :], means[:, :, None])
        np.square(spread_sq, out=spread_sq)
        spread_sq *= resp
        variances = np.maximum(spread_sq.sum(axis=2) / mass, variance_floor)

        converged = np.abs(log_likelihood - previous) < tol * np.maximum(
            1.0, np.abs(previous)
        )
        previous = log_likelihood
        done = converged | (iteration == max_iter)
        if not done.any():
            continue
        finished = rows[done]
        out.means[finished] = means[done]
        out.variances[finished] = variances[done]
        out.weights[finished] = weights[done]
        out.log_likelihood[finished] = log_likelihood[done]
        out.iterations[finished] = iteration
        out.converged[finished] = converged[done]
        active = ~done
        if not active.any():
            return
        rows, x, counts, size, padding = (
            rows[active], x[active], counts[active], size[active],
            padding[active],
        )
        means, variances, weights, previous = (
            means[active], variances[active], weights[active],
            previous[active],
        )


def fit_gmm(
    values: Sequence[float],
    n_components: int,
    *,
    max_iter: int = 200,
    tol: float = 1e-6,
    variance_floor: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> GaussianMixture:
    """Fit a 1-D Gaussian mixture with ``n_components`` via EM."""
    require(n_components >= 1, "n_components must be at least 1")
    require_positive(max_iter, "max_iter")
    x = as_float_array(values, "values")
    require(x.size >= n_components, "need at least one sample per component")
    if rng is None:
        rng = np.random.default_rng(0)
    fits = _fit_stack(
        [_Sample.of(x)],
        [(0, _init_means(x, n_components, rng))],
        max_iter=max_iter,
        tol=tol,
        variance_floor=variance_floor,
    )
    return fits.mixture(0, int(x.size))


def select_gmm(
    values: Sequence[float],
    *,
    max_components: int = 5,
    restarts: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> GaussianMixture:
    """Fit mixtures with 1..``max_components`` components, keep best BIC.

    Each component count is fitted ``restarts`` times from different
    initializations; the overall BIC-minimal model is returned (paper
    Fig. 7: "BIC vs. # components").
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return select_gmms(
        [values], [rng], max_components=[max_components], restarts=restarts
    ).mixtures[0]


def select_gmms(
    samples: Sequence[Sequence[float]],
    rngs: Sequence[np.random.Generator],
    *,
    max_components: Sequence[int],
    restarts: int = 3,
) -> MixtureSelection:
    """:func:`select_gmm` for many samples, in one call of the EM kernel.

    Sample ``i`` is fitted with 1..``max_components[i]`` components and
    draws its initial means from ``rngs[i]`` (:func:`draw_starts`), so
    each generator is left in the state a one-sample :func:`select_gmm`
    call leaves it in; then one :func:`fit_starts` call runs every fit.
    """
    require(
        len(samples) == len(rngs) == len(max_components),
        "samples, rngs and max_components must have equal lengths",
    )
    return fit_starts([
        draw_starts(values, rng, max_components=limit, restarts=restarts)
        for values, rng, limit in zip(samples, rngs, max_components)
    ])


@dataclass(frozen=True)
class MixtureStarts:
    """One sample and the initial means of each of its EM fits.

    ``means`` holds one array per (component count, restart) fit, in
    that order; :func:`fit_starts` runs EM from each.
    """

    values: np.ndarray
    means: Tuple[np.ndarray, ...]


def draw_starts(
    values: Sequence[float],
    rng: np.random.Generator,
    *,
    max_components: int,
    restarts: int = 3,
) -> MixtureStarts:
    """The initial means :func:`select_gmm` draws for ``values``.

    1..``max_components`` components (at most one per value),
    ``restarts`` fits each, drawn from ``rng`` in (component count,
    restart) order.  No EM runs here.
    """
    require(restarts >= 1, "restarts must be at least 1")
    require(max_components >= 1, "max_components must be at least 1")
    x = as_float_array(values, "values")
    require(x.size >= 2, "need at least 2 values to fit a mixture")
    return MixtureStarts(
        values=x,
        means=tuple(
            _init_means(x, k, rng)
            for k in range(1, min(max_components, x.size) + 1)
            for _ in range(restarts)
        ),
    )


def fit_starts(starts: Sequence[MixtureStarts]) -> MixtureSelection:
    """EM from every drawn start, in one kernel call; best BIC per sample.

    A fit reads only its own sample, so a sample's mixture does not
    depend on which other samples share the call.  Ties in BIC go to
    the earlier (component count, restart) fit.
    """
    if not starts:
        return MixtureSelection([], fits=0, iterations=0, not_converged=0)
    prepared = [_Sample.of(start.values) for start in starts]
    fits = [
        (index, means)
        for index, start in enumerate(starts)
        for means in start.means
    ]
    result = _fit_stack(prepared, fits)

    best: Dict[int, Tuple[float, int]] = {}
    for row, (index, means) in enumerate(fits):
        bic = _bic(
            means.size, prepared[index].size, float(result.log_likelihood[row])
        )
        if index not in best or bic < best[index][0]:
            best[index] = (bic, row)
    return MixtureSelection(
        mixtures=[
            result.mixture(best[index][1], sample.size)
            for index, sample in enumerate(prepared)
        ],
        fits=len(fits),
        iterations=int(result.iterations.sum()),
        not_converged=int(np.count_nonzero(~result.converged)),
    )
