"""Candidate pruning — step 2 of the detection algorithm (Section IV-C).

Three conservative filters reduce the candidate set before the expensive
ACF verification:

1. **High-frequency noise** — a candidate period smaller than the minimum
   observed inter-event interval cannot be real (Fig. 6: the TDSS trace's
   minimum interval is 196 s, so only the 387 s candidate survives).
2. **Hypothesis testing** — model observed intervals as draws from
   ``N(P, sigma^2)``; a one-sample t-test rejects candidate ``P`` when the
   p-value falls below the significance level (alpha = 5%).  The test is
   conservative: a candidate is only discarded on significant evidence.
   For multi-period traffic the intervals are first clustered (GMM) and
   the candidate is tested against the cluster it belongs to.
3. **Sampling rate** — under-sampled series are dropped: a candidate
   period must fit a minimum number of full cycles into the observation
   window, and the series must contain a minimum number of events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.gmm import GaussianMixture
from repro.utils.stats import one_sample_t_tests
from repro.utils.validation import (
    as_float_array,
    require,
    require_positive,
    require_probability,
)


@dataclass(frozen=True)
class PruningDecision:
    """Verdict of the pruning stage for one candidate period."""

    period: float
    kept: bool
    reason: str
    p_value: Optional[float] = None


def prune_high_frequency(
    periods: Sequence[float], intervals: Sequence[float]
) -> List[PruningDecision]:
    """Drop candidate periods below the minimum observed interval."""
    ivals = as_float_array(intervals, "intervals")
    positive = ivals[ivals > 0]
    if positive.size == 0:
        return [
            PruningDecision(float(p), False, "no positive intervals") for p in periods
        ]
    floor = float(positive.min())
    decisions = []
    for period in periods:
        if period < floor:
            decisions.append(
                PruningDecision(
                    float(period), False, f"period below min interval {floor:.4g}"
                )
            )
        else:
            decisions.append(PruningDecision(float(period), True, "ok"))
    return decisions


def fold_intervals(intervals: np.ndarray, period: float) -> np.ndarray:
    """Fold intervals onto one period: ``i -> i / round(i / P)``.

    A missed beacon turns one interval of ``P`` into one of ``2P`` (two
    misses: ``3P``, ...).  Under H0 every interval is a multiple of the
    candidate period plus noise, so dividing by the nearest multiple
    recovers per-beacon intervals that the t-test can assess.  Intervals
    below ``P/2`` (sub-period noise) are left untouched — they count as
    evidence against H0.
    """
    multiples = np.maximum(np.round(intervals / period), 1.0)
    return intervals / multiples


def t_test_candidate(
    period: float,
    intervals: Sequence[float],
    *,
    alpha: float = 0.05,
    mixture: Optional[GaussianMixture] = None,
    fold: bool = True,
    tolerance: float = 0.0,
) -> PruningDecision:
    """One-sample t-test of ``intervals`` against candidate ``period``.

    H0: ``period`` is the true period, so intervals ~ N(period, sigma^2).
    Reject (prune) when p < alpha.  Three real-world robustness measures:

    - when a fitted ``mixture`` is given, the intervals are restricted to
      the mixture component whose mean is nearest to the candidate —
      interleaved multi-period behaviour (Conficker) survives the test;
    - with ``fold=True``, intervals are first folded onto one period
      (see :func:`fold_intervals`) so that missed beacons — which double
      or triple individual intervals — do not bias the sample mean;
    - ``tolerance`` (seconds) is the candidate's own resolution: a DFT
      candidate is only known to within its frequency-bin width, so the
      test is an equivalence test against the band ``period +-
      tolerance`` rather than the point value (otherwise exactly-regular
      quantized traces reject their own true period on a sub-second
      mismatch).

    A one-period :func:`t_test_candidates` call.
    """
    return t_test_candidates(
        [period],
        intervals,
        alpha=alpha,
        mixture=mixture,
        fold=fold,
        tolerances=[tolerance],
    )[0]


def t_test_candidates(
    periods: Sequence[float],
    intervals: Sequence[float],
    *,
    alpha: float = 0.05,
    mixture: Optional[GaussianMixture] = None,
    fold: bool = True,
    tolerances: Optional[Sequence[float]] = None,
) -> List[PruningDecision]:
    """:func:`t_test_candidate` of several periods on one interval list.

    Periods tested on the same sample (the whole list, or the members
    of one mixture component) are folded and tested together as the
    rows of one matrix, and the mixture assignment is computed once;
    each decision equals its one-period call.
    """
    require_probability(alpha, "alpha")
    periods = [float(period) for period in periods]
    for period in periods:
        require_positive(period, "period")
    if tolerances is None:
        tolerances = [0.0] * len(periods)
    require(len(tolerances) == len(periods),
            "tolerances must align with periods")
    tolerance = np.asarray(tolerances, dtype=float)
    require(bool((tolerance >= 0).all()), "tolerance must be non-negative")
    ivals = as_float_array(intervals, "intervals")
    ivals = ivals[ivals > 0]
    if ivals.size == 0:
        return [
            PruningDecision(period, False, "no positive intervals")
            for period in periods
        ]
    # Each period's sample: the members of the mixture component whose
    # mean is nearest to it (when it has at least two), else every
    # interval.  Periods sharing a sample are tested together.
    groups: Dict[int, List[int]] = {}
    samples: Dict[int, np.ndarray] = {-1: ivals}
    if mixture is not None and mixture.n_components > 1 and periods:
        means = np.asarray([c.mean for c in mixture.components])
        assignment = mixture.assign(ivals)
        for index, period in enumerate(periods):
            target = int(np.argmin(np.abs(means - period)))
            if target not in samples:
                member = ivals[assignment == target]
                samples[target] = member if member.size >= 2 else ivals
            groups.setdefault(target, []).append(index)
    else:
        groups[-1] = list(range(len(periods)))
    p_values = np.empty(len(periods))
    for target, members in groups.items():
        sample = samples[target]
        targets = np.asarray([periods[index] for index in members])
        if fold:
            rows = fold_intervals(
                sample[np.newaxis, :], targets[:, np.newaxis]
            )
        else:
            rows = np.broadcast_to(sample, (len(members), sample.size))
        # Equivalence band: test against the band edge nearest the
        # sample mean; a mean inside the band is consistent with H0 by
        # definition.
        band = tolerance[members]
        popmean = np.minimum(
            np.maximum(rows.sum(axis=1) / sample.size, targets - band),
            targets + band,
        )
        p_values[members] = one_sample_t_tests(rows, popmean)
    decisions: List[PruningDecision] = []
    for period, p_value in zip(periods, p_values.tolist()):
        if p_value < alpha:
            decisions.append(
                PruningDecision(
                    period,
                    False,
                    f"t-test rejected (p={p_value:.4g} < {alpha})",
                    p_value,
                )
            )
        else:
            decisions.append(PruningDecision(period, True, "ok", p_value))
    return decisions


def prune_sampling_rate(
    periods: Sequence[float],
    *,
    n_events: int,
    duration: float,
    min_cycles: int = 3,
    min_events: int = 4,
) -> List[PruningDecision]:
    """Drop under-sampled candidates.

    A period is testable only if at least ``min_cycles`` full cycles fit
    into the observed ``duration`` and the series carries at least
    ``min_events`` events in total (Section IV-C, "Sampling Rate"; this
    matters most after rescaling to coarse granularities).
    """
    require(min_cycles >= 1, "min_cycles must be at least 1")
    require(min_events >= 2, "min_events must be at least 2")
    decisions = []
    for period in periods:
        if n_events < min_events:
            decisions.append(
                PruningDecision(float(period), False, f"fewer than {min_events} events")
            )
        elif duration <= 0 or duration / period < min_cycles:
            decisions.append(
                PruningDecision(
                    float(period), False, f"fewer than {min_cycles} cycles observed"
                )
            )
        else:
            decisions.append(PruningDecision(float(period), True, "ok"))
    return decisions


def prune_candidates(
    periods: Sequence[float],
    intervals: Sequence[float],
    *,
    duration: Optional[float] = None,
    alpha: float = 0.05,
    min_cycles: int = 3,
    min_events: int = 4,
    mixture: Optional[GaussianMixture] = None,
    fold: bool = True,
    tolerances: Optional[Sequence[float]] = None,
) -> List[PruningDecision]:
    """Run all three pruning filters; one decision per input period.

    Filters run in the paper's order (high-frequency noise, sampling
    rate, t-test); the first filter to reject a candidate records the
    reason, and the t-test (the expensive one) only runs for survivors.
    ``tolerances`` optionally gives each candidate's own resolution for
    the equivalence-band t-test (see :func:`t_test_candidate`).
    """
    if tolerances is not None:
        require(len(tolerances) == len(periods),
                "tolerances must align with periods")
    ivals = as_float_array(intervals, "intervals")
    n_events = ivals.size + 1
    if duration is None:
        duration = float(ivals.sum())
    decisions: List[PruningDecision] = []
    hf = prune_high_frequency(periods, ivals)
    sampling = prune_sampling_rate(
        periods,
        n_events=n_events,
        duration=duration,
        min_cycles=min_cycles,
        min_events=min_events,
    )
    testable: List[int] = []
    for index, (hf_dec, samp_dec) in enumerate(zip(hf, sampling)):
        if not hf_dec.kept:
            decisions.append(hf_dec)
        elif not samp_dec.kept:
            decisions.append(samp_dec)
        else:
            decisions.append(hf_dec)  # replaced by the t-test below
            testable.append(index)
    if testable:
        tested = t_test_candidates(
            [periods[index] for index in testable],
            ivals,
            alpha=alpha,
            mixture=mixture,
            fold=fold,
            tolerances=(
                [float(tolerances[index]) for index in testable]
                if tolerances is not None else None
            ),
        )
        for index, decision in zip(testable, tested):
            decisions[index] = decision
    return decisions
