"""The BAYWATCH periodicity detector — paper Section IV end-to-end.

:class:`PeriodicityDetector` wires the three algorithm steps together:

1. *DFT analysis* — bin the request timestamps into ``x(n)``, derive a
   permutation-based power threshold, and collect spectral candidates.
2. *Pruning* — discard high-frequency noise, under-sampled candidates,
   and candidates rejected by the interval t-test; a BIC-selected
   Gaussian mixture over the interval list both guards the t-test for
   multi-period traffic and contributes its own candidates (Fig. 7).
3. *Verification* — validate each survivor on the autocorrelation hill,
   refine the period to the ACF peak, then sharpen it further from the
   folded interval statistics; near-duplicate periods are merged.

Detection is *multi-scale*: the signal is analyzed at a geometric ladder
of time scales starting from the configured finest granularity, exactly
as BAYWATCH rescales ActivitySummaries to coarser granularities "for
better scalability and periodicity detection" (Section VII-B) and
operates at daily/weekly/monthly intervals (Section X).  Fine scales
resolve second-level beacons; coarse scales absorb jitter and expose
slow or bursty periodicities (a 2-hour APT beacon with minutes of jitter
is invisible at 1 s resolution but obvious at 60 s).

The output is a :class:`DetectionResult` holding ranked
:class:`CandidatePeriod` records (frequency, period in seconds, spectral
power, ACF score, t-test p-value) — the CandidatePeriod payload the
MapReduce detection job emits (Section VII-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

# autocorrelation, select_gmm and power_spectrum are not called in
# this module (BatchedDetector in repro.core.batch fits each chunk's
# mixtures and owns the transforms).  They are imported only so that
# the targets perfbench/layers.py names here still resolve; wrapping
# them measures nothing.  Drop them once that trace wraps the
# chunk-level repro.core.batch functions instead.
from repro.core.autocorrelation import (  # noqa: F401
    autocorrelation,
    validate_candidate,
)
from repro.core.gmm import (  # noqa: F401
    GaussianMixture,
    MixtureStarts,
    draw_starts,
    select_gmm,
)
from repro.core.periodogram import candidate_peaks, power_spectrum  # noqa: F401
from repro.core.permutation import ThresholdCache, permutation_threshold
from repro.core.pruning import fold_intervals, prune_candidates
from repro.core.timeseries import ActivitySummary, bin_series, intervals_from_timestamps
from repro.obs.registry import get_registry
from repro.utils.validation import (
    require,
    require_positive,
    require_probability,
)


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters of the periodicity detector.

    Defaults follow the paper: 1-second finest granularity, m = 20
    permutations at 95% confidence, t-test alpha = 5%.  ``scale_factor``
    and ``max_scales`` control the rescaling ladder; ``min_slots`` stops
    the ladder once the signal becomes too short to analyze.
    """

    time_scale: float = 1.0
    permutations: int = 20
    confidence: float = 0.95
    alpha: float = 0.05
    min_events: int = 4
    min_cycles: int = 3
    min_acf_score: float = 0.1
    min_support: float = 0.25
    max_candidates: int = 16
    use_gmm: bool = True
    gmm_max_components: int = 4
    gmm_min_weight: float = 0.1
    period_tolerance: float = 0.15
    binary_signal: bool = True
    fold_intervals: bool = True
    scale_factor: float = 4.0
    max_scales: int = 6
    min_slots: int = 32
    max_signal_length: int = 1 << 21
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        require_positive(self.time_scale, "time_scale")
        require(self.permutations >= 1, "permutations must be at least 1")
        require_probability(self.confidence, "confidence")
        require_probability(self.alpha, "alpha")
        require(self.min_events >= 2, "min_events must be at least 2")
        require(self.min_cycles >= 1, "min_cycles must be at least 1")
        require_probability(self.min_support, "min_support")
        require(self.max_candidates >= 1, "max_candidates must be at least 1")
        require_positive(self.period_tolerance, "period_tolerance")
        require(self.scale_factor > 1, "scale_factor must exceed 1")
        require(self.max_scales >= 1, "max_scales must be at least 1")
        require(self.min_slots >= 16, "min_slots must be at least 16")
        require(self.max_signal_length >= 64, "max_signal_length too small")


@dataclass(frozen=True)
class CandidatePeriod:
    """One verified periodicity; periods are in seconds.

    ``origin`` records which analysis produced the candidate (``"dft"``
    or ``"gmm"``); ``time_scale`` is the granularity at which the
    candidate was verified.
    """

    period: float
    frequency: float
    power: float
    acf_score: float
    p_value: float
    origin: str = "dft"
    time_scale: float = 1.0


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of running the detector on one communication pair."""

    periodic: bool
    candidates: Tuple[CandidatePeriod, ...]
    power_threshold: float
    n_events: int
    duration: float
    time_scale: float
    scales: Tuple[float, ...] = ()
    #: The BIC-selected interval mixture.  None when the pair has fewer
    #: than 4 positive intervals, ``use_gmm`` is off, or no analysed
    #: scale's spectrum clears its permutation threshold: such a pair
    #: never uses a mixture, so none is fitted (then
    #: ``spectral_margin > 0`` does not hold).
    mixture: Optional[GaussianMixture] = None
    rejection_reason: str = ""
    #: Machine-readable rejection code for decision provenance (empty
    #: for periodic results), e.g. ``"spectral:power<threshold"``.
    rejection_code: str = ""
    #: Candidates extracted across all scales before/after pruning.
    n_candidates_raw: int = 0
    n_candidates_pruned: int = 0
    #: Best (max power - threshold) margin over all analysed scales;
    #: NaN when no scale was analysed.  Near-miss detection keys on it.
    spectral_margin: float = float("nan")

    @property
    def dominant(self) -> Optional[CandidatePeriod]:
        """The strongest verified candidate, or None."""
        return self.candidates[0] if self.candidates else None

    @property
    def dominant_period(self) -> Optional[float]:
        """Period (seconds) of the strongest candidate, or None."""
        return self.candidates[0].period if self.candidates else None

    def periods(self) -> List[float]:
        """All verified periods in seconds, strongest first."""
        return [c.period for c in self.candidates]


_MAX_SUPPRESSED_MULTIPLE = 4
_MIN_FUNDAMENTAL_STRENGTH = 0.5


@dataclass
class _PairPlan:
    """Everything pair-level the per-scale analysis needs.

    Built once per pair by :meth:`PeriodicityDetector._plan`, which also
    owns the pair's seeded generator: the GMM's initial means are drawn
    from it first (:meth:`PeriodicityDetector._mixture_starts`), then
    the per-scale permutation draws, so a pair's random stream does not
    depend on the other pairs of its chunk.
    :class:`~repro.core.batch.BatchedDetector` holds many plans at once
    while the shared-array kernels run.  Once every threshold is known
    it fits, in one call, the mixtures of the plans with a scale above
    its threshold (:meth:`PeriodicityDetector._attach_mixture`); the
    other plans keep ``mixture`` None and no GMM periods.
    """

    ts: np.ndarray
    duration: float
    scales: List[float]
    intervals: np.ndarray
    positive: np.ndarray
    mixture: Optional[GaussianMixture]
    gmm_periods: List[float]
    rng: np.random.Generator
    # Provenance accumulators, folded into the DetectionResult by
    # _finalize; BatchedDetector updates them.
    n_raw: int = 0
    n_pruned: int = 0
    margin: float = float("-inf")


@dataclass
class _ScaleWork:
    """Pending ACF verification for one (pair, scale) slot.

    Produced by :meth:`PeriodicityDetector._analyze_scale` when at least
    one pruned candidate still needs hill validation; the ACF itself is
    computed by the caller as a row of a batched transform and handed to
    :meth:`PeriodicityDetector._verify_scale`.
    """

    scale: float
    signal: np.ndarray
    finalists: List[Tuple[Tuple[float, float, str, float], object]] = field(
        default_factory=list
    )


def _power_near_bin(
    spectrum: np.ndarray, center: float, half_width: int
) -> Optional[float]:
    """Strongest power within ``half_width`` DFT bins of fractional bin
    ``center``.

    ``spectrum`` comes from :func:`~repro.core.periodogram.power_spectrum`,
    which drops the DC bin, so ``spectrum[i]`` holds DFT bin ``i + 1``:
    probing bins ``[center - half_width, center + half_width]`` means
    slicing indices shifted down by one.  Returns ``None`` when the
    window falls entirely outside the spectrum.
    """
    low = max(0, int(np.floor(center)) - half_width - 1)
    high = min(spectrum.size, int(np.ceil(center)) + half_width)
    if low >= high:
        return None
    return float(spectrum[low:high].max())


def _merge_similar(
    candidates: List[CandidatePeriod], tolerance: float
) -> List[CandidatePeriod]:
    """Merge near-duplicate periods, preferring fundamentals.

    Candidates are processed in ascending period order so that a
    fundamental suppresses its small integer multiples (2x-4x) — the
    subharmonics that missed beacons induce — as well as re-detections of
    the same period at another scale.  A weaker fundamental only
    suppresses a multiple when its own ACF score is at least half the
    multiple's, so a spurious short period cannot shadow a genuine long
    one.  Large multiples are kept on purpose: a burst/sleep behaviour
    such as Conficker genuinely has both a seconds-level and an
    hours-level period (Fig. 7).  The result is ordered strongest-first.
    """
    ordered = sorted(candidates, key=lambda c: (c.period, -c.acf_score))
    kept: List[CandidatePeriod] = []
    for cand in ordered:
        duplicate = False
        for index, existing in enumerate(kept):
            ratio = cand.period / max(existing.period, 1e-12)
            nearest = round(ratio)
            if not 1 <= nearest <= _MAX_SUPPRESSED_MULTIPLE:
                continue
            anchor = nearest * existing.period
            close = abs(cand.period - anchor) <= tolerance * max(cand.period, 1e-12)
            if not close:
                continue
            if nearest == 1:
                # Same period seen twice (another scale / another origin):
                # always merge, keeping the stronger estimate.
                if cand.acf_score > existing.acf_score:
                    kept[index] = cand
                duplicate = True
                break
            if existing.acf_score >= _MIN_FUNDAMENTAL_STRENGTH * cand.acf_score:
                # A sufficiently strong fundamental absorbs its multiple.
                duplicate = True
                break
        if not duplicate:
            kept.append(cand)
    return sorted(kept, key=lambda c: (c.acf_score, c.power), reverse=True)


class PeriodicityDetector:
    """Robust periodicity detection for one communication pair.

    Instances are stateless apart from configuration, so a single
    detector can be reused across millions of pairs.
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        *,
        threshold_cache: Optional[ThresholdCache] = None,
    ) -> None:
        """``threshold_cache`` (optional) reuses permutation thresholds
        across pairs with similar binary-signal shapes — the production
        speed/accuracy trade-off for million-pair runs.  Only consulted
        when ``config.binary_signal`` is on."""
        self.config = config or DetectorConfig()
        self.threshold_cache = threshold_cache

    # -- public API --------------------------------------------------------

    def detect(self, timestamps: Sequence[float]) -> DetectionResult:
        """Detect periodicities in a raw timestamp sequence (seconds).

        The pair runs as a one-pair chunk of
        :class:`~repro.core.batch.BatchedDetector`, the one detection
        loop, so it gets exactly the result a multi-pair call would.
        """
        from repro.core.batch import BatchedDetector

        return BatchedDetector(self)._detect([(self, timestamps)])[0]

    def detect_summary(self, summary: ActivitySummary) -> DetectionResult:
        """Detect periodicities in an :class:`ActivitySummary`.

        If the summary is coarser than the configured finest scale, the
        analysis ladder simply starts at the summary's own granularity.
        """
        return self.for_time_scale(summary.time_scale).detect(
            summary.timestamps()
        )

    def for_time_scale(self, time_scale: float) -> "PeriodicityDetector":
        """A detector whose analysis ladder starts at ``time_scale``.

        Returns ``self`` unless the requested granularity is coarser
        than the configured finest scale.  The threshold cache is
        threaded through: coarse-granularity summaries dominate the
        weekly/monthly passes, and losing the cache there would re-run
        the permutation test for every pair (the cache is keyed on
        signal shape only, so sharing it across time scales is safe).
        """
        if time_scale <= self.config.time_scale:
            return self
        return PeriodicityDetector(
            replace(self.config, time_scale=time_scale),
            threshold_cache=self.threshold_cache,
        )

    # -- internals ----------------------------------------------------------

    def _screen(
        self, ts: np.ndarray
    ) -> Tuple[Optional[DetectionResult], Optional[Tuple[float, List[float]]]]:
        """The cheap pre-analysis gates every pair passes first.

        Returns either an early rejection result, or the ``(duration,
        scales)`` pair the full analysis needs.  Exactly one element of
        the returned tuple is non-None.
        """
        cfg = self.config
        if ts.size < cfg.min_events:
            return (
                self._rejected(
                    ts,
                    f"fewer than {cfg.min_events} events",
                    code="spectral:min_events",
                ),
                None,
            )
        duration = float(ts[-1] - ts[0])
        if duration <= 0:
            return (
                self._rejected(
                    ts,
                    "all events in a single time slot",
                    code="spectral:single_slot",
                ),
                None,
            )
        scales = self._choose_scales(duration)
        if not scales:
            return (
                self._rejected(
                    ts,
                    "window too short at every analysis scale",
                    code="spectral:window_too_short",
                ),
                None,
            )
        return None, (duration, scales)

    def _choose_scales(self, duration: float) -> List[float]:
        """The geometric ladder of analysis granularities for ``duration``.

        Scales where the signal would be longer than
        ``max_signal_length`` slots are skipped (the caller should have
        rescaled already); the ladder stops when fewer than ``min_slots``
        slots remain.
        """
        cfg = self.config
        scales: List[float] = []
        scale = cfg.time_scale
        for _ in range(cfg.max_scales):
            n_slots = duration / scale + 1
            if n_slots < cfg.min_slots:
                break
            if n_slots <= cfg.max_signal_length:
                scales.append(scale)
            scale *= cfg.scale_factor
        return scales

    def _rejected(
        self, ts: np.ndarray, reason: str, code: str = ""
    ) -> DetectionResult:
        get_registry().counter("detector.pairs_rejected_early").inc()
        duration = float(ts[-1] - ts[0]) if ts.size >= 2 else 0.0
        return DetectionResult(
            periodic=False,
            candidates=(),
            power_threshold=float("nan"),
            n_events=int(ts.size),
            duration=duration,
            time_scale=self.config.time_scale,
            rejection_reason=reason,
            rejection_code=code,
        )

    def _plan(
        self, ts: np.ndarray, duration: float, scales: List[float]
    ) -> _PairPlan:
        """Pair-level analysis plan: intervals, useful scales, rng.

        The plan's interval mixture is not fitted here:
        :class:`~repro.core.batch.BatchedDetector` draws its initial
        means from the pair's seeded generator first
        (:meth:`_mixture_starts`), per-scale permutation draws follow in
        scale order, and it fits the chunk's mixtures at once and hands
        each to :meth:`_attach_mixture`.
        """
        rng = np.random.default_rng(self.config.seed)
        intervals = intervals_from_timestamps(ts)
        positive = intervals[intervals > 0]

        # Scales much finer than the smallest inter-event interval cannot
        # reveal anything the next-coarser scale will not: every
        # detectable period there is pruned by the min-interval filter.
        # Skipping them avoids the largest FFTs entirely.
        if positive.size:
            floor = float(positive.min()) / 128.0
            useful = [s for s in scales if s >= floor]
            if useful:
                scales = useful
            else:
                scales = scales[-1:]

        return _PairPlan(
            ts=ts,
            duration=duration,
            scales=list(scales),
            intervals=intervals,
            positive=positive,
            mixture=None,
            gmm_periods=[],
            rng=rng,
        )

    def _mixture_starts(self, plan: _PairPlan) -> Optional[MixtureStarts]:
        """The initial means of ``plan``'s GMM fits; None means no GMM.

        Drawn from the pair's generator, ahead of its permutation draws.
        """
        cfg = self.config
        if not (cfg.use_gmm and plan.positive.size >= 4):
            return None
        return draw_starts(
            plan.positive, plan.rng, max_components=cfg.gmm_max_components
        )

    def _attach_mixture(
        self, plan: _PairPlan, mixture: GaussianMixture
    ) -> None:
        """Give ``plan`` its fitted interval mixture and GMM periods."""
        plan.mixture = mixture
        plan.gmm_periods = mixture.candidate_periods(
            self.config.gmm_min_weight, min_count=6
        )

    def _finalize(
        self,
        plan: _PairPlan,
        verified: List[CandidatePeriod],
        thresholds: List[float],
    ) -> DetectionResult:
        """Merge per-scale survivors into the pair's final verdict."""
        cfg = self.config
        merged = _merge_similar(verified, cfg.period_tolerance)
        threshold = thresholds[0] if thresholds else float("nan")
        reason = ""
        code = ""
        if not merged:
            reason = "no candidate survived pruning and ACF verification"
            if plan.n_raw == 0:
                code = "spectral:power<threshold"
            elif plan.n_pruned == 0:
                code = "pruning:rejected"
            else:
                code = "acf:below_min_score"
        margin = plan.margin if plan.margin > float("-inf") else float("nan")
        return DetectionResult(
            periodic=bool(merged),
            candidates=tuple(merged),
            power_threshold=threshold,
            n_events=int(plan.ts.size),
            duration=plan.duration,
            time_scale=cfg.time_scale,
            scales=tuple(plan.scales),
            mixture=plan.mixture,
            rejection_reason=reason,
            rejection_code=code,
            n_candidates_raw=plan.n_raw,
            n_candidates_pruned=plan.n_pruned,
            spectral_margin=margin,
        )

    def _bin_at_scale(
        self, plan: _PairPlan, scale: float
    ) -> Optional[np.ndarray]:
        """The binned signal at one scale, or None when it is too short."""
        get_registry().counter("detector.scales_analyzed").inc()
        signal = bin_series(plan.ts, scale, binary=self.config.binary_signal)
        if signal.size < self.config.min_slots:
            return None
        return signal

    def _scale_threshold(
        self, signal: np.ndarray, rng: np.random.Generator
    ) -> float:
        """Permutation power threshold for one binned signal."""
        cfg = self.config
        with get_registry().timer("detector.permutation.seconds"):
            if self.threshold_cache is not None and cfg.binary_signal:
                return self.threshold_cache.threshold(
                    signal.size, int(signal.sum())
                )
            return permutation_threshold(
                signal,
                permutations=cfg.permutations,
                confidence=cfg.confidence,
                rng=rng,
            ).threshold

    def _analyze_scale(
        self,
        plan: _PairPlan,
        scale: float,
        signal: np.ndarray,
        spectrum: np.ndarray,
        threshold: float,
    ) -> Optional[_ScaleWork]:
        """Candidate extraction and pruning at one scale, pre-ACF.

        The periodogram is computed once by the caller and shared by
        spectral peak extraction and the GMM power probe (each used to
        run its own FFT).  Returns the pending verification work, or
        None when no candidate at this scale survives to the ACF step.
        """
        cfg = self.config
        registry = get_registry()
        peaks = candidate_peaks(
            signal,
            threshold,
            max_candidates=cfg.max_candidates,
            spectrum=spectrum,
        )

        # (period_seconds, power, origin, tolerance); GMM candidates are
        # attached to the scale(s) able to resolve them.  A DFT
        # candidate's tolerance is its frequency-bin resolution (at
        # least one slot); a GMM candidate is interval-derived and known
        # to one slot.
        n = signal.size
        raw: List[Tuple[float, float, str, float]] = [
            (
                peak.period * scale,
                peak.power,
                "dft",
                max(scale, (peak.period * scale) ** 2 / (n * scale)),
            )
            for peak in peaks
        ]
        # GMM candidates must clear the same permutation power bar as
        # spectral candidates — interval clustering alone is not
        # periodicity (bursty browsing clusters its intra-session
        # gaps without any spectral line at that frequency).  The
        # candidate's power is the strongest periodogram value within
        # +-1% of its frequency: the GMM mean and the effective
        # spectral period differ by a fraction of a percent, which at
        # high bin indices is dozens of bins.
        for period_s in plan.gmm_periods:
            period_slots = period_s / scale
            if not 2.0 <= period_slots <= n / cfg.min_cycles:
                continue
            center = n / period_slots
            half_width = max(2, int(np.ceil(center * 0.01)))
            power = _power_near_bin(spectrum, center, half_width)
            if power is None:
                continue
            if power > threshold:
                raw.append((period_s, power, "gmm", scale))
        if not raw:
            return None

        periods = [entry[0] for entry in raw]
        plan.n_raw += len(raw)
        registry.counter("detector.candidates_raw").inc(len(raw))
        with registry.timer("detector.pruning.seconds"):
            decisions = prune_candidates(
                periods,
                plan.intervals,
                duration=plan.duration,
                alpha=cfg.alpha,
                min_cycles=cfg.min_cycles,
                min_events=cfg.min_events,
                mixture=plan.mixture,
                fold=cfg.fold_intervals,
                tolerances=[entry[3] for entry in raw],
            )

        finalists: List[Tuple[Tuple[float, float, str, float], object]] = []
        for entry, decision in zip(raw, decisions):
            if not decision.kept:
                continue
            period_s, _power, origin, _tolerance = entry
            period_slots = period_s / scale
            if not 1.0 <= period_slots <= signal.size - 2:
                continue
            # Interval support: a spectral candidate must explain a
            # minimum fraction of the observed intervals (after folding
            # away missed-beacon multiples).  Session-structured benign
            # traffic produces coarse-scale spectral flukes whose period
            # matches almost no actual interval.  GMM candidates carry
            # interval-cluster support by construction and are exempt —
            # a rare-but-real second period (Conficker's sleep) must not
            # need majority support.  The check is O(n) and gates the
            # more expensive ACF verification.
            if origin == "dft" and not self._has_support(
                period_s, plan.positive, scale, slack=2.0
            ):
                continue
            finalists.append((entry, decision))
        plan.n_pruned += len(finalists)
        if not finalists:
            return None
        return _ScaleWork(scale=scale, signal=signal, finalists=finalists)

    def _verify_scale(
        self, plan: _PairPlan, work: _ScaleWork, acf: np.ndarray
    ) -> List[CandidatePeriod]:
        """ACF hill validation and period refinement for one scale."""
        cfg = self.config
        scale = work.scale
        out: List[CandidatePeriod] = []
        for (period_s, power, origin, _tolerance), decision in work.finalists:
            validation = validate_candidate(
                acf, period_s / scale, min_acf_score=cfg.min_acf_score
            )
            if not validation.valid:
                continue
            refined = self._refine_period(
                validation.refined_period * scale, plan.positive, scale
            )
            if origin == "dft" and not self._has_support(
                refined, plan.positive, scale
            ):
                continue
            out.append(
                CandidatePeriod(
                    period=refined,
                    frequency=1.0 / refined,
                    power=power,
                    acf_score=validation.acf_score,
                    p_value=decision.p_value if decision.p_value is not None else 1.0,
                    origin=origin,
                    time_scale=scale,
                )
            )
        get_registry().counter("detector.candidates_verified").inc(len(out))
        return out

    def _has_support(
        self, period: float, positive: np.ndarray, scale: float,
        *, slack: float = 1.0,
    ) -> bool:
        """Do enough folded intervals agree with ``period``?

        ``slack`` widens the agreement band — the pre-verification gate
        runs on the unrefined candidate, whose own resolution can exceed
        the band for long periods, so it checks loosely and the strict
        check re-runs on the refined estimate.
        """
        cfg = self.config
        if positive.size == 0 or period <= 0:
            return False
        folded = fold_intervals(positive, period)
        band = slack * np.maximum(cfg.period_tolerance * period, scale)
        support = float(np.mean(np.abs(folded - period) <= band))
        return support >= cfg.min_support

    def _refine_period(
        self, period: float, positive: np.ndarray, scale: float
    ) -> float:
        """Sharpen a slot-quantized period from the interval statistics.

        The ACF peak is quantized to the analysis scale; the mean of the
        folded intervals that fall within half a slot of the candidate
        recovers sub-slot precision.  If too few intervals agree, the
        ACF estimate is kept.
        """
        if positive.size < 3:
            return period
        folded = fold_intervals(positive, period)
        near = folded[np.abs(folded - period) <= max(scale, 0.05 * period)]
        if near.size >= max(3, positive.size // 4):
            return float(near.mean())
        return period
