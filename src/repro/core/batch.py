"""Batched multi-pair detection — the one detection loop.

One ``rfft`` per (pair, scale) slot, one more for each ACF, and twenty
more inside every cold permutation test: at BAYWATCH scale (Section
VII: millions of pairs) the per-call Python and scipy dispatch overhead
of those small transforms dominates the actual arithmetic.  This module
amortizes it:

- :func:`batch_power_spectra` and :func:`batch_autocorrelation` group
  signals by transform shape, stack them into 2-D arrays, and run
  *single* batched ``scipy.fft`` calls; per-pair post-processing
  consumes rows of the shared arrays.
- :class:`BatchedDetector` drives chunks of pairs through the
  :class:`~repro.core.detector.PeriodicityDetector` seams, replacing
  the per-pair transforms with the kernels above and fitting, in one
  :func:`~repro.core.gmm.fit_starts` call per chunk, the interval
  mixtures of the pairs whose spectrum clears its permutation
  threshold at some scale (no other pair uses its mixture).  Every
  detection in the package runs through it;
  ``PeriodicityDetector.detect`` is a one-pair chunk.

Every kernel is bit-for-bit equivalent to its single-signal counterpart
(the same mean removal, padding, and normalization in the same dtype),
and :class:`BatchedDetector` consumes each pair's seeded generator in
a fixed per-pair order — so how pairs fall into chunks never changes a
result.  ``tests/core/test_batch.py`` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as _fft

from repro.core.detector import (
    CandidatePeriod,
    DetectionResult,
    PeriodicityDetector,
    _PairPlan,
    _ScaleWork,
)
from repro.core.gmm import MixtureStarts, fit_starts
from repro.core.timeseries import ActivitySummary
from repro.obs.registry import get_registry
from repro.obs.tracing import span
from repro.utils.validation import as_sorted_timestamps, require

__all__ = [
    "SLOT_BUDGET",
    "batch_power_spectra",
    "batch_autocorrelation",
    "BatchedDetector",
]

#: Binned signal slots one chunk may hold across all its (pair, scale)
#: signals.  A slot costs 8 bytes of signal and about 4 of periodogram,
#: so a chunk stays near 6 MB whatever its pair count; a pair larger
#: than the budget on its own runs as a chunk of one.  Results do not
#: depend on it; it trades chunk size for peak memory.  Perfbench's
#: ``daily`` batch (20 pairs, 1.5 M slots in one call) peaked near
#: 161 MB RSS at 2^22 and 152 MB at 2^19 on a 2-CPU VM, and
#: ``monthly`` ran at the same speed.
SLOT_BUDGET = 1 << 19


def batch_power_spectra(signals: np.ndarray) -> np.ndarray:
    """Periodogram power of every row of equal-length ``signals``.

    Row ``i`` of the result equals
    ``power_spectrum(signals[i])`` bit for bit — same mean removal,
    same transform length, same normalization — but all rows share one
    batched real FFT.
    """
    x = np.ascontiguousarray(signals, dtype=float)
    require(x.ndim == 2, "signals must be 2-D (one row per pair)")
    require(x.shape[1] >= 4, "signals must have at least 4 columns")
    centered = x - x.mean(axis=1, keepdims=True)
    spectrum = _fft.rfft(centered, axis=1)
    # The elementwise complex ops run per row: numpy's SIMD kernels may
    # round |z|**2 differently over a long 2-D buffer than over the 1-D
    # array power_spectrum sees, and bitwise parity wins over the
    # marginal vectorization gain (the FFT above stays batched).
    out = np.empty((x.shape[0], x.shape[1] // 2))
    for row in range(x.shape[0]):
        power = (np.abs(spectrum[row]) ** 2) / x.shape[1]
        out[row] = power[1:]  # drop DC, as power_spectrum does
    return out


def batch_autocorrelation(signals: Sequence[np.ndarray]) -> List[np.ndarray]:
    """ACF of each (variable-length) signal via shape-grouped transforms.

    Signals are bucketed by their FFT size (``next_fast_len(2n)`` —
    the same padded length :func:`~repro.core.autocorrelation.autocorrelation`
    uses), zero-padded into one stack per bucket, and transformed with a
    single ``rfft``/``irfft`` pair per bucket.  Each returned array is
    bitwise identical to :func:`~repro.core.autocorrelation.autocorrelation`,
    including the degenerate zero-variance case (all-equal signal ->
    zeros with ``acf[0] = 1``).
    """
    arrays = [np.asarray(signal, dtype=float) for signal in signals]
    out: List[Optional[np.ndarray]] = [None] * len(arrays)
    groups: Dict[int, List[int]] = {}
    for index, x in enumerate(arrays):
        require(
            x.ndim == 1 and x.size >= 4,
            "each signal must be 1-D with at least 4 samples",
        )
        groups.setdefault(_fft.next_fast_len(2 * x.size), []).append(index)
    for size, members in groups.items():
        padded = np.zeros((len(members), size))
        variances = np.empty(len(members))
        for row, index in enumerate(members):
            x = arrays[index]
            centered = x - x.mean()
            padded[row, : x.size] = centered
            variances[row] = float(np.dot(centered, centered))
        spectrum = _fft.rfft(padded, axis=1)
        # Self-product row by row: the complex multiply is the one
        # elementwise op whose SIMD rounding depends on buffer length,
        # so a single 2-D product would drift from the 1-D ACF by an
        # ulp.  Both FFTs are batched; only this product is per-row.
        product = np.empty_like(spectrum)
        for row in range(len(members)):
            product[row] = spectrum[row] * np.conj(spectrum[row])
        correlation = _fft.irfft(product, size, axis=1)
        for row, index in enumerate(members):
            n = arrays[index].size
            if variances[row] <= 0:
                acf = np.zeros(n)
                acf[0] = 1.0
            else:
                acf = correlation[row, :n] / variances[row]
            out[index] = acf
    return out  # type: ignore[return-value]


@dataclass
class _Slot:
    """One (pair, scale) unit of batched work."""

    scale: float
    signal: np.ndarray
    spectrum: Optional[np.ndarray] = None
    #: Row maximum of ``spectrum``, computed vectorized per shape group.
    spectrum_max: float = 0.0
    threshold: float = float("nan")
    work: Optional[_ScaleWork] = None
    acf: Optional[np.ndarray] = None

    @property
    def clears(self) -> bool:
        """Does the spectrum strictly exceed the permutation threshold?

        When it does not, ``_analyze_scale`` provably returns None (both
        DFT peaks and the GMM window probe require ``power >
        threshold``) with no counter side effects, so the call is
        skipped, and the slot has no use for the pair's mixture.
        """
        return self.spectrum_max > self.threshold


@dataclass
class _PairUnit:
    """Per-pair state threaded through the batch phases."""

    detector: PeriodicityDetector
    result: Optional[DetectionResult] = None  # early rejection
    plan: Optional[_PairPlan] = None
    #: Initial means of the pair's GMM fits; None when it fits none.
    starts: Optional[MixtureStarts] = None
    slots: List[_Slot] = field(default_factory=list)

    @property
    def n_slots(self) -> int:
        """Binned signal slots this pair adds to its chunk."""
        return sum(slot.signal.size for slot in self.slots)


class BatchedDetector:
    """Multi-pair detection over the shape-grouped kernels.

    Wraps a :class:`PeriodicityDetector` and processes pairs in chunks
    bounded by :data:`SLOT_BUDGET`, in five phases:

    1. *plan* — per-pair screening, planning and binning, and the draw
       of each pair's GMM initial means from its seeded generator;
    2. *spectra* — every periodogram of the chunk from shape-grouped
       batched FFTs;
    3. *analyze* — every slot's permutation threshold, then one EM call
       fitting the mixtures of the pairs with at least one slot above
       its threshold, then candidate extraction and pruning per slot;
    4. *acf* — the surviving slots' ACFs from one more batched
       transform;
    5. *verify* — per-pair verification and merging.

    Results are returned in input order and do not depend on how the
    pairs fall into chunks — chunking changes the transform grouping,
    never the arithmetic or the random stream.
    """

    def __init__(self, detector: Optional[PeriodicityDetector] = None) -> None:
        self.detector = detector or PeriodicityDetector()

    def detect_summaries(
        self, summaries: Sequence[ActivitySummary]
    ) -> List[DetectionResult]:
        """Detection results for ``summaries``, in input order.

        Each summary's analysis ladder starts at its own granularity
        when that is coarser than the configured finest scale.
        """
        if not summaries:
            return []
        return self._detect(
            (self.detector.for_time_scale(summary.time_scale),
             summary.timestamps())
            for summary in summaries
        )

    def _detect(
        self, pairs: Iterable[Tuple[PeriodicityDetector, Sequence[float]]]
    ) -> List[DetectionResult]:
        """Run ``(detector, timestamps)`` pairs chunk by chunk."""
        pending = iter(pairs)
        results: List[DetectionResult] = []
        carry: Optional[_PairUnit] = None
        while True:
            with span("detect.batch"):
                # Phase 1 — screen, plan, bin and draw GMM initial means.
                with span("detect.batch.plan"):
                    units, carry = self._plan_chunk(pending, carry)
                results.extend(self._detect_chunk(units))
            if carry is None:
                return results

    # -- batch phases ------------------------------------------------------

    def _plan_chunk(
        self,
        pending: Iterator[Tuple[PeriodicityDetector, Sequence[float]]],
        carry: Optional[_PairUnit],
    ) -> Tuple[List[_PairUnit], Optional[_PairUnit]]:
        """Plan pairs until the next one would overflow the slot budget.

        Returns the chunk and the planned pair that did not fit, which
        opens the next chunk (None once ``pending`` is exhausted).
        """
        units = [] if carry is None else [carry]
        n_slots = sum(unit.n_slots for unit in units)
        carry = None
        for detector, timestamps in pending:
            unit = self._plan_pair(detector, timestamps)
            if units and n_slots + unit.n_slots > SLOT_BUDGET:
                carry = unit
                break
            units.append(unit)
            n_slots += unit.n_slots
        return units, carry

    @staticmethod
    def _plan_pair(
        detector: PeriodicityDetector, timestamps: Sequence[float]
    ) -> _PairUnit:
        """Screen, plan, and bin one pair; draw its GMM initial means."""
        get_registry().counter("detector.pairs_total").inc()
        unit = _PairUnit(detector=detector)
        ts = as_sorted_timestamps(timestamps)
        early, prepared = detector._screen(ts)
        if early is not None:
            unit.result = early
            return unit
        duration, scales = prepared
        unit.plan = detector._plan(ts, duration, scales)
        for scale in unit.plan.scales:
            signal = detector._bin_at_scale(unit.plan, scale)
            if signal is not None:
                unit.slots.append(_Slot(scale=scale, signal=signal))
        unit.starts = detector._mixture_starts(unit.plan)
        return unit

    @staticmethod
    def _fit_mixtures(units: List[_PairUnit]) -> None:
        """Fit, in one kernel call, the mixtures that analysis can use.

        Only a slot that clears its threshold reads the pair's mixture,
        so a pair with none keeps no mixture and is counted as skipped.
        """
        eligible = [unit for unit in units if unit.starts is not None]
        fitted = [
            unit for unit in eligible
            if any(slot.clears for slot in unit.slots)
        ]
        registry = get_registry()
        registry.counter("detector.gmm.skipped").inc(
            len(eligible) - len(fitted)
        )
        if not fitted:
            return
        selection = fit_starts([unit.starts for unit in fitted])
        for unit, mixture in zip(fitted, selection.mixtures):
            unit.detector._attach_mixture(unit.plan, mixture)
        registry.counter("detector.gmm.fits").inc(selection.fits)
        registry.counter("detector.gmm.iterations").inc(selection.iterations)
        registry.counter("detector.gmm.not_converged").inc(
            selection.not_converged
        )

    def _detect_chunk(self, units: List[_PairUnit]) -> List[DetectionResult]:
        """Phases 2-5 over one planned chunk."""
        registry = get_registry()
        registry.counter("detector.batch.batches").inc()
        registry.counter("detector.batch.pairs").inc(len(units))

        # Phase 2 — one batched FFT per distinct signal length.
        with span("detect.batch.spectra"):
            self._attach_spectra(
                [slot for unit in units for slot in unit.slots], registry
            )

        # Phase 3 — thresholds in pair order (the no-cache permutation
        # path draws from the pair's generator, scale by scale, after
        # the GMM draws of phase 1), then the mixtures analysis can
        # use, then pre-ACF candidate analysis of every clearing slot.
        acf_slots: List[_Slot] = []
        with span("detect.batch.analyze"):
            for unit in units:
                for slot in unit.slots:
                    slot.threshold = unit.detector._scale_threshold(
                        slot.signal, unit.plan.rng
                    )
                    margin = slot.spectrum_max - slot.threshold
                    if margin > unit.plan.margin:
                        unit.plan.margin = margin
            with span("detect.batch.gmm"):
                self._fit_mixtures(units)
            for unit in units:
                for slot in unit.slots:
                    if not slot.clears:
                        continue  # nothing can clear the bar; see _Slot
                    slot.work = unit.detector._analyze_scale(
                        unit.plan, slot.scale, slot.signal,
                        slot.spectrum, slot.threshold,
                    )
                    if slot.work is not None:
                        acf_slots.append(slot)

        # Phase 4 — one batched ACF per padded-length group, but only
        # for slots that still have candidates to verify.
        with span("detect.batch.acf"):
            if acf_slots:
                registry.counter("detector.batch.acf_rows").inc(len(acf_slots))
                acfs = batch_autocorrelation(
                    [slot.signal for slot in acf_slots]
                )
                for slot, acf in zip(acf_slots, acfs):
                    slot.acf = acf

        # Phase 5 — per-pair verification and merging.
        with span("detect.batch.verify"):
            results: List[DetectionResult] = []
            for unit in units:
                if unit.result is not None:
                    results.append(unit.result)
                    continue
                verified: List[CandidatePeriod] = []
                for slot in unit.slots:
                    if slot.work is not None:
                        verified.extend(
                            unit.detector._verify_scale(
                                unit.plan, slot.work, slot.acf
                            )
                        )
                thresholds = [slot.threshold for slot in unit.slots]
                result = unit.detector._finalize(
                    unit.plan, verified, thresholds
                )
                if result.periodic:
                    registry.counter("detector.pairs_periodic").inc()
                results.append(result)
        return results

    def _attach_spectra(self, slots: List[_Slot], registry) -> None:
        """Fill each slot's periodogram from shape-grouped batched FFTs."""
        if not slots:
            return
        groups: Dict[int, List[_Slot]] = {}
        for slot in slots:
            groups.setdefault(slot.signal.size, []).append(slot)
        registry.counter("detector.batch.spectrum_groups").inc(len(groups))
        registry.counter("detector.batch.spectrum_rows").inc(len(slots))
        for members in groups.values():
            stacked = np.stack([slot.signal for slot in members])
            power = batch_power_spectra(stacked)
            maxima = power.max(axis=1)
            for row, slot in enumerate(members):
                slot.spectrum = power[row]
                slot.spectrum_max = float(maxima[row])
