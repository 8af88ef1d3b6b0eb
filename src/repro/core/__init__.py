"""Core periodicity detection — the paper's primary contribution.

The subpackage implements Section IV of the paper: periodogram analysis
with a permutation-derived power threshold, conservative pruning of the
candidate set, Gaussian-mixture interval analysis for multi-period
traffic, and autocorrelation verification/refinement.
"""

from repro.core.timeseries import (
    ActivitySummary,
    bin_series,
    intervals_from_timestamps,
    timestamps_from_intervals,
    rescale,
    merge,
)
from repro.core.periodogram import SpectralPeak, candidate_peaks, power_spectrum, spectrum_frequencies
from repro.core.permutation import (
    PermutationResult,
    ThresholdCache,
    ThresholdCacheMismatch,
    permutation_threshold,
)
from repro.core.autocorrelation import (
    HillValidation,
    autocorrelation,
    search_window,
    validate_candidate,
)
from repro.core.gmm import GaussianComponent, GaussianMixture, fit_gmm, select_gmm
from repro.core.pruning import (
    PruningDecision,
    prune_candidates,
    prune_high_frequency,
    prune_sampling_rate,
    t_test_candidate,
)
from repro.core.detector import (
    CandidatePeriod,
    DetectionResult,
    DetectorConfig,
    PeriodicityDetector,
)
from repro.core.batch import (
    BatchedDetector,
    batch_autocorrelation,
    batch_power_spectra,
)

__all__ = [
    "ActivitySummary",
    "bin_series",
    "intervals_from_timestamps",
    "timestamps_from_intervals",
    "rescale",
    "merge",
    "SpectralPeak",
    "candidate_peaks",
    "power_spectrum",
    "spectrum_frequencies",
    "PermutationResult",
    "ThresholdCache",
    "ThresholdCacheMismatch",
    "permutation_threshold",
    "HillValidation",
    "autocorrelation",
    "search_window",
    "validate_candidate",
    "GaussianComponent",
    "GaussianMixture",
    "fit_gmm",
    "select_gmm",
    "PruningDecision",
    "prune_candidates",
    "prune_high_frequency",
    "prune_sampling_rate",
    "t_test_candidate",
    "CandidatePeriod",
    "DetectionResult",
    "DetectorConfig",
    "PeriodicityDetector",
    "BatchedDetector",
    "batch_autocorrelation",
    "batch_power_spectra",
]
