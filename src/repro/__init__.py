"""BAYWATCH reproduction — robust beaconing detection (DSN 2016).

Public API highlights:

- :class:`repro.core.PeriodicityDetector` — the core detection algorithm
  (DFT + permutation threshold, pruning, ACF verification, GMM
  multi-period analysis),
- :class:`repro.filtering.BaywatchPipeline` — the 8-step filtering
  methodology end-to-end, with periodicity detection in checkpointable
  shards on a :class:`repro.mapreduce.MapReduceEngine` (serial unless
  given another),
- :mod:`repro.synthetic` — enterprise traffic generation with implanted
  beacons and ground truth,
- :class:`repro.analysis.Investigator` — bootstrap case classification
  with a random forest and uncertainty-ordered review.
"""

from repro.core import (
    ActivitySummary,
    CandidatePeriod,
    DetectionResult,
    DetectorConfig,
    PeriodicityDetector,
)
from repro.filtering import (
    BaywatchPipeline,
    BeaconingCase,
    PipelineConfig,
    PipelineReport,
)

__version__ = "1.0.0"

__all__ = [
    "ActivitySummary",
    "CandidatePeriod",
    "DetectionResult",
    "DetectorConfig",
    "PeriodicityDetector",
    "BaywatchPipeline",
    "BeaconingCase",
    "PipelineConfig",
    "PipelineReport",
    "__version__",
]
