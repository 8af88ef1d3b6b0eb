"""The record the detection job emits (Section VII-D).

The engine exchanges plain picklable values: the detection job reads
``((source, destination), ActivitySummary)`` inputs and emits
``((source, destination), DetectionCase)`` outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.detector import DetectionResult
from repro.core.timeseries import ActivitySummary


@dataclass(frozen=True)
class DetectionCase:
    """A detected beaconing pair, as emitted by the detection job.

    Mirrors the paper's ``(AS, CP)`` payload: the ActivitySummary plus
    the detection result carrying the CandidatePeriod list.
    """

    summary: ActivitySummary
    detection: DetectionResult

    @property
    def pair(self) -> Tuple[str, str]:
        """The (source, destination) communication pair."""
        return self.summary.pair

    @property
    def source(self) -> str:
        """Source endpoint (MAC in the paper's configuration)."""
        return self.summary.source

    @property
    def destination(self) -> str:
        """Destination endpoint (domain)."""
        return self.summary.destination
