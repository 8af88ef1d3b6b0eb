"""Multi-timescale operation (paper Section X).

BAYWATCH runs "iteratively in intervals at three time scales (daily,
weekly, monthly)": the daily pass at fine granularity catches
minute-level beaconing, while the weekly/monthly passes — over rescaled
and merged summaries, never reprocessed raw logs — expose slow beacons
(e.g. 24-hour periodicity) that a single day cannot contain.

:class:`MultiTimescaleOperator` implements the loop: feed it one day of
proxy-log records at a time; it extracts summaries once, runs the daily
pipeline immediately, and fires the coarser cadences when their windows
complete.  A single novelty store spans all cadences, so a destination
reported daily is not re-reported weekly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.timeseries import ActivitySummary
from repro.filtering.novelty import NoveltyStore
from repro.filtering.pipeline import (
    BaywatchPipeline,
    PipelineConfig,
    PipelineReport,
    check_analysis_time_scale,
)
from repro.jobs.summary_store import SummaryStore
from repro.obs import get_registry, span
from repro.sources.columnar import ColumnTables, records_to_chunks, summaries_from_chunks
from repro.sources.proxy import ProxyLogRecord
from repro.utils.validation import require, require_positive

logger = logging.getLogger(__name__)

DAY = 86_400.0


@dataclass(frozen=True)
class Cadence:
    """One operating rhythm: how often, over how many days, how coarse."""

    name: str
    every_days: int
    window_days: int
    time_scale: float

    def __post_init__(self) -> None:
        require(self.every_days >= 1, "every_days must be at least 1")
        require(self.window_days >= 1, "window_days must be at least 1")
        require_positive(self.time_scale, "time_scale")


#: The paper's three rhythms, scaled to per-day feeding.
DEFAULT_CADENCES: Tuple[Cadence, ...] = (
    Cadence("daily", every_days=1, window_days=1, time_scale=1.0),
    Cadence("weekly", every_days=7, window_days=7, time_scale=60.0),
    Cadence("monthly", every_days=30, window_days=30, time_scale=600.0),
)


class MultiTimescaleOperator:
    """Run the pipeline at several cadences over a day-fed record stream."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        cadences: Tuple[Cadence, ...] = DEFAULT_CADENCES,
        novelty: Optional[NoveltyStore] = None,
        store: Optional[SummaryStore] = None,
        chunk_size: int = 65_536,
    ) -> None:
        require(len(cadences) >= 1, "at least one cadence is required")
        require_positive(chunk_size, "chunk_size")
        self.config = config or PipelineConfig()
        for cadence in cadences:
            check_analysis_time_scale(cadence.time_scale, self.config.time_scale)
        self.cadences = cadences
        self.novelty = novelty if novelty is not None else NoveltyStore()
        self.store = store
        self.chunk_size = chunk_size
        # In-memory window buffer, bounded by the longest cadence
        # window (before this bound, _daily_summaries grew with run
        # length; a quarter of monthly operation held 90 days of
        # summaries that no cadence could ever read again).
        self._retain_days = max(c.window_days for c in cadences)
        self._daily_summaries: List[List[ActivitySummary]] = []
        self._days_fed = 0
        # String-interning tables shared across days so the columnar
        # ingest path does not re-intern the same hosts every day.
        self._tables = ColumnTables()
        self._pipelines: Dict[str, BaywatchPipeline] = {
            cadence.name: BaywatchPipeline(self.config, novelty=self.novelty)
            for cadence in cadences
        }
        self.runs: List[Tuple[str, int, PipelineReport]] = []

    @property
    def days_fed(self) -> int:
        """How many days of traffic have been ingested."""
        return self._days_fed

    def ingest_day(
        self, records: Iterable[ProxyLogRecord]
    ) -> List[Tuple[str, PipelineReport]]:
        """Feed one day of records; returns the cadence runs it fired.

        Raw records are extracted into summaries exactly once (the
        paper's no-reprocessing property) through the columnar chunk
        path; coarser cadences run the pipeline over the buffered
        summaries, which it rescales and merges per pair.  When a :class:`SummaryStore` was supplied,
        each day is also persisted (``replace=True``, so re-feeding a
        day after a crash is idempotent) and days older than the
        longest cadence window are evicted.
        """
        registry = get_registry()
        with span("operations.ingest_day"):
            summaries = summaries_from_chunks(
                records_to_chunks(
                    records, chunk_size=self.chunk_size, tables=self._tables
                ),
                time_scale=self.config.time_scale,
            )
        day_index0 = self._days_fed  # 0-based index of the day just fed
        self._daily_summaries.append(summaries)
        if len(self._daily_summaries) > self._retain_days:
            del self._daily_summaries[: -self._retain_days]
        if self.store is not None:
            self.store.append_day(day_index0, summaries, replace=True)
            self.store.evict_before(day_index0 - self._retain_days + 1)
        self._days_fed += 1
        day_index = self._days_fed
        registry.gauge("operations.days_fed").set(day_index)
        fired: List[Tuple[str, PipelineReport]] = []
        for cadence in self.cadences:
            if day_index % cadence.every_days != 0:
                continue
            pipeline = self._pipelines[cadence.name]
            with span(f"operations.cadence.{cadence.name}"):
                if cadence.window_days == 1 and cadence.time_scale \
                        == self.config.time_scale:
                    report = pipeline.run_summaries(summaries)
                else:
                    window = self._daily_summaries[-cadence.window_days:]
                    report = pipeline.run_summaries(
                        [s for day in window for s in day],
                        analysis_time_scale=cadence.time_scale,
                    )
            registry.counter(f"operations.cadence.{cadence.name}.runs").inc()
            logger.info(
                "cadence %s fired on day %d: %d pairs in window, "
                "%d cases reported",
                cadence.name, day_index, report.funnel.steps[0][1],
                len(report.ranked_cases),
            )
            self.runs.append((cadence.name, day_index, report))
            fired.append((cadence.name, report))
        return fired

    def reported_destinations(self) -> List[str]:
        """All destinations reported so far, in first-report order."""
        seen: List[str] = []
        for _cadence, _day, report in self.runs:
            for case in report.ranked_cases:
                if case.destination not in seen:
                    seen.append(case.destination)
        return seen
