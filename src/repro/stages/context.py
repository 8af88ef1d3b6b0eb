"""Shared per-run state threaded through the funnel stages.

:class:`StageContext` carries everything the eight steps consult —
the :class:`~repro.filtering.pipeline.PipelineConfig`, the global and
local (popularity) whitelists, the
:class:`~repro.filtering.novelty.NoveltyStore`, the
:class:`~repro.filtering.tokens.TokenFilter`, and the lazily built
:class:`~repro.lm.domains.DomainScorer` — plus the run's outputs: the
:class:`~repro.filtering.pipeline.FunnelStats`, the detected cases,
and any quarantined units.

:class:`PopularityIndex` is the local-whitelist substrate: destination
popularity as seen by *this run's* summaries
(:meth:`PopularityIndex.from_summaries`), or from precomputed
distinct-source counts (:meth:`PopularityIndex.from_counts`).  It
implements the same rule as
:class:`~repro.filtering.whitelist.LocalWhitelist`: a destination is
whitelisted when at least ``min_sources`` distinct sources contact it
and its population fraction exceeds the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.filtering.case import BeaconingCase
from repro.filtering.novelty import NoveltyStore
from repro.filtering.pipeline import FunnelStats, PipelineConfig, PipelineReport
from repro.filtering.tokens import TokenFilter
from repro.filtering.whitelist import GlobalWhitelist
from repro.lm.domains import DomainScorer, default_scorer
from repro.obs import span
from repro.obs.provenance import ProvenanceRecorder

__all__ = ["PopularityIndex", "StageContext", "build_report"]

#: Small-population guard shared with LocalWhitelist: a destination
#: needs at least this many distinct sources before popularity alone
#: can whitelist it.
MIN_WHITELIST_SOURCES = 3


class PopularityIndex:
    """Destination popularity over one run's source population."""

    def __init__(self, counts: Optional[Dict[str, int]] = None,
                 population: int = 0) -> None:
        self._counts = dict(counts or {})
        self.population = int(population)

    @classmethod
    def from_summaries(cls, summaries: Iterable[Any]) -> "PopularityIndex":
        """Build the index in one pass over activity summaries."""
        sources_by_destination: Dict[str, set] = {}
        population = set()
        for summary in summaries:
            sources_by_destination.setdefault(
                summary.destination, set()
            ).add(summary.source)
            population.add(summary.source)
        counts = {
            destination: len(sources)
            for destination, sources in sources_by_destination.items()
        }
        return cls(counts, len(population))

    @classmethod
    def from_counts(
        cls, counts: Dict[str, int], population: int
    ) -> "PopularityIndex":
        """Wrap precomputed distinct-source counts per destination."""
        return cls(counts, population)

    def similar_sources(self, destination: str) -> int:
        """Distinct sources contacting ``destination`` (Table II)."""
        return self._counts.get(destination, 0)

    def ratio(self, destination: str) -> float:
        """Fraction of the source population contacting ``destination``."""
        if not self.population:
            return 0.0
        return self._counts.get(destination, 0) / self.population

    def is_whitelisted(self, destination: str, threshold: float) -> bool:
        """The local-whitelist rule (paper Section VII-C)."""
        return (
            self.similar_sources(destination) >= MIN_WHITELIST_SOURCES
            and self.ratio(destination) > threshold
        )


@dataclass
class StageContext:
    """Everything one funnel run reads and writes.

    The pipeline builds one context per run from its long-lived
    components (whitelists, novelty store, token filter, scorer) and
    hands it to
    :func:`~repro.stages.base.run_stages`; the stages leave the run's
    funnel accounting, detected cases, and quarantine list behind on
    the same object.
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    global_whitelist: GlobalWhitelist = field(default_factory=GlobalWhitelist)
    novelty: NoveltyStore = field(default_factory=NoveltyStore)
    token_filter: TokenFilter = field(default_factory=TokenFilter)
    popularity: PopularityIndex = field(default_factory=PopularityIndex)
    funnel: FunnelStats = field(default_factory=FunnelStats)
    #: Built by the detection stage: every periodic pair, enriched.
    detected: List[BeaconingCase] = field(default_factory=list)
    #: Poison-pill units a fault-tolerant executor dropped.
    quarantined: List[Any] = field(default_factory=list)
    #: Decision-provenance recorder; None (the default) disables
    #: per-pair verdict records entirely.
    provenance: Optional[ProvenanceRecorder] = None
    #: Builds the LM scorer on first use (training takes ~1 s).
    scorer_factory: Callable[[], DomainScorer] = default_scorer
    _scorer: Optional[DomainScorer] = field(default=None, repr=False)

    @property
    def scorer(self) -> DomainScorer:
        """The domain LM scorer (built lazily via ``scorer_factory``).

        Building it opens an ``lm.train_scorer`` span, so a cold
        scorer's training shows as its own layer instead of inflating
        the stage that first asked for a score.
        """
        if self._scorer is None:
            with span("lm.train_scorer"):
                self._scorer = self.scorer_factory()
        return self._scorer


def build_report(
    context: StageContext, ranked: List[BeaconingCase]
) -> PipelineReport:
    """Assemble the run report from a finished context.

    Every run produces its :class:`PipelineReport` through this single
    helper, so report semantics (detected vs. ranked cases, population,
    quarantine) cannot drift between detection executors.
    """
    return PipelineReport(
        ranked_cases=list(ranked),
        detected_cases=list(context.detected),
        funnel=context.funnel,
        population_size=context.popularity.population,
        quarantined=list(context.quarantined),
        provenance=(
            context.provenance.drain()
            if context.provenance is not None
            else []
        ),
    )
