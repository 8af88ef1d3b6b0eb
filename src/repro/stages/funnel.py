"""The whitelist and suspicious-indication stages of the funnel.

Steps 1-2 (whitelist analysis) and 6-8 (suspicious indication) as
:class:`~repro.stages.base.Stage` objects, plus the min-events
prefilter that sits between the whitelists and periodicity detection.
Step bodies live *only* here: the pipeline composes these instances
whichever backend runs detection, so a change to one filter's
semantics reaches every run at once.

When the context carries a
:class:`~repro.obs.provenance.ProvenanceRecorder`, every stage also
emits one :class:`~repro.obs.provenance.VerdictRecord` per pair it
inspects; with provenance off (the default) each stage keeps its
original single-comprehension body.

:func:`default_stages` builds the canonical eight-step sequence; the
pipeline injects its detection stage (the step that differs in *where*
it executes, never in *what* it computes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.timeseries import ActivitySummary
from repro.filtering.case import BeaconingCase
from repro.filtering.ranking import (
    percentile_cutoff,
    rank_cases,
    rank_score,
    strongest_per_destination,
)
from repro.stages.base import Stage
from repro.stages.detection import PeriodicityDetectionStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stages.context import StageContext

__all__ = [
    "GlobalWhitelistStage",
    "LocalWhitelistStage",
    "MinEventsStage",
    "NoveltyStage",
    "RankingStage",
    "TokenFilterStage",
    "default_stages",
]


class GlobalWhitelistStage(Stage):
    """Step 1: drop destinations on the global whitelist."""

    name = "1 global whitelist"
    span_name = "step1_global_whitelist"

    def apply(
        self, context: "StageContext", items: Sequence[ActivitySummary]
    ) -> List[ActivitySummary]:
        """Keep pairs whose destination is not globally whitelisted."""
        whitelist = context.global_whitelist
        recorder = context.provenance
        if recorder is None:
            return [s for s in items if s.destination not in whitelist]
        kept: List[ActivitySummary] = []
        for s in items:
            hit = s.destination in whitelist
            recorder.record(
                s.source,
                s.destination,
                "global_whitelist",
                kept=not hit,
                reason="whitelist:global" if hit else "",
            )
            if not hit:
                kept.append(s)
        return kept


class LocalWhitelistStage(Stage):
    """Step 2: drop organization-wide popular destinations."""

    name = "2 local whitelist"
    span_name = "step2_local_whitelist"

    def apply(
        self, context: "StageContext", items: Sequence[ActivitySummary]
    ) -> List[ActivitySummary]:
        """Keep pairs below the popularity threshold (tau_p)."""
        popularity = context.popularity
        threshold = context.config.local_whitelist_threshold
        recorder = context.provenance
        if recorder is None:
            return [
                s
                for s in items
                if not popularity.is_whitelisted(s.destination, threshold)
            ]
        from repro.stages.context import MIN_WHITELIST_SOURCES

        kept: List[ActivitySummary] = []
        for s in items:
            sources = popularity.similar_sources(s.destination)
            ratio = popularity.ratio(s.destination)
            whitelisted = popularity.is_whitelisted(s.destination, threshold)
            if whitelisted:
                reason = "popularity:whitelisted"
            elif sources < MIN_WHITELIST_SOURCES:
                reason = f"popularity:sources<{MIN_WHITELIST_SOURCES}"
            else:
                reason = "popularity:ratio<=threshold"
            recorder.record(
                s.source,
                s.destination,
                "local_whitelist",
                kept=not whitelisted,
                reason=reason,
                near_miss=(
                    sources >= MIN_WHITELIST_SOURCES
                    and recorder.policy.value_near_miss(ratio, threshold)
                ),
                ratio=ratio,
                sources=sources,
                threshold=threshold,
            )
            if not whitelisted:
                kept.append(s)
        return kept


class MinEventsStage(Stage):
    """Prefilter: pairs without enough events cannot beacon."""

    #: Indented label marks this as a prefilter, not a paper step.
    name = "  (min events)"
    span_name = "min_events_prefilter"

    def apply(
        self, context: "StageContext", items: Sequence[ActivitySummary]
    ) -> List[ActivitySummary]:
        """Keep pairs with at least ``config.min_events`` requests."""
        min_events = context.config.min_events
        recorder = context.provenance
        if recorder is None:
            return [s for s in items if s.event_count >= min_events]
        kept: List[ActivitySummary] = []
        for s in items:
            ok = s.event_count >= min_events
            recorder.record(
                s.source,
                s.destination,
                "min_events",
                kept=ok,
                reason="" if ok else "prefilter:min_events",
                events=s.event_count,
                min_events=min_events,
            )
            if ok:
                kept.append(s)
        return kept


class TokenFilterStage(Stage):
    """Step 6: URL token analysis drops likely-benign periodic services."""

    name = "6 token filter"
    span_name = "step6_token_filter"

    def apply(
        self, context: "StageContext", items: Sequence[BeaconingCase]
    ) -> List[BeaconingCase]:
        """Keep cases whose URL sample does not look like benign polling."""
        token_filter = context.token_filter
        recorder = context.provenance
        if recorder is None:
            return [
                case
                for case in items
                if not token_filter.is_likely_benign(case.summary.urls)
            ]
        kept: List[BeaconingCase] = []
        for case in items:
            benign = token_filter.is_likely_benign(case.summary.urls)
            recorder.record(
                case.source,
                case.destination,
                "token_filter",
                kept=not benign,
                reason="token:benign_pattern" if benign else "",
            )
            if not benign:
                kept.append(case)
        return kept


class NoveltyStage(Stage):
    """Step 7: novelty analysis and per-destination consolidation.

    Suppresses destinations reported in previous runs, consolidates
    same-destination cases within this run (keeping the strongest), and
    records the survivors in the novelty store so tomorrow's run
    suppresses them in turn.
    """

    name = "7 novelty filter"
    span_name = "step7_novelty_filter"

    def apply(
        self, context: "StageContext", items: Sequence[BeaconingCase]
    ) -> List[BeaconingCase]:
        """Filter to novel destinations and consolidate per destination."""
        weights = context.config.ranking_weights
        recorder = context.provenance
        scored = [
            case.with_rank_score(rank_score(case, weights)) for case in items
        ]
        fresh: List[BeaconingCase] = []
        for case in scored:
            novel = context.novelty.is_novel(case.source, case.destination)
            if not novel and recorder is not None:
                recorder.record(
                    case.source,
                    case.destination,
                    "novelty",
                    kept=False,
                    reason="novelty:already_reported",
                )
            if novel:
                fresh.append(case)
        consolidated = strongest_per_destination(fresh)
        if recorder is not None:
            winners = {case.pair for case in consolidated}
            for case in fresh:
                won = case.pair in winners
                recorder.record(
                    case.source,
                    case.destination,
                    "novelty",
                    kept=won,
                    reason="" if won else "novelty:consolidated",
                    rank_score=case.rank_score,
                )
        for case in consolidated:
            context.novelty.record(case.source, case.destination)
        return consolidated


class RankingStage(Stage):
    """Step 8: weighted scoring and the percentile threshold."""

    name = "8 weighted ranking"
    span_name = "step8_weighted_ranking"

    def apply(
        self, context: "StageContext", items: Sequence[BeaconingCase]
    ) -> List[BeaconingCase]:
        """Score, threshold, and sort the surviving cases (best first)."""
        weights = context.config.ranking_weights
        percentile = context.config.ranking_percentile
        ranked = rank_cases(items, weights=weights, percentile=percentile)
        recorder = context.provenance
        if recorder is not None and items:
            scores = [rank_score(case, weights) for case in items]
            cutoff = percentile_cutoff(scores, percentile)
            kept_pairs = {case.pair for case in ranked}
            for case, score in zip(items, scores):
                kept = case.pair in kept_pairs
                recorder.record(
                    case.source,
                    case.destination,
                    "ranking",
                    kept=kept,
                    reason="" if kept else "rank:below_percentile",
                    near_miss=recorder.policy.value_near_miss(score, cutoff),
                    score=score,
                    cutoff=cutoff,
                )
        return ranked


def default_stages(detection: PeriodicityDetectionStage) -> List[Stage]:
    """The canonical 8-step funnel as a stage list.

    ``detection`` is the periodicity-detection stage (steps 3-5) with
    its executor (sharded on the pipeline's engine); every other step
    is shared.
    """
    return [
        GlobalWhitelistStage(),
        LocalWhitelistStage(),
        MinEventsStage(),
        detection,
        TokenFilterStage(),
        NoveltyStage(),
        RankingStage(),
    ]
