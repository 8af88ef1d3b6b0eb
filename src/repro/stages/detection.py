"""The periodicity-detection stage (funnel steps 3-5).

Steps 3-5 — DFT candidate extraction, permutation thresholding and
pruning, ACF verification — run inside
:class:`~repro.core.batch.BatchedDetector`, the one detection loop.
The stage itself is execution-agnostic: its *executor* maps surviving
summaries to ``(summary, DetectionResult)`` pairs.  The one executor,
which detects on a MapReduce engine in checkpointable shards, lives in
:mod:`repro.jobs.runner`, keeping this package free of job
dependencies.

:func:`build_case` is the single enrichment point turning a detection
into a :class:`~repro.filtering.case.BeaconingCase` (popularity,
similar sources, LM score).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

from repro.core.detector import DetectionResult
from repro.core.timeseries import ActivitySummary
from repro.filtering.case import BeaconingCase
from repro.obs.provenance import ProvenancePolicy, VerdictRecord, clean_values
from repro.stages.base import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stages.context import StageContext

__all__ = [
    "DetectionExecutor",
    "PeriodicityDetectionStage",
    "build_case",
    "detection_verdicts",
]

#: Early-screen rejection codes (see PeriodicityDetector._screen); the
#: whole pair is decided before any spectrum exists.
_EARLY_CODES = frozenset(
    ["spectral:min_events", "spectral:single_slot", "spectral:window_too_short"]
)


def detection_verdicts(
    source: str,
    destination: str,
    result: DetectionResult,
    policy: ProvenancePolicy,
) -> List[VerdictRecord]:
    """Verdict records for funnel steps 3-5, derived from one result.

    A pure function of the (extended) :class:`DetectionResult`, so an
    inline task, a worker process, and a shard that round-tripped the
    result through a checkpoint all produce the exact same chain.
    """
    records: List[VerdictRecord] = []

    def rec(
        stage: str,
        kept: bool,
        reason: str = "",
        near_miss: bool = False,
        **values: Any,
    ) -> None:
        records.append(
            VerdictRecord(
                source=source,
                destination=destination,
                stage=stage,
                kept=kept,
                reason=reason,
                near_miss=near_miss,
                values=clean_values(values),
            )
        )

    if result.rejection_code in _EARLY_CODES:
        rec(
            "spectral",
            False,
            result.rejection_code,
            events=result.n_events,
            duration=result.duration,
        )
        return records

    threshold = result.power_threshold
    margin = result.spectral_margin
    if not result.periodic and result.n_candidates_raw == 0:
        rec(
            "spectral",
            False,
            "spectral:power<threshold",
            near_miss=policy.margin_near_miss(margin, threshold),
            threshold=threshold,
            margin=margin,
        )
        return records
    rec(
        "spectral",
        True,
        threshold=threshold,
        margin=margin,
        candidates=result.n_candidates_raw,
    )
    if not result.periodic and result.n_candidates_pruned == 0:
        rec("pruning", False, "pruning:rejected",
            candidates=result.n_candidates_raw)
        return records
    rec(
        "pruning",
        True,
        candidates_in=result.n_candidates_raw,
        candidates_out=result.n_candidates_pruned,
    )
    if not result.periodic:
        rec("acf", False, "acf:below_min_score",
            candidates=result.n_candidates_pruned)
        return records
    dominant = result.dominant
    rec(
        "acf",
        True,
        acf_score=dominant.acf_score,
        period=dominant.period,
        p_value=dominant.p_value,
        periods=[candidate.period for candidate in result.candidates],
    )
    return records


#: An executor maps (context, summaries) to the detected
#: ``(summary, result)`` pairs plus any quarantined units.
DetectionExecutor = Callable[
    ["StageContext", List[ActivitySummary]],
    Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]],
]


def build_case(
    context: "StageContext",
    summary: ActivitySummary,
    detection: DetectionResult,
) -> BeaconingCase:
    """Enrich one detection into a :class:`BeaconingCase`.

    Attaches the ranking indicators computed from shared run state:
    destination popularity and similar-source count from the context's
    :class:`~repro.stages.context.PopularityIndex` and the normalized
    language-model score from the (lazily built) scorer.
    """
    destination = summary.destination
    return BeaconingCase(
        summary=summary,
        detection=detection,
        popularity=context.popularity.ratio(destination),
        similar_sources=context.popularity.similar_sources(destination),
        lm_score=context.scorer.normalized_score(destination),
    )


class PeriodicityDetectionStage(Stage):
    """Funnel steps 3-5: periodicity detection plus case enrichment.

    The executor decides *where* detection runs; the stage owns the
    invariant parts — quarantine collection, case enrichment via
    :func:`build_case`, deterministic pair ordering, and publishing the
    detected list on the context for the run report.
    """

    name = "3-5 periodicity detection"
    span_name = "step3_5_periodicity_detection"

    def __init__(self, executor: DetectionExecutor) -> None:
        self.executor = executor

    def apply(
        self, context: "StageContext", items: Sequence[ActivitySummary]
    ) -> List[BeaconingCase]:
        """Detect the surviving pairs and enrich the periodic ones."""
        results, quarantined = self.executor(context, list(items))
        context.quarantined.extend(quarantined)
        cases = [
            build_case(context, summary, detection)
            for summary, detection in results
        ]
        cases.sort(key=lambda case: case.pair)
        context.detected = cases
        return cases
