"""The shared stage graph of the BAYWATCH 8-step funnel.

One step, one object: the funnel's filtering semantics live here once
and both front ends — the in-process
:class:`~repro.filtering.BaywatchPipeline` and the MapReduce-backed
:class:`~repro.jobs.BaywatchRunner` (including its sharded,
checkpointed mode) — compose the *same* stage instances over a
:class:`StageContext`.  :func:`run_stages` provides uniform funnel
accounting (:class:`~repro.filtering.pipeline.FunnelStats` rows,
telemetry spans, per-stage counters), and :func:`build_report` turns a
finished context into the shared
:class:`~repro.filtering.pipeline.PipelineReport`.

Layering: this package sits between ``repro.filtering`` (whose leaf
modules — cases, ranking math, whitelists — it builds on) and
``repro.jobs`` (which supplies distributed detection *executors* but
is never imported from here).  See ``docs/ARCHITECTURE.md``.
"""

from repro.stages.base import Stage, run_stages
from repro.stages.context import PopularityIndex, StageContext, build_report
from repro.stages.detection import (
    IncrementalDetection,
    InProcessDetection,
    PeriodicityDetectionStage,
    build_case,
    detection_verdicts,
    record_detection_verdicts,
)
from repro.stages.funnel import (
    GlobalWhitelistStage,
    LocalWhitelistStage,
    MinEventsStage,
    NoveltyStage,
    RankingStage,
    TokenFilterStage,
    default_stages,
)

__all__ = [
    "Stage",
    "run_stages",
    "PopularityIndex",
    "StageContext",
    "build_report",
    "IncrementalDetection",
    "InProcessDetection",
    "PeriodicityDetectionStage",
    "build_case",
    "detection_verdicts",
    "record_detection_verdicts",
    "GlobalWhitelistStage",
    "LocalWhitelistStage",
    "MinEventsStage",
    "NoveltyStage",
    "RankingStage",
    "TokenFilterStage",
    "default_stages",
]
