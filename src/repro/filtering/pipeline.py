"""The BAYWATCH 8-step filtering pipeline, end to end.

The eight filters, grouped into the paper's four phases (Fig. 3):

===== ================================ ==========================
step  filter                           phase
===== ================================ ==========================
1     global whitelist                 whitelist analysis
2     local (popularity) whitelist     whitelist analysis
3     DFT + permutation threshold      time series analysis
4     candidate pruning                time series analysis
5     ACF verification                 time series analysis
6     URL token analysis               suspicious indication
7     novelty analysis                 suspicious indication
8     weighted result ranking          suspicious indication
===== ================================ ==========================

(Steps 3-5 run inside :class:`~repro.core.PeriodicityDetector`; the
pipeline reports them as one "periodicity detection" stage of the
funnel plus the detector's internal rejection reasons.)

The step bodies themselves live in :mod:`repro.stages` — this module's
:class:`BaywatchPipeline` is the *in-process front end* that composes
the shared stage instances; the MapReduce front end
(:class:`~repro.jobs.BaywatchRunner`) composes the same objects, so the
funnel has exactly one implementation.  See ``docs/ARCHITECTURE.md``.

Phase (d) — investigation and verification — lives in
:mod:`repro.analysis`, consuming this pipeline's output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.detector import DetectorConfig, PeriodicityDetector
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary
from repro.filtering.case import BeaconingCase
from repro.filtering.novelty import NoveltyStore
from repro.filtering.ranking import RankingWeights
from repro.filtering.tokens import TokenFilter
from repro.filtering.whitelist import GlobalWhitelist
from repro.lm.domains import DomainScorer, default_scorer
from repro.obs import get_registry, span
from repro.obs.provenance import ProvenancePolicy, VerdictRecord
from repro.sources.proxy import ProxyLogRecord, records_to_summaries
from repro.utils.validation import require, require_probability

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the full pipeline; defaults match the paper's runs."""

    detector: DetectorConfig = field(default_factory=lambda: DetectorConfig(seed=0))
    local_whitelist_threshold: float = 0.01
    ranking_percentile: float = 0.9
    ranking_weights: RankingWeights = field(default_factory=RankingWeights)
    time_scale: float = 1.0
    min_events: int = 4
    use_threshold_cache: bool = True
    aggregate_entities: bool = False
    #: Hand detection workers their pair payloads through a
    #: :class:`~repro.mapreduce.shm.SummaryArena` instead of pickled
    #: summaries.  Only the MapReduce front end consults this (the
    #: in-process pipeline has no workers); reports are bit-identical
    #: either way — the knob trades per-task serialization for one
    #: shared segment per detection batch.
    use_shared_memory: bool = False
    #: Decision-provenance sampling policy.  None (the default) keeps
    #: every per-pair verdict path disabled at zero overhead; a
    #: :class:`~repro.obs.provenance.ProvenancePolicy` records full
    #: chains for survivors and near-misses plus a deterministic sample
    #: of early drops.  Part of ``repr`` and therefore of the sharded
    #: run fingerprint: a checkpoint cannot silently resume with a
    #: different provenance setting.
    provenance: Optional[ProvenancePolicy] = None
    #: Execution backend for the MapReduce front end: one of
    #: ``"serial"``, ``"threads"``, ``"processes"``, ``"shard-queue"``,
    #: or None to keep the engine's own default.  Deliberately excluded
    #: from ``repr`` — and therefore from the sharded run fingerprint —
    #: because every backend produces bit-identical reports: a run
    #: started under ``processes`` may legitimately resume under
    #: ``shard-queue``.  Only the MapReduce runner consults this (the
    #: in-process pipeline has no workers).
    executor: Optional[str] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require_probability(
            self.local_whitelist_threshold, "local_whitelist_threshold"
        )
        require_probability(self.ranking_percentile, "ranking_percentile")
        require(self.min_events >= 2, "min_events must be at least 2")
        # Literal tuple rather than an import: the filtering layer must
        # not depend on the mapreduce layer (repro.mapreduce.executors
        # re-validates via make_executor when the engine is built).
        require(
            self.executor in (None, "serial", "threads", "processes",
                              "shard-queue"),
            f"unknown executor {self.executor!r}; known: serial, threads, "
            "processes, shard-queue",
        )


@dataclass
class FunnelStats:
    """How many communication pairs each step let through."""

    steps: List[Tuple[str, int, int]] = field(default_factory=list)

    def record(self, name: str, pairs_in: int, pairs_out: int) -> None:
        """Append one step's in/out counts."""
        self.steps.append((name, pairs_in, pairs_out))
        logger.debug("filter %s: %d -> %d pairs", name.strip(), pairs_in,
                     pairs_out)

    def as_text(self) -> str:
        """Human-readable funnel table."""
        lines = [f"{'step':34s} {'in':>8s} {'out':>8s}"]
        for name, pairs_in, pairs_out in self.steps:
            lines.append(f"{name:34s} {pairs_in:>8d} {pairs_out:>8d}")
        return "\n".join(lines)

    def validate(self, *, strict: bool = False) -> List[str]:
        """Check the funnel invariant: counts never increase.

        Every step is a pure filter, so within a step ``out <= in`` and
        across consecutive steps the next input cannot exceed the
        previous output.  A violation means a wiring bug (a stage fed
        the wrong survivor list).  Returns the violation messages;
        ``strict=True`` raises instead, otherwise each is logged at
        WARNING.
        """
        problems: List[str] = []
        previous_out: Optional[int] = None
        for name, pairs_in, pairs_out in self.steps:
            label = name.strip()
            if pairs_out > pairs_in:
                problems.append(
                    f"step {label!r} emitted more pairs than it received "
                    f"({pairs_in} -> {pairs_out})"
                )
            if previous_out is not None and pairs_in > previous_out:
                problems.append(
                    f"step {label!r} received {pairs_in} pairs but the "
                    f"previous step only emitted {previous_out}"
                )
            previous_out = pairs_out
        if problems and strict:
            raise ValueError("funnel is not monotonic: " + "; ".join(problems))
        for problem in problems:
            logger.warning("funnel inconsistency: %s", problem)
        return problems


@dataclass
class PipelineReport:
    """Everything a pipeline run produced.

    ``quarantined`` lists the poison-pill inputs a fault-tolerant
    sharded run dropped after exhausting every retry
    (:class:`~repro.mapreduce.QuarantinedTask` records); it is empty
    for in-process runs and for batches without failures.
    """

    ranked_cases: List[BeaconingCase]
    detected_cases: List[BeaconingCase]
    funnel: FunnelStats
    population_size: int
    quarantined: List[Any] = field(default_factory=list)
    #: Per-pair verdict records when the run's config enabled decision
    #: provenance (canonically sorted; see :mod:`repro.obs.provenance`).
    provenance: List[VerdictRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.funnel.validate()

    @property
    def reported_destinations(self) -> List[str]:
        """Distinct destinations among the ranked cases, best first."""
        seen = []
        for case in self.ranked_cases:
            if case.destination not in seen:
                seen.append(case.destination)
        return seen


class BaywatchPipeline:
    """Run the 8-step methodology over proxy-log records or summaries.

    The pipeline is reusable across daily runs: the novelty store
    accumulates reported destinations, so a destination reported
    yesterday is suppressed (but logged) today.  It composes the shared
    :mod:`repro.stages` objects with an in-process detection executor;
    ingestion folds chunk by chunk through
    :func:`repro.sources.columnar.summaries_from_chunks` (records via
    :func:`repro.sources.proxy.records_to_summaries`), so ``records``
    or ``chunks`` may be a lazy iterator of any size.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        global_whitelist: Optional[GlobalWhitelist] = None,
        novelty: Optional[NoveltyStore] = None,
        token_filter: Optional[TokenFilter] = None,
        scorer: Optional[DomainScorer] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.global_whitelist = (
            global_whitelist if global_whitelist is not None else GlobalWhitelist()
        )
        self.novelty = novelty if novelty is not None else NoveltyStore()
        self.token_filter = token_filter if token_filter is not None else TokenFilter()
        self._scorer = scorer
        self._threshold_cache = (
            ThresholdCache() if self.config.use_threshold_cache else None
        )
        self.detector = PeriodicityDetector(
            self.config.detector, threshold_cache=self._threshold_cache
        )
        # The stages module imports leaf filtering modules, so it is
        # imported lazily here to keep the package graph acyclic.
        from repro.stages import (
            InProcessDetection,
            PeriodicityDetectionStage,
            default_stages,
        )

        executor = InProcessDetection(self.detector)
        self._stages = default_stages(PeriodicityDetectionStage(executor))

    @property
    def scorer(self) -> DomainScorer:
        """The domain LM scorer (built lazily: training takes ~1 s)."""
        if self._scorer is None:
            self._scorer = default_scorer()
        return self._scorer

    # -- public API --------------------------------------------------------

    def run_records(self, records: Iterable[ProxyLogRecord]) -> PipelineReport:
        """Run the pipeline on raw proxy-log records (streamed)."""
        with span("records_to_summaries"):
            summaries = records_to_summaries(
                records,
                time_scale=self.config.time_scale,
                aggregate_entities=self.config.aggregate_entities,
            )
        return self.run_summaries(summaries)

    def run_chunks(self, chunks: Iterable[Any]) -> PipelineReport:
        """Run the pipeline on columnar record chunks.

        :class:`~repro.sources.columnar.RecordChunk` batches (e.g. from
        :func:`~repro.sources.columnar.read_log_chunks`) fold straight
        into summaries; the report equals :meth:`run_records`'s over
        the same events.
        """
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a layer trace) sees the fold.
        from repro.sources.columnar import summaries_from_chunks

        with span("chunks_to_summaries"):
            summaries = summaries_from_chunks(
                chunks,
                time_scale=self.config.time_scale,
                aggregate_entities=self.config.aggregate_entities,
            )
        return self.run_summaries(summaries)

    def run_summaries(
        self, summaries: Sequence[ActivitySummary]
    ) -> PipelineReport:
        """Run the pipeline on prebuilt activity summaries."""
        with span("pipeline"):
            return self._run_summaries(summaries)

    def _run_summaries(
        self, summaries: Sequence[ActivitySummary]
    ) -> PipelineReport:
        from repro.stages import (
            PopularityIndex,
            StageContext,
            build_report,
            run_stages,
        )

        registry = get_registry()
        registry.counter("pipeline.runs").inc()
        recorder = None
        if self.config.provenance is not None:
            from repro.obs.provenance import ProvenanceRecorder

            recorder = ProvenanceRecorder(self.config.provenance)
        context = StageContext(
            config=self.config,
            global_whitelist=self.global_whitelist,
            novelty=self.novelty,
            token_filter=self.token_filter,
            threshold_cache=self._threshold_cache,
            scorer_factory=lambda: self.scorer,
            provenance=recorder,
        )
        with span("local_whitelist_build"):
            context.popularity = PopularityIndex.from_summaries(summaries)
        registry.gauge("pipeline.population_size").set(
            context.popularity.population
        )

        ranked = run_stages(context, self._stages, summaries)

        logger.info(
            "pipeline run: %d pairs in, %d periodic, %d reported "
            "(population %d)",
            len(summaries), len(context.detected), len(ranked),
            context.popularity.population,
        )
        return build_report(context, ranked)
