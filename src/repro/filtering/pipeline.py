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

The step bodies themselves live in :mod:`repro.stages`; this module's
:class:`BaywatchPipeline` is the one front end that composes them.
Ingestion, the whitelists and ranking run in this process; periodicity
detection runs on a :class:`~repro.mapreduce.MapReduceEngine` (a serial
one unless the pipeline is given another) in bounded, checkpointable
shards (:mod:`repro.jobs.runner`).  See ``docs/ARCHITECTURE.md``.

Phase (d) — investigation and verification — lives in
:mod:`repro.analysis`, consuming this pipeline's output.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.detector import DetectorConfig
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary, SummaryColumns
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.engine import MapReduceEngine

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
    aggregate_entities: bool = False
    #: Decision-provenance sampling policy.  None (the default) keeps
    #: every per-pair verdict path disabled at zero overhead; a
    #: :class:`~repro.obs.provenance.ProvenancePolicy` records full
    #: chains for survivors and near-misses plus a deterministic sample
    #: of early drops.  Part of ``repr`` and therefore of the sharded
    #: run fingerprint: a checkpoint cannot silently resume with a
    #: different provenance setting.
    provenance: Optional[ProvenancePolicy] = None

    def __post_init__(self) -> None:
        require_probability(
            self.local_whitelist_threshold, "local_whitelist_threshold"
        )
        require_probability(self.ranking_percentile, "ranking_percentile")
        require(self.min_events >= 2, "min_events must be at least 2")


def check_analysis_time_scale(
    analysis_time_scale: Optional[float], time_scale: float
) -> None:
    """Raise ``ValueError`` for an analysis time scale a run cannot honour.

    Rescaling only coarsens (paper Section VII-B): the value must be a
    finite number of seconds no finer than the fold's ``time_scale``.
    None means "analyse at the fold's time scale".
    """
    require(
        analysis_time_scale is None
        or (math.isfinite(analysis_time_scale)
            and analysis_time_scale >= time_scale),
        f"analysis_time_scale must be finite and at least time_scale "
        f"({time_scale:g} s), got {analysis_time_scale!r}",
    )


#: Intervals per batch :func:`rescale_and_merge` hands its fold, so the
#: fold's temporaries stay small beside the summaries.
_MERGE_BATCH = 1 << 16


def rescale_and_merge(
    summaries: Iterable[ActivitySummary], time_scale: float
) -> List[ActivitySummary]:
    """Rescale every summary to ``time_scale`` and merge each pair's.

    The rescaling-and-merging phase (paper Section VII-B): a pair's
    summaries merge in order of their first timestamps once rescaled
    (ties keep input order), so the URL sample stays chronological.
    The output is sorted by pair.  The summaries go through the summary
    store's window merge, :func:`~repro.core.timeseries.merge_rescaled`,
    in batches of about 65,536 intervals.
    """
    # Looked up at call time, so a wrapper installed on the module
    # attribute (a layer trace) sees the merge.
    from repro.core.timeseries import merge_rescaled

    return merge_rescaled(_batches(summaries), time_scale)


def _batches(
    summaries: Iterable[ActivitySummary],
) -> Iterator[SummaryColumns]:
    """``summaries`` as columns of about :data:`_MERGE_BATCH` intervals."""
    batch: List[ActivitySummary] = []
    size = 0
    for summary in summaries:
        batch.append(summary)
        size += summary.intervals.size
        if size >= _MERGE_BATCH:
            yield SummaryColumns.from_summaries(batch)
            batch, size = [], 0
    yield SummaryColumns.from_summaries(batch)


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

    ``quarantined`` lists the poison-pill inputs a quarantining engine
    dropped after exhausting every retry
    (:class:`~repro.mapreduce.QuarantinedTask` records); it is empty
    for batches without failures, and always with the default serial
    engine, which re-raises the failure instead.
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
    :mod:`repro.stages` objects; ingestion folds chunk by chunk through
    :func:`repro.sources.columnar.summaries_from_chunks` (records via
    :func:`repro.sources.proxy.records_to_summaries`), so ``records``
    or ``chunks`` may be a lazy iterator of any size.

    Periodicity detection — the only phase whose cost needs workers —
    runs on ``engine`` (a serial :class:`~repro.mapreduce.MapReduceEngine`
    when None) in bounded shards with optional durable checkpoints,
    retries and quarantine (:func:`repro.jobs.runner.run_on_engine`);
    every other step runs here.  ``detection_job_factory`` builds the
    detection job from the keyword arguments of
    :class:`~repro.jobs.detection.BeaconingDetectionJob` — the seam
    fault-injection tests hook into.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        engine: Optional["MapReduceEngine"] = None,
        global_whitelist: Optional[GlobalWhitelist] = None,
        novelty: Optional[NoveltyStore] = None,
        token_filter: Optional[TokenFilter] = None,
        scorer: Optional[DomainScorer] = None,
        detection_job_factory: Optional[Callable[..., Any]] = None,
    ) -> None:
        if engine is None:
            # Imported lazily: the filtering layer does not depend on
            # the mapreduce layer at import time.
            from repro.mapreduce.engine import MapReduceEngine

            engine = MapReduceEngine()
        self.config = config or PipelineConfig()
        self.engine = engine
        self.global_whitelist = (
            global_whitelist if global_whitelist is not None else GlobalWhitelist()
        )
        self.novelty = novelty if novelty is not None else NoveltyStore()
        self.token_filter = token_filter if token_filter is not None else TokenFilter()
        self._scorer = scorer
        self.detection_job_factory = detection_job_factory
        # One cache for every run: inline tasks warm it, dispatched
        # ones ship it to their workers and hand their buckets back,
        # and checkpointed runs persist it next to the shards.
        self.threshold_cache = ThresholdCache()

    @property
    def scorer(self) -> DomainScorer:
        """The domain LM scorer (built lazily: training takes 0.1-0.2 s)."""
        if self._scorer is None:
            self._scorer = default_scorer()
        return self._scorer

    # -- public API --------------------------------------------------------

    def run_records(
        self, records: Iterable[ProxyLogRecord], **options: Any
    ) -> PipelineReport:
        """Run the pipeline on raw proxy-log records (streamed).

        ``options`` are those of :meth:`run_summaries`.
        """
        return self._run(
            records, records_to_summaries, "records_to_summaries", **options
        )

    def run_chunks(
        self, chunks: Iterable[Any], **options: Any
    ) -> PipelineReport:
        """Run the pipeline on columnar record chunks.

        :class:`~repro.sources.columnar.RecordChunk` batches (e.g. from
        :func:`~repro.sources.columnar.read_log_chunks`) fold straight
        into summaries; the report equals :meth:`run_records`'s over
        the same events.  ``options`` are those of :meth:`run_summaries`.
        """
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a layer trace) sees the fold.
        from repro.sources.columnar import summaries_from_chunks

        return self._run(
            chunks, summaries_from_chunks, "chunks_to_summaries", **options
        )

    def run_summaries(
        self, summaries: Sequence[ActivitySummary], **options: Any
    ) -> PipelineReport:
        """Run the pipeline on prebuilt activity summaries.

        ``analysis_time_scale`` (seconds) rescales every summary to that
        coarser granularity and merges each pair's summaries before the
        funnel (see :func:`rescale_and_merge`).  The other keywords are
        those of :func:`repro.jobs.runner.run_on_engine`:
        ``shard_size``, ``checkpoint_dir``, ``resume``, ``max_shards``,
        ``run_id`` and ``journal_dir``.
        """
        return self._run(summaries, None, "", **options)

    def _run(
        self,
        source: Any,
        fold: Optional[Callable[..., List[ActivitySummary]]],
        fold_span: str,
        *,
        analysis_time_scale: Optional[float] = None,
        **sharding: Any,
    ) -> PipelineReport:
        """The body of every run: check, fold, rescale, then the funnel."""
        check_analysis_time_scale(analysis_time_scale, self.config.time_scale)
        summaries = source
        if fold is not None:
            with span(fold_span):
                summaries = fold(
                    source,
                    time_scale=self.config.time_scale,
                    aggregate_entities=self.config.aggregate_entities,
                )
        if analysis_time_scale is not None:
            summaries = rescale_and_merge(summaries, analysis_time_scale)
        # Imported lazily: the filtering layer does not depend on the
        # jobs layer at import time.
        from repro.jobs.runner import run_on_engine

        return run_on_engine(self, summaries, **sharding)

    def _run_stages(
        self, summaries: Sequence[ActivitySummary], executor: Any
    ) -> PipelineReport:
        """The 8-step funnel over ``summaries``, detecting via ``executor``."""
        # The stages module imports leaf filtering modules, so it is
        # imported lazily here to keep the package graph acyclic.
        from repro.stages import (
            PeriodicityDetectionStage,
            PopularityIndex,
            StageContext,
            build_report,
            default_stages,
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
            scorer_factory=lambda: self.scorer,
            provenance=recorder,
        )
        with span("local_whitelist_build"):
            context.popularity = PopularityIndex.from_summaries(summaries)
        registry.gauge("pipeline.population_size").set(
            context.popularity.population
        )

        stages = default_stages(PeriodicityDetectionStage(executor))
        ranked = run_stages(context, stages, summaries)

        logger.info(
            "pipeline run: %d pairs in, %d periodic, %d reported, "
            "%d quarantined (population %d)",
            len(summaries), len(context.detected), len(ranked),
            len(context.quarantined), context.popularity.population,
        )
        return build_report(context, ranked)
