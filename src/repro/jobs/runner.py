"""End-to-end MapReduce orchestration of the BAYWATCH phases.

:class:`BaywatchRunner` is the MapReduce-backed *front end* of the
8-step funnel: it runs the Section VII extraction/rescale/popularity
jobs over a :class:`~repro.mapreduce.MapReduceEngine`, then composes
the same :mod:`repro.stages` objects as the in-process
:class:`~repro.filtering.BaywatchPipeline` — only the
periodicity-detection *executor* differs (engine-backed here, sharded
and checkpointed in :meth:`BaywatchRunner.run_sharded`).  Both front
ends therefore produce the same
:class:`~repro.filtering.pipeline.PipelineReport`, funnel rows
included, and are interchangeable for analysis and benchmarking.

For production-sized batches, :meth:`BaywatchRunner.run_sharded`
processes the expensive detection phase in bounded shards with durable
JSONL checkpoints (see :mod:`repro.jobs.checkpoint`): an interrupted
run restarted with ``resume=True`` re-runs only the incomplete shards,
and — with a quarantine-enabled engine — poison-pill pairs end up in
the report's quarantine list instead of aborting the batch.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.detector import DetectionResult
from repro.core.permutation import ThresholdCache, ThresholdCacheMismatch
from repro.core.timeseries import ActivitySummary
from repro.filtering.novelty import NoveltyStore
from repro.filtering.pipeline import PipelineConfig, PipelineReport
from repro.filtering.tokens import TokenFilter
from repro.filtering.whitelist import GlobalWhitelist
from repro.jobs.checkpoint import CheckpointStore, run_fingerprint
from repro.jobs.detection import BeaconingDetectionJob
from repro.jobs.extraction import DataExtractionJob
from repro.jobs.popularity import DestinationPopularityJob, popularity_table
from repro.jobs.ranking_job import RankingJob
from repro.jobs.records import DetectionCase
from repro.jobs.rescaling import RescaleMergeJob
from repro.lm.domains import DomainScorer, default_scorer
from repro.mapreduce.engine import MapReduceEngine, QuarantinedTask
from repro.obs.provenance import (
    ProvenanceRecorder,
    VerdictRecord,
    write_provenance,
)
from repro.obs import (
    EventJournal,
    TraceContext,
    current_trace,
    get_registry,
    journal_emit,
    new_run_id,
    new_trace_id,
    scoped_journal,
    scoped_trace,
    span,
)
from repro.sources.proxy import ProxyLogRecord, records_to_summaries
from repro.stages import (
    GlobalWhitelistStage,
    LocalWhitelistStage,
    MinEventsStage,
    NoveltyStage,
    PeriodicityDetectionStage,
    PopularityIndex,
    RankingStage,
    StageContext,
    TokenFilterStage,
    build_report,
    run_stages,
)

logger = logging.getLogger(__name__)


class IncompleteRunError(RuntimeError):
    """A sharded run stopped before every shard completed.

    Raised when ``max_shards`` bounds how much work one invocation may
    do; the completed shards are checkpointed, so re-invoking with
    ``resume=True`` continues from here.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"processed shard budget exhausted: {completed} of {total} "
            f"shards complete; re-run with resume=True to continue"
        )
        self.completed = completed
        self.total = total


def _detection_records(
    cases: List[DetectionCase], recorder: ProvenanceRecorder
) -> List[VerdictRecord]:
    """Steps 3-5 verdict records for every shipped detection result."""
    from repro.stages import detection_verdicts

    return [
        record
        for case in cases
        for record in detection_verdicts(
            case.source, case.destination, case.detection, recorder.policy
        )
    ]


def _absorb_detection_provenance(
    recorder: ProvenanceRecorder,
    summaries: List[ActivitySummary],
    records: List[VerdictRecord],
) -> None:
    """Fold worker-shipped detection verdicts into the recorder.

    Pairs the workers shipped no result for were non-periodic and
    outside the sampling policy — an in-process run would have closed
    and dropped those chains, so they are discarded here, keeping the
    final store identical across executors.
    """
    recorded = {record.pair for record in records}
    recorder.extend(records)
    for summary in summaries:
        if summary.pair not in recorded:
            recorder.discard(summary.source, summary.destination)


class _EngineDetection:
    """Detection executor running one detection job over the engine."""

    def __init__(self, runner: "BaywatchRunner") -> None:
        self._runner = runner

    def __call__(
        self, context: StageContext, summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        runner = self._runner
        recorder = context.provenance
        if recorder is None:
            cases = runner._detect_batch(summaries)
        else:
            cases = runner._detect_batch(
                summaries, provenance_pairs=recorder.required_pairs()
            )
            _absorb_detection_provenance(
                recorder, summaries, _detection_records(cases, recorder)
            )
            cases = [case for case in cases if case.detection.periodic]
        return (
            [(case.summary, case.detection) for case in cases],
            list(runner.engine.last_quarantine),
        )


class _ShardedDetection:
    """Detection executor running bounded shards with durable checkpoints.

    Implements the sharding loop of
    :meth:`BaywatchRunner.run_summaries_sharded`: deterministic pair
    ordering, per-shard engine runs, checkpoint write/read on resume,
    quarantine collection, and the ``max_shards`` budget (raising
    :class:`IncompleteRunError` after checkpointing what finished).
    """

    def __init__(
        self,
        runner: "BaywatchRunner",
        *,
        shard_size: int,
        checkpoint_dir: Optional[str],
        resume: bool,
        max_shards: Optional[int],
        on_shard_complete: Optional[Callable[[int, int], None]],
    ) -> None:
        self._runner = runner
        self.shard_size = shard_size
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.max_shards = max_shards
        self.on_shard_complete = on_shard_complete

    def __call__(
        self, context: StageContext, summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        runner = self._runner
        registry = get_registry()
        survivors = sorted(summaries, key=lambda s: s.pair)
        shards = [
            survivors[i : i + self.shard_size]
            for i in range(0, len(survivors), self.shard_size)
        ]
        n_shards = len(shards)
        registry.gauge("runner.shards_total").set(n_shards)
        journal_emit(
            "run_start",
            n_shards=n_shards,
            shard_size=self.shard_size,
            resume=self.resume,
        )
        if self.resume:
            # The journal is append-only across interrupt/resume cycles;
            # this marker separates the cycles in the stream.
            journal_emit("resumed")

        store: Optional[CheckpointStore] = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(self.checkpoint_dir)
            fingerprint = run_fingerprint(
                (s.pair for s in survivors),
                config_repr=repr(runner.config),
                shard_size=self.shard_size,
            )
            store.begin(
                fingerprint,
                n_shards=n_shards,
                shard_size=self.shard_size,
                resume=self.resume,
            )
            if self.resume:
                self._load_threshold_cache(store, registry)

        detected: List[DetectionCase] = []
        quarantined: List[QuarantinedTask] = []
        engine = runner.engine
        recorder = context.provenance
        # Near-miss chains must keep full records; computed once — stage
        # records do not change while the detection loop runs.
        required = (
            recorder.required_pairs() if recorder is not None else frozenset()
        )
        processed = 0
        resumed = 0
        for index, shard in enumerate(shards):
            resumable = (
                store is not None and self.resume and store.has_shard(index)
            )
            if resumable and recorder is not None \
                    and not store.has_provenance_shard(index):
                # A shard without its provenance sidecar (a checkpoint
                # from a crash between the two writes, or one that
                # predates provenance): the checkpointed cases are only
                # the periodic survivors, so dropped-pair verdicts are
                # unrecoverable from them — re-run the shard instead.
                resumable = False
            if resumable:
                cases, shard_quarantine = store.read_shard(index)
                if recorder is not None:
                    records = store.read_provenance_shard(index)
                    _absorb_detection_provenance(recorder, shard, records)
                detected.extend(cases)
                quarantined.extend(shard_quarantine)
                resumed += 1
                registry.counter("mapreduce.shards_resumed").inc()
                # Deliberately NOT shard_finish: the fold in
                # repro.obs.service counts a shard done on either event,
                # so resume never double-counts pairs or duplicates the
                # finish record of the run that actually computed it.
                journal_emit(
                    "shard_resumed",
                    shard=index,
                    pairs=len(shard),
                    detected=len(cases),
                )
                continue
            if self.max_shards is not None and processed >= self.max_shards:
                if store is not None:
                    store.write_quarantine(quarantined)
                completed = resumed + processed
                logger.warning(
                    "shard budget exhausted after %d new shards "
                    "(%d of %d complete)", processed, completed, n_shards,
                )
                raise IncompleteRunError(completed, n_shards)
            engine.set_run_context(run_id=engine.run_id, shard=index)
            journal_emit("shard_start", shard=index, pairs=len(shard))
            started = time.perf_counter()
            try:
                with span("shard"):
                    if recorder is None:
                        cases = runner._detect_batch(shard)
                    else:
                        cases = runner._detect_batch(
                            shard, provenance_pairs=required
                        )
            finally:
                engine.set_run_context(run_id=engine.run_id)
            shard_quarantine = list(engine.last_quarantine)
            shard_records: List[VerdictRecord] = []
            if recorder is not None:
                shard_records = _detection_records(cases, recorder)
                # Only periodic cases feed the funnel and the checkpoint;
                # the policy-shipped non-periodic results live on solely
                # as verdict records.
                cases = [case for case in cases if case.detection.periodic]
            detected.extend(cases)
            quarantined.extend(shard_quarantine)
            if store is not None:
                if recorder is not None:
                    # Before write_shard: the shard file is the commit
                    # point, so shard-on-disk implies provenance-on-disk
                    # and a resume never recomputes verdict records.
                    store.write_provenance_shard(index, shard_records)
                store.write_shard(index, cases, shard_quarantine)
                self._save_threshold_cache(store, registry)
            if recorder is not None:
                _absorb_detection_provenance(recorder, shard, shard_records)
            journal_emit(
                "shard_finish",
                shard=index,
                pairs=len(shard),
                detected=len(cases),
                quarantined=len(shard_quarantine) or None,
                seconds=round(time.perf_counter() - started, 6),
            )
            processed += 1
            if self.on_shard_complete is not None:
                self.on_shard_complete(index, n_shards)
        if resumed:
            logger.info(
                "resumed %d of %d shards from checkpoint", resumed, n_shards
            )
        if store is not None:
            store.write_quarantine(quarantined)
        return (
            [(case.summary, case.detection) for case in detected],
            quarantined,
        )

    def _load_threshold_cache(
        self, store: CheckpointStore, registry
    ) -> None:
        """Warm the runner's cache from a resumed checkpoint, if present.

        A parameter mismatch (the file was written under a different
        cache configuration) is logged and skipped rather than fatal:
        warmth is purely a speed-up, never a correctness requirement.
        """
        cache = self._runner.threshold_cache
        path = store.threshold_cache_path
        if cache is None or not path.exists():
            return
        try:
            loaded = cache.load(path)
        except ThresholdCacheMismatch as exc:
            logger.warning("ignoring persisted threshold cache: %s", exc)
            return
        registry.counter("detector.threshold_cache.loaded").inc(loaded)
        journal_emit("cache_load", buckets=loaded)
        logger.info(
            "resumed %d warm threshold buckets from %s", loaded, path
        )

    def _save_threshold_cache(
        self, store: CheckpointStore, registry
    ) -> None:
        """Persist the warm buckets next to the shard checkpoints.

        Saved after every completed shard so a later ``resume=True``
        run — even after a hard kill — starts from whatever warmth this
        run accumulated.
        """
        cache = self._runner.threshold_cache
        if cache is None or len(cache) == 0:
            return
        cache.save(store.threshold_cache_path)
        registry.counter("detector.threshold_cache.persisted").inc()
        journal_emit("cache_persist", buckets=len(cache))


class BaywatchRunner:
    """The MapReduce-backed front end of the 8-step methodology."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        engine: Optional[MapReduceEngine] = None,
        global_whitelist: Optional[GlobalWhitelist] = None,
        novelty: Optional[NoveltyStore] = None,
        token_filter: Optional[TokenFilter] = None,
        scorer: Optional[DomainScorer] = None,
        detection_job_factory: Optional[Callable[..., BeaconingDetectionJob]] = None,
    ) -> None:
        """``detection_job_factory`` (optional) builds the detection job
        from the same keyword arguments as
        :class:`~repro.jobs.detection.BeaconingDetectionJob` — the seam
        fault-injection tests and custom deployments hook into."""
        self.config = config or PipelineConfig()
        if engine is None:
            if self.config.executor is not None:
                engine = MapReduceEngine(
                    n_workers=max(os.cpu_count() or 1, 2),
                    executor=self.config.executor,
                )
            else:
                engine = MapReduceEngine()
        self.engine = engine
        self.global_whitelist = (
            global_whitelist if global_whitelist is not None else GlobalWhitelist()
        )
        self.novelty = novelty if novelty is not None else NoveltyStore()
        self.token_filter = token_filter if token_filter is not None else TokenFilter()
        self._scorer = scorer
        self.detection_job_factory = (
            detection_job_factory
            if detection_job_factory is not None
            else BeaconingDetectionJob
        )
        # One threshold cache for the whole runner: every detection job
        # ships it to the workers (pickled warm), in-process shards warm
        # it cumulatively, and the sharded mode persists/restores it via
        # the checkpoint directory.
        self.threshold_cache: Optional[ThresholdCache] = (
            ThresholdCache() if self.config.use_threshold_cache else None
        )

    @property
    def scorer(self) -> DomainScorer:
        """The domain LM scorer (built lazily)."""
        if self._scorer is None:
            self._scorer = default_scorer()
        return self._scorer

    # -- phases ------------------------------------------------------------

    def extract(
        self, records: Iterable[ProxyLogRecord]
    ) -> List[ActivitySummary]:
        """Phase A: raw records -> per-pair ActivitySummaries."""
        with span("extract"):
            job = DataExtractionJob(time_scale=self.config.time_scale)
            output = self.engine.run(job, enumerate(records))
            return [summary for _pair, summary in output]

    def rescale_merge(
        self, summaries: Iterable[ActivitySummary], new_time_scale: float
    ) -> List[ActivitySummary]:
        """Phase B: rescale to a coarser granularity and merge windows."""
        with span("rescale_merge"):
            job = RescaleMergeJob(new_time_scale)
            output = self.engine.run(
                job, [(summary.pair, summary) for summary in summaries]
            )
            return [summary for _pair, summary in output]

    def popularity(
        self, summaries: List[ActivitySummary]
    ) -> Tuple[Dict[str, float], Dict[str, int], int]:
        """Phase C: destination popularity ratios and source counts."""
        with span("popularity"):
            job = DestinationPopularityJob()
            counts = self.engine.run(
                job, [(summary.pair, summary) for summary in summaries]
            )
            population = len({summary.source for summary in summaries})
            ratios = popularity_table(counts, population)
            return ratios, dict(counts), population

    def detect(
        self,
        summaries: List[ActivitySummary],
        skip_destinations: frozenset,
    ) -> List[DetectionCase]:
        """Phase D: periodicity detection over non-whitelisted pairs."""
        with span("detect"):
            return self._detect_batch(
                summaries, skip_destinations=skip_destinations
            )

    def _bind_shard_queue(self, checkpoint_dir: Optional[str]) -> None:
        """Point a shard-queue backend at ``<checkpoint-dir>/queue``.

        The queue lives under the checkpoint directory so the same
        shared filesystem that carries shard checkpoints also carries
        tasks, claims, and results for the ``repro worker`` fleet.  A
        queue already bound (e.g. directly by a test) is left alone;
        other backends ignore this entirely.
        """
        from repro.mapreduce.executors import ShardQueueExecutor

        executor = getattr(self.engine, "executor", None)
        if not isinstance(executor, ShardQueueExecutor) or executor.bound:
            return
        if checkpoint_dir is None:
            raise ValueError(
                "the shard-queue executor needs a checkpoint directory to "
                "host its task queue; pass checkpoint_dir (CLI: "
                "--checkpoint-dir)"
            )
        executor.bind(os.path.join(checkpoint_dir, "queue"))

    def _detect_batch(
        self,
        summaries: List[ActivitySummary],
        skip_destinations: frozenset = frozenset(),
        provenance_pairs: frozenset = frozenset(),
    ) -> List[DetectionCase]:
        """One detection job over the engine (no span of its own).

        With provenance enabled the job also ships the non-periodic
        results the policy samples (plus ``provenance_pairs``, the
        chains that must stay complete), so callers can emit full
        verdict chains without re-running detection.  The provenance
        keywords are only passed when the policy is set, keeping custom
        ``detection_job_factory`` seams that predate them working.

        With ``config.use_shared_memory`` the batch is packed into a
        :class:`~repro.mapreduce.shm.SummaryArena` and the engine sees
        ``(pair, index)`` inputs; this process owns the segment and
        always unlinks it on the way out — worker deaths mid-run cannot
        leak it (workers never own the segment; see
        :mod:`repro.mapreduce.shm`).  Under an in-process backend
        (serial, threads) the arena would be pure overhead — workers
        already share this interpreter's heap — so the flag degrades to
        plain direct references.
        """
        kwargs: Dict[str, Any] = {}
        if self.config.provenance is not None:
            kwargs["provenance_policy"] = self.config.provenance
            kwargs["provenance_pairs"] = frozenset(provenance_pairs)
        job = self.detection_job_factory(
            self.config.detector,
            skip_destinations=skip_destinations,
            min_events=self.config.min_events,
            use_threshold_cache=self.config.use_threshold_cache,
            threshold_cache=self.threshold_cache,
            **kwargs,
        )
        executor = getattr(self.engine, "executor", None)
        workers_share_heap = executor is not None and executor.in_process
        arena = None
        if (
            self.config.use_shared_memory
            and not workers_share_heap
            and summaries
            and hasattr(job, "bind_arena")
        ):
            from repro.mapreduce.shm import SummaryArena

            arena = SummaryArena.pack(summaries)
            job.bind_arena(arena)
            inputs = [
                (summary.pair, index)
                for index, summary in enumerate(summaries)
            ]
        else:
            inputs = [(summary.pair, summary) for summary in summaries]
        try:
            output = self.engine.run(job, inputs)
        finally:
            if arena is not None:
                arena.close()
                arena.unlink()
        return [case for _pair, case in output]

    def rank(
        self,
        cases: List[DetectionCase],
        popularity: Dict[str, float],
        similar_sources: Dict[str, int],
    ) -> List[DetectionCase]:
        """Phase E: token/novelty filtering, scoring, global ranking.

        A standalone MapReduce counterpart of funnel steps 6-8 (the
        end-to-end run modes execute those steps through the shared
        :mod:`repro.stages` objects instead); survivors are recorded in
        the novelty store.
        """
        with span("rank"):
            lm_scores = {
                destination: self.scorer.normalized_score(destination)
                for destination in {case.summary.destination for case in cases}
            }
            job = RankingJob(
                popularity=popularity,
                similar_sources=similar_sources,
                lm_scores=lm_scores,
                reported_destinations=frozenset(self.novelty.reported_destinations),
                token_filter=self.token_filter,
                weights=self.config.ranking_weights,
                percentile=self.config.ranking_percentile,
            )
            output = self.engine.run(job, [(case.pair, case) for case in cases])
            ranked = [
                case for _rank, case in sorted(output, key=lambda kv: kv[0])
            ]
            for case in ranked:
                self.novelty.record(
                    case.summary.source, case.summary.destination
                )
            return ranked

    # -- shared stage plumbing -----------------------------------------------

    def _stage_context(
        self, summaries: List[ActivitySummary]
    ) -> StageContext:
        """Build the stage context: popularity job plus shared components."""
        _ratios, counts, population = self.popularity(summaries)
        get_registry().gauge("runner.population_size").set(population)
        return StageContext(
            config=self.config,
            global_whitelist=self.global_whitelist,
            novelty=self.novelty,
            token_filter=self.token_filter,
            popularity=PopularityIndex.from_counts(counts, population),
            threshold_cache=self.threshold_cache,
            scorer_factory=lambda: self.scorer,
            provenance=(
                ProvenanceRecorder(self.config.provenance)
                if self.config.provenance is not None
                else None
            ),
        )

    @staticmethod
    def _pre_stages() -> List[Any]:
        """Funnel steps 1-2 plus the min-events prefilter."""
        return [GlobalWhitelistStage(), LocalWhitelistStage(), MinEventsStage()]

    @staticmethod
    def _post_stages() -> List[Any]:
        """Funnel steps 6-8."""
        return [TokenFilterStage(), NoveltyStage(), RankingStage()]

    def whitelist_survivors(
        self, summaries: List[ActivitySummary]
    ) -> List[ActivitySummary]:
        """Steps 1-2 and the min-events prefilter, in-process.

        A convenience for smoke tests and ad-hoc analysis: runs the
        popularity job plus the shared whitelist stages and returns the
        pairs that would enter periodicity detection.
        """
        context = self._stage_context(summaries)
        return run_stages(context, self._pre_stages(), summaries)

    def _run_stage_graph(
        self,
        context: StageContext,
        summaries: List[ActivitySummary],
        detection: PeriodicityDetectionStage,
        *,
        detect_span: str = "detect",
    ) -> PipelineReport:
        """Whitelists -> detection -> ranking over the shared stages.

        The stages are grouped under the runner's traditional phase
        spans (``detect``, ``rank``) so phase-level timings stay
        comparable across releases; the per-stage spans nest inside.
        """
        survivors = run_stages(context, self._pre_stages(), summaries)
        with span(detect_span):
            cases = run_stages(context, [detection], survivors)
        with span("rank"):
            ranked = run_stages(context, self._post_stages(), cases)
        logger.info(
            "runner run: %d pairs in, %d periodic, %d reported, "
            "%d quarantined (population %d)",
            len(summaries), len(context.detected), len(ranked),
            len(context.quarantined), context.popularity.population,
        )
        return build_report(context, ranked)

    # -- end to end ----------------------------------------------------------

    def run(
        self,
        records: Iterable[ProxyLogRecord],
        *,
        analysis_time_scale: Optional[float] = None,
    ) -> PipelineReport:
        """Run all phases; optionally rescale before detection."""
        with span("runner"):
            return self._run(records, analysis_time_scale=analysis_time_scale)

    def _run(
        self,
        records: Iterable[ProxyLogRecord],
        *,
        analysis_time_scale: Optional[float] = None,
    ) -> PipelineReport:
        get_registry().counter("runner.runs").inc()
        summaries = self.extract(records)
        if analysis_time_scale is not None:
            summaries = self.rescale_merge(summaries, analysis_time_scale)
        context = self._stage_context(summaries)
        return self._run_stage_graph(
            context,
            summaries,
            PeriodicityDetectionStage(_EngineDetection(self)),
        )

    # -- sharded, checkpointed execution -------------------------------------

    def run_sharded(
        self,
        records: Iterable[ProxyLogRecord],
        *,
        analysis_time_scale: Optional[float] = None,
        shard_size: int = 256,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        max_shards: Optional[int] = None,
        on_shard_complete: Optional[Callable[[int, int], None]] = None,
        run_id: Optional[str] = None,
        journal_dir: Optional[str] = None,
    ) -> PipelineReport:
        """Run all phases with the detection phase sharded.

        See :meth:`run_summaries_sharded` for the sharding, checkpoint,
        resume, and telemetry (``run_id`` / ``journal_dir``) semantics.
        Ingestion folds the records through
        :func:`repro.sources.proxy.records_to_summaries` (``records``
        may be a lazy iterator); extraction and rescaling are cheap and
        deterministic, so a resumed run simply recomputes them from the
        same input.
        """
        return self._fold_and_run_sharded(
            lambda: records_to_summaries(
                records, time_scale=self.config.time_scale
            ),
            analysis_time_scale=analysis_time_scale,
            shard_size=shard_size,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            max_shards=max_shards,
            on_shard_complete=on_shard_complete,
            run_id=run_id,
            journal_dir=journal_dir,
        )

    def run_chunks_sharded(
        self,
        chunks: Iterable[Any],
        *,
        analysis_time_scale: Optional[float] = None,
        shard_size: int = 256,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        max_shards: Optional[int] = None,
        on_shard_complete: Optional[Callable[[int, int], None]] = None,
        run_id: Optional[str] = None,
        journal_dir: Optional[str] = None,
    ) -> PipelineReport:
        """:meth:`run_sharded` over columnar record chunks.

        :class:`~repro.sources.columnar.RecordChunk` batches (e.g. from
        :func:`~repro.sources.columnar.read_log_chunks`) fold straight
        into summaries.  The summaries — and therefore the shard
        fingerprint, checkpoints, and final report — equal
        :meth:`run_sharded`'s over the same events, so a checkpoint
        written through one entry point resumes through the other.
        """
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a layer trace) sees the fold.
        from repro.sources.columnar import summaries_from_chunks

        return self._fold_and_run_sharded(
            lambda: summaries_from_chunks(
                chunks, time_scale=self.config.time_scale
            ),
            analysis_time_scale=analysis_time_scale,
            shard_size=shard_size,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            max_shards=max_shards,
            on_shard_complete=on_shard_complete,
            run_id=run_id,
            journal_dir=journal_dir,
        )

    def _fold_and_run_sharded(
        self,
        fold: Callable[[], List[ActivitySummary]],
        *,
        analysis_time_scale: Optional[float],
        **sharding: Any,
    ) -> PipelineReport:
        """The body of :meth:`run_sharded` and :meth:`run_chunks_sharded`."""
        with span("runner.sharded"):
            with span("extract"):
                summaries = fold()
            if analysis_time_scale is not None:
                summaries = self.rescale_merge(summaries, analysis_time_scale)
            return self.run_summaries_sharded(summaries, **sharding)

    def run_summaries_sharded(
        self,
        summaries: List[ActivitySummary],
        *,
        shard_size: int = 256,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        max_shards: Optional[int] = None,
        on_shard_complete: Optional[Callable[[int, int], None]] = None,
        run_id: Optional[str] = None,
        journal_dir: Optional[str] = None,
    ) -> PipelineReport:
        """Detection in bounded shards with durable checkpoints.

        Post-whitelist survivors are ordered deterministically by pair
        and cut into shards of ``shard_size``; each shard runs the
        detection job independently and — when ``checkpoint_dir`` is
        set — lands in one atomically written JSONL file.  A run
        restarted with ``resume=True`` loads completed shards from disk
        (counted in ``mapreduce.shards_resumed``) and re-runs only the
        missing ones, producing a report identical to an uninterrupted
        run.  Units the engine quarantined (poison-pill pairs) are
        carried in the report's ``quarantined`` list and in the
        checkpoint's ``quarantine.jsonl``.

        ``max_shards`` bounds how many *new* shards this invocation may
        process; when the budget runs out with work remaining,
        :class:`IncompleteRunError` is raised after checkpointing the
        finished shards (requires ``checkpoint_dir``).

        Telemetry: each run gets a ``run_id`` (generated when not
        given), attached to the engine's operator log lines and to every
        record of the event journal.  The journal —
        ``events.jsonl`` under ``journal_dir`` (defaulting to
        ``checkpoint_dir``) — records the run's operational story:
        run/shard start and finish, retries, quarantines, pool restarts,
        cache persist/load, worker heartbeats; a resumed run *appends*
        with a ``resumed`` marker so the interrupt/resume history reads
        as one stream (``repro watch`` and the ``--status-port`` service
        fold it live).  When telemetry is on and no distributed trace is
        already active, a fresh trace context is installed so
        worker-side spans come back stitched under this run (see
        :mod:`repro.obs.tracing`).
        """
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if max_shards is not None and checkpoint_dir is None:
            raise ValueError(
                "max_shards without checkpoint_dir would discard the "
                "completed shards"
            )
        if run_id is None:
            run_id = new_run_id()
        self._bind_shard_queue(checkpoint_dir)
        journal: Optional[EventJournal] = None
        journal_home = journal_dir if journal_dir is not None else checkpoint_dir
        if journal_home is not None:
            journal = EventJournal.in_dir(journal_home, run_id=run_id)
        trace = current_trace()
        if trace is None and get_registry().enabled:
            trace = TraceContext(trace_id=new_trace_id(), run_id=run_id)
        self.engine.set_run_context(run_id=run_id)
        try:
            # The ``run`` span is the trace root: it opens *after* the
            # trace context is installed, so every later span — the
            # stage graph here, worker-side spans shipped back by the
            # engine — stitches into one tree under it.
            with scoped_journal(journal), scoped_trace(trace), span("run"):
                get_registry().counter("runner.runs").inc()
                context = self._stage_context(summaries)
                detection = PeriodicityDetectionStage(
                    _ShardedDetection(
                        self,
                        shard_size=shard_size,
                        checkpoint_dir=checkpoint_dir,
                        resume=resume,
                        max_shards=max_shards,
                        on_shard_complete=on_shard_complete,
                    )
                )
                try:
                    report = self._run_stage_graph(
                        context, summaries, detection,
                        detect_span="detect.sharded",
                    )
                except IncompleteRunError as exc:
                    journal_emit(
                        "run_suspended",
                        completed=exc.completed,
                        total=exc.total,
                    )
                    raise
                if checkpoint_dir is not None and report.provenance:
                    write_provenance(
                        CheckpointStore(checkpoint_dir).provenance_path,
                        report.provenance,
                    )
                journal_emit(
                    "run_finish",
                    reported=len(report.ranked_cases),
                    quarantined=len(report.quarantined) or None,
                )
                return report
        finally:
            self.engine.set_run_context()
            if journal is not None:
                journal.close()
