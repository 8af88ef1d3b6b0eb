"""Periodicity detection on a MapReduce engine, in checkpointed shards.

:class:`~repro.filtering.BaywatchPipeline` is the one front end of the
8-step funnel, and it hands every run to :func:`run_on_engine`:
ingestion, the whitelists and ranking run in-process through the shared
:mod:`repro.stages` objects, and only periodicity detection — the
paper's Section VII-D job, the one phase whose cost needs workers —
runs on the pipeline's :class:`~repro.mapreduce.MapReduceEngine`.  On
a serial engine each shard is one task, one batched detector call.

Detection runs in bounded shards with durable JSONL checkpoints (see
:mod:`repro.jobs.checkpoint`): an interrupted run restarted with
``resume=True`` re-runs only the incomplete shards, and — with a
quarantine-enabled engine — poison-pill pairs end up in the report's
quarantine list instead of aborting the batch.
"""

from __future__ import annotations

import logging
import os
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.detector import DetectionResult
from repro.core.permutation import ThresholdCacheMismatch
from repro.core.timeseries import ActivitySummary
from repro.filtering.pipeline import PipelineReport
from repro.jobs.checkpoint import CheckpointStore, run_fingerprint
from repro.jobs.detection import BeaconingDetectionJob
from repro.jobs.records import DetectionCase
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
# Kept importable here: the benchmark's layer trace wraps this name.
from repro.sources.proxy import records_to_summaries  # noqa: F401
from repro.stages import StageContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.filtering.pipeline import BaywatchPipeline

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
    outside the sampling policy, so their chains are discarded here,
    keeping the final store identical across executors.
    """
    recorded = {record.pair for record in records}
    recorder.extend(records)
    for summary in summaries:
        if summary.pair not in recorded:
            recorder.discard(summary.source, summary.destination)


class _ShardedDetection:
    """Detection executor running bounded shards with durable checkpoints.

    Implements the sharding loop of :func:`run_on_engine`:
    deterministic pair ordering, per-shard engine runs, checkpoint
    write/read on resume, quarantine collection, and the ``max_shards``
    budget (raising :class:`IncompleteRunError` after checkpointing what
    finished).
    """

    def __init__(
        self,
        pipeline: "BaywatchPipeline",
        *,
        shard_size: int,
        checkpoint_dir: Optional[str],
        resume: bool,
        max_shards: Optional[int],
    ) -> None:
        self._pipeline = pipeline
        self.shard_size = shard_size
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.max_shards = max_shards

    def __call__(
        self, context: StageContext, summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        pipeline = self._pipeline
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
                config_repr=repr(pipeline.config),
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
        engine = pipeline.engine
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
                    cases = self._detect_batch(shard, required)
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
        """Warm the pipeline's cache from a resumed checkpoint, if present.

        A parameter mismatch (the file was written under a different
        cache configuration) is logged and skipped rather than fatal:
        warmth is purely a speed-up, never a correctness requirement.
        """
        cache = self._pipeline.threshold_cache
        path = store.threshold_cache_path
        if not path.exists():
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
        cache = self._pipeline.threshold_cache
        if len(cache) == 0:
            return
        cache.save(store.threshold_cache_path)
        registry.counter("detector.threshold_cache.persisted").inc()
        journal_emit("cache_persist", buckets=len(cache))

    def _detect_batch(
        self, summaries: List[ActivitySummary], provenance_pairs: frozenset
    ) -> List[DetectionCase]:
        """One detection job over the engine (no span of its own).

        With provenance enabled the job also ships the non-periodic
        results the policy samples (plus ``provenance_pairs``, the
        chains that must stay complete), so callers can emit full
        verdict chains without re-running detection.  The provenance
        keywords are only passed when the policy is set, keeping custom
        ``detection_job_factory`` seams that predate them working.
        """
        pipeline = self._pipeline
        config = pipeline.config
        kwargs: Dict[str, Any] = {}
        if config.provenance is not None:
            kwargs["provenance_policy"] = config.provenance
            kwargs["provenance_pairs"] = frozenset(provenance_pairs)
        factory = pipeline.detection_job_factory or BeaconingDetectionJob
        job = factory(
            config.detector,
            threshold_cache=pipeline.threshold_cache,
            **kwargs,
        )
        output = pipeline.engine.run(
            job, [(summary.pair, summary) for summary in summaries]
        )
        return [case for _pair, case in output]


def _bind_shard_queue(
    engine: MapReduceEngine, checkpoint_dir: Optional[str]
) -> None:
    """Point a shard-queue backend at ``<checkpoint-dir>/queue``.

    The queue lives under the checkpoint directory so the same shared
    filesystem that carries shard checkpoints also carries tasks,
    claims, and results for the ``repro worker`` fleet.  A queue already
    bound (e.g. directly by a test) is left alone; other backends ignore
    this entirely.
    """
    from repro.mapreduce.executors import ShardQueueExecutor

    executor = getattr(engine, "executor", None)
    if not isinstance(executor, ShardQueueExecutor) or executor.bound:
        return
    if checkpoint_dir is None:
        raise ValueError(
            "the shard-queue executor needs a checkpoint directory to "
            "host its task queue; pass checkpoint_dir (CLI: "
            "--checkpoint-dir)"
        )
    executor.bind(os.path.join(checkpoint_dir, "queue"))


def check_sharding(
    shard_size: int,
    checkpoint_dir: Optional[str],
    *,
    resume: bool = False,
    max_shards: Optional[int] = None,
) -> None:
    """Raise ``ValueError`` for sharding settings no run can honour."""
    if shard_size < 1:
        raise ValueError("shard_size must be at least 1")
    if max_shards is not None and max_shards < 0:
        raise ValueError("max_shards must be non-negative")
    if checkpoint_dir is None and max_shards is not None:
        raise ValueError(
            "max_shards without checkpoint_dir would discard the "
            "completed shards"
        )
    if checkpoint_dir is None and resume:
        raise ValueError(
            "resume without checkpoint_dir has no completed shards to reuse"
        )


def run_on_engine(
    pipeline: "BaywatchPipeline",
    summaries: List[ActivitySummary],
    *,
    shard_size: int = 256,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    max_shards: Optional[int] = None,
    run_id: Optional[str] = None,
    journal_dir: Optional[str] = None,
) -> PipelineReport:
    """``pipeline``'s funnel over ``summaries``, detecting on its engine.

    Post-whitelist survivors are ordered deterministically by pair and
    cut into shards of ``shard_size``; each shard runs the detection
    job independently and — when ``checkpoint_dir`` is set — lands in
    one atomically written JSONL file.  A run restarted with
    ``resume=True`` loads completed shards from disk (counted in
    ``mapreduce.shards_resumed``) and re-runs only the missing ones,
    producing a report identical to an uninterrupted run.  Units the
    engine quarantined (poison-pill pairs) are carried in the report's
    ``quarantined`` list and in the checkpoint's ``quarantine.jsonl``.

    ``max_shards`` bounds how many *new* shards this invocation may
    process; when the budget runs out with work remaining,
    :class:`IncompleteRunError` is raised after checkpointing the
    finished shards (requires ``checkpoint_dir``).

    Telemetry: each run gets a ``run_id`` (generated when not given),
    attached to the engine's operator log lines and to every record of
    the event journal.  The journal — ``events.jsonl`` under
    ``journal_dir`` (defaulting to ``checkpoint_dir``) — records the
    run's operational story: run/shard start and finish, funnel
    stages, retries, quarantines, pool restarts, cache persist/load,
    worker heartbeats; a resumed run *appends* with a ``resumed``
    marker so the interrupt/resume history reads as one stream
    (``repro watch`` and the ``--status-port`` service fold it live).
    When telemetry is on and no distributed trace is already active, a
    fresh trace context is installed so worker-side spans come back
    stitched under this run's ``run`` span (see
    :mod:`repro.obs.tracing`).
    """
    check_sharding(
        shard_size, checkpoint_dir, resume=resume, max_shards=max_shards
    )
    engine = pipeline.engine
    if run_id is None:
        run_id = new_run_id()
    _bind_shard_queue(engine, checkpoint_dir)
    journal: Optional[EventJournal] = None
    journal_home = journal_dir if journal_dir is not None else checkpoint_dir
    if journal_home is not None:
        journal = EventJournal.in_dir(journal_home, run_id=run_id)
    trace = current_trace()
    if trace is None and get_registry().enabled:
        trace = TraceContext(trace_id=new_trace_id(), run_id=run_id)
    engine.set_run_context(run_id=run_id)
    try:
        # The ``run`` span is the trace root: it opens *after* the
        # trace context is installed, so every later span — the stage
        # graph here, worker-side spans shipped back by the engine —
        # stitches into one tree under it.
        with scoped_journal(journal), scoped_trace(trace), span("run"):
            detection = _ShardedDetection(
                pipeline,
                shard_size=shard_size,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                max_shards=max_shards,
            )
            try:
                report = pipeline._run_stages(summaries, detection)
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
        engine.set_run_context()
        if journal is not None:
            journal.close()
