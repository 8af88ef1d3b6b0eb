"""The periodicity-detection stage (funnel steps 3-5) and its executors.

Steps 3-5 — DFT candidate extraction, permutation thresholding and
pruning, ACF verification — run inside
:class:`~repro.core.batch.BatchedDetector`, the one detection loop.
The stage itself is execution-agnostic: a pluggable *executor* maps
surviving summaries to ``(summary, DetectionResult)`` pairs, which lets
the same stage object run in-process (:class:`InProcessDetection`),
over a MapReduce engine, or in checkpointed shards — the latter two
executors live with the runner in :mod:`repro.jobs.runner`, keeping
this package free of job dependencies.

:func:`build_case` is the single enrichment point turning a detection
into a :class:`~repro.filtering.case.BeaconingCase` (popularity,
similar sources, LM score).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.batch import BatchedDetector
from repro.core.detector import DetectionResult, PeriodicityDetector
from repro.core.timeseries import ActivitySummary
from repro.filtering.case import BeaconingCase
from repro.obs.provenance import (
    ProvenancePolicy,
    ProvenanceRecorder,
    VerdictRecord,
    clean_values,
)
from repro.stages.base import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stages.context import StageContext

__all__ = [
    "DetectionExecutor",
    "IncrementalDetection",
    "InProcessDetection",
    "PeriodicityDetectionStage",
    "build_case",
    "detection_verdicts",
    "record_detection_verdicts",
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
    in-process run, a MapReduce worker, and a sharded worker that
    round-tripped the result through a checkpoint all produce the exact
    same chain.
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


def record_detection_verdicts(
    recorder: ProvenanceRecorder,
    pairs: Iterable[Tuple[ActivitySummary, DetectionResult]],
) -> None:
    """Fold detection verdicts for fully known (summary, result) pairs."""
    for summary, result in pairs:
        recorder.extend(
            detection_verdicts(
                summary.source, summary.destination, result, recorder.policy
            )
        )

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


class InProcessDetection:
    """Default executor: run the batched detector in this process.

    Pass a prebuilt detector to share a warm
    :class:`~repro.core.permutation.ThresholdCache` across runs;
    otherwise one is built (once) from the context's config and cache.
    """

    def __init__(self, detector: Optional[PeriodicityDetector] = None) -> None:
        self._detector = detector

    def __call__(
        self, context: "StageContext", summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        """Detect every summary; nothing is ever quarantined in-process."""
        if self._detector is None:
            self._detector = PeriodicityDetector(
                context.config.detector,
                threshold_cache=context.threshold_cache,
            )
        results = BatchedDetector(self._detector).detect_summaries(summaries)
        if context.provenance is not None:
            record_detection_verdicts(
                context.provenance, zip(summaries, results)
            )
        return (
            [
                (summary, result)
                for summary, result in zip(summaries, results)
                if result.periodic
            ],
            [],
        )


class IncrementalDetection:
    """Executor that reuses sliding-DFT spectral states across ticks.

    Wraps an :class:`~repro.core.incremental.IncrementalSpectralEngine`:
    each call slides every pair's per-scale window states forward by the
    new data (instead of recomputing periodograms from scratch), screens
    the pairs against the permutation threshold on the maintained
    spectra, and runs the full batched detector only on screen
    survivors.  The screen has two stages: pairs below the
    (margin-shaded) permutation threshold at every maintained scale are
    rejected outright (they cannot produce a spectral candidate), and
    pairs above it are *probed* — candidate pruning and ACF
    verification run directly on the maintained windows and spectra —
    so only pairs with a verified grid candidate pay for the full
    event-anchored detection (including its GMM fit).

    The engine's state cache persists via :meth:`save_state` /
    :meth:`load_state` (the runner stores it in the checkpoint
    directory next to ``threshold-cache.json``), so sharded and resumed
    runs start warm.  A persisted cache whose fingerprint does not
    match the current detector configuration is discarded, never
    trusted.

    Requirements: the detector must use binary signals and a
    :class:`~repro.core.permutation.ThresholdCache` (the screen keys
    thresholds on signal shape).  When either is missing the executor
    degrades to plain :class:`InProcessDetection` behaviour.
    """

    def __init__(
        self,
        detector: Optional[PeriodicityDetector] = None,
        *,
        config: Optional[Any] = None,
        state_path: Optional[Any] = None,
    ) -> None:
        self._detector = detector
        self._incremental_config = config
        self.state_path = state_path
        self._engine: Optional[Any] = None
        self._fingerprint = ""

    # -- engine lifecycle --------------------------------------------------

    @staticmethod
    def fingerprint_for(detector_config: Any, time_scale: float) -> str:
        """The compatibility fingerprint warm state is bound to."""
        return f"incremental:v1:scale={time_scale!r}:{detector_config!r}"

    def _ensure_engine(
        self, context: "StageContext", time_scale: float
    ) -> Any:
        from repro.core.incremental import (
            IncrementalSpectralEngine,
            IncrementalStateCache,
            IncrementalStateMismatch,
        )

        cfg = context.config.detector
        fingerprint = self.fingerprint_for(cfg, time_scale)
        if self._engine is not None and self._fingerprint == fingerprint:
            return self._engine
        cache = None
        if self.state_path is not None:
            try:
                cache = IncrementalStateCache.load(
                    self.state_path,
                    fingerprint=fingerprint,
                    config=self._incremental_config,
                )
            except FileNotFoundError:
                cache = None
            except (IncrementalStateMismatch, ValueError, OSError):
                # Stale or incompatible warm state: start cold.
                from repro.obs.registry import get_registry

                get_registry().counter(
                    "detector.incremental.state_rejected"
                ).inc()
                cache = None
        self._engine = IncrementalSpectralEngine(
            context.threshold_cache,
            time_scale=time_scale,
            scale_factor=cfg.scale_factor,
            max_scales=cfg.max_scales,
            min_slots=cfg.min_slots,
            max_signal_length=cfg.max_signal_length,
            config=self._incremental_config,
            fingerprint=fingerprint,
            cache=cache,
        )
        self._fingerprint = fingerprint
        return self._engine

    @property
    def engine(self) -> Optional[Any]:
        """The live spectral engine (None before the first call)."""
        return self._engine

    def save_state(self, path: Optional[Any] = None) -> Optional[Any]:
        """Persist the engine's state cache; returns the written path."""
        target = path if path is not None else self.state_path
        if self._engine is None or target is None:
            return None
        return self._engine.cache.save(target)

    # -- execution ---------------------------------------------------------

    def __call__(
        self, context: "StageContext", summaries: List[ActivitySummary]
    ) -> Tuple[List[Tuple[ActivitySummary, DetectionResult]], List[Any]]:
        """Slide states, screen, and fully detect only screen survivors."""
        from repro.core.incremental import DAY
        from repro.obs import span
        from repro.obs.registry import get_registry

        cfg = context.config.detector
        if not summaries:
            return [], []
        if not cfg.binary_signal or context.threshold_cache is None:
            # The screen needs shape-keyed thresholds; degrade to the
            # plain in-process executor rather than guessing.
            return InProcessDetection(self._detector)(context, summaries)
        if self._detector is None:
            self._detector = PeriodicityDetector(
                cfg, threshold_cache=context.threshold_cache
            )
        registry = get_registry()
        with span("detect.incremental"):
            # The engine ladder starts where the cold per-summary ladder
            # would: at the coarsest summary granularity of the batch
            # (cadences rescale uniformly, so normally they all match).
            time_scale = max(
                cfg.time_scale, max(s.time_scale for s in summaries)
            )
            engine = self._ensure_engine(context, time_scale)
            first = min(s.first_timestamp for s in summaries)
            last = max(s.first_timestamp + s.duration for s in summaries)
            start_day = int(first // DAY)
            end_day = int(last // DAY) + 1
            engine.begin_tick(start_day, end_day)

            results: List[Optional[DetectionResult]] = [None] * len(summaries)
            survivors: List[int] = []
            with span("detect.incremental.screen"):
                for index, summary in enumerate(summaries):
                    detector = self._detector.for_time_scale(
                        summary.time_scale
                    )
                    ts = summary.timestamps()
                    early, _prepared = detector._screen(ts)
                    if early is not None:
                        results[index] = early
                        continue
                    verdict = engine.observe(
                        summary.source, summary.destination, ts
                    )
                    if not verdict.passed:
                        results[index] = DetectionResult(
                            periodic=False,
                            candidates=(),
                            power_threshold=verdict.threshold,
                            n_events=int(ts.size),
                            duration=float(ts[-1] - ts[0]),
                            time_scale=detector.config.time_scale,
                            scales=verdict.scales,
                            rejection_reason=(
                                "incremental screen: spectrum below the "
                                "permutation threshold at every scale"
                            ),
                            rejection_code="spectral:power<threshold",
                            spectral_margin=verdict.margin,
                        )
                        continue
                    # Candidate probe: pruning + ACF verification run
                    # directly on the maintained grid windows/spectra.
                    # Only a pair with a verified grid candidate pays
                    # for full event-anchored detection (with its GMM
                    # fit); the bar and the filters are the detector's
                    # own, just fed prebinned signals.
                    plan = detector.screen_plan(ts)
                    shaded = engine.config.screen_margin
                    probed = False
                    states = dict(
                        engine.rung_states(
                            summary.source, summary.destination
                        )
                    )
                    for scale, max_power, threshold in verdict.rung_stats:
                        state = states.get(scale)
                        if state is None or max_power <= shaded * threshold:
                            continue
                        if detector.probe_prebinned(
                            plan, scale, state.window, state.power(),
                            threshold,
                        ):
                            probed = True
                            break
                    if probed:
                        survivors.append(index)
                        continue
                    registry.counter(
                        "detector.incremental.probe_rejected"
                    ).inc()
                    if plan.n_raw == 0:
                        reason = (
                            "incremental probe: no spectral candidate "
                            "above the permutation threshold"
                        )
                        code = "spectral:power<threshold"
                    elif plan.n_pruned == 0:
                        reason = (
                            "incremental probe: every candidate pruned"
                        )
                        code = "pruning:rejected"
                    else:
                        reason = (
                            "incremental probe: no candidate survived "
                            "ACF verification"
                        )
                        code = "acf:below_min_score"
                    results[index] = DetectionResult(
                        periodic=False,
                        candidates=(),
                        power_threshold=verdict.threshold,
                        n_events=int(ts.size),
                        duration=float(ts[-1] - ts[0]),
                        time_scale=detector.config.time_scale,
                        scales=verdict.scales,
                        rejection_reason=reason,
                        rejection_code=code,
                        n_candidates_raw=plan.n_raw,
                        n_candidates_pruned=plan.n_pruned,
                        spectral_margin=verdict.margin,
                    )
            engine.end_tick()
            registry.gauge("detector.incremental.state_cache_size").set(
                len(engine.cache)
            )
            if survivors:
                with span("detect.incremental.full"):
                    full = BatchedDetector(self._detector).detect_summaries(
                        [summaries[index] for index in survivors]
                    )
                for index, result in zip(survivors, full):
                    results[index] = result
            if self.state_path is not None:
                self.save_state()
        if context.provenance is not None:
            record_detection_verdicts(
                context.provenance, zip(summaries, results)
            )
        return (
            [
                (summary, result)
                for summary, result in zip(summaries, results)
                if result is not None and result.periodic
            ],
            [],
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

    def __init__(self, executor: Optional[DetectionExecutor] = None) -> None:
        self.executor = executor if executor is not None else InProcessDetection()

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
