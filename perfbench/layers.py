"""Outside-in layer trace over the program's public entry points.

:class:`LayerTrace` wraps the entry point of every layer where its
caller looks it up -- a module global such as
``repro.core.detector.select_gmm`` or a class attribute such as
``MapReduceEngine.run`` -- so nothing under ``src/`` is edited.  Each
wrapper records a span; a layer's *self time* is its spans' duration
minus the part its child spans cover, so the self times of one run plus
the unattributed remainder add up to the run's wall time.  Counters are
taken at the same boundaries, from arguments and return values.

Per-record functions such as ``ProxyLogRecord.from_line`` are never
wrapped: the wrapper's own cost would swamp what it measures.  Targets
a later version of the program no longer has are skipped and listed in
:attr:`LayerTrace.missing`; their time then shows as unattributed.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Counts = Dict[str, float]
Counter = Callable[[Counts, tuple, Any], None]


def _tally(name: str) -> Counter:
    def count(counts: Counts, args: tuple, result: Any) -> None:
        counts[name] += 1
    return count


def _events(counts: Counts, args: tuple, result: Any) -> None:
    counts["sources.events"] += sum(summary.event_count for summary in result)


def _detect_stage(counts: Counts, args: tuple, result: Any) -> None:
    counts["stages.detect_pairs"] += len(args[2])


def _detection(counts: Counts, args: tuple, result: Any) -> None:
    counts["detector.pairs"] += 1
    counts["detector.periodic"] += bool(result.periodic)


def _batch_detection(counts: Counts, args: tuple, result: Any) -> None:
    counts["detector.pairs"] += len(result)
    counts["detector.periodic"] += sum(bool(r.periodic) for r in result)


def _gmm_select(counts: Counts, args: tuple, result: Any) -> None:
    counts["gmm.intervals"] += len(args[0])


def _gmm_fit(counts: Counts, args: tuple, result: Any) -> None:
    counts["gmm.fits"] += 1
    counts["gmm.not_converged"] += not result.converged


def _spectrum(counts: Counts, args: tuple, result: Any) -> None:
    counts["periodogram.rows"] += 1
    counts["periodogram.slots"] += len(args[0])


def _spectra(counts: Counts, args: tuple, result: Any) -> None:
    rows, slots = args[0].shape
    counts["periodogram.rows"] += rows
    counts["periodogram.slots"] += rows * slots


def _pruning(counts: Counts, args: tuple, result: Any) -> None:
    counts["pruning.candidates_in"] += len(result)
    counts["pruning.candidates_kept"] += sum(bool(d.kept) for d in result)


def _acf_batch(counts: Counts, args: tuple, result: Any) -> None:
    counts["autocorrelation.rows"] += len(result)


#: (module, attribute or ``Class.attribute``, self-time metric, counter).
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    # sources: parse + fold of raw logs into pair summaries.
    ("repro.jobs.runner", "records_to_summaries", "sources.ingest_s", _events),
    ("repro.filtering.pipeline", "records_to_summaries", "sources.ingest_s",
     _events),
    ("repro.sources.proxy", "records_to_summaries", "sources.ingest_s", _events),
    ("repro.sources.columnar", "summaries_from_chunks", "sources.ingest_s",
     _events),
    # jobs.summary_store: the cadence store's read and write paths.
    ("repro.jobs.summary_store", "SummaryStore.load_window",
     "summary_store.read_s", None),
    ("repro.jobs.summary_store", "SummaryStore.append_day",
     "summary_store.write_s", None),
    # core.timeseries: window merging and signal binning.
    ("repro.jobs.summary_store", "merge_rescaled", "timeseries.merge_s", None),
    ("repro.core.timeseries", "merge_rescaled", "timeseries.merge_s", None),
    ("repro.core.detector", "bin_series", "timeseries.bin_s", None),
    # mapreduce: the engine's own bookkeeping around the jobs it runs.
    ("repro.mapreduce.engine", "MapReduceEngine.run",
     "mapreduce.engine_self_s", _tally("mapreduce.runs")),
    # stages: the funnel steps' own work.
    ("repro.stages.context", "PopularityIndex.from_summaries",
     "stages.whitelist_s", None),
    ("repro.stages.context", "PopularityIndex.from_counts",
     "stages.whitelist_s", None),
    ("repro.stages.funnel", "GlobalWhitelistStage.apply", "stages.whitelist_s",
     None),
    ("repro.stages.funnel", "LocalWhitelistStage.apply", "stages.whitelist_s",
     None),
    ("repro.stages.funnel", "MinEventsStage.apply", "stages.whitelist_s", None),
    ("repro.stages.detection", "PeriodicityDetectionStage.apply",
     "stages.detect_s", _detect_stage),
    ("repro.stages.funnel", "TokenFilterStage.apply", "stages.post_s", None),
    ("repro.stages.funnel", "NoveltyStage.apply", "stages.post_s", None),
    ("repro.stages.funnel", "RankingStage.apply", "stages.post_s", None),
    # core.detector: per-pair orchestration not covered by a kernel.
    ("repro.core.detector", "PeriodicityDetector.detect_summary",
     "detector.self_s", None),
    ("repro.core.detector", "PeriodicityDetector.detect", "detector.self_s",
     _detection),
    ("repro.core.batch", "BatchedDetector.detect_summaries", "detector.self_s",
     _batch_detection),
    # core.gmm: interval mixture selection (all its EM fits).
    ("repro.core.detector", "select_gmm", "gmm.select_s", _gmm_select),
    ("repro.core.gmm", "fit_gmm", "gmm.select_s", _gmm_fit),
    # core.permutation: threshold cache lookups and cold computations.
    ("repro.core.permutation", "ThresholdCache.threshold",
     "permutation.lookup_s", _tally("permutation.lookups")),
    ("repro.core.permutation", "permutation_threshold",
     "permutation.compute_s", _tally("permutation.computes")),
    ("repro.core.detector", "permutation_threshold", "permutation.compute_s",
     _tally("permutation.computes")),
    # core.periodogram / core.batch: spectra of the binned signals.
    ("repro.core.detector", "power_spectrum", "periodogram.spectra_s",
     _spectrum),
    ("repro.core.batch", "batch_power_spectra", "periodogram.spectra_s",
     _spectra),
    # core.pruning
    ("repro.core.detector", "prune_candidates", "pruning.prune_s", _pruning),
    # core.autocorrelation
    ("repro.core.detector", "autocorrelation", "autocorrelation.acf_s",
     _tally("autocorrelation.rows")),
    ("repro.core.batch", "batch_autocorrelation", "autocorrelation.acf_s",
     _acf_batch),
    # lm: domain scoring (training happens in set-up).
    ("repro.lm.domains", "DomainScorer.normalized_score", "lm.score_s",
     _tally("lm.calls")),
)

#: Self-time metrics, one per wrapped layer (seconds).
TIME_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(metric for _module, _path, metric, _counter in TARGETS)
)

#: Counters taken at the layer boundaries.  ``summary_store.bytes`` is
#: filled in by the harness from the store's size on disk.
COUNT_METRICS: Tuple[str, ...] = (
    "sources.events", "summary_store.bytes", "mapreduce.runs",
    "stages.detect_pairs", "detector.pairs", "detector.periodic",
    "gmm.fits", "gmm.not_converged", "gmm.intervals",
    "permutation.lookups", "permutation.computes",
    "periodogram.rows", "periodogram.slots",
    "pruning.candidates_in", "pruning.candidates_kept",
    "autocorrelation.rows", "lm.calls",
)


class LayerTrace:
    """Span wrappers on :data:`TARGETS`, installed for a ``with`` block.

    Entering installs every wrapper and leaving restores every original
    attribute, so nothing outlives the block.  :meth:`reset` clears the
    accumulators between traced runs.
    """

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counts = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self._remove()

    def reset(self) -> None:
        """Zero every self time and counter."""
        self.self_time.clear()
        self.counts.clear()
        self._stack.clear()

    def _install(self) -> None:
        for module_name, path, metric, counter in TARGETS:
            owner, name = _resolve(module_name, path)
            if owner is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(raw.__func__, metric, counter))
            else:
                wrapped = self._wrap(raw, metric, counter)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def _remove(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _wrap(self, func: Callable, metric: str,
              counter: Optional[Counter]) -> Callable:
        stack = self._stack
        self_time = self.self_time
        counts = self.counts

        @functools.wraps(func)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_time[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(counts, args, result)
            return result

        return span

    def metrics(self, wall: float) -> Dict[str, float]:
        """Per-layer metrics of the traced run that took ``wall`` seconds."""
        out = {metric: self.self_time.get(metric, 0.0)
               for metric in TIME_METRICS}
        out.update((name, self.counts.get(name, 0.0))
                   for name in COUNT_METRICS)
        lookups = out["permutation.lookups"]
        out["permutation.cache_hit_ratio"] = (
            max(0.0, 1.0 - out["permutation.computes"] / lookups)
            if lookups else 0.0
        )
        unattributed = wall - sum(out[metric] for metric in TIME_METRICS)
        out["unattributed_s"] = unattributed
        out["unattributed_frac"] = unattributed / wall if wall > 0 else 0.0
        return out


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """The object owning ``path`` in ``module_name``, or None if gone."""
    *owners, name = path.split(".")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, name
    for attribute in owners:
        owner = vars(owner).get(attribute)
        if owner is None:
            return None, name
    if name not in vars(owner):
        return None, name
    return owner, name
