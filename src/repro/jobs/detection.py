"""Beaconing-detection MapReduce job (paper Section VII-D).

Its input is the pair summaries that survived the whitelists and the
``min_events`` prefilter of the stage graph, keyed by pair.  REDUCE
runs the core periodicity-detection algorithm on each pair's request
history; periodic pairs are emitted as
:class:`~repro.jobs.records.DetectionCase` records carrying the
CandidatePeriod list for the ranking and investigation phases.
"""

from __future__ import annotations

from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple,
)

from repro.core.batch import BatchedDetector
from repro.core.detector import DetectionResult, DetectorConfig, PeriodicityDetector
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary
from repro.jobs.records import DetectionCase
from repro.mapreduce.job import KeyValue, MapReduceJob
from repro.obs import span
from repro.obs.provenance import ProvenancePolicy


class BeaconingDetectionJob(MapReduceJob):
    """Filtered pair summaries -> detected beaconing cases.

    ``threshold_cache`` optionally ships a pre-warmed
    :class:`~repro.core.permutation.ThresholdCache` to every worker
    (the job is pickled into worker processes, cache included) so
    workers start from shared warm buckets instead of each re-deriving
    every bucket from scratch.  A dispatched task hands its copy's
    buckets back (:meth:`worker_state`), and the engine merges them
    into the caller's cache, so later tasks ship warmer and the sharded
    runner saves every bucket any process derived.  Without a cache,
    each process starts a cold one of its own.  The reduce phase runs
    all pairs of a partition through
    :class:`~repro.core.batch.BatchedDetector`, amortizing FFT/ACF
    dispatch across them.
    """

    def __init__(
        self,
        detector_config: Optional[DetectorConfig] = None,
        *,
        threshold_cache: Optional[ThresholdCache] = None,
        provenance_policy: Optional[ProvenancePolicy] = None,
        provenance_pairs: FrozenSet[Tuple[str, str]] = frozenset(),
    ) -> None:
        self.detector_config = detector_config or DetectorConfig(seed=0)
        self.threshold_cache = threshold_cache
        #: When set, non-periodic results the provenance policy wants
        #: (sampled pairs, detection near-misses, and the explicitly
        #: requested ``provenance_pairs``) are also emitted, so the
        #: caller can reconstruct full verdict chains without re-running
        #: detection.  Both are picklable and ship to workers.
        self.provenance_policy = provenance_policy
        self.provenance_pairs = frozenset(provenance_pairs)
        self._detector: Optional[PeriodicityDetector] = None

    def _ships_result(
        self, source: str, destination: str, result: DetectionResult
    ) -> bool:
        """Should this (possibly non-periodic) result leave the worker?"""
        if result.periodic:
            return True
        policy = self.provenance_policy
        if policy is None:
            return False
        if (source, destination) in self.provenance_pairs:
            return True
        if policy.pair_sampled(source, destination):
            return True
        return policy.margin_near_miss(
            result.spectral_margin, result.power_threshold
        )

    def _get_detector(self) -> PeriodicityDetector:
        """Build the detector lazily (once per worker process)."""
        if self._detector is None:
            cache = self.threshold_cache
            self._detector = PeriodicityDetector(
                self.detector_config,
                threshold_cache=ThresholdCache() if cache is None else cache,
            )
        return self._detector

    def __getstate__(self) -> dict:
        """Drop the per-process detector when pickling to workers."""
        state = dict(self.__dict__)
        state["_detector"] = None
        return state

    def worker_state(self) -> Optional[Dict[Tuple[int, int], float]]:
        """The worker copy's threshold buckets: those it was shipped
        with, plus those its task derived."""
        cache = self.threshold_cache
        return None if cache is None else cache.buckets()

    def merge_worker_state(
        self, state: Optional[Dict[Tuple[int, int], float]]
    ) -> None:
        """Warm the caller's cache with a worker copy's buckets."""
        if state and self.threshold_cache is not None:
            self.threshold_cache.merge(state)

    def reduce(
        self, key: Tuple[str, str], values: Iterable[ActivitySummary]
    ) -> Iterator[KeyValue]:
        """Detect one pair's history: a partition of one key group."""
        return self.reduce_partition([(key, values)])

    def reduce_partition(
        self, grouped: Iterable[Tuple[Any, Iterable[ActivitySummary]]]
    ) -> Iterator[KeyValue]:
        """Detect all pairs of the partition in one batched call.

        The partition's summaries are flattened (preserving group
        order) and run through the shape-grouped batched kernels under
        a ``detect`` span — inside a worker process the span record
        ships back to the engine with its parent link, which is how
        worker-side detection time shows up in the merged trace tree.
        Quarantine fallback still works: a failing partition is split
        into single-group units, each of which re-enters here as a
        partition of one group.
        """
        flat: List[Tuple[Any, ActivitySummary]] = [
            (key, value) for key, values in grouped for value in values
        ]
        if not flat:
            return
        with span("detect"):
            results = BatchedDetector(self._get_detector()).detect_summaries(
                [summary for _key, summary in flat]
            )
        for (key, summary), result in zip(flat, results):
            if self._ships_result(summary.source, summary.destination, result):
                yield key, DetectionCase(summary=summary, detection=result)
