"""Beaconing-detection MapReduce job (paper Section VII-D).

MAP: separates communication pairs (and drops whitelisted or trivially
short ones so reduce workers never see them).

REDUCE: runs the core periodicity-detection algorithm on each pair's
request history; periodic pairs are emitted as
:class:`~repro.jobs.records.DetectionCase` records carrying the
CandidatePeriod list for the ranking and investigation phases.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.core.batch import BatchedDetector
from repro.core.detector import DetectionResult, DetectorConfig, PeriodicityDetector
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary
from repro.jobs.records import DetectionCase
from repro.mapreduce.job import KeyValue, MapReduceJob
from repro.obs import span
from repro.obs.provenance import ProvenancePolicy
from repro.utils.validation import require


class BeaconingDetectionJob(MapReduceJob):
    """Filtered pair summaries -> detected beaconing cases.

    ``threshold_cache`` optionally ships a pre-warmed
    :class:`~repro.core.permutation.ThresholdCache` to every worker
    (the job is pickled into worker processes, cache included) so
    workers start from shared warm buckets instead of each re-deriving
    every bucket from scratch.  The reduce phase runs all pairs of a
    partition through :class:`~repro.core.batch.BatchedDetector`,
    amortizing FFT/ACF dispatch across them.

    **Arena mode** (:meth:`bind_arena`): instead of pickling every
    summary into every worker task, the caller packs the batch into a
    :class:`~repro.mapreduce.shm.SummaryArena` and feeds the engine
    ``(pair, index)`` inputs; workers attach to the shared segment via
    the handle pickled with the job and resolve indices to zero-copy
    :class:`~repro.mapreduce.shm.SummaryView` objects.  Results are
    bit-identical either way — views materialize back into real
    summaries only for the few cases that ship.
    """

    def __init__(
        self,
        detector_config: Optional[DetectorConfig] = None,
        *,
        skip_destinations: FrozenSet[str] = frozenset(),
        min_events: int = 4,
        use_threshold_cache: bool = True,
        threshold_cache: Optional[ThresholdCache] = None,
        n_partitions: int = 32,
        provenance_policy: Optional[ProvenancePolicy] = None,
        provenance_pairs: FrozenSet[Tuple[str, str]] = frozenset(),
    ) -> None:
        require(min_events >= 2, "min_events must be at least 2")
        self.detector_config = detector_config or DetectorConfig(seed=0)
        self.skip_destinations = frozenset(skip_destinations)
        self.min_events = min_events
        self.use_threshold_cache = use_threshold_cache
        self.threshold_cache = threshold_cache
        self.n_partitions = n_partitions
        #: When set, non-periodic results the provenance policy wants
        #: (sampled pairs, detection near-misses, and the explicitly
        #: requested ``provenance_pairs``) are also emitted, so the
        #: caller can reconstruct full verdict chains without re-running
        #: detection.  Both are picklable and ship to workers.
        self.provenance_policy = provenance_policy
        self.provenance_pairs = frozenset(provenance_pairs)
        self._detector: Optional[PeriodicityDetector] = None
        #: Set by :meth:`bind_arena`; a tiny picklable header that rides
        #: to workers in place of the summary payloads.
        self.arena_handle = None
        self._arena = None

    # -- shared-memory arena -----------------------------------------------

    def bind_arena(self, arena) -> None:
        """Resolve integer inputs against a shared-memory summary arena.

        The caller keeps ownership of the segment (and unlinks it after
        the run); this job only records the attachment handle and, for
        in-process execution, reuses the caller's mapping directly.
        """
        self._arena = arena
        self.arena_handle = arena.handle()

    def _get_arena(self):
        if self._arena is None and self.arena_handle is not None:
            from repro.mapreduce.shm import SummaryArena

            self._arena = SummaryArena.attach(self.arena_handle)
        return self._arena

    def _resolve(self, value):
        """An input value -> something summary-shaped (view or summary)."""
        if isinstance(value, int):
            return self._get_arena().view(value)
        return value

    @staticmethod
    def _materialize(summary) -> ActivitySummary:
        """A real :class:`ActivitySummary` for results leaving the worker."""
        if isinstance(summary, ActivitySummary):
            return summary
        return summary.materialize()

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
            cache: Optional[ThresholdCache] = None
            if self.use_threshold_cache:
                cache = (
                    self.threshold_cache
                    if self.threshold_cache is not None
                    else ThresholdCache()
                )
            self._detector = PeriodicityDetector(
                self.detector_config, threshold_cache=cache
            )
        return self._detector

    def __getstate__(self) -> dict:
        """Drop the per-process detector/arena when pickling to workers.

        The arena *handle* stays in the state — workers re-attach from
        it — but the mapping itself is process-local.
        """
        state = dict(self.__dict__)
        state["_detector"] = None
        state["_arena"] = None
        return state

    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        """Separate pairs; drop whitelisted and trivially short ones.

        In arena mode ``value`` is an integer index: filters run on the
        zero-copy view, but the *index* stays the shuffled value so
        reduce tasks pay no summary serialization either.
        """
        summary = self._resolve(value)
        if summary.destination in self.skip_destinations:
            return
        if summary.event_count < self.min_events:
            return
        yield summary.pair, value

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
        flat: List[Tuple[Any, Any]] = [
            (key, self._resolve(value))
            for key, values in grouped
            for value in values
        ]
        if not flat:
            return
        with span("detect"):
            results = BatchedDetector(self._get_detector()).detect_summaries(
                [summary for _key, summary in flat]
            )
        for (key, summary), result in zip(flat, results):
            if self._ships_result(summary.source, summary.destination, result):
                yield key, DetectionCase(
                    summary=self._materialize(summary), detection=result
                )
