"""Data-extraction MapReduce job (paper Section VII-A).

MAP: each log record yields its communication pair as the key and the
``(timestamp, sequence, url)`` observation as the value (the sequence
is the input line number, preserving arrival order across the
shuffle); the engine's hash partitioner plays the role of the paper's
``H(s, d)``.

REDUCE: one pair's observations become an
:class:`~repro.core.timeseries.ActivitySummary` via
:func:`repro.sources.proxy.summary_from_observations`: a stable sort by
``(timestamp, sequence)``, then the fold's slot rule and quantization,
so the summaries (capped URL sample included) are bit-identical to the
columnar fold's over the same records.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple

from repro.mapreduce.job import KeyValue, MapReduceJob
from repro.sources.proxy import ProxyLogRecord, summary_from_observations
from repro.utils.validation import require, require_positive


class DataExtractionJob(MapReduceJob):
    """Raw proxy-log records -> per-pair ActivitySummaries."""

    def __init__(
        self,
        *,
        time_scale: float = 1.0,
        max_urls_per_pair: int = 64,
        n_partitions: int = 32,
    ) -> None:
        require_positive(time_scale, "time_scale")
        require(max_urls_per_pair >= 0, "max_urls_per_pair must be non-negative")
        self.time_scale = time_scale
        self.max_urls_per_pair = max_urls_per_pair
        self.n_partitions = n_partitions

    def map(self, key: Any, value: ProxyLogRecord) -> Iterator[KeyValue]:
        """``(line, record) -> ((source, destination), (ts, line, url))``."""
        yield (
            (value.source_mac, value.destination),
            (value.timestamp, key, value.url),
        )

    def reduce(
        self, key: Tuple[str, str], values: Iterable[Tuple[float, int, str]]
    ) -> Iterator[KeyValue]:
        """Fold one pair's observations into an ActivitySummary."""
        source, destination = key
        yield key, summary_from_observations(
            source,
            destination,
            values,
            time_scale=self.time_scale,
            max_urls=self.max_urls_per_pair,
        )
