"""Proxy-log records and streaming summary construction.

The paper's raw input is BlueCoat ProxySG access logs stored in HDFS.
This module owns the proxy-log data path end to end:

- :class:`ProxyLogRecord` — one log line, with TSV (de)serialization
  (:func:`read_log` / :func:`write_log`, gzip-aware),
- :class:`PairConfig` — which endpoint features key a communication
  pair (Table I),
- :class:`SummaryAccumulator` — *streaming* per-pair accumulation: an
  ``Iterable[ProxyLogRecord]`` folds incrementally into per-pair state
  (slot-count histograms plus a capped URL sample), so building
  :class:`~repro.core.timeseries.ActivitySummary` records never
  materializes the full record list.  This is the bounded-memory
  ingestion path shared by :class:`~repro.filtering.BaywatchPipeline`,
  the sharded :class:`~repro.jobs.BaywatchRunner`, and the CLI,
- :func:`records_to_summaries` — the grouping helper, now a thin
  wrapper over the accumulator,
- :func:`summary_from_observations` — the per-pair fold used by the
  data-extraction MapReduce job (Section VII-A), so the engine path and
  the streaming path produce bit-identical summaries.
"""

from __future__ import annotations

import gzip
import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.utils.validation import require, require_positive

__all__ = [
    "PairConfig",
    "ProxyLogRecord",
    "SummaryAccumulator",
    "read_log",
    "records_to_summaries",
    "slot_column",
    "slot_index",
    "summary_from_observations",
    "write_log",
]

_FIELDS = ("timestamp", "source_mac", "source_ip", "destination", "url", "status", "bytes_sent")

_SOURCE_FEATURES = ("mac", "ip")
_DESTINATION_FEATURES = ("domain", "registered_domain")


@dataclass(frozen=True)
class PairConfig:
    """Which endpoint features define a communication pair (Table I).

    The paper's evaluation keys pairs on (source MAC, destination
    domain): MACs survive DHCP churn where IPs do not, and domains
    survive C&C address rotation where IPs do not.  Other deployments
    key differently (no DHCP correlation available, entity-level
    aggregation wanted), so the choice is configuration:

    - ``source_feature``: ``"mac"`` (default) or ``"ip"``,
    - ``destination_feature``: ``"domain"`` (default) or
      ``"registered_domain"`` (entity aggregation for subdomain flux).
    """

    source_feature: str = "mac"
    destination_feature: str = "domain"

    def __post_init__(self) -> None:
        require(self.source_feature in _SOURCE_FEATURES,
                f"source_feature must be one of {_SOURCE_FEATURES}")
        require(self.destination_feature in _DESTINATION_FEATURES,
                f"destination_feature must be one of {_DESTINATION_FEATURES}")

    def source_of(self, record: "ProxyLogRecord") -> str:
        """The pair's source endpoint for this configuration."""
        return (
            record.source_mac
            if self.source_feature == "mac"
            else record.source_ip
        )

    def destination_of(self, record: "ProxyLogRecord") -> str:
        """The pair's destination endpoint for this configuration."""
        if self.destination_feature == "registered_domain":
            from repro.lm.domains import registered_domain

            return registered_domain(record.destination)
        return record.destination


@dataclass(frozen=True)
class ProxyLogRecord:
    """One web-proxy log line.

    ``source_mac`` is the DHCP-correlated device identity the paper
    prefers over IPs; ``destination`` is the requested domain; ``url``
    is the path+query component consumed by the token filter.
    """

    timestamp: float
    source_mac: str
    source_ip: str
    destination: str
    url: str = "/"
    status: int = 200
    bytes_sent: int = 0

    def to_line(self) -> str:
        """Serialize to a tab-separated log line."""
        return "\t".join(
            (
                f"{self.timestamp:.3f}",
                self.source_mac,
                self.source_ip,
                self.destination,
                self.url,
                str(self.status),
                str(self.bytes_sent),
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "ProxyLogRecord":
        """Parse a tab-separated log line."""
        parts = line.rstrip("\n").split("\t")
        require(len(parts) == len(_FIELDS), f"malformed log line: {line!r}")
        return cls(
            timestamp=float(parts[0]),
            source_mac=parts[1],
            source_ip=parts[2],
            destination=parts[3],
            url=parts[4],
            status=int(parts[5]),
            bytes_sent=int(parts[6]),
        )


# Time-slot indices are int64 on both data planes:
# ``_SLOT_MIN <= slot < _SLOT_END``.
_SLOT_MIN = -(2**63)
_SLOT_END = 2**63


def _timestamp_error(timestamp: float, time_scale: float) -> ValueError:
    """The error for a timestamp that has no int64 time slot."""
    timestamp = float(timestamp)
    if not math.isfinite(timestamp):
        return ValueError(f"timestamp {timestamp!r} is not finite")
    return ValueError(
        f"timestamp {timestamp!r} is out of range: its slot at "
        f"time_scale {float(time_scale)!r} does not fit int64"
    )


def slot_index(timestamp: float, time_scale: float) -> int:
    """The time slot ``floor(timestamp / time_scale)`` of one event.

    Raises :class:`ValueError` naming ``timestamp`` when it is not
    finite or its slot does not fit int64.
    """
    try:
        slot = math.floor(timestamp / time_scale)
    except (OverflowError, ValueError):
        raise _timestamp_error(timestamp, time_scale) from None
    if not _SLOT_MIN <= slot < _SLOT_END:
        raise _timestamp_error(timestamp, time_scale)
    return slot


def slot_column(timestamps: np.ndarray, time_scale: float) -> np.ndarray:
    """:func:`slot_index` of every timestamp in a column, as int64.

    The first timestamp without an int64 slot raises the error
    :func:`slot_index` raises for it.
    """
    slots = np.floor(timestamps / time_scale)
    # min and max propagate NaN, so two reductions screen the column.
    if slots.size and not (slots.min() >= _SLOT_MIN and slots.max() < _SLOT_END):
        fits = (slots >= _SLOT_MIN) & (slots < _SLOT_END)
        raise _timestamp_error(timestamps[np.argmin(fits)], time_scale)
    return slots.astype(np.int64)


def write_log(
    records: Iterable[ProxyLogRecord],
    path: Union[str, Path],
    *,
    compress: bool = False,
) -> int:
    """Write records as TSV lines (optionally gzipped); returns the count."""
    path = Path(path)
    opener = gzip.open if compress else open
    count = 0
    with opener(path, "wt", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_line())
            handle.write("\n")
            count += 1
    return count


def read_log(path: Union[str, Path]) -> Iterator[ProxyLogRecord]:
    """Stream records back from a (possibly gzipped) TSV log file."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield ProxyLogRecord.from_line(line)


class _PairState:
    """Streaming state of one communication pair.

    Instead of buffering raw records, the accumulator keeps a
    slot-index -> event-count histogram (the information the quantized
    interval list is derived from) and a bounded URL sample.  Memory is
    O(distinct time slots) per pair, so a higher request *rate* over a
    fixed window costs nothing extra — the property the ingestion bench
    demonstrates.
    """

    __slots__ = ("bins", "urls", "max_urls")

    def __init__(self, max_urls: int) -> None:
        self.bins: Dict[int, int] = {}
        self.max_urls = max_urls
        # Max-heap (via negated keys) of the ``max_urls`` earliest
        # (timestamp, arrival) observations, mirroring the historical
        # "stable-sort by timestamp, take the first k" behaviour.
        self.urls: List[Tuple[float, int, str]] = []

    def observe(self, slot: int, timestamp: float, sequence: int,
                url: Optional[str]) -> None:
        self.bins[slot] = self.bins.get(slot, 0) + 1
        if url is None or self.max_urls <= 0:
            return
        entry = (-timestamp, -sequence, url)
        if len(self.urls) < self.max_urls:
            heapq.heappush(self.urls, entry)
        elif entry > self.urls[0]:
            heapq.heapreplace(self.urls, entry)

    def finalize(
        self, source: str, destination: str, time_scale: float
    ) -> ActivitySummary:
        slots = np.fromiter(self.bins.keys(), dtype=np.int64,
                            count=len(self.bins))
        counts = np.fromiter(self.bins.values(), dtype=np.int64,
                             count=len(self.bins))
        order = np.argsort(slots)
        quantized = np.repeat(
            slots[order].astype(float) * time_scale, counts[order]
        )
        ordered = sorted(
            ((-ts, -seq, url) for ts, seq, url in self.urls)
        )
        return ActivitySummary(
            source=source,
            destination=destination,
            time_scale=time_scale,
            first_timestamp=float(quantized[0]),
            intervals=np.diff(quantized),
            urls=tuple(url for _ts, _seq, url in ordered),
        )


class SummaryAccumulator:
    """Fold a record stream into per-pair activity summaries.

    Feed observations one at a time (:meth:`observe_record` /
    :meth:`observe`) and collect the resulting
    :class:`~repro.core.timeseries.ActivitySummary` records with
    :meth:`summaries`.  The output is bit-identical to the historical
    sort-then-group implementation — timestamps are quantized to
    ``time_scale`` exactly as
    :meth:`~repro.core.timeseries.ActivitySummary.from_timestamps`
    does, and same-slot URL ties resolve in arrival order — but peak
    memory is bounded by distinct (pair, time slot) combinations rather
    than by the record count.
    """

    def __init__(
        self,
        *,
        time_scale: float = 1.0,
        keep_urls: bool = True,
        max_urls_per_pair: int = 64,
        aggregate_entities: bool = False,
        pair_config: Optional[PairConfig] = None,
    ) -> None:
        require_positive(time_scale, "time_scale")
        require(max_urls_per_pair >= 0, "max_urls_per_pair must be non-negative")
        if pair_config is None:
            pair_config = PairConfig(
                destination_feature=(
                    "registered_domain" if aggregate_entities else "domain"
                )
            )
        self.time_scale = time_scale
        self.pair_config = pair_config
        self._max_urls = max_urls_per_pair if keep_urls else 0
        self._pairs: Dict[Tuple[str, str], _PairState] = {}
        self._sequence = 0

    def __len__(self) -> int:
        """Number of distinct pairs accumulated so far."""
        return len(self._pairs)

    def observe_record(self, record: ProxyLogRecord) -> None:
        """Fold one proxy-log record into the per-pair state."""
        self.observe(
            self.pair_config.source_of(record),
            self.pair_config.destination_of(record),
            record.timestamp,
            record.url,
        )

    def observe(
        self,
        source: str,
        destination: str,
        timestamp: float,
        url: Optional[str] = None,
    ) -> None:
        """Fold one (source, destination, timestamp, url) observation."""
        key = (source, destination)
        state = self._pairs.get(key)
        if state is None:
            state = self._pairs[key] = _PairState(self._max_urls)
        slot = slot_index(timestamp, self.time_scale)
        state.observe(slot, timestamp, self._sequence, url)
        self._sequence += 1

    def summaries(self) -> List[ActivitySummary]:
        """Finalize every pair, ordered deterministically by pair."""
        return [
            self._pairs[key].finalize(key[0], key[1], self.time_scale)
            for key in sorted(self._pairs)
        ]


def records_to_summaries(
    records: Iterable[ProxyLogRecord],
    *,
    time_scale: float = 1.0,
    keep_urls: bool = True,
    max_urls_per_pair: int = 64,
    aggregate_entities: bool = False,
    pair_config: Optional[PairConfig] = None,
) -> List[ActivitySummary]:
    """Group a flat record stream into per-pair activity summaries.

    The default communication pair is (source MAC, destination domain),
    matching the paper's evaluation configuration; ``pair_config``
    selects other Table I feature combinations.  Pairs with a single
    request carry no interval information but are still emitted
    (downstream filters need the popularity signal).

    ``records`` may be any iterable — including a lazy generator such
    as :func:`read_log` — and is consumed in one streaming pass via
    :class:`SummaryAccumulator`, so peak memory is bounded by the
    per-pair state, not the record count.

    ``aggregate_entities=True`` is shorthand for a pair config whose
    destination feature is the *registered* domain, so subdomain-fluxing
    C&C — whose per-FQDN pairs are sparse and aperiodic — reassembles
    into one beaconing pair (paper Challenge 2: a destination entity
    has many addresses).
    """
    accumulator = SummaryAccumulator(
        time_scale=time_scale,
        keep_urls=keep_urls,
        max_urls_per_pair=max_urls_per_pair,
        aggregate_entities=aggregate_entities,
        pair_config=pair_config,
    )
    for record in records:
        accumulator.observe_record(record)
    return accumulator.summaries()


def summary_from_observations(
    source: str,
    destination: str,
    observations: Iterable[Tuple[float, int, str]],
    *,
    time_scale: float = 1.0,
    max_urls: int = 64,
) -> ActivitySummary:
    """Fold one pair's ``(timestamp, sequence, url)`` observations.

    This is the reduce-side body of the data-extraction MapReduce job:
    ``sequence`` is the record's global arrival index, so URL ties
    within one time slot resolve in arrival order exactly as the
    streaming path does — the engine front end and
    :func:`records_to_summaries` produce identical summaries.
    """
    state = _PairState(max_urls)
    for timestamp, sequence, url in observations:
        state.observe(
            slot_index(timestamp, time_scale), timestamp, sequence, url
        )
    require(state.bins, "observations must not be empty")
    return state.finalize(source, destination, time_scale)
