"""Proxy-log records, pair keying and the slot rule.

The paper's raw input is BlueCoat ProxySG access logs stored in HDFS.
This module owns the proxy-log record format and the adapters around
the one fold:

- :class:`ProxyLogRecord` — one log line, with TSV (de)serialization
  (:func:`read_log` / :func:`write_log`, gzip-aware),
- :class:`LogFormatError` — the one error a malformed line, an
  unparsable number or a timestamp without a time slot raises,
- :class:`PairConfig` — which endpoint features key a communication
  pair (Table I),
- :func:`slot_column` — the slot rule every fold quantizes through,
- :func:`records_to_summaries` — the adapter for object records: it
  batches them into columnar chunks and folds them with
  :func:`repro.sources.columnar.summaries_from_chunks`, the only code
  that folds proxy-log events into summaries.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.utils.validation import require

__all__ = [
    "LogFormatError",
    "PairConfig",
    "ProxyLogRecord",
    "read_log",
    "records_to_summaries",
    "slot_column",
    "write_log",
]


class LogFormatError(ValueError):
    """A proxy log that cannot be folded into summaries.

    Raised for a line without exactly seven tab-separated fields, a
    numeric field that does not parse or a status or byte count out of
    its column's range (these name the line), and a timestamp that has
    no int64 time slot (naming the timestamp).
    """


#: Statuses are int32 in a columnar chunk: ``-STATUS_BOUND <= status <
#: STATUS_BOUND``.  Byte counts are int64.
STATUS_BOUND = 2**31

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
        """Parse a tab-separated log line.

        Raises :class:`LogFormatError` naming the line when it does not
        hold exactly seven fields, a numeric field does not parse, or a
        status or byte count does not fit its int32 or int64 column.
        """
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(_FIELDS):
            raise LogFormatError(f"malformed log line: {line!r}")
        try:
            record = cls(
                timestamp=float(parts[0]),
                source_mac=parts[1],
                source_ip=parts[2],
                destination=parts[3],
                url=parts[4],
                status=int(parts[5]),
                bytes_sent=int(parts[6]),
            )
        except ValueError as exc:
            raise LogFormatError(
                f"malformed log line: {line!r}: {exc}"
            ) from None
        for name, bound in (("status", STATUS_BOUND), ("bytes_sent", 2**63)):
            value = getattr(record, name)
            if not -bound <= value < bound:
                raise LogFormatError(
                    f"malformed log line: {line!r}: {name} {value} is "
                    f"out of range"
                )
        return record


# Time-slot indices are int64: ``_SLOT_MIN <= slot < _SLOT_END``.
_SLOT_MIN = -(2**63)
_SLOT_END = 2**63


def _timestamp_error(timestamp: float, time_scale: float) -> LogFormatError:
    """The error for a timestamp that has no int64 time slot."""
    timestamp = float(timestamp)
    if not math.isfinite(timestamp):
        return LogFormatError(f"timestamp {timestamp!r} is not finite")
    return LogFormatError(
        f"timestamp {timestamp!r} is out of range: its slot at "
        f"time_scale {float(time_scale)!r} does not fit int64"
    )


def slot_column(timestamps: np.ndarray, time_scale: float) -> np.ndarray:
    """The time slot ``floor(timestamp / time_scale)`` of every event.

    The slot rule: slots are int64, and the first timestamp that is not
    finite or whose slot does not fit int64 raises
    :class:`LogFormatError` naming it.
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
    as :func:`read_log` — and is consumed in one pass: it is cut into
    :class:`~repro.sources.columnar.RecordChunk` batches of at most
    ``chunk_size`` (65,536) records, which
    :func:`~repro.sources.columnar.summaries_from_chunks` folds one at a
    time.  Peak memory is therefore the per-pair state plus one chunk,
    not the record stream.

    ``aggregate_entities=True`` is shorthand for a pair config whose
    destination feature is the *registered* domain, so subdomain-fluxing
    C&C — whose per-FQDN pairs are sparse and aperiodic — reassembles
    into one beaconing pair (paper Challenge 2: a destination entity
    has many addresses).
    """
    # columnar imports this module, so its functions are looked up here.
    from repro.sources.columnar import records_to_chunks, summaries_from_chunks

    return summaries_from_chunks(
        records_to_chunks(records),
        time_scale=time_scale,
        keep_urls=keep_urls,
        max_urls_per_pair=max_urls_per_pair,
        aggregate_entities=aggregate_entities,
        pair_config=pair_config,
    )
