"""DNS log source (paper Section X).

BAYWATCH's core only needs (source, destination, timestamp) triples, so
it "is applicable to other data sources such as DNS".  This module
provides the DNS side:

- :class:`DnsLogRecord` — one query log line,
- :func:`dns_records_to_summaries` — grouping into per-pair
  ActivitySummaries keyed by the *registered* domain (a bot's DGA
  churns subdomains; the registrable part is the channel),
- :func:`dns_view_of_proxy` — derive the DNS-server view of a proxy-log
  trace, modelling the two effects the paper calls out: resolver
  *caching* hides queries within the TTL window, and end hosts may sit
  behind a *local resolver* that aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.timeseries import ActivitySummary
from repro.lm.domains import registered_domain
from repro.sources.proxy import (
    LogFormatError, ProxyLogRecord, has_label, parse_timestamp,
)
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class DnsLogRecord:
    """One DNS query observed at a resolver."""

    timestamp: float
    client: str
    qname: str
    qtype: str = "A"

    def to_line(self) -> str:
        """Serialize to a tab-separated log line."""
        return "\t".join(
            (f"{self.timestamp:.3f}", self.client, self.qname, self.qtype)
        )

    @classmethod
    def from_line(cls, line: str) -> "DnsLogRecord":
        """Parse a tab-separated log line.

        Raises :class:`~repro.sources.proxy.LogFormatError` naming the
        line when it does not hold exactly four fields, its timestamp
        is not a finite number, or its query name has no label (see
        :func:`~repro.sources.proxy.has_label`).
        """
        parts = line.rstrip("\n").split("\t")
        malformed = f"malformed DNS log line: {line!r}"
        if len(parts) != 4:
            raise LogFormatError(malformed)
        timestamp = parse_timestamp(parts[0], malformed)
        if not has_label(parts[2]):
            raise LogFormatError(
                f"{malformed}: query name {parts[2]!r} has no label"
            )
        return cls(
            timestamp=timestamp,
            client=parts[1],
            qname=parts[2],
            qtype=parts[3],
        )


def dns_records_to_summaries(
    records: Iterable[DnsLogRecord],
    *,
    time_scale: float = 1.0,
    group_by_registered_domain: bool = True,
) -> List[ActivitySummary]:
    """Group DNS queries into per-(client, domain) activity summaries."""
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        name = (
            registered_domain(record.qname)
            if group_by_registered_domain
            else record.qname.lower()
        )
        grouped.setdefault((record.client, name), []).append(record.timestamp)
    summaries = [
        ActivitySummary.from_timestamps(
            client, name, timestamps, time_scale=time_scale
        )
        for (client, name), timestamps in grouped.items()
    ]
    summaries.sort(key=lambda s: s.pair)
    return summaries


def dns_view_of_proxy(
    records: Iterable[ProxyLogRecord],
    *,
    ttl: float = 300.0,
    shared_resolver: Optional[str] = None,
) -> List[DnsLogRecord]:
    """The resolver's view of a proxy-log trace.

    Each HTTP request triggers a DNS lookup **unless** the same client
    resolved the same name within the last ``ttl`` seconds (cache hit) —
    the paper's caveat that DNS "may not see every query due to
    caching".  With ``shared_resolver`` set, all clients appear as that
    one resolver (the aggregated regional-resolver view).
    """
    require_positive(ttl, "ttl")
    last_lookup: Dict[Tuple[str, str], float] = {}
    out: List[DnsLogRecord] = []
    for record in sorted(records, key=lambda r: r.timestamp):
        client = shared_resolver if shared_resolver else record.source_mac
        key = (client, record.destination)
        last = last_lookup.get(key)
        if last is not None and record.timestamp - last < ttl:
            continue
        last_lookup[key] = record.timestamp
        out.append(
            DnsLogRecord(
                timestamp=record.timestamp,
                client=client,
                qname=record.destination,
            )
        )
    return out
