"""NetFlow source (paper Section X).

NetFlow "only provides connection level information, i.e., no domain
names or additional content information": the communication pair is
(source IP, destination IP:port), the token filter has no URLs to look
at, and the language-model indicator does not apply — rank with
``RankingWeights(lm=0, lm_extreme_bonus=0)``.

- :class:`NetflowRecord` — one flow record,
- :func:`netflow_records_to_summaries` — per-pair summaries keyed by
  ``dst_ip:dst_port``,
- :func:`netflow_view_of_proxy` — derive a flow view from a proxy-log
  trace through a deterministic domain -> IP resolution.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.timeseries import ActivitySummary
from repro.sources.proxy import LogFormatError, ProxyLogRecord, parse_timestamp


@dataclass(frozen=True)
class NetflowRecord:
    """One (unidirectional) flow record."""

    timestamp: float
    src_ip: str
    dst_ip: str
    dst_port: int = 443
    protocol: str = "tcp"
    bytes_sent: int = 0
    packets: int = 1

    def to_line(self) -> str:
        """Serialize to a tab-separated log line."""
        return "\t".join(
            (
                f"{self.timestamp:.3f}", self.src_ip, self.dst_ip,
                str(self.dst_port), self.protocol,
                str(self.bytes_sent), str(self.packets),
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "NetflowRecord":
        """Parse a tab-separated log line.

        Raises :class:`~repro.sources.proxy.LogFormatError` naming the
        line when it does not hold exactly seven fields, its timestamp
        is not a finite number, or its port, byte or packet count is not
        an integer.
        """
        parts = line.rstrip("\n").split("\t")
        malformed = f"malformed NetFlow line: {line!r}"
        if len(parts) != 7:
            raise LogFormatError(malformed)
        return cls(
            timestamp=parse_timestamp(parts[0], malformed),
            src_ip=parts[1],
            dst_ip=parts[2],
            dst_port=_integer(parts[3], "dst_port", malformed),
            protocol=parts[4],
            bytes_sent=_integer(parts[5], "bytes_sent", malformed),
            packets=_integer(parts[6], "packets", malformed),
        )

    @property
    def destination(self) -> str:
        """The pair's destination endpoint, ``ip:port``."""
        return f"{self.dst_ip}:{self.dst_port}"


def _integer(text: str, name: str, malformed: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LogFormatError(
            f"{malformed}: {name} {text!r} is not an integer"
        ) from None


def netflow_records_to_summaries(
    records: Iterable[NetflowRecord],
    *,
    time_scale: float = 1.0,
) -> List[ActivitySummary]:
    """Group flows into per-(src_ip, dst_ip:port) activity summaries."""
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        grouped.setdefault(
            (record.src_ip, record.destination), []
        ).append(record.timestamp)
    summaries = [
        ActivitySummary.from_timestamps(
            src, dst, timestamps, time_scale=time_scale
        )
        for (src, dst), timestamps in grouped.items()
    ]
    summaries.sort(key=lambda s: s.pair)
    return summaries


def resolve_domain(domain: str, *, subnet: str = "203.0.113") -> str:
    """Deterministic fake resolution of a domain to a test-net IP.

    Stable across processes (CRC-based), so the same domain always maps
    to the same address — enough to correlate a flow view with its
    proxy view in experiments.
    """
    digest = zlib.crc32(domain.lower().encode("utf-8"))
    return f"{subnet}.{digest % 254 + 1}"


def netflow_view_of_proxy(
    records: Iterable[ProxyLogRecord],
    *,
    dst_port: int = 443,
) -> List[NetflowRecord]:
    """The flow-collector view of a proxy-log trace.

    Every request becomes one flow from the client's IP to the
    deterministically resolved destination IP; domain names and URLs are
    lost, exactly as with real NetFlow.
    """
    out = [
        NetflowRecord(
            timestamp=record.timestamp,
            src_ip=record.source_ip,
            dst_ip=resolve_domain(record.destination),
            dst_port=dst_port,
            bytes_sent=record.bytes_sent,
        )
        for record in records
    ]
    out.sort(key=lambda r: (r.timestamp, r.src_ip, r.dst_ip))
    return out
