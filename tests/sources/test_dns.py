"""Tests for the DNS log source."""

import numpy as np
import pytest

from repro.core import DetectorConfig, PeriodicityDetector
from repro.sources.dns import (
    DnsLogRecord,
    dns_records_to_summaries,
    dns_view_of_proxy,
)
from repro.sources.proxy import LogFormatError
from repro.synthetic import BeaconSpec, ProxyLogRecord


def proxy_beacon(period=60.0, count=100, destination="evil.com", mac="mac1"):
    return [
        ProxyLogRecord(i * period, mac, "10.0.0.1", destination, "/gate")
        for i in range(count)
    ]


class TestDnsRecord:
    def test_roundtrip(self):
        record = DnsLogRecord(1.5, "client1", "www.example.com", "AAAA")
        assert DnsLogRecord.from_line(record.to_line()) == record
        line = "86399.250\tclient1\tcdn.x.com\tAAAA"
        assert DnsLogRecord.from_line(line + "\n").to_line() == line

    def test_malformed_rejected(self):
        stamps = ("abc", "nan", "inf", "-inf", "")
        names = ("", ".", "..", " ", " . ")
        for line in ("a\tb", "1.5\tclient1\tx.com\tA\textra", *(
            f"{stamp}\tclient1\tx.com\tA" for stamp in stamps
        ), *(f"1.5\tclient1\t{name}\tA" for name in names)):
            with pytest.raises(LogFormatError, match="malformed DNS") as info:
                DnsLogRecord.from_line(line)
            assert repr(line) in str(info.value)


class TestDnsSummaries:
    def test_groups_by_registered_domain(self):
        records = [
            DnsLogRecord(0.0, "c1", "a.evil.com"),
            DnsLogRecord(60.0, "c1", "b.evil.com"),
            DnsLogRecord(120.0, "c1", "c.evil.com"),
        ]
        summaries = dns_records_to_summaries(records)
        assert len(summaries) == 1
        assert summaries[0].destination == "evil.com"
        assert summaries[0].intervals.tolist() == [60.0, 60.0]
        assert summaries[0].intervals.dtype == np.float64
        assert not summaries[0].intervals.flags.writeable

    def test_exact_name_grouping(self):
        records = [
            DnsLogRecord(0.0, "c1", "a.evil.com"),
            DnsLogRecord(60.0, "c1", "b.evil.com"),
        ]
        summaries = dns_records_to_summaries(
            records, group_by_registered_domain=False
        )
        assert len(summaries) == 2


class TestDnsView:
    def test_caching_suppresses_queries(self):
        records = proxy_beacon(period=60.0, count=100)
        dns = dns_view_of_proxy(records, ttl=300.0)
        # Only every 5th request (300 / 60) triggers a lookup.
        assert len(dns) == pytest.approx(20, abs=2)

    def test_short_ttl_sees_everything(self):
        records = proxy_beacon(period=60.0, count=50)
        dns = dns_view_of_proxy(records, ttl=1.0)
        assert len(dns) == 50

    def test_shared_resolver_aggregates(self):
        records = proxy_beacon(mac="mac1") + proxy_beacon(mac="mac2")
        dns = dns_view_of_proxy(records, ttl=1.0, shared_resolver="resolver1")
        clients = {r.client for r in dns}
        assert clients == {"resolver1"}
        # Aggregation + caching: the resolver view has fewer queries
        # than the union of per-client views.
        cached = dns_view_of_proxy(records, ttl=300.0,
                                   shared_resolver="resolver1")
        assert len(cached) < len(dns)

    def test_beaconing_survives_the_dns_view(self):
        """A beacon slower than the TTL is still detectable in DNS."""
        records = [
            ProxyLogRecord(float(t), "mac1", "10.0.0.1", "evil.com", "/g")
            for t in np.arange(0.0, 86_400.0, 900.0)  # 15-minute beacon
        ]
        dns = dns_view_of_proxy(records, ttl=300.0)
        summaries = dns_records_to_summaries(dns)
        detector = PeriodicityDetector(DetectorConfig(seed=0))
        result = detector.detect_summary(summaries[0])
        assert result.periodic
        assert result.dominant_period == pytest.approx(900.0, rel=0.05)
