"""Tests for the NetFlow source."""

import pytest

from repro.core import DetectorConfig, PeriodicityDetector
from repro.sources.netflow import (
    NetflowRecord,
    netflow_records_to_summaries,
    netflow_view_of_proxy,
    resolve_domain,
)
from repro.sources.proxy import LogFormatError
from repro.synthetic import ProxyLogRecord


def proxy_beacon(period=60.0, count=200, destination="evil.com"):
    return [
        ProxyLogRecord(i * period, "mac1", "10.0.0.1", destination, "/g")
        for i in range(count)
    ]


def flow_line(index, value):
    """A well-formed flow line with field ``index`` set to ``value``."""
    fields = "1.0\t10.0.0.1\t203.0.113.7\t443\ttcp\t512\t4".split("\t")
    fields[index] = value
    return "\t".join(fields)


class TestNetflowRecord:
    def test_roundtrip(self):
        record = NetflowRecord(1.0, "10.0.0.1", "203.0.113.7", 443, "tcp", 512, 4)
        assert NetflowRecord.from_line(record.to_line()) == record
        line = flow_line(0, "1.000")
        assert NetflowRecord.from_line(line + "\n").to_line() == line

    def test_destination_endpoint(self):
        record = NetflowRecord(1.0, "10.0.0.1", "203.0.113.7", 8080)
        assert record.destination == "203.0.113.7:8080"

    def test_malformed_rejected(self):
        bad = {0: ("abc", "nan", "inf", "-inf", ""), 3: ("x", "1.5"),
               5: ("1.5", "many"), 6: ("1e3", "", "4\textra")}
        for line in ("1.0\tonly", *(
            flow_line(index, value) for index in bad for value in bad[index]
        )):
            with pytest.raises(LogFormatError, match="malformed NetFlow") as info:
                NetflowRecord.from_line(line)
            assert repr(line) in str(info.value)


class TestResolveDomain:
    def test_deterministic(self):
        assert resolve_domain("evil.com") == resolve_domain("evil.com")

    def test_case_insensitive(self):
        assert resolve_domain("EVIL.com") == resolve_domain("evil.com")

    def test_in_test_net(self):
        assert resolve_domain("x.com").startswith("203.0.113.")


class TestNetflowView:
    def test_one_flow_per_request(self):
        records = proxy_beacon(count=50)
        flows = netflow_view_of_proxy(records)
        assert len(flows) == 50

    def test_names_are_gone(self):
        flows = netflow_view_of_proxy(proxy_beacon(count=5))
        assert all(flow.dst_ip.startswith("203.0.113.") for flow in flows)

    def test_beaconing_survives_the_flow_view(self):
        flows = netflow_view_of_proxy(proxy_beacon(period=120.0, count=300))
        summaries = netflow_records_to_summaries(flows)
        assert len(summaries) == 1
        detector = PeriodicityDetector(DetectorConfig(seed=0))
        result = detector.detect_summary(summaries[0])
        assert result.periodic
        assert result.dominant_period == pytest.approx(120.0, rel=0.05)

    def test_pairs_keyed_by_ip_and_port(self):
        flows = [
            NetflowRecord(0.0, "10.0.0.1", "203.0.113.7", 443),
            NetflowRecord(1.0, "10.0.0.1", "203.0.113.7", 80),
        ]
        summaries = netflow_records_to_summaries(flows)
        assert len(summaries) == 2
