"""Unit tests for the proxy-log records in repro.sources.proxy."""

import numpy as np
import pytest

from repro.sources.proxy import (
    ProxyLogRecord,
    read_log,
    records_to_summaries,
    write_log,
)


@pytest.fixture
def sample_records():
    return [
        ProxyLogRecord(0.0, "mac1", "10.0.0.1", "a.com", "/x", 200, 100),
        ProxyLogRecord(60.0, "mac1", "10.0.0.1", "a.com", "/y", 200, 150),
        ProxyLogRecord(120.0, "mac1", "10.0.0.1", "a.com", "/z", 200, 90),
        ProxyLogRecord(5.0, "mac2", "10.0.0.2", "b.com", "/", 404, 0),
    ]


class TestSerialization:
    def test_roundtrip_line(self):
        record = ProxyLogRecord(1.5, "mac", "1.2.3.4", "x.com", "/p?q=1", 200, 42)
        assert ProxyLogRecord.from_line(record.to_line()) == record

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            ProxyLogRecord.from_line("only\tthree\tfields")

    def test_write_read_roundtrip(self, sample_records, tmp_path):
        path = tmp_path / "log.tsv"
        count = write_log(sample_records, path)
        assert count == 4
        back = list(read_log(path))
        assert back == sample_records

    def test_gzip_roundtrip(self, sample_records, tmp_path):
        path = tmp_path / "log.tsv.gz"
        write_log(sample_records, path, compress=True)
        assert list(read_log(path)) == sample_records


class TestRecordsToSummaries:
    def test_grouping_by_pair(self, sample_records):
        summaries = records_to_summaries(sample_records)
        assert len(summaries) == 2
        pairs = {s.pair for s in summaries}
        assert pairs == {("mac1", "a.com"), ("mac2", "b.com")}

    def test_intervals_computed(self, sample_records):
        summaries = records_to_summaries(sample_records)
        by_pair = {s.pair: s for s in summaries}
        intervals = by_pair[("mac1", "a.com")].intervals
        assert intervals.tolist() == [60.0, 60.0]
        assert intervals.dtype == np.float64 and not intervals.flags.writeable

    def test_urls_captured(self, sample_records):
        summaries = records_to_summaries(sample_records)
        by_pair = {s.pair: s for s in summaries}
        assert by_pair[("mac1", "a.com")].urls == ("/x", "/y", "/z")

    def test_urls_capped(self):
        records = [
            ProxyLogRecord(float(i), "m", "ip", "d.com", f"/{i}") for i in range(100)
        ]
        summaries = records_to_summaries(records, max_urls_per_pair=10)
        assert len(summaries[0].urls) == 10

    def test_urls_dropped_when_disabled(self, sample_records):
        summaries = records_to_summaries(sample_records, keep_urls=False)
        assert all(s.urls == () for s in summaries)

    def test_unsorted_records_sorted(self):
        records = [
            ProxyLogRecord(120.0, "m", "ip", "d.com", "/"),
            ProxyLogRecord(0.0, "m", "ip", "d.com", "/"),
            ProxyLogRecord(60.0, "m", "ip", "d.com", "/"),
        ]
        summaries = records_to_summaries(records)
        assert summaries[0].intervals.tolist() == [60.0, 60.0]
        assert summaries[0].intervals.dtype == np.float64
        assert not summaries[0].intervals.flags.writeable

    def test_deterministic_ordering(self, sample_records):
        a = records_to_summaries(sample_records)
        b = records_to_summaries(list(reversed(sample_records)))
        assert [s.pair for s in a] == [s.pair for s in b]
