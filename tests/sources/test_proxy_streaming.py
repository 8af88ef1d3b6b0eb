"""The record adapter (repro.sources.proxy) over the columnar fold.

It must match materialize-then-group semantics
(:func:`tests.sources.oracle.reference_summaries`) — same quantized
intervals, same capped URL sample with arrival-order tie-breaks, same
deterministic pair ordering — while the fold holds per-pair aggregates
and one chunk instead of the record stream (sub-linear memory).
"""

import tracemalloc

import numpy as np
import pytest

from repro.sources.columnar import ColumnarAccumulator, records_to_chunks
from repro.sources.proxy import ProxyLogRecord, records_to_summaries
from tests.sources.oracle import reference_summaries


def record(ts, mac="aa:bb", dest="c2.example.net", url="/"):
    return ProxyLogRecord(
        timestamp=ts, source_mac=mac, source_ip="10.0.0.1",
        destination=dest, url=url,
    )


def fold(records, chunk_size, **options):
    """A ColumnarAccumulator that observed ``records`` chunk by chunk."""
    accumulator = ColumnarAccumulator(**options)
    for chunk in records_to_chunks(records, chunk_size=chunk_size):
        accumulator.observe_chunk(chunk)
    return accumulator


@pytest.fixture
def mixed_records():
    rng = np.random.default_rng(3)
    records = []
    for host in range(4):
        for site in range(3):
            times = np.sort(rng.uniform(0.0, 3_600.0, size=40))
            for i, ts in enumerate(times):
                records.append(
                    record(
                        float(ts),
                        mac=f"mac{host}",
                        dest=f"site{site}.net",
                        url=f"/h{host}/s{site}/{i}",
                    )
                )
    rng.shuffle(records)
    return records


class TestStreamingEquivalence:
    def test_matches_reference_grouping(self, mixed_records):
        streamed = records_to_summaries(iter(mixed_records), time_scale=60.0)
        reference = reference_summaries(mixed_records, time_scale=60.0)
        assert streamed == reference

    def test_accepts_one_shot_iterator(self):
        records = (record(60.0 * i) for i in range(10))
        [summary] = fold(records, 3).summaries()
        assert summary.event_count == 10
        assert summary.intervals == tuple([60.0] * 9)

    def test_url_cap_keeps_earliest_by_arrival(self):
        # Same timestamp everywhere: the cap must keep the first-arriving
        # URLs, exactly like a stable sort over the materialized list,
        # also when the ties span chunks.
        records = [record(5.0, url=f"/u{i}") for i in range(20)]
        [summary] = fold(records, 4, max_urls_per_pair=6).summaries()
        assert summary.urls == tuple(f"/u{i}" for i in range(6))

    def test_accumulator_len_counts_pairs(self, mixed_records):
        accumulator = fold(mixed_records, 100)
        assert len(accumulator) == 12
        assert len(accumulator.summaries()) == 12


class TestSubLinearMemory:
    # Only the fold is measured: the summaries it returns hold one
    # interval per event, so building them grows with the record count.
    CHUNK_SIZE = 256

    def _peak_kb(self, records):
        tracemalloc.start()
        tracemalloc.reset_peak()
        fold(records, self.CHUNK_SIZE)
        _size, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 1024.0

    def test_peak_memory_grows_sublinearly_in_record_count(self):
        def build(factor):
            # Extra events land in already-seen one-second bins, so the
            # per-pair state is invariant while records scale by factor.
            return [
                record(minute * 60.0 + repeat / (factor + 1.0),
                       mac=f"m{host}", url=f"/p{repeat}")
                for host in range(4)
                for minute in range(400)
                for repeat in range(factor)
            ]

        base, scaled = build(1), build(4)
        assert self.CHUNK_SIZE < len(base)
        self._peak_kb(base)  # warm allocator/import noise out of the probe
        peak_1x = self._peak_kb(base)
        peak_4x = self._peak_kb(scaled)
        assert len(scaled) == 4 * len(base)
        assert peak_4x < 2.5 * peak_1x, (
            f"peak memory scaled with record count: {peak_1x:.0f} KiB at 1x "
            f"vs {peak_4x:.0f} KiB at 4x"
        )
