"""The record adapter and the extraction reduce (repro.sources.proxy).

Both must match materialize-then-group semantics
(:func:`tests.sources.oracle.reference_summaries`) — same quantized
intervals, same capped URL sample with arrival-order tie-breaks, same
deterministic pair ordering — while the fold holds per-pair aggregates
and one chunk instead of the record stream (sub-linear memory).
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeseries import ActivitySummary
from repro.jobs import DataExtractionJob
from repro.mapreduce.engine import MapReduceEngine
from repro.sources.columnar import ColumnarAccumulator, records_to_chunks
from repro.sources.proxy import (
    ProxyLogRecord,
    records_to_summaries,
    summary_from_observations,
)
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

    def test_extraction_job_matches_streaming(self, mixed_records):
        engine = MapReduceEngine()
        output = engine.run(
            DataExtractionJob(time_scale=60.0), enumerate(mixed_records)
        )
        job_summaries = sorted((s for _pair, s in output), key=lambda s: s.pair)
        assert job_summaries == reference_summaries(
            mixed_records, time_scale=60.0
        )

    def test_summary_from_observations_matches_from_timestamps(self):
        observations = [(7.2, 0, "/a"), (1.4, 1, "/b"), (1.4, 2, "/c")]
        summary = summary_from_observations(
            "mac", "dest", observations, time_scale=1.0, max_urls=2
        )
        expected = ActivitySummary.from_timestamps(
            "mac", "dest", [1.4, 1.4, 7.2], time_scale=1.0,
            urls=("/b", "/c"),
        )
        assert summary == expected

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 40), min_size=1, max_size=40),
        base=st.sampled_from([0.0, -0.0, -5e4, 1.7e9]),
        time_scale=st.sampled_from([1e-3, 0.25, 1.0, 60.0, 600.0]),
        max_urls=st.integers(0, 7),
        seed=st.integers(0, 2**16),
    )
    def test_reduce_body_matches_the_oracle_and_the_fold(
        self, steps, base, time_scale, max_urls, seed
    ):
        # Few distinct timestamps, so ties are common; step 0 keeps the
        # base itself, -0.0 included.  The shuffle is the engine's
        # shuffle, the sequence numbers arrival order.
        records = [
            record(base + step * 0.75 if step else base, url=f"/u{index}")
            for index, step in enumerate(steps)
        ]
        observations = [
            (rec.timestamp, index, rec.url) for index, rec in enumerate(records)
        ]
        random.Random(seed).shuffle(observations)
        summary = summary_from_observations(
            "aa:bb", "c2.example.net", observations,
            time_scale=time_scale, max_urls=max_urls,
        )
        config = {"time_scale": time_scale, "max_urls_per_pair": max_urls}
        assert [summary] == reference_summaries(records, **config)
        [folded] = records_to_summaries(records, **config)
        # Bit for bit, as the fold builds it: from_timestamps would keep
        # the sign of a -0.0 first timestamp, the fold's int slots do not.
        assert repr(summary) == repr(folded)


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
