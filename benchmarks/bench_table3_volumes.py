"""Table III — data volumes of web proxy logs.

The paper's corpus: 35.6 TB of BlueCoat logs (5.3 TB gzipped, ~6.7x
compression), 34.6 B events over six collection months, 53 M distinct
communication pairs per day on average.  We regenerate the table at
laptop scale: synthetic months produced by the enterprise simulator,
serialized in the same TSV format, with the same derived statistics —
events per month, raw and gzipped sizes, distinct pairs — plus the
extraction throughput that governs the paper's batch runtimes.
"""

import gzip
from pathlib import Path

import pytest

from benchmarks.common import ExperimentReport, check
from benchmarks.workloads import simulate_window, IMPLANT_MIXES, DAY
from repro.sources.proxy import records_to_summaries, write_log


@pytest.fixture(scope="module")
def months(tmp_path_factory):
    """Three scaled synthetic 'months' written as gzipped TSV logs."""
    root = tmp_path_factory.mktemp("volumes")
    out = []
    for index in range(3):
        records, _truth = simulate_window(
            7000 + index,
            n_hosts=40,
            duration=DAY / 2,
            implants=IMPLANT_MIXES[index % len(IMPLANT_MIXES)],
        )
        raw_path = root / f"month{index}.tsv"
        gz_path = root / f"month{index}.tsv.gz"
        write_log(records, raw_path)
        write_log(records, gz_path, compress=True)
        pairs = {(r.source_mac, r.destination) for r in records}
        out.append(
            dict(
                index=index,
                records=records,
                events=len(records),
                raw_bytes=raw_path.stat().st_size,
                gz_bytes=gz_path.stat().st_size,
                pairs=len(pairs),
            )
        )
    return out


def test_table3_data_volumes(benchmark, months):
    # The measured operation: extracting ActivitySummaries from one
    # month of records (the paper's Data Extraction phase input side).
    sample = months[0]["records"]
    summaries = benchmark(lambda: records_to_summaries(sample))

    report = ExperimentReport("table3", "Data volumes of synthetic proxy logs")
    report.table(
        ("month", "events", "raw size (KB)", "gzipped (KB)", "ratio",
         "distinct pairs"),
        [
            (
                m["index"],
                m["events"],
                f"{m['raw_bytes'] / 1024:.0f}",
                f"{m['gz_bytes'] / 1024:.0f}",
                f"{m['raw_bytes'] / m['gz_bytes']:.1f}x",
                m["pairs"],
            )
            for m in months
        ],
    )
    total_events = sum(m["events"] for m in months)
    total_raw = sum(m["raw_bytes"] for m in months)
    total_gz = sum(m["gz_bytes"] for m in months)
    report.line()
    report.line(
        f"total: {total_events} events, {total_raw / 1024:.0f} KB raw, "
        f"{total_gz / 1024:.0f} KB gzipped"
    )
    ratio = total_raw / total_gz
    events_per_pair = total_events / sum(m["pairs"] for m in months)
    report.paper_vs_measured(
        [
            (
                "gzip compresses proxy logs ~6.7x (35.6 TB -> 5.3 TB)",
                f"{ratio:.1f}x",
                check(4.0 <= ratio <= 15.0),
            ),
            (
                "events far outnumber pairs (34.6 B events, 53 M pairs/day)",
                f"{events_per_pair:.0f} events/pair",
                check(events_per_pair > 10),
            ),
            (
                "extraction yields one summary per pair",
                f"{len(summaries)} summaries vs {months[0]['pairs']} pairs",
                check(len(summaries) == months[0]["pairs"]),
            ),
        ]
    )
    text = report.finish()
    assert 4.0 <= ratio <= 15.0
    assert "NO" not in text
