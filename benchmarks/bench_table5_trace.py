"""Table V + Section VIII-B2 headline — the long-trace daily operation.

The paper runs BAYWATCH daily over a 5-month trace: ~26 suspicious
cases reported per day, 2,352 distinct destinations flagged in total,
96% of the 50 top-ranked destinations confirmed malicious, detected
periods ranging from 30 s to 929 s, several destinations with many
distinct clients (Table V), plus a handful of confirmed-benign false
positives (streaming/sports sites).

We replay the protocol on a sequence of synthetic daily windows with a
persistent novelty store, rank all reported destinations, and confirm
against the intel oracle.
"""

import pytest

from benchmarks.common import ExperimentReport, check
from benchmarks.workloads import (
    DAY,
    IMPLANT_MIXES,
    pipeline_config,
    simulate_window,
)
from repro.analysis.intel import IntelOracle
from repro.filtering import BaywatchPipeline, NoveltyStore
from repro.ml.metrics import precision_at_k

N_DAYS = 6


@pytest.fixture(scope="module")
def daily_run():
    novelty = NoveltyStore()
    all_ranked = []
    daily_counts = []
    oracles = []
    for day in range(N_DAYS):
        records, truth = simulate_window(
            5000 + day,
            duration=DAY / 4,
            implants=IMPLANT_MIXES[day % len(IMPLANT_MIXES)],
        )
        pipeline = BaywatchPipeline(
            pipeline_config(percentile=0.5), novelty=novelty
        )
        report = pipeline.run_records(records)
        all_ranked.extend(report.ranked_cases)
        daily_counts.append(len(report.ranked_cases))
        oracles.append(IntelOracle(truth))

    def confirmed(destination: str) -> int:
        return max(oracle.label(destination) for oracle in oracles)

    all_ranked.sort(key=lambda case: case.rank_score, reverse=True)
    return all_ranked, daily_counts, confirmed


def test_table5_long_trace(benchmark, daily_run):
    ranked, daily_counts, confirmed = daily_run
    benchmark(lambda: sorted(ranked, key=lambda c: c.rank_score, reverse=True))

    labels = [confirmed(case.destination) for case in ranked]
    top_k = min(10, len(ranked))
    p_at_k = precision_at_k(labels, top_k)

    report = ExperimentReport(
        "table5", "Daily operation over a multi-window trace"
    )
    report.line(f"daily reported-case counts: {daily_counts}")
    report.line(f"total reported destinations: {len(ranked)}")
    for day, count in enumerate(daily_counts):
        report.metric("daily_reported_cases", count, "count", day=day)
    report.metric("reported_destinations", len(ranked), "count")
    report.metric("precision_at_k", p_at_k, "ratio", k=top_k)
    report.line()
    report.line("top-ranked cases (Table V format):")
    report.table(
        ("rank", "domain", "smallest period (s)", "clients", "confirmed"),
        [
            (
                rank,
                case.destination,
                f"{case.smallest_period:.0f}",
                case.similar_sources,
                "yes" if confirmed(case.destination) else "no",
            )
            for rank, case in enumerate(ranked[:top_k], 1)
        ],
    )

    confirmed_top = [case for case in ranked[:top_k]
                     if confirmed(case.destination)]
    periods = [case.smallest_period for case in confirmed_top]
    multi_client = [case for case in confirmed_top if case.similar_sources > 1]
    report.paper_vs_measured(
        [
            (
                "96% of top-ranked destinations confirmed malicious",
                f"precision@{top_k} = {p_at_k:.2f}",
                check(p_at_k >= 0.8),
            ),
            (
                "confirmed periods span a wide range (paper: 30-929 s)",
                f"{min(periods):.0f}-{max(periods):.0f} s",
                check(max(periods) / max(min(periods), 1e-9) > 3),
            ),
            (
                "multi-client destinations among the confirmed (paper: up "
                "to 19-20 clients)",
                f"{len(multi_client)} destinations with >1 client",
                check(len(multi_client) >= 1),
            ),
            (
                "a manageable number of cases per day (paper: ~26)",
                f"mean {sum(daily_counts) / len(daily_counts):.1f}/day",
                check(0 < sum(daily_counts) / len(daily_counts) < 60),
            ),
        ]
    )
    text = report.finish()
    assert p_at_k >= 0.8
    assert "NO" not in text
