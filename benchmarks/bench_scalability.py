"""Section VIII-B2 — runtime scalability of the MapReduce deployment.

The paper reports that runtime "mainly depended on the amount of data,
especially the number of connection pairs": weekend days with 3.3 M
pairs completed in 14 minutes, weekday days with 26 M pairs in 1 h 30 m
— an 7.9x pair increase costing a 6.4x runtime increase (sub-linear in
pairs), and the whole 5-month corpus was processed in batch.

At laptop scale we measure the same relationship end to end, through
the pipeline with periodicity detection on the MapReduce engine: a
"weekend" workload vs a "weekday" workload with ~4x the connection
pairs, plus the parallel-engine behaviour that stands in for the
cluster.

The executor-dispatch side of this experiment is promoted into the CI
bench harness as ``repro bench --suite scalability``
(:func:`repro.obs.bench_suites.build_scalability_suite`): one batched
detection workload priced under serial / threads / processes, gated in
perf-smoke against ``BENCH_scalability.json``.  This module keeps the
paper-facing pairs-vs-runtime experiment; the suite owns the
backend-vs-backend numbers.
"""

import time

import pytest

from benchmarks.common import ExperimentReport, check
from benchmarks.workloads import DAY, IMPLANT_MIXES, pipeline_config, simulate_window
from repro.filtering import BaywatchPipeline
from repro.mapreduce import MapReduceEngine


def _workload(seed, n_hosts, sites_per_host):
    from repro.synthetic.enterprise import EnterpriseConfig, EnterpriseSimulator

    config = EnterpriseConfig(
        n_hosts=n_hosts,
        n_sites=120,
        duration=DAY / 4,
        sites_per_host=sites_per_host,
        implants=IMPLANT_MIXES[0],
        seed=seed,
    )
    return EnterpriseSimulator(config).generate()[0]


@pytest.fixture(scope="module")
def workloads():
    weekend = _workload(800, n_hosts=12, sites_per_host=(2, 5))
    weekday = _workload(801, n_hosts=45, sites_per_host=(4, 10))
    return weekend, weekday


def _run_once(records, n_workers=1):
    engine = MapReduceEngine(n_workers=n_workers, min_parallel_records=16)
    pipeline = BaywatchPipeline(pipeline_config(0.5), engine=engine)
    start = time.perf_counter()
    report = pipeline.run_records(records)
    elapsed = time.perf_counter() - start
    engine.close()
    pairs = len({(r.source_mac, r.destination) for r in records})
    return elapsed, pairs, report


def test_scalability_pairs_vs_runtime(benchmark, workloads):
    weekend, weekday = workloads
    weekend_time, weekend_pairs, _ = _run_once(weekend)
    # Record the heavy run through the benchmark fixture (one round —
    # the comparison below uses its own wall-clock measurements).
    weekday_time, weekday_pairs, _ = benchmark.pedantic(
        lambda: _run_once(weekday), rounds=1, iterations=1
    )

    pair_ratio = weekday_pairs / weekend_pairs
    time_ratio = weekday_time / weekend_time

    report = ExperimentReport(
        "scalability", "Runtime vs number of connection pairs"
    )
    report.table(
        ("workload", "pairs", "events", "runtime (s)"),
        [
            ("weekend", weekend_pairs, len(weekend), f"{weekend_time:.1f}"),
            ("weekday", weekday_pairs, len(weekday), f"{weekday_time:.1f}"),
        ],
    )
    report.line()
    report.line(f"pair ratio:    {pair_ratio:.1f}x "
                f"(paper: 26 M / 3.3 M = 7.9x)")
    report.line(f"runtime ratio: {time_ratio:.1f}x (paper: 90 / 14 = 6.4x)")
    report.paper_vs_measured(
        [
            (
                "runtime grows with connection pairs",
                f"{time_ratio:.1f}x for {pair_ratio:.1f}x pairs",
                check(time_ratio > 1.5),
            ),
            (
                "scaling is at most ~linear in pairs (paper: sub-linear)",
                f"time ratio {time_ratio:.1f} <= 1.5 * pair ratio "
                f"{pair_ratio:.1f}",
                check(time_ratio <= 1.5 * pair_ratio),
            ),
        ]
    )
    text = report.finish()
    assert time_ratio > 1.5
    assert time_ratio <= 1.5 * pair_ratio
    assert "NO" not in text


def test_scalability_parallel_consistency(benchmark, workloads):
    """Worker-pool execution must not change the analysis output."""
    weekend, _ = workloads
    _t1, _p1, serial = _run_once(weekend, n_workers=1)
    _t2, _p2, parallel = benchmark.pedantic(
        lambda: _run_once(weekend, n_workers=4), rounds=1, iterations=1
    )
    assert [c.destination for c in serial.ranked_cases] == [
        c.destination for c in parallel.ranked_cases
    ]
    assert {c.destination for c in serial.detected_cases} == {
        c.destination for c in parallel.detected_cases
    }
