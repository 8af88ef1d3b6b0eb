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

The cluster's premise, that another worker adds throughput, is gated
here too: one 512-pair batched detection job (warm shared threshold
cache, GMM screen off) runs on the engine inline and on a 2-process
pool, and on hosts with two or more usable cores the pool must at
least match the inline path.  A 1-core host prints the ratio and
skips the assertion.
"""

import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.common import ExperimentReport, check
from benchmarks.workloads import DAY, IMPLANT_MIXES, pipeline_config, simulate_window
from repro.core.detector import DetectorConfig
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary
from repro.filtering import BaywatchPipeline
from repro.jobs.detection import BeaconingDetectionJob
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


def _detection_workload(n_pairs, *, beacon_fraction=0.05, seed=42):
    """Seeded enterprise-shaped pair set: mostly noise, a few beacons.

    Beacon periods span 60-600 s with 3% jitter over one day; noise
    pairs are sparse uniform traffic.
    """
    rng = np.random.default_rng(seed)
    summaries = []
    for index in range(n_pairs):
        if rng.random() < beacon_fraction:
            period = float(rng.uniform(60.0, 600.0))
            count = int(DAY / period)
            ts = np.cumsum(rng.normal(period, period * 0.03, size=count))
            ts = ts[(ts > 0) & (ts < DAY)]
        else:
            ts = np.sort(
                rng.uniform(0, DAY, size=int(rng.integers(5, 120)))
            )
        summaries.append(
            ActivitySummary.from_timestamps(
                f"host-{index}", f"dest-{index % 37}", ts, time_scale=30.0
            )
        )
    return summaries


def _threshold_grid(summaries, config):
    """The ``(n_slots, n_ones)`` grid a workload's detection will probe.

    Walks each pair's scale ladder as ``PeriodicityDetector`` does and
    estimates the binned shape per rung; an estimate only has to land
    in the right bucket, and any miss fills lazily.
    """
    grid = set()
    for summary in summaries:
        ts = np.asarray(summary.timestamps())
        if ts.size < 4 or ts[-1] == ts[0]:
            continue
        duration = float(ts[-1] - ts[0])
        scale = summary.time_scale
        for _ in range(config.max_scales):
            n_slots = int(np.floor(duration / scale)) + 1
            if n_slots < config.min_slots:
                break
            grid.add((n_slots, int(min(ts.size, n_slots))))
            scale *= config.scale_factor
    return grid


def _usable_cores():
    """Cores this process may run on (its CPU affinity where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes_vs_serial():
    """``processes_2`` over ``serial`` throughput on one detection job.

    Each arm runs one warmup and three timed runs; the ratio is of the
    arms' mean seconds.
    """
    summaries = _detection_workload(512)
    config = DetectorConfig(seed=0, use_gmm=False)
    warm_cache = ThresholdCache()
    warm_cache.precompute(_threshold_grid(summaries, config))
    job = BeaconingDetectionJob(config, threshold_cache=warm_cache)
    inputs = [(summary.pair, summary) for summary in summaries]

    def mean_seconds(executor, n_workers):
        with MapReduceEngine(
            n_workers=n_workers, executor=executor, min_parallel_records=64
        ) as engine:
            engine.run(job, inputs)
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                engine.run(job, inputs)
                samples.append(time.perf_counter() - start)
        return statistics.fmean(samples)

    serial = mean_seconds("serial", 1)
    return serial / mean_seconds("processes", 2)


def test_process_pool_keeps_pace_with_serial(benchmark, capsys):
    """Two worker processes at least match inline detection.

    The 1.0x floor sits below every ratio measured on a shared 2-CPU
    VM (1.07x-2.25x over 28 runs of this workload).
    """
    ratio = benchmark.pedantic(_processes_vs_serial, rounds=1, iterations=1)
    cores = _usable_cores()
    with capsys.disabled():
        print(f"\nprocesses_2 vs serial throughput: {ratio:.2f}x "
              f"on {cores} usable core(s)")
        if cores < 2:
            print("process-scaling assertion skipped: a second worker "
                  "process has no second core to run on")
    if cores >= 2:
        assert ratio >= 1.0, (
            f"process backend below the 1.0x floor on {cores} cores: "
            f"{ratio:.2f}x"
        )
