"""Section VIII-B2 — per-pair detection throughput.

The paper's batch runtimes come down to per-pair analysis cost: 26 M
pairs in 90 minutes is ~4,800 pairs/second across the 13-node cluster
(~370 pairs/s per node, most pairs trivially short).  This bench pins
our per-pair costs so regressions are caught:

- short non-periodic pairs (the bulk of real traffic) must be cheap,
- a day-long 1-second-granularity beacon — the worst single-pair case —
  must stay well under a second with the threshold cache on.
"""

import statistics
import time

import numpy as np
import pytest

from benchmarks.common import ExperimentReport, check
from repro.core import DetectorConfig, PeriodicityDetector
from repro.core.permutation import ThresholdCache
from repro.synthetic import BeaconSpec, browsing_trace

DAY = 86_400.0


def _timed(benchmark, fn):
    """Run ``fn`` under ``benchmark`` and return (result, mean seconds).

    Each call is timed directly: ``benchmark.stats`` is None under
    ``--benchmark-disable``, where ``fn`` runs exactly once.
    """
    seconds = []

    def call():
        start = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - start)
        return out

    return benchmark(call), statistics.mean(seconds)


@pytest.fixture(scope="module")
def detector():
    det = PeriodicityDetector(
        DetectorConfig(seed=0), threshold_cache=ThresholdCache()
    )
    # Warm the threshold cache the way a production run would.
    rng = np.random.default_rng(0)
    det.detect(BeaconSpec(period=300.0, duration=DAY).generate(rng))
    det.detect(browsing_trace(DAY, rng, session_rate=3 / 3600.0))
    return det


def test_throughput_short_pairs(benchmark, detector):
    """A typical sparse browsing pair: tens of events."""
    rng = np.random.default_rng(1)
    traces = [
        browsing_trace(DAY, np.random.default_rng(seed),
                       session_rate=0.5 / 3600.0)
        for seed in range(20)
    ]
    traces = [t for t in traces if t.size >= 4]

    def run_all():
        return [detector.detect(t).periodic for t in traces]

    _result, stats_mean = _timed(benchmark, run_all)
    per_pair = stats_mean / max(len(traces), 1)

    report = ExperimentReport(
        "throughput_short", "Detection cost of sparse pairs"
    )
    report.metric("per_pair_seconds", per_pair, "s")
    report.metric("pairs_per_second", 1.0 / per_pair, "1/s")
    report.table(
        ("quantity", "value"),
        [
            ("pairs per batch", len(traces)),
            ("mean batch time", f"{stats_mean * 1e3:.1f} ms"),
            ("per-pair cost", f"{per_pair * 1e3:.2f} ms"),
            ("implied throughput", f"{1 / per_pair:.0f} pairs/s"),
        ],
    )
    report.paper_vs_measured(
        [
            (
                "bulk traffic pairs are cheap (enables millions/day)",
                f"{per_pair * 1e3:.2f} ms/pair",
                check(per_pair < 0.25),
            )
        ]
    )
    text = report.finish()
    assert per_pair < 0.25
    assert "NO" not in text


def test_throughput_dense_beacon(benchmark, detector):
    """The worst single pair: a dense day-long 1 s-granularity beacon."""
    rng = np.random.default_rng(2)
    trace = BeaconSpec(period=60.0, duration=DAY).generate(rng)
    result, mean = _timed(benchmark, lambda: detector.detect(trace))
    report = ExperimentReport(
        "throughput_dense", "Detection cost of the worst dense pair"
    )
    report.metric(
        "dense_pair_seconds", mean, "s", period=60.0, duration=DAY,
    )
    report.table(
        ("quantity", "value"),
        [("mean detect time", f"{mean * 1e3:.1f} ms")],
    )
    report.finish()
    assert result.periodic
    assert mean < 2.0
