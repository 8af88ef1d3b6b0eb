"""Named benchmark suites for ``repro bench``.

Five suites cover the pipeline's cost structure:

- ``micro`` — the detector's hot paths in isolation: periodogram DFT
  (scalar and batched), permutation thresholding (cold and through the
  :class:`~repro.core.permutation.ThresholdCache`), ACF computation,
  candidate pruning, and the full per-pair ``detect`` call.  These are
  the per-pair costs that bound "millions of pairs per day".
- ``pipeline`` — the end-to-end 8-step funnel over one synthetic
  enterprise window (events/sec here is the headline ingest rate).
- ``detection_batch`` — the batched multi-pair detection loop
  (:mod:`repro.core.batch`) on a seeded 1k-pair workload, with and
  without a warm shared :class:`~repro.core.permutation.ThresholdCache`.
- ``scalability`` — one batched-FFT detection workload through the
  MapReduce engine under each local execution backend (serial inline
  and a 2-process pool), pricing dispatch overhead against a second
  core.
- ``ingestion`` — the proxy-log fold
  (:func:`repro.sources.columnar.summaries_from_chunks`) at 1x and 4x
  the record count over a fixed pair population; extra records land in
  already-seen time slots, so the fold's per-pair state is the same at
  both factors.  ``ingest.columnar_parse_4x`` puts the TSV parser in
  front of the fold: the whole phase-A path a backfill pays per log.

Workloads are deterministic (fixed seeds) and sized so the micro suite
finishes in seconds — small enough for a CI smoke job, large enough
that a 2x hot-path regression moves the numbers far beyond the gate
tolerance.  Everything expensive (simulation, LM training) happens at
suite *build* time so iterations measure only the code under test.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.obs.bench import Benchmark

__all__ = ["SUITES", "build_suite", "suite_names"]

DAY = 86_400.0


def _binary_signal(
    rng: np.random.Generator, n_slots: int, period: int
) -> np.ndarray:
    """A jittered binary beacon signal binned at 1 event / period."""
    signal = np.zeros(n_slots)
    slots = np.arange(0, n_slots, period)
    jitter = rng.integers(-1, 2, size=slots.size)
    slots = np.clip(slots + jitter, 0, n_slots - 1)
    signal[slots] = 1.0
    return signal


def build_micro_suite() -> List[Benchmark]:
    """Hot-path microbenches over the core detector steps."""
    from repro.core.autocorrelation import autocorrelation
    from repro.core.detector import DetectorConfig, PeriodicityDetector
    from repro.core.periodogram import batch_max_power, power_spectrum
    from repro.core.permutation import ThresholdCache, permutation_threshold
    from repro.core.pruning import prune_candidates
    from repro.synthetic.beacon import BeaconSpec
    from repro.synthetic.background import browsing_trace

    rng = np.random.default_rng(7)
    signals = [
        _binary_signal(rng, 1024, period)
        for period in (8, 13, 21, 34, 55, 89, 144, 233)
    ] * 4  # 32 signals
    batch = np.stack(signals)

    def run_power_spectrum() -> int:
        for signal in signals:
            power_spectrum(signal)
        return len(signals)

    def run_batch_max_power() -> int:
        batch_max_power(batch)
        return batch.shape[0]

    perm_signals = signals[:8]

    def run_permutation() -> int:
        perm_rng = np.random.default_rng(0)
        for signal in perm_signals:
            permutation_threshold(signal, permutations=20, rng=perm_rng)
        return len(perm_signals)

    cache = ThresholdCache()
    lookup_rng = np.random.default_rng(11)
    lookups = [
        (int(n), int(k))
        for n, k in zip(
            lookup_rng.integers(64, 4096, size=256),
            lookup_rng.integers(4, 64, size=256),
        )
    ]

    def run_threshold_cache() -> int:
        for n_slots, n_ones in lookups:
            cache.threshold(n_slots, n_ones)
        return len(lookups)

    acf_signals = [
        _binary_signal(rng, 4096, period) for period in (31, 67, 131, 257)
    ] * 4  # 16 signals

    def run_acf() -> int:
        for signal in acf_signals:
            autocorrelation(signal)
        return len(acf_signals)

    interval_rng = np.random.default_rng(3)
    interval_sets = [
        np.abs(interval_rng.normal(period, period * 0.05, size=200))
        for period in (60.0, 300.0, 900.0)
    ]
    candidate_periods = [30.0, 59.5, 60.0, 61.0, 120.0, 300.0, 905.0]

    def run_pruning() -> int:
        for intervals in interval_sets:
            prune_candidates(candidate_periods, intervals)
        return len(interval_sets) * len(candidate_periods)

    detector = PeriodicityDetector(
        DetectorConfig(seed=0), threshold_cache=ThresholdCache()
    )
    trace_rng = np.random.default_rng(5)
    sparse_traces = [
        trace
        for trace in (
            browsing_trace(
                DAY, np.random.default_rng(seed), session_rate=0.5 / 3600.0
            )
            for seed in range(8)
        )
        if trace.size >= 4
    ]
    dense_trace = BeaconSpec(period=120.0, duration=DAY).generate(trace_rng)

    def run_detect_sparse() -> int:
        for trace in sparse_traces:
            detector.detect(trace)
        return len(sparse_traces)

    def run_detect_beacon() -> int:
        detector.detect(dense_trace)
        return 1

    return [
        Benchmark("periodogram.power_spectrum", run_power_spectrum),
        Benchmark("periodogram.batch_max_power", run_batch_max_power),
        Benchmark("permutation.threshold", run_permutation),
        Benchmark("permutation.threshold_cache", run_threshold_cache),
        Benchmark("autocorrelation.acf", run_acf),
        Benchmark("pruning.prune_candidates", run_pruning),
        Benchmark("detector.detect_sparse_pairs", run_detect_sparse),
        Benchmark("detector.detect_dense_beacon", run_detect_beacon),
    ]


def build_pipeline_suite() -> List[Benchmark]:
    """End-to-end 8-step funnel over one synthetic enterprise window."""
    from repro.filtering.pipeline import BaywatchPipeline, PipelineConfig
    from repro.lm.domains import default_scorer
    from repro.synthetic.enterprise import EnterpriseConfig, EnterpriseSimulator

    config = EnterpriseConfig(
        n_hosts=12, n_sites=30, duration=2 * 3600.0, seed=5
    )
    records, _truth = EnterpriseSimulator(config).generate()
    scorer = default_scorer()  # train the LM once, outside the timing

    def run_pipeline() -> int:
        pipeline = BaywatchPipeline(
            PipelineConfig(
                local_whitelist_threshold=0.15, ranking_percentile=0.0
            ),
            scorer=scorer,
        )
        pipeline.run_records(records)
        return len(records)

    from repro.obs.provenance import ProvenancePolicy

    def run_pipeline_provenance() -> int:
        # Same funnel with decision provenance at the default sampling
        # policy: the delta against ``pipeline.run_records`` is the
        # provenance overhead, bounded at 5% by the acceptance gate.
        pipeline = BaywatchPipeline(
            PipelineConfig(
                local_whitelist_threshold=0.15,
                ranking_percentile=0.0,
                provenance=ProvenancePolicy(),
            ),
            scorer=scorer,
        )
        pipeline.run_records(records)
        return len(records)

    return [
        Benchmark("pipeline.run_records", run_pipeline),
        Benchmark("pipeline.run_records_provenance", run_pipeline_provenance),
    ]


def _ingestion_records(factor: int) -> List:
    """``factor`` events per pair per minute over a fixed pair set.

    Extra events land inside the *same* one-second time bin as the
    base event, so the fold's state (per-pair slot counts plus a capped
    URL sample) is identical across factors while the record count
    scales linearly.  The stream is time-ordered, as a real proxy log
    is — the shape the fold's single-sort fast path is built for.
    """
    from repro.sources.proxy import ProxyLogRecord

    records = []
    for host in range(8):
        for site in range(2):
            source = f"aa:bb:cc:00:00:{host:02x}"
            destination = f"svc{site}.example.net"
            for minute in range(750):
                for repeat in range(factor):
                    records.append(
                        ProxyLogRecord(
                            timestamp=minute * 60.0 + repeat / (factor + 1.0),
                            source_mac=source,
                            source_ip=f"10.0.0.{host + 1}",
                            destination=destination,
                            url=f"/poll?h={host}&r={repeat}",
                        )
                    )
    records.sort(key=lambda record: record.timestamp)
    return records


def build_ingestion_suite() -> List[Benchmark]:
    """The proxy-log fold at 1x and 4x record counts, and the parser.

    - ``ingest.columnar_fold_{1x,4x}`` — pre-built
      :class:`~repro.sources.columnar.RecordChunk` batches folded
      through :func:`~repro.sources.columnar.summaries_from_chunks`.
    - ``ingest.columnar_parse_4x`` — the 4x events as a TSV log, written
      once at build time, parsed by
      :func:`~repro.sources.columnar.read_log_chunks` and folded: the
      parse, intern and fold cost end to end.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.sources.columnar import (
        read_log_chunks,
        records_to_chunks,
        summaries_from_chunks,
    )
    from repro.sources.proxy import write_log

    base = _ingestion_records(1)
    scaled = _ingestion_records(4)
    base_chunks = list(records_to_chunks(base))
    scaled_chunks = list(records_to_chunks(scaled))
    log_dir = tempfile.mkdtemp(prefix="repro-bench-ingestion-")
    scaled_log = Path(log_dir) / "scaled.tsv"
    write_log(scaled, scaled_log)

    def run_columnar_1x() -> int:
        summaries_from_chunks(base_chunks)
        return len(base)

    def run_columnar_4x() -> int:
        summaries_from_chunks(scaled_chunks)
        return len(scaled)

    def run_parse_4x() -> int:
        summaries_from_chunks(read_log_chunks(scaled_log))
        return len(scaled)

    return [
        Benchmark("ingest.columnar_fold_1x", run_columnar_1x),
        Benchmark("ingest.columnar_fold_4x", run_columnar_4x),
        Benchmark(
            "ingest.columnar_parse_4x",
            run_parse_4x,
            cleanup=lambda: shutil.rmtree(log_dir, ignore_errors=True),
        ),
    ]


def _detection_workload(
    n_pairs: int = 1024, *, beacon_fraction: float = 0.05, seed: int = 42
) -> List:
    """Seeded enterprise-shaped pair set: mostly noise, a few beacons.

    The mix mirrors the paper's population (periodic pairs are rare at
    enterprise scale); beacon periods span 60-600 s with 3% jitter over
    one day, noise pairs are sparse uniform traffic.
    """
    from repro.core.timeseries import ActivitySummary

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
                f"host-{index}",
                f"dest-{index % 37}",
                ts,
                time_scale=30.0,
            )
        )
    return summaries


def _threshold_grid(summaries, config) -> set:
    """The ``(n_slots, n_ones)`` grid a workload's detection will probe.

    Walks each pair's scale ladder exactly as
    ``PeriodicityDetector._choose_scales`` does and estimates the binned
    shape per rung.  The estimate only has to land in the right
    geometric bucket — any residual misses fill lazily at full accuracy.
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


def build_detection_batch_suite() -> List[Benchmark]:
    """Batched detection on a 1k-pair workload, cold and warm.

    - ``detection.batched_cold`` — the shape-grouped kernels with a
      fresh cold :class:`~repro.core.permutation.ThresholdCache` per
      iteration.
    - ``detection.batched`` — kernels plus one precomputed warm shared
      cache (warmed at suite build time; warmth is the shareable,
      persistable artifact the runner ships to workers).
    - ``detection.batched_provenance`` — the warm batched path plus
      per-pair verdict-record derivation at the default provenance
      sampling policy (the bound on decision-provenance overhead).
    - ``detection.cache_precompute`` — cost of warming that cache from
      the workload grid (the one-time setup the warm path amortizes).

    All the detection variants produce bit-identical results; the GMM
    interval screen is disabled so the suite isolates the spectral path
    the kernels accelerate.
    """
    from repro.core.batch import BatchedDetector
    from repro.core.detector import DetectorConfig, PeriodicityDetector
    from repro.core.permutation import ThresholdCache

    summaries = _detection_workload(1024)
    config = DetectorConfig(seed=0, use_gmm=False)
    grid = _threshold_grid(summaries, config)

    def run_batched_cold() -> int:
        detector = PeriodicityDetector(
            config, threshold_cache=ThresholdCache()
        )
        BatchedDetector(detector).detect_summaries(summaries)
        return len(summaries)

    warm_cache = ThresholdCache()
    warm_cache.precompute(grid)

    def run_batched_warm() -> int:
        detector = PeriodicityDetector(config, threshold_cache=warm_cache)
        BatchedDetector(detector).detect_summaries(summaries)
        return len(summaries)

    def run_precompute() -> int:
        ThresholdCache().precompute(grid)
        return len(grid)

    from repro.obs.provenance import ProvenancePolicy
    from repro.stages import detection_verdicts

    policy = ProvenancePolicy()

    def run_batched_provenance() -> int:
        # Warm batched detection plus per-pair verdict derivation at the
        # default sampling policy — what a provenance-enabled executor
        # does per shard; delta vs ``detection.batched`` is the overhead.
        detector = PeriodicityDetector(config, threshold_cache=warm_cache)
        results = BatchedDetector(detector).detect_summaries(summaries)
        for summary, result in zip(summaries, results):
            detection_verdicts(
                summary.source, summary.destination, result, policy
            )
        return len(summaries)

    detection_metrics = lambda: {"pairs": 1024.0, "window_days": 1.0}  # noqa: E731
    return [
        Benchmark(
            "detection.batched_cold", run_batched_cold, metrics=detection_metrics
        ),
        Benchmark("detection.batched", run_batched_warm, metrics=detection_metrics),
        Benchmark(
            "detection.batched_provenance",
            run_batched_provenance,
            metrics=detection_metrics,
        ),
        Benchmark("detection.cache_precompute", run_precompute),
    ]


def build_scalability_suite() -> List[Benchmark]:
    """One batched-FFT detection workload under every local backend.

    The same 512-pair detection job (shape-grouped FFT/ACF kernels, one
    warm shared :class:`~repro.core.permutation.ThresholdCache`) runs
    through the MapReduce engine under each executor:

    - ``scalability.serial`` — the inline baseline;
    - ``scalability.processes_2`` — the process pool, which pays
      job/summary pickling per task in exchange for full isolation and
      a second core; the perf-smoke gate requires it to hold a floor
      ratio of ``serial`` events/sec on multi-core machines.

    Reports across backends are bit-identical (the parity suite owns
    that guarantee); this suite prices the dispatch mechanisms.  The
    multi-host shard queue is deliberately absent — its cost is
    filesystem round-trips, meaningless on a single-machine bench.
    """
    from repro.core.detector import DetectorConfig
    from repro.core.permutation import ThresholdCache
    from repro.jobs.detection import BeaconingDetectionJob
    from repro.mapreduce.engine import MapReduceEngine

    summaries = _detection_workload(512)
    config = DetectorConfig(seed=0, use_gmm=False)
    warm_cache = ThresholdCache()
    warm_cache.precompute(_threshold_grid(summaries, config))
    job = BeaconingDetectionJob(
        config,
        use_threshold_cache=True,
        threshold_cache=warm_cache,
    )
    inputs = [(summary.pair, summary) for summary in summaries]

    def bench(name: str, executor: str, n_workers: int) -> Benchmark:
        engine = MapReduceEngine(
            n_workers=n_workers,
            executor=executor,
            min_parallel_records=64,
        )

        def run() -> int:
            engine.run(job, inputs)
            return len(inputs)

        return Benchmark(
            f"scalability.{name}",
            run,
            cleanup=engine.close,
            metrics=lambda: {"pairs": float(len(inputs)), "window_days": 1.0},
        )

    return [
        bench("serial", "serial", 1),
        bench("processes_2", "processes", 2),
    ]


#: Suite name -> builder.  Builders are lazy: heavy imports and workload
#: construction happen only when a suite is actually requested.
SUITES: Dict[str, Callable[[], List[Benchmark]]] = {
    "micro": build_micro_suite,
    "pipeline": build_pipeline_suite,
    "ingestion": build_ingestion_suite,
    "detection_batch": build_detection_batch_suite,
    "scalability": build_scalability_suite,
}


def suite_names() -> List[str]:
    """All known suite names, sorted."""
    return sorted(SUITES)


def build_suite(name: str) -> List[Benchmark]:
    """Build the named suite's benchmarks (raises KeyError if unknown)."""
    try:
        builder = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown bench suite {name!r}; known: {', '.join(suite_names())}"
        ) from None
    return builder()
