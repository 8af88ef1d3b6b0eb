"""Parity and resume tests for the incremental detection executor.

The contract under test, across the ticks of a rolling window:

- the warm :class:`~repro.stages.IncrementalDetection` path never
  *adds* a detection over the cold full-window
  :class:`~repro.stages.InProcessDetection` run (the screen can only
  reject), and every true beacon the cold run reports comes back with
  identical candidate periods;
- on typical workloads the reports are exactly equal (the screen's
  grid-anchored spectra may drop a borderline coarse-rung false
  positive the event-anchored cold path keeps — the one documented
  divergence);
- a run resumed from persisted state reports exactly what an
  uninterrupted warm run reports.
"""

from typing import List

import numpy as np
import pytest

from repro.core.detector import DetectorConfig
from repro.core.permutation import ThresholdCache
from repro.core.timeseries import ActivitySummary, merge_rescaled
from repro.filtering.pipeline import PipelineConfig
from repro.stages import IncrementalDetection, InProcessDetection, StageContext

DAY = 86_400.0
TIME_SCALE = 600.0
WINDOW_DAYS = 5
N_DAYS = 8
N_PAIRS = 24
N_BEACONS = 3


def _day_summaries(seed: int) -> List[List[ActivitySummary]]:
    """Per-day summaries: a few slow beacons in sparse noise."""
    rng = np.random.default_rng(seed)
    span = N_DAYS * DAY
    per_pair = []
    for pair in range(N_PAIRS):
        if pair < N_BEACONS:
            period = 7200.0 + 1200.0 * pair
            count = int(span / period) + 1
            ts = np.cumsum(rng.normal(period, 5.0, size=count))
            ts = ts[(ts > 0) & (ts < span)]
        else:
            offsets = rng.uniform(0, DAY, size=(N_DAYS, 8))
            ts = np.sort(
                (offsets + np.arange(N_DAYS)[:, None] * DAY).ravel()
            )
        per_pair.append(ts)
    days = []
    for day in range(N_DAYS):
        start, end = day * DAY, (day + 1) * DAY
        days.append([
            ActivitySummary.from_timestamps(
                f"host-{pair:02d}",
                f"dest-{pair}.example.net",
                ts[(ts >= start) & (ts < end)],
                time_scale=TIME_SCALE,
            )
            for pair, ts in enumerate(per_pair)
        ])
    return days


def _window(days, end_day) -> List[ActivitySummary]:
    window = days[end_day - WINDOW_DAYS + 1 : end_day + 1]
    return [
        merge_rescaled(list(group), TIME_SCALE) for group in zip(*window)
    ]


def _context(cache: ThresholdCache) -> StageContext:
    return StageContext(
        config=PipelineConfig(
            detector=DetectorConfig(seed=0, use_gmm=False),
            incremental_detection=True,
        ),
        threshold_cache=cache,
    )


def _verdicts(results):
    """The report-relevant outcome per pair: pair plus its periods."""
    return {
        (
            summary.pair,
            tuple(round(c.period, 6) for c in result.candidates),
        )
        for summary, result in results
    }


def _is_beacon(verdict) -> bool:
    (source, _destination), _periods = verdict
    return source in {f"host-{i:02d}" for i in range(N_BEACONS)}


@pytest.fixture(scope="module")
def days():
    # Seed 0: a workload where warm and cold reports are exactly equal
    # on every tick (no borderline coarse-rung noise positives).
    return _day_summaries(seed=0)


class TestExecutorParity:
    def test_matches_cold_batched_reports_across_ticks(self, days):
        cold_context = _context(ThresholdCache())
        warm_context = _context(ThresholdCache())
        cold = InProcessDetection()
        warm = IncrementalDetection()
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            summaries = _window(days, end_day)
            cold_results, _ = cold(cold_context, summaries)
            warm_results, _ = warm(warm_context, summaries)
            assert _verdicts(warm_results) == _verdicts(cold_results)
        engine = warm.engine
        assert engine is not None
        assert engine.slides > 0  # the fast path actually ran
        assert engine.screened_out > 0  # and the screen did real work

    def test_never_adds_detections_and_keeps_beacons(self):
        # A seed with a borderline cold-only coarse-rung positive: the
        # screen may drop it, must keep every beacon, and must never
        # report a pair the cold path does not.
        days = _day_summaries(seed=1)
        cold_context = _context(ThresholdCache())
        warm_context = _context(ThresholdCache())
        cold = InProcessDetection()
        warm = IncrementalDetection()
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            summaries = _window(days, end_day)
            cold_verdicts = _verdicts(cold(cold_context, summaries)[0])
            warm_verdicts = _verdicts(warm(warm_context, summaries)[0])
            assert warm_verdicts <= cold_verdicts
            assert (
                {v for v in warm_verdicts if _is_beacon(v)}
                == {v for v in cold_verdicts if _is_beacon(v)}
            )

    def test_degrades_without_threshold_cache(self, days):
        context = _context(ThresholdCache())
        context.threshold_cache = None
        executor = IncrementalDetection()
        results, quarantined = executor(
            context, _window(days, WINDOW_DAYS - 1)
        )
        assert quarantined == []
        assert executor.engine is None  # fell back to plain in-process
        assert all(result.periodic for _summary, result in results)


class TestInterruptResume:
    def test_persisted_state_resumes_identically(self, days, tmp_path):
        state_path = tmp_path / "incremental-state.bin"

        # Continuous run: warm executor over every tick.
        continuous_context = _context(ThresholdCache())
        continuous = IncrementalDetection()
        continuous_results = None
        for end_day in range(WINDOW_DAYS - 1, N_DAYS):
            continuous_results, _ = continuous(
                continuous_context, _window(days, end_day)
            )

        # Interrupted run: same ticks, but the executor is torn down
        # and rebuilt from the persisted state before the final tick.
        first_context = _context(ThresholdCache())
        first = IncrementalDetection(state_path=state_path)
        for end_day in range(WINDOW_DAYS - 1, N_DAYS - 1):
            first(first_context, _window(days, end_day))
        assert state_path.exists()

        resumed_context = _context(ThresholdCache())
        resumed = IncrementalDetection(state_path=state_path)
        resumed_results, _ = resumed(
            resumed_context, _window(days, N_DAYS - 1)
        )
        assert _verdicts(resumed_results) == _verdicts(continuous_results)
        # The resumed engine slid warm states instead of rebuilding all.
        assert resumed.engine.slides > 0

    def test_mismatched_state_is_discarded_not_trusted(self, days, tmp_path):
        state_path = tmp_path / "incremental-state.bin"
        first = IncrementalDetection(state_path=state_path)
        first(_context(ThresholdCache()), _window(days, WINDOW_DAYS - 1))
        assert state_path.exists()

        # A run with a different detector configuration must reject the
        # persisted warm state and still produce the cold answer.
        other_config = PipelineConfig(
            detector=DetectorConfig(seed=0, use_gmm=False, min_acf_score=0.4),
            incremental_detection=True,
        )
        other_context = StageContext(
            config=other_config, threshold_cache=ThresholdCache()
        )
        resumed = IncrementalDetection(state_path=state_path)
        summaries = _window(days, WINDOW_DAYS - 1)
        warm_results, _ = resumed(other_context, summaries)
        cold_results, _ = InProcessDetection()(
            StageContext(
                config=other_config, threshold_cache=ThresholdCache()
            ),
            summaries,
        )
        assert resumed.engine.rebuilds > 0  # started cold
        assert _verdicts(warm_results) == _verdicts(cold_results)
