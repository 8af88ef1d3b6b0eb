"""Property-based tests of cross-cutting invariants (hypothesis).

Module-specific property tests live next to their unit tests; this
module covers invariants that span components or define the library's
contract:

- the detector is invariant under time translation,
- detected periods rescale with the input's time axis,
- interval folding is idempotent and bounded,
- rescaling is event-count-preserving and idempotent,
- the MapReduce engine agrees with a naive map/group/reduce,
- GMM fits produce valid probability structure on arbitrary data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, PeriodicityDetector
from repro.core.gmm import fit_gmm
from repro.core.pruning import fold_intervals
from repro.core.timeseries import ActivitySummary, merge, rescale
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob

DAY = 86_400.0

periods = st.sampled_from([30.0, 60.0, 300.0, 900.0])
offsets = st.floats(min_value=0.0, max_value=1e6)


def beacon(period, offset=0.0, n=None):
    n = n if n is not None else int(min(DAY / period, 500)) + 1
    return offset + np.arange(n) * period


@pytest.fixture(scope="module")
def detector():
    return PeriodicityDetector(DetectorConfig(seed=0))


class TestDetectorInvariants:
    @settings(max_examples=8, deadline=None)
    @given(period=periods, offset=offsets)
    def test_time_translation_invariance(self, detector, period, offset):
        base = detector.detect(beacon(period))
        shifted = detector.detect(beacon(period, offset=offset))
        assert base.periodic and shifted.periodic
        assert shifted.dominant_period == pytest.approx(
            base.dominant_period, rel=0.02
        )

    @settings(max_examples=6, deadline=None)
    @given(period=periods, factor=st.sampled_from([2.0, 3.0, 4.0]))
    def test_time_axis_rescaling(self, detector, period, factor):
        base = detector.detect(beacon(period, n=200))
        scaled = detector.detect(beacon(period * factor, n=200))
        assert base.periodic and scaled.periodic
        assert scaled.dominant_period == pytest.approx(
            base.dominant_period * factor, rel=0.05
        )

    @settings(max_examples=6, deadline=None)
    @given(period=periods)
    def test_determinism(self, detector, period):
        trace = beacon(period)
        assert detector.detect(trace).periods() == detector.detect(trace).periods()


class TestFoldingInvariants:
    intervals = st.lists(
        st.floats(min_value=0.1, max_value=10_000.0), min_size=1, max_size=50
    )
    candidate = st.floats(min_value=1.0, max_value=5_000.0)

    @settings(max_examples=50, deadline=None)
    @given(ivals=intervals, period=candidate)
    def test_folded_bounded_by_input(self, ivals, period):
        folded = fold_intervals(np.asarray(ivals), period)
        assert np.all(folded <= np.asarray(ivals) + 1e-9)
        assert np.all(folded > 0)

    @settings(max_examples=50, deadline=None)
    @given(ivals=intervals, period=candidate)
    def test_folding_near_idempotent(self, ivals, period):
        once = fold_intervals(np.asarray(ivals), period)
        twice = fold_intervals(once, period)
        # Once an interval is within [period/2, 1.5*period], folding it
        # again never moves it further from the candidate.
        assert np.all(
            np.abs(twice - period) <= np.abs(once - period) + 1e-9
        )


class TestRescaleInvariants:
    timestamps = st.lists(
        st.floats(min_value=0.0, max_value=100_000.0), min_size=2, max_size=60
    )

    @settings(max_examples=40, deadline=None)
    @given(ts=timestamps, scale=st.sampled_from([5.0, 60.0, 600.0]))
    def test_event_count_preserved(self, ts, scale):
        summary = ActivitySummary.from_timestamps("s", "d", ts)
        coarse = rescale(summary, scale)
        assert coarse.event_count == summary.event_count
        # Merging the rescaled halves of the events gives the whole back,
        # compared by value.
        stamps = np.sort(ts)
        halves = [
            rescale(ActivitySummary.from_timestamps("s", "d", part), scale)
            for part in (stamps[: len(ts) // 2], stamps[len(ts) // 2:])
        ]
        merged = merge(halves)
        assert merged == coarse and hash(merged) == hash(coarse)
        assert np.array_equal(merged.intervals, coarse.intervals)

    @settings(max_examples=40, deadline=None)
    @given(ts=timestamps)
    def test_rescale_idempotent(self, ts):
        summary = ActivitySummary.from_timestamps("s", "d", ts)
        once = rescale(summary, 60.0)
        assert np.array_equal(rescale(once, 60.0).intervals, once.intervals)
        rebuilt = ActivitySummary.from_timestamps(
            "s", "d", once.timestamps(), time_scale=60.0
        )
        assert rebuilt == once and hash(rebuilt) == hash(once)

    @settings(max_examples=40, deadline=None)
    @given(ts=timestamps)
    def test_duration_never_grows(self, ts):
        summary = ActivitySummary.from_timestamps("s", "d", ts)
        coarse = rescale(summary, 300.0)
        assert coarse.duration <= summary.duration + 300.0


class _CountJob(MapReduceJob):
    n_partitions = 4

    def reduce(self, key, values):
        yield key, sum(values)


class TestEngineAgreesWithNaive:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=1000), max_size=80))
    def test_group_count_equivalence(self, values):
        engine_out = dict(
            MapReduceEngine().run(_CountJob(), [(v % 5, 1) for v in values])
        )
        naive = {}
        for value in values:
            naive[value % 5] = naive.get(value % 5, 0) + 1
        assert engine_out == naive


class TestGmmInvariants:
    data = st.lists(
        st.floats(min_value=0.1, max_value=1e4), min_size=4, max_size=60
    )

    @settings(max_examples=30, deadline=None)
    @given(values=data, k=st.integers(min_value=1, max_value=3))
    def test_valid_probability_structure(self, values, k):
        if len(values) < k:
            return
        model = fit_gmm(values, k, rng=np.random.default_rng(0))
        weights = [c.weight for c in model.components]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        assert all(w >= 0 for w in weights)
        assert all(c.variance > 0 for c in model.components)
        lo, hi = min(values), max(values)
        margin = (hi - lo) + 1.0
        assert all(lo - margin <= c.mean <= hi + margin
                   for c in model.components)
