"""Tests for the benchmark harness and regression comparator."""

import json

import pytest

from repro.obs.bench import (
    Benchmark,
    BenchReport,
    BenchResult,
    BenchRunner,
    bench_path,
    compare_reports,
    host_fingerprint,
    render_bench_report,
    render_comparison,
)
from repro.obs.registry import get_registry


class FakeClock:
    """A deterministic clock advancing by a scripted step per call."""

    def __init__(self, step: float = 0.5) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _result(name: str, mean: float) -> BenchResult:
    return BenchResult(
        name=name,
        repeats=3,
        warmup=1,
        events=10,
        seconds={"mean": mean, "min": mean, "max": mean, "total": 3 * mean,
                 "p50": mean, "p95": mean},
        samples=[mean] * 3,
        events_per_second=10 / mean,
    )


def _report(suite: str, means: dict, **fingerprint) -> BenchReport:
    return BenchReport(
        suite=suite,
        created=123.0,
        fingerprint=fingerprint,
        config={"repeats": 3, "warmup": 1},
        results=[_result(name, mean) for name, mean in means.items()],
    )


class TestBenchRunner:
    def test_deterministic_with_fake_clock(self):
        calls = []
        bench = Benchmark("unit.counted", lambda: calls.append(1) or 7)
        runner = BenchRunner(
            repeats=3, warmup=2, clock=FakeClock(0.5), trace_memory=False
        )
        report = runner.run("unit", [bench])
        # 2 warmups + 3 timed iterations, no memory probe.
        assert len(calls) == 5
        result = report.results[0]
        # Each timed iteration spans exactly one clock step (0.5 s):
        # start tick and stop tick are consecutive calls.
        assert result.samples == [0.5, 0.5, 0.5]
        assert result.seconds["mean"] == pytest.approx(0.5)
        assert result.seconds["p50"] == pytest.approx(0.5)
        assert result.seconds["p95"] == pytest.approx(0.5)
        assert result.events == 7
        assert result.events_per_second == pytest.approx(7 / 0.5)
        assert result.peak_tracemalloc_kb is None

    def test_memory_probe_runs_one_extra_iteration(self):
        calls = []
        bench = Benchmark("unit.mem", lambda: calls.append(1) or 1)
        runner = BenchRunner(repeats=1, warmup=0, trace_memory=True)
        report = runner.run("unit", [bench])
        assert len(calls) == 2  # one timed + one memory probe
        assert report.results[0].peak_tracemalloc_kb is not None
        assert report.results[0].peak_tracemalloc_kb >= 0.0

    def test_captures_counters_from_benchmarked_code(self):
        def work():
            get_registry().counter("unit.cache.hits").inc(3)
            return 1

        runner = BenchRunner(repeats=2, warmup=0, trace_memory=False)
        report = runner.run("unit", [Benchmark("unit.counting", work)])
        assert report.results[0].counters["unit.cache.hits"] == 6

    def test_cleanup_runs_even_on_failure(self):
        cleaned = []

        def boom():
            raise RuntimeError("broken bench")

        bench = Benchmark("unit.boom", boom, cleanup=lambda: cleaned.append(1))
        runner = BenchRunner(repeats=1, warmup=0, trace_memory=False)
        with pytest.raises(RuntimeError):
            runner.run("unit", [bench])
        assert cleaned == [1]

    def test_profile_attaches_hotspots(self):
        def work():
            return sum(i * i for i in range(5000))

        runner = BenchRunner(
            repeats=1, warmup=0, trace_memory=False, profile="cprofile"
        )
        report = runner.run("unit", [Benchmark("unit.hot", work)])
        hotspots = report.results[0].hotspots
        assert hotspots
        assert all("site" in row and "tottime" in row for row in hotspots)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BenchRunner(repeats=0)
        with pytest.raises(ValueError):
            BenchRunner(warmup=-1)
        with pytest.raises(ValueError):
            BenchRunner(profile="perf")

    def test_metrics_hook_derives_pairs_per_second(self):
        bench = Benchmark(
            "unit.metrics",
            lambda: 1,
            metrics=lambda: {"pairs": 100.0, "window_days": 30.0},
        )
        runner = BenchRunner(
            repeats=2, warmup=0, clock=FakeClock(0.5), trace_memory=False
        )
        result = runner.run("unit", [bench]).results[0]
        assert result.metrics["pairs"] == 100.0
        assert result.metrics["window_days"] == 30.0
        # mean is 0.5 s with the fake clock, so 100 pairs -> 200/s.
        assert result.metrics["pairs_per_second"] == pytest.approx(200.0)

    def test_metrics_hook_does_not_override_explicit_rate(self):
        bench = Benchmark(
            "unit.rate",
            lambda: 1,
            metrics=lambda: {"pairs": 10.0, "pairs_per_second": 42.0},
        )
        runner = BenchRunner(
            repeats=1, warmup=0, clock=FakeClock(0.5), trace_memory=False
        )
        result = runner.run("unit", [bench]).results[0]
        assert result.metrics["pairs_per_second"] == 42.0

    def test_no_metrics_hook_leaves_map_empty(self):
        runner = BenchRunner(repeats=1, warmup=0, trace_memory=False)
        report = runner.run("unit", [Benchmark("unit.plain", lambda: 1)])
        assert report.results[0].metrics == {}


class TestBenchReport:
    def test_round_trip_through_file(self, tmp_path):
        report = _report("unit", {"a": 0.5, "b": 1.0}, git_sha="abc")
        path = report.write(tmp_path)
        assert path == bench_path("unit", tmp_path)
        assert path.name == "BENCH_unit.json"
        loaded = BenchReport.load(path)
        assert loaded.suite == "unit"
        assert loaded.fingerprint["git_sha"] == "abc"
        assert loaded.result("a").seconds["mean"] == pytest.approx(0.5)
        assert loaded.result("missing") is None

    def test_json_envelope_keys(self, tmp_path):
        path = _report("unit", {"a": 0.5}).write(tmp_path)
        payload = json.loads(path.read_text())
        for key in ("schema", "kind", "suite", "created", "fingerprint",
                    "config", "results"):
            assert key in payload
        assert payload["kind"] == "bench"

    def test_render_contains_rows(self):
        text = render_bench_report(_report("unit", {"a": 0.5}))
        assert "bench suite 'unit'" in text
        assert "a" in text

    def test_metrics_round_trip_through_file(self, tmp_path):
        report = _report("unit", {"a": 0.5})
        report.results[0].metrics.update(
            {"pairs": 1000.0, "state_cache_hit_rate": 0.75}
        )
        loaded = BenchReport.load(report.write(tmp_path))
        assert loaded.result("a").metrics == {
            "pairs": 1000.0,
            "state_cache_hit_rate": 0.75,
        }

    def test_empty_metrics_omitted_from_envelope(self, tmp_path):
        path = _report("unit", {"a": 0.5}).write(tmp_path)
        payload = json.loads(path.read_text())
        assert "metrics" not in payload["results"][0]

    def test_render_shows_metrics_line(self):
        report = _report("unit", {"a": 0.5})
        report.results[0].metrics["pairs_per_second"] = 123.0
        assert "pairs_per_second" in render_bench_report(report)


class TestHostFingerprint:
    def test_has_identifying_fields(self):
        fp = host_fingerprint()
        assert fp["python"]
        assert fp["platform"]
        assert "git_sha" in fp


class TestCompareReports:
    def test_identical_reports_pass(self):
        base = _report("unit", {"a": 1.0, "b": 2.0})
        comparison = compare_reports(base, base, tolerance=0.10)
        assert comparison.ok
        assert all(d.status == "pass" for d in comparison.deltas)

    def test_improvement_passes(self):
        base = _report("unit", {"a": 1.0})
        cand = _report("unit", {"a": 0.5})
        assert compare_reports(base, cand, tolerance=0.10).ok

    def test_small_slowdown_warns_but_passes(self):
        base = _report("unit", {"a": 1.0})
        cand = _report("unit", {"a": 1.07})
        comparison = compare_reports(base, cand, tolerance=0.10)
        assert comparison.ok
        assert comparison.deltas[0].status == "warn"

    def test_regression_beyond_tolerance_fails(self):
        base = _report("unit", {"a": 1.0, "b": 1.0})
        cand = _report("unit", {"a": 1.5, "b": 1.0})
        comparison = compare_reports(base, cand, tolerance=0.10)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["a"]

    def test_tolerance_is_configurable(self):
        base = _report("unit", {"a": 1.0})
        cand = _report("unit", {"a": 1.5})
        assert not compare_reports(base, cand, tolerance=0.10).ok
        assert compare_reports(base, cand, tolerance=0.60).ok

    def test_new_and_missing_do_not_fail_the_gate(self):
        base = _report("unit", {"a": 1.0, "gone": 1.0})
        cand = _report("unit", {"a": 1.0, "fresh": 1.0})
        comparison = compare_reports(base, cand, tolerance=0.10)
        assert comparison.ok
        statuses = {d.name: d.status for d in comparison.deltas}
        assert statuses["gone"] == "missing"
        assert statuses["fresh"] == "new"

    def test_fingerprint_drift_is_noted(self):
        base = _report("unit", {"a": 1.0}, git_sha="aaa")
        cand = _report("unit", {"a": 1.0}, git_sha="bbb")
        comparison = compare_reports(base, cand)
        assert any("git_sha" in note for note in comparison.fingerprint_notes)
        assert "fingerprint differs" in render_comparison(comparison)

    def test_render_marks_failures(self):
        base = _report("unit", {"a": 1.0})
        cand = _report("unit", {"a": 2.0})
        text = render_comparison(compare_reports(base, cand, tolerance=0.10))
        assert "FAIL" in text
        assert "+100.0%" in text

    def test_rejects_non_positive_tolerance(self):
        base = _report("unit", {"a": 1.0})
        with pytest.raises(ValueError):
            compare_reports(base, base, tolerance=0.0)


class TestSuites:
    def test_micro_suite_builds_unique_benchmarks(self):
        from repro.obs.bench_suites import build_suite, suite_names

        assert set(suite_names()) == {
            "micro", "pipeline", "mapreduce", "ingestion",
            "detection_batch", "scalability",
        }
        benchmarks = build_suite("micro")
        names = [bench.name for bench in benchmarks]
        assert len(names) == len(set(names))
        assert "periodogram.power_spectrum" in names
        assert "permutation.threshold" in names
        assert "autocorrelation.acf" in names
        assert "pruning.prune_candidates" in names

    def test_unknown_suite_raises(self):
        from repro.obs.bench_suites import build_suite

        with pytest.raises(KeyError):
            build_suite("nope")
