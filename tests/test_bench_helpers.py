"""Tests for the benchmark reporting helpers."""

import pytest

from benchmarks.common import (
    ExperimentReport,
    ascii_series,
    check,
    host_fingerprint,
    relative_error,
)


class TestCheck:
    def test_values(self):
        assert check(True) == "yes"
        assert check(False) == "NO"


class TestRelativeError:
    def test_computation(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)


class TestHostFingerprint:
    def test_has_identifying_fields(self):
        fp = host_fingerprint()
        assert fp["python"]
        assert fp["platform"]
        assert "git_sha" in fp


class TestAsciiSeries:
    def test_monotone_decay_shape(self):
        strip = ascii_series([10, 8, 6, 4, 2, 0])
        assert strip[0] == "@"
        assert strip[-1] == " "
        assert len(strip) == 6

    def test_constant_series(self):
        strip = ascii_series([5, 5, 5])
        assert len(set(strip)) == 1

    def test_nan_rendering(self):
        strip = ascii_series([1.0, float("nan"), 0.0])
        assert strip[1] == "?"

    def test_all_nan(self):
        assert ascii_series([float("nan")] * 3) == "???"

    def test_width(self):
        strip = ascii_series([0, 1], width=3)
        assert len(strip) == 6


class TestExperimentReport:
    def test_table_and_persistence(self, tmp_path, monkeypatch, capsys):
        import benchmarks.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        report = ExperimentReport("unit-test", "A test experiment")
        report.table(("col", "value"), [("a", 1), ("bb", 22)])
        report.paper_vs_measured([("claim", "value", check(True))])
        text = report.finish()
        assert "unit-test: A test experiment" in text
        assert "bb" in text
        assert (tmp_path / "unit-test.txt").read_text() == text
        assert "unit-test" in capsys.readouterr().out

    def test_finish_emits_json_sharing_bench_envelope(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        import benchmarks.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        report = ExperimentReport("unit-json", "JSON emission")
        report.metric("per_pair_seconds", 0.0025, "s")
        report.metric("pairs_per_second", 400.0, "1/s", scope="batch")
        text = report.finish()
        payload = json.loads((tmp_path / "unit-json.json").read_text())
        for key in ("schema", "kind", "suite", "created", "fingerprint",
                    "results"):
            assert key in payload
        assert payload["kind"] == "experiment"
        assert payload["suite"] == "unit-json"
        assert payload["fingerprint"]["python"]
        assert payload["results"][0] == {
            "name": "per_pair_seconds", "value": 0.0025, "unit": "s",
        }
        assert payload["results"][1]["scope"] == "batch"
        assert payload["text"] == text
        capsys.readouterr()
