"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def trace_path(tmp_path):
    out = tmp_path / "trace.tsv"
    truth = tmp_path / "truth.json"
    code = main([
        "simulate", str(out), "--hosts", "12", "--sites", "25",
        "--hours", "6", "--seed", "3", "--truth", str(truth),
    ])
    assert code == 0
    return out, truth


class TestSimulate:
    def test_writes_log_and_truth(self, trace_path):
        out, truth = trace_path
        assert out.stat().st_size > 0
        payload = json.loads(truth.read_text())
        assert payload["malicious_destinations"]
        assert payload["infected_hosts"]

    def test_gzip_output(self, tmp_path):
        out = tmp_path / "trace.tsv.gz"
        assert main(["simulate", str(out), "--hosts", "5", "--sites", "10",
                     "--hours", "2"]) == 0
        assert out.read_bytes()[:2] == b"\x1f\x8b"


class TestDetect:
    def test_periodic_input(self, tmp_path, capsys):
        ts = tmp_path / "ts.txt"
        ts.write_text("\n".join(str(60.0 * i) for i in range(100)))
        assert main(["detect", str(ts)]) == 0
        output = capsys.readouterr().out
        assert "periodic: True" in output
        assert "60.0" in output

    def test_non_periodic_exit_code(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        ts = tmp_path / "ts.txt"
        ts.write_text("\n".join(
            str(t) for t in sorted(rng.uniform(0, 86_400, size=200))
        ))
        assert main(["detect", str(ts)]) == 1
        assert "periodic: False" in capsys.readouterr().out


class TestPipeline:
    def test_end_to_end(self, trace_path, capsys):
        out, truth = trace_path
        code = main([
            "pipeline", str(out), "--tau-p", "0.25", "--percentile", "0.0",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "global whitelist" in text
        payload = json.loads(truth.read_text())
        assert any(d in text for d in payload["malicious_destinations"])


class TestTelemetry:
    def test_pipeline_writes_telemetry_files(self, trace_path, tmp_path, capsys):
        out, _truth = trace_path
        telemetry = tmp_path / "telemetry"
        code = main([
            "pipeline", str(out), "--tau-p", "0.25", "--percentile", "0.0",
            "--telemetry", str(telemetry),
        ])
        assert code == 0
        assert "wrote telemetry" in capsys.readouterr().out
        for name in ("report.txt", "metrics.jsonl", "metrics.prom"):
            assert (telemetry / name).stat().st_size > 0
        report = (telemetry / "report.txt").read_text()
        assert "global whitelist" in report
        assert "stage latency" in report
        assert "detector.threshold_cache" in report

    def test_no_telemetry_flag_writes_nothing(self, trace_path, tmp_path):
        out, _truth = trace_path
        before = set(tmp_path.iterdir())
        assert main(["pipeline", str(out), "--tau-p", "0.25",
                     "--percentile", "0.0"]) == 0
        assert set(tmp_path.iterdir()) == before

    def test_stats_renders_saved_telemetry(self, trace_path, tmp_path, capsys):
        out, _truth = trace_path
        telemetry = tmp_path / "telemetry"
        assert main([
            "report", str(out), "--tau-p", "0.25", "--percentile", "0.0",
            "--output", str(tmp_path / "analyst.txt"),
            "--telemetry", str(telemetry),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(telemetry)]) == 0
        text = capsys.readouterr().out
        assert "BAYWATCH run report" in text
        assert "global whitelist" in text

    def test_stats_missing_path_fails(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 1
        assert "no telemetry found" in capsys.readouterr().err

    def test_stats_empty_telemetry_fails_one_liner(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        telemetry.mkdir()
        (telemetry / "metrics.jsonl").write_text("")
        assert main(["stats", str(telemetry)]) == 1
        err = capsys.readouterr().err
        assert "is empty" in err
        assert "Traceback" not in err

    def test_stats_corrupt_telemetry_fails_one_liner(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        telemetry.mkdir()
        (telemetry / "metrics.jsonl").write_text("{not json\n")
        assert main(["stats", str(telemetry)]) == 1
        err = capsys.readouterr().err
        assert "not readable" in err
        assert "Traceback" not in err

    def test_stats_profile_renders_hotspots(self, trace_path, tmp_path,
                                            capsys, monkeypatch):
        from repro.obs.profiling import clear_profiles

        clear_profiles()
        monkeypatch.setenv("REPRO_PROFILE", "cprofile")
        out, _truth = trace_path
        telemetry = tmp_path / "telemetry"
        assert main([
            "pipeline", str(out), "--tau-p", "0.25", "--percentile", "0.0",
            "--telemetry", str(telemetry),
        ]) == 0
        assert (telemetry / "profiles.jsonl").stat().st_size > 0
        capsys.readouterr()
        assert main(["stats", str(telemetry), "--profile"]) == 0
        text = capsys.readouterr().out
        assert "profile [cprofile]" in text
        assert "tottime" in text

    def test_stats_profile_without_profiles_notes_it(self, trace_path,
                                                     tmp_path, capsys):
        out, _truth = trace_path
        telemetry = tmp_path / "telemetry"
        assert main([
            "pipeline", str(out), "--tau-p", "0.25", "--percentile", "0.0",
            "--telemetry", str(telemetry),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(telemetry), "--profile"]) == 0
        assert "no profiles" in capsys.readouterr().out

    def test_run_report_has_summary_line(self, trace_path, tmp_path):
        out, _truth = trace_path
        telemetry = tmp_path / "telemetry"
        assert main([
            "pipeline", str(out), "--tau-p", "0.25", "--percentile", "0.0",
            "--telemetry", str(telemetry),
        ]) == 0
        report = (telemetry / "report.txt").read_text()
        assert "summary: threshold cache" in report
        assert "% hits" in report


class TestBench:
    def test_micro_suite_writes_report(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "micro", "--repeats", "1", "--warmup", "0",
            "--no-memory", "--output-dir", str(tmp_path),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "bench suite 'micro'" in text
        assert "wrote" in text
        payload = json.loads((tmp_path / "BENCH_micro.json").read_text())
        assert payload["suite"] == "micro"
        assert payload["schema"] == 1
        assert payload["fingerprint"]["python"]
        names = [entry["name"] for entry in payload["results"]]
        assert "periodogram.power_spectrum" in names
        for entry in payload["results"]:
            assert entry["seconds"]["mean"] > 0
            assert entry["events_per_second"] > 0

    def test_unknown_suite_fails_one_liner(self, tmp_path, capsys):
        assert main(["bench", "--suite", "nope",
                     "--output-dir", str(tmp_path)]) == 1
        assert "unknown bench suite" in capsys.readouterr().err

    def test_compare_pass_and_fail(self, tmp_path, capsys):
        from repro.obs.bench import BenchReport, BenchResult

        def report(mean):
            return BenchReport(
                suite="micro", created=1.0, fingerprint={}, config={},
                results=[BenchResult(
                    name="a", repeats=1, warmup=0, events=1,
                    seconds={"mean": mean, "min": mean, "max": mean,
                             "total": mean, "p50": mean, "p95": mean},
                    samples=[mean], events_per_second=1 / mean,
                )],
            )

        base = tmp_path / "BENCH_base.json"
        base.write_text(json.dumps(report(1.0).to_dict()))
        fast = tmp_path / "BENCH_fast.json"
        fast.write_text(json.dumps(report(0.9).to_dict()))
        slow = tmp_path / "BENCH_slow.json"
        slow.write_text(json.dumps(report(2.0).to_dict()))

        assert main(["bench", "--compare", str(base), str(fast)]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["bench", "--compare", str(base), str(slow)]) == 1
        assert "FAIL" in capsys.readouterr().out

        # A generous tolerance lets the same pair pass.
        assert main(["bench", "--compare", str(base), str(slow),
                     "--tolerance", "1.5"]) == 0

    def test_compare_unreadable_file_fails_one_liner(self, tmp_path, capsys):
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps({"suite": "x", "results": []}))
        assert main(["bench", "--compare", str(tmp_path / "none.json"),
                     str(good)]) == 1
        assert "cannot read bench report" in capsys.readouterr().err


class TestScore:
    def test_scores_and_flags(self, capsys):
        assert main(["score", "google.com", "xqzjwkvbblrwpq.com"]) == 0
        text = capsys.readouterr().out
        assert "SUSPICIOUS" in text
        assert "google.com" in text


class TestReport:
    def test_analyst_report_to_file(self, trace_path, tmp_path, capsys):
        log, _truth = trace_path
        out = tmp_path / "report.txt"
        code = main([
            "report", str(log), "--tau-p", "0.25",
            "--percentile", "0.0", "--output", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "BAYWATCH daily report" in text
        assert "rank score" in text

    def test_analyst_report_to_stdout(self, trace_path, capsys):
        log, _truth = trace_path
        assert main(["report", str(log), "--tau-p", "0.25",
                     "--percentile", "0.0"]) == 0
        assert "BAYWATCH daily report" in capsys.readouterr().out


def tsv(*lines):
    return "".join("\t".join(fields) + "\n" for fields in lines)


GOOD = ("10.0", "aa:bb", "10.0.0.1", "c2.example.net", "/x", "200", "0")
LONG = GOOD + ("220.000",)
NO_STATUS = GOOD[:5] + ("OK", "0")
HOSTILE_LOGS = {  # name: (log, start of the error line)
    "short-line": (tsv(GOOD, ("12.5",)), "malformed log line: '12.5\\n'"),
    "8-plus-6-fields": (
        tsv(GOOD, LONG, GOOD[:4] + GOOD[5:], GOOD),
        f"malformed log line: {tsv(LONG)!r}",
    ),
    "nan-timestamp": (tsv(GOOD, ("nan",) + GOOD[1:]), "timestamp nan is not finite"),
    "non-numeric-status": (
        tsv(GOOD, NO_STATUS),
        f"malformed log line: {tsv(NO_STATUS)!r}: invalid literal for int()",
    ),
}


class TestHostileLogs:
    """A log the fold cannot read ends the run with one line, exit 2."""

    @pytest.mark.parametrize("command", ["run", "pipeline", "report"])
    @pytest.mark.parametrize("log", sorted(HOSTILE_LOGS))
    def test_one_line_error(self, tmp_path, capsys, command, log):
        text, message = HOSTILE_LOGS[log]
        path = tmp_path / "log.tsv"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestRun:
    def test_sharded_run_end_to_end(self, trace_path, tmp_path, capsys):
        out, _truth = trace_path
        ckpt = tmp_path / "ckpt"
        code = main([
            "run", str(out), "--shard-size", "4",
            "--checkpoint-dir", str(ckpt), "--percentile", "0.5",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "periodicity detection" in captured
        assert (ckpt / "manifest.json").exists()
        assert list(ckpt.glob("shard-*.jsonl"))

    def test_max_shards_exits_incomplete_then_resume_completes(
        self, trace_path, tmp_path, capsys
    ):
        out, _truth = trace_path
        ckpt = tmp_path / "ckpt"
        base = [
            "run", str(out), "--shard-size", "2",
            "--checkpoint-dir", str(ckpt), "--percentile", "0.5",
        ]
        code = main(base + ["--max-shards", "1"])
        assert code == 3
        assert "run incomplete" in capsys.readouterr().out

        code = main(base + ["--resume", "--telemetry", str(tmp_path / "tel")])
        assert code == 0
        capsys.readouterr()
        metrics = (tmp_path / "tel" / "metrics.jsonl").read_text()
        assert "mapreduce.shards_resumed" in metrics

    def test_resume_with_changed_settings_exits_2(
        self, trace_path, tmp_path, capsys
    ):
        out, _truth = trace_path
        ckpt = tmp_path / "ckpt"
        code = main([
            "run", str(out), "--shard-size", "2",
            "--checkpoint-dir", str(ckpt), "--percentile", "0.5",
            "--max-shards", "1",
        ])
        assert code == 3
        capsys.readouterr()
        code = main([
            "run", str(out), "--shard-size", "3",
            "--checkpoint-dir", str(ckpt), "--percentile", "0.5",
            "--resume",
        ])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_parallel_run_with_retries(self, trace_path, capsys):
        out, _truth = trace_path
        code = main([
            "run", str(out), "--workers", "2", "--shard-size", "8",
            "--max-retries", "2", "--percentile", "0.5",
        ])
        assert code == 0

    def test_run_with_threads_executor(self, trace_path, capsys):
        out, _truth = trace_path
        code = main([
            "run", str(out), "--executor", "threads", "--workers", "2",
            "--shard-size", "8", "--percentile", "0.5",
        ])
        assert code == 0
        assert "periodicity detection" in capsys.readouterr().out

    def test_shard_queue_requires_checkpoint_dir(self, trace_path, capsys):
        out, _truth = trace_path
        code = main(["run", str(out), "--executor", "shard-queue"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_unknown_executor_rejected(self, trace_path, capsys):
        out, _truth = trace_path
        with pytest.raises(SystemExit):
            main(["run", str(out), "--executor", "mainframe"])


class TestWorker:
    def test_worker_drains_queue_and_journals(self, tmp_path, capsys):
        from repro.mapreduce.executors import ShardQueueExecutor
        from repro.obs.journal import read_events

        ckpt = tmp_path / "ckpt"
        executor = ShardQueueExecutor(
            str(ckpt / "queue"), poll_interval=0.01
        )
        handle = executor.submit(divmod, 17, 5)
        code = main([
            "worker", "--checkpoint-dir", str(ckpt),
            "--poll-interval", "0.01", "--max-tasks", "1",
        ])
        assert code == 0
        assert executor.result(handle, timeout=5.0) == (3, 2)
        output = capsys.readouterr().out
        assert "1 task(s) processed" in output
        events = [e["event"] for e in read_events(ckpt / "events.jsonl")]
        assert events == ["worker_start", "worker_task", "worker_exit"]

    def test_worker_exits_on_stop_sentinel(self, tmp_path, capsys):
        from repro.mapreduce.executors import ShardQueueExecutor

        ckpt = tmp_path / "ckpt"
        ShardQueueExecutor(str(ckpt / "queue")).close()  # raises sentinel
        code = main([
            "worker", "--checkpoint-dir", str(ckpt),
            "--poll-interval", "0.01",
        ])
        assert code == 0
        assert "0 task(s) processed" in capsys.readouterr().out

    def test_worker_idle_exit(self, tmp_path, capsys):
        (tmp_path / "ckpt" / "queue" / "tasks").mkdir(parents=True)
        code = main([
            "worker", "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--poll-interval", "0.01", "--idle-exit", "0.1",
        ])
        assert code == 0


class TestObservability:
    def test_run_journals_and_trace_renders(self, trace_path, tmp_path,
                                            capsys):
        out, _truth = trace_path
        ckpt, tel = tmp_path / "ckpt", tmp_path / "tel"
        code = main([
            "run", str(out), "--workers", "2", "--shard-size", "4",
            "--checkpoint-dir", str(ckpt), "--telemetry", str(tel),
            "--percentile", "0.5", "--run-id", "cliobs01",
        ])
        assert code == 0
        capsys.readouterr()
        journal = (ckpt / "events.jsonl").read_text()
        assert '"run_id": "cliobs01"' in journal
        assert '"event": "run_finish"' in journal

        chrome = tmp_path / "chrome.json"
        code = main(["trace", str(tel), "--chrome", str(chrome)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "cliobs01" in rendered
        assert "run" in rendered
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        assert all(event["ph"] == "X" for event in payload["traceEvents"])

        code = main(["watch", str(ckpt), "--once"])
        assert code == 0
        status_text = capsys.readouterr().out
        assert "cliobs01" in status_text
        assert "[finished]" in status_text

    def test_run_with_status_port_serves_and_stops(self, trace_path,
                                                   tmp_path, capsys):
        out, _truth = trace_path
        ckpt = tmp_path / "ckpt"
        code = main([
            "run", str(out), "--shard-size", "4",
            "--checkpoint-dir", str(ckpt), "--percentile", "0.5",
            "--status-port", "0",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "status service on http://127.0.0.1:" in captured
        assert (ckpt / "events.jsonl").exists()

    def test_status_port_requires_a_journal_home(self, trace_path, capsys):
        out, _truth = trace_path
        code = main(["run", str(out), "--status-port", "0"])
        assert code == 2
        assert "--status-port needs" in capsys.readouterr().err

    def test_watch_polls_http_service(self, tmp_path, capsys):
        from repro.obs import EventJournal, StatusServer

        journal = EventJournal.in_dir(tmp_path, run_id="httpwatch")
        journal.append("run_start", n_shards=1)
        journal.append("shard_finish", shard=0, pairs=4, seconds=0.1)
        journal.append("run_finish")
        with StatusServer(journal_path=journal.path, port=0) as server:
            code = main(["watch", "--url", server.url, "--once"])
        assert code == 0
        status_text = capsys.readouterr().out
        assert "httpwatch" in status_text
        assert "1/1" in status_text

    def test_watch_follows_until_finished(self, tmp_path, capsys):
        journal_dir = tmp_path
        from repro.obs import EventJournal

        journal = EventJournal.in_dir(journal_dir, run_id="follow")
        journal.append("run_start", n_shards=1)
        journal.append("shard_finish", shard=0, pairs=4, seconds=0.1)
        journal.append("run_finish")
        # state == finished, so the poll loop exits on the first pass
        # even without --once.
        code = main(["watch", str(journal_dir), "--interval", "0.01"])
        assert code == 0
        assert "[finished]" in capsys.readouterr().out

    def test_watch_without_source_exits_2(self, capsys):
        assert main(["watch"]) == 2
        assert "journal path" in capsys.readouterr().err

    def test_trace_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 1
        assert "no trace found" in capsys.readouterr().err

    def test_trace_empty_file_exits_1(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text("")
        assert main(["trace", str(trace_file)]) == 1
        assert "empty" in capsys.readouterr().err
