"""Tests for the durable event journal: appends, concurrency, resume."""

import json
import os
import pickle
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.obs import (
    JOURNAL_FILE,
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    JournalSchemaError,
    StatusServer,
    get_journal,
    journal_emit,
    read_events,
    scoped_journal,
    tail_events,
)


class TestAppendAndRead:
    def test_roundtrip_with_schema_fields(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path, run_id="run01")
        journal.append("shard_finish", shard=3, pairs=256, seconds=1.5)
        events = journal.events()
        assert len(events) == 1
        event = events[0]
        assert event["v"] == JOURNAL_SCHEMA_VERSION
        assert event["event"] == "shard_finish"
        assert event["run_id"] == "run01"
        assert event["pid"] == os.getpid()
        assert event["shard"] == 3
        assert event["pairs"] == 256
        assert event["ts"] > 0

    def test_in_dir_creates_directory_and_file_name(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path / "deep" / "ckpt")
        journal.append("run_start")
        assert journal.path == tmp_path / "deep" / "ckpt" / JOURNAL_FILE
        assert journal.path.exists()

    def test_none_fields_are_omitted(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        record = journal.append("retry", phase=None, shard=2)
        assert "phase" not in record
        assert journal.events()[0] == {
            key: value for key, value in record.items()
        }

    def test_non_json_values_are_coerced(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        journal.append("quarantine", key=("host", "evil.example"))
        event = journal.events()[0]
        assert event["key"] == ["host", "evil.example"]

    def test_appends_accumulate_in_order(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        for index in range(5):
            journal.append("shard_start", shard=index)
        assert [event["shard"] for event in journal.events()] == [0, 1, 2, 3, 4]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_tail(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        for index in range(10):
            journal.append("heartbeat", worker=index)
        assert [e["worker"] for e in journal.tail(3)] == [7, 8, 9]
        assert tail_events(journal.path, 0) == []


class TestTornLines:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        journal.append("run_start", n_shards=4)
        journal.append("shard_finish", shard=0)
        # A writer killed mid-append leaves a partial line behind.
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "shard_fin')
        events = journal.events()
        assert [event["event"] for event in events] == [
            "run_start", "shard_finish",
        ]
        # The next append starts a new line instead of joining it.
        journal.append("shard_finish", shard=1)
        assert [event.get("shard") for event in journal.events()] == [
            None, 0, 1,
        ]

    def test_blank_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '\n{"event": "ok"}\nnot json at all\n[1, 2]\n',
            encoding="utf-8",
        )
        events = read_events(path)
        assert len(events) == 1
        assert events[0]["event"] == "ok"


def _journal_lines(tmp_path, *lines):
    """A journal directory whose events.jsonl holds ``lines`` verbatim."""
    (tmp_path / JOURNAL_FILE).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return tmp_path


RUN_START = '{"v": 1, "event": "run_start", "run_id": "dmg", "n_shards": 2}'
SHARD_0 = '{"v": 1, "event": "shard_finish", "shard": 0, "pairs": 8}'
RUN_FINISH = '{"v": 1, "event": "run_finish"}'


class TestDamagedJournal:
    """``repro watch`` over each kind of damage: skip it or say one line."""

    @pytest.mark.parametrize(
        "damage", ["garbage {{{", "[1, 2]"], ids=["garbage", "not-an-object"]
    )
    def test_undecodable_or_non_object_line_is_skipped(
        self, tmp_path, capsys, damage
    ):
        journal = _journal_lines(
            tmp_path, RUN_START, damage, SHARD_0, RUN_FINISH
        )
        assert len(read_events(journal / JOURNAL_FILE)) == 3
        assert main(["watch", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out and "8 processed" in out

    def test_newer_schema_is_refused(self, tmp_path, capsys):
        journal = _journal_lines(
            tmp_path, RUN_START, '{"v": 99, "event": "shard_start"}'
        )
        with pytest.raises(JournalSchemaError, match="schema v99"):
            read_events(journal / JOURNAL_FILE)
        assert main(["watch", str(journal), "--once"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read status: journal")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "line,field",
        [
            ('{"event": "shard_finish", "shard": 0, "pairs": null}', "pairs"),
            ('{"event": "run_start", "n_shards": [1]}', "n_shards"),
        ],
        ids=["null-pairs", "list-n_shards"],
    )
    def test_wrong_typed_field_is_one_line(
        self, tmp_path, capsys, line, field
    ):
        journal = _journal_lines(tmp_path, RUN_START, line)
        assert main(["watch", str(journal), "--once"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read status: journal event")
        assert f"non-numeric {field!r}" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        path = journal / JOURNAL_FILE
        with StatusServer(journal_path=path, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/status", timeout=10)
        assert excinfo.value.code == 500
        body = excinfo.value.read().decode("utf-8")
        assert body == "error: " + err.split("cannot read status: ", 1)[1]


class TestPickling:
    def test_pickled_journal_appends_to_same_file(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path, run_id="run02")
        journal.append("run_start")
        clone = pickle.loads(pickle.dumps(journal))
        assert clone.path == journal.path
        assert clone.run_id == "run02"
        clone.append("heartbeat", worker=1)
        events = journal.events()
        assert [event["event"] for event in events] == [
            "run_start", "heartbeat",
        ]


class TestCurrentJournal:
    def test_emit_without_journal_is_noop(self):
        assert get_journal() is None
        journal_emit("run_start", n_shards=4)  # must not raise

    def test_scoped_journal_installs_and_restores(self, tmp_path):
        journal = EventJournal.in_dir(tmp_path)
        with scoped_journal(journal) as active:
            assert active is journal
            assert get_journal() is journal
            journal_emit("shard_start", shard=0)
        assert get_journal() is None
        assert journal.events()[0]["event"] == "shard_start"

    def test_scoped_journal_nests(self, tmp_path):
        outer = EventJournal.in_dir(tmp_path / "outer")
        inner = EventJournal.in_dir(tmp_path / "inner")
        with scoped_journal(outer):
            with scoped_journal(inner):
                journal_emit("stage", stage="detect")
            journal_emit("stage", stage="rank")
        assert outer.events()[0]["stage"] == "rank"
        assert inner.events()[0]["stage"] == "detect"


_WRITER_SCRIPT = """
import sys
from repro.obs import EventJournal

path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
journal = EventJournal(path, run_id="concurrent")
for seq in range(count):
    journal.append("heartbeat", worker=writer, seq=seq, pad="x" * 200)
"""


class TestConcurrentWriters:
    def test_multiprocess_appends_have_no_torn_lines(self, tmp_path):
        """N processes x M events into one file: every line stays whole.

        The padding makes each record a few hundred bytes so interleaved
        buffered writes would tear visibly; the single ``os.write`` on an
        ``O_APPEND`` descriptor must keep every line intact.
        """
        path = tmp_path / "events.jsonl"
        n_writers, n_events = 4, 50
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _WRITER_SCRIPT,
                    str(path), str(writer), str(n_events),
                ],
                env={**os.environ, "PYTHONPATH": _repro_pythonpath()},
            )
            for writer in range(n_writers)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0

        # Every raw line must parse — no torn or interleaved bytes.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_writers * n_events
        records = [json.loads(line) for line in lines]

        # The merged stream is coherent: every writer's full sequence
        # is present exactly once.
        by_writer = {}
        for record in records:
            by_writer.setdefault(record["worker"], []).append(record["seq"])
        assert set(by_writer) == set(range(n_writers))
        for sequence in by_writer.values():
            assert sorted(sequence) == list(range(n_events))

    def test_concurrent_stream_reads_back_as_resume_would(self, tmp_path):
        """read_events over the concurrent file yields every record."""
        path = tmp_path / "events.jsonl"
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _WRITER_SCRIPT,
                    str(path), str(writer), "20",
                ],
                env={**os.environ, "PYTHONPATH": _repro_pythonpath()},
            )
            for writer in range(3)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        events = read_events(path)
        assert len(events) == 60
        assert all(event["run_id"] == "concurrent" for event in events)


def _repro_pythonpath() -> str:
    """PYTHONPATH for subprocesses: wherever ``repro`` imports from."""
    import repro

    package_dir = os.path.dirname(os.path.dirname(repro.__file__))
    existing = os.environ.get("PYTHONPATH", "")
    return package_dir + (os.pathsep + existing if existing else "")
