"""Unit tests for the pluggable execution backends.

The engine-level fault matrix lives in ``test_faults.py``; these tests
pin the :class:`TaskExecutor` contract itself — parallelism,
construction, the soft/hard deadline split, and the public
kill-children guarantee of :meth:`ProcessPoolTaskExecutor.restart`.
"""

import os
import time

import pytest

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import (
    EXECUTOR_NAMES,
    ProcessPoolTaskExecutor,
    SerialExecutor,
    ShardQueueExecutor,
    TaskExecutor,
    TaskTimeout,
    WorkerCrash,
    make_executor,
)
from repro.mapreduce.testing import HangingJob
from repro.obs import MetricsRegistry, scoped_registry


def _double(value):
    return value * 2


def _sleep_return(delay, value):
    time.sleep(delay)
    return value


class TestMakeExecutor:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("serial", SerialExecutor),
            ("processes", ProcessPoolTaskExecutor),
            ("shard-queue", ShardQueueExecutor),
        ],
    )
    def test_every_name_builds_its_backend(self, name, cls):
        executor = make_executor(name, n_workers=2)
        assert isinstance(executor, cls)
        assert executor.name == name
        assert name in EXECUTOR_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("mainframe")

    def test_workers_size_the_parallelism_trait(self):
        assert make_executor("serial").parallelism == 1
        assert make_executor("processes", n_workers=3).parallelism == 3
        # The shard queue's fleet is external; at least 2 keeps the
        # engine off the serial path even for a lone local worker.
        assert make_executor("shard-queue", n_workers=1).parallelism == 2


class TestEngineConstruction:
    def test_default_is_serial(self):
        assert MapReduceEngine().executor.name == "serial"

    def test_multiworker_default_is_processes(self):
        with MapReduceEngine(n_workers=2) as engine:
            assert engine.executor.name == "processes"

    def test_string_executor_resolved(self):
        # The name wins over the n_workers mapping (1 means serial).
        with MapReduceEngine(n_workers=1, executor="processes") as engine:
            assert isinstance(engine.executor, ProcessPoolTaskExecutor)

    def test_executor_parallelism_raises_worker_floor(self):
        with MapReduceEngine(executor="shard-queue") as engine:
            assert engine.n_workers == 2

    def test_non_executor_rejected(self):
        with pytest.raises(TypeError):
            MapReduceEngine(executor=object())


class TestSerialExecutor:
    def test_handles_are_deferred_thunks(self):
        executor = SerialExecutor()
        handle = executor.submit(_double, 21)
        assert executor.result(handle) == 42
        assert not executor.active
        executor.restart("noop")
        executor.close()


class TestProcessExecutor:
    def test_worker_pids_roster_is_public(self):
        with ProcessPoolTaskExecutor(1) as executor:
            assert executor.result(executor.submit(_double, 3)) == 6
            pids = executor.worker_pids()
            assert pids and all(pid != os.getpid() for pid in pids)

    def test_restart_kills_the_workers_it_started(self):
        executor = ProcessPoolTaskExecutor(1)
        executor.submit(_sleep_return, 30.0, None)  # occupy the worker
        deadline = time.monotonic() + 10.0
        while not executor.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = executor.worker_pids()
        assert pids, "worker never registered"
        executor.restart("hung task")
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # killed *and* reaped: pid is gone
        # The backend is immediately usable with a fresh pool.
        assert executor.result(executor.submit(_double, 5)) == 10
        assert executor.worker_pids().isdisjoint(pids)
        executor.close()

    def test_worker_death_surfaces_as_worker_crash(self):
        executor = ProcessPoolTaskExecutor(1)
        handle = executor.submit(os._exit, 13)
        with pytest.raises(WorkerCrash):
            executor.result(handle)
        executor.restart("broken pool")
        executor.close()

    def test_deadline_is_hard(self):
        executor = ProcessPoolTaskExecutor(1)
        handle = executor.submit(_sleep_return, 30.0, None)
        with pytest.raises(TaskTimeout):
            executor.result(handle, timeout=0.05)
        executor.restart("timed out")
        executor.close()


class TestSoftDeadlineEngine:
    """serial: a breached ``task_timeout`` warns and journals instead of
    silently passing (nothing inline can be killed)."""

    @pytest.mark.parametrize("executor", ["serial"])
    def test_breach_is_counted_and_journalled(
        self, executor, tmp_path, caplog
    ):
        from repro.obs.journal import EventJournal, read_events, scoped_journal

        journal = EventJournal.in_dir(tmp_path / "journal")
        registry = MetricsRegistry()
        inputs = [(f"k{i}", i) for i in range(20)] + [("poison", 99)]
        with scoped_registry(registry), scoped_journal(journal):
            with MapReduceEngine(
                n_workers=2,
                executor=executor,
                min_parallel_records=8,
                task_timeout=0.05,
            ) as engine:
                with caplog.at_level("WARNING", logger="repro.mapreduce.engine"):
                    output = engine.run(
                        HangingJob(
                            str(tmp_path / "marker"),
                            hang_seconds=0.3,
                            hang_times=1,
                        ),
                        inputs,
                    )
        assert len(output) == len(inputs)  # the task was never abandoned
        counters = dict(registry.counters())
        assert counters["mapreduce.task_deadline_misses"] >= 1
        assert "mapreduce.pool_restarts" not in counters
        events = [
            e for e in read_events(journal.path)
            if e["event"] == "task_deadline"
        ]
        assert events and events[0]["executor"] == executor
        assert "exceeded task_timeout" in caplog.text
