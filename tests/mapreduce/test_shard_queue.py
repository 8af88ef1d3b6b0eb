"""The file-backed multi-host shard queue, end to end.

Protocol tests drive the coordinator and a worker in one process;
the two-"host" tests run real :class:`WorkerFleet` processes against
the queue and SIGKILL them mid-task to prove the claim-expiry story:
a crashed worker costs one lease, never the run.
"""

import os
import time

import pytest

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import (
    ShardQueueExecutor,
    TaskTimeout,
    WorkerCrash,
    run_worker,
)
from repro.mapreduce.executors.shardqueue import (
    CLAIMS_DIR,
    STOP_FILE,
    TASKS_DIR,
    _claim_next,
)
from repro.mapreduce.testing import (
    POISON_KEY,
    TransientFaultJob,
    WorkerFleet,
    WorkerKillerJob,
)
from repro.obs import MetricsRegistry, scoped_registry
from repro.obs.journal import EventJournal, read_events, scoped_journal


def _add(a, b):
    return a + b


def _boom():
    raise ValueError("shipped failure")


@pytest.fixture
def queue(tmp_path):
    return str(tmp_path / "queue")


class TestQueueProtocol:
    def test_submit_worker_result_round_trip(self, queue):
        executor = ShardQueueExecutor(queue, poll_interval=0.01)
        handle = executor.submit(_add, 19, 23)
        assert run_worker(queue, max_tasks=1, poll_interval=0.01) == 1
        assert executor.result(handle, timeout=5.0) == 42

    def test_task_exception_is_shipped_back(self, queue):
        executor = ShardQueueExecutor(queue, poll_interval=0.01)
        handle = executor.submit(_boom)
        run_worker(queue, max_tasks=1, poll_interval=0.01)
        with pytest.raises(ValueError, match="shipped failure"):
            executor.result(handle, timeout=5.0)

    def test_unbound_submit_explains_how_to_bind(self):
        executor = ShardQueueExecutor()
        assert not executor.bound
        with pytest.raises(RuntimeError, match="checkpoint"):
            executor.submit(_add, 1, 2)

    def test_claims_are_exclusive(self, queue):
        executor = ShardQueueExecutor(queue)
        executor.submit(_add, 1, 1)
        assert _claim_next(queue) is not None
        assert _claim_next(queue) is None  # exactly one claimant wins

    def test_result_deadline_raises_task_timeout(self, queue):
        executor = ShardQueueExecutor(queue, poll_interval=0.01)
        handle = executor.submit(_add, 1, 1)  # no worker will come
        with pytest.raises(TaskTimeout):
            executor.result(handle, timeout=0.05)

    def test_stale_claim_requeued_and_journalled(self, queue, tmp_path):
        journal = EventJournal.in_dir(tmp_path / "journal")
        executor = ShardQueueExecutor(
            queue, claim_ttl=0.1, poll_interval=0.01
        )
        handle = executor.submit(_add, 2, 3)
        name = _claim_next(queue)  # a "worker" claims, then dies silently
        assert name == handle
        time.sleep(0.25)  # lease goes stale (no renewals)
        with scoped_journal(journal):
            # The result poll requeues the claim; a live worker then
            # finishes the task.
            deadline = time.monotonic() + 5.0
            while not os.listdir(os.path.join(queue, TASKS_DIR)):
                executor._expire_if_stale(
                    handle,
                    os.path.join(queue, CLAIMS_DIR, handle),
                    os.path.join(queue, TASKS_DIR, handle),
                )
                assert time.monotonic() < deadline
                time.sleep(0.01)
            run_worker(queue, max_tasks=1, poll_interval=0.01)
            assert executor.result(handle, timeout=5.0) == 5
        events = [
            e for e in read_events(journal.path)
            if e["event"] == "claim_expired"
        ]
        assert events and events[0]["task"] == handle

    def test_repeated_expiry_becomes_worker_crash(self, queue):
        executor = ShardQueueExecutor(
            queue, claim_ttl=0.05, poll_interval=0.01, max_claim_expiries=2
        )
        handle = executor.submit(_add, 1, 2)
        claim = os.path.join(queue, CLAIMS_DIR, handle)
        task = os.path.join(queue, TASKS_DIR, handle)
        with pytest.raises(WorkerCrash, match="lost 2 workers"):
            for _ in range(2):
                assert _claim_next(queue) == handle  # claim...
                time.sleep(0.12)  # ...and die without renewing the lease
                executor._expire_if_stale(handle, claim, task)
        # The poisoned task was withdrawn outright.
        assert os.listdir(os.path.join(queue, TASKS_DIR)) == []

    def test_close_raises_stop_sentinel_for_workers(self, queue):
        executor = ShardQueueExecutor(queue, poll_interval=0.01)
        executor.close()
        assert os.path.exists(os.path.join(queue, STOP_FILE))
        # An idle worker drains and exits instead of spinning forever.
        assert run_worker(queue, poll_interval=0.01) == 0

    def test_bind_clears_a_previous_runs_sentinel(self, queue):
        ShardQueueExecutor(queue).close()
        ShardQueueExecutor(queue)  # rebind
        assert not os.path.exists(os.path.join(queue, STOP_FILE))

    def test_restart_clears_all_outstanding_work(self, queue):
        executor = ShardQueueExecutor(queue)
        executor.submit(_add, 1, 1)
        executor.submit(_add, 2, 2)
        _claim_next(queue)
        executor.restart("test")
        for sub in (TASKS_DIR, CLAIMS_DIR):
            assert os.listdir(os.path.join(queue, sub)) == []

    def test_worker_idle_exit(self, queue):
        ShardQueueExecutor(queue)  # create the tree, no stop sentinel
        start = time.monotonic()
        assert run_worker(queue, poll_interval=0.01, idle_exit=0.1) == 0
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_poll_interval_must_be_finite_and_positive(self, queue, interval):
        message = "poll_interval must be finite and positive"
        with pytest.raises(ValueError, match=message):
            ShardQueueExecutor(queue, poll_interval=interval)
        with pytest.raises(ValueError, match=message):
            run_worker(queue, poll_interval=interval, idle_exit=0.0)


INPUTS = ([("ok", 1), (POISON_KEY, 2), ("fine", 3), ("more", 4)]) * 30


class TestTwoHostFleet:
    """An engine coordinating real worker processes over the queue."""

    def _engine(self, queue, **kwargs):
        executor = ShardQueueExecutor(
            queue, claim_ttl=1.0, poll_interval=0.02
        )
        return MapReduceEngine(
            n_workers=2, min_parallel_records=8, executor=executor, **kwargs
        )

    def test_fleet_completes_a_run(self, queue, tmp_path):
        registry = MetricsRegistry()
        with scoped_registry(registry), WorkerFleet(queue, 2):
            with self._engine(queue, max_retries=2) as engine:
                output = engine.run(
                    TransientFaultJob(str(tmp_path / "marker"), fail_times=1),
                    INPUTS,
                )
        assert len(output) == len(INPUTS)
        assert dict(registry.counters())["mapreduce.task_retries"] >= 1
        assert engine.last_quarantine == []

    def test_sigkilled_worker_costs_one_lease_not_the_run(
        self, queue, tmp_path
    ):
        """The flagship crash story: a worker is SIGKILLed mid-task, its
        claim expires, the surviving "host" picks the task up, and the
        run finishes with zero backend restarts.

        The task deadline bounds the wait: if both workers died, nothing
        would drain the queue and the engine would poll forever; with
        it, the run raises ``TaskTimeout`` after its three 10 s attempts.
        """
        journal = EventJournal.in_dir(tmp_path / "journal")
        marker = str(tmp_path / "marker")
        registry = MetricsRegistry()
        with scoped_journal(journal), scoped_registry(registry):
            with WorkerFleet(queue, 2, claim_ttl=0.5) as fleet:
                with self._engine(
                    queue, max_retries=2, task_timeout=10.0
                ) as engine:
                    engine.executor.claim_ttl = 0.5
                    output = engine.run(
                        WorkerKillerJob(marker, kill_times=1), INPUTS
                    )
                survivors = fleet.pids()
        assert len(output) == len(INPUTS)
        assert len(survivors) == 1  # one host really died
        # Recovery was a lease, not a backend restart.
        assert "mapreduce.pool_restarts" not in dict(registry.counters())
        expired = [
            e for e in read_events(journal.path)
            if e["event"] == "claim_expired"
        ]
        assert expired, "the crashed worker's claim never expired"

    def test_worker_task_pickups_are_journalled(self, queue, tmp_path):
        executor = ShardQueueExecutor(queue, poll_interval=0.01)
        journal = EventJournal.in_dir(tmp_path / "journal")
        handle = executor.submit(_add, 1, 1)
        run_worker(queue, max_tasks=1, poll_interval=0.01, journal=journal)
        assert executor.result(handle, timeout=5.0) == 2
        events = [
            e for e in read_events(journal.path)
            if e["event"] == "worker_task"
        ]
        assert [e["task"] for e in events] == [handle]
