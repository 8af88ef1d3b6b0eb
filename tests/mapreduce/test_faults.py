"""Fault-injection tests: quarantine, pool recovery, timeouts.

``TestFaultMatrix`` at the bottom runs the whole fault menagerie over
every execution backend — the engine's recovery logic is supposed to be
executor-agnostic, and the matrix is what holds it to that.  The fault
counts are read from a scoped :class:`~repro.obs.MetricsRegistry`, as
operators read them from a run's telemetry.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.mapreduce.engine import MapReduceEngine, QuarantinedTask
from repro.mapreduce.executors import ShardQueueExecutor
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.testing import (
    POISON_KEY,
    FaultMarker,
    HangingJob,
    PoisonPillJob,
    TransientFaultJob,
    WorkerFleet,
    WorkerKillerJob,
)
from repro.obs import MetricsRegistry, scoped_registry


@pytest.fixture
def marker(tmp_path):
    return str(tmp_path / "failures")


@pytest.fixture
def registry():
    """The registry every engine call in the test counts into."""
    registry = MetricsRegistry()
    with scoped_registry(registry):
        yield registry


INPUTS = [("ok", 1), (POISON_KEY, 2), ("fine", 3), ("more", 4)]
PARALLEL_INPUTS = INPUTS * 30  # over min_parallel_records


def _keys(output):
    return sorted(key for key, _value in output)


def _counts(registry):
    """The ``mapreduce.*`` fault counters, 0 for those never touched."""
    return Counter({
        name.split(".", 1)[1]: value
        for name, value in registry.counters()
        if name.startswith("mapreduce.")
    })


class TestQuarantineSerial:
    def test_poison_reduce_is_quarantined_not_fatal(self, marker, registry):
        # The poison key shares its partition with "more": the partition
        # runs twice (initial attempt + 1 retry), then the poison key
        # once more alone.
        engine = MapReduceEngine(max_retries=1, quarantine=True)
        output = engine.run(PoisonPillJob(marker), INPUTS)
        assert _keys(output) == ["fine", "more", "ok"]
        assert _counts(registry)["tasks_quarantined"] == 1
        entry = engine.last_quarantine[0]
        assert isinstance(entry, QuarantinedTask)
        assert entry.phase == "reduce"
        assert entry.key == POISON_KEY
        assert "poison pill" in entry.error
        assert entry.attempts == FaultMarker(marker).count() == 3

    def test_poison_alone_in_its_partition_is_not_isolated(
        self, marker, registry
    ):
        # Without "more" the poison key has its partition to itself: it
        # is quarantined as soon as its retries are spent.
        inputs = [(key, value) for key, value in INPUTS if key != "more"]
        engine = MapReduceEngine(max_retries=1, quarantine=True)
        output = engine.run(PoisonPillJob(marker), inputs)
        assert _keys(output) == ["fine", "ok"]
        [entry] = engine.last_quarantine
        assert entry.key == POISON_KEY
        assert entry.attempts == FaultMarker(marker).count() == 2
        assert _counts(registry)["tasks_quarantined"] == 1

    def test_without_quarantine_poison_still_raises(self, marker):
        engine = MapReduceEngine(max_retries=1)
        with pytest.raises(RuntimeError, match="poison pill"):
            engine.run(PoisonPillJob(marker), INPUTS)

    def test_quarantine_counter_recorded(self, marker):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            engine = MapReduceEngine(max_retries=0, quarantine=True)
            engine.run(PoisonPillJob(marker), INPUTS)
        counters = dict(registry.counters())
        assert counters["mapreduce.tasks_quarantined"] == 1

    def test_quarantine_reset_between_runs(self, marker, tmp_path):
        engine = MapReduceEngine(max_retries=0, quarantine=True)
        engine.run(PoisonPillJob(marker), INPUTS)
        assert len(engine.last_quarantine) == 1
        clean = str(tmp_path / "clean")
        engine.run(PoisonPillJob(clean, poison_key="absent"), INPUTS)
        assert engine.last_quarantine == []


class TestQuarantineParallel:
    def test_poison_reduce_quarantined_across_workers(self, marker):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=1, quarantine=True
        ) as engine:
            output = engine.run(PoisonPillJob(marker), PARALLEL_INPUTS)
        # Every record of the three healthy keys survives.
        assert len(output) == 3 * 30
        assert POISON_KEY not in _keys(output)
        assert [e.key for e in engine.last_quarantine] == [POISON_KEY]

    def test_transient_fault_recovers_without_quarantine(
        self, marker, registry
    ):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=2, quarantine=True
        ) as engine:
            output = engine.run(
                TransientFaultJob(marker, fail_times=1), PARALLEL_INPUTS
            )
        assert len(output) == len(PARALLEL_INPUTS)
        assert engine.last_quarantine == []
        assert _counts(registry)["task_retries"] >= 1


SLOW_KEY = "slow"


class _SlowBesideKiller(WorkerKillerJob):
    """The poison key kills its worker; ``SLOW_KEY`` takes a second."""

    def reduce(self, key, values):
        if key == SLOW_KEY:
            time.sleep(1.0)
        return super().reduce(key, values)


class TestPoolRecovery:
    def test_killed_worker_restarts_pool_and_recovers(self, marker, registry):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=2
        ) as engine:
            output = engine.run(
                WorkerKillerJob(marker, kill_times=1), PARALLEL_INPUTS
            )
        assert len(output) == len(PARALLEL_INPUTS)
        assert _counts(registry)["pool_restarts"] >= 1

    def test_persistent_killer_without_quarantine_raises(self, marker):
        from repro.mapreduce.executors import WorkerCrash

        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=1
        ) as engine:
            with pytest.raises(WorkerCrash):
                engine.run(
                    WorkerKillerJob(marker, kill_times=100), PARALLEL_INPUTS
                )

    def test_persistent_killer_with_quarantine_completes(self, marker):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=1, quarantine=True
        ) as engine:
            output = engine.run(
                WorkerKillerJob(marker, kill_times=100), PARALLEL_INPUTS
            )
        # The poisoned key group died with its worker on every attempt
        # (including pool-isolated ones) and was quarantined; everything
        # else survived.
        assert len(output) == 3 * 30
        assert [e.key for e in engine.last_quarantine] == [POISON_KEY]

    def test_crash_charged_to_a_slow_neighbour_spares_it(self, marker):
        # A worker death is charged to the first task waited on: here
        # the slow one-key partition ahead of the killer's, in every
        # round until its retries are spent.  It then runs alone on the
        # pool and keeps its output; only the killer is quarantined.
        job = _SlowBesideKiller(marker, kill_times=100)
        assert job.partition(SLOW_KEY) < job.partition(POISON_KEY)
        inputs = [(SLOW_KEY, i) for i in range(10)]
        inputs += [(POISON_KEY, i) for i in range(10)]
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=1, quarantine=True
        ) as engine:
            output = engine.run(job, inputs)
        assert sorted(output) == [(SLOW_KEY, i) for i in range(10)]
        [entry] = engine.last_quarantine
        assert entry.key == POISON_KEY
        assert entry.attempts == 3  # two charged rounds, then alone

    def test_retry_budget_not_mutated_by_failures(self, marker):
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, max_retries=3, quarantine=True
        ) as engine:
            engine.run(PoisonPillJob(marker), PARALLEL_INPUTS)
            assert engine.max_retries == 3


class TestTimeouts:
    def test_hung_worker_reaped_and_task_retried(self, marker, registry):
        with MapReduceEngine(
            n_workers=2,
            min_parallel_records=8,
            max_retries=2,
            task_timeout=1.0,
        ) as engine:
            output = engine.run(
                HangingJob(marker, hang_seconds=60.0, hang_times=1),
                PARALLEL_INPUTS,
            )
        assert len(output) == len(PARALLEL_INPUTS)
        assert _counts(registry)["task_timeouts"] >= 1
        assert _counts(registry)["pool_restarts"] >= 1

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            MapReduceEngine(task_timeout=0.0)


class TestBackoff:
    @staticmethod
    def _slept_delays(marker, seed):
        engine = MapReduceEngine(
            max_retries=3, retry_backoff=10.0, backoff_seed=seed,
        )
        slept = []
        engine._sleep = slept.append
        with pytest.raises(RuntimeError):
            engine.run(PoisonPillJob(marker), INPUTS)
        return slept

    def test_backoff_jitter_stays_within_exponential_envelope(self, marker):
        slept = self._slept_delays(marker, seed=0)
        # Envelopes are 10, 20, then 40 capped at MAX_BACKOFF (30);
        # jitter draws uniformly inside each so synchronized failures
        # don't retry in lockstep.
        assert len(slept) == 3
        for delay, envelope in zip(slept, [10.0, 20.0, 30.0]):
            assert 0.0 <= delay <= envelope

    def test_backoff_is_deterministic_under_seed(self, marker):
        assert self._slept_delays(marker, 7) == self._slept_delays(marker, 7)
        assert self._slept_delays(marker, 7) != self._slept_delays(marker, 8)

    def test_backoff_delay_is_journalled(self, marker, tmp_path):
        from repro.obs.journal import EventJournal, read_events, scoped_journal

        journal = EventJournal.in_dir(tmp_path / "journal")
        engine = MapReduceEngine(
            max_retries=1, retry_backoff=0.5, backoff_seed=3,
        )
        slept = []
        engine._sleep = slept.append
        with scoped_journal(journal):
            with pytest.raises(RuntimeError):
                engine.run(PoisonPillJob(marker), INPUTS)
        events = [
            e for e in read_events(journal.path) if e["event"] == "backoff"
        ]
        assert [e["delay"] for e in events] == [round(d, 6) for d in slept]
        assert all(e["envelope"] == 0.5 for e in events)

    def test_zero_backoff_never_sleeps(self, marker):
        engine = MapReduceEngine(max_retries=2, quarantine=True)
        engine._sleep = lambda _d: pytest.fail("slept with retry_backoff=0")
        engine.run(PoisonPillJob(marker), INPUTS)


class _TwoTransientFaults(MapReduceJob):
    """Each of ``keys`` fails its first reduce attempt."""

    n_partitions = 4

    def __init__(self, marker_dir, keys):
        self.marker_dir = marker_dir
        self.keys = keys

    def reduce(self, key, values):
        marker = FaultMarker(f"{self.marker_dir}/{key}")
        if key in self.keys and marker.bump() == 1:
            raise RuntimeError(f"transient fault: {key!r}")
        for value in values:
            yield key, value


class TestRetryRounds:
    """Inline tasks retry in rounds, like dispatched ones."""

    def test_failures_of_one_round_share_one_backoff(
        self, tmp_path, registry
    ):
        from repro.obs.journal import EventJournal, read_events, scoped_journal

        job = _TwoTransientFaults(str(tmp_path), keys=("ok", POISON_KEY))
        assert job.partition("ok") != job.partition(POISON_KEY)
        journal = EventJournal.in_dir(tmp_path / "journal")
        engine = MapReduceEngine(
            max_retries=1, retry_backoff=1.0, backoff_seed=0
        )
        engine._sleep = lambda _delay: None
        with scoped_journal(journal):
            output = engine.run(job, INPUTS)
        assert sorted(output) == sorted(INPUTS)
        backoffs = [
            e for e in read_events(journal.path) if e["event"] == "backoff"
        ]
        assert len(backoffs) == 1
        assert _counts(registry)["task_retries"] == 2


EXECUTORS = ["serial", "processes", "shard-queue"]


@contextmanager
def _engine_for(executor, tmp_path, **engine_kwargs):
    """An engine on the requested backend — plus, for the shard queue,
    a live two-worker fleet draining its task directory."""
    if executor == "shard-queue":
        queue = str(tmp_path / "queue")
        backend = ShardQueueExecutor(queue, claim_ttl=1.0, poll_interval=0.02)
        with WorkerFleet(queue, 2, claim_ttl=1.0, respawn=True):
            with MapReduceEngine(
                n_workers=2, min_parallel_records=8, executor=backend,
                **engine_kwargs,
            ) as engine:
                yield engine
    else:
        with MapReduceEngine(
            n_workers=2, min_parallel_records=8, executor=executor,
            **engine_kwargs,
        ) as engine:
            yield engine


class TestFaultMatrix:
    """Identical fault handling on every backend (the executor contract)."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_poison_pill_quarantined(
        self, executor, marker, tmp_path, registry
    ):
        with _engine_for(
            executor, tmp_path, max_retries=1, quarantine=True
        ) as engine:
            output = engine.run(PoisonPillJob(marker), PARALLEL_INPUTS)
        assert len(output) == 3 * 30
        assert [e.key for e in engine.last_quarantine] == [POISON_KEY]
        assert _counts(registry)["tasks_quarantined"] == 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_transient_fault_retried_to_success(
        self, executor, marker, tmp_path, registry
    ):
        with _engine_for(executor, tmp_path, max_retries=2) as engine:
            output = engine.run(
                TransientFaultJob(marker, fail_times=1), PARALLEL_INPUTS
            )
        assert len(output) == len(PARALLEL_INPUTS)
        assert _counts(registry)["task_retries"] >= 1
        assert engine.last_quarantine == []

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_killer(self, executor, marker, tmp_path, registry):
        with _engine_for(executor, tmp_path, max_retries=2) as engine:
            output = engine.run(
                WorkerKillerJob(marker, kill_times=1), PARALLEL_INPUTS
            )
        assert len(output) == len(PARALLEL_INPUTS)
        if executor == "serial":
            # The kill guard refuses to fire in the coordinator's own
            # process; the inline backend sees a clean run.
            assert _counts(registry)["pool_restarts"] == 0
        elif executor == "processes":
            # A dead pool worker forces a backend restart.
            assert _counts(registry)["pool_restarts"] >= 1
        else:
            # The shard queue absorbs a dead worker as one expired
            # lease: the task moves to the surviving worker and the
            # backend is never restarted.
            assert _counts(registry)["pool_restarts"] == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_hanging_task(self, executor, marker, tmp_path, registry):
        hard = executor != "serial"
        with _engine_for(
            executor,
            tmp_path,
            max_retries=2,
            task_timeout=1.0 if hard else 0.05,
        ) as engine:
            output = engine.run(
                HangingJob(
                    marker,
                    hang_seconds=60.0 if hard else 0.3,
                    hang_times=1,
                ),
                PARALLEL_INPUTS,
            )
        assert len(output) == len(PARALLEL_INPUTS)
        counts = _counts(registry)
        if hard:
            # Dispatched tasks treat the deadline as fatal: restart,
            # then retry the lost task.
            assert counts["task_timeouts"] >= 1
            assert counts["pool_restarts"] >= 1
            assert counts["task_deadline_misses"] == 0
        else:
            # Inline tasks warn-and-journal, then keep the straggler's
            # result — nothing is killed or charged.
            assert counts["task_deadline_misses"] >= 1
            assert counts["pool_restarts"] == 0
            assert counts["task_timeouts"] == 0
