"""Fault-injection helpers for exercising the engine's fault tolerance.

These jobs misbehave on purpose — raising, killing their own worker
process, or hanging — so tests (and the CI fault-tolerance smoke job)
can drive the :class:`~repro.mapreduce.MapReduceEngine` recovery paths
deterministically:

- :class:`PoisonPillJob` — a marked key fails on *every* attempt (the
  quarantine path);
- :class:`TransientFaultJob` — a marked key fails its first ``n``
  attempts, then succeeds (the retry path);
- :class:`WorkerKillerJob` — a marked key SIGKILLs its worker process
  the first ``n`` attempts (the pool-restart path);
- :class:`HangingJob` — a marked key sleeps far past any sane
  ``task_timeout`` (the hung-worker watchdog path).

Failure state that must survive process boundaries (how many times has
the fault fired?) lives in a :class:`FaultMarker` file, the idiom the
engine's own retry tests established.

:class:`WorkerFleet` rounds the kit out for the shard-queue backend: a
miniature "cluster" of ``run_worker`` processes draining one queue
directory, with SIGKILL and respawn controls so tests can prove claim
expiry and crash recovery against real worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Iterable, Iterator, List, Optional

from repro.mapreduce.job import KeyValue, MapReduceJob

POISON_KEY = "poison"


class FaultMarker:
    """File-backed counter shared between parent and worker processes."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def count(self) -> int:
        try:
            with open(self.path) as handle:
                return int(handle.read() or 0)
        except FileNotFoundError:
            return 0

    def bump(self) -> int:
        value = self.count() + 1
        with open(self.path, "w") as handle:
            handle.write(str(value))
        return value


class _IdentityJob(MapReduceJob):
    """Base: identity reduce over 4 partitions."""

    n_partitions = 4

    def __init__(self, marker_path: str, *, poison_key: Any = POISON_KEY) -> None:
        self.marker = FaultMarker(marker_path)
        self.poison_key = poison_key

    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        for value in values:
            yield key, value


class PoisonPillJob(_IdentityJob):
    """The marked key fails on every reduce attempt."""

    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        if key == self.poison_key:
            self.marker.bump()
            raise RuntimeError(f"poison pill in reduce: {key!r}")
        for value in values:
            yield key, value


class TransientFaultJob(_IdentityJob):
    """The marked key fails its first ``fail_times`` reduce attempts."""

    def __init__(
        self, marker_path: str, fail_times: int, *, poison_key: Any = POISON_KEY
    ) -> None:
        super().__init__(marker_path, poison_key=poison_key)
        self.fail_times = fail_times

    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        if key == self.poison_key and self.marker.bump() <= self.fail_times:
            raise RuntimeError(f"transient fault: {key!r}")
        for value in values:
            yield key, value


class WorkerKillerJob(_IdentityJob):
    """The marked key SIGKILLs its own worker the first ``kill_times``
    attempts — the mid-task worker death the engine must absorb by
    restarting the pool and re-running the lost tasks.

    Only meaningful with ``n_workers > 1``; in a serial engine this
    would kill the caller, so :meth:`reduce` refuses to fire unless it
    is running in a different process than the one that created it.

    Each kill is claimed by atomically creating one marker file
    (``<marker_path>.kill-<n>``, ``O_CREAT|O_EXCL``), one file per
    allowed kill.  A read-bump-write counter would race between
    concurrent workers: one can read the file mid-truncate as zero and
    kill again, until no worker is left to drain the queue.
    """

    def __init__(
        self, marker_path: str, kill_times: int = 1, *, poison_key: Any = POISON_KEY
    ) -> None:
        super().__init__(marker_path, poison_key=poison_key)
        self.kill_times = kill_times
        self._parent_pid = os.getpid()

    def _claim_kill(self) -> bool:
        """Claim one of the ``kill_times`` kills; False once all are taken."""
        for shot in range(self.kill_times):
            try:
                fd = os.open(
                    f"{self.marker.path}.kill-{shot}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        if (
            key == self.poison_key
            and os.getpid() != self._parent_pid
            and self._claim_kill()
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        for value in values:
            yield key, value


class HangingJob(_IdentityJob):
    """The marked key sleeps ``hang_seconds`` the first ``hang_times``
    attempts — a hung worker the ``task_timeout`` watchdog must reap."""

    def __init__(
        self,
        marker_path: str,
        *,
        hang_seconds: float = 60.0,
        hang_times: int = 1,
        poison_key: Any = POISON_KEY,
    ) -> None:
        super().__init__(marker_path, poison_key=poison_key)
        self.hang_seconds = hang_seconds
        self.hang_times = hang_times

    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        if key == self.poison_key and self.marker.bump() <= self.hang_times:
            time.sleep(self.hang_seconds)
        for value in values:
            yield key, value


def _fleet_worker_main(queue_dir: str, poll_interval: float, claim_ttl: float) -> None:
    """Entry point of one fleet worker process (module-level: picklable)."""
    from repro.mapreduce.executors.shardqueue import run_worker

    run_worker(queue_dir, poll_interval=poll_interval, claim_ttl=claim_ttl)


class WorkerFleet:
    """N shard-queue worker processes, the test stand-in for N hosts.

    Each worker is a real OS process running
    :func:`~repro.mapreduce.executors.shardqueue.run_worker` against
    ``queue_dir``, so SIGKILLing one (:meth:`kill_one`) leaves a live
    claim behind exactly as a crashed remote host would.  With
    ``respawn=True`` a monitor thread replaces dead workers, modelling
    an operator (or supervisor) keeping the fleet at strength — the
    mode jobs that repeatedly kill their worker need in order to ever
    finish.  Use as a context manager; exit terminates the fleet.
    """

    def __init__(
        self,
        queue_dir: str,
        n_workers: int = 2,
        *,
        poll_interval: float = 0.02,
        claim_ttl: float = 1.0,
        respawn: bool = False,
    ) -> None:
        self.queue_dir = str(queue_dir)
        self.n_workers = n_workers
        self.poll_interval = poll_interval
        self.claim_ttl = claim_ttl
        self.respawn = respawn
        self._procs: List[multiprocessing.Process] = []
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    def _spawn(self) -> multiprocessing.Process:
        proc = multiprocessing.Process(
            target=_fleet_worker_main,
            args=(self.queue_dir, self.poll_interval, self.claim_ttl),
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> "WorkerFleet":
        self._procs = [self._spawn() for _ in range(self.n_workers)]
        if self.respawn:
            self._monitor = threading.Thread(
                target=self._keep_at_strength, daemon=True
            )
            self._monitor.start()
        return self

    def _keep_at_strength(self) -> None:
        while not self._stop.wait(0.05):
            for index, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._procs[index] = self._spawn()

    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs if proc.is_alive()]

    def kill_one(self) -> int:
        """SIGKILL one live worker; returns its pid (the crashed host)."""
        for proc in self._procs:
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5.0)
                return proc.pid
        raise RuntimeError("no live worker to kill")

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self._procs = []

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
