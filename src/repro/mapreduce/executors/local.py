"""Single-host executors: serial and process pool.

Both live behind the :class:`~repro.mapreduce.executors.base.TaskExecutor`
protocol so the engine's fault tolerance (retry rounds, backoff,
quarantine, backend restarts) is identical across them; only the
dispatch mechanism differs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Set

from repro.mapreduce.executors.base import TaskExecutor, TaskTimeout, WorkerCrash
from repro.utils.validation import require

__all__ = [
    "ProcessPoolTaskExecutor",
    "SerialExecutor",
]

logger = logging.getLogger(__name__)


class SerialExecutor(TaskExecutor):
    """Run tasks inline in the caller — zero overhead, full debugger.

    A handle is a deferred thunk, awaited by running it in the caller,
    under the caller's registry, trace and journal.  ``parallelism ==
    1`` makes the engine run every task inline; it also runs a job too
    small to dispatch through an instance of this class, whatever its
    backend.  Nothing here can time a task out, so the engine checks
    ``task_timeout`` after the fact (a soft breach).
    """

    name = "serial"
    parallelism = 1

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        return (fn, args)

    def result(self, handle: Any, timeout: Optional[float] = None) -> Any:
        fn, args = handle
        return fn(*args)

    def restart(self, reason: str) -> None:
        """Nothing to tear down; the caller is the worker."""

    def close(self) -> None:
        pass


def _register_worker_pid(pid_queue: Any) -> None:
    """Pool initializer: report this worker's pid to the parent.

    Runs once per worker process before any task.  The parent drains
    the queue whenever it needs the fleet roster — the *public* basis
    for :meth:`ProcessPoolTaskExecutor.restart`'s kill-children
    contract (``ProcessPoolExecutor`` offers no supported way to
    enumerate its workers).
    """
    pid_queue.put(os.getpid())


class ProcessPoolTaskExecutor(TaskExecutor):
    """The classic backend: a lazily created ``ProcessPoolExecutor``.

    Worker pids are collected through a pool *initializer* (a public
    ``ProcessPoolExecutor`` hook) into a ``multiprocessing.SimpleQueue``
    so :meth:`restart` can put hung workers down without touching the
    pool's private ``_processes`` map.  A crash surfaces as
    :class:`WorkerCrash`, a missed deadline as :class:`TaskTimeout`.
    """

    name = "processes"

    def __init__(self, n_workers: int = 2) -> None:
        require(n_workers >= 1, "n_workers must be at least 1")
        self.parallelism = n_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pid_queue: Optional[Any] = None
        self._worker_pids: Set[int] = set()

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Fresh queue per pool generation: pids registered by a
            # previous (killed) pool can never leak into this roster.
            self._pid_queue = multiprocessing.SimpleQueue()
            self._worker_pids = set()
            self._pool = ProcessPoolExecutor(
                max_workers=self.parallelism,
                initializer=_register_worker_pid,
                initargs=(self._pid_queue,),
            )
        return self._pool

    @property
    def active(self) -> bool:
        return self._pool is not None

    def _drain_roster(self) -> Set[int]:
        """Fold newly registered worker pids into the roster."""
        queue = self._pid_queue
        if queue is not None:
            while not queue.empty():
                self._worker_pids.add(queue.get())
        return self._worker_pids

    def worker_pids(self) -> Set[int]:
        """Pids of every worker the current pool has started."""
        return set(self._drain_roster())

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        return self._get_pool().submit(fn, *args)

    def result(self, handle: Any, timeout: Optional[float] = None) -> Any:
        try:
            return handle.result(timeout=timeout)
        except BrokenProcessPool as exc:
            raise WorkerCrash(str(exc) or "worker process died") from exc
        except FuturesTimeout:
            raise TaskTimeout(
                f"worker still running after {timeout}s"
            ) from None

    def restart(self, reason: str) -> None:
        """Kill every worker of the current pool and discard it.

        ``shutdown`` alone would wait forever on a hung worker, so each
        registered worker is SIGKILLed first; the shutdown then returns
        once the pool's own manager thread has reaped them.  They must
        not be reaped here: ``multiprocessing`` sees a worker's exit only
        when it reaps it itself, and a worker reaped elsewhere stays
        "alive" to the manager thread, which then spins forever and
        hangs the interpreter at exit.  The next :meth:`submit` builds a
        fresh pool with a fresh roster.
        """
        if self._pool is None:
            return
        pids = self._drain_roster()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        self._pid_queue = None
        self._worker_pids = set()
        logger.warning(
            "process pool killed and discarded (%s): %d worker(s)",
            reason, len(pids),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pid_queue = None
            self._worker_pids = set()
