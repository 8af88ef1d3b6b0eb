"""The :class:`TaskExecutor` protocol: one engine, many backends.

The paper ran BAYWATCH on a 13-node Hadoop cluster; the engine's job
here is the *computation* (partitioned reduce tasks, retry rounds,
backoff, quarantine) while the executor supplies the *mechanism* —
where a task runs and how a stuck one is put down.  Three backends
implement the protocol:

- :class:`~repro.mapreduce.executors.local.SerialExecutor` — inline,
  zero dispatch overhead, the debugging default;
- :class:`~repro.mapreduce.executors.local.ProcessPoolTaskExecutor` —
  worker processes, full isolation, hung workers can be reaped;
- :class:`~repro.mapreduce.executors.shardqueue.ShardQueueExecutor` —
  a file-backed task queue under the checkpoint directory that any
  number of ``repro worker`` processes (local or remote, over a shared
  filesystem) drain by atomic-rename claims.

The engine speaks to all of them through four calls — :meth:`submit`,
:meth:`result`, :meth:`restart`, :meth:`close` — plus one trait,
``parallelism``: how many tasks can genuinely run at once.  Its one
task loop drives every backend the same way.  At 1 (or for a job too
small to dispatch) it submits the tasks to a
:class:`~repro.mapreduce.executors.local.SerialExecutor`, which runs
them inline, where nothing can kill a late one, so a missed
``task_timeout`` is a *soft* breach: warn and journal a
``task_deadline`` event.  Dispatched tasks run in other processes,
which :meth:`restart` kills, so there a :class:`TaskTimeout` is
*hard*: the task is presumed lost, the backend restarts, and the task
is retried.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

__all__ = [
    "EXECUTOR_NAMES",
    "TaskExecutor",
    "TaskTimeout",
    "WorkerCrash",
    "make_executor",
]

#: The backends ``make_executor`` (and the CLI ``--executor`` flag)
#: accept.
EXECUTOR_NAMES: Tuple[str, ...] = (
    "serial",
    "processes",
    "shard-queue",
)


class TaskTimeout(Exception):
    """A task missed its ``task_timeout`` deadline.

    The task is presumed hung and abandoned: the engine restarts the
    backend (killing it) and retries the task.
    """


class WorkerCrash(Exception):
    """A worker died mid-task (the backend itself may be broken).

    The executor-agnostic analogue of ``BrokenProcessPool``: the engine
    responds by restarting the backend, re-running lost tasks without
    charging their retry budget, and charging one attempt to the task
    the crash was observed on.
    """


class TaskExecutor:
    """Base class / protocol for engine task backends.

    Subclasses set ``name`` and ``parallelism`` and implement :meth:`submit`,
    :meth:`result`, :meth:`restart`, and :meth:`close`.  Handles are
    opaque to the engine — a future, a thunk, a task file name.
    """

    #: Short name used in logs, journal events, and CLI flags.
    name: str = "abstract"
    #: Tasks that can truly run concurrently (1 = serial inline path).
    parallelism: int = 1

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        """Schedule ``fn(*args)``; returns an opaque handle."""
        raise NotImplementedError

    def result(self, handle: Any, timeout: Optional[float] = None) -> Any:
        """Await one handle.

        Raises the task's own exception if it failed,
        :class:`TaskTimeout` if it missed ``timeout`` seconds, or
        :class:`WorkerCrash` if its worker died.
        """
        raise NotImplementedError

    def restart(self, reason: str) -> None:
        """Tear the backend down, killing stragglers, so the next
        :meth:`submit` starts clean.

        This is the *public* kill-children contract: the engine calls it
        on crashes and hard timeouts and may immediately resubmit the
        surviving work.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        raise NotImplementedError

    @property
    def active(self) -> bool:
        """True once the backend has lazily spun up its resources."""
        return False

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} parallelism={self.parallelism}>"


def make_executor(
    name: str,
    *,
    n_workers: int = 1,
    queue_dir: Optional[str] = None,
    claim_ttl: float = 30.0,
    poll_interval: float = 0.05,
) -> TaskExecutor:
    """Build a backend by name (see :data:`EXECUTOR_NAMES`).

    ``n_workers`` sizes the process pool; for the shard queue it
    is the *expected* worker-fleet size (used only for the parallelism
    trait — actual workers are whatever ``repro worker`` processes are
    pointed at the queue).  ``queue_dir``/``claim_ttl``/``poll_interval``
    apply to the shard queue only; a queue left unbound here is bound by
    the sharded runner to ``<checkpoint-dir>/queue``.
    """
    from repro.mapreduce.executors.local import (
        ProcessPoolTaskExecutor,
        SerialExecutor,
    )
    from repro.mapreduce.executors.shardqueue import ShardQueueExecutor

    if name == "serial":
        return SerialExecutor()
    if name == "processes":
        return ProcessPoolTaskExecutor(n_workers)
    if name == "shard-queue":
        return ShardQueueExecutor(
            queue_dir,
            parallelism=max(2, n_workers),
            claim_ttl=claim_ttl,
            poll_interval=poll_interval,
        )
    raise ValueError(
        f"unknown executor {name!r}; known: {', '.join(EXECUTOR_NAMES)}"
    )
