"""The :class:`TaskExecutor` protocol: one engine, many backends.

The paper ran BAYWATCH on a 13-node Hadoop cluster; the engine's job
here is the *computation* (map/shuffle/reduce, retries, backoff,
quarantine) while the executor supplies the *mechanism* — where a task
runs and how a stuck one is put down.  Four backends implement the
protocol:

- :class:`~repro.mapreduce.executors.local.SerialExecutor` — inline,
  zero dispatch overhead, the debugging default;
- :class:`~repro.mapreduce.executors.local.ThreadPoolTaskExecutor` —
  worker threads, the right backend for the batched scipy.fft kernels
  that release the GIL (``workers=`` inside one process);
- :class:`~repro.mapreduce.executors.local.ProcessPoolTaskExecutor` —
  worker processes, full isolation, hung workers can be reaped;
- :class:`~repro.mapreduce.executors.shardqueue.ShardQueueExecutor` —
  a file-backed task queue under the checkpoint directory that any
  number of ``repro worker`` processes (local or remote, over a shared
  filesystem) drain by atomic-rename claims.

The engine speaks to all of them through four calls — :meth:`submit`,
:meth:`result`, :meth:`restart`, :meth:`close` — plus three traits:

``parallelism``
    How many tasks can genuinely run at once; 1 keeps the engine on its
    serial inline path.
``reaps_hung_tasks``
    Whether :meth:`restart` actually kills a straggler.  When True, a
    :class:`TaskTimeout` from :meth:`result` is a *hard* failure (the
    task is presumed lost; the engine restarts the backend and retries
    it).  When False (serial, threads — nothing can kill a running
    Python thread), the engine downgrades the deadline to a *soft*
    breach: warn, journal a ``task_deadline`` event, and let the task
    finish.
``in_process``
    Whether tasks share the caller's interpreter.  In-process backends
    see the ambient metrics registry / trace / journal directly, so the
    engine skips the snapshot-shipping wrapper it uses for process and
    shard-queue workers (swapping the module-global registry from a
    worker thread would race the parent's).
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
    "threads",
    "processes",
    "shard-queue",
)


class TaskTimeout(Exception):
    """A task missed its ``task_timeout`` deadline.

    From a backend with ``reaps_hung_tasks=True`` this means the task is
    presumed hung and abandoned (the engine restarts the backend and
    retries).  From a non-reaping backend it is advisory: the engine
    journals the breach and keeps waiting.
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

    Subclasses set the class traits and implement :meth:`submit`,
    :meth:`result`, :meth:`restart`, and :meth:`close`.  Handles are
    opaque to the engine — a future, a thunk, a task file name.
    """

    #: Short name used in logs, journal events, and CLI flags.
    name: str = "abstract"
    #: Tasks that can truly run concurrently (1 = serial inline path).
    parallelism: int = 1
    #: True when :meth:`restart` kills stragglers (hard deadlines).
    reaps_hung_tasks: bool = False
    #: True when tasks share the caller's interpreter (ambient telemetry).
    in_process: bool = True

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
        """Tear the backend down — killing stragglers where the backend
        can — so the next :meth:`submit` starts clean.

        This is the *public* kill-children contract: the engine calls it
        on crashes and hard timeouts and may immediately resubmit the
        surviving work.  Backends that cannot kill (threads) discard the
        pool and leak the stragglers, which is still safe — they hold no
        engine state.
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

    ``n_workers`` sizes the thread/process pools; for the shard queue it
    is the *expected* worker-fleet size (used only for the parallelism
    trait — actual workers are whatever ``repro worker`` processes are
    pointed at the queue).  ``queue_dir``/``claim_ttl``/``poll_interval``
    apply to the shard queue only; a queue left unbound here is bound by
    the sharded runner to ``<checkpoint-dir>/queue``.
    """
    from repro.mapreduce.executors.local import (
        ProcessPoolTaskExecutor,
        SerialExecutor,
        ThreadPoolTaskExecutor,
    )
    from repro.mapreduce.executors.shardqueue import ShardQueueExecutor

    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return ThreadPoolTaskExecutor(n_workers)
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
