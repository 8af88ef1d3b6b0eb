"""Multi-host execution over a shared filesystem: the shard queue.

The paper's 13-node Hadoop deployment distributed detection tasks over
a cluster; this backend reproduces the *operational* shape with nothing
but a directory every participant can reach (the PR 3 checkpoint
directory — NFS at enterprise scale, ``tmp_path`` under test):

- the engine (the coordinator) pickles each task into
  ``<queue>/tasks/<name>`` with an atomic tmp-write-then-rename;
- any number of ``repro worker`` processes — local or on other hosts —
  *claim* a task by ``os.rename``-ing it into ``<queue>/claims/``
  (rename is atomic on POSIX: exactly one claimant wins, losers get
  ``FileNotFoundError`` and move on);
- a worker refreshes its claim's mtime while the task runs (a lease),
  writes the outcome into ``<queue>/results/<name>`` atomically, and
  only then drops the claim;
- the coordinator polls for results; a claim whose mtime goes stale by
  ``claim_ttl`` means its worker died mid-task — the claim is renamed
  back into ``tasks/`` (journalled as ``claim_expired``) and another
  worker simply picks it up.  A crashed worker therefore costs one
  lease, not the run.

A task whose claim expires ``max_claim_expiries`` times is reported as
a :class:`~repro.mapreduce.executors.base.WorkerCrash` so the engine's
ordinary retry/quarantine budget takes over (otherwise a task that
kills every worker it touches would ping-pong forever).

Task names are never reused (per-coordinator nonce + sequence), so a
zombie worker finishing an abandoned task writes an orphan result file
that nothing ever reads — harmless, and cleared on :meth:`close`.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import threading
import time
from typing import Any, Callable, Optional

from repro.mapreduce.executors.base import TaskExecutor, TaskTimeout, WorkerCrash
from repro.obs import journal_emit
from repro.utils.validation import require

__all__ = ["ShardQueueExecutor", "check_poll_interval", "run_worker"]

logger = logging.getLogger(__name__)

#: Subdirectories of a queue directory.
TASKS_DIR = "tasks"
CLAIMS_DIR = "claims"
RESULTS_DIR = "results"
#: Sentinel file telling idle workers to exit.
STOP_FILE = "stop"


def check_poll_interval(poll_interval: float) -> None:
    """Raise ``ValueError`` unless ``poll_interval`` is finite and positive.

    Zero would busy-poll an idle queue; a negative, NaN or infinite
    value would end the first idle wait in ``time.sleep``'s error.
    """
    require(
        0 < poll_interval < math.inf,
        f"poll_interval must be finite and positive, got {poll_interval!r}",
    )


def _write_atomic(path: str, payload: bytes) -> None:
    """tmp-write + ``os.replace``: readers never see a torn file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _dump_outcome(status: str, value: Any) -> bytes:
    """Pickle a result record, degrading unpicklable exceptions."""
    try:
        return pickle.dumps((status, value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            ("error", RuntimeError(f"unpicklable task outcome: {value!r}")),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


class ShardQueueExecutor(TaskExecutor):
    """Coordinator side of the file-backed multi-host task queue.

    ``parallelism`` is the *expected* fleet size: the engine cuts a
    dispatched job into that many tasks, one per worker.  The true
    concurrency is however many ``repro worker`` processes are pointed
    at the queue, so workers beyond ``parallelism`` idle.  The
    queue directory may be given up front or bound later — the sharded
    runner binds an unbound queue to ``<checkpoint-dir>/queue`` so the
    CLI flow is just ``repro run --executor shard-queue
    --checkpoint-dir DIR`` plus N ``repro worker --checkpoint-dir DIR``
    processes.
    """

    name = "shard-queue"

    def __init__(
        self,
        queue_dir: Optional[str] = None,
        *,
        parallelism: int = 2,
        claim_ttl: float = 30.0,
        poll_interval: float = 0.05,
        max_claim_expiries: int = 3,
    ) -> None:
        require(parallelism >= 1, "parallelism must be at least 1")
        require(claim_ttl > 0, "claim_ttl must be positive")
        check_poll_interval(poll_interval)
        self.parallelism = parallelism
        self.claim_ttl = claim_ttl
        self.poll_interval = poll_interval
        self.max_claim_expiries = max_claim_expiries
        self.queue_dir: Optional[str] = None
        self._seq = 0
        self._nonce = f"{os.getpid():x}"
        self._expiries: dict = {}
        if queue_dir is not None:
            self.bind(str(queue_dir))

    # -- binding -------------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self.queue_dir is not None

    @property
    def active(self) -> bool:
        return self.bound

    def bind(self, queue_dir: str) -> None:
        """Attach to (and create) the queue directory tree."""
        self.queue_dir = str(queue_dir)
        for sub in (TASKS_DIR, CLAIMS_DIR, RESULTS_DIR):
            os.makedirs(os.path.join(self.queue_dir, sub), exist_ok=True)
        # A previous run's stop sentinel must not stall fresh workers.
        try:
            os.unlink(os.path.join(self.queue_dir, STOP_FILE))
        except FileNotFoundError:
            pass

    def _path(self, sub: str, name: str = "") -> str:
        if self.queue_dir is None:
            raise RuntimeError(
                "shard-queue executor is not bound to a queue directory; "
                "run the pipeline on this engine with checkpoint_dir (the "
                "run binds <checkpoint-dir>/queue) or call bind() first"
            )
        return os.path.join(self.queue_dir, sub, name)

    # -- coordinator protocol --------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Any:
        self._seq += 1
        name = f"task-{self._nonce}-{self._seq:06d}"
        payload = pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
        _write_atomic(self._path(TASKS_DIR, name), payload)
        return name

    def result(self, handle: Any, timeout: Optional[float] = None) -> Any:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        result_path = self._path(RESULTS_DIR, handle)
        claim_path = self._path(CLAIMS_DIR, handle)
        task_path = self._path(TASKS_DIR, handle)
        while True:
            try:
                with open(result_path, "rb") as handle_file:
                    status, value = pickle.load(handle_file)
            except FileNotFoundError:
                pass
            else:
                os.unlink(result_path)
                self._expiries.pop(handle, None)
                if status == "error":
                    raise value
                return value
            self._expire_if_stale(handle, claim_path, task_path)
            if deadline is not None and time.monotonic() > deadline:
                raise TaskTimeout(
                    f"shard-queue task {handle} unfinished after {timeout}s"
                )
            time.sleep(self.poll_interval)

    def _expire_if_stale(
        self, handle: Any, claim_path: str, task_path: str
    ) -> None:
        """Requeue a claim whose worker stopped renewing the lease."""
        try:
            age = time.time() - os.stat(claim_path).st_mtime
        except FileNotFoundError:
            return
        if age <= self.claim_ttl:
            return
        try:
            os.rename(claim_path, task_path)
        except FileNotFoundError:
            return  # the worker finished (or another poller requeued) first
        count = self._expiries[handle] = self._expiries.get(handle, 0) + 1
        logger.warning(
            "shard-queue claim on %s expired after %.1fs (lease %d of %d); "
            "requeued", handle, age, count, self.max_claim_expiries,
        )
        journal_emit(
            "claim_expired", task=str(handle), age=round(age, 3), lease=count
        )
        if count >= self.max_claim_expiries:
            try:
                os.unlink(task_path)
            except FileNotFoundError:
                pass
            self._expiries.pop(handle, None)
            raise WorkerCrash(
                f"shard-queue task {handle} lost {count} workers in a row"
            )

    def restart(self, reason: str) -> None:
        """Abandon all outstanding work: the engine resubmits what it
        still needs, so queued tasks, live claims, and unread results
        are cleared (a zombie worker mid-task will write an orphan
        result nothing reads)."""
        if not self.bound:
            return
        cleared = 0
        for sub in (TASKS_DIR, CLAIMS_DIR, RESULTS_DIR):
            directory = self._path(sub)
            for name in os.listdir(directory):
                try:
                    os.unlink(os.path.join(directory, name))
                    cleared += 1
                except FileNotFoundError:
                    continue
        self._expiries = {}
        logger.warning(
            "shard queue cleared (%s): %d outstanding entr%s dropped",
            reason, cleared, "y" if cleared == 1 else "ies",
        )

    def close(self) -> None:
        """Raise the stop sentinel so idle workers drain and exit."""
        if not self.bound:
            return
        _write_atomic(self._path("", STOP_FILE).rstrip(os.sep), b"stop\n")


# -- worker side ---------------------------------------------------------------


def _claim_next(queue_dir: str) -> Optional[str]:
    """Claim the lexically first queued task; None when there is none."""
    tasks = os.path.join(queue_dir, TASKS_DIR)
    try:
        names = sorted(os.listdir(tasks))
    except FileNotFoundError:
        return None
    for name in names:
        if name.endswith(".tmp") or ".tmp." in name:
            continue
        try:
            os.rename(
                os.path.join(tasks, name),
                os.path.join(queue_dir, CLAIMS_DIR, name),
            )
        except FileNotFoundError:
            continue  # another worker won the rename
        return name
    return None


class _Lease(threading.Thread):
    """Daemon thread refreshing a claim's mtime while the task runs."""

    def __init__(self, claim_path: str, interval: float) -> None:
        super().__init__(daemon=True, name="shard-queue-lease")
        self.claim_path = claim_path
        self.interval = interval
        # Not ``_stop``: the Thread base class owns that name.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                os.utime(self.claim_path)
            except OSError:
                return  # claim withdrawn (coordinator restart): stop renewing

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def run_worker(
    queue_dir: str,
    *,
    poll_interval: float = 0.2,
    idle_exit: Optional[float] = None,
    max_tasks: Optional[int] = None,
    claim_ttl: float = 30.0,
    journal: Any = None,
) -> int:
    """Drain tasks from ``queue_dir`` until told (or left) to stop.

    The body of ``repro worker``: claim by atomic rename, renew the
    claim lease every ``claim_ttl / 4`` seconds, execute the pickled
    ``(fn, args)`` payload, write the outcome atomically, drop the
    claim.  Exits when the coordinator's stop sentinel appears, after
    ``idle_exit`` seconds without work, or after ``max_tasks`` tasks;
    returns how many tasks it ran.  A worker SIGKILLed mid-task leaves
    its claim to expire — recovery is entirely the coordinator's.

    ``journal`` (an :class:`~repro.obs.journal.EventJournal`) records
    ``worker_task`` pickups; per-task heartbeats ride inside the
    payload when the coordinating engine has a journal active.
    """
    check_poll_interval(poll_interval)
    queue_dir = str(queue_dir)
    stop_path = os.path.join(queue_dir, STOP_FILE)
    lease_interval = max(claim_ttl / 4.0, 0.01)
    processed = 0
    idle_since = time.monotonic()
    while True:
        if max_tasks is not None and processed >= max_tasks:
            break
        name = _claim_next(queue_dir)
        if name is None:
            if os.path.exists(stop_path):
                break
            if (
                idle_exit is not None
                and time.monotonic() - idle_since > idle_exit
            ):
                break
            time.sleep(poll_interval)
            continue
        claim_path = os.path.join(queue_dir, CLAIMS_DIR, name)
        if journal is not None:
            journal.append("worker_task", worker=os.getpid(), task=name)
        lease = _Lease(claim_path, lease_interval)
        lease.start()
        try:
            try:
                with open(claim_path, "rb") as handle:
                    fn, args = pickle.load(handle)
            except FileNotFoundError:
                continue  # claim withdrawn by a coordinator restart
            try:
                payload = _dump_outcome("ok", fn(*args))
            except Exception as exc:  # ship the failure to the coordinator
                payload = _dump_outcome("error", exc)
        finally:
            lease.stop()
        if os.path.exists(claim_path):
            _write_atomic(os.path.join(queue_dir, RESULTS_DIR, name), payload)
            try:
                os.unlink(claim_path)
            except FileNotFoundError:
                pass
        processed += 1
        idle_since = time.monotonic()
    return processed
