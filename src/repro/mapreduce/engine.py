"""Local MapReduce engine over pluggable execution backends.

Substitutes the paper's 13-node Hadoop cluster with a local model of
the part BAYWATCH distributes, the reduce tasks of its detection job
(paper Section VII-D): group the keyed input records by key (values in
input order, keys sorted by ``repr`` for determinism) and cut the
groups into as many tasks as the backend can run at once.  An inline
run is one task holding every group; a dispatched run is
``executor.parallelism`` tasks, a key going to task
``stable_hash(key) % parallelism``.  The paper's 5-bit ``H(s, d)``
makes 32 reduce tasks so that 13 nodes can share them; here a task
count above the backend's parallelism would only split the batched
detector's input.  *Where* tasks run is delegated to a
:class:`~repro.mapreduce.executors.TaskExecutor` — serial inline, a
process pool, or a multi-host shard queue drained by ``repro worker``
processes; jobs and records must be picklable for the out-of-process
backends, exactly as Hadoop requires them to be serializable.

Fault tolerance mirrors Hadoop's task-level story (paper Section VII: a
multi-hour batch over millions of pairs must survive individual task
failures).  One task loop carries it on every backend:

- tasks run in retry *rounds*: a task that *raises* is retried in
  the next round, up to ``max_retries`` times, with one exponential
  backoff (``retry_backoff``) before each round that follows a failure;
- a dispatched task whose worker *dies*
  (:class:`~repro.mapreduce.executors.WorkerCrash`) or *hangs*
  (``task_timeout``) triggers a backend restart and a re-run of the
  lost tasks, against the same retry budget; a task run inline cannot
  be killed, so there the deadline downgrades to a warn-and-journal
  soft breach;
- with ``quarantine=True`` a task that fails every attempt is
  dropped when it holds one key group and raised its own exception;
  any other is split into its key groups, each run in isolation, and
  only the genuinely poisonous groups are dropped.  Each dropped group
  is recorded as a :class:`QuarantinedTask` entry in
  :attr:`MapReduceEngine.last_quarantine`, so a single poison-pill
  pair degrades the batch instead of aborting it.
"""

from __future__ import annotations

import logging
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.mapreduce.executors import (
    SerialExecutor,
    TaskExecutor,
    TaskTimeout,
    WorkerCrash,
    make_executor,
)
from repro.mapreduce.job import KeyValue, MapReduceJob, stable_hash
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    drain_spans,
    get_journal,
    get_registry,
    journal_emit,
    record_spans,
    scoped_registry,
    scoped_trace,
    span,
    task_trace_payload,
)
from repro.utils.validation import require

logger = logging.getLogger(__name__)

#: Cap, in seconds, of the exponential retry-backoff envelope.
MAX_BACKOFF = 30.0

#: Runs the task of a job run inline, and the isolated units of a
#: task that failed without taking its worker down.
_INLINE = SerialExecutor()

#: The key groups one task reduces, in ``repr(key)`` order.
Partition = List[Tuple[Any, List[Any]]]


@dataclass(frozen=True)
class QuarantinedTask:
    """One key group dropped after exhausting every retry.

    ``phase`` is always ``"reduce"``; ``key`` is the group key;
    ``error`` is the repr of the final exception; ``attempts`` counts
    the runs charged to the group: its task's, plus its isolated
    run if it had one (a run lost with a worker that another task took
    down is re-run free and not counted).  The engine collects
    these in :attr:`MapReduceEngine.last_quarantine` so callers (the
    sharded runner, the run report) can surface them instead of losing
    them.
    """

    phase: str
    key: Any
    error: str
    attempts: int


def _reduce_partition(job: MapReduceJob, grouped: Partition) -> List[KeyValue]:
    """Reduce all key groups of one task (via the job's hook)."""
    return list(job.reduce_partition(grouped))


def _dispatched_reduce(
    job: MapReduceJob, grouped: Partition
) -> Tuple[List[KeyValue], Any]:
    """Reduce one task in a worker; hand back the job copy's
    :meth:`~repro.mapreduce.job.MapReduceJob.worker_state` too."""
    return _reduce_partition(job, grouped), job.worker_state()


def _run_task_with_telemetry(
    job: MapReduceJob,
    grouped: Partition,
    trace: Optional[Dict[str, Optional[str]]] = None,
    journal=None,
):
    """:func:`_dispatched_reduce` under a fresh child registry.

    Executed inside a worker process when the parent collects telemetry
    (or journals, or traces): the child registry captures everything the
    task records (detector timers, threshold-cache hits, ...) and ships
    it back as a picklable snapshot for the parent to merge — the local
    analogue of Hadoop counters flowing from task attempts to the job
    tracker.

    ``trace`` is the parent's :func:`repro.obs.task_trace_payload`: the
    worker installs it, opens a ``task.reduce`` span around the task,
    and ships the completed span records back so the parent can stitch
    them under its own span tree.  ``journal`` (an
    :class:`~repro.obs.journal.EventJournal`, picklable by path) gets a
    heartbeat event per task so operators see which workers are alive.
    """
    registry = MetricsRegistry()
    context = TraceContext(**trace) if trace is not None else None
    with scoped_registry(registry), scoped_trace(context):
        if journal is not None:
            journal.append("heartbeat", worker=os.getpid(), phase="reduce")
        with span("task.reduce"):
            result = _dispatched_reduce(job, grouped)
    return (
        result,
        registry.snapshot(),
        [record.to_dict() for record in drain_spans(registry)],
    )


class MapReduceEngine:
    """Executes :class:`MapReduceJob` instances over a task executor.

    ``executor`` picks the backend: an executor name (see
    :data:`~repro.mapreduce.executors.EXECUTOR_NAMES`), a ready
    :class:`~repro.mapreduce.executors.TaskExecutor` instance, or None
    for the legacy mapping — ``"processes"`` when ``n_workers > 1``,
    ``"serial"`` otherwise.  Backend resources are created lazily and
    reused across runs (workers are where Hadoop's task JVMs would be).
    A job runs inline, as one task, when the backend's ``parallelism``
    is 1 or the job has fewer than ``min_parallel_records`` input
    records, too few to amortize dispatch; otherwise it runs as
    ``parallelism`` tasks on the backend.

    Fault-tolerance knobs (all executor-agnostic):

    ``max_retries``
        Re-runs a failed reduce task, the local analogue of
        Hadoop's task-level fault tolerance.  Tasks that fail on every
        attempt re-raise the final exception (unless quarantined,
        below).
    ``task_timeout``
        Seconds a task may run before it is considered late.  A
        dispatched task (processes, shard-queue) is presumed hung: the
        backend restarts — killing it — and the task is retried.
        Nothing can kill a task run inline, so there the breach is
        *soft*: a WARNING plus a ``task_deadline`` journal event and the
        ``mapreduce.task_deadline_misses`` counter, and the result is
        kept.  ``None`` disables the watchdog.
    ``retry_backoff``
        Base of the exponential backoff envelope between retry rounds:
        the sleep is drawn uniformly from ``[0, min(MAX_BACKOFF,
        retry_backoff * 2**(round - 1))]`` (full jitter), so engines
        that fail together — many shards hitting one sick worker host
        or store — don't retry in lockstep waves.  0 disables sleeping
        (the test default).  ``backoff_seed`` pins the jitter RNG for
        reproducible delays under test; each slept delay is also
        journalled as a ``backoff`` event.
    ``quarantine``
        When a task exhausts its retries, drop it if it holds one
        key group and its last failure was its own exception (not a
        lost or hung worker); otherwise split it into its key groups,
        run each in isolation, and drop only the failing groups — each
        recorded in :attr:`last_quarantine` — so poison-pill inputs
        degrade the output instead of aborting the batch.
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        executor: Optional[Any] = None,
        min_parallel_records: int = 64,
        max_retries: int = 0,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        backoff_seed: Optional[int] = None,
        quarantine: bool = False,
    ) -> None:
        require(n_workers >= 1, "n_workers must be at least 1")
        require(max_retries >= 0, "max_retries must be non-negative")
        require(
            task_timeout is None or task_timeout > 0,
            "task_timeout must be positive when set",
        )
        require(retry_backoff >= 0, "retry_backoff must be non-negative")
        self.n_workers = n_workers
        self.min_parallel_records = min_parallel_records
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        # Per-engine jitter RNG: seeding it (tests) makes the slept
        # delays a reproducible sequence; the default seeds from system
        # entropy so sibling engines draw independent jitter.
        self._backoff_rng = random.Random(backoff_seed)
        self.quarantine = quarantine
        self.last_quarantine: List[QuarantinedTask] = []
        # Operator-log/journal correlation context, set by the sharded
        # runner (see set_run_context): WARNING lines about retries,
        # pool restarts, and quarantines carry the run id and shard so
        # they line up with the event journal.
        self.run_id: Optional[str] = None
        self.shard: Optional[int] = None
        if executor is None:
            executor = "processes" if n_workers > 1 else "serial"
        if isinstance(executor, str):
            executor = make_executor(executor, n_workers=n_workers)
        if not isinstance(executor, TaskExecutor):
            raise TypeError(
                "executor must be an executor name or a TaskExecutor, "
                f"got {executor!r}"
            )
        self.executor: TaskExecutor = executor
        # Keep the worker-count gauge honest when the executor instance
        # (not n_workers) carries the concurrency.
        self.n_workers = max(n_workers, executor.parallelism)
        self._sleep: Callable[[float], None] = time.sleep

    # -- run context -------------------------------------------------------

    def set_run_context(
        self,
        *,
        run_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Attach run/shard identity to this engine's logs and events."""
        self.run_id = run_id
        self.shard = shard

    def _log_ctx(self) -> str:
        """``"[run <id> shard <n>] "`` prefix for operator log lines."""
        parts = []
        if self.run_id is not None:
            parts.append(f"run {self.run_id}")
        if self.shard is not None:
            parts.append(f"shard {self.shard}")
        return "[" + " ".join(parts) + "] " if parts else ""

    # -- backoff, restarts, deadlines -----------------------------------------

    def _backoff(self, failures: int) -> None:
        """Sleep before the next retry round: exponential envelope, full
        jitter.

        The old fixed ``base * 2**(round-1)`` schedule made every
        engine that failed at the same moment (the common case — one
        sick dependency fails many shards at once) retry at the same
        moment too, hammering the recovering dependency in synchronized
        waves.  Drawing uniformly from ``[0, envelope]`` spreads the
        wave; the actual delay is journalled so a run's sleep time is
        auditable after the fact.
        """
        if self.retry_backoff <= 0:
            return
        envelope = min(MAX_BACKOFF, self.retry_backoff * (2 ** (failures - 1)))
        delay = self._backoff_rng.uniform(0.0, envelope)
        journal_emit(
            "backoff",
            shard=self.shard,
            failures=failures,
            delay=round(delay, 6),
            envelope=envelope,
        )
        self._sleep(delay)

    def _restart_pool(self, reason: str) -> None:
        """Restart the backend (killing stragglers where it can) and
        count the restart.

        The kill-children mechanics live behind
        :meth:`~repro.mapreduce.executors.TaskExecutor.restart` — a
        public, per-backend contract — while the accounting (counter,
        journal event, operator log line) stays here so every backend
        reports restarts identically.
        """
        self.executor.restart(reason)
        logger.warning(
            "%s%s backend restarted: %s",
            self._log_ctx(), self.executor.name, reason,
        )
        get_registry().counter("mapreduce.pool_restarts").inc()
        journal_emit(
            "pool_restart",
            reason=reason,
            shard=self.shard,
            executor=self.executor.name,
        )

    def _note_deadline_miss(self, elapsed: float) -> None:
        """Record a soft ``task_timeout`` breach of an inline task.

        Nothing could kill the late task, so the contract is
        warn-and-journal: operators see the breach in the log and the
        event journal (``task_deadline``) while the run keeps the
        genuine result.
        """
        get_registry().counter("mapreduce.task_deadline_misses").inc()
        journal_emit(
            "task_deadline",
            phase="reduce",
            shard=self.shard,
            elapsed=round(elapsed, 6),
            timeout=self.task_timeout,
            executor=self.executor.name,
        )
        logger.warning(
            "%sreduce task exceeded task_timeout=%.4gs on the %s backend "
            "(no enforcement point; letting it finish)",
            self._log_ctx(), self.task_timeout or 0.0, self.executor.name,
        )

    def close(self) -> None:
        """Release the backend's resources (no-op when never used)."""
        self.executor.close()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- quarantine --------------------------------------------------------

    def _record_quarantine(
        self, key: Any, exc: BaseException, attempts: int
    ) -> None:
        entry = QuarantinedTask(
            phase="reduce", key=key, error=repr(exc), attempts=attempts
        )
        self.last_quarantine.append(entry)
        get_registry().counter("mapreduce.tasks_quarantined").inc()
        journal_emit(
            "quarantine", phase="reduce", key=key, shard=self.shard,
            attempts=attempts,
        )
        logger.error(
            "%squarantined reduce unit %r after %d attempts: %s",
            self._log_ctx(), key, attempts, entry.error,
        )

    def _isolate_units(
        self,
        job: MapReduceJob,
        grouped: Partition,
        *,
        attempts: int,
        executor: TaskExecutor,
    ) -> List[KeyValue]:
        """Run each key group of an exhausted task alone on
        ``executor``; quarantine the groups that fail.

        A task that killed or hung its worker is isolated on the
        backend (one group per task), so a group that takes its worker
        down cannot take the caller with it; the backend is restarted
        after each such casualty.  Any other task is isolated inline.
        A group that fails alone is quarantined with the task's
        ``attempts`` plus its own run.
        """
        outputs: List[KeyValue] = []
        dispatched = executor is not _INLINE
        for key, values in grouped:
            try:
                unit = [(key, values)]
                handle = executor.submit(
                    _dispatched_reduce if dispatched else _reduce_partition,
                    job, unit,
                )
                outcome = executor.result(handle, timeout=self.task_timeout)
                if dispatched:
                    outcome, state = outcome
                    job.merge_worker_state(state)
                outputs.extend(outcome)
            except (WorkerCrash, TaskTimeout) as exc:
                self._restart_pool(f"isolating poisoned reduce unit {key!r}")
                self._record_quarantine(key, exc, attempts + 1)
            except Exception as exc:
                self._record_quarantine(key, exc, attempts + 1)
        return outputs

    # -- execution ---------------------------------------------------------

    def run(
        self, job: MapReduceJob, inputs: Iterable[KeyValue]
    ) -> List[KeyValue]:
        """Run ``job`` over the keyed records ``inputs``; returns the
        reduce output.

        Output records are ordered deterministically: by task, then by
        ``repr(key)`` within the task (so an inline run's output is in
        key order).  Units quarantined during this run are in
        :attr:`last_quarantine`.
        """
        records = list(inputs)
        self.last_quarantine = []
        job_name = type(job).__name__
        inline = (
            self.executor.parallelism == 1
            or len(records) < self.min_parallel_records
        )
        n_tasks = 1 if inline else self.executor.parallelism
        with span(f"mapreduce.{job_name}"):
            grouped: Dict[Any, List[Any]] = {}
            for key, value in records:
                grouped.setdefault(key, []).append(value)
            tasks: List[Partition] = [[] for _ in range(n_tasks)]
            for key in sorted(grouped, key=repr):
                tasks[stable_hash(key) % n_tasks].append((key, grouped[key]))
            tasks = [task for task in tasks if task]
            with span("reduce"):
                results = self._run_tasks(job, tasks, inline=inline)
        output = [item for part in results for item in part]

        registry = get_registry()
        if registry.enabled:
            prefix = f"mapreduce.{job_name}"
            registry.counter(f"{prefix}.input_records").inc(len(records))
            registry.counter(f"{prefix}.output_records").inc(len(output))
            registry.gauge(f"{prefix}.partitions_used").set(len(tasks))
            registry.gauge("mapreduce.n_workers").set(self.n_workers)
        logger.debug(
            "job %s: %d in, %d tasks, %d out (%d quarantined)",
            job_name, len(records), len(tasks), len(output),
            len(self.last_quarantine),
        )
        return output

    def _run_tasks(
        self, job: MapReduceJob, tasks: List[Partition], *, inline: bool
    ) -> List[List[KeyValue]]:
        """Reduce every task in retry rounds; survive lost workers.

        Every still-pending task is submitted, results are collected,
        and failures carry into the next round until their budget is
        spent.  A worker death (:class:`WorkerCrash`) or hang
        (``task_timeout``) restarts the backend and charges an attempt
        to the task it was observed on; the other in-flight tasks are
        re-run without charge, like Hadoop's re-execution of tasks lost
        with a dead TaskTracker.

        ``inline`` tasks run in the caller through a
        :class:`~repro.mapreduce.executors.SerialExecutor`, under the
        caller's registry, trace and journal.  Dispatched tasks run on
        the backend in other processes and hand back their job copy's
        ``worker_state``, merged into ``job`` here.  When the run
        collects telemetry, traces or journals, each runs under a fresh
        child registry and ships back a snapshot that is merged here
        (plus completed span records, stitched under this engine's span
        tree, and per-task journal heartbeats).
        """
        executor = _INLINE if inline else self.executor
        registry = get_registry()
        trace_payload = None if inline else task_trace_payload()
        journal = None if inline else get_journal()
        ship = not inline and (
            registry.enabled
            or trace_payload is not None
            or journal is not None
        )
        results: Dict[int, List[KeyValue]] = {}
        attempts = [0] * len(tasks)
        pending: List[int] = list(range(len(tasks)))
        failure_rounds = 0
        if inline:
            task, extra = _reduce_partition, ()
        elif ship:
            task, extra = _run_task_with_telemetry, (trace_payload, journal)
        else:
            task, extra = _dispatched_reduce, ()
        while pending:
            submitted = {
                i: executor.submit(task, job, tasks[i], *extra)
                for i in pending
            }
            next_pending: List[int] = []
            backend_broken = False
            for i in pending:
                if backend_broken:
                    # Lost with the backend through no fault of their
                    # own: re-run without charging an attempt.
                    next_pending.append(i)
                    continue
                started = time.monotonic()
                try:
                    outcome = executor.result(
                        submitted[i], timeout=self.task_timeout
                    )
                except (WorkerCrash, TaskTimeout) as exc:
                    backend_broken = True
                    timed_out = isinstance(exc, TaskTimeout)
                    if timed_out:
                        registry.counter("mapreduce.task_timeouts").inc()
                    self._restart_pool(
                        f"reduce task {i} "
                        + ("timed out" if timed_out else "lost its worker")
                    )
                    if not self._charge_failure(
                        job, tasks, i, attempts, exc,
                        results=results, isolate_on=executor,
                    ):
                        next_pending.append(i)
                    continue
                except Exception as exc:
                    if not self._charge_failure(
                        job, tasks, i, attempts, exc,
                        results=results, isolate_on=_INLINE,
                    ):
                        next_pending.append(i)
                    continue
                if not inline:
                    if ship:
                        outcome, snapshot, worker_spans = outcome
                        registry.merge(snapshot)
                        record_spans(worker_spans, registry)
                    outcome, state = outcome
                    job.merge_worker_state(state)
                elif self.task_timeout is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > self.task_timeout:
                        self._note_deadline_miss(elapsed)
                results[i] = outcome
            if next_pending:
                failure_rounds += 1
                self._backoff(failure_rounds)
            pending = next_pending
        return [results[i] for i in range(len(tasks))]

    def _charge_failure(
        self,
        job: MapReduceJob,
        tasks: List[Partition],
        index: int,
        attempts: List[int],
        exc: BaseException,
        *,
        results: Dict[int, List[KeyValue]],
        isolate_on: TaskExecutor,
    ) -> bool:
        """Charge one failed attempt to a task; resolve it when spent.

        A spent task holding one key group that failed with its own
        exception is quarantined at once, with its runs as ``attempts``:
        run alone it would only fail again.  Any other spent task is
        split into its key groups (:meth:`_isolate_units`), also a
        one-group task spent on worker deaths or timeouts, which charge
        the first task waited on rather than the one at fault.
        Returns True when the task is *resolved* (quarantined into
        ``results`` or the exception re-raised); False when it should be
        retried in the next round.
        """
        attempts[index] += 1
        if attempts[index] <= self.max_retries:
            logger.warning(
                "%sreduce task %d failed (attempt %d of %d): %s; retrying",
                self._log_ctx(), index, attempts[index],
                self.max_retries + 1, exc,
            )
            get_registry().counter("mapreduce.task_retries").inc()
            journal_emit("retry", phase="reduce", shard=self.shard)
            return False
        if not self.quarantine:
            raise exc
        if len(tasks[index]) == 1 and not isinstance(
            exc, (WorkerCrash, TaskTimeout)
        ):
            [(key, _values)] = tasks[index]
            self._record_quarantine(key, exc, attempts[index])
            results[index] = []
            return True
        logger.warning(
            "%sreduce task %d failed all %d attempts (%s); isolating its "
            "%d key group(s)", self._log_ctx(), index, attempts[index], exc,
            len(tasks[index]),
        )
        results[index] = self._isolate_units(
            job, tasks[index], attempts=attempts[index], executor=isolate_on
        )
        return True
