"""Local MapReduce engine over pluggable execution backends.

Substitutes the paper's 13-node Hadoop cluster with a faithful local
model of the same computation: map over input records, shuffle by the
job's partitioner, group values per key (sorted for determinism), and
reduce partition by partition.  *Where* tasks run is delegated to a
:class:`~repro.mapreduce.executors.TaskExecutor` — serial inline, a
process pool, or a multi-host shard queue drained by ``repro worker``
processes; jobs and records must be picklable for the out-of-process
backends, exactly as Hadoop requires them to be serializable.

Fault tolerance mirrors Hadoop's task-level story (paper Section VII: a
multi-hour batch over millions of pairs must survive individual task
failures) and is *executor-agnostic* — every backend inherits it:

- a task that *raises* is retried up to ``max_retries`` times with
  exponential backoff (``retry_backoff``);
- a dispatched task whose worker *dies*
  (:class:`~repro.mapreduce.executors.WorkerCrash`) or *hangs*
  (``task_timeout``) triggers a backend restart and a re-run of the
  lost tasks, against the same retry budget; a task run inline cannot
  be killed, so there the deadline downgrades to a warn-and-journal
  soft breach;
- with ``quarantine=True`` a task that fails every attempt is split
  into its individual records/key-groups, each run in isolation, and
  only the genuinely poisonous units are dropped — recorded as
  :class:`QuarantinedTask` entries in :attr:`MapReduceEngine.last_quarantine`
  — so a single poison-pill pair degrades the batch instead of
  aborting it.
"""

from __future__ import annotations

import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.mapreduce.executors import (
    TaskExecutor,
    TaskTimeout,
    WorkerCrash,
    make_executor,
)
from repro.mapreduce.job import KeyValue, MapReduceJob
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


@dataclass
class JobStats:
    """Counters of one job execution (for the scalability benches)."""

    input_records: int = 0
    mapped_records: int = 0
    distinct_keys: int = 0
    output_records: int = 0
    partitions_used: int = 0
    task_retries: int = 0
    pool_restarts: int = 0
    task_timeouts: int = 0
    task_deadline_misses: int = 0
    tasks_quarantined: int = 0


@dataclass(frozen=True)
class QuarantinedTask:
    """One input unit dropped after exhausting every retry.

    ``phase`` is ``"map"`` or ``"reduce"``; ``key`` is the input record
    key (map) or the shuffle group key (reduce); ``error`` is the repr
    of the final exception.  The engine collects these in
    :attr:`MapReduceEngine.last_quarantine` so callers (the sharded
    runner, the run report) can surface them instead of losing them.
    """

    phase: str
    key: Any
    error: str
    attempts: int


def _map_chunk(job: MapReduceJob, chunk: Sequence[KeyValue]) -> List[Tuple[int, KeyValue]]:
    """Map a chunk of inputs; tags each output with its partition."""
    out: List[Tuple[int, KeyValue]] = []
    for key, value in chunk:
        for out_key, out_value in job.map(key, value):
            out.append((job.partition(out_key), (out_key, out_value)))
    return out


def _reduce_partition(
    job: MapReduceJob, grouped: List[Tuple[Any, List[Any]]]
) -> List[KeyValue]:
    """Reduce all key groups of one partition (via the job's hook)."""
    return list(job.reduce_partition(grouped))


def _split_map_chunk(chunk: Sequence[KeyValue]) -> List[Tuple[Any, List]]:
    """One (key, single-record chunk) unit per input record."""
    return [(key, [(key, value)]) for key, value in chunk]


def _split_reduce_partition(
    grouped: List[Tuple[Any, List[Any]]]
) -> List[Tuple[Any, List]]:
    """One (key, single-group partition) unit per key group."""
    return [(key, [(key, values)]) for key, values in grouped]


def _run_task_with_telemetry(
    func,
    job: MapReduceJob,
    task,
    trace: Optional[Dict[str, Optional[str]]] = None,
    journal=None,
    phase: str = "",
):
    """Run one worker task under a fresh child registry.

    Executed inside a worker process when the parent collects telemetry
    (or journals, or traces): the child registry captures everything the
    task records (detector timers, threshold-cache hits, ...) and ships
    it back as a picklable snapshot for the parent to merge — the local
    analogue of Hadoop counters flowing from task attempts to the job
    tracker.

    ``trace`` is the parent's :func:`repro.obs.task_trace_payload`: the
    worker installs it, opens a ``task.<phase>`` span around the task,
    and ships the completed span records back so the parent can stitch
    them under its own span tree.  ``journal`` (an
    :class:`~repro.obs.journal.EventJournal`, picklable by path) gets a
    heartbeat event per task so operators see which workers are alive.
    """
    registry = MetricsRegistry()
    context = TraceContext(**trace) if trace is not None else None
    with scoped_registry(registry), scoped_trace(context):
        if journal is not None:
            journal.append(
                "heartbeat", worker=os.getpid(), phase=phase or None
            )
        with span(f"task.{phase}" if phase else "task"):
            result = func(job, task)
    return (
        result,
        registry.snapshot(),
        [record.to_dict() for record in drain_spans(registry)],
    )


def _chunked(items: Sequence, n_chunks: int) -> List[Sequence]:
    """Split ``items`` into at most ``n_chunks`` contiguous chunks."""
    if not items:
        return []
    size = max(1, (len(items) + n_chunks - 1) // n_chunks)
    return [items[i : i + size] for i in range(0, len(items), size)]


class MapReduceEngine:
    """Executes :class:`MapReduceJob` instances over a task executor.

    ``executor`` picks the backend: an executor name (see
    :data:`~repro.mapreduce.executors.EXECUTOR_NAMES`), a ready
    :class:`~repro.mapreduce.executors.TaskExecutor` instance, or None
    for the legacy mapping — ``"processes"`` when ``n_workers > 1``,
    ``"serial"`` otherwise.  Backend resources are created lazily and
    reused across runs (workers are where Hadoop's task JVMs would be);
    phases too small to amortize dispatch overhead
    (< ``min_parallel_records`` inputs) fall back to serial execution.

    Fault-tolerance knobs (all executor-agnostic):

    ``max_retries``
        Re-runs a failed map chunk or reduce partition, the local
        analogue of Hadoop's task-level fault tolerance.  Tasks that
        fail on every attempt re-raise the final exception (unless
        quarantined, below).
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
        the sleep is drawn uniformly from ``[0, min(max_backoff,
        retry_backoff * 2**(round - 1))]`` (full jitter), so engines
        that fail together — many shards hitting one sick worker host
        or store — don't retry in lockstep waves.  0 disables sleeping
        (the test default).  ``backoff_seed`` pins the jitter RNG for
        reproducible delays under test; each slept delay is also
        journalled as a ``backoff`` event.
    ``quarantine``
        When a task exhausts its retries, split it into individual
        records/key-groups, run each in isolation, and drop only the
        failing units — each recorded in :attr:`last_quarantine` — so
        poison-pill inputs degrade the output instead of aborting the
        batch.
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
        max_backoff: float = 30.0,
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
        self.max_backoff = max_backoff
        # Per-engine jitter RNG: seeding it (tests) makes the slept
        # delays a reproducible sequence; the default seeds from system
        # entropy so sibling engines draw independent jitter.
        self._backoff_rng = random.Random(backoff_seed)
        self.quarantine = quarantine
        self.last_stats: Optional[JobStats] = None
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

    # -- retry / backoff machinery -----------------------------------------

    def _attempt(
        self,
        func,
        *args,
        retries_left: Optional[int] = None,
        phase: Optional[str] = None,
    ):
        """Run a task serially, retrying up to the remaining budget.

        The budget is passed explicitly (default: the full
        ``max_retries``) so concurrent or nested runs never share
        mutable retry state.  Inline execution has no enforcement point
        for ``task_timeout``, so a breach is detected after the fact
        and reported as a soft deadline miss (warn + journal) instead
        of being silently ignored.
        """
        budget = self.max_retries if retries_left is None else retries_left
        failures = 0
        while True:
            try:
                started = time.monotonic()
                result = func(*args)
                elapsed = time.monotonic() - started
                if (
                    self.task_timeout is not None
                    and elapsed > self.task_timeout
                ):
                    self._note_deadline_miss(phase=phase, elapsed=elapsed)
                return result
            except Exception as exc:
                failures += 1
                if failures > budget:
                    raise
                logger.warning(
                    "%stask %s failed (attempt %d of %d): %s; retrying",
                    self._log_ctx(),
                    getattr(func, "__name__", str(func)),
                    failures,
                    budget + 1,
                    exc,
                )
                self._note_retry()
                self._backoff(failures)

    def _note_retry(self, phase: Optional[str] = None) -> None:
        if self.last_stats is not None:
            self.last_stats.task_retries += 1
        get_registry().counter("mapreduce.task_retries").inc()
        journal_emit("retry", phase=phase, shard=self.shard)

    def _backoff(self, failures: int) -> None:
        """Sleep before the next retry: exponential envelope, full jitter.

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
        envelope = min(
            self.max_backoff, self.retry_backoff * (2 ** (failures - 1))
        )
        delay = self._backoff_rng.uniform(0.0, envelope)
        journal_emit(
            "backoff",
            shard=self.shard,
            failures=failures,
            delay=round(delay, 6),
            envelope=envelope,
        )
        self._sleep(delay)

    # -- backend lifecycle ---------------------------------------------------

    def _restart_pool(self, reason: str) -> None:
        """Restart the backend (killing stragglers where it can) and
        count the restart.

        The kill-children mechanics live behind
        :meth:`~repro.mapreduce.executors.TaskExecutor.restart` — a
        public, per-backend contract — while the accounting (stats,
        counter, journal event, operator log line) stays here so every
        backend reports restarts identically.
        """
        self.executor.restart(reason)
        logger.warning(
            "%s%s backend restarted: %s",
            self._log_ctx(), self.executor.name, reason,
        )
        if self.last_stats is not None:
            self.last_stats.pool_restarts += 1
        get_registry().counter("mapreduce.pool_restarts").inc()
        journal_emit(
            "pool_restart",
            reason=reason,
            shard=self.shard,
            executor=self.executor.name,
        )

    def _note_deadline_miss(
        self, *, phase: Optional[str], elapsed: float
    ) -> None:
        """Record a soft ``task_timeout`` breach of an inline task.

        Nothing could kill the late task, so the contract is
        warn-and-journal: operators see the breach in the log and the
        event journal (``task_deadline``) while the run keeps the
        genuine result.
        """
        if self.last_stats is not None:
            self.last_stats.task_deadline_misses += 1
        get_registry().counter("mapreduce.task_deadline_misses").inc()
        journal_emit(
            "task_deadline",
            phase=phase or None,
            shard=self.shard,
            elapsed=round(elapsed, 6),
            timeout=self.task_timeout,
            executor=self.executor.name,
        )
        logger.warning(
            "%s%s task exceeded task_timeout=%.4gs on the %s backend "
            "(no enforcement point; letting it finish)",
            self._log_ctx(),
            phase or "engine",
            self.task_timeout or 0.0,
            self.executor.name,
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
        self, phase: str, key: Any, exc: BaseException, attempts: int
    ) -> None:
        entry = QuarantinedTask(
            phase=phase, key=key, error=repr(exc), attempts=attempts
        )
        self.last_quarantine.append(entry)
        if self.last_stats is not None:
            self.last_stats.tasks_quarantined += 1
        get_registry().counter("mapreduce.tasks_quarantined").inc()
        journal_emit(
            "quarantine", phase=phase, key=key, shard=self.shard,
            attempts=attempts,
        )
        logger.error(
            "%squarantined %s unit %r after %d attempts: %s",
            self._log_ctx(), phase, key, attempts, entry.error,
        )

    def _isolate_units(
        self,
        func,
        job: MapReduceJob,
        units: List[Tuple[Any, Any]],
        *,
        phase: str,
        attempts: int,
        use_pool: bool,
    ) -> List:
        """Run each unit of an exhausted task alone; quarantine failures.

        ``use_pool=True`` isolates on the executor backend (one unit
        per task) so a unit that kills or hangs its worker cannot take
        the parent down with it; the backend is restarted after each
        such casualty.
        """
        outputs: List = []
        for key, unit_task in units:
            try:
                if use_pool:
                    handle = self.executor.submit(func, job, unit_task)
                    outputs.extend(
                        self.executor.result(handle, timeout=self.task_timeout)
                    )
                else:
                    outputs.extend(func(job, unit_task))
            except (WorkerCrash, TaskTimeout) as exc:
                self._restart_pool(f"isolating poisoned {phase} unit {key!r}")
                self._record_quarantine(phase, key, exc, attempts)
            except Exception as exc:
                self._record_quarantine(phase, key, exc, attempts)
        return outputs

    def _run_task(
        self,
        func,
        job: MapReduceJob,
        task,
        *,
        phase: str,
        split,
        retries_left: Optional[int] = None,
    ) -> List:
        """Serial task execution with retries and optional quarantine."""
        try:
            return self._attempt(
                func, job, task, retries_left=retries_left, phase=phase
            )
        except Exception as exc:
            if not self.quarantine:
                raise
            budget = self.max_retries if retries_left is None else retries_left
            logger.warning(
                "%s%s task failed all %d attempts (%s); isolating its "
                "%d units", self._log_ctx(), phase, budget + 1, exc,
                len(split(task)),
            )
            return self._isolate_units(
                func, job, split(task),
                phase=phase, attempts=budget + 1, use_pool=False,
            )

    # -- execution ---------------------------------------------------------

    def run(
        self, job: MapReduceJob, inputs: Iterable[KeyValue]
    ) -> List[KeyValue]:
        """Run ``job`` over ``inputs``; returns the reduce output.

        Output records are ordered deterministically (by partition, then
        by sorted key within the partition) regardless of worker count.
        Units quarantined during this run are in :attr:`last_quarantine`.
        """
        records = list(inputs)
        stats = JobStats(input_records=len(records))
        self.last_stats = stats
        self.last_quarantine = []
        job_name = type(job).__name__
        parallel = (
            self.executor.parallelism > 1
            and len(records) >= self.min_parallel_records
        )

        with span(f"mapreduce.{job_name}"):
            # -- map phase ---------------------------------------------------
            with span("map"):
                if not parallel:
                    chunks = (
                        _chunked(records, max(1, len(records) // 64))
                        if self.max_retries or self.quarantine
                        else [records]
                    )
                    tagged = [
                        item
                        for chunk in chunks
                        for item in self._run_task(
                            _map_chunk, job, chunk,
                            phase="map", split=_split_map_chunk,
                        )
                    ]
                else:
                    chunks = _chunked(records, self.n_workers * 4)
                    results = self._parallel_tasks(
                        _map_chunk, job, chunks,
                        phase="map", split=_split_map_chunk,
                    )
                    tagged = [item for chunk_out in results for item in chunk_out]
            stats.mapped_records = len(tagged)

            # -- shuffle: partition -> key -> [values] -------------------------
            with span("shuffle"):
                partitions: Dict[int, Dict[Any, List[Any]]] = {}
                for partition, (key, value) in tagged:
                    partitions.setdefault(partition, {}).setdefault(
                        key, []
                    ).append(value)
                stats.distinct_keys = sum(len(p) for p in partitions.values())
                stats.partitions_used = len(partitions)

                grouped_per_partition: List[List[Tuple[Any, List[Any]]]] = [
                    sorted(partitions[p].items(), key=lambda item: repr(item[0]))
                    for p in sorted(partitions)
                ]

            # -- reduce phase ---------------------------------------------------
            with span("reduce"):
                if not parallel or len(grouped_per_partition) <= 1:
                    output: List[KeyValue] = []
                    for grouped in grouped_per_partition:
                        output.extend(
                            self._run_task(
                                _reduce_partition, job, grouped,
                                phase="reduce",
                                split=_split_reduce_partition,
                            )
                        )
                else:
                    results = self._parallel_tasks(
                        _reduce_partition, job, grouped_per_partition,
                        phase="reduce", split=_split_reduce_partition,
                    )
                    output = [item for part in results for item in part]

        stats.output_records = len(output)
        self._record_stats(job_name, stats)
        logger.debug(
            "job %s: %d in, %d mapped, %d keys, %d out (%d retries, "
            "%d quarantined)",
            job_name, stats.input_records, stats.mapped_records,
            stats.distinct_keys, stats.output_records, stats.task_retries,
            stats.tasks_quarantined,
        )
        return output

    def _record_stats(self, job_name: str, stats: JobStats) -> None:
        """Surface :class:`JobStats` into the run's metrics registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        prefix = f"mapreduce.{job_name}"
        registry.counter(f"{prefix}.input_records").inc(stats.input_records)
        registry.counter(f"{prefix}.mapped_records").inc(stats.mapped_records)
        registry.counter(f"{prefix}.distinct_keys").inc(stats.distinct_keys)
        registry.counter(f"{prefix}.output_records").inc(stats.output_records)
        registry.gauge(f"{prefix}.partitions_used").set(stats.partitions_used)
        registry.gauge("mapreduce.n_workers").set(self.n_workers)
        if stats.task_retries:
            registry.counter(f"{prefix}.task_retries").inc(stats.task_retries)

    def _parallel_tasks(
        self, func, job: MapReduceJob, tasks: Sequence, *, phase: str, split
    ) -> List:
        """Dispatch tasks on the executor; survive failed/lost workers.

        Tasks run in retry *rounds*: every still-pending task is
        submitted, results are collected, and failures carry into the
        next round until their budget is spent.  A worker death
        (:class:`WorkerCrash`) or hang (``task_timeout``) restarts the
        backend and charges an attempt to the task it was observed on;
        the other in-flight tasks are re-run without charge, like
        Hadoop's re-execution of tasks lost with a dead TaskTracker.

        Every dispatched task runs in another process.  When the run
        collects telemetry, traces or journals, each task runs under a
        fresh child registry and ships back a snapshot that is merged
        here (plus completed span records, stitched under this engine's
        span tree, and per-task journal heartbeats) — the local
        analogue of Hadoop counters flowing to the job tracker.
        """
        registry = get_registry()
        trace_payload = task_trace_payload()
        journal = get_journal()
        ship = (
            registry.enabled
            or trace_payload is not None
            or journal is not None
        )
        n_tasks = len(tasks)
        results: Dict[int, List] = {}
        attempts = [0] * n_tasks
        pending: List[int] = list(range(n_tasks))
        failure_rounds = 0
        while pending:
            if ship:
                submitted = {
                    i: self.executor.submit(
                        _run_task_with_telemetry, func, job, tasks[i],
                        trace_payload, journal, phase,
                    )
                    for i in pending
                }
            else:
                submitted = {
                    i: self.executor.submit(func, job, tasks[i])
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
                try:
                    outcome = self.executor.result(
                        submitted[i], timeout=self.task_timeout
                    )
                except (WorkerCrash, TaskTimeout) as exc:
                    backend_broken = True
                    timed_out = isinstance(exc, TaskTimeout)
                    if timed_out:
                        if self.last_stats is not None:
                            self.last_stats.task_timeouts += 1
                        get_registry().counter("mapreduce.task_timeouts").inc()
                    self._restart_pool(
                        f"{phase} task {i} "
                        + ("timed out" if timed_out else "lost its worker")
                    )
                    if not self._charge_failure(
                        func, job, tasks[i], i, attempts, exc,
                        phase=phase, split=split, results=results,
                        in_pool=True,
                    ):
                        next_pending.append(i)
                    continue
                except Exception as exc:
                    if not self._charge_failure(
                        func, job, tasks[i], i, attempts, exc,
                        phase=phase, split=split, results=results,
                        in_pool=False,
                    ):
                        next_pending.append(i)
                    continue
                if ship:
                    result, snapshot, worker_spans = outcome
                    registry.merge(snapshot)
                    record_spans(worker_spans, registry)
                    results[i] = result
                else:
                    results[i] = outcome
            if next_pending:
                failure_rounds += 1
                self._backoff(failure_rounds)
            pending = next_pending
        return [results[i] for i in range(n_tasks)]

    def _charge_failure(
        self,
        func,
        job: MapReduceJob,
        task,
        index: int,
        attempts: List[int],
        exc: BaseException,
        *,
        phase: str,
        split,
        results: Dict[int, List],
        in_pool: bool,
    ) -> bool:
        """Charge one failed attempt to a task; resolve it when spent.

        Returns True when the task is *resolved* (quarantined into
        ``results`` or the exception re-raised); False when it should be
        retried in the next round.
        """
        attempts[index] += 1
        if attempts[index] <= self.max_retries:
            logger.warning(
                "%sparallel %s task %d failed (attempt %d of %d): %s; "
                "retrying",
                self._log_ctx(), phase, index, attempts[index],
                self.max_retries + 1, exc,
            )
            self._note_retry(phase)
            return False
        if not self.quarantine:
            raise exc
        logger.warning(
            "%sparallel %s task %d failed all %d attempts (%s); isolating "
            "its units", self._log_ctx(), phase, index,
            self.max_retries + 1, exc,
        )
        results[index] = self._isolate_units(
            func, job, split(task),
            phase=phase, attempts=attempts[index], use_pool=in_pool,
        )
        return True
