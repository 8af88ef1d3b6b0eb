"""Local MapReduce substrate (replaces the paper's Hadoop cluster).

Jobs reduce keyed records grouped by a hash partitioner — the reduce
side of the paper's Hadoop jobs — in one task loop behind a pluggable
:class:`TaskExecutor` (serial inline, a process pool, or a multi-host
shard queue drained by ``repro worker`` processes).  Process and
shard-queue workers receive their task inputs pickled, as the paper's
Hadoop tasks receive serialized records.  The HDFS stand-in that keeps
extracted summaries between runs is :class:`repro.jobs.SummaryStore`.
"""

from repro.mapreduce.job import KeyValue, MapReduceJob, stable_hash
from repro.mapreduce.engine import MapReduceEngine, QuarantinedTask
from repro.mapreduce.executors import (
    EXECUTOR_NAMES,
    ProcessPoolTaskExecutor,
    SerialExecutor,
    ShardQueueExecutor,
    TaskExecutor,
    TaskTimeout,
    WorkerCrash,
    make_executor,
    run_worker,
)

__all__ = [
    "KeyValue",
    "MapReduceJob",
    "stable_hash",
    "MapReduceEngine",
    "QuarantinedTask",
    "EXECUTOR_NAMES",
    "TaskExecutor",
    "TaskTimeout",
    "WorkerCrash",
    "make_executor",
    "run_worker",
    "SerialExecutor",
    "ProcessPoolTaskExecutor",
    "ShardQueueExecutor",
]
