"""Pluggable execution backends for the MapReduce engine.

See :mod:`repro.mapreduce.executors.base` for the protocol and the
design notes; :func:`make_executor` builds a backend by name.
"""

from repro.mapreduce.executors.base import (
    EXECUTOR_NAMES,
    TaskExecutor,
    TaskTimeout,
    WorkerCrash,
    make_executor,
)
from repro.mapreduce.executors.local import (
    ProcessPoolTaskExecutor,
    SerialExecutor,
)
from repro.mapreduce.executors.shardqueue import ShardQueueExecutor, run_worker

__all__ = [
    "EXECUTOR_NAMES",
    "TaskExecutor",
    "TaskTimeout",
    "WorkerCrash",
    "make_executor",
    "SerialExecutor",
    "ProcessPoolTaskExecutor",
    "ShardQueueExecutor",
    "run_worker",
]
