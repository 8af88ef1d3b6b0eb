"""The MapReduce side of BAYWATCH: detection job, checkpoints, store.

Of the paper's Section VII jobs, only periodicity detection runs on the
engine (:class:`BeaconingDetectionJob`, driven in checkpointable shards
by :func:`repro.jobs.runner.run_on_engine` for every
:class:`~repro.filtering.BaywatchPipeline` run); the other phases run
in-process.  :class:`SummaryStore` keeps per-day
summaries for the long-window cadence runs.
"""

from repro.jobs.records import DetectionCase
from repro.jobs.checkpoint import CheckpointMismatch, CheckpointStore
from repro.jobs.detection import BeaconingDetectionJob
from repro.jobs.runner import IncompleteRunError
from repro.jobs.summary_store import (
    CorruptFrameError,
    StoreLayoutError,
    SummaryStore,
    pack_summaries,
    unpack_summaries,
)

__all__ = [
    "CorruptFrameError",
    "StoreLayoutError",
    "SummaryStore",
    "pack_summaries",
    "unpack_summaries",
    "CheckpointMismatch",
    "CheckpointStore",
    "DetectionCase",
    "BeaconingDetectionJob",
    "IncompleteRunError",
]
