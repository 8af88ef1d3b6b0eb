"""MapReduce job abstraction (paper Section VII).

BAYWATCH runs beaconing detection as the reduce tasks of a MapReduce
job over records already keyed by communication pair.  A job defines
``reduce(key, values) -> iterable of (key2, value2)``; the engine
handles grouping, cutting the groups into tasks (one per slot its
backend runs at once, the paper's hash ``H(s, d)`` becoming
:func:`stable_hash`), and execution.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Tuple

KeyValue = Tuple[Any, Any]


def stable_hash(key: Any) -> int:
    """Deterministic hash usable across worker processes.

    Python's built-in ``hash`` is randomized per process, which would
    scatter identical keys across tasks in multiprocess runs; CRC32 of
    the repr is stable everywhere.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class MapReduceJob(ABC):
    """A reduce-side job over keyed records."""

    @abstractmethod
    def reduce(self, key: Any, values: Iterable[Any]) -> Iterator[KeyValue]:
        """Combine all values sharing ``key`` into output records."""

    def reduce_partition(
        self, grouped: Iterable[Tuple[Any, Iterable[Any]]]
    ) -> Iterator[KeyValue]:
        """Reduce every key group of one task.

        The default chains :meth:`reduce` over the groups.  Jobs with a
        cross-key fast path (e.g. batched detection, which amortizes
        FFTs across all pairs of a task) override this; quarantine
        fallback still splits a failing task into single-group units,
        which re-enter through this method one group at a time.
        """
        for key, values in grouped:
            yield from self.reduce(key, values)

    def worker_state(self) -> Any:
        """What a dispatched task's copy of the job hands back, or None.

        A task that runs in another process reduces on a pickled copy
        of the job, so anything the copy learns (a warmed cache, say)
        would die with the task.  The engine calls this on the copy
        after the task's reduce and passes the picklable result to
        :meth:`merge_worker_state` on the caller's job.  Tasks run
        inline use the caller's job itself and skip both calls.
        """
        return None

    def merge_worker_state(self, state: Any) -> None:
        """Fold a dispatched task's :meth:`worker_state` into this job."""
