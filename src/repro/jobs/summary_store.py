"""Persistent ActivitySummary store across analysis runs.

The paper's phases are "modularized MapReduce job[s] to avoid
reprocessing raw logs" (Section VII): once a day's logs are extracted
into ActivitySummaries, every later analysis — the weekly and monthly
passes, re-ranking with new whitelists, retrospective hunts — reads the
summaries, never the raw logs.

:class:`SummaryStore` provides that layer on top of
:class:`~repro.mapreduce.PartitionedStore`: append per-window summaries
tagged by day, then load any trailing window rescaled and merged per
pair, without touching raw records again.

Day shards persist as **packed arrays**: each ``append_day`` writes one
columnar frame per partition (parallel float/offset arrays plus UTF-8
string blobs) instead of one pickle per summary, which is both smaller
and faster to decode.  The read path is format agnostic — days written
as pickles by older versions (or days holding both formats) load
unchanged.
"""

from __future__ import annotations

import shutil
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timeseries import ActivitySummary, merge, merge_rescaled, rescale
from repro.mapreduce.store import PartitionedStore, RecordPacker
from repro.utils.validation import require, require_positive


def _encode_strings(values: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """A string column -> (offsets i8[n+1], utf-8 byte blob u1[total])."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(text) for text in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return offsets, blob


def _decode_strings(offsets: np.ndarray, blob: np.ndarray) -> List[str]:
    """Inverse of :func:`_encode_strings`."""
    data = blob.tobytes()
    bounds = offsets.tolist()
    return [
        data[begin:end].decode("utf-8")
        for begin, end in zip(bounds, bounds[1:])
    ]


#: Packed-payload header: codec version, n summaries, total intervals.
#: Every later section length is derivable from these plus the offset
#: arrays that precede each blob, so the payload parses in one forward
#: sweep of zero-copy ``np.frombuffer`` views.
_PACK_HEADER = struct.Struct("<HQQ")
PACK_VERSION = 1


def pack_summaries(summaries: Sequence[ActivitySummary]) -> bytes:
    """A batch of summaries -> one blob of packed parallel arrays.

    Layout (all little-endian, raw array bytes, no container): a
    :data:`_PACK_HEADER`, per-summary scalars (``time_scale``,
    ``first_timestamp``), ragged intervals as ``interval_offsets`` +
    one concatenated ``f8`` array, and the three string columns
    (sources, destinations, and the flattened per-summary URL samples)
    as offset-indexed UTF-8 blobs.  Floats round-trip bit-exactly —
    unlike JSON or repr, no text conversion is involved.
    """
    n = len(summaries)
    interval_offsets = np.zeros(n + 1, dtype="<i8")
    if n:
        np.cumsum([len(s.intervals) for s in summaries], out=interval_offsets[1:])
    intervals = np.empty(int(interval_offsets[-1]), dtype="<f8")
    for index, summary in enumerate(summaries):
        intervals[interval_offsets[index]:interval_offsets[index + 1]] = (
            summary.intervals
        )
    url_group_offsets = np.zeros(n + 1, dtype="<i8")
    if n:
        np.cumsum([len(s.urls) for s in summaries], out=url_group_offsets[1:])
    flat_urls = [url for summary in summaries for url in summary.urls]
    source_offsets, source_blob = _encode_strings([s.source for s in summaries])
    dest_offsets, dest_blob = _encode_strings(
        [s.destination for s in summaries]
    )
    url_offsets, url_blob = _encode_strings(flat_urls)
    sections = [
        _PACK_HEADER.pack(PACK_VERSION, n, len(intervals)),
        np.array([s.time_scale for s in summaries], dtype="<f8").tobytes(),
        np.array(
            [s.first_timestamp for s in summaries], dtype="<f8"
        ).tobytes(),
        interval_offsets.tobytes(),
        intervals.tobytes(),
        url_group_offsets.tobytes(),
        source_offsets.astype("<i8").tobytes(),
        source_blob.tobytes(),
        dest_offsets.astype("<i8").tobytes(),
        dest_blob.tobytes(),
        url_offsets.astype("<i8").tobytes(),
        url_blob.tobytes(),
    ]
    return b"".join(sections)


def unpack_summaries(payload: bytes) -> List[ActivitySummary]:
    """Inverse of :func:`pack_summaries`."""
    version, n, n_intervals = _PACK_HEADER.unpack_from(payload, 0)
    if version != PACK_VERSION:
        raise ValueError(
            f"packed summary payload has version {version}, "
            f"expected {PACK_VERSION}"
        )
    cursor = _PACK_HEADER.size

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal cursor
        array = np.frombuffer(payload, dtype=dtype, count=count, offset=cursor)
        cursor += array.nbytes
        return array

    def take_strings(count: int) -> List[str]:
        offsets = take("<i8", count + 1)
        return _decode_strings(offsets, take("u1", int(offsets[-1])))

    time_scale = take("<f8", n).tolist()
    first_timestamp = take("<f8", n).tolist()
    interval_bounds = take("<i8", n + 1).tolist()
    intervals = take("<f8", n_intervals).tolist()
    url_bounds = take("<i8", n + 1).tolist()
    sources = take_strings(n)
    destinations = take_strings(n)
    urls = take_strings(int(url_bounds[-1]))
    # Constructed without __post_init__ re-validation — the payload was
    # packed from already-validated summaries, the same trust model
    # pickle applies when it restores instances via __setstate__.
    out: List[ActivitySummary] = []
    for i in range(n):
        summary = ActivitySummary.__new__(ActivitySummary)
        fields = {
            "source": sources[i],
            "destination": destinations[i],
            "time_scale": time_scale[i],
            "first_timestamp": first_timestamp[i],
            "intervals": tuple(
                intervals[interval_bounds[i]:interval_bounds[i + 1]]
            ),
            "urls": tuple(urls[url_bounds[i]:url_bounds[i + 1]]),
        }
        for name, value in fields.items():
            object.__setattr__(summary, name, value)
        out.append(summary)
    return out


class SummaryPacker(RecordPacker):
    """Packed-array codec for :class:`ActivitySummary` partitions."""

    def pack(self, records: List[ActivitySummary]) -> bytes:
        return pack_summaries(records)

    def unpack(self, payload: bytes) -> List[ActivitySummary]:
        return unpack_summaries(payload)


class SummaryStore:
    """Day-indexed persistent storage of per-pair activity summaries."""

    def __init__(self, root: Union[str, Path], *, n_partitions: int = 32) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_partitions = n_partitions
        self._packer = SummaryPacker()

    def _day_store(self, day: int) -> PartitionedStore:
        return PartitionedStore(
            self.root / f"day-{day:05d}",
            n_partitions=self.n_partitions,
            packer=self._packer,
        )

    # -- writing ---------------------------------------------------------------

    def append_day(
        self,
        day: int,
        summaries: Iterable[ActivitySummary],
        *,
        replace: bool = False,
    ) -> int:
        """Persist one day's summaries; returns the count written.

        ``replace=True`` clears the day first, making the call
        idempotent — the mode a checkpointed/resumed extraction must
        use, since blindly re-appending an already-ingested day would
        double every interval count in later analyses.
        """
        require(day >= 0, "day must be non-negative")
        store = self._day_store(day)
        if replace:
            store.clear()
        return store.write(list(summaries), key_of=lambda s: s.pair)

    # -- reading ---------------------------------------------------------------

    def has_day(self, day: int) -> bool:
        """True when summaries for ``day`` were already ingested.

        A direct path probe: O(1) however many days the store holds.
        (The previous implementation listed and parsed every day
        directory, so a resume loop probing each day of a long archive
        paid O(days²) in aggregate.)
        """
        return (self.root / f"day-{day:05d}").exists()

    def days(self) -> List[int]:
        """The day indices present in the store, ascending."""
        out = []
        for path in sorted(self.root.glob("day-*")):
            try:
                out.append(int(path.name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return out

    def load_day(self, day: int) -> List[ActivitySummary]:
        """All summaries of one day (empty when absent)."""
        return list(self._day_store(day).read_all())

    def load_window(
        self,
        *,
        end_day: Optional[int] = None,
        window_days: int = 7,
        time_scale: Optional[float] = None,
    ) -> List[ActivitySummary]:
        """Trailing window of summaries, merged per pair.

        ``time_scale`` optionally rescales before merging (the weekly
        and monthly passes run coarse); windows reaching before day 0
        are clipped.
        """
        require_positive(window_days, "window_days")
        days = self.days()
        if not days:
            return []
        if end_day is None:
            end_day = days[-1]
        wanted = [d for d in days if end_day - window_days < d <= end_day]
        grouped: Dict[Tuple[str, str], List[ActivitySummary]] = {}
        for day in wanted:
            for summary in self.load_day(day):
                grouped.setdefault(summary.pair, []).append(summary)
        workspace: Optional[np.ndarray] = None
        merged: List[ActivitySummary] = []
        for group in grouped.values():
            if time_scale is not None and all(
                s.time_scale <= time_scale for s in group
            ):
                # Fused rescale-and-merge: sort by the timestamp each
                # summary would start at after quantization so segment
                # order matches the copying composition.
                group.sort(
                    key=lambda s: (
                        float(np.floor(s.first_timestamp / time_scale) * time_scale)
                        if s.time_scale < time_scale
                        else s.first_timestamp
                    )
                )
                total = sum(s.event_count for s in group)
                if workspace is None or workspace.size < total:
                    workspace = np.empty(total, dtype=float)
                merged.append(merge_rescaled(group, time_scale, out=workspace))
            else:
                if time_scale is not None:
                    group = [
                        rescale(s, time_scale) if s.time_scale < time_scale else s
                        for s in group
                    ]
                group.sort(key=lambda s: s.first_timestamp)
                merged.append(merge(group))
        merged.sort(key=lambda s: s.pair)
        return merged

    # -- maintenance -----------------------------------------------------------

    def evict_before(self, day: int) -> int:
        """Drop every stored day strictly older than ``day``.

        Returns the number of days removed.  This is the rolling-window
        maintenance hook: an operator appending day ``d`` evicts
        ``d - window_days + 1`` so disk usage stays bounded by the
        longest cadence window instead of growing with run length.
        """
        removed = 0
        for stored in self.days():
            if stored < day:
                self._day_store(stored).clear()
                # clear() unlinks partition files but keeps the day
                # directory, which has_day() probes — remove it too.
                shutil.rmtree(self.root / f"day-{stored:05d}", ignore_errors=True)
                removed += 1
        return removed

    def clear(self) -> None:
        """Remove every stored day."""
        for day in self.days():
            self._day_store(day).clear()
