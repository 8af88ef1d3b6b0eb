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

Day shards persist as **packed frames**: each ``append_day`` writes one
columnar frame per partition (parallel float/offset arrays, UTF-8
string blobs and a per-frame dictionary of distinct URLs) instead of
one pickle per summary, which is both smaller and faster to decode.
Reads decode frames straight into
:class:`~repro.core.timeseries.SummaryColumns`, checking every section
on the way, so a window loads as one set of columns and merges in one
:func:`~repro.core.timeseries.merge_rescaled` call.  The read path is
format agnostic: version-1 frames (URLs stored in full) and days
written as pickles by older versions, alone or mixed with newer frames,
load unchanged.
"""

from __future__ import annotations

import shutil
import struct
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timeseries import ActivitySummary, SummaryColumns, merge_rescaled
from repro.mapreduce.store import CorruptFrameError, PartitionedStore, RecordPacker
from repro.obs import get_registry, span
from repro.utils.validation import require, require_positive


def _encode_strings(values: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """A string column -> (offsets i8[n+1], utf-8 byte blob u1[total])."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype="<i8")
    if encoded:
        np.cumsum([len(text) for text in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return offsets, blob


#: Packed-payload headers by codec version: the version, the summary
#: and interval counts, and (version 2) the size of the frame's URL
#: dictionary.  Every later section length follows from these and the
#: offset arrays that precede each blob, so a payload parses in one
#: forward sweep of zero-copy ``np.frombuffer`` views.
_VERSION = struct.Struct("<H")
_HEADERS = {1: struct.Struct("<HQQ"), 2: struct.Struct("<HQQQ")}
PACK_VERSION = 2


def pack_summaries(summaries: Sequence[ActivitySummary]) -> bytes:
    """A batch of summaries -> one blob of packed parallel arrays.

    Layout (all little-endian, raw array bytes, no container): the
    version-2 header, per-summary scalars (``time_scale``,
    ``first_timestamp``), ragged intervals as ``interval_offsets`` +
    one concatenated ``f8`` array, per-summary URL offsets, sources and
    destinations as offset-indexed UTF-8 blobs, the frame's distinct
    URLs as one more such blob, and each summary's URL sample as
    ``u4`` ids into it.  Floats round-trip bit-exactly: no text
    conversion is involved.
    """
    columns = SummaryColumns.from_summaries(summaries)
    sections = [
        columns.time_scale.astype("<f8"),
        columns.first_timestamp.astype("<f8"),
        columns.interval_offsets.astype("<i8"),
        columns.intervals.astype("<f8"),
        columns.url_offsets.astype("<i8"),
        *_encode_strings(columns.sources),
        *_encode_strings(columns.destinations),
        *_encode_strings(columns.url_table),
        columns.url_ids.astype("<u4"),
    ]
    header = _HEADERS[PACK_VERSION].pack(
        PACK_VERSION, len(columns), len(columns.intervals),
        len(columns.url_table),
    )
    return header + b"".join(section.tobytes() for section in sections)


_F8, _I8, _U4, _U1 = (np.dtype(code) for code in ("<f8", "<i8", "<u4", "u1"))
Buffer = Union[bytes, memoryview]


class _FrameReader:
    """A forward cursor over one packed payload that checks each section."""

    def __init__(self, payload: Buffer) -> None:
        self.payload = payload
        self.cursor = 0

    def header(self) -> Tuple[int, ...]:
        if len(self.payload) < _VERSION.size:
            raise CorruptFrameError("payload too short for a version field")
        (version,) = _VERSION.unpack_from(self.payload, 0)
        layout = _HEADERS.get(version)
        if layout is None:
            raise CorruptFrameError(
                f"packed summary payload has version {version}; this "
                f"program reads versions {sorted(_HEADERS)}"
            )
        if len(self.payload) < layout.size:
            raise CorruptFrameError(f"truncated version-{version} header")
        self.cursor = layout.size
        return layout.unpack_from(self.payload, 0)

    def take(self, dtype: np.dtype, count: int, what: str) -> np.ndarray:
        size = dtype.itemsize * count
        if self.cursor + size > len(self.payload):
            raise CorruptFrameError(
                f"{what} ({size} bytes at offset {self.cursor}) run past "
                f"the end of the {len(self.payload)}-byte payload"
            )
        array = np.frombuffer(
            self.payload, dtype=dtype, count=count, offset=self.cursor
        )
        self.cursor += size
        return array

    def offsets(
        self, rows: int, what: str, end: Optional[int] = None
    ) -> np.ndarray:
        """``rows + 1`` offsets; their order is checked with the values."""
        offsets = self.take(_I8, rows + 1, what)
        if offsets[0] != 0 or (end is not None and offsets[-1] != end):
            target = "" if end is None else f" and end at {end}"
            raise CorruptFrameError(f"{what} must start at 0{target}")
        return offsets

    def strings(self, count: int, what: str) -> Tuple[np.ndarray, Buffer]:
        """A string section, undecoded: its offsets and UTF-8 blob."""
        offsets = self.offsets(count, f"{what} offsets")
        start = self.cursor
        self.take(_U1, int(offsets[-1]), what)
        return offsets, self.payload[start:self.cursor]


class _Frame(NamedTuple):
    """One parsed frame: array views and undecoded string sections."""

    time_scale: np.ndarray
    first_timestamp: np.ndarray
    interval_offsets: np.ndarray
    intervals: np.ndarray
    url_offsets: np.ndarray
    url_ids: np.ndarray
    sources: Tuple[np.ndarray, Buffer]
    destinations: Tuple[np.ndarray, Buffer]
    urls: Tuple[np.ndarray, Buffer]


def _parse_frame(payload: Buffer) -> _Frame:
    """A packed payload's sections, checked for layout.

    Every section must fit the payload, which must be consumed exactly;
    offset arrays must start at 0 and end at their section's size; URL
    ids must index the frame's URL dictionary.  :func:`_columns` checks
    the rest, once for any number of frames.
    """
    reader = _FrameReader(payload)
    version, rows, n_intervals, *table = reader.header()
    time_scale = reader.take(_F8, rows, "time scales")
    first_timestamp = reader.take(_F8, rows, "first timestamps")
    interval_offsets = reader.offsets(rows, "interval offsets", n_intervals)
    intervals = reader.take(_F8, n_intervals, "intervals")
    url_offsets = reader.offsets(rows, "URL offsets")
    n_urls = int(url_offsets[-1])
    sources = reader.strings(rows, "sources")
    destinations = reader.strings(rows, "destinations")
    if version == 1:
        urls = reader.strings(n_urls, "URLs")
        url_ids = np.arange(n_urls)
    else:
        urls = reader.strings(table[0], "URL dictionary")
        url_ids = reader.take(_U4, n_urls, "URL ids")
        if n_urls and int(url_ids.max()) >= table[0]:
            raise CorruptFrameError(
                f"URL id {int(url_ids.max())} is outside the "
                f"{table[0]}-entry URL dictionary"
            )
    if reader.cursor != len(payload):
        raise CorruptFrameError(
            f"{len(payload) - reader.cursor} bytes follow the last section"
        )
    return _Frame(time_scale, first_timestamp, interval_offsets, intervals,
                  url_offsets, url_ids, sources, destinations, urls)


def _stitch(offsets: Sequence[np.ndarray]) -> np.ndarray:
    """Per-frame offset arrays, each from 0, as one over all their rows."""
    rows = [len(each) - 1 for each in offsets]
    sizes = [int(each[-1]) for each in offsets]
    out = np.empty(sum(rows) + 1, dtype=np.int64)
    out[:-1] = np.concatenate([each[:-1] for each in offsets])
    out[:-1] += np.repeat(np.cumsum([0] + sizes[:-1]), rows)
    out[-1] = sum(sizes)
    return out


def _increasing(offsets: np.ndarray, what: str) -> np.ndarray:
    if (offsets[1:] < offsets[:-1]).any():
        raise CorruptFrameError(f"{what} offsets decrease")
    return offsets


def _strings(sections: Sequence[Tuple[np.ndarray, Buffer]], what: str) -> List[str]:
    """Every frame's string section of one column, decoded at once."""
    bounds = _increasing(_stitch([o for o, _ in sections]), what).tolist()
    data = b"".join(blob for _, blob in sections)
    try:
        if data.isascii():
            # One decode, then slices: byte and character offsets agree
            # on ASCII text.
            text = data.decode("ascii")
            return [text[a:b] for a, b in zip(bounds, bounds[1:])]
        return [data[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise CorruptFrameError(f"{what}: {exc}") from None


def _columns(frames: Sequence[_Frame]) -> SummaryColumns:
    """The rows of parsed ``frames``, in order, as checked columns.

    One vectorized pass per array over all frames: offsets never
    decrease, time scales are positive and finite, first timestamps
    finite, intervals finite and non-negative; strings must be UTF-8.
    Raises :class:`CorruptFrameError`, which names no frame: decode
    the frames one at a time to find the damaged one.
    """
    if not frames:
        return SummaryColumns.from_summaries([])
    interval_offsets = _increasing(
        _stitch([f.interval_offsets for f in frames]), "interval")
    url_offsets = _increasing(_stitch([f.url_offsets for f in frames]), "URL")
    time_scale = np.concatenate([f.time_scale for f in frames])
    first_timestamp = np.concatenate([f.first_timestamp for f in frames])
    intervals = np.concatenate([f.intervals for f in frames])
    if time_scale.size and not (
        time_scale.min() > 0 and time_scale.max() < np.inf
    ):
        raise CorruptFrameError("time scales must be positive and finite")
    if not np.isfinite(first_timestamp).all():
        raise CorruptFrameError("first timestamps must be finite")
    if intervals.size and not (
        intervals.min() >= 0 and intervals.max() < np.inf
    ):
        raise CorruptFrameError("intervals must be finite and non-negative")
    table_sizes = [len(f.urls[0]) - 1 for f in frames]
    url_ids = np.concatenate([f.url_ids for f in frames]).astype(np.int64)
    url_ids += np.repeat(
        np.cumsum([0] + table_sizes[:-1]), [len(f.url_ids) for f in frames]
    )
    return SummaryColumns(
        sources=_strings([f.sources for f in frames], "sources"),
        destinations=_strings([f.destinations for f in frames], "destinations"),
        time_scale=time_scale,
        first_timestamp=first_timestamp,
        interval_offsets=interval_offsets,
        intervals=intervals,
        url_offsets=url_offsets,
        url_ids=url_ids,
        url_table=_strings([f.urls for f in frames], "URLs"),
    )


def decode_frame(payload: Buffer) -> SummaryColumns:
    """One packed payload (any version) -> its columns, checked.

    Every section must fit the payload, offset arrays must start at 0,
    never decrease and end at their section's size, URL ids must index
    the URL dictionary, time scales must be positive and finite, first
    timestamps finite, intervals finite and non-negative, strings UTF-8,
    and the payload must be consumed exactly.  Anything else raises
    :class:`~repro.mapreduce.store.CorruptFrameError`.  Version-1
    frames store every URL in full; they decode with identity ids.
    """
    return _columns([_parse_frame(payload)])


def unpack_summaries(payload: Buffer) -> List[ActivitySummary]:
    """Inverse of :func:`pack_summaries` (reads version-1 payloads too)."""
    return decode_frame(payload).summaries()


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

    def _day_path(self, day: int) -> Path:
        return self.root / f"day-{day:05d}"

    def _day_store(self, day: int) -> PartitionedStore:
        return PartitionedStore(
            self._day_path(day),
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
        return self._day_path(day).exists()

    def days(self) -> List[int]:
        """The day indices present in the store, ascending."""
        out = []
        for path in sorted(self.root.glob("day-*")):
            try:
                out.append(int(path.name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return out

    def _read(self, days: Sequence[int]) -> SummaryColumns:
        """Every row of ``days``, checked, in day, partition and frame order.

        Days the store does not hold are skipped, never created.  Counts
        the frames, rows and bytes read.  A damaged frame raises
        :class:`~repro.mapreduce.store.CorruptFrameError` naming its
        partition file and index.
        """
        days = [day for day in days if self.has_day(day)]
        frames: List[_Frame] = []
        frame_days: List[int] = []
        n_frames = size = 0
        for day in days:
            store = self._day_store(day)
            pickled: List[ActivitySummary] = []
            for partition in range(self.n_partitions):
                for packed, item, nbytes in store.frames(
                    partition, _parse_frame
                ):
                    n_frames += 1
                    size += nbytes
                    if not packed:
                        pickled.append(item)
                        continue
                    if pickled:
                        # Older days hold one pickle per summary.
                        frames.append(_parse_frame(pack_summaries(pickled)))
                        frame_days.append(day)
                        pickled = []
                    frames.append(item)
                    frame_days.append(day)
            if pickled:
                frames.append(_parse_frame(pack_summaries(pickled)))
                frame_days.append(day)
        try:
            columns = _columns(frames)
        except CorruptFrameError:
            # Name the damaged frame: decode every frame on its own.
            for day in days:
                store = self._day_store(day)
                for partition in range(self.n_partitions):
                    for _frame in store.frames(partition, decode_frame):
                        pass
            raise
        registry = get_registry()
        registry.counter("summary_store.frames_read").inc(n_frames)
        registry.counter("summary_store.rows_read").inc(len(columns))
        registry.counter("summary_store.bytes_read").inc(size)
        return replace(columns, days=np.repeat(
            np.array(frame_days, dtype=np.int64),
            [len(frame.time_scale) for frame in frames],
        ))

    def load_day(self, day: int) -> List[ActivitySummary]:
        """All summaries of one day (empty when absent)."""
        return self._read([day]).summaries()

    def load_window(
        self,
        *,
        end_day: Optional[int] = None,
        window_days: int = 7,
        time_scale: Optional[float] = None,
    ) -> List[ActivitySummary]:
        """Trailing window of summaries, one per pair, sorted by pair.

        Windows reaching before day 0 are clipped.  Each pair's stored
        rows are rescaled to ``time_scale`` and merged (the weekly and
        monthly passes run coarse); ``None`` keeps every pair at its
        stored scale.  A row stored coarser than ``time_scale``, or with
        ``None`` a pair stored at two scales, raises ``ValueError``
        naming the pair, the day and both scales, and a damaged frame
        raises :class:`~repro.mapreduce.store.CorruptFrameError`.  See
        :func:`~repro.core.timeseries.merge_rescaled`.
        """
        require_positive(window_days, "window_days")
        days = self.days()
        if not days:
            return []
        if end_day is None:
            end_day = days[-1]
        wanted = [d for d in days if end_day - window_days < d <= end_day]
        with span("summary_store.load_window"):
            with span("decode"):
                columns = self._read(wanted)
            with span("merge"):
                return merge_rescaled(columns, time_scale)

    # -- maintenance -----------------------------------------------------------

    def evict_before(self, day: int) -> int:
        """Drop every stored day strictly older than ``day``.

        Returns the number of days removed.  This is the rolling-window
        maintenance hook: an operator appending day ``d`` evicts
        ``d - window_days + 1`` so disk usage stays bounded by the
        longest cadence window instead of growing with run length.
        """
        old = [stored for stored in self.days() if stored < day]
        for stored in old:
            self._remove_day(stored)
        return len(old)

    def clear(self) -> None:
        """Remove every stored day."""
        for day in self.days():
            self._remove_day(day)

    def _remove_day(self, day: int) -> None:
        # The whole directory goes: has_day() and days() read its
        # presence, so an emptied day left behind would still count as
        # ingested.
        shutil.rmtree(self._day_path(day))
