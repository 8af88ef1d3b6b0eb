"""Persistent ActivitySummary store across analysis runs.

The paper's phases are "modularized MapReduce job[s] to avoid
reprocessing raw logs" (Section VII): once a day's logs are extracted
into ActivitySummaries, every later analysis — the weekly and monthly
passes, re-ranking with new whitelists, retrospective hunts — reads the
summaries, never the raw logs.

:class:`SummaryStore` keeps one file per day, ``day-NNNNN`` under its
root, and each ``append_day`` call adds one **packed frame** to it: the
``BAYPACK1`` magic, the payload's length, then a columnar payload
(parallel float/offset arrays, UTF-8 string blobs and a per-frame
dictionary of distinct URLs).  Reads decode frames straight into
:class:`~repro.core.timeseries.SummaryColumns`, checking every section
on the way.  A window is read one day file at a time: each day's
columns are folded into a :class:`~repro.core.timeseries.WindowFold`
and dropped before the next day is read, so the decoded window is
never held whole.  A frame that cannot be read, or a day file that
holds no frame, raises :class:`CorruptFrameError` naming the day file;
a day that older versions stored as a directory of partition files
raises :class:`StoreLayoutError` naming it.
"""

from __future__ import annotations

import numbers
import os
import re
import shutil
import struct
from dataclasses import replace
from pathlib import Path
from typing import (
    Any, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.core.timeseries import (
    ActivitySummary,
    SummaryColumns,
    freeze,
    merge_rescaled,
)
from repro.obs import get_registry, span
from repro.utils.validation import require, require_positive


class CorruptFrameError(ValueError):
    """A frame of a day file that cannot be decoded.

    Raised unlocated by the payload decoder and re-raised by the store
    with :meth:`at`, so the message names the file and the frame.
    """

    def at(self, path: Path, frame: int) -> "CorruptFrameError":
        """This error, located at frame ``frame`` of ``path``."""
        return CorruptFrameError(f"{path}, frame {frame}: {self}")


class StoreLayoutError(ValueError):
    """A day stored as a directory of partition files by older versions."""


def _partitioned(path: Path) -> StoreLayoutError:
    return StoreLayoutError(
        f"{path} is a directory of partition files, the layout of older "
        f"versions of the summary store; remove it and re-ingest the day "
        f"from its raw logs"
    )


def _encode_strings(values: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """A string column -> (offsets i8[n+1], utf-8 byte blob u1[total])."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype="<i8")
    if encoded:
        np.cumsum([len(text) for text in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return offsets, blob


#: Frame header in a day file: this magic, then the payload's length.
PACKED_MAGIC = b"BAYPACK1"
_LENGTH = struct.Struct("<Q")

#: Packed-payload header: the version, the summary and interval counts,
#: and the size of the frame's URL dictionary.  Every later section
#: length follows from these and the offset arrays that precede each
#: blob, so a payload parses in one forward sweep of zero-copy
#: ``np.frombuffer`` views.
_VERSION = struct.Struct("<H")
_HEADER = struct.Struct("<HQQQ")
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
        columns.time_scale.astype("<f8", copy=False),
        columns.first_timestamp.astype("<f8", copy=False),
        columns.interval_offsets.astype("<i8", copy=False),
        columns.intervals.astype("<f8", copy=False),
        columns.url_offsets.astype("<i8", copy=False),
        *_encode_strings(columns.sources),
        *_encode_strings(columns.destinations),
        *_encode_strings(columns.url_table),
        columns.url_ids.astype("<u4"),
    ]
    header = _HEADER.pack(
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

    def header(self) -> Tuple[int, int, int]:
        """The summary, interval and URL-dictionary counts."""
        if len(self.payload) < _VERSION.size:
            raise CorruptFrameError("payload too short for a version field")
        (version,) = _VERSION.unpack_from(self.payload, 0)
        if version != PACK_VERSION:
            raise CorruptFrameError(
                f"packed summary payload has version {version}; this "
                f"program reads version {PACK_VERSION} only"
            )
        if len(self.payload) < _HEADER.size:
            raise CorruptFrameError(f"truncated version-{version} header")
        self.cursor = _HEADER.size
        return _HEADER.unpack_from(self.payload, 0)[1:]

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
    rows, n_intervals, n_table = reader.header()
    time_scale = reader.take(_F8, rows, "time scales")
    first_timestamp = reader.take(_F8, rows, "first timestamps")
    interval_offsets = reader.offsets(rows, "interval offsets", n_intervals)
    intervals = reader.take(_F8, n_intervals, "intervals")
    url_offsets = reader.offsets(rows, "URL offsets")
    n_urls = int(url_offsets[-1])
    sources = reader.strings(rows, "sources")
    destinations = reader.strings(rows, "destinations")
    urls = reader.strings(n_table, "URL dictionary")
    url_ids = reader.take(_U4, n_urls, "URL ids")
    if n_urls and int(url_ids.max()) >= n_table:
        raise CorruptFrameError(
            f"URL id {int(url_ids.max())} is outside the "
            f"{n_table}-entry URL dictionary"
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
    # Frozen, so the summaries sliced from these columns keep views.
    intervals = freeze(np.concatenate([f.intervals for f in frames]))
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
    """One packed payload -> its columns, checked.

    Every section must fit the payload, offset arrays must start at 0,
    never decrease and end at their section's size, URL ids must index
    the URL dictionary, time scales must be positive and finite, first
    timestamps finite, intervals finite and non-negative, strings UTF-8,
    and the payload must be consumed exactly.  Anything else, a version
    other than :data:`PACK_VERSION` included, raises
    :class:`CorruptFrameError`.
    """
    return _columns([_parse_frame(payload)])


def unpack_summaries(payload: Buffer) -> List[ActivitySummary]:
    """Inverse of :func:`pack_summaries`."""
    return decode_frame(payload).summaries()


def _payloads(path: Path, data: bytes) -> Iterator[memoryview]:
    """The frames of day file ``path``, holding ``data``, as payload views.

    Bytes that do not start with :data:`PACKED_MAGIC` (a pickle record
    among them) and a frame cut off in the file raise
    :class:`CorruptFrameError` naming the file and the frame.
    """
    view = memoryview(data)
    magic = len(PACKED_MAGIC)
    cursor = index = 0
    while cursor < len(data):
        if not PACKED_MAGIC.startswith(data[cursor:cursor + magic]):
            raise CorruptFrameError(
                f"no frame magic at byte {cursor}"
            ).at(path, index)
        start = cursor + magic + _LENGTH.size
        if start > len(data):
            raise CorruptFrameError("truncated frame header").at(path, index)
        (length,) = _LENGTH.unpack_from(data, cursor + magic)
        if start + length > len(data):
            raise CorruptFrameError(
                f"frame of {length} bytes truncated to {len(data) - start}"
            ).at(path, index)
        yield view[start:start + length]
        cursor = start + length
        index += 1


def _whole(value: Any, name: str) -> int:
    """``value`` as an ``int``; a float or a bool raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


#: The names :meth:`SummaryStore._day_path` gives day files, and only those.
_DAY_NAME = re.compile(r"day-(\d{5,})")


class SummaryStore:
    """Day-indexed persistent storage of per-pair activity summaries."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _day_path(self, day: int) -> Path:
        return self.root / f"day-{_whole(day, 'day'):05d}"

    # -- writing ---------------------------------------------------------------

    def append_day(
        self,
        day: int,
        summaries: Iterable[ActivitySummary],
        *,
        replace: bool = False,
    ) -> int:
        """Persist one day's summaries as one frame; returns the count.

        ``replace=True`` makes the frame the day's only one, the mode a
        checkpointed/resumed extraction must use, since blindly
        re-appending an already-ingested day would double every
        interval count in later analyses.  The new file is written
        under a temporary name and renamed into place, so a failure at
        any point, in ``summaries`` included, leaves the old day or the
        new one.  An empty ``summaries`` still writes a frame: the day
        counts as ingested.  ``day`` must be a non-negative ``int``.
        """
        path = self._day_path(day)
        require(day >= 0, "day must be non-negative")
        if path.is_dir():
            raise _partitioned(path)
        rows = list(summaries)
        payload = pack_summaries(rows)
        frame = PACKED_MAGIC + _LENGTH.pack(len(payload)) + payload
        if replace:
            staging = path.with_name(path.name + ".tmp")
            staging.write_bytes(frame)
            os.replace(staging, path)
        else:
            with path.open("ab") as handle:
                handle.write(frame)
        return len(rows)

    # -- reading ---------------------------------------------------------------

    def has_day(self, day: int) -> bool:
        """True when summaries for ``day`` were already ingested.

        A direct path probe: O(1) however many days the store holds, so
        a resume loop probing each day of a long archive stays linear.
        A day in the partitioned layout of older versions counts: it is
        refused when read or appended to, never re-ingested beside
        itself.
        """
        return self._day_path(day).exists()

    def days(self) -> List[int]:
        """The day indices present in the store, ascending.

        Only names the store writes count: ``day-`` and the day's index,
        zero-padded to five digits.  Anything else under the root (a
        ``day-7``, a staging ``.tmp`` file) is not a day.
        """
        out = []
        for path in self.root.glob("day-*"):
            match = _DAY_NAME.fullmatch(path.name)
            if match and self._day_path(int(match[1])).name == path.name:
                out.append(int(match[1]))
        return sorted(out)

    def _read(self, day: int) -> SummaryColumns:
        """Every row of ``day``, checked, in frame order.

        A day the store does not hold reads as no rows and is never
        created.  Counts the frames, rows and bytes read.  A damaged
        frame raises :class:`CorruptFrameError` naming its day file and
        index, as does a day file with no frame in it, and a day in the
        partitioned layout :class:`StoreLayoutError`.
        """
        path = self._day_path(day)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return SummaryColumns.from_summaries([])
        except IsADirectoryError:
            raise _partitioned(path) from None
        if not data:
            raise CorruptFrameError(
                f"{path} is empty: a day file holds at least one frame"
            )
        frames: List[_Frame] = []
        for index, payload in enumerate(_payloads(path, data)):
            try:
                frames.append(_parse_frame(payload))
            except CorruptFrameError as exc:
                raise exc.at(path, index) from None
        try:
            columns = _columns(frames)
        except CorruptFrameError:
            # Name the damaged frame: check every frame on its own.
            for index, frame in enumerate(frames):
                try:
                    _columns([frame])
                except CorruptFrameError as exc:
                    raise exc.at(path, index) from None
            raise
        registry = get_registry()
        registry.counter("summary_store.frames_read").inc(len(frames))
        registry.counter("summary_store.rows_read").inc(len(columns))
        registry.counter("summary_store.bytes_read").inc(len(data))
        return replace(
            columns, days=np.full(len(columns), day, dtype=np.int64)
        )

    def load_day(self, day: int) -> List[ActivitySummary]:
        """All summaries of one day (empty when absent), in stored order.

        Their intervals are read-only views of one array decoded from
        the day's frames.
        """
        return self._read(day).summaries()

    def load_window(
        self,
        *,
        end_day: Optional[int] = None,
        window_days: int = 7,
        time_scale: Optional[float] = None,
    ) -> List[ActivitySummary]:
        """Trailing window of summaries, one per pair, sorted by pair.

        The window is the days ``end_day - window_days + 1`` to
        ``end_day`` (by default the latest stored day) that the store
        holds; both must be ``int`` and ``window_days`` positive.  Each
        pair's stored rows are rescaled to ``time_scale`` and merged
        (the weekly and monthly passes run coarse); ``None`` keeps every
        pair at its stored scale.  Days are read one at a time, each
        folded into a :class:`~repro.core.timeseries.WindowFold` by
        :func:`~repro.core.timeseries.merge_rescaled` and dropped before
        the next is read.  A row stored coarser than
        ``time_scale``, or with ``None`` a pair stored at two scales,
        raises ``ValueError`` naming the pair, the day and both scales
        (days after it are not read), and a damaged frame raises
        :class:`CorruptFrameError`.

        The merged pairs' intervals are read-only views of one buffer,
        each pair's own slice of it.
        """
        window_days = _whole(window_days, "window_days")
        require_positive(window_days, "window_days")
        if end_day is not None:
            end_day = _whole(end_day, "end_day")
        days = self.days()
        if not days:
            return []
        if end_day is None:
            end_day = days[-1]
        wanted = [d for d in days if end_day - window_days < d <= end_day]
        with span("summary_store.load_window"):
            return merge_rescaled(self._read_each(wanted), time_scale)

    def _read_each(self, days: Sequence[int]) -> Iterator[SummaryColumns]:
        """Each day's columns in turn, each read only when asked for."""
        for day in days:
            with span("decode"):
                columns = self._read(day)
            yield columns
            del columns  # the day's bytes and columns go before the next

    # -- maintenance -----------------------------------------------------------

    def evict_before(self, day: int) -> int:
        """Drop every stored day strictly older than ``day``.

        Returns the number of days removed.  This is the rolling-window
        maintenance hook: an operator appending day ``d`` evicts
        ``d - window_days + 1`` so disk usage stays bounded by the
        longest cadence window instead of growing with run length.
        """
        day = _whole(day, "day")
        old = [stored for stored in self.days() if stored < day]
        for stored in old:
            self._remove_day(stored)
        return len(old)

    def clear(self) -> None:
        """Remove every stored day."""
        for day in self.days():
            self._remove_day(day)

    def _remove_day(self, day: int) -> None:
        path = self._day_path(day)
        if path.is_dir():  # the partitioned layout of older versions
            shutil.rmtree(path)
        else:
            path.unlink()
