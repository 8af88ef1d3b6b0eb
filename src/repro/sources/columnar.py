"""Columnar proxy-log chunks: the one fold from log events to summaries.

The paper's operational story is explicitly big-data (Section VII): a
13-node Hadoop cluster extracts summaries *once* so later analyses
never reprocess raw logs.  At that scale ingestion cannot afford one
Python object per log line, so every run folds proxy logs through this
module:

- :class:`StringTable` — append-only string interning, so endpoint and
  URL columns are small integer ids instead of repeated strings.  A
  column is interned by hashing: one ``set`` pass finds the strings
  not seen before, which take the next ids in sorted order, and one
  ``fromiter`` pass maps the column to ids; strings are never sorted
  en masse or copied into fixed-width arrays,
- :class:`RecordChunk` — a bounded slice of the log as one numpy
  structured array (``timestamp/f8`` plus ``i4`` ids into the chunk's
  :class:`ColumnTables`); a row's arrival order is its array order,
- :func:`read_log_chunks` / :func:`records_to_chunks` /
  :func:`chunks_to_records` — the converters between the TSV log
  format, object records, and chunks,
- :class:`ColumnarAccumulator` / :func:`summaries_from_chunks` — the
  vectorized per-pair fold: whole chunks are grouped with one
  ``argsort`` and per-pair slot histograms are built with run-length
  passes instead of a Python-level loop per event.  Each pair's URL
  sample is held as ``(timestamp, url id)`` arrays in arrival order
  and only its at most ``max_urls_per_pair`` survivors are decoded to
  strings, once per pair.  Peak memory is the per-pair state plus one
  chunk.

:func:`repro.sources.proxy.records_to_summaries` is the adapter for
object records.  The fold matches materialize-then-group semantics
(``tests/sources/oracle.py``), and a malformed line or a timestamp
without an int64 time slot raises
:class:`~repro.sources.proxy.LogFormatError`.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.sources.proxy import (
    STATUS_BOUND,
    PairConfig,
    ProxyLogRecord,
    slot_column,
)
from repro.utils.validation import require, require_positive

__all__ = [
    "CHUNK_DTYPE",
    "ColumnTables",
    "ColumnarAccumulator",
    "RecordChunk",
    "StringTable",
    "chunks_to_records",
    "read_log_chunks",
    "records_to_chunks",
    "summaries_from_chunks",
]

#: One parsed log line as a structured-array row.  Strings live in the
#: chunk's :class:`ColumnTables`; the row stores only interned ids.
CHUNK_DTYPE = np.dtype(
    [
        ("timestamp", "f8"),
        ("source_mac", "i4"),
        ("source_ip", "i4"),
        ("destination", "i4"),
        ("url", "i4"),
        ("status", "i4"),
        ("bytes_sent", "i8"),
    ]
)


class StringTable:
    """Append-only string interning table (id == insertion order)."""

    __slots__ = ("_ids", "_values")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []
        for value in values:
            self.intern(value)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> str:
        return self._values[index]

    @property
    def values(self) -> List[str]:
        """The interned strings, id order (a live reference; don't mutate)."""
        return self._values

    def intern(self, value: str) -> int:
        """The id of ``value``, interning it on first sight."""
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self._values)
            self._values.append(value)
        return ident

    def intern_column(self, values: Sequence[str]) -> np.ndarray:
        """Intern a materialized column; returns its ids as ``i4``.

        The column is hashed, not sorted or copied into a numpy string
        array: its distinct values not yet in the table take the next
        ids in sorted order, then one ``fromiter`` pass looks up every
        row's id.  Only the new values are sorted — a 64k-row batch of
        the TSV parser typically adds a few hundred endpoints — and ids
        depend on the columns a table has seen, not on the row order
        within a column.
        """
        for value in sorted(set(values).difference(self._ids)):
            self.intern(value)
        return np.fromiter(
            map(self._ids.__getitem__, values),
            dtype=np.int32,
            count=len(values),
        )

    def decode(self, ids: np.ndarray) -> List[str]:
        """The strings behind an id array, in order."""
        values = self._values
        return [values[i] for i in ids.tolist()]


@dataclass
class ColumnTables:
    """The interning tables shared by every chunk of one log stream."""

    macs: StringTable = field(default_factory=StringTable)
    ips: StringTable = field(default_factory=StringTable)
    domains: StringTable = field(default_factory=StringTable)
    urls: StringTable = field(default_factory=StringTable)


@dataclass
class RecordChunk:
    """A bounded run of proxy-log records in columnar form.

    ``data`` is a :data:`CHUNK_DTYPE` structured array, rows in arrival
    order; ``tables`` maps the id columns back to strings (shared
    across every chunk of one stream, so ids are stable stream-wide).
    """

    data: np.ndarray
    tables: ColumnTables

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def to_records(self) -> Iterator[ProxyLogRecord]:
        """Rehydrate object records (the compatibility shim)."""
        tables = self.tables
        for row in self.data:
            yield ProxyLogRecord(
                timestamp=float(row["timestamp"]),
                source_mac=tables.macs[int(row["source_mac"])],
                source_ip=tables.ips[int(row["source_ip"])],
                destination=tables.domains[int(row["destination"])],
                url=tables.urls[int(row["url"])],
                status=int(row["status"]),
                bytes_sent=int(row["bytes_sent"]),
            )

    @classmethod
    def from_records(
        cls,
        records: Sequence[ProxyLogRecord],
        *,
        tables: Optional[ColumnTables] = None,
    ) -> "RecordChunk":
        """Columnarize a materialized batch of object records."""
        tables = tables if tables is not None else ColumnTables()
        data = np.empty(len(records), dtype=CHUNK_DTYPE)
        data["timestamp"] = [r.timestamp for r in records]
        data["source_mac"] = tables.macs.intern_column(
            [r.source_mac for r in records]
        )
        data["source_ip"] = tables.ips.intern_column(
            [r.source_ip for r in records]
        )
        data["destination"] = tables.domains.intern_column(
            [r.destination for r in records]
        )
        data["url"] = tables.urls.intern_column([r.url for r in records])
        data["status"] = [r.status for r in records]
        data["bytes_sent"] = [r.bytes_sent for r in records]
        return cls(data=data, tables=tables)


def records_to_chunks(
    records: Iterable[ProxyLogRecord],
    *,
    chunk_size: int = 65_536,
    tables: Optional[ColumnTables] = None,
) -> Iterator[RecordChunk]:
    """Batch an object-record stream into columnar chunks."""
    require_positive(chunk_size, "chunk_size")
    tables = tables if tables is not None else ColumnTables()
    buffer: List[ProxyLogRecord] = []
    for record in records:
        buffer.append(record)
        if len(buffer) >= chunk_size:
            yield RecordChunk.from_records(buffer, tables=tables)
            buffer = []
    if buffer:
        yield RecordChunk.from_records(buffer, tables=tables)


def chunks_to_records(
    chunks: Iterable[RecordChunk],
) -> Iterator[ProxyLogRecord]:
    """Flatten chunks back into an object-record stream."""
    for chunk in chunks:
        yield from chunk.to_records()


def read_log_chunks(
    path: Union[str, Path],
    *,
    chunk_size: int = 65_536,
    tables: Optional[ColumnTables] = None,
) -> Iterator[RecordChunk]:
    """Parse a (possibly gzipped) TSV log straight into columnar chunks.

    Each batch of ``chunk_size`` lines is split once and written column
    by column into one structured array, with endpoint/URL strings
    interned as they are first seen; no :class:`ProxyLogRecord` is
    built.  A batch with blank lines is split again line by line,
    skipping them.  A batch with a line without exactly seven fields or
    a field that is not a number is parsed again with
    :meth:`ProxyLogRecord.from_line`, which raises
    :class:`~repro.sources.proxy.LogFormatError` naming the first bad
    line.
    """
    require_positive(chunk_size, "chunk_size")
    path = Path(path)
    tables = tables if tables is not None else ColumnTables()
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        while True:
            lines = list(islice(handle, chunk_size))
            if not lines:
                break
            chunk = _parse_batch(lines, tables)
            if len(chunk):
                yield chunk


_N_FIELDS = 7
#: A well-formed line's fields plus the ``"\n"`` that ends it.
_STRIDE = _N_FIELDS + 1


def _parse_batch(lines: List[str], tables: ColumnTables) -> RecordChunk:
    fields = _batch_fields(lines)
    if fields is None:
        fields = _fields_per_line(lines)
    if fields is not None:
        try:
            return _chunk_from_fields(fields, tables)
        except (ValueError, OverflowError):
            pass  # a field that is not a number, or out of range
    # A malformed line: the record parser raises naming the first one.
    return RecordChunk.from_records(
        [ProxyLogRecord.from_line(line) for line in lines if line.strip()],
        tables=tables,
    )


def _batch_fields(lines: List[str]) -> Optional[List[str]]:
    """A batch of TSV lines as one flat field list, or ``None``.

    One ``join``/``replace``/``split`` turns the whole batch into a flat
    list without touching individual lines from Python.  Every line end
    becomes a field of its own, ``"\\n"``, so the batch is well formed
    exactly when the list holds :data:`_STRIDE` fields per line and
    every :data:`_STRIDE`-th field is a line end: a line with too many
    fields cannot make up for one with too few.  ``None`` means the
    batch holds a blank or malformed line.
    """
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    fields = text.replace("\n", "\t\n\t").split("\t")
    fields.pop()  # the empty field after the last line end
    ends = fields[_N_FIELDS::_STRIDE]
    if len(fields) != _STRIDE * len(lines) or ends.count("\n") != len(ends):
        return None
    return fields


def _fields_per_line(lines: List[str]) -> Optional[List[str]]:
    """:func:`_batch_fields` line by line, skipping blank lines.

    ``None`` means a line does not hold exactly seven fields.
    """
    fields: List[str] = []
    for line in lines:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != _N_FIELDS:
            return None
        fields.extend(parts)
        fields.append("\n")
    return fields


def _chunk_from_fields(fields: List[str], tables: ColumnTables) -> RecordChunk:
    """A chunk from :func:`_batch_fields` output.

    The numeric columns convert first, so a :class:`ValueError` from a
    field that is not a number or a status out of the int32 column's
    range, or an :class:`OverflowError` from a byte count beyond int64,
    leaves ``tables`` untouched.
    """
    data = np.empty(len(fields) // _STRIDE, dtype=CHUNK_DTYPE)
    data["timestamp"] = np.array(fields[0::_STRIDE], dtype=np.float64)
    status = np.array(fields[5::_STRIDE], dtype=np.int64)
    if status.size and not (
        -STATUS_BOUND <= status.min() and status.max() < STATUS_BOUND
    ):
        raise ValueError("status out of range")
    data["status"] = status
    data["bytes_sent"] = np.array(fields[6::_STRIDE], dtype=np.int64)
    data["source_mac"] = tables.macs.intern_column(fields[1::_STRIDE])
    data["source_ip"] = tables.ips.intern_column(fields[2::_STRIDE])
    data["destination"] = tables.domains.intern_column(fields[3::_STRIDE])
    data["url"] = tables.urls.intern_column(fields[4::_STRIDE])
    return RecordChunk(data=data, tables=tables)


class _ColumnarPairState:
    """One pair's slot histogram and URL sample, as packed arrays.

    The URL sample is ``(timestamp, url id)`` arrays in (timestamp,
    arrival) order; arrival order is array order, which stable sorts
    keep, so no arrival index is stored.  The ids index ``url_table``,
    the URL :class:`StringTable` of the chunks that supplied them, and
    are decoded once, in :meth:`finalize`.
    """

    __slots__ = (
        "slots", "counts", "url_ts", "url_ids", "url_table", "max_urls",
    )

    def __init__(self, max_urls: int) -> None:
        self.slots = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)
        self.url_ts = np.empty(0, dtype=np.float64)
        self.url_ids = np.empty(0, dtype=np.int32)
        self.url_table: Optional[StringTable] = None
        self.max_urls = max_urls

    def merge_counts(self, slots: np.ndarray, counts: np.ndarray) -> None:
        """Fold a sorted (slot, count) run into the histogram."""
        if self.slots.size == 0:
            self.slots, self.counts = slots, counts
            return
        # Fast append path: a later chunk of the same stream usually
        # extends the window, so the new run often lands entirely past
        # the existing slots (searchsorted beats a full re-sort there).
        if np.searchsorted(slots, self.slots[-1], side="right") == 0:
            self.slots = np.concatenate([self.slots, slots])
            self.counts = np.concatenate([self.counts, counts])
            return
        merged = np.concatenate([self.slots, slots])
        weights = np.concatenate([self.counts, counts])
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        weights = weights[order]
        starts = np.flatnonzero(
            np.concatenate(([True], merged[1:] != merged[:-1]))
        )
        self.slots = merged[starts]
        self.counts = np.add.reduceat(weights, starts)

    def merge_urls(
        self, ts: np.ndarray, ids: np.ndarray, table: StringTable
    ) -> None:
        """Keep the ``max_urls`` earliest (timestamp, arrival) URLs.

        ``ts``/``ids`` must be in (timestamp, arrival) order, with
        arrivals later than any already merged.
        """
        if self.url_table is None:
            self.url_table = table
        elif table is not self.url_table:
            # A chunk interned against other tables: re-key both samples
            # into a table of their own (at most 2 * max_urls strings).
            own = StringTable()
            self.url_ids = own.intern_column(
                self.url_table.decode(self.url_ids)
            )
            ids = own.intern_column(table.decode(ids))
            self.url_table = own
        room = self.max_urls - self.url_ts.size
        if not self.url_ts.size or ts[0] >= self.url_ts[-1]:
            # Every new row sorts after the sample (always so in a
            # time-ordered stream): at most ``room`` of them join it.
            if room > 0:
                self.url_ts = np.concatenate([self.url_ts, ts[:room]])
                self.url_ids = np.concatenate([self.url_ids, ids[:room]])
            return
        all_ts = np.concatenate([self.url_ts, ts])
        all_ids = np.concatenate([self.url_ids, ids])
        # Equal timestamps stay in array order, which is arrival order.
        keep = np.argsort(all_ts, kind="stable")[: self.max_urls]
        self.url_ts = all_ts[keep]
        self.url_ids = all_ids[keep]

    def finalize(
        self, source: str, destination: str, time_scale: float
    ) -> ActivitySummary:
        quantized = np.repeat(
            self.slots.astype(float) * time_scale, self.counts
        )
        table = self.url_table
        return ActivitySummary(
            source=source,
            destination=destination,
            time_scale=time_scale,
            first_timestamp=float(quantized[0]),
            intervals=np.diff(quantized),
            urls=() if table is None else tuple(table.decode(self.url_ids)),
        )


class ColumnarAccumulator:
    """Fold columnar chunks into per-pair activity summaries.

    Whole chunks fold in one pass — slot quantization, pair grouping,
    and per-slot counts are numpy array operations; Python-level work
    is one short loop per *distinct pair per chunk*, not per event.
    The state kept between chunks is per pair: a slot histogram and a
    URL sample of at most ``max_urls_per_pair`` entries.
    """

    def __init__(
        self,
        *,
        time_scale: float = 1.0,
        keep_urls: bool = True,
        max_urls_per_pair: int = 64,
        aggregate_entities: bool = False,
        pair_config: Optional[PairConfig] = None,
    ) -> None:
        require_positive(time_scale, "time_scale")
        require(max_urls_per_pair >= 0, "max_urls_per_pair must be non-negative")
        if pair_config is None:
            pair_config = PairConfig(
                destination_feature=(
                    "registered_domain" if aggregate_entities else "domain"
                )
            )
        self.time_scale = time_scale
        self.pair_config = pair_config
        self._max_urls = max_urls_per_pair if keep_urls else 0
        self._pairs: Dict[Tuple[str, str], _ColumnarPairState] = {}
        # domain-id -> registered-domain string, memoized per (table
        # identity, consumed length) so entity aggregation stays
        # vectorizable: the mapping array simply extends as the stream's
        # shared table grows.
        self._registered: Dict[int, Tuple[StringTable, List[str]]] = {}

    def __len__(self) -> int:
        """Number of distinct pairs accumulated so far."""
        return len(self._pairs)

    # -- column resolution -------------------------------------------------

    def _source_column(
        self, chunk: RecordChunk
    ) -> Tuple[np.ndarray, StringTable]:
        if self.pair_config.source_feature == "mac":
            return chunk.data["source_mac"], chunk.tables.macs
        return chunk.data["source_ip"], chunk.tables.ips

    def _destination_column(
        self, chunk: RecordChunk
    ) -> Tuple[np.ndarray, List[str]]:
        """Destination ids plus the id -> string decode list."""
        ids = chunk.data["destination"]
        table = chunk.tables.domains
        if self.pair_config.destination_feature != "registered_domain":
            return ids, table.values
        from repro.lm.domains import registered_domain

        entry = self._registered.get(id(table))
        if entry is None or entry[0] is not table:
            entry = (table, [])
            self._registered[id(table)] = entry
        _table, mapped = entry
        while len(mapped) < len(table):
            mapped.append(registered_domain(table[len(mapped)]))
        return ids, mapped

    # -- folding -----------------------------------------------------------

    def observe_chunk(self, chunk: RecordChunk) -> None:
        """Fold one columnar chunk into the per-pair state."""
        n = len(chunk)
        if n == 0:
            return
        ts = chunk.data["timestamp"]
        src_ids, src_table = self._source_column(chunk)
        dst_ids, dst_decode = self._destination_column(chunk)
        slots = slot_column(ts, self.time_scale)

        # Order the chunk by (pair, slot); run-length boundaries then
        # give every pair's slot histogram as a slice — no per-group
        # sort or np.unique call.  Log streams are normally already
        # time-ordered, in which case one stable sort by pair leaves
        # each group in (timestamp, arrival) order, serving both the
        # histogram runs and the URL sample; otherwise fall back to two
        # explicit lexsorts.
        keys = (src_ids.astype(np.int64) << 32) | dst_ids.astype(np.int64)
        max_urls = self._max_urls
        if n < 2 or not np.any(np.diff(ts) < 0):
            order = np.argsort(keys, kind="stable")
            url_order = order
        else:
            order = np.lexsort((slots, keys))
            # By (pair, timestamp, arrival) — lexsort is stable, so
            # equal timestamps keep arrival order — and each group's
            # earliest-k URL sample is its leading slice; group
            # boundaries coincide with the histogram ordering's (both
            # sort primarily by key).
            url_order = np.lexsort((ts, keys)) if max_urls > 0 else order
        sorted_keys = keys[order]
        sorted_slots = slots[order]
        key_break = sorted_keys[1:] != sorted_keys[:-1]
        group_starts = np.flatnonzero(np.concatenate(([True], key_break)))
        group_bounds = np.append(group_starts, n)
        run_starts = np.flatnonzero(
            np.concatenate(
                ([True], key_break | (sorted_slots[1:] != sorted_slots[:-1]))
            )
        )
        run_slots = sorted_slots[run_starts]
        run_counts = np.diff(np.append(run_starts, n))
        # Each group's runs are a contiguous range of run_starts, and
        # every group start is itself a run start.
        group_runs = np.searchsorted(run_starts, group_starts)
        run_bounds = np.append(group_runs, len(run_starts)).tolist()
        if max_urls > 0:
            # Every group's earliest-k URL candidates, gathered for the
            # whole chunk at once so each pair takes a slice: candidate
            # j of a group sits j places after the group's start.
            takes = np.minimum(np.diff(group_bounds), max_urls)
            pick_bounds = np.concatenate(([0], np.cumsum(takes)))
            pick = url_order[
                np.arange(pick_bounds[-1])
                + np.repeat(group_starts - pick_bounds[:-1], takes)
            ]
            pick_ts = ts[pick]
            pick_ids = chunk.data["url"][pick]
            pick_bounds = pick_bounds.tolist()
        url_table = chunk.tables.urls

        group_keys = sorted_keys[group_starts].tolist()
        for index, key_value in enumerate(group_keys):
            pair = (
                src_table[key_value >> 32],
                dst_decode[key_value & 0xFFFFFFFF],
            )
            state = self._pairs.get(pair)
            if state is None:
                state = self._pairs[pair] = _ColumnarPairState(max_urls)
            runs = slice(run_bounds[index], run_bounds[index + 1])
            state.merge_counts(run_slots[runs], run_counts[runs])
            if max_urls > 0:
                urls = slice(pick_bounds[index], pick_bounds[index + 1])
                state.merge_urls(pick_ts[urls], pick_ids[urls], url_table)

    def summaries(self) -> List[ActivitySummary]:
        """Finalize every pair, ordered deterministically by pair."""
        return [
            self._pairs[pair].finalize(pair[0], pair[1], self.time_scale)
            for pair in sorted(self._pairs)
        ]


def summaries_from_chunks(
    chunks: Iterable[RecordChunk],
    *,
    time_scale: float = 1.0,
    keep_urls: bool = True,
    max_urls_per_pair: int = 64,
    aggregate_entities: bool = False,
    pair_config: Optional[PairConfig] = None,
) -> List[ActivitySummary]:
    """Group a columnar chunk stream into per-pair activity summaries.

    Summaries come back ordered by pair; the options are those of
    :func:`repro.sources.proxy.records_to_summaries`.
    """
    accumulator = ColumnarAccumulator(
        time_scale=time_scale,
        keep_urls=keep_urls,
        max_urls_per_pair=max_urls_per_pair,
        aggregate_entities=aggregate_entities,
        pair_config=pair_config,
    )
    for chunk in chunks:
        accumulator.observe_chunk(chunk)
    return accumulator.summaries()
