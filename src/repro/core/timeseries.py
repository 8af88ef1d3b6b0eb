"""Time-series construction from raw request timestamps.

The unit of analysis in BAYWATCH is the *ActivitySummary* of one
communication pair (paper Section VII-A): the first request timestamp, a
time scale (1 second at the finest granularity), and the list of
inter-request intervals.  This module provides:

- :class:`ActivitySummary` — the canonical container, and
  :func:`freeze`, which hands it an interval buffer without a copy,
- :func:`intervals_from_timestamps` / :func:`timestamps_from_intervals` —
  the lossless conversions,
- :func:`bin_series` — turn timestamps into the discrete signal ``x(n)``
  consumed by the periodogram,
- :func:`rescale` / :func:`merge` — the rescaling-and-merging phase
  (paper Section VII-B) that lets long windows be analyzed at coarse
  granularity without reprocessing raw logs,
- :class:`SummaryColumns` / :class:`WindowFold` / :func:`merge_rescaled` —
  the same phase
  over columnar rows: a weekly or monthly window is folded one batch of
  rows (a stored day) at a time, each batch rescaled in one array pass
  and dropped, then each pair's rows are merged, bit-identical to the
  composition of the two, with one output summary per pair and no
  intermediate summary per input day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.obs.tracing import span
from repro.utils.validation import (
    as_float_array,
    as_sorted_timestamps,
    require,
    require_positive,
)


def intervals_from_timestamps(timestamps: Sequence[float]) -> np.ndarray:
    """Return the inter-event interval list ``i_k = t_{k+1} - t_k``.

    Input timestamps are sorted first; an input of fewer than two events
    yields an empty array.
    """
    ts = as_sorted_timestamps(timestamps)
    if ts.size < 2:
        return np.empty(0, dtype=float)
    return np.diff(ts)


def timestamps_from_intervals(first: float, intervals: Sequence[float]) -> np.ndarray:
    """Reconstruct absolute timestamps from a first timestamp and intervals."""
    ivals = as_float_array(intervals, "intervals")
    if np.any(ivals < 0):
        raise ValueError("intervals must be non-negative")
    return float(first) + np.concatenate([[0.0], np.cumsum(ivals)])


def bin_series(
    timestamps: Sequence[float],
    time_scale: float,
    *,
    span: Optional[Tuple[float, float]] = None,
    binary: bool = False,
    oob: str = "drop",
) -> np.ndarray:
    """Bin event timestamps into the discrete signal ``x(n)``.

    ``x(n)`` counts the events falling into the n-th slot of width
    ``time_scale`` seconds.  With ``binary=True`` the signal is clipped to
    {0, 1} (presence/absence), which makes the periodogram insensitive to
    per-slot request multiplicity.

    Slots are half-open — slot ``n`` covers ``[start + n*time_scale,
    start + (n+1)*time_scale)`` — except that the final slot also
    admits events at exactly ``end``, so the covered window is the
    closed ``[start, end]``.

    ``span`` fixes the ``(start, end)`` window explicitly; by default
    the window runs from the first to the last event.  ``oob`` names
    the policy for events outside an explicit span: ``"drop"`` (the
    default) ignores them, ``"raise"`` rejects the call — use it when
    an out-of-span event means an upstream windowing bug rather than
    expected clutter.  Without ``span`` no event can be out of range
    and ``oob`` is moot.
    """
    require_positive(time_scale, "time_scale")
    require(oob in ("drop", "raise"), "oob must be 'drop' or 'raise'")
    ts = as_sorted_timestamps(timestamps)
    if span is not None:
        start, end = float(span[0]), float(span[1])
        require(end > start, "span end must be greater than span start")
        in_span = (ts >= start) & (ts <= end)
        if oob == "raise" and not np.all(in_span):
            n_out = int(ts.size - np.count_nonzero(in_span))
            raise ValueError(
                f"{n_out} event(s) fall outside the span [{start}, {end}]"
            )
        ts = ts[in_span]
    elif ts.size == 0:
        return np.zeros(0, dtype=float)
    else:
        start, end = float(ts[0]), float(ts[-1])
    n_bins = int(np.floor((end - start) / time_scale)) + 1
    if ts.size:
        # In-span slots cannot leave [0, n_bins - 1]: floor and the
        # correctly-rounded subtraction/division are monotone, so
        # start <= ts <= end pins floor((ts - start) / time_scale)
        # between 0 and floor((end - start) / time_scale).  (An np.clip
        # used to sit here; besides being dead for in-span events it
        # would have silently folded any out-of-span event into an edge
        # bin — a spurious spike at the window border — instead of
        # surfacing it.)
        indices = np.floor((ts - start) / time_scale).astype(int)
        # bincount produces the same integer slot counts as the old
        # ``np.add.at`` scatter at a fraction of its cost (the detector
        # bins every pair at every scale, so this is a hot path).
        signal = np.bincount(indices, minlength=n_bins).astype(float)
    else:
        signal = np.zeros(n_bins, dtype=float)
    if binary:
        signal = np.minimum(signal, 1.0)
    return signal


def freeze(array: np.ndarray) -> np.ndarray:
    """``array``, which its caller alone holds, made read-only in place.

    :class:`ActivitySummary` keeps read-only intervals without copying
    them, so a producer that owns a fresh interval buffer freezes it
    here before it slices it or hands it over.
    """
    array.flags.writeable = False
    return array


def _read_only_intervals(values: Sequence[float]) -> np.ndarray:
    """``values`` as a checked, read-only 1-D float64 array.

    A read-only array whose base, when an array, is read-only too is
    kept as it is, so slices of a frozen buffer stay views of it;
    anything else is copied, then frozen.
    """
    array = as_float_array(values, "intervals")
    if array.size and array.min() < 0:
        raise ValueError("intervals must be non-negative")
    base_flags = getattr(array.base, "flags", array.flags)
    if array.flags.writeable or base_flags.writeable:
        array = freeze(array.copy())
    return array


def _unpickle_summary(*fields) -> "ActivitySummary":
    """A pickled summary; its fresh interval array is frozen, not copied."""
    *scalars, intervals, urls = fields
    return ActivitySummary(*scalars, freeze(intervals), urls)


@dataclass(frozen=True, eq=False)
class ActivitySummary:
    """Request activity of one source/destination communication pair.

    Mirrors the paper's ActivitySummary record (Section VII-A): the pair,
    the time scale ``e`` in seconds, the first request timestamp, the
    interval list, and optional side-channel information (URLs) used by
    the token filter (Section V-A).

    ``intervals`` is a read-only 1-D float64 array that no caller can
    write: the constructor keeps an array that is already read-only
    (see :func:`_read_only_intervals`) and copies anything else.
    Summaries compare and hash by value, and pickle to equal summaries
    with read-only intervals.
    """

    source: str
    destination: str
    time_scale: float
    first_timestamp: float
    intervals: np.ndarray
    urls: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("time_scale", "first_timestamp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"pair {self.pair}: {name} must be finite, got {value!r}"
                )
        require_positive(self.time_scale, "time_scale")
        object.__setattr__(
            self, "intervals", _read_only_intervals(self.intervals)
        )
        object.__setattr__(self, "urls", tuple(self.urls))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.source == other.source
            and self.destination == other.destination
            and self.time_scale == other.time_scale
            and self.first_timestamp == other.first_timestamp
            and self.urls == other.urls
            and np.array_equal(self.intervals, other.intervals)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, the one pair of equal floats whose
        # bytes differ (intervals hold no NaN).
        return hash((
            self.source, self.destination, self.time_scale,
            self.first_timestamp, (self.intervals + 0.0).tobytes(), self.urls,
        ))

    def __reduce__(self):
        return _unpickle_summary, (
            self.source, self.destination, self.time_scale,
            self.first_timestamp, self.intervals, self.urls,
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_timestamps(
        cls,
        source: str,
        destination: str,
        timestamps: Sequence[float],
        *,
        time_scale: float = 1.0,
        urls: Sequence[str] = (),
    ) -> "ActivitySummary":
        """Build a summary from raw request timestamps.

        Timestamps are quantized to the given ``time_scale`` (the paper
        extracts at 1-second granularity by default).
        """
        ts = as_sorted_timestamps(timestamps)
        require(ts.size > 0, "timestamps must not be empty")
        quantized = np.floor(ts / time_scale) * time_scale
        return cls(
            source=source,
            destination=destination,
            time_scale=time_scale,
            first_timestamp=float(quantized[0]),
            intervals=freeze(np.diff(quantized)),
            urls=tuple(urls),
        )

    # -- views -------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of requests summarized (intervals + 1)."""
        return self.intervals.size + 1

    @property
    def duration(self) -> float:
        """Seconds between the first and the last request.

        The intervals summed left to right, as a running sum adds them.
        """
        if not self.intervals.size:
            return 0.0
        return float(np.cumsum(self.intervals)[-1])

    @property
    def pair(self) -> Tuple[str, str]:
        """The (source, destination) communication pair."""
        return (self.source, self.destination)

    def timestamps(self) -> np.ndarray:
        """Absolute request timestamps reconstructed from the intervals."""
        return timestamps_from_intervals(self.first_timestamp, self.intervals)

    def signal(self, *, binary: bool = False) -> np.ndarray:
        """The binned signal ``x(n)`` at this summary's time scale."""
        return bin_series(self.timestamps(), self.time_scale, binary=binary)

    def nonzero_intervals(self) -> np.ndarray:
        """Intervals strictly greater than zero.

        Requests landing in the same time slot produce zero intervals;
        the statistical pruning filters (Section IV-C) operate on the
        positive intervals.
        """
        return self.intervals[self.intervals > 0]


def rescale(summary: ActivitySummary, new_time_scale: float) -> ActivitySummary:
    """Re-express ``summary`` at a coarser time scale (Section VII-B).

    The paper's MAP task rescales old intervals to a new granularity
    ``e'`` so that months of data can be analyzed without reprocessing
    raw logs.  Rescaling to a finer granularity than the current one is
    rejected: the information is already lost.
    """
    require(
        0 < new_time_scale < math.inf,
        f"pair {summary.pair}: new_time_scale must be positive and finite, "
        f"got {new_time_scale!r}",
    )
    if new_time_scale < summary.time_scale:
        raise ValueError(
            "cannot rescale to a finer granularity: "
            f"{new_time_scale} < {summary.time_scale}"
        )
    if new_time_scale == summary.time_scale:
        return summary
    ts = summary.timestamps()
    quantized = np.floor(ts / new_time_scale) * new_time_scale
    return replace(
        summary,
        time_scale=new_time_scale,
        first_timestamp=float(quantized[0]),
        intervals=freeze(np.diff(quantized)),
    )


def merge(summaries: Sequence[ActivitySummary]) -> ActivitySummary:
    """Merge several summaries of the *same* pair and time scale.

    Used by the rescale-and-merge REDUCE task to fuse per-day summaries
    into one long-window summary.  Overlapping or duplicate timestamps
    are kept (they quantize into shared slots downstream).
    """
    require(len(summaries) > 0, "summaries must not be empty")
    head = summaries[0]
    for other in summaries[1:]:
        if other.pair != head.pair:
            raise ValueError(f"cannot merge different pairs: {other.pair} != {head.pair}")
        if other.time_scale != head.time_scale:
            raise ValueError(
                "cannot merge different time scales: "
                f"{other.time_scale} != {head.time_scale}"
            )
    if len(summaries) == 1:
        return head
    all_ts = np.sort(
        np.concatenate([summary.timestamps() for summary in summaries]),
        kind="stable",
    )
    return ActivitySummary(
        source=head.source,
        destination=head.destination,
        time_scale=head.time_scale,
        first_timestamp=float(all_ts[0]),
        intervals=freeze(np.diff(all_ts)),
        urls=tuple(url for summary in summaries for url in summary.urls),
    )


@dataclass(frozen=True, eq=False)
class SummaryColumns:
    """Activity summaries as parallel columns, one row per summary.

    The form the summary store decodes its packed frames into and
    :meth:`WindowFold.add` consumes.  Row ``r`` summarizes the pair
    ``(sources[r], destinations[r])`` at ``time_scale[r]`` seconds from
    ``first_timestamp[r]`` on, with the intervals
    ``intervals[interval_offsets[r]:interval_offsets[r + 1]]`` and the
    URL sample ``url_table[i]`` for each ``i`` in
    ``url_ids[url_offsets[r]:url_offsets[r + 1]]``.  ``days``
    optionally holds the day each row was stored under; error messages
    name it.
    """

    sources: List[str]
    destinations: List[str]
    time_scale: np.ndarray
    first_timestamp: np.ndarray
    interval_offsets: np.ndarray
    intervals: np.ndarray
    url_offsets: np.ndarray
    url_ids: np.ndarray
    url_table: List[str]
    days: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.sources)

    @classmethod
    def from_summaries(
        cls, summaries: Sequence[ActivitySummary]
    ) -> "SummaryColumns":
        """The columns of ``summaries``; URLs get ids in first-seen order."""
        table: Dict[str, int] = {}
        url_ids = [
            table.setdefault(url, len(table))
            for summary in summaries for url in summary.urls
        ]
        return cls(
            sources=[s.source for s in summaries],
            destinations=[s.destination for s in summaries],
            time_scale=np.array([s.time_scale for s in summaries], dtype=float),
            first_timestamp=np.array(
                [s.first_timestamp for s in summaries], dtype=float
            ),
            interval_offsets=_offsets([s.intervals.size for s in summaries]),
            intervals=freeze(np.concatenate(
                [s.intervals for s in summaries] or [np.empty(0)]
            )),
            url_offsets=_offsets([len(s.urls) for s in summaries]),
            url_ids=np.array(url_ids, dtype=np.int64),
            url_table=list(table),
        )

    def summaries(self) -> List[ActivitySummary]:
        """One summary per row, in row order.

        Each summary's intervals are a view of :attr:`intervals` when
        that is read-only, as the library's producers of columns leave
        it, and a copy otherwise.
        """
        table = self.url_table
        urls = [table[i] for i in self.url_ids.tolist()]
        bounds = self.interval_offsets.tolist()
        url_bounds = self.url_offsets.tolist()
        return [
            ActivitySummary(
                source, destination, scale, first,
                self.intervals[bounds[row]:bounds[row + 1]],
                tuple(urls[url_bounds[row]:url_bounds[row + 1]]),
            )
            for row, (source, destination, scale, first) in enumerate(zip(
                self.sources, self.destinations,
                self.time_scale.tolist(), self.first_timestamp.tolist(),
            ))
        ]


def _offsets(counts: Sequence[int]) -> np.ndarray:
    """Row offsets ``[0, c0, c0 + c1, ...]`` of ragged rows of ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[r], starts[r] + lengths[r])``, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


#: float64 adds, subtracts and multiplies whole numbers exactly while
#: the exact result stays below this magnitude.
_EXACT_INTEGERS = float(2 ** 53)


def _row_sums(
    values: np.ndarray, bounds: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``starts[r] + np.cumsum(row r)`` for every row, bit for bit.

    Row ``r`` is ``values[bounds[r]:bounds[r + 1]]``; the values must
    be non-negative.  When the values and starts are whole numbers and
    every sum stays below 2**53, all of it is exact, so one running sum
    over all rows, less each row's base, gives every row's sums.
    Otherwise rows are laid out on zero-padded grids, one per
    power-of-two width class so padding at most doubles a class, and
    each grid is summed along its rows.
    """
    if values.size == 0:
        return np.zeros(0)
    lengths = np.diff(bounds)
    if np.array_equal(starts, np.trunc(starts)) and np.array_equal(
        values, np.trunc(values)
    ):
        totals = np.cumsum(values)
        if totals[-1] + np.abs(starts).max() < _EXACT_INTEGERS:
            before = bounds[:-1] - 1
            bases = np.where(before >= 0, totals[before], 0.0) - starts
            totals -= np.repeat(bases, lengths)
            return totals
    out = np.empty_like(values)
    _, exponents = np.frexp(lengths)  # exponent 0 <=> an empty row
    for exponent in np.unique(exponents[exponents > 0]).tolist():
        rows = np.flatnonzero(exponents == exponent)
        width = 1 << exponent
        filled = np.arange(width) < lengths[rows][:, np.newaxis]
        where = _ragged(bounds[rows], lengths[rows])
        grid = np.zeros((rows.size, width))
        grid[filled] = values[where]
        np.cumsum(grid, axis=1, out=grid)
        out[where] = grid[filled]
    out += np.repeat(starts, lengths)
    return out


def _on_day(columns: SummaryColumns, row: int) -> str:
    return "" if columns.days is None else f" on day {int(columns.days[row])}"


def _register(ids: Dict[Any, int], keys: Iterable[Any]) -> List[Any]:
    """``keys`` as a list, each new one given the next id in ``ids``."""
    keys = list(keys)
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
    return keys


class _Rows(NamedTuple):
    """One folded batch of rows, each in ``1 + its interval count`` slots.

    A row's slots hold its first timestamp and intervals as
    :func:`rescale` returns them, or, where that is exact, the
    timestamps :func:`merge` reads from them (``stamped``).
    """

    pair: np.ndarray  # each row's pair id, ids in arrival order
    first: np.ndarray  # each row's rescaled first timestamp
    lengths: np.ndarray  # each row's interval count
    slots: np.ndarray  # every row's slots, in row order
    stamped: np.ndarray
    url_lengths: np.ndarray
    url_ids: np.ndarray  # ids into the fold's one URL table


#: Slots summed per :func:`_row_sums` call when a fold merges its pairs,
#: so the sums' temporaries stay small beside the window.
_SUM_CHUNK = 1 << 16


class WindowFold:
    """Rescale rows to one time scale and merge each pair's, batch by batch.

    The rescaling-and-merging phase (paper Section VII-B) of a weekly or
    monthly window.  :meth:`add` takes one batch of rows, a stored day
    say, rescales it in one array pass and keeps only the rescaled rows,
    so the caller can drop the batch before it reads the next one.
    :meth:`summaries` then merges each pair's rows: in order of their
    rescaled first timestamps, ties in arrival order.  Each merged
    summary is bit-identical to ``merge([rescale(s, time_scale) for s
    in rows])`` however the rows were batched: every value is computed
    with the composition's floating-point operations in its order, or
    exactly where whole numbers allow a shortcut.  ``time_scale=None``
    keeps every pair at its stored scale.

    Rescaling only coarsens.  A row stored coarser than ``time_scale``,
    or with ``None`` a pair stored at two scales, makes :meth:`add`
    raise ``ValueError`` naming the pair, the day (when the batch's
    ``days`` is set) and both scales.
    """

    def __init__(self, time_scale: Optional[float]) -> None:
        if time_scale is not None:
            require(
                0 < time_scale < math.inf,
                f"time_scale must be positive and finite, got {time_scale!r}",
            )
        self.time_scale = time_scale
        self._start()

    def _start(self) -> None:
        """Empty the window."""
        self._pairs: Dict[Tuple[str, str], int] = {}  # ids in arrival order
        self._scales: List[float] = []  # each pair's first row's scale ...
        self._head_days: List[str] = []  # ... and its day, for errors
        self._urls: Dict[str, int] = {}  # the window's one URL table
        self._batches: List[_Rows] = []

    def add(self, columns: SummaryColumns) -> None:
        """Rescale the rows of ``columns`` and keep them for the merge."""
        n = len(columns)
        if n == 0:
            return
        pairs = self._pairs
        pair_of = np.fromiter(
            map(pairs.__getitem__, _register(
                pairs, zip(columns.sources, columns.destinations)
            )),
            dtype=np.intp, count=n,
        )
        scales = columns.time_scale
        ids, heads = np.unique(pair_of, return_index=True)
        for row in heads[ids >= len(self._scales)].tolist():
            self._scales.append(float(scales[row]))
            self._head_days.append(_on_day(columns, row))
        time_scale = self.time_scale
        if time_scale is None:
            # Each pair stays at its first row's scale, which all its
            # rows must share.
            mismatched = np.flatnonzero(
                scales != np.array(self._scales)[pair_of]
            )
            if mismatched.size:
                row = int(mismatched[0])
                head = int(pair_of[row])
                raise ValueError(
                    f"cannot merge pair {list(pairs)[head]} across time "
                    f"scales: {self._scales[head]:g} s{self._head_days[head]} "
                    f"and {scales[row]:g} s{_on_day(columns, row)}"
                )
            rescaled = np.zeros(n, dtype=bool)
        else:
            coarser = np.flatnonzero(scales > time_scale)
            if coarser.size:
                row = int(coarser[0])
                raise ValueError(
                    f"cannot rescale pair {list(pairs)[pair_of[row]]}"
                    f"{_on_day(columns, row)} to a finer granularity: "
                    f"{time_scale:g} s < {scales[row]:g} s"
                )
            rescaled = scales < time_scale
        offsets = columns.interval_offsets
        lengths = np.diff(offsets)
        bounds = _offsets(lengths + 1)
        is_interval = np.ones(int(bounds[-1]), dtype=bool)
        is_interval[bounds[:-1]] = False
        slots = np.zeros(is_interval.size)
        slots[is_interval] = columns.intervals[offsets[0]:offsets[-1]]
        stamped = np.zeros(n, dtype=bool)
        if rescaled.any():
            # rescale(): every row's timestamps as
            # ActivitySummary.timestamps() computes them, quantized to
            # the coarser slots.
            stamps = _row_sums(slots, bounds, columns.first_timestamp)
            picked = None if rescaled.all() else np.repeat(
                rescaled, lengths + 1)
            quantized = stamps if picked is None else stamps[picked]
            np.divide(quantized, time_scale, out=quantized)
            np.floor(quantized, out=quantized)
            np.multiply(quantized, time_scale, out=quantized)
            if float(time_scale).is_integer() and quantized.min() >= 0 \
                    and quantized.max() < _EXACT_INTEGERS:
                # Whole multiples of a whole time scale in [0, 2**53):
                # the round trip merge() makes through the intervals
                # gives them back unchanged, so the rows keep them.
                stamped = rescaled
            else:
                # The rows keep rescale()'s first timestamp and intervals.
                row_heads = bounds[:-1] if picked is None else _offsets(
                    lengths[rescaled] + 1)[:-1]
                firsts = quantized[row_heads]
                np.subtract(quantized[1:], quantized[:-1], out=quantized[1:])
                quantized[row_heads] = firsts
            if picked is None:
                slots = quantized
            else:
                slots[picked] = quantized
        slots[bounds[:-1][~rescaled]] = columns.first_timestamp[~rescaled]
        urls = self._urls
        remap = np.fromiter(
            map(urls.__getitem__, _register(urls, columns.url_table)),
            dtype=np.intp, count=len(columns.url_table),
        )
        url_offsets = columns.url_offsets
        self._batches.append(_Rows(
            pair_of, slots[bounds[:-1]], lengths, slots, stamped,
            np.diff(url_offsets),
            remap[columns.url_ids[url_offsets[0]:url_offsets[-1]]],
        ))

    def summaries(self) -> List[ActivitySummary]:
        """One merged summary per pair, sorted by pair; empties the fold.

        The kept rows are copied into one buffer a batch at a time, each
        pair's rows side by side, and each batch is dropped once copied.
        A pair's summary keeps a read-only view of that buffer as its
        intervals, and its URL sample names each distinct URL of the
        window with one string.
        """
        batches = self._batches
        pairs, scales, urls = list(self._pairs), self._scales, self._urls
        self._start()
        if not batches:
            return []
        by_pair = sorted(range(len(pairs)), key=pairs.__getitem__)
        rank = np.empty(len(pairs), dtype=np.intp)
        rank[by_pair] = np.arange(len(pairs))
        pair_of = rank[np.concatenate([batch.pair for batch in batches])]
        row_counts = np.bincount(pair_of, minlength=len(pairs))
        alone = row_counts == 1
        # Rows grouped by pair, each pair's in rescaled-start order
        # (lexsort is stable, so ties keep arrival order); the pairs of
        # more than one row come first.
        order = np.lexsort((
            np.concatenate([batch.first for batch in batches]),
            pair_of, alone[pair_of],
        ))
        pair_order = np.lexsort((np.arange(len(pairs)), alone))
        top = np.empty(len(pairs), dtype=np.int64)  # each pair's first row
        top[pair_order] = _offsets(row_counts[pair_order])[:-1]
        position = np.empty(order.size, dtype=np.intp)
        position[order] = np.arange(order.size)
        lengths = np.concatenate([batch.lengths for batch in batches])
        counts = lengths[order] + 1
        bounds = _offsets(counts)
        url_bounds = _offsets(
            np.concatenate([batch.url_lengths for batch in batches])[order]
        )
        stamped = np.concatenate([batch.stamped for batch in batches])[order]
        values = np.empty(int(bounds[-1]))
        url_ids = np.empty(int(url_bounds[-1]), dtype=np.intp)
        row = 0
        batches.reverse()
        while batches:
            batch = batches.pop()  # dropped once copied
            at = position[row:row + batch.pair.size]
            values[_ragged(bounds[at], batch.lengths + 1)] = batch.slots
            url_ids[_ragged(url_bounds[at], batch.url_lengths)] = batch.url_ids
            row += batch.pair.size
            del batch
        # merge(): the timestamps of every merged row not stamped yet,
        # its first timestamp plus a 0-prefixed running sum of its
        # intervals, a chunk of rows at a time.
        summed = np.flatnonzero(~stamped[:int(row_counts[~alone].sum())])
        cuts = np.flatnonzero(np.diff(
            np.cumsum(counts[summed]) // _SUM_CHUNK, prepend=0
        )).tolist()
        for lo, hi in zip([0] + cuts, cuts + [summed.size]):
            rows = summed[lo:hi]
            if rows.size:
                row_bounds = _offsets(counts[rows])
                where = _ragged(bounds[rows], counts[rows])
                steps = values[where]
                firsts = steps[row_bounds[:-1]]
                steps[row_bounds[:-1]] = 0.0
                values[where] = _row_sums(steps, row_bounds, firsts)
        # Then each merged pair's stamps sorted (stably: equal stamps
        # keep row order) and each pair's intervals differenced in
        # place, but a pair alone in the window whose row kept
        # rescale()'s intervals.
        busy = np.flatnonzero(~alone | stamped[top])
        for a, b, merged in zip(
            bounds[top[busy]].tolist(),
            bounds[top[busy] + row_counts[busy]].tolist(),
            (~alone[busy]).tolist(),
        ):
            region = values[a:b]
            if merged:
                region.sort(kind="stable")
            np.subtract(region[1:], region[:-1], out=region[1:])
        freeze(values)
        table = np.array(list(urls), dtype=object)
        starts = bounds[top].tolist()
        ends = bounds[top + row_counts].tolist()
        url_starts = url_bounds[top].tolist()
        url_ends = url_bounds[top + row_counts].tolist()
        heads = values[bounds[top]].tolist()
        time_scale = self.time_scale
        return [
            ActivitySummary(
                source=pairs[index][0],
                destination=pairs[index][1],
                time_scale=float(
                    scales[index] if time_scale is None else time_scale
                ),
                first_timestamp=head,
                intervals=values[start + 1:end],
                urls=tuple(table[url_ids[url_start:url_end]].tolist()),
            )
            for index, head, start, end, url_start, url_end in zip(
                by_pair, heads, starts, ends, url_starts, url_ends
            )
        ]


def merge_rescaled(
    batches: Iterable[SummaryColumns], time_scale: Optional[float]
) -> List[ActivitySummary]:
    """Rescale and merge the rows of ``batches`` with one :class:`WindowFold`.

    Batches are taken one at a time, so a caller that builds each one
    when asked (a day file's read, say) holds one batch at a time.
    Each fold step, every ``add`` and the closing merge, is a ``merge``
    span.  Returns :meth:`WindowFold.summaries`.
    """
    fold = WindowFold(time_scale)
    for columns in batches:
        with span("merge"):
            fold.add(columns)
    with span("merge"):
        return fold.summaries()
