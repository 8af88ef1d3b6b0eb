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
- :class:`SummaryColumns` / :func:`merge_rescaled` — the same phase
  over columnar rows: every pair of a weekly or monthly window is
  rescaled and merged in one array pipeline, bit-identical to the
  composition of the two, with one output summary per pair and no
  intermediate summary per input day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    :func:`merge_rescaled` consumes.  Row ``r`` summarizes the pair
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


def merge_rescaled(
    columns: SummaryColumns, time_scale: Optional[float]
) -> List[ActivitySummary]:
    """Rescale every row to ``time_scale`` and merge each pair's rows.

    The rescaling-and-merging phase (paper Section VII-B) as one array
    pipeline over all rows.  A pair's rows merge in order of their
    rescaled first timestamps, ties in row order, and each merged
    summary is bit-identical to ``merge([rescale(s, time_scale) for s
    in rows])``: every value is computed with the composition's
    floating-point operations in its order, or exactly where whole
    numbers allow a shortcut.  ``time_scale=None`` keeps every pair at
    its stored scale.  Returns one validated summary per pair, sorted
    by pair.

    Rescaling only coarsens.  A row stored coarser than ``time_scale``,
    or with ``None`` a pair stored at two scales, raises ``ValueError``
    naming the pair, the day (when ``columns.days`` is set) and both
    scales.
    """
    n = len(columns)
    if n == 0:
        return []
    if time_scale is not None:
        require(
            0 < time_scale < math.inf,
            f"time_scale must be positive and finite, got {time_scale!r}",
        )
    pairs = list(zip(columns.sources, columns.destinations))
    unique = sorted(set(pairs))
    rank = {pair: index for index, pair in enumerate(unique)}
    pair_of = np.fromiter(map(rank.__getitem__, pairs), dtype=np.intp, count=n)
    scales = columns.time_scale
    firsts = columns.first_timestamp
    if time_scale is None:
        # Each pair stays at its first row's scale, which all its rows
        # must share.
        _, head = np.unique(pair_of, return_index=True)
        mismatched = np.flatnonzero(scales != scales[head][pair_of])
        if mismatched.size:
            row = int(mismatched[0])
            other = int(head[pair_of[row]])
            raise ValueError(
                f"cannot merge pair {pairs[row]} across time scales: "
                f"{scales[other]:g} s{_on_day(columns, other)} and "
                f"{scales[row]:g} s{_on_day(columns, row)}"
            )
        rescaled = np.zeros(n, dtype=bool)
        start = firsts
    else:
        coarser = np.flatnonzero(scales > time_scale)
        if coarser.size:
            row = int(coarser[0])
            raise ValueError(
                f"cannot rescale pair {pairs[row]}{_on_day(columns, row)} "
                f"to a finer granularity: {time_scale:g} s < "
                f"{scales[row]:g} s"
            )
        rescaled = scales < time_scale
        start = np.where(
            rescaled, np.floor(firsts / time_scale) * time_scale, firsts
        )
    # Rows grouped by pair, each pair's in rescaled-start order (lexsort
    # is stable, so ties keep row order); from here on rows are taken
    # in this order.
    order = np.lexsort((start, pair_of))
    pair_rows = _offsets(np.bincount(pair_of, minlength=len(unique)))
    alone = (np.diff(pair_rows) == 1)[pair_of[order]]
    rescaled = rescaled[order]
    # Every row's timestamps as ActivitySummary.timestamps() computes
    # them: its first timestamp plus a 0-prefixed running sum of its
    # intervals.
    lengths = np.diff(columns.interval_offsets)[order]
    counts = lengths + 1
    bounds = _offsets(counts)
    steps = np.zeros(int(bounds[-1]))
    is_interval = np.ones(steps.size, dtype=bool)
    is_interval[bounds[:-1]] = False
    steps[is_interval] = columns.intervals[
        _ragged(columns.interval_offsets[order], lengths)
    ]
    stamps = _row_sums(steps, bounds, firsts[order])
    if rescaled.any():
        # rescale(): quantize to the coarser slots ...
        picked = None if rescaled.all() else np.repeat(rescaled, counts)
        quantized = stamps if picked is None else stamps[picked]
        np.divide(quantized, time_scale, out=quantized)
        np.floor(quantized, out=quantized)
        np.multiply(quantized, time_scale, out=quantized)
        if picked is not None:
            stamps[picked] = quantized
        # ... and, where merge() re-reads the rescaled summary, the
        # round trip through its intervals: diff, then a 0-prefixed
        # running sum from the quantized first timestamp.  Whole
        # multiples of a whole time scale in [0, 2**53) come back
        # unchanged, so the trip only runs for other values.
        trip = np.flatnonzero(rescaled & ~alone)
        if trip.size and not (
            float(time_scale).is_integer()
            and stamps.min() >= 0
            and stamps.max() < _EXACT_INTEGERS
        ):
            trip_bounds = _offsets(counts[trip])
            where = _ragged(bounds[trip], counts[trip])
            quantized = stamps[where]
            deltas = np.empty_like(quantized)
            np.subtract(quantized[1:], quantized[:-1], out=deltas[1:])
            heads = quantized[trip_bounds[:-1]]
            deltas[trip_bounds[:-1]] = 0.0
            stamps[where] = _row_sums(deltas, trip_bounds, heads)
    url_lengths = np.diff(columns.url_offsets)[order]
    url_bounds = _offsets(url_lengths)
    urls = np.array(columns.url_table, dtype=object)[
        columns.url_ids[_ragged(columns.url_offsets[order], url_lengths)]
    ].tolist()
    element_bounds = bounds[pair_rows].tolist()
    url_pair_bounds = url_bounds[pair_rows].tolist()
    tops = pair_rows.tolist()
    order_rows = order.tolist()
    alone = alone.tolist()
    rescaled = rescaled.tolist()
    merged: List[ActivitySummary] = []
    for index, (source, destination) in enumerate(unique):
        top = tops[index]
        row = order_rows[top]
        if alone[top] and not rescaled[top]:
            # merge() of one summary at its own scale returns it as is.
            first = firsts[row]
            intervals = columns.intervals[
                columns.interval_offsets[row]:columns.interval_offsets[row + 1]
            ]
        else:
            values = stamps[element_bounds[index]:element_bounds[index + 1]]
            if not alone[top]:
                values = np.sort(values, kind="stable")
            first = values[0]
            intervals = freeze(np.diff(values))
        merged.append(ActivitySummary(
            source=source,
            destination=destination,
            time_scale=float(
                scales[row] if time_scale is None else time_scale
            ),
            first_timestamp=float(first),
            intervals=intervals,
            urls=tuple(
                urls[url_pair_bounds[index]:url_pair_bounds[index + 1]]
            ),
        ))
    return merged
