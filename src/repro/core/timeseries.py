"""Time-series construction from raw request timestamps.

The unit of analysis in BAYWATCH is the *ActivitySummary* of one
communication pair (paper Section VII-A): the first request timestamp, a
time scale (1 second at the finest granularity), and the list of
inter-request intervals.  This module provides:

- :class:`ActivitySummary` — the canonical container,
- :func:`intervals_from_timestamps` / :func:`timestamps_from_intervals` —
  the lossless conversions,
- :func:`bin_series` — turn timestamps into the discrete signal ``x(n)``
  consumed by the periodogram,
- :func:`rescale` / :func:`merge` — the rescaling-and-merging phase
  (paper Section VII-B) that lets long windows be analyzed at coarse
  granularity without reprocessing raw logs,
- :func:`merge_rescaled` — the fused fast path of the two: the cadence
  hot loop (weekly/monthly windows re-merged every tick) pays one
  array pipeline and one output summary instead of an intermediate
  rescaled :class:`ActivitySummary` — and its interval-tuple
  conversion — per input day.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class ActivitySummary:
    """Request activity of one source/destination communication pair.

    Mirrors the paper's ActivitySummary record (Section VII-A): the pair,
    the time scale ``e`` in seconds, the first request timestamp, the
    interval list, and optional side-channel information (URLs) used by
    the token filter (Section V-A).
    """

    source: str
    destination: str
    time_scale: float
    first_timestamp: float
    intervals: Tuple[float, ...]
    urls: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        require_positive(self.time_scale, "time_scale")
        ivals = as_float_array(self.intervals, "intervals")
        if np.any(ivals < 0):
            raise ValueError("intervals must be non-negative")
        # tolist() converts to Python floats in C — identical values to
        # the old per-element float() loop, an order of magnitude
        # cheaper on the ingestion hot path.
        object.__setattr__(self, "intervals", tuple(ivals.tolist()))
        object.__setattr__(self, "urls", tuple(self.urls))

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
            intervals=tuple(np.diff(quantized)),
            urls=tuple(urls),
        )

    # -- views -------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of requests summarized (intervals + 1)."""
        return len(self.intervals) + 1

    @property
    def duration(self) -> float:
        """Seconds between the first and the last request."""
        return float(sum(self.intervals))

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

    def interval_array(self) -> np.ndarray:
        """Intervals as a numpy array (excluding zero intervals on request)."""
        return np.asarray(self.intervals, dtype=float)

    def nonzero_intervals(self) -> np.ndarray:
        """Intervals strictly greater than zero.

        Requests landing in the same time slot produce zero intervals;
        the statistical pruning filters (Section IV-C) operate on the
        positive intervals.
        """
        ivals = self.interval_array()
        return ivals[ivals > 0]


def rescale(summary: ActivitySummary, new_time_scale: float) -> ActivitySummary:
    """Re-express ``summary`` at a coarser time scale (Section VII-B).

    The paper's MAP task rescales old intervals to a new granularity
    ``e'`` so that months of data can be analyzed without reprocessing
    raw logs.  Rescaling to a finer granularity than the current one is
    rejected: the information is already lost.
    """
    require_positive(new_time_scale, "new_time_scale")
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
        intervals=tuple(np.diff(quantized)),
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
    all_ts: List[float] = []
    all_urls: List[str] = []
    for summary in summaries:
        all_ts.extend(summary.timestamps().tolist())
        all_urls.extend(summary.urls)
    all_ts.sort()
    return ActivitySummary(
        source=head.source,
        destination=head.destination,
        time_scale=head.time_scale,
        first_timestamp=float(all_ts[0]),
        intervals=tuple(np.diff(np.asarray(all_ts))),
        urls=tuple(all_urls),
    )


def merge_rescaled(
    summaries: Sequence[ActivitySummary],
    time_scale: float,
    *,
    out: Optional[np.ndarray] = None,
) -> ActivitySummary:
    """Fused ``merge([rescale(s, time_scale) for s in summaries])``.

    Bit-identical to the copying composition (the floating-point
    operations run in the same order on the same values) but without
    materializing a rescaled :class:`ActivitySummary` — and its
    interval-tuple conversion — per input.  This is the cadence hot
    loop: a weekly/monthly tick re-merges every pair's trailing window
    of per-day summaries, so the per-day object churn dominates.

    ``out`` optionally provides a reusable timestamp workspace (a 1-D
    float array of at least the total event count); when it is missing
    or too small a fresh buffer is allocated.  The workspace is
    clobbered.
    """
    require(len(summaries) > 0, "summaries must not be empty")
    require_positive(time_scale, "time_scale")
    head = summaries[0]
    for other in summaries:
        if (
            other.source != head.source
            or other.destination != head.destination
        ):
            raise ValueError(
                f"cannot merge different pairs: {other.pair} != {head.pair}"
            )
        if other.time_scale > time_scale:
            raise ValueError(
                "cannot rescale to a finer granularity: "
                f"{time_scale} < {other.time_scale}"
            )
    if len(summaries) == 1:
        return (
            head if head.time_scale == time_scale
            else rescale(head, time_scale)
        )
    counts = [len(summary.intervals) + 1 for summary in summaries]
    total = sum(counts)
    if out is not None and out.ndim == 1 and out.size >= total:
        buffer = out[:total]
    else:
        buffer = np.empty(total, dtype=float)
    # Every summary.timestamps() — 0-prefixed interval cumsum plus the
    # first timestamp — written into the workspace at once: one row per
    # summary, its intervals from column 1 on and zeros after them.  A
    # row-wise cumsum accumulates each row sequentially, exactly as
    # timestamps() does, and the zero tail is never read back.  Rows
    # are as wide as the busiest summary, so badly skewed event counts
    # fall back to one cumsum per summary to keep the grid small.
    intervals = np.fromiter(
        itertools.chain.from_iterable(s.intervals for s in summaries),
        dtype=float,
        count=total - len(summaries),
    )
    firsts = np.array([s.first_timestamp for s in summaries])
    sizes = np.array(counts)
    width = int(sizes.max())
    if len(counts) * width <= 2 * total:
        columns = np.arange(width)
        grid = np.zeros((len(counts), width))
        grid[:, 1:][columns[1:] < sizes[:, np.newaxis]] = intervals
        np.cumsum(grid, axis=1, out=grid)
        grid += firsts[:, np.newaxis]
        buffer[:] = grid[columns < sizes[:, np.newaxis]]
    else:
        position = 0
        consumed = 0
        for count in counts:
            buffer[position] = 0.0
            np.cumsum(
                intervals[consumed:consumed + count - 1],
                out=buffer[position + 1:position + count],
            )
            position += count
            consumed += count - 1
        buffer += np.repeat(firsts, counts)
    position = 0
    for summary, count in zip(summaries, counts):
        if summary.time_scale < time_scale:
            segment = buffer[position:position + count]
            # rescale(): quantize, then round-trip through the interval
            # representation exactly as merge() re-reads a rescaled
            # summary — diff followed by 0-prefixed cumsum — so the
            # fused result stays bit-identical to the composition.
            np.divide(segment, time_scale, out=segment)
            np.floor(segment, out=segment)
            np.multiply(segment, time_scale, out=segment)
            if count > 1:
                deltas = np.diff(segment)
                first = segment[0]
                segment[0] = 0.0
                np.cumsum(deltas, out=segment[1:])
                np.add(segment, first, out=segment)
        position += count
    buffer.sort(kind="stable")
    return ActivitySummary(
        source=head.source,
        destination=head.destination,
        time_scale=time_scale,
        first_timestamp=float(buffer[0]),
        intervals=np.diff(buffer),
        urls=tuple(
            itertools.chain.from_iterable(s.urls for s in summaries)
        ),
    )
