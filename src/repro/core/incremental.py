"""Incremental spectral engine — sliding-DFT updates for rolling windows.

BAYWATCH operates iteratively (paper Section X): the daily cadence
re-analyzes a trailing window every day even though only one day of bins
changed.  This module makes per-tick spectral work proportional to the
*new* data:

- :class:`IncrementalSpectralState` holds one pair's binned window at
  one analysis scale together with its complex rFFT coefficients and
  advances the window via the sliding-DFT recurrence.  Sliding a
  length-``N`` window forward by ``D`` bins satisfies::

      Y_k = (X_k + sum_{j<D} (b_j - x_j) * w^{-jk}) * w^{Dk},
      w = exp(2*pi*i / N)

  i.e. one length-``N`` transform of the delta region plus a per-bin
  twiddle rotation — never a re-bin or re-transform of the unchanged
  ``N - D`` interior.  :func:`slide_states` advances many equal-length
  states at once: their deltas go through one row-wise rFFT and the
  rotation, energy check and power spectrum run on the stacked rows.

- Robustness: every ``refresh_every``-th update — and whenever a
  Parseval energy check shows accumulated float error above
  ``error_bound`` — the state *refreshes*: it recomputes the exact cold
  :func:`~repro.core.periodogram.power_spectrum`, so results are
  bit-identical to cold computation at refresh points and provably
  within the checked bound between them.  A shift larger than
  ``max_drift_fraction`` of the window, or any change of window length
  (which would also change the ``next_fast_len`` padding downstream
  kernels key on), falls back to a full recompute.

- :class:`IncrementalStateCache` is the per-pair, fingerprinted state
  store.  It serializes to a packed binary file (same idiom as the
  summary store's packed codec) so sharded or resumed runs stay warm
  across processes.

- :class:`IncrementalSpectralEngine` is the detection-facing screen: it
  maintains per-(pair, scale) states over a *day-grid* window ladder
  and answers "can this pair possibly be periodic?" from the maintained
  spectra and the shared permutation
  :class:`~repro.core.permutation.ThresholdCache`.  When the spectrum
  maximum at every scale stays below the (margin-shaded) permutation
  threshold the pair cannot produce a spectral candidate at those
  scales — DFT peak extraction and the GMM power probe both require a
  power above the threshold.  Pairs that do exceed it are *probed*
  (:meth:`~repro.core.detector.PeriodicityDetector.probe_prebinned`):
  candidate pruning and ACF verification run directly on the maintained
  window and spectrum, and only pairs with a verified candidate pay for
  full (GMM-fitting, event-anchored) detection.

Grid anchoring caveat: the cold detector bins each pair from its first
event; the incremental engine must use a fixed day-aligned grid so
windows slide.  Grid- and event-anchored spectra differ slightly, so
pairs sitting exactly at the detection boundary can be screened
differently than a cold run would decide them; pairs that pass re-run
the unchanged batched detector, so the screen never *adds* detections.
The bit-identical guarantee of the state itself is against a cold
recompute of the same grid-anchored window.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import fft as _fft

from repro.core.periodogram import power_spectrum
from repro.core.permutation import ThresholdCache
from repro.obs.registry import get_registry
from repro.utils.validation import require, require_positive

__all__ = [
    "DAY",
    "IncrementalConfig",
    "IncrementalSpectralState",
    "IncrementalStateCache",
    "IncrementalStateMismatch",
    "IncrementalSpectralEngine",
    "PairScreenVerdict",
    "screen_scales",
    "bin_span",
    "bin_span_rows",
    "slide_states",
]

DAY = 86_400.0


@dataclass(frozen=True)
class IncrementalConfig:
    """Tunables of the incremental engine.

    ``refresh_every`` bounds drift between exact recomputes;
    ``error_bound`` is the relative Parseval-energy mismatch that forces
    an early refresh; ``max_drift_fraction`` is the largest window shift
    (as a fraction of the window) still worth sliding — beyond it a full
    recompute is cheaper and numerically safer.  ``screen_margin``
    shades the permutation threshold of the screen's power stage (a
    pair proceeds to candidate probing only when its spectrum maximum
    exceeds ``screen_margin * threshold`` at some scale); values below
    1.0 make the stage more conservative at the cost of probing more
    pairs.  ``evict_after_ticks`` drops states for pairs that stopped
    appearing, bounding memory.
    """

    refresh_every: int = 16
    error_bound: float = 1e-9
    max_drift_fraction: float = 0.5
    screen_margin: float = 1.0
    evict_after_ticks: int = 8

    def __post_init__(self) -> None:
        require(self.refresh_every >= 1, "refresh_every must be at least 1")
        require_positive(self.error_bound, "error_bound")
        require(
            0.0 < self.max_drift_fraction <= 1.0,
            "max_drift_fraction must be in (0, 1]",
        )
        require(
            0.0 < self.screen_margin <= 1.0,
            "screen_margin must be in (0, 1]",
        )
        require(self.evict_after_ticks >= 1,
                "evict_after_ticks must be at least 1")


#: Working-set bound of :func:`slide_states`: states are advanced in
#: blocks whose stacked windows hold at most this many bins, so the
#: block's window, coefficient and delta-transform matrices stay a few
#: MB each whatever the number of pairs.
SLIDE_BLOCK = 1 << 18


class IncrementalSpectralState:
    """Sliding-DFT state of one binned window (one pair at one scale).

    Holds the window itself, its running mean, and the *uncentered*
    complex rFFT coefficients.  Subtracting the mean changes only the
    (discarded) DC bin in exact arithmetic, so the power spectrum at
    k >= 1 derived from the uncentered coefficients matches the cold
    centered transform up to float rounding; each refresh recomputes
    the exact cold :func:`power_spectrum` for bit-identical parity.

    ``start_bin`` is the window's absolute position on the global bin
    grid (``floor(t / scale)`` space), which lets a caller holding a
    stale state compute the exact shift to the current window.
    """

    __slots__ = (
        "config", "start_bin", "n", "fast_len", "updates", "refreshes",
        "_window", "_mean", "_coeffs", "_power", "_power_exact",
        "_since_refresh", "_n_ones", "_max_power",
    )

    def __init__(
        self,
        window: Sequence[float],
        start_bin: int = 0,
        *,
        config: Optional[IncrementalConfig] = None,
    ) -> None:
        array = np.array(window, dtype=float)
        require(array.ndim == 1 and array.size >= 4,
                "window must be 1-D with at least 4 bins")
        self.config = config or IncrementalConfig()
        self.start_bin = int(start_bin)
        self.n = int(array.size)
        self.fast_len = int(_fft.next_fast_len(self.n))
        self.updates = 0
        self.refreshes = 0
        self._window = array
        self._refresh()

    # -- views -------------------------------------------------------------

    @property
    def end_bin(self) -> int:
        """One past the window's last absolute grid bin."""
        return self.start_bin + self.n

    @property
    def window(self) -> np.ndarray:
        """The current binned window (read-only view)."""
        view = self._window.view()
        view.flags.writeable = False
        return view

    @property
    def mean(self) -> float:
        """Running mean of the window."""
        return self._mean

    @property
    def power_exact(self) -> bool:
        """True when :meth:`power` is the exact cold recompute."""
        return self._power_exact

    def power(self) -> np.ndarray:
        """Periodogram power matching :func:`power_spectrum` semantics.

        ``N // 2`` entries for DFT bins 1..N//2 (DC dropped).  At
        refresh points this is bit-identical to
        ``power_spectrum(self.window)``; between refreshes it is within
        the checked error bound.
        """
        return self._power

    def max_power(self) -> float:
        """The spectrum maximum (the screen's one-number summary)."""
        return self._max_power

    def n_ones(self) -> int:
        """Occupied-slot count (the binary threshold-cache key)."""
        return self._n_ones

    # -- updates -----------------------------------------------------------

    def append_bins(self, new_bins: Sequence[float]) -> str:
        """Slide the window forward, appending ``new_bins``.

        The oldest ``len(new_bins)`` bins fall out of the window; the
        retained coefficients are advanced by the sliding-DFT
        recurrence.  Returns the outcome: ``"slide"`` (recurrence
        applied), ``"refresh"`` (recurrence applied, then the periodic
        or error-bound exact recompute ran), ``"fallback"`` (shift
        exceeded ``max_drift_fraction`` — full recompute), or
        ``"noop"`` for an empty append.  A one-state
        :func:`slide_states` call.
        """
        new = np.asarray(new_bins, dtype=float)
        require(new.ndim == 1, "new_bins must be 1-D")
        return slide_states([self], new[np.newaxis, :])[0]

    def replace_window(
        self, window: Sequence[float], start_bin: int
    ) -> None:
        """Discard state and rebuild from a freshly binned window."""
        array = np.array(window, dtype=float)
        require(array.ndim == 1 and array.size >= 4,
                "window must be 1-D with at least 4 bins")
        self._window = array
        self.start_bin = int(start_bin)
        self.n = int(array.size)
        self.fast_len = int(_fft.next_fast_len(self.n))
        self._refresh()

    # -- internals ---------------------------------------------------------

    def _refresh(self) -> None:
        """Exact recompute: coefficients and the cold power spectrum."""
        self._coeffs = _fft.rfft(self._window)
        self._power = power_spectrum(self._window)
        self._power_exact = True
        self._mean = float(self._window.mean())
        self._since_refresh = 0
        self.refreshes += 1
        self._summarize()

    def _summarize(self) -> None:
        """Cache the screen's two numbers for the current window."""
        self._n_ones = int(np.count_nonzero(self._window))
        self._max_power = (
            float(self._power.max()) if self._power.size else 0.0
        )

    # -- serialization -----------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays a codec must persist to restore this state."""
        return {
            "window": self._window,
            "coeffs": self._coeffs,
            "power": self._power,
        }

    @classmethod
    def restore(
        cls,
        *,
        window: np.ndarray,
        coeffs: np.ndarray,
        power: np.ndarray,
        start_bin: int,
        updates: int,
        refreshes: int,
        since_refresh: int,
        power_exact: bool,
        config: Optional[IncrementalConfig] = None,
    ) -> "IncrementalSpectralState":
        """Rebuild a state from persisted arrays without recomputing."""
        state = cls.__new__(cls)
        state.config = config or IncrementalConfig()
        state._window = np.array(window, dtype=float)
        state.start_bin = int(start_bin)
        state.n = int(state._window.size)
        state.fast_len = int(_fft.next_fast_len(state.n))
        state.updates = int(updates)
        state.refreshes = int(refreshes)
        state._coeffs = np.array(coeffs, dtype=complex)
        state._power = np.array(power, dtype=float)
        state._power_exact = bool(power_exact)
        state._mean = float(state._window.mean())
        state._since_refresh = int(since_refresh)
        state._summarize()
        return state


@functools.lru_cache(maxsize=64)
def _twiddle(n: int, shift: int) -> np.ndarray:
    """``w^{k * shift}`` rotation for the retained coefficients."""
    k = np.arange(n // 2 + 1)
    rotation = np.exp((2j * np.pi * (shift % n) / n) * k)
    rotation.flags.writeable = False
    return rotation


def slide_states(
    states: Sequence[IncrementalSpectralState], new_bins: np.ndarray
) -> List[str]:
    """Slide equal-length states forward, one row of ``new_bins`` each.

    The batched form of :meth:`IncrementalSpectralState.append_bins`
    (which is a one-state call of this): every state must have the same
    window length, and ``new_bins`` is a ``(len(states), shift)``
    matrix.  Blocks of at most :data:`SLIDE_BLOCK` window bins are
    stacked; per block the delta regions go through one row-wise rFFT
    and the twiddle rotation, the Parseval self-check (time- against
    frequency-domain energy, which drifts apart only through
    accumulated float error) and the power spectrum run on whole
    matrices, and each state keeps its rows.  Row-wise transforms and
    sums equal their one-row forms, so the outcome of a state does not
    depend on the other states of its call.  Returns one outcome per
    state, as :meth:`~IncrementalSpectralState.append_bins` does.
    """
    new = np.asarray(new_bins, dtype=float)
    require(
        new.ndim == 2 and new.shape[0] == len(states),
        "new_bins must hold one row per state",
    )
    if not states:
        return []
    n = states[0].n
    require(
        all(state.n == n for state in states),
        "states must share one window length",
    )
    shift = int(new.shape[1])
    require(shift <= n, "cannot slide by more than the window length")
    if shift == 0:
        return ["noop"] * len(states)
    rows = max(1, SLIDE_BLOCK // n)
    outcomes: List[str] = []
    for low in range(0, len(states), rows):
        outcomes.extend(
            _slide_block(states[low:low + rows], new[low:low + rows])
        )
    return outcomes


def _slide_block(
    states: Sequence[IncrementalSpectralState], new: np.ndarray
) -> List[str]:
    """One :func:`slide_states` block: stacked rows, one transform."""
    n = states[0].n
    shift = new.shape[1]
    windows = np.stack([state._window for state in states])
    delta = new - windows[:, :shift]
    windows[:, : n - shift] = windows[:, shift:]
    windows[:, n - shift:] = new
    coeffs = np.stack([state._coeffs for state in states])
    coeffs += _fft.rfft(delta, n=n, axis=1)
    coeffs *= _twiddle(n, shift)
    mag2 = coeffs.real ** 2 + coeffs.imag ** 2
    time_energy = np.einsum("ij,ij->i", windows, windows)
    freq_energy = mag2[:, 0] + 2.0 * mag2[:, 1:].sum(axis=1)
    if n % 2 == 0:
        freq_energy -= mag2[:, -1]
    freq_energy /= n
    errors = np.abs(time_energy - freq_energy) / np.maximum(time_energy, 1.0)
    power = mag2[:, 1: n // 2 + 1] / n
    peaks = power.max(axis=1)
    ones = np.count_nonzero(windows, axis=1)
    delta_sums = delta.sum(axis=1)
    outcomes: List[str] = []
    for row, state in enumerate(states):
        cfg = state.config
        state._window = windows[row]
        state.start_bin += shift
        state.updates += 1
        if shift > cfg.max_drift_fraction * n:
            state._refresh()
            outcomes.append("fallback")
            continue
        state._coeffs = coeffs[row]
        state._mean += float(delta_sums[row]) / n
        state._since_refresh += 1
        if (
            state._since_refresh >= cfg.refresh_every
            or errors[row] > cfg.error_bound
        ):
            state._refresh()
            outcomes.append("refresh")
            continue
        state._power = power[row]
        state._power_exact = False
        state._n_ones = int(ones[row])
        state._max_power = float(peaks[row])
        outcomes.append("slide")
    return outcomes


class IncrementalStateMismatch(RuntimeError):
    """A persisted state cache does not match the requesting run."""


#: Packed state-cache layout: magic, codec version, fingerprint length,
#: state count.  Per state: key length, window length, start_bin,
#: updates, refreshes, since_refresh, power_exact flag — then the key
#: bytes and the three arrays (window f8, coeffs c16, power f8).
_CACHE_HEADER = struct.Struct("<4sHIQ")
_STATE_HEADER = struct.Struct("<IQqqqqB")
_CACHE_MAGIC = b"RINC"
CACHE_VERSION = 1


class IncrementalStateCache:
    """Fingerprinted, serializable store of per-(pair, scale) states.

    The fingerprint binds the cache to the detector configuration and
    window geometry that produced it; loading under a different
    fingerprint raises :class:`IncrementalStateMismatch` (warm state
    from an incompatible run must never be trusted).  Serialization is
    a packed binary frame — floats round-trip bit-exactly, mirroring
    the summary store's packed codec.
    """

    def __init__(
        self,
        fingerprint: str = "",
        *,
        config: Optional[IncrementalConfig] = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.config = config or IncrementalConfig()
        self._states: Dict[str, IncrementalSpectralState] = {}
        self._last_seen: Dict[str, int] = {}
        self.tick = 0

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, key: str) -> bool:
        return key in self._states

    def keys(self) -> List[str]:
        return sorted(self._states)

    def get(self, key: str) -> Optional[IncrementalSpectralState]:
        state = self._states.get(key)
        if state is not None:
            self._last_seen[key] = self.tick
        return state

    def put(self, key: str, state: IncrementalSpectralState) -> None:
        self._states[key] = state
        self._last_seen[key] = self.tick

    def begin_tick(self) -> None:
        """Advance the logical clock used for staleness eviction."""
        self.tick += 1

    def evict_stale(self) -> int:
        """Drop states unseen for ``evict_after_ticks``; returns count."""
        horizon = self.tick - self.config.evict_after_ticks
        stale = [
            key for key, seen in self._last_seen.items() if seen < horizon
        ]
        for key in stale:
            del self._states[key]
            del self._last_seen[key]
        return len(stale)

    # -- persistence -------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the packed cache atomically; returns the path."""
        path = Path(path)
        fingerprint = self.fingerprint.encode("utf-8")
        sections: List[bytes] = [
            _CACHE_HEADER.pack(
                _CACHE_MAGIC, CACHE_VERSION, len(fingerprint),
                len(self._states),
            ),
            fingerprint,
        ]
        for key in sorted(self._states):
            state = self._states[key]
            key_bytes = key.encode("utf-8")
            arrays = state.state_arrays()
            sections.append(
                _STATE_HEADER.pack(
                    len(key_bytes),
                    state.n,
                    state.start_bin,
                    state.updates,
                    state.refreshes,
                    state._since_refresh,
                    1 if state._power_exact else 0,
                )
            )
            sections.append(key_bytes)
            sections.append(arrays["window"].astype("<f8").tobytes())
            sections.append(arrays["coeffs"].astype("<c16").tobytes())
            sections.append(arrays["power"].astype("<f8").tobytes())
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(b"".join(sections))
        tmp.replace(path)
        return path

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        fingerprint: Optional[str] = None,
        config: Optional[IncrementalConfig] = None,
    ) -> "IncrementalStateCache":
        """Read a packed cache; verify ``fingerprint`` when given."""
        payload = Path(path).read_bytes()
        try:
            magic, version, fp_len, n_states = _CACHE_HEADER.unpack_from(
                payload, 0
            )
        except struct.error as exc:
            raise IncrementalStateMismatch(
                f"{path}: truncated or corrupt state cache ({exc})"
            ) from exc
        if magic != _CACHE_MAGIC:
            raise IncrementalStateMismatch(
                f"{path}: not an incremental state cache"
            )
        if version != CACHE_VERSION:
            raise IncrementalStateMismatch(
                f"{path}: cache version {version}, expected {CACHE_VERSION}"
            )
        cursor = _CACHE_HEADER.size
        stored_fp = payload[cursor:cursor + fp_len].decode("utf-8")
        cursor += fp_len
        if fingerprint is not None and stored_fp != fingerprint:
            raise IncrementalStateMismatch(
                f"{path}: cache fingerprint {stored_fp!r} does not match "
                f"the requesting run's {fingerprint!r}"
            )
        cache = cls(stored_fp, config=config)
        for _ in range(n_states):
            try:
                (
                    key_len, n, start_bin, updates, refreshes,
                    since_refresh, power_exact,
                ) = _STATE_HEADER.unpack_from(payload, cursor)
            except struct.error as exc:
                raise IncrementalStateMismatch(
                    f"{path}: truncated state cache ({exc})"
                ) from exc
            cursor += _STATE_HEADER.size
            key = payload[cursor:cursor + key_len].decode("utf-8")
            cursor += key_len

            def take(dtype: str, count: int) -> np.ndarray:
                nonlocal cursor
                array = np.frombuffer(
                    payload, dtype=dtype, count=count, offset=cursor
                )
                cursor += array.nbytes
                return array

            window = take("<f8", n)
            coeffs = take("<c16", n // 2 + 1)
            power = take("<f8", n // 2)
            cache.put(
                key,
                IncrementalSpectralState.restore(
                    window=window,
                    coeffs=coeffs,
                    power=power,
                    start_bin=start_bin,
                    updates=updates,
                    refreshes=refreshes,
                    since_refresh=since_refresh,
                    power_exact=bool(power_exact),
                    config=cache.config,
                ),
            )
        return cache


# -- day-grid geometry --------------------------------------------------------


def _snap_bins_per_day(scale: float) -> int:
    """Bins per day for ``scale``, snapped so a day is a whole number.

    The sliding window advances by whole days, so every screen scale
    must divide the day exactly; ladder scales that do not (e.g.
    38 400 s → 2.25 bins/day) are snapped to the nearest day divisor
    (43 200 s → 2), preserving the ladder's coverage of slow periods.
    """
    raw = DAY / scale
    if abs(raw - round(raw)) < 1e-9:
        return max(1, int(round(raw)))
    return max(1, int(round(raw)))


def screen_scales(
    *,
    time_scale: float,
    window_days: int,
    scale_factor: float = 4.0,
    max_scales: int = 6,
    min_slots: int = 32,
    max_signal_length: int = 1 << 21,
) -> List[Tuple[float, int]]:
    """The day-divisor analysis ladder for a ``window_days`` window.

    Mirrors the detector's geometric ladder
    (:meth:`PeriodicityDetector._choose_scales`) but snaps each rung to
    an exact divisor of the day so windows slide by an integral number
    of bins.  Returns ``(scale_seconds, bins_per_day)`` rungs, finest
    first; rungs whose signal would be too long or too short are
    dropped, duplicates (after snapping) collapse.
    """
    require_positive(time_scale, "time_scale")
    require(window_days >= 1, "window_days must be at least 1")
    rungs: List[Tuple[float, int]] = []
    seen = set()
    scale = time_scale
    for _ in range(max_scales):
        bins_per_day = _snap_bins_per_day(scale)
        n_slots = window_days * bins_per_day
        if n_slots < max(min_slots, 8):
            break
        if n_slots <= max_signal_length and bins_per_day not in seen:
            seen.add(bins_per_day)
            rungs.append((DAY / bins_per_day, bins_per_day))
        scale *= scale_factor
    return rungs


def bin_span(
    timestamps: np.ndarray,
    scale: float,
    from_bin: int,
    to_bin: int,
    *,
    binary: bool = True,
) -> np.ndarray:
    """Bin events into absolute grid slots ``[from_bin, to_bin)``.

    Slot indices are global — ``floor(t / scale)`` — so the bins of an
    overlap region are identical whichever window they were computed
    for (the property the sliding update relies on).  Events outside
    the span are dropped.  A one-row :func:`bin_span_rows` call.
    """
    return bin_span_rows(
        [timestamps], scale, from_bin, to_bin, binary=binary
    )[0]


def bin_span_rows(
    series: Sequence[np.ndarray],
    scale: float,
    from_bin: int,
    to_bin: int,
    *,
    binary: bool = True,
) -> np.ndarray:
    """:func:`bin_span` of several event series, one row per series.

    All series share the span, so one pass over their concatenated
    events fills the whole ``(len(series), to_bin - from_bin)`` matrix;
    each row equals the series' own :func:`bin_span`.
    """
    require(to_bin > from_bin, "to_bin must exceed from_bin")
    width = to_bin - from_bin
    lengths = [np.size(ts) for ts in series]
    if sum(lengths) == 0:
        return np.zeros((len(series), width), dtype=float)
    ts = np.concatenate([np.asarray(ts, dtype=float) for ts in series])
    rows = np.repeat(np.arange(len(series), dtype=np.int64), lengths)
    indices = np.floor(ts / scale).astype(np.int64) - from_bin
    inside = (indices >= 0) & (indices < width)
    flat = rows[inside] * width + indices[inside]
    signal = np.bincount(flat, minlength=len(series) * width).astype(float)
    if binary:
        np.minimum(signal, 1.0, out=signal)
    return signal.reshape(len(series), width)


# -- the pair screen ----------------------------------------------------------


@dataclass(frozen=True)
class PairScreenVerdict:
    """One pair's power-stage screen outcome for the current tick.

    ``passed`` pairs have spectral power above the (margin-shaded)
    permutation threshold at one or more maintained scales and proceed
    to candidate probing / full detection; screened-out pairs are below
    it at every scale.  ``margin`` is the best ``max_power - threshold``
    over the scales (the provenance near-miss signal), ``threshold``
    the finest scale's threshold, ``rung_stats`` one ``(scale,
    max_power, threshold)`` triple per maintained rung (finest first),
    and ``outcome`` the most expensive state transition the update took
    (``slide`` < ``refresh`` < ``fallback`` < ``rebuild``).
    """

    passed: bool
    margin: float
    threshold: float
    scales: Tuple[float, ...]
    outcome: str
    rung_stats: Tuple[Tuple[float, float, float], ...] = ()


_OUTCOME_RANK = {"noop": 0, "slide": 1, "refresh": 2, "fallback": 3,
                 "rebuild": 4}


class IncrementalSpectralEngine:
    """Day-grid spectral screen with per-pair sliding-DFT states.

    One engine serves one detection cadence.  Per tick the caller
    announces the window (``begin_tick``), then feeds every pair's
    merged timestamps to :meth:`observe_many`; the engine slides (or
    rebuilds) the pairs' per-scale states and returns their screen
    verdicts.  Thresholds come from the shared permutation
    :class:`ThresholdCache`, keyed on ``(n_slots, n_ones)`` exactly as
    the cold detector's binary path.
    """

    def __init__(
        self,
        threshold_cache: ThresholdCache,
        *,
        time_scale: float = 1.0,
        scale_factor: float = 4.0,
        max_scales: int = 6,
        min_slots: int = 32,
        max_signal_length: int = 1 << 21,
        config: Optional[IncrementalConfig] = None,
        fingerprint: str = "",
        cache: Optional[IncrementalStateCache] = None,
    ) -> None:
        self.threshold_cache = threshold_cache
        self.time_scale = float(time_scale)
        self.scale_factor = float(scale_factor)
        self.max_scales = int(max_scales)
        self.min_slots = int(min_slots)
        self.max_signal_length = int(max_signal_length)
        self.config = config or IncrementalConfig()
        self.fingerprint = fingerprint
        if cache is not None and fingerprint and cache.fingerprint:
            if cache.fingerprint != fingerprint:
                raise IncrementalStateMismatch(
                    f"state cache fingerprint {cache.fingerprint!r} does "
                    f"not match the engine's {fingerprint!r}"
                )
        self.cache = cache if cache is not None else IncrementalStateCache(
            fingerprint, config=self.config
        )
        self._rungs: List[Tuple[float, int]] = []
        self._window_days = 0
        self._start_day = 0
        self._end_day = 0
        # Cumulative transition counts (the CI hit-rate artifact).
        self.slides = 0
        self.refreshes = 0
        self.fallbacks = 0
        self.rebuilds = 0
        self.screened_out = 0
        self.screened_in = 0

    # -- tick lifecycle ----------------------------------------------------

    def begin_tick(self, start_day: int, end_day: int) -> None:
        """Declare this tick's day-grid window ``[start_day, end_day)``."""
        require(end_day > start_day, "end_day must exceed start_day")
        self._start_day = int(start_day)
        self._end_day = int(end_day)
        self._window_days = self._end_day - self._start_day
        self._rungs = screen_scales(
            time_scale=self.time_scale,
            window_days=self._window_days,
            scale_factor=self.scale_factor,
            max_scales=self.max_scales,
            min_slots=self.min_slots,
            max_signal_length=self.max_signal_length,
        )
        self.cache.begin_tick()

    def end_tick(self) -> int:
        """Finish the tick; evicts states for pairs that vanished."""
        return self.cache.evict_stale()

    @property
    def rungs(self) -> List[Tuple[float, int]]:
        """This tick's ``(scale, bins_per_day)`` ladder."""
        return list(self._rungs)

    def hit_rate(self) -> float:
        """Fraction of state updates served by the sliding fast path."""
        hits = self.slides + self.refreshes
        total = hits + self.fallbacks + self.rebuilds
        return hits / total if total else 0.0

    # -- per-pair update + screen ------------------------------------------

    @staticmethod
    def state_key(source: str, destination: str, bins_per_day: int) -> str:
        return f"{source}\x1f{destination}\x1f{bins_per_day}"

    def observe_many(
        self, pairs: Sequence[Tuple[str, str, np.ndarray]]
    ) -> List[PairScreenVerdict]:
        """Update every pair's states for this tick and screen them.

        ``pairs`` holds ``(source, destination, timestamps)`` triples;
        the timestamps are the pair's events inside the announced
        window (a superset is fine — out-of-window events are dropped
        by the grid binning).  Rung by rung, the pairs whose state
        slides by the same shift are binned and advanced together
        (:func:`bin_span_rows`, :func:`slide_states`); new pairs and
        geometry changes rebuild one by one.  Returns one verdict per
        pair, in order.  Requires :meth:`begin_tick` first.
        """
        require(self._rungs != [] or self._window_days > 0,
                "begin_tick must be called before observe_many")
        registry = get_registry()
        if not self._rungs:
            # Window too short for any rung: never screen out.
            self.screened_in += len(pairs)
            return [
                PairScreenVerdict(
                    passed=True, margin=float("nan"),
                    threshold=float("nan"), scales=(), outcome="noop",
                )
                for _ in pairs
            ]
        series = [np.asarray(ts, dtype=float) for _, _, ts in pairs]
        rung_stats: List[List[Tuple[float, float, float]]] = [
            [] for _ in pairs
        ]
        worst = ["noop"] * len(pairs)
        for scale, bins_per_day in self._rungs:
            advanced = self._advance_rung(
                pairs, series, scale, bins_per_day
            )
            for index, (state, outcome) in enumerate(advanced):
                if _OUTCOME_RANK[outcome] > _OUTCOME_RANK[worst[index]]:
                    worst[index] = outcome
                threshold = self.threshold_cache.threshold(
                    state.n, state.n_ones()
                )
                rung_stats[index].append(
                    (scale, state.max_power(), threshold)
                )
        scales = tuple(scale for scale, _ in self._rungs)
        verdicts: List[PairScreenVerdict] = []
        for stats, outcome in zip(rung_stats, worst):
            best_margin = float("-inf")
            passed = False
            for _scale, max_power, threshold in stats:
                margin = max_power - threshold
                if margin > best_margin:
                    best_margin = margin
                if max_power > self.config.screen_margin * threshold:
                    passed = True
            verdicts.append(
                PairScreenVerdict(
                    passed=passed,
                    margin=(
                        best_margin if best_margin > float("-inf")
                        else float("nan")
                    ),
                    threshold=stats[0][2],
                    scales=scales,
                    outcome=outcome,
                    rung_stats=tuple(stats),
                )
            )
        passed_count = sum(1 for verdict in verdicts if verdict.passed)
        self.screened_in += passed_count
        self.screened_out += len(verdicts) - passed_count
        registry.counter("detector.incremental.updates").inc(len(verdicts))
        if len(verdicts) > passed_count:
            registry.counter("detector.incremental.screened_out").inc(
                len(verdicts) - passed_count
            )
        return verdicts

    def rung_states(
        self, source: str, destination: str
    ) -> List[Tuple[float, IncrementalSpectralState]]:
        """The pair's per-rung states for this tick, finest first.

        Used by the candidate-probe stage after :meth:`observe_many`: the
        maintained window and power spectrum of each rung are exactly
        the ``(signal, spectrum)`` inputs of
        :meth:`~repro.core.detector.PeriodicityDetector.probe_prebinned`.
        Rungs whose state is missing (never observed) are skipped.
        """
        out: List[Tuple[float, IncrementalSpectralState]] = []
        for scale, bins_per_day in self._rungs:
            state = self.cache.get(
                self.state_key(source, destination, bins_per_day)
            )
            if state is not None:
                out.append((scale, state))
        return out

    def _advance_rung(
        self,
        pairs: Sequence[Tuple[str, str, np.ndarray]],
        series: Sequence[np.ndarray],
        scale: float,
        bins_per_day: int,
    ) -> List[Tuple[IncrementalSpectralState, str]]:
        """Slide (or rebuild) every pair's state at one rung."""
        registry = get_registry()
        start_bin = self._start_day * bins_per_day
        end_bin = self._end_day * bins_per_day
        n = end_bin - start_bin
        # One (state, outcome) per pair, filled in below.
        advanced: List = [None] * len(pairs)
        sliding: Dict[int, List[Tuple[int, IncrementalSpectralState]]] = {}
        rebuilt = 0
        for index, (source, destination, _ts) in enumerate(pairs):
            key = self.state_key(source, destination, bins_per_day)
            state = self.cache.get(key)
            if state is not None and state.n == n:
                shift = start_bin - state.start_bin
                if shift == 0:
                    # Same window (e.g. a retried tick): state is current.
                    advanced[index] = (state, "noop")
                    continue
                if 0 < shift <= n:
                    sliding.setdefault(shift, []).append((index, state))
                    continue
            # New pair, window-geometry change, or backwards shift.
            window = bin_span(
                series[index], scale, start_bin, end_bin, binary=True
            )
            if state is None:
                state = IncrementalSpectralState(
                    window, start_bin, config=self.config
                )
                self.cache.put(key, state)
            else:
                state.replace_window(window, start_bin)
            advanced[index] = (state, "rebuild")
            rebuilt += 1
        counts = {"slide": 0, "refresh": 0, "fallback": 0}
        for shift, members in sliding.items():
            new_bins = bin_span_rows(
                [series[index] for index, _ in members],
                scale, end_bin - shift, end_bin,
            )
            states = [state for _, state in members]
            outcomes = slide_states(states, new_bins)
            for (index, state), outcome in zip(members, outcomes):
                counts[outcome] += 1
                advanced[index] = (state, outcome)
        self.rebuilds += rebuilt
        self.slides += counts["slide"] + counts["refresh"]
        self.refreshes += counts["refresh"]
        self.fallbacks += counts["fallback"]
        if counts["refresh"]:
            registry.counter("detector.incremental.refreshes").inc(
                counts["refresh"]
            )
        if counts["fallback"] + rebuilt:
            registry.counter("detector.incremental.fallbacks").inc(
                counts["fallback"] + rebuilt
            )
        return advanced
