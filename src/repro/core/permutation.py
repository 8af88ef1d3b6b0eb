"""Permutation-based power threshold — paper Section IV-B, Fig. 5.

Randomly shuffling the signal destroys any periodic structure while
preserving first-order statistics (amplitude distribution).  The maximum
periodogram power of a shuffled signal therefore estimates how much power
pure chance can concentrate in a single frequency.  Repeating the shuffle
``m`` times and taking the ``(C * m)``-th highest maximum (the C-quantile)
yields the threshold ``p_T``: original-signal frequencies below it are
indistinguishable from noise and discarded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.periodogram import batch_max_power
from repro.obs.registry import get_registry
from repro.utils.stats import percentile_threshold
from repro.utils.validation import as_float_array, require, require_probability

#: Version of the ``ThresholdCache.save`` file: its JSON layout and how
#: a bucket's threshold is derived (2: k-subset draws at
#: :func:`bucket_length`; 1 permuted full rows at ``round(ratio ** b)``).
CACHE_FILE_VERSION = 2


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of the permutation thresholding procedure."""

    threshold: float
    max_powers: tuple
    permutations: int
    confidence: float


def permutation_threshold(
    signal: Sequence[float],
    *,
    permutations: int = 20,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> PermutationResult:
    """Compute the spectral power threshold ``p_T`` for ``signal``.

    Parameters
    ----------
    signal:
        The binned event signal ``x(n)``.
    permutations:
        Number ``m`` of random shuffles (paper default 20).
    confidence:
        Confidence level ``C``; the threshold is the ``ceil(C * m)``-th
        smallest of the per-permutation maximum powers (19th of 20 at
        95%).
    rng:
        Optional numpy Generator for reproducibility.
    """
    require(permutations >= 1, "permutations must be at least 1")
    require_probability(confidence, "confidence")
    x = as_float_array(signal, "signal")
    require(x.size >= 4, "signal must have at least 4 samples")
    if rng is None:
        rng = np.random.default_rng()
    # One vectorized shuffle of all m rows; ``Generator.permuted`` draws
    # the same variates per row as m sequential ``rng.permutation(x)``
    # calls, so thresholds are unchanged — only the Python loop is gone.
    shuffled = rng.permuted(np.tile(x, (permutations, 1)), axis=1)
    maxima = batch_max_power(shuffled)
    threshold = percentile_threshold(maxima, confidence)
    return PermutationResult(
        threshold=threshold,
        max_powers=tuple(float(m) for m in maxima),
        permutations=permutations,
        confidence=confidence,
    )


def binary_shuffles(
    rng: np.random.Generator, rows: int, n: int, k: int
) -> np.ndarray:
    """``rows`` random shuffles of a binary signal of length ``n`` with
    ``k`` ones: each row's ones sit on a uniformly random ``k``-subset of
    the ``n`` slots, which is what shuffling such a signal produces."""
    out = np.zeros((rows, n))
    for row in out:
        row[rng.choice(n, k, replace=False)] = 1.0
    return out


def bucket_length(bucket: int, ratio: float) -> int:
    """Length at which :class:`ThresholdCache` evaluates a length bucket.

    Bucket ``b`` covers lengths from ``ratio ** (b - 1/2)`` up to
    ``ratio ** (b + 1/2)``.  This is the largest 5-smooth number
    (``2**a * 3**b * 5**c``, cheap for any FFT) in
    ``[max(4, ceil(ratio ** (b - 1/2))), round(ratio ** b)]``, or
    ``max(4, round(ratio ** b))`` when that range holds none.  It does
    not ask the installed FFT library, so a persisted threshold does
    not depend on it.
    """
    top = max(4, int(round(ratio ** bucket)))
    low = max(4, math.ceil(ratio ** (bucket - 0.5)))
    best = 0
    power5 = 1
    while power5 <= top:
        odd = power5
        while odd <= top:
            # Largest odd * 2**a that does not exceed top.
            best = max(best, odd << ((top // odd).bit_length() - 1))
            odd *= 3
        power5 *= 5
    return best if best >= low else top


class ThresholdCacheMismatch(ValueError):
    """A persisted cache was produced under different parameters."""


class ThresholdCache:
    """Bucketed permutation-threshold cache for *binary* signals.

    A shuffled binary signal is fully described by its length ``N`` and
    its number of ones ``k`` — the threshold is a function of (N, k)
    only.  Large-scale runs (millions of pairs, Section VII) repeat very
    similar (N, k) combinations; this cache buckets both geometrically
    (default 5% buckets) and computes each bucket's threshold once, at
    the 5-smooth length :func:`bucket_length` picks inside the bucket.
    The approximation error is the bucket width, far below the
    permutation estimate's own variance.

    Bucket thresholds depend only on the bucket key and the cache's
    parameters (each is derived with a generator seeded from ``seed``),
    so warmth is shareable: :meth:`precompute` fills buckets ahead of a
    run, and :meth:`save`/:meth:`load` persist them as JSON so workers
    and resumed batches start warm instead of re-deriving every bucket.
    """

    def __init__(
        self,
        *,
        ratio: float = 1.05,
        permutations: int = 20,
        confidence: float = 0.95,
        seed: int = 0,
    ) -> None:
        require(ratio > 1.0, "ratio must exceed 1")
        self.ratio = ratio
        self.permutations = permutations
        self.confidence = confidence
        self.seed = seed
        self._cache: Dict[Tuple[int, int], float] = {}
        # Exact (n_slots, n_ones) -> threshold front map: repeated
        # lookups skip the two log() calls of the bucket math.  Derived
        # data only — never persisted or pickled.
        self._exact: Dict[Tuple[int, int], float] = {}
        self.hits = 0
        self.misses = 0
        # Hit/miss counters resolved once per active registry: the
        # registry's name->counter lookup is measurable in the
        # million-pair loop, and the hit path must stay O(dict get).
        self._counter_registry: Optional[object] = None
        self._hit_counter = None
        self._miss_counter = None

    def __getstate__(self) -> dict:
        """Drop the registry handles: counters hold locks and must be
        re-resolved inside whatever process (and registry) unpickles us."""
        state = dict(self.__dict__)
        state["_counter_registry"] = None
        state["_hit_counter"] = None
        state["_miss_counter"] = None
        state["_exact"] = {}  # derived; keeps worker pickles small
        return state

    def _counters(self):
        registry = get_registry()
        if registry is not self._counter_registry:
            self._counter_registry = registry
            self._hit_counter = registry.counter("detector.threshold_cache.hits")
            self._miss_counter = registry.counter(
                "detector.threshold_cache.misses"
            )
        return self._hit_counter, self._miss_counter

    def _bucket(self, value: int) -> int:
        return int(round(math.log(max(value, 1)) / math.log(self.ratio)))

    def _key(self, n_slots: int, n_ones: int) -> Tuple[int, int]:
        n_ones = int(min(max(n_ones, 1), n_slots))
        return (self._bucket(n_slots), self._bucket(n_ones))

    def threshold(self, n_slots: int, n_ones: int) -> float:
        """Permutation threshold for a binary signal of this shape."""
        exact_key = (n_slots, n_ones)
        cached = self._exact.get(exact_key)
        if cached is not None:
            self.hits += 1
            hits, _misses = self._counters()
            hits.inc()
            return cached
        require(n_slots >= 4, "n_slots must be at least 4")
        key = self._key(n_slots, n_ones)
        cached = self._cache.get(key)
        hits, misses = self._counters()
        if cached is not None:
            self.hits += 1
            hits.inc()
            self._exact[exact_key] = cached
            return cached
        self.misses += 1
        misses.inc()
        value = self._compute(key)
        self._exact[exact_key] = value
        return value

    def _compute(self, key: Tuple[int, int]) -> float:
        """Derive one bucket's threshold at its evaluation length.

        A shuffled binary signal of length ``n`` with ``k`` ones is a
        uniformly random ``k``-subset of the ``n`` slots, so each of the
        ``m`` rows draws that subset directly instead of permuting a
        full row.  The length is :func:`bucket_length`: a 5-smooth
        ``n`` inside the bucket, where the rFFT is cheap.
        """
        n = bucket_length(key[0], self.ratio)
        k = min(n, max(1, int(round(self.ratio ** key[1]))))
        rows = binary_shuffles(
            np.random.default_rng(self.seed), self.permutations, n, k
        )
        value = percentile_threshold(batch_max_power(rows), self.confidence)
        self._cache[key] = value
        return value

    def __len__(self) -> int:
        return len(self._cache)

    # -- warmth ------------------------------------------------------------

    def precompute(self, grid: Iterable[Tuple[int, int]]) -> int:
        """Warm every bucket covering the ``(n_slots, n_ones)`` grid.

        Returns how many buckets were newly computed.  Unlike
        :meth:`threshold`, precomputation does not touch the hit/miss
        statistics — warming is setup, not lookup traffic.
        """
        computed = 0
        for n_slots, n_ones in grid:
            require(int(n_slots) >= 4, "n_slots must be at least 4")
            key = self._key(int(n_slots), int(n_ones))
            if key not in self._cache:
                self._compute(key)
                computed += 1
        return computed

    # -- persistence -------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the warm buckets as versioned JSON.

        The file records the cache parameters (``ratio``,
        ``permutations``, ``confidence``, ``seed``) so :meth:`load`
        can refuse entries derived under a different configuration.
        The write is atomic (temporary file, then ``os.replace``).
        """
        path = Path(path)
        payload = {
            "version": CACHE_FILE_VERSION,
            "ratio": self.ratio,
            "permutations": self.permutations,
            "confidence": self.confidence,
            "seed": self.seed,
            "entries": [
                [key[0], key[1], value]
                for key, value in sorted(self._cache.items())
            ],
        }
        # Written beside the target and renamed into place: a run killed
        # mid-save leaves the previous file, never a torn one.
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def load(self, path: Union[str, Path]) -> int:
        """Merge persisted buckets into this cache; returns how many.

        Raises :class:`ThresholdCacheMismatch` when the file was written
        under different parameters (or a different file version) —
        mixing thresholds across configurations would silently change
        detection results — and when its content is not a well-formed
        cache file (truncated, empty, or not this layout).  Nothing is
        merged unless the whole file is valid.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ThresholdCacheMismatch(
                f"threshold cache {path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise ThresholdCacheMismatch(
                f"threshold cache {path} is not a JSON object"
            )
        if payload.get("version") != CACHE_FILE_VERSION:
            raise ThresholdCacheMismatch(
                f"threshold cache {path} has file version "
                f"{payload.get('version')!r}; expected {CACHE_FILE_VERSION}"
            )
        for name in ("ratio", "permutations", "confidence", "seed"):
            if payload.get(name) != getattr(self, name):
                raise ThresholdCacheMismatch(
                    f"threshold cache {path} was computed with "
                    f"{name}={payload.get(name)!r}, this cache uses "
                    f"{name}={getattr(self, name)!r}; refusing to load"
                )
        try:
            entries = {
                (int(bucket_n), int(bucket_k)): float(value)
                for bucket_n, bucket_k, value in payload["entries"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ThresholdCacheMismatch(
                f"threshold cache {path} has malformed entries: {exc!r}"
            ) from None
        if not all(math.isfinite(value) for value in entries.values()):
            raise ThresholdCacheMismatch(
                f"threshold cache {path} holds a non-finite threshold"
            )
        self._cache.update(entries)
        return len(entries)
