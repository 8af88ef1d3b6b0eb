"""Small statistical helpers used across the pipeline.

The helpers here are deliberately dependency-light: the one-sample t-test
delegates to :mod:`scipy.stats`, entropy and compressibility operate on
plain byte strings, and :func:`percentile_threshold` implements the
"(C x m)-th highest value" rule used by the permutation filter
(paper Section IV-B).
"""

from __future__ import annotations

import gzip
import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from scipy import special as _special

from repro.utils.validation import as_float_array, require, require_probability


def one_sample_t_test(samples: Iterable[float], popmean: float) -> float:
    """Return the two-sided p-value of a one-sample t-test.

    Tests the null hypothesis that ``samples`` are drawn from a normal
    distribution with mean ``popmean`` (paper Section IV-C, "Hypothesis
    Testing").  Degenerate inputs are handled conservatively:

    - fewer than 2 samples: p = 1.0 (no evidence against the null),
    - zero sample variance: p = 1.0 when the sample mean equals
      ``popmean`` exactly, else p = 0.0.

    A one-row :func:`one_sample_t_tests` call.
    """
    array = as_float_array(samples, "samples")
    return float(one_sample_t_tests(array[np.newaxis, :], [popmean])[0])


def one_sample_t_tests(
    samples: np.ndarray, popmeans: Sequence[float]
) -> np.ndarray:
    """:func:`one_sample_t_test` of each row of ``samples``.

    ``samples`` is a 2-D array with one sample per row (all of one
    size) and ``popmeans`` the null mean of each row.  Row-wise means
    and deviations sum each row exactly as the one-row call does, so
    every p-value equals its :func:`one_sample_t_test`.
    """
    rows = np.asarray(samples, dtype=float)
    require(rows.ndim == 2, "samples must be two-dimensional")
    popmean = np.asarray(popmeans, dtype=float)
    require(popmean.shape == (rows.shape[0],),
            "popmeans must hold one mean per row")
    n = rows.shape[1]
    if n < 2 or rows.shape[0] == 0:
        return np.ones(rows.shape[0])
    # rows.mean(axis=1) and rows.std(axis=1, ddof=1), spelled out: the
    # same row sums in the same order, without numpy's per-call
    # wrapper overhead.
    mean = rows.sum(axis=1) / n
    centered = rows - mean[:, np.newaxis]
    std = np.sqrt((centered * centered).sum(axis=1) / (n - 1))
    # Direct Student-t computation (equivalent to scipy.stats.ttest_1samp
    # but without its per-call dispatch overhead — this sits on the
    # pruning hot path, millions of calls per batch run).
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = (mean - popmean) / (std / math.sqrt(n))
    p_values = 2.0 * _special.stdtr(n - 1, -np.abs(t_stat))
    flat = np.abs(std) <= 1e-8  # np.isclose(std, 0.0)
    for row in np.flatnonzero(flat):
        p_values[row] = 1.0 if math.isclose(
            mean[row], popmean[row], rel_tol=1e-9, abs_tol=1e-9
        ) else 0.0
    return p_values


def shannon_entropy(symbols: Sequence) -> float:
    """Shannon entropy (bits per symbol) of a sequence of hashable symbols."""
    if len(symbols) == 0:
        return 0.0
    counts = Counter(symbols)
    total = len(symbols)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def gzip_compression_ratio(text: str) -> float:
    """Compression ratio of ``text`` under gzip at the highest level.

    Defined as ``compressed_size / original_size`` (smaller means more
    compressible, i.e. more regular).  The empty string has ratio 1.0 by
    convention.  Used to measure the compressibility of symbolized
    interval series (paper Table II).
    """
    data = text.encode("utf-8")
    if not data:
        return 1.0
    compressed = gzip.compress(data, compresslevel=9)
    return len(compressed) / len(data)


def percentile_threshold(values: Iterable[float], confidence: float) -> float:
    """Return the ``confidence``-level order statistic of ``values``.

    Implements the paper's permutation-threshold rule: with ``m`` values
    (one maximum power per random permutation) and confidence ``C``, the
    threshold is the ``ceil(C * m)``-th smallest value — e.g. the 19th of
    20 at C = 95%, so that a fraction ``C`` of the random maxima fall at
    or below the threshold.
    """
    require_probability(confidence, "confidence")
    array = as_float_array(values, "values")
    require(array.size > 0, "values must not be empty")
    ordered = np.sort(array)
    rank = min(array.size, max(1, math.ceil(confidence * array.size)))
    return float(ordered[rank - 1])
