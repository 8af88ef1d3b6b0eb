"""Argument validation helpers.

Every public entry point of the library validates its inputs eagerly and
raises :class:`ValueError` (or :class:`TypeError`) with a message naming the
offending parameter.  Centralizing the checks keeps the call sites short and
the error messages uniform.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (or strict)."""
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a probability in [0, 1]."""
    require_in_range(value, name, 0.0, 1.0)


def as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float array, rejecting NaN and inf."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} must not contain NaN or infinite values")
    return array


def as_sorted_timestamps(timestamps: Sequence[float], name: str = "timestamps") -> np.ndarray:
    """Convert ``timestamps`` to a sorted 1-D float array.

    Timestamps are seconds (absolute epoch or relative); duplicates are
    allowed (several requests may share a 1-second log resolution), but
    negative spacing after sorting is impossible by construction.
    """
    array = as_float_array(timestamps, name)
    if array.size == 0:
        return array
    if np.any(np.diff(array) < 0):
        array = np.sort(array)
    return array
