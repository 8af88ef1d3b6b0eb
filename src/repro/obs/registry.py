"""Metrics registry: counters, gauges, histograms, timers.

The registry is the single sink every instrumented call site writes to.
It is deliberately dependency-free (stdlib only) so that ``repro.obs``
can be imported from any layer — including :mod:`repro.core`, which must
not grow third-party imports — without creating cycles.

Design points, mirroring what a 30B-event Hadoop deployment needs:

- **Per-run scoping.**  A module-level *current registry* (see
  :func:`get_registry` / :func:`set_registry` / :func:`scoped_registry`)
  lets a front end activate a fresh registry for one run without
  threading a handle through every constructor.
- **Zero overhead when off.**  The default current registry is a
  :class:`NullRegistry` whose instruments are shared no-op singletons;
  an instrumented hot path costs a dict-free attribute lookup and a
  ``pass`` method call.  Set ``REPRO_TELEMETRY=1`` (or install a real
  registry) to collect.
- **Thread/process-safe aggregation.**  All mutation happens under a
  lock, and :meth:`MetricsRegistry.snapshot` produces a plain picklable
  dict that :meth:`MetricsRegistry.merge` folds back in — this is how
  MapReduce worker processes ship their child registries back to the
  parent (see :mod:`repro.mapreduce.engine`).
- **Bounded memory.**  Histograms keep exact count/sum/min/max plus a
  capped sample of observations for quantile estimation, so a
  million-pair run cannot grow the registry without bound.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "telemetry_enabled",
]

#: Histograms keep at most this many raw observations for quantiles.
HISTOGRAM_SAMPLE_LIMIT = 4096


class Counter:
    """A monotonically increasing count (events seen, cache hits, ...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (population size, worker count, ...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """A distribution of observations with exact moments and sampled
    quantiles (p50/p95/p99 by default).

    ``count``/``total``/``min``/``max`` are exact regardless of volume;
    quantiles are computed over the first ``HISTOGRAM_SAMPLE_LIMIT``
    observations (ample for per-stage latencies, and bounded for
    per-pair metrics).
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: List[float] = []
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self.samples) < HISTOGRAM_SAMPLE_LIMIT:
                self.samples.append(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the sampled observations.

        Uses linear interpolation between order statistics; returns 0.0
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            data = sorted(self.samples)
        if not data:
            return 0.0
        position = q * (len(data) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return data[low]
        weight = position - low
        return data[low] * (1.0 - weight) + data[high] * weight

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p95/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timer:
    """Context manager observing elapsed wall-clock seconds into a
    histogram.  Re-entrant across separate ``with`` statements (each
    enter creates an independent measurement)."""

    __slots__ = ("_histogram", "_starts")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._starts: List[float] = []

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *_exc: Any) -> None:
        start = self._starts.pop()
        self._histogram.observe(time.perf_counter() - start)


class MetricsRegistry:
    """A per-run collection of named metrics.

    Instruments are created on first use and always return the same
    object for the same name, so call sites never need to pre-register.
    All operations are thread-safe; see :meth:`snapshot`/:meth:`merge`
    for the cross-process story.
    """

    #: Real registries collect; the NullRegistry overrides this.
    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Span records traced while this registry was active (see
        #: :mod:`repro.obs.tracing`); they live and die with it.
        self.span_records: List[Any] = []

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name, self._lock)
                )
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, self._lock)
                )
        return histogram

    def timer(self, name: str) -> Timer:
        """A context manager timing into histogram ``name`` (seconds)."""
        return Timer(self.histogram(name))

    # -- introspection -----------------------------------------------------

    def counters(self) -> Iterator[Tuple[str, int]]:
        """All (name, value) counter pairs, sorted by name."""
        with self._lock:
            items = [(c.name, c.value) for c in self._counters.values()]
        return iter(sorted(items))

    def gauges(self) -> Iterator[Tuple[str, float]]:
        """All (name, value) gauge pairs, sorted by name."""
        with self._lock:
            items = [(g.name, g.value) for g in self._gauges.values()]
        return iter(sorted(items))

    def histograms(self) -> Iterator[Histogram]:
        """All histograms, sorted by name."""
        with self._lock:
            items = sorted(self._histograms.values(), key=lambda h: h.name)
        return iter(items)

    def is_empty(self) -> bool:
        """True when nothing has been recorded yet."""
        with self._lock:
            return not (self._counters or self._gauges or self._histograms)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain picklable dict of everything recorded so far.

        This is the wire format MapReduce workers return to the parent;
        :meth:`merge` is its inverse.
        """
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in self._counters.items()
                },
                "gauges": {name: g.value for name, g in self._gauges.items()},
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                        "samples": list(h.samples),
                    }
                    for name, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a child registry's :meth:`snapshot` into this registry.

        Counters and histogram moments add; gauges take the child's
        value (last write wins); histogram samples extend up to the
        sample cap.  Safe to call from multiple threads.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            with self._lock:
                histogram.count += payload["count"]
                histogram.total += payload["total"]
                histogram.min = min(histogram.min, payload["min"])
                histogram.max = max(histogram.max, payload["max"])
                room = HISTOGRAM_SAMPLE_LIMIT - len(histogram.samples)
                if room > 0:
                    histogram.samples.extend(payload["samples"][:room])

    def merge_registry(self, other: "MetricsRegistry") -> None:
        """Convenience: merge another in-process registry."""
        self.merge(other.snapshot())


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram/timer."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *_exc: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The off switch: every instrument is a shared no-op singleton.

    Instrumented code can call ``get_registry().counter(...).inc()``
    unconditionally; with the null registry active this records nothing
    and allocates nothing.
    """

    enabled = False

    def __init__(self) -> None:  # no lock, no dicts
        pass

    def counter(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def timer(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def counters(self) -> Iterator[Tuple[str, int]]:
        return iter(())

    def gauges(self) -> Iterator[Tuple[str, float]]:
        return iter(())

    def histograms(self) -> Iterator[Histogram]:
        return iter(())

    def is_empty(self) -> bool:
        return True

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass

    def merge_registry(self, other: MetricsRegistry) -> None:
        pass


#: The process-wide no-op registry (safe to share: it holds no state).
NULL_REGISTRY = NullRegistry()

_current: MetricsRegistry = (
    MetricsRegistry()
    if os.environ.get("REPRO_TELEMETRY", "").strip() not in ("", "0", "false")
    else NULL_REGISTRY
)


def get_registry() -> MetricsRegistry:
    """The currently active registry (a no-op one when telemetry is off)."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as current; ``None`` turns telemetry off.

    Returns the previously active registry so callers can restore it.
    """
    global _current
    previous = _current
    _current = registry if registry is not None else NULL_REGISTRY
    return previous


class scoped_registry:
    """Context manager activating ``registry`` for the enclosed block.

    >>> registry = MetricsRegistry()
    >>> with scoped_registry(registry):
    ...     pass  # instrumented code records into ``registry``
    """

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self._registry)
        return get_registry()

    def __exit__(self, *_exc: Any) -> None:
        set_registry(self._previous)


def telemetry_enabled() -> bool:
    """True when the current registry actually collects metrics."""
    return _current.enabled
