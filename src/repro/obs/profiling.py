"""Span-level profiling hooks: attribute latency to code.

The PR-1 telemetry measures *where time goes between spans*; this module
answers the follow-up question — *which code inside a span is hot*.  Two
collectors are supported:

- ``cprofile`` — deterministic function profiling via :mod:`cProfile`;
  hotspots are the top-N functions by own-time (tottime).
- ``tracemalloc`` — allocation profiling via snapshot diffing; hotspots
  are the top-N source lines by net allocated size.

Profiles attach to spans (:func:`repro.obs.span` with ``profile=...``)
or blanket-enable via the ``REPRO_PROFILE`` environment variable
(``cprofile`` or ``tracemalloc``; ``REPRO_PROFILE_TOPN`` bounds the
hotspot list, default 10).  Completed profiles accumulate in a small
module-level store that :func:`repro.obs.export.write_telemetry` drains
into ``profiles.jsonl`` in the telemetry directory, and ``repro stats
--profile`` renders them.

cProfile cannot nest (enabling a second profiler on a thread raises),
so with blanket profiling only the *outermost* span of each thread
collects — which is the whole-run profile you want anyway.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "PROFILE_KINDS",
    "SpanProfile",
    "profile_mode",
    "profile_top_n",
    "start_collector",
    "record_profile",
    "pending_profiles",
    "drain_profiles",
    "clear_profiles",
    "render_profiles",
    "profiles_to_jsonl",
    "profiles_from_jsonl",
]

#: Supported values of ``REPRO_PROFILE`` / ``span(profile=...)``.
PROFILE_KINDS = ("cprofile", "tracemalloc")

_TOPN_DEFAULT = 10

_store_lock = threading.Lock()
_store: List["SpanProfile"] = []
_cprofile_active = threading.local()


@dataclass(frozen=True)
class SpanProfile:
    """Top-N hotspots collected while one span ran.

    ``hotspots`` entries are plain dicts so the profile serializes as-is:
    cProfile rows carry ``site``/``calls``/``tottime``/``cumtime``,
    tracemalloc rows carry ``site``/``size_kb``/``count``.
    """

    path: str
    kind: str
    seconds: float
    hotspots: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "kind": self.kind,
            "seconds": self.seconds,
            "hotspots": list(self.hotspots),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanProfile":
        return cls(
            path=str(payload["path"]),
            kind=str(payload["kind"]),
            seconds=float(payload.get("seconds", 0.0)),
            hotspots=list(payload.get("hotspots", [])),
        )


def profile_mode() -> Optional[str]:
    """The blanket profiling kind from ``REPRO_PROFILE`` (None if unset).

    Unrecognized values are treated as off rather than crashing a run
    whose only mistake is a typo in an env var.
    """
    value = os.environ.get("REPRO_PROFILE", "").strip().lower()
    return value if value in PROFILE_KINDS else None


def profile_top_n() -> int:
    """Hotspot list length, from ``REPRO_PROFILE_TOPN`` (default 10)."""
    raw = os.environ.get("REPRO_PROFILE_TOPN", "").strip()
    try:
        value = int(raw)
    except ValueError:
        return _TOPN_DEFAULT
    return value if value >= 1 else _TOPN_DEFAULT


def _short_site(filename: str, lineno: int, func: str = "") -> str:
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    site = f"{short}:{lineno}"
    return f"{site}:{func}" if func else site


class _CProfileCollector:
    """Deterministic profiler over one block; top-N by own time."""

    kind = "cprofile"

    def __init__(self, top_n: int) -> None:
        self._top_n = top_n
        self._profiler = cProfile.Profile()
        self._profiler.enable()
        _cprofile_active.on = True

    def stop(self) -> List[Dict[str, Any]]:
        self._profiler.disable()
        _cprofile_active.on = False
        stats = pstats.Stats(self._profiler)
        rows = []
        for (filename, lineno, func), row in stats.stats.items():  # type: ignore[attr-defined]
            _cc, ncalls, tottime, cumtime, _callers = row
            rows.append(
                {
                    "site": _short_site(filename, lineno, func),
                    "calls": int(ncalls),
                    "tottime": float(tottime),
                    "cumtime": float(cumtime),
                }
            )
        rows.sort(key=lambda r: r["tottime"], reverse=True)
        return rows[: self._top_n]


class _TracemallocCollector:
    """Allocation snapshot diff over one block; top-N by net size."""

    kind = "tracemalloc"

    def __init__(self, top_n: int) -> None:
        self._top_n = top_n
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        self._before = tracemalloc.take_snapshot()

    def stop(self) -> List[Dict[str, Any]]:
        after = tracemalloc.take_snapshot()
        diffs = after.compare_to(self._before, "lineno")
        if self._started:
            tracemalloc.stop()
        rows = []
        for diff in diffs[: self._top_n]:
            frame = diff.traceback[0]
            rows.append(
                {
                    "site": _short_site(frame.filename, frame.lineno),
                    "size_kb": diff.size_diff / 1024.0,
                    "count": int(diff.count_diff),
                }
            )
        return rows


def start_collector(kind: str, *, top_n: Optional[int] = None):
    """Start a hotspot collector of ``kind``; ``.stop()`` returns rows.

    Returns ``None`` when the kind is unknown, or when a cProfile
    collector is already active on this thread (cProfile cannot nest).
    """
    n = top_n if top_n is not None else profile_top_n()
    if kind == "cprofile":
        if getattr(_cprofile_active, "on", False):
            return None
        return _CProfileCollector(n)
    if kind == "tracemalloc":
        return _TracemallocCollector(n)
    return None


# -- module-level profile store ---------------------------------------------


def record_profile(profile: SpanProfile) -> None:
    """Append one completed profile to the pending store."""
    with _store_lock:
        _store.append(profile)


def pending_profiles() -> List[SpanProfile]:
    """The profiles collected so far (without clearing them)."""
    with _store_lock:
        return list(_store)


def drain_profiles() -> List[SpanProfile]:
    """Return all pending profiles and clear the store."""
    with _store_lock:
        drained = list(_store)
        _store.clear()
    return drained


def clear_profiles() -> None:
    """Discard pending profiles (test isolation)."""
    with _store_lock:
        _store.clear()


# -- rendering and (de)serialization ----------------------------------------


def render_profiles(profiles: List[SpanProfile]) -> str:
    """Human-readable hotspot tables, one block per profile."""
    if not profiles:
        return "(no profiles recorded)\n"
    lines: List[str] = []
    for profile in profiles:
        lines.append(
            f"-- profile [{profile.kind}] {profile.path} "
            f"({profile.seconds * 1e3:.1f} ms) --"
        )
        if not profile.hotspots:
            lines.append("  (no hotspots)")
        elif profile.kind == "cprofile":
            lines.append(
                f"  {'tottime':>9s} {'cumtime':>9s} {'calls':>8s}  site"
            )
            for row in profile.hotspots:
                lines.append(
                    f"  {row['tottime']:9.4f} {row['cumtime']:9.4f} "
                    f"{row['calls']:>8d}  {row['site']}"
                )
        else:
            lines.append(f"  {'size_kb':>10s} {'count':>8s}  site")
            for row in profile.hotspots:
                lines.append(
                    f"  {row['size_kb']:10.1f} {row['count']:>8d}  "
                    f"{row['site']}"
                )
        lines.append("")
    return "\n".join(lines)


def profiles_to_jsonl(profiles: List[SpanProfile]) -> str:
    """One JSON object per profile, one per line."""
    return "".join(
        json.dumps(profile.to_dict(), sort_keys=True) + "\n"
        for profile in profiles
    )


def profiles_from_jsonl(text: str) -> List[SpanProfile]:
    """Inverse of :func:`profiles_to_jsonl`."""
    profiles = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            profiles.append(SpanProfile.from_dict(json.loads(line)))
    return profiles
