"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
(see DESIGN.md section 4).  Results are printed to the terminal and
appended to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md
can be cross-checked against a fresh run.  ``finish()`` also writes
``benchmarks/results/<experiment>.json``, an envelope stamped with
:func:`host_fingerprint` so runs from different machines and commits
say where they came from; call :meth:`ExperimentReport.metric` to
record the numbers worth tracking across runs.
"""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Version of the ``benchmarks/results/*.json`` layout.
SCHEMA_VERSION = 1

RESULTS_DIR = Path(__file__).parent / "results"


def git_sha() -> Optional[str]:
    """The current git commit SHA, or None outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def host_fingerprint() -> Dict[str, Any]:
    """Where and on what a result was produced (for comparability)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "node": platform.node(),
        "git_sha": git_sha(),
    }


class ExperimentReport:
    """Collects printable result rows for one experiment."""

    def __init__(self, experiment_id: str, title: str) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self._buffer = io.StringIO()
        self._metrics: List[Dict[str, Any]] = []
        self.line("=" * 72)
        self.line(f"{experiment_id}: {title}")
        self.line("=" * 72)

    def line(self, text: str = "") -> None:
        """Append one output line."""
        self._buffer.write(text + "\n")

    def metric(self, name: str, value: float, unit: str = "", **extra: Any) -> None:
        """Record one machine-readable measurement for the JSON output."""
        self._metrics.append(
            {"name": name, "value": float(value), "unit": unit, **extra}
        )

    def table(self, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        """Append an aligned text table."""
        rows = [tuple(str(cell) for cell in row) for row in rows]
        widths = [len(h) for h in header]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        fmt = "  ".join(f"{{:>{w}s}}" for w in widths)
        self.line(fmt.format(*header))
        self.line("  ".join("-" * w for w in widths))
        for row in rows:
            self.line(fmt.format(*row))

    def paper_vs_measured(self, claims: Iterable[Sequence]) -> None:
        """Append the paper-claim vs measured-value comparison block."""
        self.line()
        self.table(("paper claim", "measured", "holds?"), claims)

    def finish(self) -> str:
        """Print the report, persist it (text + JSON), and return the text."""
        text = self._buffer.getvalue()
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{self.experiment_id}.txt"
        out.write_text(text, encoding="utf-8")
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "experiment",
            "suite": self.experiment_id,
            "title": self.title,
            "created": time.time(),
            "fingerprint": host_fingerprint(),
            "results": list(self._metrics),
            "text": text,
        }
        json_out = RESULTS_DIR / f"{self.experiment_id}.json"
        json_out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print()
        print(text)
        return text


def check(condition: bool) -> str:
    """Render a reproduction check mark."""
    return "yes" if condition else "NO"


_BLOCKS = " .:-=+*#%@"


def ascii_series(values: Sequence[float], *, width: int = 1) -> str:
    """Render a numeric series as a one-line ASCII intensity strip.

    The paper's figures are line plots; in a terminal report, a strip
    like ``@%#=:. `` conveys the same monotone-decay shape at a glance.
    Values are min-max normalized; NaNs render as ``?``.
    """
    vals = [float(v) for v in values]
    finite = [v for v in vals if v == v]
    if not finite:
        return "?" * len(vals)
    low, high = min(finite), max(finite)
    span = (high - low) or 1.0
    out = []
    for value in vals:
        if value != value:
            out.append("?" * width)
            continue
        level = int(round((value - low) / span * (len(_BLOCKS) - 1)))
        out.append(_BLOCKS[level] * width)
    return "".join(out)


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / expected."""
    return abs(measured - expected) / expected
