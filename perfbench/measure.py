"""The measuring process: set up, run one workload closed-loop, check it.

``run.py`` starts this module in a fresh interpreter for every
measurement, so the process holds only the program and the cached
inputs (its peak RSS excludes input generation)::

    python3 -m perfbench.measure --workload daily --inputs DIR \\
        --work DIR --seconds 10 --trace 0

It sets the workload up (imports, LM scorer training, opening the
inputs), then runs one batch after another through the workload's
public entry point until ``--seconds`` have passed, checking every
report.  With ``--trace 1`` it alternates plain and traced batches and
reports the per-layer metrics of the traced ones.  The last line of
its output is one JSON object; ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Outcome:
    """One batch: its timing, size, report signature and check results."""

    seconds: float
    pairs: int
    signature: Any
    beacon_recall: float = 1.0
    false_reports: int = 0
    store_bytes: int = 0
    problems: List[str] = field(default_factory=list)


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class _PipelineWorkload:
    """Shared checks for the workloads that end in a pipeline report."""

    truth: Dict[str, Any]
    expected_pairs: int

    def check(self, report, seconds: float, store_bytes: int = 0) -> Outcome:
        malicious = set(self.truth["malicious_destinations"])
        detected = {case.destination for case in report.detected_cases}
        ranked = report.reported_destinations
        pairs = report.funnel.steps[0][1] if report.funnel.steps else 0
        problems = [f"funnel: {p}" for p in report.funnel.validate()]
        if pairs != self.expected_pairs:
            problems.append(
                f"{pairs} pairs entered the funnel, the inputs hold "
                f"{self.expected_pairs}")
        signature = (
            tuple(report.funnel.steps),
            tuple(case.pair for case in report.ranked_cases),
            tuple(sorted(case.pair for case in report.detected_cases)),
        )
        return Outcome(
            seconds=seconds,
            pairs=pairs,
            signature=signature,
            beacon_recall=len(detected & malicious) / len(malicious),
            false_reports=sum(1 for d in ranked if d not in malicious),
            store_bytes=store_bytes,
            problems=problems,
        )


class Daily(_PipelineWorkload):
    """One day's proxy log through ``repro.cli.main(["run", log])``."""

    def __init__(self, inputs: Path, work: Path) -> None:
        self.inputs = inputs

    def setup(self) -> None:
        from repro import cli
        from repro.filtering.pipeline import PipelineReport
        from repro.lm.domains import default_scorer

        default_scorer()
        self.cli = cli
        self.report_class = PipelineReport
        self.log = self.inputs / "logs" / "day-000.tsv"
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.expected_pairs = self.truth["pair_days"]
        if not self.log.is_file():
            raise FileNotFoundError(self.log)

    def run_once(self) -> Outcome:
        # The CLI prints the report; keeping each report as it is built
        # gives the checks the object itself, whichever front end the
        # CLI uses.  It costs one extra call per batch.
        reports = []
        original = vars(self.report_class)["__post_init__"]

        def keep_report(report):
            original(report)
            reports.append(report)

        self.report_class.__post_init__ = keep_report
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(["run", str(self.log)])
                seconds = time.perf_counter() - start
        finally:
            self.report_class.__post_init__ = original
        outcome = self.check(reports[-1], seconds)
        if code != 0:
            outcome.problems.append(f"repro run exited {code}")
        return outcome


class Monthly(_PipelineWorkload):
    """A 30-day store window through the in-process pipeline."""

    window_days = 30
    time_scale = 600.0

    def __init__(self, inputs: Path, work: Path) -> None:
        self.inputs = inputs

    def setup(self) -> None:
        from repro import BaywatchPipeline, PipelineConfig
        from repro.jobs.summary_store import SummaryStore
        from repro.lm.domains import default_scorer

        default_scorer()
        self.pipeline_class = BaywatchPipeline
        self.config_class = PipelineConfig
        self.store = SummaryStore(self.inputs / "store")
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.expected_pairs = self.truth["pairs"]
        days = len(self.store.days())
        if days != self.window_days:
            raise ValueError(f"store holds {days} days, not {self.window_days}")

    def run_once(self) -> Outcome:
        start = time.perf_counter()
        summaries = self.store.load_window(
            window_days=self.window_days, time_scale=self.time_scale)
        report = self.pipeline_class(self.config_class()).run_summaries(
            summaries)
        seconds = time.perf_counter() - start
        return self.check(report, seconds, _tree_bytes(self.store.root))


class Backfill:
    """Daily proxy logs folded and written to a summary store."""

    def __init__(self, inputs: Path, work: Path) -> None:
        self.inputs = inputs
        self.work = work

    def setup(self) -> None:
        from repro.jobs.summary_store import SummaryStore
        from repro.sources import columnar

        self.columnar = columnar
        self.days = sorted((self.inputs / "logs").glob("day-*.tsv"))
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.store = SummaryStore(self.work / "store")
        if not self.days:
            raise FileNotFoundError(self.inputs / "logs")

    def run_once(self) -> Outcome:
        columnar = self.columnar
        seconds = 0.0
        written = events = 0
        destinations = set()
        problems: List[str] = []
        for day, path in enumerate(self.days):
            start = time.perf_counter()
            summaries = columnar.summaries_from_chunks(
                columnar.read_log_chunks(path))
            written += self.store.append_day(day, summaries, replace=True)
            seconds += time.perf_counter() - start
            # Untimed: the day must read back exactly as folded.  Only a
            # digest of the fold is kept while the day is reloaded, so
            # the check never holds two copies of a day and the peak RSS
            # stays that of the fold and the store.
            events += sum(summary.event_count for summary in summaries)
            destinations.update(summary.destination for summary in summaries)
            folded = _digest(summaries)
            del summaries
            if _digest(self.store.load_day(day)) != folded:
                problems.append(f"day {day} reads back differently")
        for name, value in (("pair_days", written), ("events", events)):
            if value != self.truth[name]:
                problems.append(f"{value} {name}, the inputs hold "
                                f"{self.truth[name]}")
        malicious = set(self.truth["malicious_destinations"])
        return Outcome(
            seconds=seconds,
            pairs=written,
            signature=(written, events),
            # No detection runs here: the share of implant destinations
            # that survive into the store.
            beacon_recall=len(malicious & destinations) / len(malicious),
            store_bytes=_tree_bytes(self.store.root),
            problems=problems,
        )


def _digest(summaries) -> str:
    """SHA-256 over every field of ``summaries``, in pair order."""
    digest = hashlib.sha256()
    for s in sorted(summaries, key=lambda s: s.pair):
        digest.update(repr((s.source, s.destination, s.time_scale,
                            s.first_timestamp, len(s.intervals),
                            s.urls)).encode())
        digest.update(array("d", s.intervals).tobytes())
    return digest.hexdigest()


WORKLOADS = {"daily": Daily, "monthly": Monthly, "backfill": Backfill}


def _attempt(workload, label: str) -> Optional[Outcome]:
    """One batch; None (with the traceback on stderr) when it raised."""
    try:
        return workload.run_once()
    except Exception:  # noqa: BLE001 - a failed batch is counted, not fatal
        print(f"{label} batch raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


def measure(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run batches until ``seconds`` pass; return the raw results.

    Another round starts only while it is expected to end less than
    half a round past ``seconds``, so a run lasts about ``seconds``
    whatever the batch length.
    """
    from perfbench.layers import LayerTrace

    plain: List[Outcome] = []
    traced: List[Tuple[Outcome, Dict[str, float]]] = []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    missing: List[str] = []
    while True:
        round_start = time.perf_counter()
        attempted += 1
        outcome = _attempt(workload, "plain")
        if outcome is None or outcome.problems:
            failed += 1
        if outcome is not None:
            plain.append(outcome)
        if trace:
            attempted += 1
            with LayerTrace() as layers:
                outcome = _attempt(workload, "traced")
            missing = layers.missing
            if outcome is None or outcome.problems:
                failed += 1
            if outcome is not None:
                layer_metrics = layers.metrics(outcome.seconds)
                layer_metrics["summary_store.bytes"] = float(outcome.store_bytes)
                traced.append((outcome, layer_metrics))
        now = time.perf_counter()
        if now + 0.5 * (now - round_start) >= deadline:
            break
    outcomes = plain + [outcome for outcome, _ in traced]
    problems = sorted({p for outcome in outcomes for p in outcome.problems})
    signatures = {repr(outcome.signature) for outcome in outcomes}
    if len(signatures) > 1:
        problems.append("reports differ between batches of one input")
    recall = [outcome.beacon_recall for outcome in outcomes]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "missing_trace_targets": missing,
        "batch_seconds": [outcome.seconds for outcome in plain],
        "batch_pairs": [outcome.pairs for outcome in plain],
        "beacon_recall": statistics.median(recall) if recall else 0.0,
        "false_reports": (statistics.median(o.false_reports for o in outcomes)
                          if outcomes else 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["correct"] = (
        not problems and failed == 0 and bool(plain)
        and result["beacon_recall"] > 0
    )
    if traced:
        keys = traced[0][1].keys()
        result["layers"] = {
            key: statistics.median(metrics[key] for _, metrics in traced)
            for key in keys
        }
        result["layers"]["trace_overhead_frac"] = (
            statistics.median(o.seconds for o, _ in traced)
            / statistics.median(o.seconds for o in plain) - 1.0
            if plain else 0.0
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up is timed from here: nothing of the program is imported yet.
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.inputs, args.work)
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    result["setup_s"] = setup_s
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
