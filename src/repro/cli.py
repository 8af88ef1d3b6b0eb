"""Command-line interface.

The subcommands cover the operational surface:

- ``simulate`` — generate a labelled synthetic enterprise trace,
- ``detect``   — run the core detector on a timestamp list,
- ``run``      — run the 8-step methodology over a proxy log, in
  fault-tolerant shards (checkpoint/resume),
- ``score``    — score domain names under the language model,
- ``report``   — run the pipeline and emit an analyst report,
- ``stats``    — render a run report from saved telemetry,
- ``trace``    — render a distributed trace tree / export Chrome JSON,
- ``worker``   — drain shard-queue tasks from a run's checkpoint directory,
- ``watch``    — watch a run's live status (journal or HTTP),
- ``explain``  — show one pair's verdict chain from saved provenance,
- ``audit``    — per-stage drop/near-miss analytics from saved provenance,
- ``diff-runs`` — verdict-level drift between two provenance stores.

``run`` accepts ``--provenance <dir>`` (with
``--provenance-sample``) to record per-pair decision provenance —
one :class:`~repro.obs.VerdictRecord` per funnel step per kept pair —
which ``explain``/``audit``/``diff-runs`` read back (see
``docs/OBSERVABILITY.md``).

``run`` is the operational mode: the pipeline with periodicity
detection on the MapReduce engine, in bounded shards with durable JSONL
checkpoints (``--checkpoint-dir`` / ``--resume``), worker-pool recovery
(``--task-timeout``, ``--max-retries``, ``--retry-backoff``), and
quarantine of poison-pill pairs (see ``docs/OPERATIONS.md``).  It
exits 3 when ``--max-shards`` stopped the run before every shard
completed.  Every sharded run
journals its progress to ``events.jsonl`` in the checkpoint (or
telemetry) directory; ``--status-port N`` additionally serves
``/status``, ``/metrics``, and ``/events`` over HTTP for the duration
of the run, and ``repro watch`` follows either the journal file or the
HTTP service.

``run`` and ``report`` accept ``--telemetry <dir>`` to collect
per-stage metrics and write ``report.txt`` / ``metrics.jsonl`` /
``metrics.prom`` (see ``docs/OBSERVABILITY.md``).  ``-v`` turns on
INFO logging, ``-vv`` DEBUG.  A bad argument, an input that cannot be
opened, or a malformed log ends the command with one ``error:`` line
on stderr and exit code 2.

Run ``python -m repro <command> --help`` for the options.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from repro.core.detector import DetectorConfig, PeriodicityDetector
from repro.filtering.pipeline import (
    BaywatchPipeline,
    PipelineConfig,
    PipelineReport,
    check_analysis_time_scale,
)
from repro.lm.domains import default_scorer
from repro.obs import (
    MetricsRegistry,
    configure_logging,
    from_jsonl,
    render_run_report,
    scoped_registry,
    write_telemetry,
)
from repro.synthetic.enterprise import EnterpriseConfig, EnterpriseSimulator
from repro.sources.columnar import read_log_chunks
from repro.sources.proxy import (
    LogFormatError, has_label, parse_timestamp, write_log,
)

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    """A bad argument: :func:`main` prints one ``error:`` line, exit 2."""


def _readable(path: Path) -> Path:
    """``path`` when it opens as a file, else a usage error."""
    try:
        with open(path, "rb"):
            pass
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None
    return path


def _non_negative(value: int, option: str) -> None:
    if value < 0:
        raise _UsageError(f"{option} must be non-negative, got {value}")


def _check_telemetry_dir(telemetry: Optional[Path]) -> None:
    if telemetry is not None and telemetry.exists() and not telemetry.is_dir():
        raise _UsageError(
            f"--telemetry target {telemetry} exists and is not a directory"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BAYWATCH beaconing detection (DSN 2016 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: INFO logging, -vv: DEBUG (to stderr)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic enterprise trace")
    sim.add_argument("output", type=Path, help="proxy log output path (TSV; .gz ok)")
    sim.add_argument("--hosts", type=int, default=50)
    sim.add_argument("--sites", type=int, default=150)
    sim.add_argument("--hours", type=float, default=24.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--truth", type=Path, default=None,
        help="write ground truth (malicious destinations) as JSON",
    )

    det = sub.add_parser("detect", help="detect periodicity in timestamps")
    det.add_argument(
        "input", type=Path,
        help="file with one event timestamp (seconds) per line; '-' for stdin",
    )
    det.add_argument("--time-scale", type=float, default=1.0)
    det.add_argument("--seed", type=int, default=0)

    runp = sub.add_parser(
        "run",
        help="run the 8-step pipeline on a proxy log, in fault-tolerant "
             "shards with checkpoint/resume",
    )
    runp.add_argument("input", type=Path, help="proxy log (TSV; .gz ok)")
    runp.add_argument("--tau-p", type=float, default=0.01,
                      help="local whitelist popularity threshold")
    runp.add_argument("--percentile", type=float, default=0.9,
                      help="ranking score percentile to report")
    runp.add_argument("--top", type=int, default=20,
                      help="print at most this many ranked cases")
    runp.add_argument("--workers", type=int, default=1,
                      help="worker processes for the MapReduce engine")
    runp.add_argument(
        "--executor", default=None, metavar="BACKEND",
        choices=("serial", "processes", "shard-queue"),
        help="execution backend: serial, processes (default when "
             "--workers > 1), or shard-queue (tasks are drained by "
             "'repro worker' processes sharing --checkpoint-dir)",
    )
    runp.add_argument(
        "--claim-ttl", type=float, default=30.0, metavar="SECONDS",
        help="shard-queue worker lease: a claim not refreshed for this "
             "long is requeued to another worker (default 30)",
    )
    runp.add_argument("--shard-size", type=int, default=256,
                      help="pairs per detection shard (default 256)")
    runp.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="persist completed shard outputs (JSONL) into DIR",
    )
    runp.add_argument(
        "--resume", action="store_true",
        help="reuse completed shards found in --checkpoint-dir",
    )
    runp.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="process at most N new shards, then exit 3 (requires "
             "--checkpoint-dir; resume later with --resume)",
    )
    runp.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry parallel tasks running longer than this",
    )
    runp.add_argument("--max-retries", type=int, default=2,
                      help="retry budget per task (default 2)")
    runp.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry backoff (default 0.5)",
    )
    runp.add_argument(
        "--no-quarantine", action="store_true",
        help="abort the batch on a task that fails every attempt "
             "instead of quarantining it",
    )
    runp.add_argument(
        "--analysis-time-scale", type=float, default=None, metavar="SECONDS",
        help="rescale summaries to this coarser granularity before "
             "detection (finite, at least the 1 s fold)",
    )
    runp.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="collect run telemetry and write report.txt/metrics.jsonl/"
             "metrics.prom into DIR",
    )
    runp.add_argument(
        "--run-id", default=None, metavar="ID",
        help="explicit run identifier for logs and the event journal "
             "(default: generated)",
    )
    runp.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve live /status, /metrics, and /events on "
             "127.0.0.1:PORT for the duration of the run (0 = ephemeral "
             "port; requires --checkpoint-dir or --telemetry for the "
             "event journal)",
    )
    runp.add_argument(
        "--status-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the status service up this long after the run ends "
             "(lets pollers observe the final state)",
    )
    runp.add_argument(
        "--provenance", type=Path, default=None, metavar="DIR",
        help="record per-pair verdict chains and write provenance.jsonl "
             "into DIR (read it back with repro explain/audit/diff-runs)",
    )
    runp.add_argument(
        "--provenance-sample", type=float, default=0.05, metavar="RATE",
        help="fraction of early-dropped pairs that keep full verdict "
             "chains; survivors and near-misses are always recorded "
             "(default 0.05)",
    )

    score = sub.add_parser("score", help="score domains under the 3-gram LM")
    score.add_argument("domains", nargs="+", help="domain names to score")

    rep = sub.add_parser(
        "report", help="run the pipeline and emit an analyst report"
    )
    rep.add_argument("input", type=Path, help="proxy log (TSV; .gz ok)")
    rep.add_argument("--tau-p", type=float, default=0.01)
    rep.add_argument("--percentile", type=float, default=0.9)
    rep.add_argument("--max-cases", type=int, default=10)
    rep.add_argument("--output", type=Path, default=None,
                     help="write the report here instead of stdout")
    rep.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="collect run telemetry and write report.txt/metrics.jsonl/"
             "metrics.prom into DIR",
    )

    stats = sub.add_parser(
        "stats", help="render a run report from saved telemetry"
    )
    stats.add_argument(
        "path", type=Path,
        help="telemetry directory (or metrics.jsonl file) written by "
             "--telemetry",
    )
    stats.add_argument(
        "--profile", action="store_true",
        help="also render span-profile hotspots (profiles.jsonl)",
    )

    trace = sub.add_parser(
        "trace", help="render a distributed trace tree from saved telemetry"
    )
    trace.add_argument(
        "path", type=Path,
        help="telemetry directory (or trace.jsonl file) written by "
             "--telemetry",
    )
    trace.add_argument(
        "--chrome", type=Path, default=None, metavar="OUT.json",
        help="also export Chrome trace-event JSON (load in Perfetto or "
             "chrome://tracing)",
    )

    watch = sub.add_parser(
        "watch", help="watch a run's live status (journal file or HTTP)"
    )
    watch.add_argument(
        "path", type=Path, nargs="?", default=None,
        help="event journal (events.jsonl) or the directory holding it",
    )
    watch.add_argument(
        "--url", default=None, metavar="URL",
        help="poll a repro run --status-port service instead of reading "
             "the journal (e.g. http://127.0.0.1:8765)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print one status snapshot and exit",
    )

    worker = sub.add_parser(
        "worker",
        help="drain shard-queue tasks from a run's checkpoint directory",
    )
    worker.add_argument(
        "--checkpoint-dir", type=Path, required=True, metavar="DIR",
        help="the coordinator run's --checkpoint-dir (the task queue "
             "lives under DIR/queue)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="how often to look for new tasks when idle (default 0.2)",
    )
    worker.add_argument(
        "--claim-ttl", type=float, default=30.0, metavar="SECONDS",
        help="lease refresh base: claims are touched every ttl/4 so the "
             "coordinator can tell a crash from slow work (default 30; "
             "match the coordinator's --claim-ttl)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with no tasks (default: wait until "
             "the coordinator's stop sentinel)",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after processing N tasks (chaos/maintenance drills)",
    )

    explain = sub.add_parser(
        "explain",
        help="show the verdict chain for one (host, destination) pair",
    )
    explain.add_argument("source", help="client host (source IP / name)")
    explain.add_argument("destination", help="destination domain")
    explain.add_argument(
        "path", type=Path,
        help="provenance.jsonl, or the --provenance / checkpoint "
             "directory holding it",
    )

    audit = sub.add_parser(
        "audit",
        help="per-stage drop-reason histograms and near-misses for a run",
    )
    audit.add_argument(
        "path", type=Path,
        help="provenance.jsonl, or the --provenance / checkpoint "
             "directory holding it",
    )
    audit.add_argument(
        "--json", action="store_true",
        help="emit the audit report as JSON instead of text",
    )

    diff = sub.add_parser(
        "diff-runs",
        help="verdict-level drift between two provenance stores",
    )
    diff.add_argument("run_a", type=Path, help="baseline provenance store")
    diff.add_argument("run_b", type=Path, help="candidate provenance store")
    diff.add_argument(
        "--json", action="store_true",
        help="emit the diff as JSON instead of text",
    )

    return parser


def _run_instrumented(
    telemetry: Optional[Path], run: Callable[[], PipelineReport]
) -> Tuple[PipelineReport, Optional[Path]]:
    """Run ``run()``, collecting and writing telemetry when requested.

    Returns the report and the telemetry directory (None when telemetry
    was not requested).
    """
    if telemetry is None:
        return run(), None
    _check_telemetry_dir(telemetry)
    registry = MetricsRegistry()
    with scoped_registry(registry):
        report = run()
    write_telemetry(telemetry, registry, funnel=report.funnel)
    return report, telemetry


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = EnterpriseConfig(
            n_hosts=args.hosts,
            n_sites=args.sites,
            duration=args.hours * 3600.0,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    records, truth = EnterpriseSimulator(config).generate()
    count = write_log(records, args.output,
                      compress=args.output.suffix == ".gz")
    print(f"wrote {count} events to {args.output}")
    if args.truth is not None:
        payload = {
            "malicious_destinations": sorted(truth.malicious_destinations),
            "infected_hosts": sorted(truth.infected_hosts),
            "benign_periodic_destinations": sorted(
                truth.benign_periodic_destinations
            ),
        }
        args.truth.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote ground truth to {args.truth}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    try:
        config = DetectorConfig(time_scale=args.time_scale, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if str(args.input) == "-":
        source, text = "stdin", sys.stdin.read()
    else:
        source = str(args.input)
        text = _readable(args.input).read_text(
            encoding="utf-8", errors="replace"
        )
    timestamps = [parse_timestamp(token, source) for token in text.split()]
    result = PeriodicityDetector(config).detect(timestamps)
    print(f"events:   {result.n_events}")
    print(f"duration: {result.duration:.1f} s")
    print(f"periodic: {result.periodic}")
    if not result.periodic:
        print(f"reason:   {result.rejection_reason}")
        return 1
    for candidate in result.candidates:
        print(
            f"  period {candidate.period:10.2f} s   "
            f"ACF {candidate.acf_score:.2f}   "
            f"power {candidate.power:.2f}   origin {candidate.origin}"
        )
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The command's PipelineConfig; a value it rejects is a usage error."""
    provenance = None
    if getattr(args, "provenance", None) is not None:
        from repro.obs import ProvenancePolicy

        try:
            provenance = ProvenancePolicy(
                sample_early_drops=args.provenance_sample
            )
        except ValueError as exc:
            raise _UsageError(f"--provenance-sample: {exc}") from None
    try:
        return PipelineConfig(
            local_whitelist_threshold=args.tau_p,
            ranking_percentile=args.percentile,
            provenance=provenance,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _print_ranking(args: argparse.Namespace, report: PipelineReport) -> None:
    """Write --provenance, then print the funnel and the top ranked cases."""
    if args.provenance is not None:
        from repro.obs import PROVENANCE_FILE, write_provenance

        path = args.provenance / PROVENANCE_FILE
        write_provenance(path, report.provenance)
        print(f"wrote {len(report.provenance)} verdict records to {path}")
    print(report.funnel.as_text())
    print()
    print(f"{'rank':>4s}  {'score':>6s}  {'period':>10s}  {'clients':>7s}  domain")
    for rank, case in enumerate(report.ranked_cases[: args.top], 1):
        period = f"{case.smallest_period:.1f}s" if case.smallest_period else "-"
        print(
            f"{rank:>4d}  {case.rank_score:>6.2f}  {period:>10s}  "
            f"{case.similar_sources:>7d}  {case.destination}"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    import time as _time

    from repro.jobs.checkpoint import CheckpointMismatch
    from repro.jobs.runner import IncompleteRunError, check_sharding
    from repro.mapreduce.engine import MapReduceEngine
    from repro.mapreduce.executors import make_executor
    from repro.obs import JOURNAL_FILE, StatusServer, new_run_id

    config = _pipeline_config(args)
    _readable(args.input)
    _non_negative(args.top, "--top")
    try:
        check_analysis_time_scale(args.analysis_time_scale, config.time_scale)
    except ValueError as exc:
        raise _UsageError(f"--analysis-time-scale: {exc}") from None
    checkpoint_dir = (
        str(args.checkpoint_dir) if args.checkpoint_dir is not None else None
    )
    # The journal lives next to the checkpoints when there are any,
    # falling back to the telemetry directory for checkpoint-less runs.
    journal_home = checkpoint_dir or (
        str(args.telemetry) if args.telemetry is not None else None
    )
    if args.executor == "shard-queue" and checkpoint_dir is None:
        raise _UsageError(
            "--executor shard-queue needs --checkpoint-dir (the task "
            "queue the 'repro worker' fleet drains lives there)"
        )
    if args.status_port is not None and journal_home is None:
        raise _UsageError(
            "--status-port needs --checkpoint-dir or --telemetry (the "
            "event journal lives there)"
        )
    _check_telemetry_dir(args.telemetry)
    # The library's own checks, run before anything starts.
    try:
        check_sharding(
            args.shard_size, checkpoint_dir,
            resume=args.resume, max_shards=args.max_shards,
        )
        executor = None
        if args.executor is not None:
            executor = make_executor(
                args.executor,
                n_workers=args.workers,
                claim_ttl=args.claim_ttl,
            )
        engine = MapReduceEngine(
            n_workers=args.workers,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            retry_backoff=args.retry_backoff,
            quarantine=not args.no_quarantine,
            executor=executor,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    pipeline = BaywatchPipeline(config, engine=engine)
    run_id = args.run_id if args.run_id else new_run_id()

    # The status service needs the *live* registry (for /metrics), so
    # one is owned here rather than delegating to _run_instrumented; a
    # bare --status-port run gets live metrics without writing files.
    registry: Optional[MetricsRegistry] = None
    if args.telemetry is not None or args.status_port is not None:
        registry = MetricsRegistry()

    server: Optional[StatusServer] = None
    if args.status_port is not None:
        server = StatusServer(
            journal_path=Path(journal_home) / JOURNAL_FILE,
            registry=registry,
            port=args.status_port,
        )
        try:
            port = server.start()
        except (OSError, OverflowError) as exc:
            message = f"--status-port {args.status_port}: {exc}"
            raise _UsageError(message) from None
        print(f"status service on http://127.0.0.1:{port} (run {run_id})")

    def go() -> PipelineReport:
        with engine:
            return pipeline.run_chunks(
                read_log_chunks(args.input),
                analysis_time_scale=args.analysis_time_scale,
                shard_size=args.shard_size,
                checkpoint_dir=checkpoint_dir,
                resume=args.resume,
                max_shards=args.max_shards,
                run_id=run_id,
                journal_dir=journal_home,
            )

    telemetry_dir: Optional[Path] = None
    try:
        if registry is not None:
            with scoped_registry(registry):
                report = go()
        else:
            report = go()
        if args.telemetry is not None:
            write_telemetry(args.telemetry, registry, funnel=report.funnel)
            telemetry_dir = args.telemetry
    except IncompleteRunError as exc:
        print(f"run incomplete: {exc}")
        return 3
    except CheckpointMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            if args.status_linger > 0:
                _time.sleep(args.status_linger)
            server.stop()
    _print_ranking(args, report)
    if report.quarantined:
        print()
        print(f"quarantined {len(report.quarantined)} unit(s):")
        for entry in report.quarantined:
            print(f"  {entry.phase}  {entry.key!r}  {entry.error}")
        if checkpoint_dir is not None:
            print(f"quarantine report: {args.checkpoint_dir}/quarantine.jsonl")
    if telemetry_dir is not None:
        print(f"wrote telemetry to {telemetry_dir}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    for domain in args.domains:
        if not has_label(domain):
            raise _UsageError(f"domain {domain!r} has no label")
    scorer = default_scorer()
    for domain, value in scorer.score_many(args.domains):
        marker = "SUSPICIOUS" if scorer.is_suspicious(domain) else ""
        print(f"{value:8.3f}  {domain}  {marker}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_report

    config = _pipeline_config(args)
    _non_negative(args.max_cases, "--max-cases")
    chunks = read_log_chunks(_readable(args.input))
    pipeline_report, telemetry_dir = _run_instrumented(
        args.telemetry, lambda: BaywatchPipeline(config).run_chunks(chunks)
    )
    text = render_report(pipeline_report, max_cases=args.max_cases)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    if telemetry_dir is not None:
        print(f"wrote telemetry to {telemetry_dir}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import PROFILES_FILE, profiles_from_jsonl, render_profiles

    path = args.path
    if path.is_dir():
        path = path / "metrics.jsonl"
    if not path.exists():
        print(f"no telemetry found at {path}", file=sys.stderr)
        return 1
    text = path.read_text(encoding="utf-8")
    try:
        registry, funnel = from_jsonl(text)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"telemetry at {path} is not readable: {exc}", file=sys.stderr)
        return 1
    if registry.is_empty() and not funnel:
        print(f"telemetry at {path} is empty", file=sys.stderr)
        return 1
    print(render_run_report(registry, funnel=funnel or None), end="")
    if args.profile:
        profiles_path = path.parent / PROFILES_FILE
        if not profiles_path.exists():
            print(
                f"no profiles at {profiles_path} (run with REPRO_PROFILE="
                f"cprofile|tracemalloc or span(profile=...))"
            )
        else:
            print()
            print(
                render_profiles(
                    profiles_from_jsonl(
                        profiles_path.read_text(encoding="utf-8")
                    )
                ),
                end="",
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        TRACE_FILE,
        render_trace_tree,
        spans_from_jsonl,
        to_chrome_trace,
    )

    path = args.path
    if path.is_dir():
        path = path / TRACE_FILE
    if not path.exists():
        print(
            f"no trace found at {path} (sharded runs record one when "
            f"--telemetry is on)", file=sys.stderr,
        )
        return 1
    try:
        records = spans_from_jsonl(path.read_text(encoding="utf-8"))
    except (KeyError, TypeError, ValueError) as exc:
        print(
            f"trace at {path} is not readable (corrupt record or newer "
            f"schema): {exc}", file=sys.stderr,
        )
        return 1
    if not records:
        print(f"trace at {path} is empty", file=sys.stderr)
        return 1
    print(render_trace_tree(records), end="")
    if args.chrome is not None:
        args.chrome.write_text(to_chrome_trace(records), encoding="utf-8")
        print(f"wrote Chrome trace to {args.chrome}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time
    import urllib.error
    import urllib.request

    from repro.obs import JOURNAL_FILE, build_status, read_events, render_status

    if args.url is None and args.path is None:
        raise _UsageError(
            "give the journal path (events.jsonl or its directory) or "
            "--url of a --status-port service"
        )
    if not 0 < args.interval < math.inf:
        raise _UsageError(
            f"--interval must be finite and positive, got {args.interval}"
        )

    def snapshot() -> dict:
        if args.url is not None:
            url = args.url.rstrip("/") + "/status"
            with urllib.request.urlopen(url, timeout=10) as response:
                return json.loads(response.read().decode("utf-8"))
        path = args.path
        if path.is_dir():
            path = path / JOURNAL_FILE
        return build_status(read_events(path))

    first = True
    while True:
        try:
            status = snapshot()
        except (OSError, urllib.error.URLError, ValueError) as exc:
            print(f"error: cannot read status: {exc}", file=sys.stderr)
            return 1
        if not first:
            print()
        first = False
        print(render_status(status), end="")
        if args.once or status.get("state") in ("finished", "suspended"):
            return 0
        _time.sleep(args.interval)


def _read_provenance_store(path: Path) -> Optional[list]:
    """Read a provenance store, printing a one-line error on failure."""
    from repro.obs import ProvenanceSchemaError, read_provenance

    try:
        return read_provenance(path)
    except (FileNotFoundError, ProvenanceSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import render_explain

    records = _read_provenance_store(args.path)
    if records is None:
        return 1
    chain = [
        record for record in records
        if record.source == args.source and record.destination == args.destination
    ]
    if not chain:
        print(
            f"no verdict records for ({args.source}, {args.destination}) "
            f"in {args.path} — the pair may have been dropped early and "
            f"not sampled (raise --provenance-sample to keep more early "
            f"drops)", file=sys.stderr,
        )
        return 1
    print(render_explain(chain), end="")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs import audit_report, render_audit

    records = _read_provenance_store(args.path)
    if records is None:
        return 1
    report = audit_report(records)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_audit(report), end="")
    return 0


def _cmd_diff_runs(args: argparse.Namespace) -> int:
    from repro.obs import diff_runs, render_diff

    records_a = _read_provenance_store(args.run_a)
    if records_a is None:
        return 1
    records_b = _read_provenance_store(args.run_b)
    if records_b is None:
        return 1
    diff = diff_runs(records_a, records_b)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
        return 0
    print(render_diff(diff), end="")
    return 1 if diff["changed"] or diff["only_a"] or diff["only_b"] else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.mapreduce.executors.shardqueue import (
        check_poll_interval,
        run_worker,
    )
    from repro.obs.journal import EventJournal

    try:
        check_poll_interval(args.poll_interval)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    queue_dir = args.checkpoint_dir / "queue"
    journal = EventJournal.in_dir(str(args.checkpoint_dir))
    print(f"worker {os.getpid()} draining {queue_dir}")
    journal.append("worker_start")
    try:
        processed = run_worker(
            str(queue_dir),
            poll_interval=args.poll_interval,
            idle_exit=args.idle_exit,
            max_tasks=args.max_tasks,
            claim_ttl=args.claim_ttl,
            journal=journal,
        )
    finally:
        journal.append("worker_exit")
        journal.close()
    print(f"worker {os.getpid()} exiting: {processed} task(s) processed")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "run": _cmd_run,
    "worker": _cmd_worker,
    "score": _cmd_score,
    "report": _cmd_report,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
    "explain": _cmd_explain,
    "audit": _cmd_audit,
    "diff-runs": _cmd_diff_runs,
}

_LOG_LEVELS = {0: logging.WARNING, 1: logging.INFO}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    configure_logging(_LOG_LEVELS.get(args.verbose, logging.DEBUG))
    logger.info("running command %r", args.command)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
