"""Run one benchmark workload end to end and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload daily|monthly|backfill|all \\
        [--seed N] [--seconds S] [--trace 0|1]

For each workload this

1. generates the seeded inputs in a separate process, unless they are
   already cached under ``.perfbench-cache/inputs`` (keyed by workload,
   seed and a digest of the generator and program sources);
2. measures in a fresh process (``perfbench/measure.py``) that only
   loads the inputs, sets up and runs batches for ``--seconds``;
3. with ``--trace 0``, times two more set-ups in fresh processes and
   reports the median of the three as ``setup_s``;
4. prints the metrics with their units, the host fingerprint, what is
   deliberately not measured, and -- as the last line -- one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` reports the per-layer metrics of traced batches instead of
the end-to-end ones, with the unattributed remainder flagged above 5%.
The full record of every run is kept under ``.perfbench-cache/results``.
Exits 2 without a result when the program's sources are not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"
sys.path.insert(0, str(ROOT))

from perfbench.layers import TIME_METRICS  # noqa: E402

UNMEASURED = (
    "multi-core executors (threads, processes, shard queue): the "
    "reference host has 2 cores, too few to show scaling",
    "the incremental sliding-DFT engine: still covered by "
    "'repro bench --suite incremental'",
    "checkpoint and provenance writes: about 130 KB per daily batch, "
    "within run-to-run noise of the daily time",
)

SETUP_SAMPLES = 3
KEPT_INPUT_SETS = 2
UNATTRIBUTED_LIMIT = 0.05
RUN_BUDGET_S = 170.0


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, each with a ``why`` naming the
    public entry point it drives, and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_digest() -> str:
    """Digest of the generator and program sources, for the input cache."""
    digest = hashlib.sha256()
    files = [ROOT / "perfbench" / "workloads.py"]
    files += sorted((SRC / "repro").rglob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _python(args: List[str], timeout: float) -> str:
    """Run ``python3 -m ...`` in the checkout; its stdout, or raise."""
    done = subprocess.run(
        [sys.executable, "-m", *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        check=True,
    )
    return done.stdout


def _inputs(workload: str, seed: int, deadline: float) -> Path:
    """The cached input set, generated first when missing."""
    home = CACHE / "inputs"
    target = home / f"{workload}-seed{seed}-{_source_digest()}"
    if not target.is_dir():
        _python(["perfbench.workloads", "--workload", workload,
                 "--seed", str(seed), "--out", str(target)],
                deadline - time.monotonic())
        stale = sorted(home.glob(f"{workload}-seed*"),
                       key=lambda path: path.stat().st_mtime, reverse=True)
        for path in stale[KEPT_INPUT_SETS:]:
            shutil.rmtree(path, ignore_errors=True)
    return target


def _last_json(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


def _fingerprint(versions: Dict[str, str]) -> Dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout ("unknown" when it is not a git repository)."""
    # An explicit --git-dir keeps git from using a repository that merely
    # encloses the checkout.
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload: str, why: str, seed: int, seconds: float,
                 trace: bool, units: Dict[str, str]
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload; returns ``(contract result, full record)``.

    ``units`` maps each metric to report to its unit.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = _inputs(workload, seed, deadline)
    work = CACHE / "work" / f"{workload}-{os.getpid()}"
    try:
        raw = _last_json(_python(
            ["perfbench.measure", "--workload", workload,
             "--inputs", str(inputs), "--work", str(work),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            deadline - time.monotonic()))
        setups = [raw["setup_s"]]
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_last_json(_python(
                    ["perfbench.measure", "--workload", workload,
                     "--inputs", str(inputs), "--work", str(work),
                     "--setup-only"],
                    deadline - time.monotonic()))["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        # Zeros stand in only when no traced batch finished, and the run
        # is then reported as not correct.
        metrics = dict(raw.get("layers") or dict.fromkeys(units, 0.0))
        metrics["false_reports"] = raw["false_reports"]
        metrics["fail_rate"] = raw["failed"] / raw["attempted"]
    else:
        # Throughput over the whole run, not a median of batches: on a
        # shared VM the CPU's speed drifts in phases of tens of seconds,
        # and a median jumps to whichever phase held most batches, where
        # the total averages over them.
        timed = sum(raw["batch_seconds"])
        metrics = {
            "pairs_per_s": sum(raw["batch_pairs"]) / timed if timed else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "beacon_recall": raw["beacon_recall"],
        }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": _fingerprint(raw.get("versions", {})),
        "unmeasured": list(UNMEASURED),
        "setup_samples": setups,
        "result": result,
        "raw": raw,
    }
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return result, record


def render(record: Dict[str, Any]) -> str:
    """The human-readable block printed before the JSON line."""
    result, raw, host = record["result"], record["raw"], record["host"]
    lines = [
        f"== {record['workload']}  seed {record['seed']}  "
        f"{record['seconds']:g} s  trace {int(record['trace'])}",
        f"why: {record['why']}",
        f"host: {host['nproc']} CPUs, {host['cpu_model']}, "
        f"Python {host['python']}, numpy {host.get('numpy', '?')}, "
        f"scipy {host.get('scipy', '?')}, commit {host['commit'][:12]}",
        f"batches: {result['attempted']} attempted, {result['failed']} "
        f"failed; correct: {'yes' if result['correct'] else 'NO'}",
    ]
    lines += [f"  problem: {problem}" for problem in raw["problems"]]
    metrics = result["metrics"]
    if record["trace"]:
        wall = sum(metrics[name]["value"] for name in TIME_METRICS)
        wall += metrics["unattributed_s"]["value"]
        lines.append(f"  {'layer self time':34s} {'seconds':>10s} {'share':>7s}")
        for name in sorted(TIME_METRICS, key=lambda n: -metrics[n]["value"]):
            value = metrics[name]["value"]
            share = value / wall if wall > 0 else 0.0
            lines.append(f"  {name:34s} {value:10.4f} {share:7.1%}")
        frac = metrics["unattributed_frac"]["value"]
        flag = "  <-- above 5%" if frac > UNATTRIBUTED_LIMIT else ""
        lines.append(f"  {'unattributed':34s} "
                     f"{metrics['unattributed_s']['value']:10.4f} "
                     f"{frac:7.1%}{flag}")
        for name, metric in metrics.items():
            if name not in TIME_METRICS and not name.startswith("unattributed"):
                lines.append(f"  {name:34s} {metric['value']:14.4f} "
                             f"{metric['unit']}")
        if raw.get("missing_trace_targets"):
            lines.append("  not traced (gone from the program): "
                         + ", ".join(raw["missing_trace_targets"]))
    else:
        for name, metric in metrics.items():
            lines.append(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
        lines.append(f"  (also) false_reports {raw['false_reports']:g}, "
                     f"fail_rate {result['failed'] / result['attempted']:g}, "
                     f"batch seconds "
                     + " ".join(f"{s:.2f}" for s in raw["batch_seconds"]))
    lines.append("unmeasured: " + "; ".join(record["unmeasured"]))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    whys = {workload["name"]: workload["why"] for workload in spec["workloads"]}
    parser = argparse.ArgumentParser(
        description="End-to-end BAYWATCH benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", default="all",
                        choices=tuple(whys) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    names = tuple(whys) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, whys[name], args.seed,
                                          args.seconds, bool(args.trace),
                                          units)
            print(render(record), flush=True)
            results[name] = result
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
