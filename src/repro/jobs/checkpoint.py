"""Shard checkpoints for fault-tolerant batch runs.

The paper's Hadoop deployment survives multi-hour batches because every
task's output is durable: a re-submitted job re-runs only the work that
was lost.  :class:`CheckpointStore` gives engine runs
(:func:`repro.jobs.runner.run_on_engine`) the same property — the
expensive detection phase is processed in bounded shards, each
completed shard's output is persisted as one JSONL file (atomically:
written to a temp file, then renamed), and an interrupted
run restarted with ``resume=True`` re-runs only the shards whose files
are missing.

Layout of a checkpoint directory::

    manifest.json          run fingerprint, shard size, shard count
    shard-00007.jsonl      one line per detected case / quarantined unit
    quarantine.jsonl       consolidated quarantine report of the last run
    threshold-cache.json   warm permutation-threshold buckets (optional)

The manifest fingerprint covers the survivor pair list and the pipeline
configuration, so a checkpoint can never be resumed against different
inputs or settings — mismatches raise instead of silently mixing runs.
Shard files without a manifest, and files that do not decode, raise
:class:`CheckpointMismatch` naming the file rather than resuming from
them.  All records are plain JSON (no pickle) so operators can inspect
a checkpoint with standard tools.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.detector import CandidatePeriod, DetectionResult
from repro.core.gmm import GaussianComponent, GaussianMixture
from repro.core.timeseries import ActivitySummary
from repro.jobs.records import DetectionCase
from repro.mapreduce.engine import QuarantinedTask
from repro.obs.provenance import (
    PROVENANCE_FILE,
    VerdictRecord,
    records_from_jsonl,
    records_to_jsonl,
)

MANIFEST_FILE = "manifest.json"
QUARANTINE_FILE = "quarantine.jsonl"
THRESHOLD_CACHE_FILE = "threshold-cache.json"
CHECKPOINT_VERSION = 1


# -- JSON codecs -------------------------------------------------------------


def _finite(value: float) -> Optional[float]:
    """NaN/inf are not valid JSON; encode them as null."""
    return float(value) if math.isfinite(value) else None


def _unfinite(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)


def summary_to_dict(summary: ActivitySummary) -> Dict[str, Any]:
    """JSON-encodable form of an :class:`ActivitySummary`.

    Intervals are packed as base64 little-endian ``f8`` rather than a
    JSON float list: bit-exact by construction (no text round-trip),
    ~2.5x smaller on disk, and much cheaper to parse back — interval
    arrays dominate shard size for chatty pairs.
    """
    intervals = np.asarray(summary.intervals, dtype="<f8")
    return {
        "source": summary.source,
        "destination": summary.destination,
        "time_scale": summary.time_scale,
        "first_timestamp": summary.first_timestamp,
        "intervals_f8": base64.b64encode(intervals.tobytes()).decode("ascii"),
        "urls": list(summary.urls),
    }


def summary_from_dict(payload: Dict[str, Any]) -> ActivitySummary:
    """Inverse of :func:`summary_to_dict`."""
    return ActivitySummary(
        source=payload["source"],
        destination=payload["destination"],
        time_scale=payload["time_scale"],
        first_timestamp=payload["first_timestamp"],
        intervals=np.frombuffer(
            base64.b64decode(payload["intervals_f8"]), dtype="<f8"
        ),
        urls=tuple(payload["urls"]),
    )


def _mixture_to_dict(mixture: Optional[GaussianMixture]) -> Optional[Dict[str, Any]]:
    if mixture is None:
        return None
    return {
        "components": [
            {"mean": c.mean, "variance": c.variance, "weight": c.weight}
            for c in mixture.components
        ],
        "log_likelihood": mixture.log_likelihood,
        "bic": mixture.bic,
        "n_samples": mixture.n_samples,
        "converged": mixture.converged,
    }


def _mixture_from_dict(
    payload: Optional[Dict[str, Any]]
) -> Optional[GaussianMixture]:
    if payload is None:
        return None
    return GaussianMixture(
        components=tuple(
            GaussianComponent(
                mean=c["mean"], variance=c["variance"], weight=c["weight"]
            )
            for c in payload["components"]
        ),
        log_likelihood=payload["log_likelihood"],
        bic=payload["bic"],
        n_samples=payload["n_samples"],
        converged=payload["converged"],
    )


def detection_to_dict(result: DetectionResult) -> Dict[str, Any]:
    """JSON-encodable form of a :class:`DetectionResult`."""
    return {
        "periodic": result.periodic,
        "candidates": [
            {
                "period": c.period,
                "frequency": c.frequency,
                "power": c.power,
                "acf_score": c.acf_score,
                "p_value": c.p_value,
                "origin": c.origin,
                "time_scale": c.time_scale,
            }
            for c in result.candidates
        ],
        "power_threshold": _finite(result.power_threshold),
        "n_events": result.n_events,
        "duration": result.duration,
        "time_scale": result.time_scale,
        "scales": list(result.scales),
        "mixture": _mixture_to_dict(result.mixture),
        "rejection_reason": result.rejection_reason,
        "rejection_code": result.rejection_code,
        "n_candidates_raw": result.n_candidates_raw,
        "n_candidates_pruned": result.n_candidates_pruned,
        "spectral_margin": _finite(result.spectral_margin),
    }


def detection_from_dict(payload: Dict[str, Any]) -> DetectionResult:
    """Inverse of :func:`detection_to_dict`."""
    return DetectionResult(
        periodic=payload["periodic"],
        candidates=tuple(
            CandidatePeriod(**candidate) for candidate in payload["candidates"]
        ),
        power_threshold=_unfinite(payload["power_threshold"]),
        n_events=payload["n_events"],
        duration=payload["duration"],
        time_scale=payload["time_scale"],
        scales=tuple(payload["scales"]),
        mixture=_mixture_from_dict(payload["mixture"]),
        rejection_reason=payload["rejection_reason"],
        # .get() defaults keep checkpoints from before the provenance
        # fields readable.
        rejection_code=payload.get("rejection_code", ""),
        n_candidates_raw=payload.get("n_candidates_raw", 0),
        n_candidates_pruned=payload.get("n_candidates_pruned", 0),
        spectral_margin=_unfinite(payload.get("spectral_margin")),
    )


def case_to_dict(case: DetectionCase) -> Dict[str, Any]:
    """JSON-encodable form of a :class:`DetectionCase`."""
    return {
        "summary": summary_to_dict(case.summary),
        "detection": detection_to_dict(case.detection),
    }


def case_from_dict(payload: Dict[str, Any]) -> DetectionCase:
    """Inverse of :func:`case_to_dict`.

    Other keys are ignored: older checkpoints also carried ranking
    fields (``popularity``, ``similar_sources``, ``lm_score``,
    ``rank_score``) that were never set, and still resume.
    """
    return DetectionCase(
        summary=summary_from_dict(payload["summary"]),
        detection=detection_from_dict(payload["detection"]),
    )


def quarantine_to_dict(entry: QuarantinedTask) -> Dict[str, Any]:
    """JSON-encodable form of a :class:`QuarantinedTask`.

    Keys are usually (source, destination) tuples; tuples round-trip as
    lists and are restored on read.
    """
    key: Any = entry.key
    if isinstance(key, tuple):
        key = list(key)
    elif not isinstance(key, (str, int, float, bool, type(None), list)):
        key = repr(key)
    return {
        "phase": entry.phase,
        "key": key,
        "error": entry.error,
        "attempts": entry.attempts,
    }


def quarantine_from_dict(payload: Dict[str, Any]) -> QuarantinedTask:
    """Inverse of :func:`quarantine_to_dict`."""
    key = payload["key"]
    if isinstance(key, list):
        key = tuple(key)
    return QuarantinedTask(
        phase=payload["phase"],
        key=key,
        error=payload["error"],
        attempts=payload["attempts"],
    )


def run_fingerprint(
    pairs: Iterable[Tuple[str, str]], *, config_repr: str, shard_size: int
) -> str:
    """Stable identity of one batch: its survivor pairs + settings.

    A checkpoint resumed under a different input set, pipeline
    configuration, or shard size would silently produce a frankenstein
    report; the fingerprint makes that a hard error instead.
    """
    digest = hashlib.sha256()
    digest.update(f"v{CHECKPOINT_VERSION};shard_size={shard_size};".encode())
    digest.update(config_repr.encode("utf-8", "replace"))
    for source, destination in pairs:
        digest.update(f"\x00{source}\x01{destination}".encode("utf-8", "replace"))
    return digest.hexdigest()


# -- the store ---------------------------------------------------------------


class CheckpointStore:
    """Durable per-shard outputs of one sharded batch run."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:05d}.jsonl"

    def _provenance_shard_path(self, index: int) -> Path:
        return self.root / f"provenance-{index:05d}.jsonl"

    @property
    def provenance_path(self) -> Path:
        """The merged provenance store the runner writes at run end."""
        return self.root / PROVENANCE_FILE

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_FILE

    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_FILE

    @property
    def threshold_cache_path(self) -> Path:
        """Where the warm threshold-cache buckets persist (see
        :meth:`repro.core.permutation.ThresholdCache.save`)."""
        return self.root / THRESHOLD_CACHE_FILE

    # -- manifest ----------------------------------------------------------

    def manifest(self) -> Optional[Dict[str, Any]]:
        """The stored manifest, or None when the directory is fresh."""
        path = self.manifest_path
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(manifest.get("fingerprint"), str):
                raise ValueError("no fingerprint")
            int(manifest["n_shards"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _damaged(path, exc) from exc
        return manifest

    def begin(
        self,
        fingerprint: str,
        *,
        n_shards: int,
        shard_size: int,
        resume: bool,
    ) -> None:
        """Open the checkpoint for one run.

        ``resume=False`` starts fresh: any previous shards are cleared.
        ``resume=True`` keeps shards whose manifest fingerprint matches
        and raises :class:`CheckpointMismatch` otherwise — resuming
        against different inputs or settings must never mix outputs.
        Shard files without a manifest cannot be checked, so they are
        refused too.
        """
        if resume:
            existing = self.manifest()
            if existing is None and self.completed_shards():
                raise CheckpointMismatch(
                    f"checkpoint at {self.root} holds shard files but no "
                    f"{MANIFEST_FILE}; refusing to resume"
                )
            if existing is not None and existing["fingerprint"] != fingerprint:
                raise CheckpointMismatch(
                    f"checkpoint at {self.root} was written by a different "
                    f"run (inputs, configuration, or shard size changed); "
                    f"refusing to resume"
                )
        else:
            self.clear()
        manifest = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "n_shards": n_shards,
            "shard_size": shard_size,
        }
        self._write_atomic(self.manifest_path, json.dumps(manifest, indent=2))

    # -- shards ------------------------------------------------------------

    def has_shard(self, index: int) -> bool:
        """True when shard ``index`` completed in a previous run.

        Only fully written shards count: interrupted writes live in
        ``*.tmp`` files that the atomic rename never promoted.
        """
        return self._shard_path(index).exists()

    def completed_shards(self) -> List[int]:
        """Indices of all completed shards, ascending."""
        out = []
        for path in sorted(self.root.glob("shard-*.jsonl")):
            try:
                out.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return out

    def progress(self) -> Dict[str, Any]:
        """Ground-truth run progress from the durable files alone.

        The event journal is the live view of a run; this is the
        durable one — derived purely from the manifest and the shard
        files on disk, so it is what ``/status`` consumers cross-check
        the journal's shard counts against (the two agree exactly for
        any run that was not killed mid-shard-write, and the atomic
        shard rename guarantees no partial shard ever counts).
        """
        manifest = self.manifest()
        completed = self.completed_shards()
        total = int(manifest["n_shards"]) if manifest else 0
        return {
            "n_shards": total,
            "completed": completed,
            "done": len(completed),
            "remaining": max(0, total - len(completed)),
            "fingerprint": manifest.get("fingerprint") if manifest else None,
        }

    def write_shard(
        self,
        index: int,
        cases: Sequence[DetectionCase],
        quarantined: Sequence[QuarantinedTask] = (),
    ) -> Path:
        """Persist one completed shard (atomic: tmp file + rename)."""
        lines = [
            json.dumps({"type": "case", **case_to_dict(case)})
            for case in cases
        ]
        lines.extend(
            json.dumps({"type": "quarantine", **quarantine_to_dict(entry)})
            for entry in quarantined
        )
        path = self._shard_path(index)
        self._write_atomic(path, "\n".join(lines) + "\n" if lines else "")
        return path

    def read_shard(
        self, index: int
    ) -> Tuple[List[DetectionCase], List[QuarantinedTask]]:
        """Load one completed shard's cases and quarantine entries."""
        path = self._shard_path(index)
        cases: List[DetectionCase] = []
        quarantined: List[QuarantinedTask] = []
        try:
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                payload = json.loads(line)
                kind = payload.pop("type")
                if kind == "case":
                    cases.append(case_from_dict(payload))
                elif kind == "quarantine":
                    quarantined.append(quarantine_from_dict(payload))
                else:
                    raise ValueError(f"unknown record type {kind!r}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _damaged(path, exc) from exc
        return cases, quarantined

    # -- provenance --------------------------------------------------------

    def write_provenance_shard(
        self, index: int, records: Sequence[VerdictRecord]
    ) -> Path:
        """Persist one shard's verdict records (atomic: tmp + rename).

        Written *before* :meth:`write_shard` — the shard file is the
        commit point, so a completed shard always has its provenance on
        disk and a resumed run never recomputes (or duplicates) verdict
        records.
        """
        path = self._provenance_shard_path(index)
        self._write_atomic(path, records_to_jsonl(records))
        return path

    def has_provenance_shard(self, index: int) -> bool:
        """True when shard ``index`` has its provenance sidecar on disk."""
        return self._provenance_shard_path(index).exists()

    def read_provenance_shard(self, index: int) -> List[VerdictRecord]:
        """Load one shard's verdict records ([] when the file is absent)."""
        path = self._provenance_shard_path(index)
        if not path.exists():
            return []
        try:
            return records_from_jsonl(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise _damaged(path, exc) from exc

    # -- quarantine report -------------------------------------------------

    def write_quarantine(self, entries: Sequence[QuarantinedTask]) -> Path:
        """Write the consolidated quarantine report of a finished run."""
        lines = [
            json.dumps(quarantine_to_dict(entry)) for entry in entries
        ]
        self._write_atomic(
            self.quarantine_path, "\n".join(lines) + "\n" if lines else ""
        )
        return self.quarantine_path

    def read_quarantine(self) -> List[QuarantinedTask]:
        """Load the consolidated quarantine report (empty when absent)."""
        path = self.quarantine_path
        if not path.exists():
            return []
        try:
            return [
                quarantine_from_dict(json.loads(line))
                for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise _damaged(path, exc) from exc

    # -- housekeeping ------------------------------------------------------

    def clear(self) -> None:
        """Remove every shard, the manifest, and the quarantine report."""
        for path in self.root.glob("shard-*.jsonl"):
            path.unlink()
        for path in self.root.glob("provenance-*.jsonl"):
            path.unlink()
        for path in self.root.glob("*.tmp"):
            path.unlink()
        for path in (
            self.manifest_path,
            self.quarantine_path,
            self.threshold_cache_path,
            self.provenance_path,
        ):
            if path.exists():
                path.unlink()

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """A SIGKILL mid-write must never leave a half shard behind."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


class CheckpointMismatch(ValueError):
    """Resume attempted against a checkpoint from a different run.

    Also raised for a checkpoint that cannot be trusted: shard files
    without a manifest, or a file whose content does not decode.
    """


def _damaged(path: Path, exc: Exception) -> CheckpointMismatch:
    """The error for a checkpoint file whose content does not decode."""
    problem = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return CheckpointMismatch(
        f"checkpoint file {path} is damaged ({problem}); refusing to resume"
    )
