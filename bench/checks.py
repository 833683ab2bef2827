"""Output checks for one benchmark job.

A job passes when every report it wrote loads back, every global index and
field value lies in [0, 1], and its leaf counts and output-file digests
equal those of the run's first job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from manumap.aggregation import AssemblyReport, IndexReport
from manumap.errors import ReportIOError, SchemaMismatchError
from manumap.reporting import load_report


class CheckFailed(Exception):
    """A job's outputs are wrong."""


@dataclass(frozen=True)
class JobOutput:
    files: dict[str, str]  # file name -> SHA-256
    leaf_counts: dict[str, int]  # part report file name -> octree leaf count

    @property
    def digest(self) -> str:
        """One SHA-256 over the sorted (name, SHA-256) pairs of every output file."""
        return hashlib.sha256(json.dumps(sorted(self.files.items())).encode()).hexdigest()

    @property
    def leaves(self) -> int:
        return sum(self.leaf_counts.values())


def _check_unit_range(what: str, values) -> None:
    for v in values:
        if not 0.0 <= float(v) <= 1.0:  # also false for NaN
            raise CheckFailed(f"{what} value {v!r} outside [0, 1]")


def _check_part(name: str, report: IndexReport) -> None:
    _check_unit_range(f"{name}: global index", report.global_indexes.values())
    for field_id, f in report.local_fields.items():
        _check_unit_range(f"{name}: field {field_id}", f.values)


def inspect_outputs(out_dir: Path) -> JobOutput:
    """Hash every file under ``out_dir`` and check every JSON report in it."""
    files: dict[str, str] = {}
    leaf_counts: dict[str, int] = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix != ".json":
            continue
        try:
            report = load_report(path)
        except (SchemaMismatchError, ReportIOError) as exc:
            raise CheckFailed(f"{path.name} does not load back: {exc}") from exc
        if isinstance(report, IndexReport):
            _check_part(path.name, report)
            count = report.octree_fingerprint.get("leaf_count")
            if not isinstance(count, int) or count < 1:
                raise CheckFailed(f"{path.name}: bad octree leaf count {count!r}")
            leaf_counts[path.name] = count
        elif isinstance(report, AssemblyReport):
            for module, rep in report.module_reports.items():
                _check_part(f"{path.name}:{module}", rep)
            _check_unit_range(f"{path.name}: totals", (report.totals or {}).values())
    if not leaf_counts:
        raise CheckFailed(f"no part report under {out_dir}")
    return JobOutput(files, leaf_counts)


def check_same(first: JobOutput, job: JobOutput) -> None:
    """A later job of a run must repeat the first job's outputs exactly."""
    if job.leaf_counts != first.leaf_counts:
        raise CheckFailed(f"leaf counts {job.leaf_counts} differ from {first.leaf_counts}")
    if job.files != first.files:
        changed = sorted(set(job.files.items()) ^ set(first.files.items()))
        raise CheckFailed(f"output digests differ: {sorted({n for n, _ in changed})}")
