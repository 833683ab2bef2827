"""Combining difficulty indexes into part totals and assembly totals.

A local field reduces to a volume-weighted mean and a max.  An assembly
combines module values index by index: mean-like metrics and globals by
module volume weights, max-like metrics by taking the worst module.  That
is how splitting a hard region into its own module lowers the weighted
totals of everything else while the worst spot stays visible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadWeightsError,
    EmptyInputError,
    LengthMismatchError,
    NonPositiveVolumeError,
    NoSharedIndexesError,
    SchemaMismatchError,
    ZeroTotalVolumeError,
)
from .fields import LocalIndexField

_WEIGHT_TOL = 1e-9


def volume_weighted_mean(index_field: LocalIndexField) -> float:
    """Mean of a local field with each leaf weighted by its part volume."""
    total = float(index_field.volumes.sum())
    if total <= 0.0:
        raise ZeroTotalVolumeError(
            f"field {index_field.index_id!r} has zero total part volume"
        )
    return float((index_field.values * index_field.volumes).sum() / total)


def volume_weights(volumes) -> np.ndarray:
    """Module volumes as fractions of their sum; the last is closed by
    subtraction so the weights add to exactly 1."""
    v = np.asarray(volumes, dtype=np.float64)
    if v.ndim != 1 or len(v) == 0:
        raise EmptyInputError("need at least one volume")
    if (v <= 0).any():
        raise NonPositiveVolumeError("module volumes must be positive")
    total = float(v.sum())
    if total <= 0.0:
        raise ZeroTotalVolumeError("total volume must be positive")
    w = v / total
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


def weighted_total(values, weights) -> float:
    """Weighted combination of one index across modules; weights must sum to 1."""
    c = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if c.shape != w.shape or c.ndim != 1:
        raise LengthMismatchError(f"values {c.shape} and weights {w.shape} do not align")
    if len(c) == 0:
        raise EmptyInputError("need at least one value")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
        raise BadWeightsError(f"weights sum to {float(w.sum())!r}, expected 1")
    return float((c * w).sum())


def max_rule_total(values) -> float:
    """Combine by the worst value (used for max-type metrics and overall totals)."""
    c = np.asarray(list(values), dtype=np.float64)
    if len(c) == 0:
        raise EmptyInputError("need at least one value")
    return float(c.max())


# ---------------------------------------------------------------------------
# Report containers


@dataclass(frozen=True)
class LocalFieldSummary:
    index_id: str
    mean: float
    max: float
    leaf_count: int
    grey_volume: float

    def to_dict(self) -> dict:
        return asdict(self)


def summarize_field(index_field: LocalIndexField) -> LocalFieldSummary:
    return LocalFieldSummary(
        index_id=index_field.index_id,
        mean=volume_weighted_mean(index_field),
        max=index_field.max_value,
        leaf_count=len(index_field),
        grey_volume=float(index_field.volumes.sum()),
    )


def _field_to_dict(f: LocalIndexField) -> dict:
    return {
        "index_id": f.index_id,
        "values": f.values.tolist(),
        "volumes": f.volumes.tolist(),
        "octree_hash": f.octree_hash,
        "path_keys": list(f.path_keys),
    }


def _obj(data: dict, key: str, optional: bool = False) -> dict:
    """``data[key]``, which must be a JSON object; an absent optional key gives ``{}``."""
    value = data.get(key, {}) if optional else data[key]
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def _numbers(data: dict, key: str) -> dict[str, float]:
    """``data[key]``, a JSON object of finite numbers (a NaN grade would reach every total)."""
    out = {k: float(v) for k, v in _obj(data, key).items()}
    if not all(map(math.isfinite, out.values())):
        raise ValueError(f"{key} must hold finite numbers")
    return out


def _field_from_dict(key: str, data: dict) -> LocalIndexField:
    """The saved local field ``key``; one with no leaves or a zero total
    volume, which no analysis writes, has no mean, so it is malformed."""
    if not len(data["values"]):
        raise ValueError(f"local_fields[{key!r}] has no values")
    f = LocalIndexField(
        index_id=data["index_id"],
        values=np.array(data["values"], dtype=np.float64),
        volumes=np.array(data["volumes"], dtype=np.float64),
        octree_hash=data.get("octree_hash", ""),
        path_keys=tuple(data.get("path_keys", ())),
    )
    if not f.volumes.sum() > 0.0:
        raise ValueError(f"local_fields[{key!r}] has zero total volume")
    return f


@dataclass(frozen=True)
class IndexReport:
    """All difficulty grades of one design under one process.

    Local fields are carried in full (per-leaf values and volumes), so two
    reports over the same decomposition can be diffed box by box.
    """

    design_id: str
    process: str
    global_indexes: dict[str, float]
    local_fields: dict[str, LocalIndexField] = field(default_factory=dict)
    mesh_hash: str = ""
    octree_fingerprint: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    part_volume: float = 0.0

    @cached_property
    def local_summaries(self) -> dict[str, LocalFieldSummary]:
        """One summary per local field, computed on first use and kept with the report."""
        return {k: summarize_field(f) for k, f in self.local_fields.items()}

    @property
    def total(self) -> float:
        """Worst single metric: globals, local means, and local maxima."""
        vals = list(self.global_indexes.values())
        for s in self.local_summaries.values():
            vals.append(s.mean)
            vals.append(s.max)
        return max_rule_total(vals)

    def scalar_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, val in sorted(self.global_indexes.items()):
            out[f"{self.process}.{key}"] = float(val)
        for key, s in sorted(self.local_summaries.items()):
            out[f"{self.process}.{key}_mean"] = float(s.mean)
            out[f"{self.process}.{key}_max"] = float(s.max)
        if out:
            out[f"{self.process}.total"] = self.total
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "part",
            "design_id": self.design_id,
            "process": self.process,
            "global_indexes": dict(sorted(self.global_indexes.items())),
            "local_fields": {k: _field_to_dict(f) for k, f in sorted(self.local_fields.items())},
            "local_summaries": {
                k: v.to_dict() for k, v in sorted(self.local_summaries.items())
            },
            "mesh_hash": self.mesh_hash,
            "octree_fingerprint": self.octree_fingerprint,
            "params": self.params,
            "part_volume": self.part_volume,
            "total": self.total if (self.global_indexes or self.local_fields) else None,
            "metrics": self.scalar_metrics(),
        }

    @staticmethod
    def from_dict(data: dict) -> "IndexReport":
        return IndexReport(
            design_id=data["design_id"],
            process=data["process"],
            global_indexes=_numbers(data, "global_indexes"),
            local_fields={
                k: _field_from_dict(k, v)
                for k, v in _obj(data, "local_fields", optional=True).items()
            },
            mesh_hash=data.get("mesh_hash", ""),
            octree_fingerprint=_obj(data, "octree_fingerprint", optional=True),
            params=_obj(data, "params", optional=True),
            part_volume=float(data.get("part_volume", 0.0)),
        )


@dataclass(frozen=True)
class AssemblyReport:
    """Module-by-module grades plus combined totals.

    Totals exist only when every module is graded under the same process;
    a mixed machining/additive split has no meaningful combined difficulty,
    so ``totals`` stays None and a warning records why.
    """

    design_id: str
    module_reports: dict[str, IndexReport]
    weights: dict[str, float]
    totals: dict[str, float] | None
    process: str | None
    warnings: tuple[str, ...] = ()

    @property
    def total(self) -> float | None:
        if not self.totals:
            return None
        return max_rule_total(self.totals.values())

    def scalar_metrics(self) -> dict[str, float]:
        """Assembly totals under the same keys a part report uses, so a
        redesign lines up against its one-piece baseline in a comparison."""
        out: dict[str, float] = {}
        if self.totals is not None:
            for key, val in sorted(self.totals.items()):
                out[f"{self.process}.{key}"] = float(val)
            total = self.total
            if total is not None:
                out[f"{self.process}.total"] = total
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "assembly",
            "design_id": self.design_id,
            "module_reports": {
                k: v.to_dict() for k, v in sorted(self.module_reports.items())
            },
            "weights": dict(sorted(self.weights.items())),
            "totals": None if self.totals is None else dict(sorted(self.totals.items())),
            "process": self.process,
            "warnings": list(self.warnings),
            "total": self.total,
            "metrics": self.scalar_metrics(),
        }

    @staticmethod
    def from_dict(data: dict) -> "AssemblyReport":
        return AssemblyReport(
            design_id=data["design_id"],
            module_reports={
                k: IndexReport.from_dict(v) for k, v in _obj(data, "module_reports").items()
            },
            weights=_numbers(data, "weights"),
            totals=None if data.get("totals") is None else _numbers(data, "totals"),
            process=data.get("process"),
            warnings=tuple(data.get("warnings", ())),
        )


def build_assembly_report(
    design_id: str,
    module_reports: dict[str, IndexReport],
    module_volumes: dict[str, float],
) -> AssemblyReport:
    """Combine per-module reports: volume-weighted sums for globals and
    means, worst module for max metrics."""
    if not module_reports:
        raise EmptyInputError("an assembly needs at least one module")
    if set(module_reports) != set(module_volumes):
        raise LengthMismatchError("module reports and volumes name different modules")
    names = list(module_reports)
    weights_arr = volume_weights([module_volumes[n] for n in names])
    weights = {n: float(w) for n, w in zip(names, weights_arr)}

    processes = {r.process for r in module_reports.values()}
    process = totals = None
    warnings: tuple[str, ...] = ()
    if len(processes) > 1:
        warnings = (
            "modules are graded under different processes; no combined totals can be formed",
        )
    else:
        (process,) = processes
        prefix = f"{process}."
        per_module = {n: module_reports[n].scalar_metrics() for n in names}
        shared = set.intersection(*(set(m) for m in per_module.values()))
        shared.discard(f"{process}.total")
        totals = {}
        for key in sorted(shared):
            vals = [per_module[n][key] for n in names]
            short = key[len(prefix):]
            if short.endswith("_max"):
                totals[short] = max_rule_total(vals)
            else:
                totals[short] = weighted_total(vals, weights_arr)
    return AssemblyReport(
        design_id=design_id,
        module_reports=dict(module_reports),
        weights=weights,
        totals=totals,
        process=process,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Metric-by-metric lineup of two reports, deltas relative to baseline.

    ``field_deltas`` holds per-leaf value differences for local indexes the
    two sides share, present only when both were computed on octrees with
    the same fingerprint.
    """

    baseline_id: str
    candidate_id: str
    rows: tuple[dict, ...]
    notes: tuple[str, ...] = ()
    field_deltas: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "comparison",
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
            "field_deltas": {
                k: [float(v) for v in vs] for k, vs in sorted(self.field_deltas.items())
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "ComparisonReport":
        return ComparisonReport(
            baseline_id=data["baseline_id"],
            candidate_id=data["candidate_id"],
            rows=tuple(dict(r) for r in data["rows"]),
            notes=tuple(data.get("notes", ())),
            field_deltas={
                k: tuple(float(v) for v in vs)
                for k, vs in _obj(data, "field_deltas", optional=True).items()
            },
        )


def _row(metric: str, base: float | None, cand: float | None) -> dict:
    delta = None if base is None or cand is None else cand - base
    if base is None or cand is None or base == 0.0:
        pct = None
    else:
        pct = (cand - base) / abs(base) * 100.0
    return {
        "metric": metric,
        "baseline": base,
        "candidate": cand,
        "delta": delta,
        "delta_pct": pct,
    }


def _shared_field_deltas(baseline, candidate) -> dict[str, tuple[float, ...]]:
    if not isinstance(baseline, IndexReport) or not isinstance(candidate, IndexReport):
        return {}
    fp_a = baseline.octree_fingerprint.get("content_hash")
    fp_b = candidate.octree_fingerprint.get("content_hash")
    if not fp_a or fp_a != fp_b:
        return {}
    out = {}
    for key in sorted(set(baseline.local_fields) & set(candidate.local_fields)):
        a = baseline.local_fields[key]
        b = candidate.local_fields[key]
        if len(a) == len(b):
            out[key] = tuple(float(v) for v in (b.values - a.values))
    return out


def compare_reports(baseline, candidate) -> ComparisonReport:
    """Line up two reports metric by metric with changes against baseline.

    Same-process reports must overlap on at least one metric.  Reports from
    different processes are shown side by side without deltas.  A candidate
    assembly with mixed processes is expanded to one block of rows per
    module, each compared against the baseline on its own process keys.
    When both sides carry local fields over identical octrees, their
    per-leaf deltas ride along in ``field_deltas``.
    """
    for rep in (baseline, candidate):
        if not isinstance(rep, (IndexReport, AssemblyReport)):
            raise SchemaMismatchError(
                f"cannot compare a {type(rep).__name__}; compare reads part and assembly reports"
            )
    notes: tuple[str, ...] = ()
    base_metrics = baseline.scalar_metrics()

    if isinstance(candidate, AssemblyReport) and candidate.totals is None:
        notes = ("candidate assembly mixes processes; each module is compared separately",)
        rows = [
            _row(f"{name}:{key}", base_metrics.get(key), val)
            for name, rep in sorted(candidate.module_reports.items())
            for key, val in rep.scalar_metrics().items()
        ]
    else:
        cand_metrics = candidate.scalar_metrics()
        if not set(base_metrics) & set(cand_metrics):
            if baseline.process == candidate.process:
                raise NoSharedIndexesError("reports grade the same process but share no metrics")
            notes = ("reports grade different processes; values shown side by side",)
        keys = sorted(set(base_metrics) | set(cand_metrics))
        rows = [_row(k, base_metrics.get(k), cand_metrics.get(k)) for k in keys]
    return ComparisonReport(
        baseline_id=baseline.design_id,
        candidate_id=candidate.design_id,
        rows=tuple(rows),
        notes=notes,
        field_deltas=_shared_field_deltas(baseline, candidate),
    )
