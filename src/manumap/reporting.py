"""Serialized outputs: difficulty maps, report files, comparisons.

Everything written here is byte-deterministic for a given input (stable key
order, repr floats, RFC 4180 line endings) and lands on disk atomically, so
reruns can be diffed and interrupted runs never leave half-written files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import AssemblyReport, ComparisonReport, IndexReport
from .errors import FieldMismatchError, ParameterError, ReportIOError, SchemaMismatchError
from .fields import LocalIndexField
from .mesh_io import TriMesh
from .spatial import _GREY, _WHITE, Octree

SCHEMA_VERSION = 1

#: Color ramp anchors, low difficulty (cool blue) to high (hot red).
_RAMP = np.array(
    [
        (40.0, 70.0, 190.0),
        (100.0, 160.0, 220.0),
        (180.0, 200.0, 160.0),
        (230.0, 150.0, 80.0),
        (250.0, 40.0, 40.0),
    ]
)


@dataclass(frozen=True)
class ColorScale:
    """Maps difficulty values in [lo, hi] onto the blue-to-red ramp."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ParameterError(f"need finite lo < hi, got [{self.lo!r}, {self.hi!r}]")

    @staticmethod
    def auto(values) -> "ColorScale":
        """Scale spanning the observed values; a flat field maps to the low end."""
        v = np.asarray(values, dtype=np.float64)
        lo = float(v.min())
        hi = float(v.max())
        if hi - lo < 1e-12:
            hi = lo + 1.0
        return ColorScale(lo, hi)

    def rgb(self, values) -> np.ndarray:
        """uint8 (N, 3) colors, piecewise-linear between the ramp anchors."""
        v = np.asarray(values, dtype=np.float64)
        t = np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        s = t * (len(_RAMP) - 1)
        i = np.minimum(s.astype(np.int64), len(_RAMP) - 2)
        frac = (s - i)[:, None]
        cols = _RAMP[i] * (1.0 - frac) + _RAMP[i + 1] * frac
        return np.clip(np.rint(cols), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Atomic text output


def _atomic_write_chunks(path, chunks: Iterable[str]) -> Path:
    """Write the text pieces to ``path`` via a temporary file, replaced in at the end.

    Nothing is left behind when writing fails, whether the file system or
    the code producing ``chunks`` raises.
    """
    out = Path(path)
    tmp = out.with_name(out.name + ".tmp")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, out)
    except BaseException as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise ReportIOError(f"cannot write {out}: {exc}") from exc
        raise
    return out


#: Rows formatted and joined per write, so no section is held in memory whole.
_CHUNK_ROWS = 4096


def _rows(fmt: str, *tables) -> Iterator[str]:
    """``fmt`` filled from each row of the side-by-side 2-D ``tables``, in joined chunks."""
    for s in range(0, len(tables[0]), _CHUNK_ROWS):
        cols = [col for t in tables for col in t[s : s + _CHUNK_ROWS].T.tolist()]
        yield "".join(map(fmt.format, *cols))


# ---------------------------------------------------------------------------
# Difficulty maps


def _check_field(octree: Octree, index_field: LocalIndexField) -> None:
    """Check that the field was computed on the octree's grey leaves."""
    fp = octree.fingerprint()["content_hash"]
    if index_field.octree_hash and index_field.octree_hash != fp:
        raise FieldMismatchError(
            f"field {index_field.index_id!r} was computed on a different octree"
        )
    g = octree.grey_index
    if len(g) != len(index_field):
        raise FieldMismatchError(
            f"field {index_field.index_id!r} has {len(index_field)} values "
            f"for {len(g)} grey leaves"
        )
    if index_field.path_keys and tuple(octree.path_key[g].tolist()) != index_field.path_keys:
        raise FieldMismatchError(
            f"field {index_field.index_id!r} leaf order does not match the octree"
        )


def export_difficulty_map(
    mesh: TriMesh,
    octree: Octree,
    index_field: LocalIndexField,
    path,
    fmt: str | None = None,
    scale: ColorScale | None = None,
) -> Path:
    """Write a colored view of a local field, picking the writer by format.

    "ply" colors the part's surface vertices by the difficulty of the box
    each vertex falls in; "vtk" writes the solid boxes themselves with the
    difficulty attached as cell data.  With fmt omitted the file suffix
    decides.
    """
    out = Path(path)
    kind = (fmt or out.suffix.lstrip(".")).lower()
    if kind == "ply":
        chunks = _ply_chunks(mesh, octree, index_field, scale)
    elif kind == "vtk":
        chunks = _vtk_chunks(octree, index_field, scale)
    else:
        raise ParameterError(f"unsupported difficulty-map format {kind!r} (use ply or vtk)")
    return _atomic_write_chunks(out, chunks)


#: Most (vertex, grey box) distances the PLY nearest-grey fallback holds at once.
_NEAREST_PAIR_BUDGET = 1 << 18


def _ply_chunks(
    mesh: TriMesh, octree: Octree, index_field: LocalIndexField, scale: ColorScale | None
) -> Iterator[str]:
    _check_field(octree, index_field)
    scale = scale or ColorScale.auto(index_field.values)
    g = octree.grey_index

    # each vertex's leaf as a rank among the greys: -1 off them, and through
    # the extra last slot also for vertices outside the root (leaf index -1)
    grey_rank = np.full(len(octree.path_key) + 1, -1)
    grey_rank[g] = np.arange(len(g))
    rank = grey_rank[octree.find_leaves(mesh.vertices)]
    values = index_field.values[rank]
    misses = np.flatnonzero(rank < 0)
    if len(misses):
        # surface vertices can sit exactly on box faces and descend into a
        # white/black neighbor; grade those by the nearest grey box instead
        grey_centers = 0.5 * (octree.box_min[g] + octree.box_max[g])
        step = max(1, _NEAREST_PAIR_BUDGET // len(g))
        for s in range(0, len(misses), step):
            rows = misses[s : s + step]
            pts = mesh.vertices[rows]
            d2 = ((pts[:, None, :] - grey_centers[None, :, :]) ** 2).sum(axis=2)
            values[rows] = index_field.values[np.argmin(d2, axis=1)]

    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"comment difficulty map {index_field.index_id}\n"
        f"comment scale {scale.lo!r} {scale.hi!r}\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    return itertools.chain(
        [header],
        _rows("{:.9g} {:.9g} {:.9g} {} {} {}\n", mesh.vertices, scale.rgb(values)),
        _rows("3 {} {} {}\n", mesh.triangles),
    )


# VTK point order for a hexahedron cell: bottom face counterclockwise from
# (x-, y-, z-), then the top face in the same order.
_HEX_CORNERS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))

#: One cell's 8 point lines, filled from (x_lo, x_hi, y_lo, y_hi, z_lo, z_hi).
_HEX_POINTS = "".join(f"{{{cx}}} {{{2 + cy}}} {{{4 + cz}}}\n" for cx, cy, cz in _HEX_CORNERS)


def _vtk_chunks(
    octree: Octree, index_field: LocalIndexField, scale: ColorScale | None
) -> Iterator[str]:
    _check_field(octree, index_field)
    scale = scale or ColorScale.auto(index_field.values)
    cells = np.flatnonzero(octree.class_code != _WHITE)
    n_cells = len(cells)
    # a tree has few distinct box coordinates: format each once, keyed by
    # its bits so that -0.0 and 0.0 keep their own spellings
    bounds = np.stack([octree.box_min[cells], octree.box_max[cells]], axis=1)  # (C, 2, 3)
    bits, which = np.unique(bounds.view(np.int64), return_inverse=True)
    words = np.array([f"{v:.9g}" for v in bits.view(np.float64).tolist()], dtype=object)
    ends = words[which.reshape(n_cells, 2, 3).transpose(0, 2, 1).reshape(n_cells, 6)]

    # black boxes grade easiest; greys take the field in Morton order
    grey = octree.class_code[cells] == _GREY
    values = np.full(n_cells, float(scale.lo))
    values[grey] = index_field.values

    header = (
        "# vtk DataFile Version 3.0\n"
        f"difficulty map {index_field.index_id}\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        f"POINTS {8 * n_cells} float\n"
    )
    return itertools.chain(
        [header],
        _rows(_HEX_POINTS, ends),
        [f"CELLS {n_cells} {9 * n_cells}\n"],
        _rows("8" + " {}" * 8 + "\n", np.arange(8 * n_cells).reshape(n_cells, 8)),
        [f"CELL_TYPES {n_cells}\n"],
        ("12\n" * min(_CHUNK_ROWS, n_cells - s) for s in range(0, n_cells, _CHUNK_ROWS)),
        [f"CELL_DATA {n_cells}\n", "SCALARS difficulty float 1\n", "LOOKUP_TABLE default\n"],
        _rows("{:.9g}\n", values[:, None]),
    )


# ---------------------------------------------------------------------------
# Report files


def _report_json(report) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "report": report.to_dict()}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    if isinstance(report, ComparisonReport):
        writer.writerow(["metric", "baseline", "candidate", "delta", "delta_pct"])
        for row in report.rows:
            writer.writerow(
                [
                    row["metric"],
                    _csv_cell(row["baseline"]),
                    _csv_cell(row["candidate"]),
                    _csv_cell(row.get("delta")),
                    _csv_cell(row["delta_pct"]),
                ]
            )
    else:
        writer.writerow(["metric", "value"])
        for key, val in report.scalar_metrics().items():
            writer.writerow([key, _csv_cell(val)])
        if isinstance(report, AssemblyReport):
            for name, rep in sorted(report.module_reports.items()):
                writer.writerow([f"{name}:weight", _csv_cell(report.weights[name])])
                for key, val in rep.scalar_metrics().items():
                    writer.writerow([f"{name}:{key}", _csv_cell(val)])
    return buf.getvalue()


def emit_report(report, path, fmt: str | None = None) -> Path:
    """Write a report as JSON (round-trippable) or CSV (flat metrics)."""
    out = Path(path)
    kind = (fmt or out.suffix.lstrip(".")).lower()
    if kind == "json":
        return _atomic_write_chunks(out, [_report_json(report)])
    if kind == "csv":
        return _atomic_write_chunks(out, [_report_csv(report)])
    raise ParameterError(f"unsupported report format {kind!r} (use json or csv)")


_KINDS = {
    "part": IndexReport.from_dict,
    "assembly": AssemblyReport.from_dict,
    "comparison": ComparisonReport.from_dict,
}


def load_report(path):
    """Read back a JSON report, refusing files from other schema versions."""
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ReportIOError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{p} is not a JSON report: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise SchemaMismatchError(f"{p} has no schema_version field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{p} uses schema version {doc['schema_version']!r}, "
            f"this build reads version {SCHEMA_VERSION}"
        )
    body = doc.get("report")
    if not isinstance(body, dict) or body.get("kind") not in _KINDS:
        raise SchemaMismatchError(f"{p} has an unrecognized report body")
    try:
        return _KINDS[body["kind"]](body)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"{p} is malformed: {exc}") from exc
