"""Serialized outputs: difficulty maps, report files, comparisons.

Everything written here is byte-deterministic for a given input (stable key
order, repr floats, RFC 4180 line endings) and lands on disk atomically, so
reruns can be diffed and interrupted runs never leave half-written files.
Outputs hold few distinct numbers among many, so the writers spell each
distinct float once (:func:`_spell`) and gather the spellings: report JSON
keeps the bytes of the stdlib encoder, and maps keep their ``%.9g`` text.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import AssemblyReport, ComparisonReport, IndexReport
from .errors import FieldMismatchError, MeshMismatchError, ParameterError, ReportIOError, SchemaMismatchError
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


#: Rows formatted and joined per write, so no section is held in memory whole;
#: only each octree's VTK geometry is kept, formatted, in :data:`_VTK_GEOMETRY`.
_CHUNK_ROWS = 4096


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct float64 values of ``values``, told apart by their bits, and
    in the shape of ``values`` each element's index among them."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits, which = np.unique(v.view(np.int64), return_inverse=True)
    return bits.view(np.float64), which.reshape(v.shape)


def _spell(fmt: str, values) -> tuple[np.ndarray, np.ndarray]:
    """``fmt % v`` for each float64 ``v`` of ``values``, formatted once per distinct value.

    Returns the object array of distinct spellings and, in the shape of
    ``values``, each element's index into it, so ``words[which]`` spells
    ``values``.  Values are told apart by their bits (:func:`_distinct`):
    -0.0 and 0.0 keep their own spellings, and so does every NaN payload.
    """
    distinct, which = _distinct(values)
    return np.array([fmt % x for x in distinct.tolist()], dtype=object), which


def _rows(fmt: str, table) -> Iterator[str]:
    """``%``-style ``fmt`` filled from each row of the 2-D ``table``.

    Each chunk of rows is one ``%`` operation on ``fmt`` repeated once per
    row.  The map writers pass floats already spelled by :func:`_spell`, to
    ``%s`` fields.
    """
    for s in range(0, len(table), _CHUNK_ROWS):
        rows = table[s : s + _CHUNK_ROWS]
        yield (fmt * len(rows)) % tuple(rows.ravel().tolist())


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


def _ply_chunks(
    mesh: TriMesh, octree: Octree, index_field: LocalIndexField, scale: ColorScale | None
) -> Iterator[str]:
    _check_field(octree, index_field)
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    scale = scale or ColorScale.auto(index_field.values)

    # each vertex takes its leaf's value: a grey leaf's field value, the low
    # end elsewhere (as black boxes in the VTK map), and so off the root too
    values = np.full(len(octree.path_key), float(scale.lo))
    values[octree.grey_index] = index_field.values
    leaf = octree.find_leaves(mesh.vertices)
    shades, shade = _distinct(np.where(leaf >= 0, values[leaf], scale.lo))
    colors = np.array(["%d %d %d" % tuple(c) for c in scale.rgb(shades).tolist()], dtype=object)

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
    words, which = _spell("%.9g", mesh.vertices)
    return itertools.chain(
        [header],
        _rows("%s %s %s %s\n", np.column_stack([words[which], colors[shade]])),
        _rows("3 %d %d %d\n", mesh.triangles),
    )


# VTK point order for a hexahedron cell: bottom face counterclockwise from
# (x-, y-, z-), then the top face in the same order.
_HEX_CORNERS = np.array(
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
)


#: Each octree's VTK geometry, from :func:`_vtk_geometry`, shared by every map of
#: that octree.  The keys are weak, so an entry dies with its octree, and the
#: octree's arrays are read-only, so the text cannot go stale.
_VTK_GEOMETRY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _vtk_geometry(octree: Octree) -> tuple[np.ndarray, tuple[str, ...]]:
    """The grey mask of the non-white boxes, and the text from ``POINTS`` through
    the ``CELL_TYPES`` rows, in write-sized chunks.

    Each distinct box coordinate is spelled once, and the distinct spellings
    are ranked; each corner is keyed by the ranks of its three spellings, so
    boxes sharing a corner share one point line, listed in key order.
    """
    cells = np.flatnonzero(octree.class_code != _WHITE)
    n_cells = len(cells)
    words, which = _spell("%.9g", np.stack([octree.box_min[cells], octree.box_max[cells]], axis=1))
    words, rank = np.unique(words, return_inverse=True)
    end_rank = rank[which]  # (C, 2, 3)
    del which
    k = len(words)
    key = end_rank[:, _HEX_CORNERS[:, 0], 0]  # (C, 8)
    for a in (1, 2):
        key *= k
        key += end_rank[:, _HEX_CORNERS[:, a], a]
    del end_rank
    keys, corner_point = np.unique(key.ravel(), return_inverse=True)
    del key
    points = words[np.stack([keys // (k * k), keys // k % k, keys % k], axis=1)]
    text = (
        f"POINTS {len(points)} float\n",
        *_rows("%s %s %s\n", points),
        f"CELLS {n_cells} {9 * n_cells}\n",
        *_rows("8" + " %d" * 8 + "\n", corner_point.reshape(n_cells, 8)),
        f"CELL_TYPES {n_cells}\n",
        *("12\n" * min(_CHUNK_ROWS, n_cells - s) for s in range(0, n_cells, _CHUNK_ROWS)),
    )
    return octree.class_code[cells] == _GREY, text


def _vtk_chunks(
    octree: Octree, index_field: LocalIndexField, scale: ColorScale | None
) -> Iterator[str]:
    _check_field(octree, index_field)
    scale = scale or ColorScale.auto(index_field.values)
    geometry = _VTK_GEOMETRY.get(octree)
    if geometry is None:
        geometry = _VTK_GEOMETRY[octree] = _vtk_geometry(octree)
    grey, text = geometry

    # black boxes grade easiest; greys take the field in Morton order
    n_cells = len(grey)
    values = np.full(n_cells, float(scale.lo))
    values[grey] = index_field.values
    words, which = _spell("%.9g", values)

    header = (
        "# vtk DataFile Version 3.0\n"
        f"difficulty map {index_field.index_id}\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
    )
    return itertools.chain(
        [header],
        text,
        [f"CELL_DATA {n_cells}\n", "SCALARS difficulty float 1\n", "LOOKUP_TABLE default\n"],
        _rows("%s\n", words[which][:, None]),
    )


# ---------------------------------------------------------------------------
# Report files


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_parts(obj, out: list[str]) -> None:
    """Append to ``out`` the text ``_encode(obj)`` gives.

    Dicts with ``str`` keys are walked here, and lists of finite floats are
    spelled with ``repr``, as the encoder writes them, one spelling per
    distinct value; everything else goes to the encoder itself.
    """
    if type(obj) is dict and all(type(k) is str for k in obj):
        sep = "{"
        for key in sorted(obj):
            out.append(sep + _encode(key) + ":")
            _json_parts(obj[key], out)
            sep = ","
        out.append("}" if obj else "{}")
        return
    if type(obj) is list and set(map(type, obj)) == {float}:
        values = np.array(obj, dtype=np.float64)
        if np.isfinite(values).all():
            words, which = _spell("%r", values)
            out.append("[" + ",".join(words[which].tolist()) + "]")
            return
    out.append(_encode(obj))


def _report_json(report) -> str:
    """The report as compact JSON with sorted keys, the bytes of
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, and a newline."""
    out: list[str] = []
    _json_parts({"schema_version": SCHEMA_VERSION, "report": report.to_dict()}, out)
    out.append("\n")
    return "".join(out)


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
