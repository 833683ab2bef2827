"""Serialized outputs: difficulty maps, report files, comparisons.

Everything written here is byte-deterministic for a given input (stable key
order, repr floats, RFC 4180 line endings) and lands on disk atomically, so
reruns can be diffed and interrupted runs never leave half-written files.
Outputs hold few distinct numbers among many, so the writers spell each
distinct float once (:func:`_spell`) and gather the spellings: report JSON
keeps the bytes of the stdlib encoder, and maps keep their ``%.9g`` text.
Map rows are assembled as bytes in numpy from tables of spellings
(:func:`_rows`), the VTK geometry is spelled from the tree's split planes,
and the grey-leaf columns a report shares with the other fields of its
octree, ``volumes`` and ``path_keys``, are spelled once per octree.
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
from .spatial import _GREY, _WHITE, Octree, _split_planes

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
# Atomic output


def _atomic_write_chunks(path, chunks: Iterable[bytes]) -> Path:
    """Write the byte pieces to ``path`` via a temporary file, replaced in at the end.

    Nothing is left behind when writing fails, whether the file system or
    the code producing ``chunks`` raises.
    """
    out = Path(path)
    tmp = out.with_name(out.name + ".tmp")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
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


#: Rows assembled and written per chunk, so no section is held in memory whole;
#: only each octree's VTK geometry is kept, assembled, in :data:`_VTK_GEOMETRY`.
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


def _indexes(n: int) -> np.ndarray:
    """The :func:`_rows` table of the spellings of 0 to n - 1, built by array
    ops: digit column j runs through each digit 10**(width - 1 - j) times
    over, and its first 10**(width - 1 - j) rows, leading zeros, are padding."""
    width = len(str(max(n - 1, 0)))
    table = np.empty((n, width), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(width):
        run = 10 ** (width - 1 - j)
        table[:, j] = np.tile(np.repeat(digits, run), -(-n // (10 * run)))[:n]
        if j < width - 1:
            table[:run, j] = 0
    return table.view(f"S{width}").ravel()


def _spaced(table: np.ndarray) -> np.ndarray:
    """The :func:`_rows` table ``table`` with a space before each spelling."""
    width = table.dtype.itemsize
    out = np.empty((len(table), 1 + width), dtype=np.uint8)
    out[:, 0] = ord(" ")
    out[:, 1:] = table.view(np.uint8).reshape(len(table), width)
    return out.view(f"S{1 + width}").ravel()


def _rows(*columns: tuple[np.ndarray, np.ndarray], lead: bytes = b"") -> Iterator[bytes]:
    """Text rows assembled as bytes, ``_CHUNK_ROWS`` rows to a chunk: ``lead``,
    then the row's spellings separated by spaces, then a newline.

    A column is a pair (table, index): ``table`` holds the column's distinct
    spellings as NUL-padded byte strings of one width (an ``S`` array, as
    ``np.array(words, dtype=bytes)`` or :func:`_indexes` gives), and each
    row of the (N,) or (N, k) ``index`` picks that row's k spellings.  A
    chunk is its fields side by side, gathered with ``take`` into one uint8
    array, which one boolean index compacts: the padding goes, and each row
    is its spellings in order.
    """
    n = len(columns[0][1])
    fields = []  # (table, (N, k) index), the first spelling of a row without a space before it
    for table, index in columns:
        index = index[:, None] if index.ndim == 1 else index
        if not fields:
            fields.append((table, index[:, 0]))
            index = index[:, 1:]
        if index.shape[1]:
            fields.append((_spaced(table), index))
    lead, end = np.frombuffer(lead, dtype=np.uint8), np.frombuffer(b"\n", dtype=np.uint8)
    for s in range(0, n, _CHUNK_ROWS):
        r = min(_CHUNK_ROWS, n - s)
        chunk = np.concatenate(
            [
                np.broadcast_to(lead, (r, len(lead))),
                *(table.take(index[s : s + r]).view(np.uint8).reshape(r, -1) for table, index in fields),
                np.broadcast_to(end, (r, 1)),
            ],
            axis=1,
        )
        yield chunk[chunk != 0].tobytes()


# ---------------------------------------------------------------------------
# Difficulty maps


def _check_field(octree: Octree, index_field: LocalIndexField) -> None:
    """Check that the field was computed on the octree's grey leaves."""
    name, n = index_field.index_id, len(octree.grey_index)
    if index_field.octree_hash and index_field.octree_hash != octree.fingerprint()["content_hash"]:
        raise FieldMismatchError(f"field {name!r} was computed on a different octree")
    if len(index_field) != n:
        raise FieldMismatchError(f"field {name!r} has {len(index_field)} values for {n} grey leaves")
    # the octree's own tuple: for a field of grey_field, the same key objects
    if index_field.path_keys and index_field.path_keys != octree._grey_columns()[1]:
        raise FieldMismatchError(f"field {name!r} leaf order does not match the octree")


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
) -> Iterator[bytes]:
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
    colors = np.array(["%d %d %d" % tuple(c) for c in scale.rgb(shades).tolist()], dtype=bytes)

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
        [header.encode()],
        _rows((np.array(words, dtype=bytes), which), (colors, shade)),
        _rows((_indexes(len(mesh.vertices)), mesh.triangles), lead=b"3 "),
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


def _vtk_geometry(octree: Octree) -> tuple[np.ndarray, tuple[bytes, ...]]:
    """The grey mask of the non-white boxes, and the text from ``POINTS`` through
    the ``CELL_TYPES`` rows, in write-sized chunks.

    Box bounds are the tree's split planes (:func:`spatial._split_planes`),
    so only the planes are spelled, and the distinct spellings ranked; a
    box's bounds are found among the planes, and each corner is keyed by
    the ranks of its three spellings, so boxes sharing a corner share one
    point line, listed in key order.
    """
    cells = np.flatnonzero(octree.class_code != _WHITE)
    n_cells = len(cells)
    planes = _split_planes(octree.box_min[0], octree.box_max[-1], octree.max_depth)
    words, which = _spell("%.9g", planes)
    words, rank = np.unique(words, return_inverse=True)
    plane_rank = rank[which]  # (3, 2**max_depth + 1)
    k = len(words)
    # keys below k**3, in 32 bits where they fit: their np.unique sets the peak
    end_rank = np.empty((n_cells, 2, 3), dtype=np.int32 if k**3 <= np.iinfo(np.int32).max else np.int64)
    for end, bound in enumerate((octree.box_min, octree.box_max)):
        for a in range(3):
            end_rank[:, end, a] = plane_rank[a].take(np.searchsorted(planes[a], bound[cells, a]))
    key = end_rank[:, _HEX_CORNERS[:, 0], 0]  # (C, 8)
    for a in (1, 2):
        key *= k
        key += end_rank[:, _HEX_CORNERS[:, a], a]
    del end_rank
    keys, corner_point = np.unique(key.ravel(), return_inverse=True)
    del key
    points = np.stack([keys // (k * k), keys // k % k, keys % k], axis=1)
    text = (
        f"POINTS {len(points)} float\n".encode(),
        *_rows((np.array(words, dtype=bytes), points)),
        f"CELLS {n_cells} {9 * n_cells}\n".encode(),
        *_rows((_indexes(len(points)), corner_point.reshape(n_cells, 8)), lead=b"8 "),
        f"CELL_TYPES {n_cells}\n".encode(),
        *(b"12\n" * min(_CHUNK_ROWS, n_cells - s) for s in range(0, n_cells, _CHUNK_ROWS)),
    )
    return octree.class_code[cells] == _GREY, text


def _vtk_chunks(
    octree: Octree, index_field: LocalIndexField, scale: ColorScale | None
) -> Iterator[bytes]:
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
    cell_data = f"CELL_DATA {n_cells}\nSCALARS difficulty float 1\nLOOKUP_TABLE default\n"
    return itertools.chain(
        [header.encode()],
        text,
        [cell_data.encode()],
        _rows((np.array(words, dtype=bytes), which)),
    )


# ---------------------------------------------------------------------------
# Report files


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Json(str):
    """Text already encoded, which :func:`_json_parts` writes as it is."""


def _json_parts(obj, out: list[str]) -> None:
    """Append to ``out`` the text ``_encode(obj)`` gives.

    Dicts with ``str`` keys are walked here and :class:`_Json` text is
    written as it is; everything else goes to the encoder itself.
    """
    if type(obj) is _Json:
        out.append(obj)
        return
    if type(obj) is dict and all(type(k) is str for k in obj):
        sep = "{"
        for key in sorted(obj):
            out.append(sep + _encode(key) + ":")
            _json_parts(obj[key], out)
            sep = ","
        out.append("}" if obj else "{}")
        return
    out.append(_encode(obj))


def _float_list(values: np.ndarray) -> _Json:
    """The JSON list of the finite float64 ``values``, one ``repr`` per distinct value."""
    words, which = _spell("%r", values)
    return _Json("[" + ",".join(words[which].tolist()) + "]")


#: The JSON text of the ``path_keys`` and ``volumes`` of the fields of one
#: octree, which share those objects (:func:`fields.grey_field`), keyed by the
#: identity of the ``volumes`` array: an entry dies with that array, which is
#: read-only, so the text cannot go stale.
_COLUMN_TEXT: dict[int, tuple[tuple[int, ...], _Json, _Json]] = {}


def _grey_columns(f: LocalIndexField) -> tuple[_Json, _Json]:
    """The JSON text of ``f.path_keys`` and ``f.volumes``, spelled once for
    all the fields that share both objects."""
    key = id(f.volumes)
    hit = _COLUMN_TEXT.get(key)
    if hit is not None and hit[0] is f.path_keys:
        return hit[1], hit[2]
    text = _Json(_encode(list(f.path_keys))), _float_list(f.volumes)
    if hit is None:
        _COLUMN_TEXT[key] = (f.path_keys, *text)
        weakref.finalize(f.volumes, _COLUMN_TEXT.pop, key, None)
    return text


def _field_json(f: LocalIndexField) -> dict:
    """``aggregation._field_to_dict(f)`` with its columns as text, the grey-leaf ones shared."""
    path_keys, volumes = _grey_columns(f)
    values = _float_list(f.values)
    return dict(
        index_id=f.index_id, octree_hash=f.octree_hash, path_keys=path_keys, values=values, volumes=volumes
    )


def _report_json(report) -> str:
    """The report as compact JSON with sorted keys, the bytes of
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, and a newline;
    a part or assembly report's fields are spelled by :func:`_field_json`."""
    doc = report.to_dict() if isinstance(report, ComparisonReport) else report._to_dict(_field_json)
    out: list[str] = []
    _json_parts({"schema_version": SCHEMA_VERSION, "report": doc}, out)
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
        return _atomic_write_chunks(out, [_report_json(report).encode()])
    if kind == "csv":
        return _atomic_write_chunks(out, [_report_csv(report).encode()])
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
