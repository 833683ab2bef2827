"""Triangle-mesh loading, measurement, and the geometric predicates used everywhere else.

All lengths are millimeters.  A :class:`TriMesh` is immutable after load;
its derived data is computed on first use and cached.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMeshError, NotWatertightError, ParameterError, ParseError

log = logging.getLogger(__name__)

#: Vertices closer than this (mm) are merged into one during load.
WELD_TOLERANCE_MM = 1e-4

#: A point is on the boundary when the surface touches the cube of half-width
#: ``BOUNDARY_EPS_REL * max_dimension`` around it: that cube's box class.
BOUNDARY_EPS_REL = 1e-6

_PAIR_BUDGET = 500_000  # (point, triangle) pairs per chunk of the boundary band
_COLUMN_PAIR_BUDGET = 16_384  # (vertical line, bucket triangle) pairs per chunk
#: Shewchuk's orient2d error bound, (3 + 16 u) u for the unit roundoff
#: u = 2**-53 ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
#: Geometric Predicates", 1997).  With ``U - P`` and ``V - P`` rounded, the
#: float ``l - r`` of the orientation ``(U - P) x (V - P)``, ``l`` and ``r``
#: its two rounded products, has the exact sign whenever ``|l - r|`` exceeds
#: this times ``|l| + |r|``.  It is a proven bound, not a tolerance: it only
#: picks which signs :func:`_exact_det` decides, never a sign.
_CCW_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


class PointClass(enum.IntEnum):
    """Classification of a point against a closed mesh."""

    OUTSIDE = 0
    INSIDE = 1
    ON_BOUNDARY = 2


@dataclass(frozen=True)
class MeshMetrics:
    """Derived measurements of a mesh.

    ``volume`` is the signed divergence-theorem volume: positive when the
    triangles are oriented outward.  It is reported even for open meshes,
    where it is only a diagnostic.  ``watertight`` is a flag, not an error;
    operations that need a closed mesh check it themselves.
    """

    bbox_min: tuple[float, float, float]
    bbox_max: tuple[float, float, float]
    max_dimension: float
    surface_area: float
    volume: float
    watertight: bool

    @property
    def extents(self) -> tuple[float, float, float]:
        return (
            self.bbox_max[0] - self.bbox_min[0],
            self.bbox_max[1] - self.bbox_min[1],
            self.bbox_max[2] - self.bbox_min[2],
        )

    @property
    def bbox_volume(self) -> float:
        ex, ey, ez = self.extents
        return ex * ey * ez


def as_metrics(mesh_or_metrics) -> "MeshMetrics":
    """Accept either a mesh or its precomputed metrics."""
    if isinstance(mesh_or_metrics, MeshMetrics):
        return mesh_or_metrics
    return mesh_or_metrics.metrics


class TriMesh:
    """Indexed triangle mesh.

    Arrays are made read-only on construction; derived data (metrics, the
    per-triangle vertex coordinates and bounds, the ray-cast acceleration
    grid, the content hash) is computed on first use, cached and read-only.
    """

    __slots__ = (
        "vertices", "triangles", "_metrics", "_tri_coords", "_tri_bounds", "_grid", "_hash"
    )

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be an (N, 3) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (M, 3) array")
        if triangles.shape[0] == 0:
            raise EmptyMeshError("mesh has no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ValueError("triangle indices out of range")
        vertices.setflags(write=False)
        triangles.setflags(write=False)
        self.vertices = vertices
        self.triangles = triangles
        self._metrics: MeshMetrics | None = None
        self._tri_coords: np.ndarray | None = None
        self._tri_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._grid: _ColumnGrid | None = None
        self._hash: str | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def tri_coords(self) -> np.ndarray:
        """Per-triangle vertex coordinates, shape (M, 3, 3)."""
        if self._tri_coords is None:
            tc = self.vertices.take(self.triangles, axis=0)
            tc.setflags(write=False)
            self._tri_coords = tc
        return self._tri_coords

    def tri_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle bounding boxes ``(tmin, tmax)``, each (M, 3).

        Bitwise equal to ``tri_coords().min(axis=1)`` and ``.max(axis=1)``,
        built from one contiguous (M, 3) gather of the vertices per corner,
        which is faster than that strided reduction.
        """
        if self._tri_bounds is None:
            a, b, c = (self.vertices.take(self.triangles[:, k], axis=0) for k in range(3))
            tmin, tmax = np.minimum(a, b), np.maximum(a, b)
            np.minimum(tmin, c, out=tmin)
            np.maximum(tmax, c, out=tmax)
            tmin.setflags(write=False)
            tmax.setflags(write=False)
            self._tri_bounds = tmin, tmax
        return self._tri_bounds

    @property
    def metrics(self) -> MeshMetrics:
        if self._metrics is None:
            self._metrics = _measure(self)
        return self._metrics

    def content_hash(self) -> str:
        """Hash of the exact vertex/triangle data, for provenance checks."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(self.vertices.tobytes())
            h.update(self.triangles.tobytes())
            self._hash = h.hexdigest()
        return self._hash

    def _column_grid(self) -> "_ColumnGrid":
        if self._grid is None:
            self._grid = _ColumnGrid(
                self.tri_coords(), self.tri_bounds(), self.metrics.max_dimension
            )
        return self._grid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TriMesh({self.num_vertices} vertices, {self.num_triangles} triangles)"


# ---------------------------------------------------------------------------
# Loading


def load_mesh(path: str | Path) -> TriMesh:
    """Load a binary STL, ASCII STL, or OFF file into a welded TriMesh.

    The file suffix (``.stl``, ``.off``) or, failing that, the content picks
    the format; an STL is ASCII when it starts with ``solid`` and holds a
    ``facet`` token.  Vertices closer than :data:`WELD_TOLERANCE_MM` are
    merged, degenerate triangles are dropped, and unused vertices are
    discarded.  Raises :class:`ParseError` for malformed files and
    :class:`EmptyMeshError` when nothing usable remains.
    """
    path = Path(path)
    data = path.read_bytes()
    fmt = _resolve_format(path, data)
    if fmt == "off":
        raw_vertices, raw_faces = _parse_off(data)
        soup = raw_vertices[raw_faces]
    elif fmt == "stl-ascii":
        soup = _parse_stl_ascii(data)
    else:
        soup = _parse_stl_binary(data)
    del data  # the soup is a copy: free the file's bytes before the weld
    mesh = _weld(soup)
    log.info(
        "loaded %s: %d triangles, %d vertices after weld",
        path.name,
        mesh.num_triangles,
        mesh.num_vertices,
    )
    return mesh


def _resolve_format(path: Path, data: bytes) -> str:
    """The format by file suffix; without a known suffix, by content."""
    suffix = path.suffix.lower()
    if suffix == ".off" or (suffix != ".stl" and data[:3] == b"OFF"):
        return "off"
    return _sniff_stl(data)


def _sniff_stl(data: bytes) -> str:
    # A binary STL may start with "solid" too; require an actual facet token.
    if data[:5].lower() == b"solid" and b"facet" in data[:4096].lower():
        return "stl-ascii"
    return "stl-binary"


_STL_RECORD = np.dtype(
    [("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")]
)


def _parse_stl_binary(data: bytes) -> np.ndarray:
    if len(data) < 84:
        raise ParseError("binary STL shorter than its 84-byte header")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) < expected:
        raise ParseError(
            f"binary STL truncated: header promises {count} facets "
            f"({expected} bytes) but file holds {len(data)}"
        )
    if count == 0:
        raise EmptyMeshError("binary STL declares zero facets")
    records = np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=84)
    soup = records["verts"].astype(np.float64)
    if not np.isfinite(soup).all():
        raise ParseError("binary STL contains non-finite vertex coordinates")
    return soup


_VERTEX_RE = re.compile(rb"vertex\s+(\S+)\s+(\S+)\s+(\S+)", re.IGNORECASE)


def _parse_stl_ascii(data: bytes) -> np.ndarray:
    if b"facet" not in data.lower():
        raise ParseError("ASCII STL contains no facets")
    rows = _VERTEX_RE.findall(data)
    if not rows:
        raise EmptyMeshError("ASCII STL contains no vertices")
    if len(rows) % 3 != 0:
        raise ParseError(f"ASCII STL vertex count {len(rows)} is not a multiple of 3")
    try:
        flat = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"ASCII STL has a malformed vertex line: {exc}") from exc
    if not np.isfinite(flat).all():
        raise ParseError("ASCII STL contains non-finite vertex coordinates")
    return flat.reshape(-1, 3, 3)


def _parse_off(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"OFF file is not valid text: {exc}") from exc
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens or tokens[0] != "OFF":
        raise ParseError("OFF file does not start with an OFF header")
    pos = 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        int(tokens[pos + 2])  # edge count, unused
        pos += 3
        coords = np.array(tokens[pos : pos + 3 * nv], dtype=np.float64)
        if coords.size != 3 * nv:
            raise ParseError("OFF file ends inside its vertex list")
        vertices = coords.reshape(nv, 3)
        pos += 3 * nv
        faces: list[tuple[int, int, int]] = []
        for _ in range(nf):
            k = int(tokens[pos])
            idx = [int(t) for t in tokens[pos + 1 : pos + 1 + k]]
            if len(idx) != k or k < 3:
                raise ParseError("OFF face record is malformed")
            pos += 1 + k
            for j in range(1, k - 1):  # fan triangulation of polygons
                faces.append((idx[0], idx[j], idx[j + 1]))
    except (ValueError, IndexError) as exc:
        raise ParseError(f"OFF file is malformed: {exc}") from exc
    if not faces:
        raise EmptyMeshError("OFF file contains no faces")
    face_arr = np.array(faces, dtype=np.int64)
    if face_arr.min() < 0 or face_arr.max() >= nv:
        raise ParseError("OFF face indexes a vertex that does not exist")
    if not np.isfinite(vertices).all():
        raise ParseError("OFF file contains non-finite vertex coordinates")
    return vertices, face_arr


def _weld(soup: np.ndarray) -> TriMesh:
    """Merge near-coincident vertices of a triangle soup and drop junk."""
    flat = soup.reshape(-1, 3)
    n = len(flat)
    keys = flat.T.copy()  # one row per axis, so every reduction is 1-D; rounded in place below
    span = max(float(x.max() - x.min()) for x in keys) if n else 0.0  # np.ptp(flat, axis=0).max()
    keys = np.round(keys / WELD_TOLERANCE_MM, out=keys).astype(np.int64)
    # rows in lexicographic key order (x first), as np.unique(keys, axis=0) has them; one
    # packed key sorts once where the three key spans fit in 62 bits
    low, high = (keys.min(axis=1), keys.max(axis=1)) if n else (np.zeros(3, dtype=np.int64),) * 2
    bits = [(int(b) - int(a)).bit_length() for a, b in zip(low, high)]
    start = np.ones(n, dtype=bool)
    if sum(bits) <= 62:
        packed = keys[0] - low[0]
        for a in (1, 2):
            packed <<= bits[a]
            packed |= keys[a] - low[a]
        del keys
        order = np.argsort(packed)
        ranked = packed[order]
        start[1:] = ranked[1:] != ranked[:-1]
    else:
        order = np.lexsort(keys[::-1])
        ranked = keys[:, order]
        start[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    # each vertex is its run's least input index, the one np.unique and a stable sort
    # put first, so the order in which the sort leaves ties changes no byte
    vertices = flat.take(np.minimum.reduceat(order, np.flatnonzero(start)), axis=0)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    triangles = inverse.reshape(-1, 3)

    a, b, c = triangles.T
    distinct = (a != b) & (b != c) & (c != a)
    rows = np.ascontiguousarray(vertices.T)
    area2 = _doubled_areas(*(rows.take(k, axis=1) for k in (a, b, c)))
    keep = distinct & (area2 > 1e-12 * max(span, 1.0) ** 2)
    triangles = triangles[keep]
    if len(triangles) == 0:
        raise EmptyMeshError("no non-degenerate triangles after welding")

    # the used vertex ids in ascending order, as np.unique(triangles) but without its sort
    used = np.flatnonzero(np.bincount(triangles.ravel(), minlength=len(vertices)))
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(vertices[used], remap[triangles])


def _doubled_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|(B - A) x (C - A)| of triangles with corners ``a``, ``b``, ``c``, each (3, M) rows
    of x, y and z: bitwise ``np.linalg.norm(np.cross(...), axis=1)``, in its operations."""
    (ux, uy, uz), (vx, vy, vz) = b - a, c - a
    x, y, z = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return np.sqrt(x * x + y * y + z * z)


# ---------------------------------------------------------------------------
# Metrics


def _measure(mesh: TriMesh) -> MeshMetrics:
    watertight = _is_watertight(mesh)  # first: its temporaries and the corners' never meet
    rows = np.ascontiguousarray(mesh.vertices.T)  # x, y and z, one row each
    bbox_min, bbox_max = rows.min(axis=1), rows.max(axis=1)
    corners = [rows.take(k, axis=1) for k in mesh.triangles.T]  # (3, M) rows each
    # fsum: the totals do not depend on the order of the triangles
    area = 0.5 * math.fsum(_doubled_areas(*corners).tolist())
    # each signed volume as the triple product a . (b x c), which is exact
    # where the products are, unlike an LU determinant
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = corners
    det = ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)
    volume = math.fsum(det.tolist()) / 6.0
    return MeshMetrics(
        bbox_min=tuple(bbox_min),
        bbox_max=tuple(bbox_max),
        max_dimension=float((bbox_max - bbox_min).max()),
        surface_area=float(area),
        volume=float(volume),
        watertight=watertight,
    )


def _is_watertight(mesh: TriMesh) -> bool:
    # Closed 2-manifold: every directed edge occurs exactly once and its
    # reverse occurs exactly once (consistent opposite orientation).
    t = mesh.triangles.astype(np.int64)
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    nv = len(mesh.vertices)
    fwd = np.sort(edges[:, 0] * nv + edges[:, 1])
    if len(fwd) > 1 and (np.diff(fwd) == 0).any():
        return False
    rev = np.sort(edges[:, 1] * nv + edges[:, 0])
    return bool(np.array_equal(fwd, rev))


# ---------------------------------------------------------------------------
# Point classification


def point_in_mesh(mesh: TriMesh, point) -> PointClass:
    """Classify one point as inside, outside, or on the surface of ``mesh``.

    The mesh must be watertight.  A point's class is that of the cube of
    half-width ``eps = BOUNDARY_EPS_REL * max_dimension`` around it,
    ``p - eps`` to ``p + eps``, by the box query and center cast of
    :func:`spatial.classify_box`: on the boundary where that box is grey,
    else inside or outside where it is black or white.  Both are decided
    exactly, so the result is deterministic.
    """
    res = classify_points(mesh, np.asarray(point, dtype=np.float64).reshape(1, 3))
    return PointClass(int(res[0]))


def classify_points(mesh: TriMesh, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`point_in_mesh` over an (N, 3) array.

    Returns an int8 array of :class:`PointClass` values; a NaN or infinite
    coordinate raises :class:`ParameterError`.  A point is on the
    boundary when some triangle is in contact with its cube (the box query
    :func:`_boxes_touch`, as in :func:`spatial.classify_box`).
    Otherwise no triangle meets the cube, so its every point, ``p`` among
    them, is on one side, and ``p`` is inside when its vertical line
    crosses the surface an odd number of times above it
    (:meth:`_ColumnGrid.crossings`).
    """
    metrics = mesh.metrics
    if not metrics.watertight:
        raise NotWatertightError("point containment needs a watertight mesh")
    pts = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ParameterError("point coordinates must be finite")

    eps = BOUNDARY_EPS_REL * metrics.max_dimension
    on = _boxes_touch(mesh, pts - eps, pts + eps)

    out = np.full(len(pts), np.int8(PointClass.ON_BOUNDARY))
    off = ~on
    out[off] = np.where(
        _points_inside(mesh, pts[off]), np.int8(PointClass.INSIDE), np.int8(PointClass.OUTSIDE)
    )
    return out


def _points_inside(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    """Parity-only inside test (no boundary band) of the (N, 3) ``pts``.

    Each answer depends only on (mesh, point), never on batch composition:
    :meth:`_ColumnGrid.crossings` casts points at bitwise-equal x and y on
    one line, so a caller may pass stacked points in any order and number.
    """
    if not mesh.metrics.watertight:
        raise NotWatertightError("point containment needs a watertight mesh")
    return mesh._column_grid().crossings(pts[:, :2], pts[:, 2:])[:, 0] % 2 == 1


def _boxes_touch(mesh: TriMesh, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each box ``lo[i]`` to ``hi[i]`` (N, 3) is in contact with some
    triangle (:func:`_tri_box_overlap`): the one box query, grey in the
    sense of :func:`spatial.classify_box`.

    Only a triangle that no box normal separates from the box can touch
    it, so each box meets only the triangles of the column grid's cells
    under it whose bounds pass that rule (not ``tmax <= lo`` and not
    ``tmin > hi`` on every axis), and each such pair takes the contact
    kernel.  That is the answer the pair would give against every
    triangle, so the result is the brute force's.  Boxes go in chunks of
    ``_PAIR_BUDGET // 64``; a box wider than a grid cell lists every bucket
    entry under it, so a triangle in several of those buckets goes once
    for each.
    """
    grid = mesh._column_grid()
    tc, (tmin, tmax) = mesh.tri_coords(), mesh.tri_bounds()
    on = np.zeros(len(lo), dtype=bool)
    for s in range(0, len(lo), _PAIR_BUDGET // 64):
        l, h = lo[s : s + _PAIR_BUDGET // 64], hi[s : s + _PAIR_BUDGET // 64]
        box, cell = grid._rect_cells(l[:, :2], h[:, :2])
        # (box, triangle) pairs: each cell's bucket, then the triangles the box normals keep
        size = grid._ptr[cell + 1] - grid._ptr[cell]
        slot = np.repeat(grid._ptr[cell] - (np.cumsum(size) - size), size) + np.arange(int(size.sum()))
        box, tri = np.repeat(box, size), grid._tids[slot]
        near = ((tmax[tri] > l[box]) & (tmin[tri] <= h[box])).all(axis=1)
        box, tri = box[near], tri[near]
        on[s + box[_tri_box_overlap(tc[tri], l[box], h[box])]] = True
    return on


class _ColumnGrid:
    """2D bucket grid over the xy plane for vertical (+z) ray parity.

    Shared, read-only acceleration structure: point classification, the
    octree's box-center casts and the tool-reach probes all cast vertical
    lines, and bucketing triangles by xy footprint makes each line O(local
    triangles) instead of O(all).  The boundary band of
    :func:`classify_points` reads the buckets too, and the octree's volume
    kernel reads the exact area signs.  The buckets are stored CSR-style: cell
    ``c`` holds triangles ``tids[ptr[c]:ptr[c + 1]]`` in ascending order,
    int32 ids built by int32 arithmetic (:meth:`_rect_cells`).
    :meth:`crossings` is the one kernel: callers pass points as (xy,
    heights) entries, and it casts each distinct xy once, with the heights
    of every entry there, so stacked octree boxes share one line.

    Whether a line crosses a triangle is decided exactly (:meth:`_hits`),
    with ties broken by one symbolic perturbation of the line, so every
    line through a closed mesh crosses it an even number of times, edges
    and vertices included.

    Resolution: ``sqrt(8 M)`` cells per axis for M triangles, clipped to
    [4, 128] (128 keeps a cell id in a uint16).  A line evaluates every
    triangle of its cell, and most of them cannot cross it; finer cells
    cut those pairs, while buckets grow only where triangles span several
    cells.  Measured as the (line, triangle) pairs :meth:`_hits` evaluates
    in an octree build's center casts and its tool-reach probes (default
    margin and tools), ``sqrt(M / 2)`` -> ``sqrt(8 M)`` cells per axis:

    - the 68-triangle split-redesign block at depth 5, res 5 -> 23: center
      casts 12,240 -> 5,712 pairs and tool reach 16,224 -> 6,752, of which
      the same 2,320 and 2,400 cross: 81 -> 59 % and 85 -> 64 % wasted;
    - ``icosphere(10, 4)`` at depth 6, res 50 -> 128: 59,914 -> 32,872
      (7,872 cross) and 401,172 -> 221,842 (54,192), 87 -> 76 % and 86 -> 76 %.

    The cell count decides only which pairs a line evaluates, never what
    an evaluated pair answers.
    """

    def __init__(
        self, tc: np.ndarray, bounds: tuple[np.ndarray, np.ndarray], scale: float
    ):
        """Bucket the triangles ``tc`` (M, 3, 3) by the xy part of their
        ``bounds``, the ``(tmin, tmax)`` of :meth:`TriMesh.tri_bounds`."""
        tmin, tmax = bounds[0][:, :2], bounds[1][:, :2]
        pad = 1e-9 * max(scale, 1.0)
        self._lo = np.array([tmin[:, a].min() for a in range(2)]) - pad  # 1-D: faster than axis 0
        hi = np.array([tmax[:, a].max() for a in range(2)]) + pad
        self._res = res = int(np.clip(np.sqrt(8.0 * len(tc)), 4, 128))
        self._cell = np.maximum((hi - self._lo) / res, 1e-12)

        tri, cells = self._rect_cells(tmin, tmax)
        cells = cells.astype(np.uint16)  # res <= 128: a stable sort of uint16 is a radix sort
        self._tids = tri.take(np.argsort(cells, kind="stable"))
        self._ptr = np.zeros(res * res + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=res * res), out=self._ptr[1:])

        # one row of the corners per triangle, a view of tc, so a gather by
        # triangle id reads one row: vertex k at columns 3 k, 3 k + 1 and 3 k + 2
        self._rows = rows = tc.reshape(-1, 9)
        l = (rows[:, 3] - rows[:, 0]) * (rows[:, 7] - rows[:, 1])  # (B - A) x (C - A) is l - r
        r = (rows[:, 4] - rows[:, 1]) * (rows[:, 6] - rows[:, 0])
        self._area = area = l - r  # the doubled signed area in xy
        # the exact sign of each projected area; 0 marks a vertical triangle
        self._side = (area > 0).astype(np.int8) - (area < 0)
        for i in np.flatnonzero(~(np.abs(area) > _CCW_ERRBOUND * (np.abs(l) + np.abs(r)))):
            det = _exact_det(*rows[i, [3, 4, 6, 7, 0, 1]])
            self._side[i] = (det > 0) - (det < 0)

    def _rect_cells(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(item, cell)``: every grid cell that the xy rectangle ``lo[i]``
        to ``hi[i]`` (N, 2) meets, rectangle by rectangle and row by row.
        The rectangles are clipped to the grid, and one off it lists none.
        Both are int32 while the entries fit in it, int64 beyond."""
        res, o, w = self._res, self._lo, self._cell
        # floored as floats axis by axis, (2, N) each, then clipped and cast; a
        # far rectangle's quotient may overflow to inf, which the clip takes
        with np.errstate(over="ignore"):
            i0, i1 = (np.array([np.floor((x[:, a] - o[a]) / w[a]) for a in range(2)]) for x in (lo, hi))
        meets = (i1 >= 0).all(axis=0) & (i0 < res).all(axis=0)
        i0, i1 = (np.clip(f, 0, res - 1).astype(np.int32) for f in (i0, i1))
        ny = i1[1] - i0[1] + 1
        per = np.where(meets, (i1[0] - i0[0] + 1) * ny, 0)
        total = int(per.sum(dtype=np.int64))
        index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
        item = np.repeat(np.arange(len(lo), dtype=index), per)
        k = np.arange(total, dtype=index)
        k -= np.repeat(np.cumsum(per, dtype=index) - per, per)
        x, y = np.divmod(k, ny.take(item), out=(k, np.empty_like(k)))  # int32: several times faster
        return item, (x + i0[0].take(item)) * res + y + i0[1].take(item)

    def _cells_of(self, xy: np.ndarray) -> np.ndarray:
        """The grid cell under each (N, 2) point ``xy``, -1 off the grid.  The
        range is checked on the floats, so a far point, whose quotient
        may overflow to inf, is off the grid before any cast."""
        with np.errstate(over="ignore"):
            f = np.floor((xy - self._lo) / self._cell)
        valid = ((f >= 0) & (f < self._res)).all(axis=1)
        ij = np.where(valid[:, None], f, 0.0).astype(np.int64)
        return np.where(valid, ij[:, 0] * self._res + ij[:, 1], -1)

    def _hits(
        self, px: np.ndarray, py: np.ndarray, tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Which vertical lines cross which triangles, pair by pair, exactly.

        Pair i is the line P = (``px[i]``, ``py[i]``) and triangle
        ``tids[i]``, ABC in xy.  The pair crosses when the orientations of P
        against the edges BC, CA and AB, ``(U - P) x (V - P)`` for edge UV,
        all have the exact sign of the triangle's area; a vertical triangle
        (area 0) never crosses.  An orientation that is exactly 0 takes its
        sign for the line at (x + e, y + e**2), e -> 0: that of the edge's
        ``-dy``, else of its ``dx`` (Simulation of Simplicity).  Two
        triangles on an edge see it in opposite directions, so they get
        opposite signs, and a line through a closed mesh crosses it an even
        number of times.

        The orientations are floats, filtered by :data:`_CCW_ERRBOUND`.
        Only those the filter leaves open, in pairs that no sure
        orientation already rules out, are evaluated on integers
        (:func:`_exact_det`).  Returns ``(hit, z)``: the indices of the
        crossing pairs and the barycentric surface height of each.
        """
        t = self._rows.take(tids, axis=0).T.copy()  # (9, N), one row per coordinate
        # offsets from the line, in place: t's x and y rows become A-P, B-P, C-P
        t[0:9:3] -= px
        t[1:9:3] -= py
        ax, ay, z0, bx, by, z1, cx, cy, z2 = t
        # orientation k = l[k] - r[k], for the edges BC, CA, AB
        l, r = np.empty((3, len(tids))), np.empty((3, len(tids)))
        edges = ((bx, by, cx, cy), (cx, cy, ax, ay), (ax, ay, bx, by))
        for k, (ux, uy, vx, vy) in enumerate(edges):
            np.multiply(ux, vy, out=l[k])
            np.multiply(uy, vx, out=r[k])
        det = l - r
        bound = np.abs(l)
        bound += np.abs(r)
        bound *= _CCW_ERRBOUND
        side = self._side.take(tids)
        agree = det * side  # past +bound: surely the area's sign; past -bound: surely not
        hit = (agree[0] > bound[0]) & (agree[1] > bound[1]) & (agree[2] > bound[2])
        np.negative(bound, out=bound)
        out = (agree[0] < bound[0]) | (agree[1] < bound[1]) | (agree[2] < bound[2]) | (side == 0)
        for i in np.flatnonzero(~(hit | out)):
            row = self._rows[tids[i]]
            for k in range(3):
                if agree[k, i] > -bound[k, i]:
                    continue  # this orientation is sure
                u, v = 3 * ((k + 1) % 3), 3 * ((k + 2) % 3)  # edge k: BC, CA, AB
                ux, uy, vx, vy = row[u], row[u + 1], row[v], row[v + 1]
                d = _exact_det(ux, uy, vx, vy, px[i], py[i]) or uy - vy or vx - ux
                if (d > 0) != (side[i] > 0):
                    break
            else:
                hit[i] = True
        hit = np.flatnonzero(hit)
        la, lb, lc = det[:, hit] / self._area.take(tids.take(hit))
        return hit, la * z0[hit] + lb * z1[hit] + lc * z2[hit]

    def crossings(self, xy: np.ndarray, hz: np.ndarray) -> np.ndarray:
        """Count surface crossings strictly above heights on vertical lines.

        Entry i asks about the k heights ``hz[i]`` (N, k) on the vertical
        line at ``xy[i]`` (N, 2).  Returns the number of crossings above
        each height, shaped like ``hz``, in input order.  A crossing is
        above a height when its barycentric surface height (:meth:`_hits`)
        is greater, so a height on the surface counts the crossing there as
        not above; that point is on the boundary, where either parity is a
        right answer.

        Entries whose x and y are bitwise equal share one line, so each
        distinct xy is evaluated once against its cell's triangles, in
        chunks of at most :data:`_COLUMN_PAIR_BUDGET` (line, triangle)
        pairs, and only the pairs that cross are tested against the heights
        of every entry on the line: any other pair adds to no count.  Each
        (pair, height) test is ``zt > z``, elementwise, so a height's answer
        depends neither on what else its line or its batch asks nor on the
        order of the entries.
        """
        xy = np.ascontiguousarray(xy, dtype=np.float64).reshape(-1, 2)
        hz = np.asarray(hz, dtype=np.float64)
        n, k = hz.shape
        bits = xy.view(np.int64)
        order = np.lexsort(bits.T)  # the entries, line by line
        new_line = (np.diff(bits[order], axis=0) != 0).any(axis=1)
        starts = np.flatnonzero(np.r_[n > 0, new_line])
        # line j carries the heights hz_sorted[hptr[j]:hptr[j + 1]] of its entries
        hptr = k * np.r_[starts, n]
        hz_sorted = hz[order].ravel()
        lines = xy[order[starts]]
        px, py = lines.T
        counts = np.zeros(n * k, dtype=np.int64)
        cells = self._cells_of(lines)
        valid = cells >= 0
        first = np.where(valid, self._ptr[np.maximum(cells, 0)], 0)
        num = np.where(valid, self._ptr[cells + 1] - first, 0)  # outside the grid: none
        ends = np.cumsum(num)
        start = 0
        while start < len(lines):
            done = ends[start - 1] if start else 0  # pairs before this chunk
            stop = int(np.searchsorted(ends, done + _COLUMN_PAIR_BUDGET, side="right"))
            stop = max(stop, start + 1)  # a line with a bigger bucket goes alone
            m = num[start:stop]
            total = int(ends[stop - 1] - done)
            if total:
                # pairs run line by line, each line through its cell's bucket
                pair = np.arange(done, done + total)
                slot = np.repeat(first[start:stop] - (ends[start:stop] - m), m) + pair
                line = np.repeat(np.arange(start, stop), m)
                hit, zt = self._hits(px[line], py[line], self._tids[slot])
                line = line[hit]
                # one (pair, height) entry per height of the pair's line
                per = hptr[line + 1] - hptr[line]
                h = np.arange(int(per.sum())) + np.repeat(hptr[line] - (np.cumsum(per) - per), per)
                above = np.repeat(zt, per) > hz_sorted[h]
                base, size = hptr[start], hptr[stop] - hptr[start]
                counts[base : base + size] = np.bincount(h[above] - base, minlength=size)
            start = stop
        out = np.empty((n, k), dtype=np.int64)
        out[order] = counts.reshape(n, k)
        return out


def _exact_det(ux, uy, vx, vy, px, py) -> int:
    """``(U - P) x (V - P)`` on integers, exactly, times a positive power of two.

    Every float is an integer times a power of two
    (``float.as_integer_ratio``); scaling all six coordinates to their
    finest power of two keeps them exact integers.
    """
    ratios = [float(c).as_integer_ratio() for c in (ux, uy, vx, vy, px, py)]
    d = max(q for _, q in ratios)
    ux, uy, vx, vy, px, py = (n * (d // q) for n, q in ratios)
    return (ux - px) * (vy - py) - (uy - py) * (vx - px)


# ---------------------------------------------------------------------------
# Triangle / box contact

#: Proven error bounds of :func:`_tri_box_overlap`'s float gaps, as
#: multiples of E K for an edge axis and of E**2 K for the triangle normal.
#: E is the entry's largest edge component and K = V + H + C, with V its
#: largest vertex offset from the rounded box center, H the largest half
#: width and C the largest center coordinate.  An edge gap is orient2d's
#: form, (3 + 16 u) u (|l| + |r|) for u = 2**-53, plus the center's and
#: half-width's rounding: at most 11 u E K.  The normal's rounded components
#: add at most 67 u E**2 K.  Both are powers of two, so scaling by them
#: rounds nothing; like :data:`_CCW_ERRBOUND`, they only pick which entries
#: :func:`_exact_contacts` decides, never an answer.
_EDGE_ERRBOUND = 2.0**-49  # 16 u
_NORMAL_ERRBOUND = 2.0**-46  # 128 u


def _tri_box_overlap(tc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact contact of triangles ``tc`` (..., 3, 3) and boxes ``lo``/``hi``
    (..., 3) displaced by a symbolic (e, e**2, e**3), e -> 0+; bool (...).

    Contact is decided on the 13 separating axes of Akenine-Moller's test
    ("Fast 3D Triangle-Box Overlap Testing", 2001): the 3 box normals, the
    triangle normal, and the 9 products of a box normal and an edge.  Axis
    ``a`` separates when ``a . (p - q) < a . d`` for every vertex p and the
    box corner q that minimises ``a . q``, or ``> a . d`` for the one that
    maximises it, ``d`` being the displacement.  A nonzero value decides by
    its sign, a 0 (a tie) by the sign of ``a . d``: that of ``a``'s first
    nonzero component, x, then y, then z (Simulation of Simplicity,
    Edelsbrunner and Mucke, 1990).  So a face on a box plane meets the box
    on its lower side (below, left or in front) and not the one on its
    upper side, and no contact is a mere touch.  A zero axis never
    separates.

    The box normals compare the triangle's bounds with ``lo`` and ``hi``,
    exactly: axis k separates when ``tmax <= lo`` or ``tmin > hi``.  Every
    other axis takes its gap in floats, Akenine-Moller's radius less the
    vertices' reach past the box center, the least of ``a . (p - q)`` over
    the minimising corner and ``-a . (p - q)`` over the maximising one.  It
    lies within a proven bound (:data:`_EDGE_ERRBOUND`,
    :data:`_NORMAL_ERRBOUND`) of the exact gap: below minus the bound, the
    axis separates; above it, it does not.  An edge axis with a zero
    component, and the normal of a triangle in an axis plane, repeat a box
    normal's verdict and are skipped.  An entry that no axis separates
    and whose gaps the bounds leave open on some axes goes to
    :func:`_exact_contacts`, which decides those axes.  The leading axes
    broadcast against each other, and every test is elementwise, so an
    entry's answer does not depend on what else is in the batch.
    """
    tri = np.ascontiguousarray(np.moveaxis(tc, (-2, -1), (0, 1)))  # (vertex, axis, ...)
    blo, bhi = (np.ascontiguousarray(np.moveaxis(x, -1, 0)) for x in (lo, hi))
    tmin = np.minimum(np.minimum(tri[0], tri[1]), tri[2])
    tmax = np.maximum(np.maximum(tri[0], tri[1]), tri[2])
    sep = ((tmax <= blo) | (tmin > bhi)).any(axis=0)
    c, h = 0.5 * (blo + bhi), 0.5 * (bhi - blo)
    v = tri - c  # vertex offsets from the box center
    e = np.empty_like(tri)  # edge j runs from vertex j to vertex j + 1
    for j in range(3):
        np.subtract(tri[(j + 1) % 3], tri[j], out=e[j])
    ae = np.abs(e)
    emax = ae.reshape((9,) + ae.shape[2:]).max(axis=0)
    vmax = np.maximum(np.abs(tmin - c), np.abs(tmax - c)).max(axis=0)  # V
    ek = emax * (vmax + h.max(axis=0) + np.abs(c).max(axis=0))

    # the triangle normal: every vertex projects like vertex 0
    n = [e[0, 1] * e[1, 2] - e[0, 2] * e[1, 1], e[0, 2] * e[1, 0] - e[0, 0] * e[1, 2],
         e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]]
    radius = np.abs(n[0]) * h[0] + np.abs(n[1]) * h[1] + np.abs(n[2]) * h[2]
    normal = radius - np.abs(n[0] * v[0, 0] + n[1] * v[0, 1] + n[2] * v[0, 2])
    np.copyto(normal, np.inf, where=(tmin == tmax).any(axis=0))  # n along a box normal
    # box normal k x edge j is (.., -e_w, e_u, ..) on the axes u, w after k;
    # vertices j and j + 1 project alike, so j and j + 2 bound the triangle
    edges = np.empty((9,) + sep.shape)  # axis 3 j + k
    live = e != 0
    dead = ~(live[:, [1, 2, 0]] & live[:, [2, 0, 1]])  # (j, k): a zero component
    for j in range(3):
        o = (j + 2) % 3
        for k in range(3):
            u, w = (k + 1) % 3, (k + 2) % 3
            p = e[j, u] * v[j, w] - e[j, w] * v[j, u]
            q = e[j, u] * v[o, w] - e[j, w] * v[o, u]
            g = edges[3 * j + k]
            reach = np.maximum(np.minimum(p, q), -np.maximum(p, q))
            np.subtract(ae[j, u] * h[w] + ae[j, w] * h[u], reach, out=g)
            np.copyto(g, np.inf, where=dead[j, k])
    normal_bound, edge_bound = _NORMAL_ERRBOUND * emax * ek, _EDGE_ERRBOUND * ek
    least = edges.min(axis=0)
    sep |= (normal < -normal_bound) | (least < -edge_bound)
    hit = ~sep & (normal > normal_bound) & (least > edge_bound)
    ask = np.nonzero(~sep & ~hit)
    if len(ask[0]):
        flat = tc.reshape(tc.shape[:-2] + (9,))
        rows = [np.broadcast_to(x, sep.shape + x.shape[-1:])[ask] for x in (flat, lo, hi)]
        # the axes each entry leaves open: 0 the normal, 1 + 3 j + k the edge axes
        open_axes = np.vstack([
            np.abs(normal[ask]) <= np.broadcast_to(normal_bound, sep.shape)[ask],
            np.abs(edges[(slice(None),) + ask]) <= np.broadcast_to(edge_bound, sep.shape)[ask],
        ])
        hit[ask] = _exact_contacts(np.hstack(rows).tolist(), open_axes.T.tolist())
    return hit


def _exact_contacts(rows: list, open_axes: list) -> list[bool]:
    """Whether no open axis separates each triangle and box of ``rows`` in
    :func:`_tri_box_overlap`, on integers.

    A row holds the 9 vertex coordinates, then ``lo`` and ``hi``; its flags
    in ``open_axes`` mark axis 0, the triangle normal, and 1 + 3 j + k, box
    normal k x edge j.  With every flag set it is that function's answer
    wherever no box normal separates the two.  Every coordinate is scaled
    to an integer by the batch's finest power of two (each float is an
    integer times a power of two, ``float.as_integer_ratio``), and each
    axis is tested with Akenine-Moller's projection and radius, doubled so
    that the box center is an integer too, and the tie rule.
    """
    ratios = {c: c.as_integer_ratio() for row in rows for c in row}
    d = max(q for _, q in ratios.values())
    scaled = {c: n * (d // q) for c, (n, q) in ratios.items()}
    found = []
    for row, flags in zip(rows, open_axes):
        x0, y0, z0, x1, y1, z1, x2, y2, z2, lx, ly, lz, hx, hy, hz = map(scaled.__getitem__, row)
        cx, cy, cz = lx + hx, ly + hy, lz + hz
        r = ((2 * x0 - cx, 2 * y0 - cy, 2 * z0 - cz), (2 * x1 - cx, 2 * y1 - cy, 2 * z1 - cz),
             (2 * x2 - cx, 2 * y2 - cy, 2 * z2 - cz))  # twice each vertex less the box center
        h = (hx - lx, hy - ly, hz - lz)  # twice the half widths
        e = ((x1 - x0, y1 - y0, z1 - z0), (x2 - x1, y2 - y1, z2 - z1), (x0 - x2, y0 - y2, z0 - z2))
        contact = True
        for i in (i for i, flag in enumerate(flags) if flag):
            if i == 0:
                (ax, ay, az), (bx, by, bz) = e[0], e[1]
                a = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
            else:
                ex, ey, ez = e[(i - 1) // 3]
                a = ((0, -ez, ey), (ez, 0, -ex), (-ey, ex, 0))[(i - 1) % 3]  # box normal k x edge j
            lead = a[0] or a[1] or a[2]
            if not lead:
                continue  # a zero axis never separates
            proj = [a[0] * q[0] + a[1] * q[1] + a[2] * q[2] for q in r]
            radius = abs(a[0]) * h[0] + abs(a[1]) * h[1] + abs(a[2]) * h[2]
            low, high = max(proj) + radius, min(proj) - radius
            if low < 0 or high > 0 or low == 0 < lead or high == 0 > lead:
                contact = False
                break
        found.append(contact)
    return found
