"""Triangle-mesh loading, measurement, and the geometric predicates used everywhere else.

All lengths are millimeters.  A :class:`TriMesh` is immutable after load;
its derived data is computed on first use and cached.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMeshError, NotWatertightError, ParseError

log = logging.getLogger(__name__)

#: Vertices closer than this (mm) are merged into one during load.
WELD_TOLERANCE_MM = 1e-4

#: Points within ``BOUNDARY_EPS_REL * max_dimension`` of the surface classify
#: as on-boundary.
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
_SAT_PAIR_BUDGET = 4_096  # (triangle, box group) pairs per SAT chunk


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
            tc = self.vertices[self.triangles]
            tc.setflags(write=False)
            self._tri_coords = tc
        return self._tri_coords

    def tri_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle bounding boxes ``(tmin, tmax)``, each (M, 3).

        Bitwise equal to ``tri_coords().min(axis=1)`` and ``.max(axis=1)``,
        built from the three vertex slices, which is faster than that
        strided reduction.
        """
        if self._tri_bounds is None:
            a, b, c = np.moveaxis(self.tri_coords(), 1, 0)
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
    keys = np.round(flat / WELD_TOLERANCE_MM).astype(np.int64)
    # rows in lexicographic key order (x first), equal keys in input order:
    # the order and first occurrences of np.unique(keys, axis=0)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    vertices = flat[order[start]]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    triangles = inverse.reshape(-1, 3)

    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    distinct = (a != b) & (b != c) & (c != a)
    va, vb, vc = vertices[a], vertices[b], vertices[c]
    area2 = np.linalg.norm(np.cross(vb - va, vc - va), axis=1)
    # per-axis 1-D reductions: bitwise equal to np.ptp(flat, axis=0).max(), and faster
    span = max(flat[:, a].max() - flat[:, a].min() for a in range(3)) if len(flat) else 0.0
    keep = distinct & (area2 > 1e-12 * max(span, 1.0) ** 2)
    triangles = triangles[keep]
    if len(triangles) == 0:
        raise EmptyMeshError("no non-degenerate triangles after welding")

    # the used vertex ids in ascending order, as np.unique(triangles) but without its sort
    used = np.flatnonzero(np.bincount(triangles.ravel(), minlength=len(vertices)))
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(vertices[used], remap[triangles])


# ---------------------------------------------------------------------------
# Metrics


def _measure(mesh: TriMesh) -> MeshMetrics:
    tc = mesh.tri_coords()
    bbox_min = mesh.vertices.min(axis=0)
    bbox_max = mesh.vertices.max(axis=0)
    area = 0.5 * np.linalg.norm(
        np.cross(tc[:, 1] - tc[:, 0], tc[:, 2] - tc[:, 0]), axis=1
    ).sum()
    volume = np.linalg.det(tc).sum() / 6.0
    return MeshMetrics(
        bbox_min=tuple(bbox_min),
        bbox_max=tuple(bbox_max),
        max_dimension=float((bbox_max - bbox_min).max()),
        surface_area=float(area),
        volume=float(volume),
        watertight=_is_watertight(mesh),
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

    The mesh must be watertight.  Parity is decided by the exact vertical-ray
    kernel of :class:`_ColumnGrid`, so the result is deterministic.  Points
    within ``BOUNDARY_EPS_REL * max_dimension`` of the surface are on it.
    """
    res = classify_points(mesh, np.asarray(point, dtype=np.float64).reshape(1, 3))
    return PointClass(int(res[0]))


def classify_points(mesh: TriMesh, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`point_in_mesh` over an (N, 3) array.

    Returns an int8 array of :class:`PointClass` values.  Off the boundary
    band, a point is inside when its vertical line crosses the surface an
    odd number of times above it (:meth:`_ColumnGrid.crossings`).
    """
    metrics = mesh.metrics
    if not metrics.watertight:
        raise NotWatertightError("point containment needs a watertight mesh")
    pts = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)

    on = _near_surface(mesh, pts, BOUNDARY_EPS_REL * metrics.max_dimension)

    inside = _points_inside(mesh, pts)
    out = np.where(inside, np.int8(PointClass.INSIDE), np.int8(PointClass.OUTSIDE))
    out[on] = np.int8(PointClass.ON_BOUNDARY)
    return out


def _points_inside(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    """Parity-only inside test (no boundary band): :func:`_heights_inside`, one line per point."""
    return _heights_inside(mesh, pts[:, :2], pts[:, 2], np.arange(len(pts) + 1))


def _heights_inside(mesh: TriMesh, xy: np.ndarray, hz: np.ndarray, hptr: np.ndarray) -> np.ndarray:
    """Inside flags of heights on vertical lines, by parity.  Internal workhorse.

    Line i at ``xy[i]`` carries the heights ``hz[hptr[i]:hptr[i + 1]]``, as
    in :meth:`_ColumnGrid.crossings`, which casts each line once.  Each
    answer depends only on (mesh, point), never on batch composition, so
    any batching of the points gives the same answers.
    """
    if not mesh.metrics.watertight:
        raise NotWatertightError("point containment needs a watertight mesh")
    return mesh._column_grid().crossings(xy, hz, hptr) % 2 == 1


def _near_surface(mesh: TriMesh, pts: np.ndarray, eps: float) -> np.ndarray:
    """Whether each of the (N, 3) ``pts`` lies within ``eps`` of some triangle.

    Only a triangle whose bounds come within ``eps`` of a point can be that
    close, so each point meets only the triangles of the column grid's
    cells under its ``2 eps`` square whose bounds lie within ``2 eps`` of
    it (the margin absorbs the distance's rounding), and each such pair
    takes :func:`_point_triangle_distance`.  That is the distance the pair
    would have against every triangle, so the answer is the brute force's.
    Points go in chunks of ``_PAIR_BUDGET // 64``, a few bucket entries each.
    """
    grid = mesh._column_grid()
    tc, (tmin, tmax) = mesh.tri_coords(), mesh.tri_bounds()
    band, res = 2.0 * eps, grid._res
    on = np.zeros(len(pts), dtype=bool)
    for s in range(0, len(pts), _PAIR_BUDGET // 64):
        q = pts[s : s + _PAIR_BUDGET // 64]
        i0 = np.floor((q[:, :2] - band - grid._lo) / grid._cell).astype(np.int64)
        i1 = np.floor((q[:, :2] + band - grid._lo) / grid._cell).astype(np.int64)
        hit = ((i1 >= 0) & (i0 < res)).all(axis=1)
        i0, i1 = np.clip(i0, 0, res - 1), np.clip(i1, 0, res - 1)
        # (point, cell) pairs: each point's square of cells, row by row
        nx, ny = i1[:, 0] - i0[:, 0] + 1, i1[:, 1] - i0[:, 1] + 1
        per = np.where(hit, nx * ny, 0)
        point = np.repeat(np.arange(len(q)), per)
        k = np.arange(len(point)) - np.repeat(np.cumsum(per) - per, per)
        cell = (i0[point, 0] + k // ny[point]) * res + i0[point, 1] + k % ny[point]
        # (point, triangle) pairs: each cell's bucket, then the triangles near the point
        size = grid._ptr[cell + 1] - grid._ptr[cell]
        slot = np.repeat(grid._ptr[cell] - (np.cumsum(size) - size), size) + np.arange(int(size.sum()))
        point, tri = np.repeat(point, size), grid._tids[slot]
        near = ((tmin[tri] - band <= q[point]) & (q[point] <= tmax[tri] + band)).all(axis=1)
        point, tri = point[near], tri[near]
        on[s + point[_point_triangle_distance(tc[tri], q[point]) <= eps]] = True
    return on


def _point_triangle_distance(tc: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each point ``p`` (K, 3) to its triangle ``tc`` (K, 3, 3) (Ericson's method)."""
    a, b, c = tc[:, 0], tc[:, 1], tc[:, 2]
    ab = b - a
    ac = c - a
    bc = c - b
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = (ab * ap).sum(axis=1)
    d2 = (ac * ap).sum(axis=1)
    d3 = (ab * bp).sum(axis=1)
    d4 = (ac * bp).sum(axis=1)
    d5 = (ab * cp).sum(axis=1)
    d6 = (ac * cp).sum(axis=1)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.nan_to_num(d1 / (d1 - d3))
        t_ac = np.nan_to_num(d2 / (d2 - d6))
        t_bc = np.nan_to_num((d4 - d3) / ((d4 - d3) + (d5 - d6)))
        denom = va + vb + vc
        v_in = np.where(denom != 0.0, vb / denom, 0.0)
        w_in = np.where(denom != 0.0, vc / denom, 0.0)

    closest = a + v_in[..., None] * ab + w_in[..., None] * ac
    on_bc = (vc <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    closest = np.where(on_bc[..., None], b + np.clip(t_bc, 0, 1)[..., None] * bc, closest)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(on_ac[..., None], a + np.clip(t_ac, 0, 1)[..., None] * ac, closest)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(on_ab[..., None], a + np.clip(t_ab, 0, 1)[..., None] * ab, closest)
    closest = np.where(((d6 >= 0) & (d5 <= d6))[..., None], c, closest)
    closest = np.where(((d3 >= 0) & (d4 <= d3))[..., None], b, closest)
    closest = np.where(((d1 <= 0) & (d2 <= 0))[..., None], a, closest)
    return np.linalg.norm(p - closest, axis=1)


class _ColumnGrid:
    """2D bucket grid over the xy plane for vertical (+z) ray parity.

    Shared, read-only acceleration structure: point classification, the
    octree's box-center casts and the tool-reach probes all cast vertical
    lines, and bucketing triangles by xy footprint makes each line O(local
    triangles) instead of O(all).  The boundary band of
    :func:`classify_points` reads the buckets too, and the octree's volume
    kernel reads the exact area signs.  The buckets are stored CSR-style: cell
    ``c`` holds triangles ``tids[ptr[c]:ptr[c + 1]]`` in ascending order.
    :meth:`crossings` is the one kernel: it casts each line once and
    answers any number of heights on it, so callers whose points share
    lines (stacked octree boxes) pass each line once.

    Whether a line crosses a triangle is decided exactly (:meth:`_hits`),
    with ties broken by one symbolic perturbation of the line, so every
    line through a closed mesh crosses it an even number of times, edges
    and vertices included.

    Resolution: ``sqrt(8 M)`` cells per axis for M triangles, clipped to
    [4, 128] (128 keeps a cell id in a uint16).  A line evaluates every
    triangle of its cell, and most of them cannot cross it; finer cells
    cut those pairs, while buckets grow only where triangles span several
    cells.  Measured on octree builds of the benchmark fixtures (run 101,
    one line per box center), ``sqrt(M / 2)`` -> ``sqrt(8 M)`` cells per
    axis, when grey leaves were still volume-sampled on vertical lines:

    - the 68-triangle split-redesign block at depth 5, res 5 -> 23:
      center casts 56,640 -> 31,216 pairs, grey sampling 166,942 ->
      83,202; of these, the same 43,918 cross or graze, so the share of
      wasted pairs fell from 80 % to 62 %;
    - ``icosphere(10, 4)`` at depth 6, res 50 -> 128 (29,588 -> 106,960
      bucket entries): 369,400 -> 193,560 and 742,098 -> 416,291.

    The cell count decides only which pairs a line evaluates, never what
    an evaluated pair answers.
    """

    def __init__(
        self, tc: np.ndarray, bounds: tuple[np.ndarray, np.ndarray], scale: float
    ):
        """Bucket the triangles ``tc`` (M, 3, 3) by the xy part of their
        ``bounds``, the ``(tmin, tmax)`` of :meth:`TriMesh.tri_bounds`."""
        xy = tc[..., :2]
        tmin, tmax = bounds[0][:, :2], bounds[1][:, :2]
        pad = 1e-9 * max(scale, 1.0)
        self._lo = tmin.min(axis=0) - pad
        hi = tmax.max(axis=0) + pad
        self._res = res = int(np.clip(np.sqrt(8.0 * len(tc)), 4, 128))
        self._cell = np.maximum((hi - self._lo) / res, 1e-12)

        i0 = np.clip(((tmin - self._lo) / self._cell).astype(np.int64), 0, res - 1)
        i1 = np.clip(((tmax - self._lo) / self._cell).astype(np.int64), 0, res - 1)
        # one (triangle, cell) entry per cell of each footprint rectangle
        ny = i1[:, 1] - i0[:, 1] + 1
        per_tri = (i1[:, 0] - i0[:, 0] + 1) * ny
        tri = np.repeat(np.arange(len(tc), dtype=np.int64), per_tri)
        k = np.arange(len(tri)) - np.repeat(np.cumsum(per_tri) - per_tri, per_tri)
        cells = (i0[tri, 0] + k // ny[tri]) * res + (i0[tri, 1] + k % ny[tri])
        cells = cells.astype(np.uint16)  # res <= 128: a stable sort of uint16 is a radix sort
        order = np.argsort(cells, kind="stable")
        self._tids = tri[order]
        self._ptr = np.zeros(res * res + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=res * res), out=self._ptr[1:])

        # Per-triangle setup, one contiguous row per triangle so a gather by
        # triangle id reads one row: A, B, C in xy, doubled signed area, vertex z.
        A, B, C = xy[:, 0], xy[:, 1], xy[:, 2]
        u, v = B - A, C - A
        l, r = u[:, 0] * v[:, 1], u[:, 1] * v[:, 0]
        area = l - r
        self._tab = np.column_stack([A, B, C, area, tc[..., 2]])
        # the exact sign of each projected area; 0 marks a vertical triangle
        self._side = np.sign(area)
        for i in np.flatnonzero(~(np.abs(area) > _CCW_ERRBOUND * (np.abs(l) + np.abs(r)))):
            det = _exact_det(*B[i], *C[i], *A[i])
            self._side[i] = (det > 0) - (det < 0)

    def _cells_of(self, xy: np.ndarray) -> np.ndarray:
        ij = np.floor((xy - self._lo) / self._cell).astype(np.int64)
        valid = (ij >= 0).all(axis=1) & (ij < self._res).all(axis=1)
        cell = np.where(valid, ij[:, 0] * self._res + ij[:, 1], -1)
        return cell

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
        t = self._tab.take(tids, axis=0).T.copy()  # (10, N), one row per quantity
        # offsets from the line, in place: t's rows 0-5 become A-P, B-P, C-P
        t[0:6:2] -= px
        t[1:6:2] -= py
        ax, ay, bx, by, cx, cy, denom, z0, z1, z2 = t
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
            row = self._tab[tids[i]]
            for k in range(3):
                if agree[k, i] > -bound[k, i]:
                    continue  # this orientation is sure
                u, v = 2 * ((k + 1) % 3), 2 * ((k + 2) % 3)  # edge k: BC, CA, AB
                ux, uy, vx, vy = row[u], row[u + 1], row[v], row[v + 1]
                d = _exact_det(ux, uy, vx, vy, px[i], py[i]) or uy - vy or vx - ux
                if (d > 0) != (side[i] > 0):
                    break
            else:
                hit[i] = True
        hit = np.flatnonzero(hit)
        la, lb, lc = det[:, hit] / denom[hit]
        return hit, la * z0[hit] + lb * z1[hit] + lc * z2[hit]

    def crossings(self, xy: np.ndarray, hz: np.ndarray, hptr: np.ndarray) -> np.ndarray:
        """Count surface crossings strictly above many heights per vertical line.

        ``xy`` (N, 2) places N lines; line i is asked about the heights
        ``hz[hptr[i]:hptr[i + 1]]`` (a CSR: one flat array of heights, one
        offset per line).  Returns the number of crossings above each
        height, shaped like ``hz``.  A crossing is above a height when its
        barycentric surface height (:meth:`_hits`) is greater, so a height
        on the surface counts the crossing there as not above; that point
        is on the boundary, where either parity is a right answer.

        Every line is evaluated once against its cell's triangles, in chunks
        of at most :data:`_COLUMN_PAIR_BUDGET` (line, triangle) pairs, and
        only the pairs that cross are tested against the line's heights:
        any other pair adds to no count.  Each (pair, height) test is
        ``zt > z``, elementwise, so a height's answer does not depend on
        what else its line or its batch asks.
        """
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        px, py = xy.T
        hz = np.asarray(hz, dtype=np.float64)
        hptr = np.asarray(hptr, dtype=np.int64)
        n = len(px)
        counts = np.zeros(len(hz), dtype=np.int64)
        cells = self._cells_of(xy)
        valid = cells >= 0
        first = np.where(valid, self._ptr[np.maximum(cells, 0)], 0)
        num = np.where(valid, self._ptr[cells + 1] - first, 0)  # outside the grid: none
        ends = np.cumsum(num)
        start = 0
        while start < n:
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
                k = hptr[line + 1] - hptr[line]
                h = np.arange(int(k.sum())) + np.repeat(hptr[line] - (np.cumsum(k) - k), k)
                above = np.repeat(zt, k) > hz[h]
                base, size = hptr[start], hptr[stop] - hptr[start]
                counts[base : base + size] = np.bincount(h[above] - base, minlength=size)
            start = stop
        return counts


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
# Triangle / box intersection


def triangle_box_intersect(triangle, box_min, box_max) -> bool:
    """Exact separating-axis test between one triangle and a closed AABB.

    Touching contact counts as intersection.  13 axes: 3 box normals, the
    triangle normal, and the 9 edge cross-products.
    """
    tri = np.asarray(triangle, dtype=np.float64).reshape(1, 3, 3)
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    center = (0.5 * (lo + hi)).reshape(1, 3)
    half = (0.5 * (hi - lo)).reshape(1, 3)
    return bool(_tri_box_overlap(tri, center, half)[0])


def _separated(p0, p1, p2, rad):
    """One SAT axis: the projections ``p0, p1, p2`` of a triangle's vertices,
    taken relative to the box center, all lie outside the box's ``[-rad, rad]``."""
    lo = np.minimum(np.minimum(p0, p1), p2)
    hi = np.maximum(np.maximum(p0, p1), p2)
    return (lo > rad) | (hi < -rad)


def _tri_box_overlap(tc: np.ndarray, centers: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """SAT overlap of triangles ``tc`` (..., 3, 3) and boxes ``centers`` /
    ``halves`` (..., 3); returns bool (...).

    The leading axes have equal rank and broadcast against each other: one
    box against many triangles is ``(M, 3, 3)`` against ``(1, 3)``, and the
    octree pairs each triangle ``(P, 1, 3, 3)`` with its node's 8 children
    ``(P, 8, 3)``.  Every axis test is elementwise over the leading axes, so
    a pair's answer does not depend on what else is in the batch.

    The 3 box-normal axes come first, as in Akenine-Moller's ordering.  The
    octree runs them alone first, on each triangle's bounds less the box
    center: ``fl(min(p) - c) == min(fl(p - c))`` because rounding is
    monotone, so an entry they separate would be False here too.  A
    triangle whose offsets ``v = fl(p - c)`` all lie in ``[-h, h]`` would be
    True here, bit for bit, so the octree counts it a hit without this test:
    every projection below is built from products ``|fl(x * v)| = fl(|x| *
    |v|) <= fl(|x| * h)`` and sums taken in the same order as its radius's.
    Needles and zero-area triangles included, neither shortcut changes an
    answer.
    """
    tri = np.moveaxis(tc, (-2, -1), (0, 1))  # (vertex, axis, ...)
    hx, hy, hz = np.moveaxis(halves, -1, 0)
    v = tri - np.moveaxis(centers, -1, 0)  # vertices relative to the box center

    # box face normals
    sep = _separated(*v[:, 0], hx)
    sep |= _separated(*v[:, 1], hy)
    sep |= _separated(*v[:, 2], hz)

    # triangle normal
    e0, e1, e2 = tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]
    nx = e0[1] * e1[2] - e0[2] * e1[1]
    ny = e0[2] * e1[0] - e0[0] * e1[2]
    nz = e0[0] * e1[1] - e0[1] * e1[0]
    d = nx * v[0, 0] + ny * v[0, 1] + nz * v[0, 2]
    sep |= np.abs(d) > hx * np.abs(nx) + hy * np.abs(ny) + hz * np.abs(nz)

    # axes (1,0,0) x e, (0,1,0) x e, (0,0,1) x e; their zero component is skipped
    for ex, ey, ez in (e0, e1, e2):
        ax, ay, az = np.abs(ex), np.abs(ey), np.abs(ez)
        sep |= _separated(*(-ez * v[i, 1] + ey * v[i, 2] for i in range(3)), hy * az + hz * ay)
        sep |= _separated(*(ez * v[i, 0] - ex * v[i, 2] for i in range(3)), hx * az + hz * ax)
        sep |= _separated(*(-ey * v[i, 0] + ex * v[i, 1] for i in range(3)), hx * ay + hy * ax)
    return ~sep
