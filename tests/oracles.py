"""Independent reference implementations used only to check the engine.

Each oracle answers a question the engine also answers, by a different
route: point containment via generalized winding numbers instead of ray
parity, triangle-box overlap via half-space polygon clipping instead of
separating axes, volumes via closed forms.  Nothing here imports engine
geometry code beyond the mesh container.  The output writers at the end,
as they were before map rows were assembled as bytes, read an octree's
arrays and a field's, and only its leaf lookup and class codes from the
engine.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


def winding_numbers(mesh, points, chunk: int = 256) -> np.ndarray:
    """Generalized winding number of each point with respect to the mesh.

    Sum of signed solid angles of all triangles over 4*pi: about 1 inside a
    closed outward-oriented surface, about 0 outside, near 0.5 on it.
    """
    tc = mesh.tri_coords()
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.empty(len(pts))
    for start in range(0, len(pts), chunk):
        p = pts[start : start + chunk]
        a = tc[None, :, 0, :] - p[:, None, :]
        b = tc[None, :, 1, :] - p[:, None, :]
        c = tc[None, :, 2, :] - p[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        numer = np.einsum("pti,pti->pt", a, np.cross(b, c))
        denom = (
            la * lb * lc
            + np.einsum("pti,pti->pt", a, b) * lc
            + np.einsum("pti,pti->pt", b, c) * la
            + np.einsum("pti,pti->pt", c, a) * lb
        )
        omega = 2.0 * np.arctan2(numer, denom)
        out[start : start + chunk] = omega.sum(axis=1) / (4.0 * math.pi)
    return out


def winding_inside(mesh, points) -> np.ndarray:
    return winding_numbers(mesh, points) > 0.5


def clip_polygon_halfspace(poly, axis: int, bound: float, keep_greater: bool):
    """One Sutherland-Hodgman pass: keep the side of an axis plane."""
    sign = 1.0 if keep_greater else -1.0
    out = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        d0 = sign * (cur[axis] - bound)
        d1 = sign * (nxt[axis] - bound)
        if d0 >= 0.0:
            out.append(cur)
        if (d0 < 0.0) != (d1 < 0.0):
            t = d0 / (d0 - d1)
            out.append(cur + t * (nxt - cur))
    return out


def triangle_box_overlap(triangle, box_min, box_max) -> bool:
    """Closed-box triangle overlap by clipping the triangle to the box.

    The triangle polygon is clipped against the six box half-spaces; any
    surviving geometry (even a single touching point) means overlap.
    """
    poly = [np.asarray(v, dtype=np.float64) for v in triangle]
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    for axis in range(3):
        poly = clip_polygon_halfspace(poly, axis, lo[axis], keep_greater=True)
        if not poly:
            return False
        poly = clip_polygon_halfspace(poly, axis, hi[axis], keep_greater=False)
        if not poly:
            return False
    return True


def displaced_box_contact(triangle, box_min, box_max) -> bool:
    """Whether a triangle meets the closed box displaced by a symbolic
    (e, e**2, e**3), e -> 0+, in exact rational arithmetic.

    The separating-axis theorem over the 13 axes (3 box normals, the
    triangle normal, 9 box normal x edge products), with the exact
    projections of the 3 vertices and the box's exact extent along each
    axis, its corners' least and greatest projection, and no filter.
    The coordinates, exact ratios of integers, are brought to one
    denominator, so the arithmetic runs on their integer numerators.  The displacement shifts
    the corners' interval along axis a by a . d, an infinitesimal of the
    sign of a's first nonzero component.  So axis a separates when the
    vertices' interval lies below the corners', or above it, or touches it
    on the side the box moved away from.  A zero axis separates nothing.
    """
    ratios = [float(c).as_integer_ratio() for c in (*np.ravel(triangle), *box_min, *box_max)]
    scale = math.lcm(*(q for _, q in ratios))
    n = [a * (scale // q) for a, q in ratios]
    p, lo, hi = (n[0:3], n[3:6], n[6:9]), n[9:12], n[12:15]
    edges = [[q - r for q, r in zip(p[(i + 1) % 3], p[i])] for i in range(3)]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    axes = units + [cross(edges[0], edges[1])] + [cross(u, e) for u in units for e in edges]
    for a0, a1, a2 in axes:
        if not (a0 or a1 or a2):
            continue
        shift = a0 or a1 or a2  # of the sign of a . d
        tri = [a0 * x + a1 * y + a2 * z for x, y, z in p]
        # a box is a product of intervals: its extent adds up axis by axis
        ends = [(x * lo[k], x * hi[k]) for k, x in enumerate((a0, a1, a2))]
        low, high = sum(map(min, ends)), sum(map(max, ends))
        if max(tri) < low or max(tri) == low and shift > 0:
            return False
        if min(tri) > high or min(tri) == high and shift < 0:
            return False
    return True


def box_clip_integrals(triangle, box_min, box_max) -> tuple[float, float]:
    """The part of a triangle inside a closed box, in exact rational arithmetic.

    Returns its xy-projected area, signed by the triangle's n_z (positive
    facing up), and the integral over that projection of the triangle's
    height above the box floor.  The triangle is clipped against the six
    box planes with Fractions (Sutherland-Hodgman) and the projection
    summed as a fan.  A horizontal triangle counts only at heights in
    (z0, z1], the tie rule the octree keeps.
    """
    poly = [tuple(Fraction(float(c)) for c in v) for v in triangle]
    lo = [Fraction(float(c)) for c in box_min]
    hi = [Fraction(float(c)) for c in box_max]
    if len({v[2] for v in poly}) == 1 and not lo[2] < poly[0][2] <= hi[2]:
        return 0.0, 0.0
    for axis in range(3):
        for bound, sign in ((lo[axis], 1), (hi[axis], -1)):
            out = []
            for cur, nxt in zip(poly, poly[1:] + poly[:1]):
                d0, d1 = sign * (cur[axis] - bound), sign * (nxt[axis] - bound)
                if d0 >= 0:
                    out.append(cur)
                if (d0 < 0) != (d1 < 0):
                    t = d0 / (d0 - d1)
                    out.append(tuple(p + t * (q - p) for p, q in zip(cur, nxt)))
            poly = out
            if not poly:
                return 0.0, 0.0
    area = height = Fraction(0)
    a = poly[0]
    for b, c in zip(poly[1:], poly[2:]):
        fan = ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2
        area += fan
        height += fan * ((a[2] + b[2] + c[2]) / 3 - lo[2])
    return float(area), float(height)


def box_part_volume(mesh, box_min, box_max) -> float:
    """The part's volume inside one box R x [z0, z1], h = z1 - z0, by the
    divergence theorem: ``h * A(z1) + sum Pz``.

    ``A(z1)``, the area of the part's cross-section with R just above z1,
    is the sum of the P1 of :func:`box_clip_integrals` over the prism from
    the box top up to the mesh top; ``Pz`` is its height integral over the
    box.  Every term is exact, only the triangles whose bounds meet the
    closed prism or box are clipped (no other adds a term), and the terms
    are added with ``fsum``.
    """
    lo, hi = np.asarray(box_min, dtype=np.float64), np.asarray(box_max, dtype=np.float64)
    prism_lo = np.r_[lo[:2], hi[2]]
    prism_hi = np.r_[hi[:2], max(hi[2], mesh.metrics.bbox_max[2])]
    tc = mesh.tri_coords()
    tmin, tmax = tc.min(axis=1), tc.max(axis=1)

    def meeting(a, b):
        return tc[((tmin <= b) & (tmax >= a)).all(axis=1)]

    area = math.fsum(box_clip_integrals(t, prism_lo, prism_hi)[0] for t in meeting(prism_lo, prism_hi))
    heights = [box_clip_integrals(t, lo, hi)[1] for t in meeting(lo, hi)]
    return math.fsum([(hi[2] - lo[2]) * area, *heights])


def ramp_prism_volume(box_min, box_max, rect, floor, top, slope) -> float:
    """Volume inside a closed box of the solid over ``rect`` (x0, y0, x1, y1)
    between the heights ``floor`` and ``top + slope * x``, in exact rational
    arithmetic.

    Across x the solid's height inside the box is a linear ramp clamped to
    the box's z range; the clamps' kinks split x into pieces on which a
    trapezoid is exact.
    """
    lo = [Fraction(float(c)) for c in box_min]
    hi = [Fraction(float(c)) for c in box_max]
    x0, y0, x1, y1 = (Fraction(float(c)) for c in rect)
    x0, x1 = max(x0, lo[0]), min(x1, hi[0])
    y0, y1 = max(y0, lo[1]), min(y1, hi[1])
    z0, z1 = max(Fraction(float(floor)), lo[2]), hi[2]
    if x1 <= x0 or y1 <= y0 or z1 <= z0:
        return 0.0
    a, s = Fraction(float(top)), Fraction(float(slope))

    def height(x):
        return min(max(a + s * x, z0), z1) - z0

    kinks = {x0, x1}
    if s:
        kinks |= {x for x in ((z0 - a) / s, (z1 - a) / s) if x0 < x < x1}
    xs = sorted(kinks)
    area = sum((q - p) * (height(p) + height(q)) / 2 for p, q in zip(xs, xs[1:]))
    return float(area * (y1 - y0))


def find_leaves(root, path_keys, points) -> np.ndarray:
    """Each point's leaf, its row in ``path_keys``, or -1: the descent, every
    point a level at a time.

    ``root`` is the root box (lo, hi) and ``path_keys`` the leaves' path
    keys, row by row.  Outside the closed root box, or at a NaN, a point has
    no leaf.  At every level each point not yet at a leaf goes to the upper
    child on each axis where ``p > mid``, with ``mid = 0.5 * (lo + hi)`` of
    the box it is in, in float64: boxes are (lo, hi], as a face on a split
    plane meets only the box below.  A point stops once its path key is a
    leaf's (``np.isin``).  No split plane or Morton key is read.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    keys = np.asarray(path_keys, dtype=np.int64)
    lo = np.tile(np.asarray(root[0], dtype=np.float64), (len(p), 1))
    hi = np.tile(np.asarray(root[1], dtype=np.float64), (len(p), 1))
    inside = ((lo <= p) & (p <= hi)).all(axis=1)  # NaN included
    key = np.ones(len(p), dtype=np.int64)
    moving = inside & ~np.isin(key, keys)
    for _ in range(max(int(k).bit_length() for k in keys.tolist()) // 3):
        a = np.flatnonzero(moving)
        mid = 0.5 * (lo[a] + hi[a])
        up = p[a] > mid
        lo[a] = np.where(up, mid, lo[a])
        hi[a] = np.where(up, hi[a], mid)
        key[a] = key[a] << 3 | (up * np.array([1, 2, 4])).sum(axis=1)
        moving[a] = ~np.isin(key[a], keys)
    assert not moving.any(), "a point descended below the deepest leaf"
    order = np.argsort(keys)
    found = np.full(len(p), -1, dtype=np.int64)
    found[inside] = order[np.searchsorted(keys, key[inside], sorter=order)]
    return found


def triangle_sample_points(triangle, per_edge: int = 40) -> np.ndarray:
    """Dense barycentric lattice over a triangle, corners included."""
    v0, v1, v2 = (np.asarray(v, dtype=np.float64) for v in triangle)
    pts = []
    for i in range(per_edge + 1):
        for j in range(per_edge + 1 - i):
            u = i / per_edge
            w = j / per_edge
            pts.append(v0 + u * (v1 - v0) + w * (v2 - v0))
    return np.array(pts)


def sphere_volume(radius: float) -> float:
    return 4.0 / 3.0 * math.pi * radius**3


def sphere_area(radius: float) -> float:
    return 4.0 * math.pi * radius**2


def torus_volume(major_radius: float, minor_radius: float) -> float:
    return 2.0 * math.pi**2 * major_radius * minor_radius**2


def det_flip(vertices, triangles) -> bool:
    """Whether the triangles wind inward: the summed determinants of their
    corner matrices, one LU each, are negative."""
    return bool(np.linalg.det(np.asarray(vertices)[np.asarray(triangles)]).sum() < 0)


def icosphere_arrays(radius: float, subdivisions: int, center=(0.0, 0.0, 0.0)):
    """A subdivided icosahedron, one face and one edge midpoint at a time:
    its vertices (V, 3) float64 and outward triangles (T, 3) int32.

    Each face (a, b, c) takes the midpoints ab, bc, ca of a dict keyed by
    the sorted edge, which numbers a midpoint when the edge is first met,
    and becomes (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).  The
    vertices are then scaled onto the sphere, and the winding is flipped
    where :func:`det_flip` says so.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        np.array(v, dtype=np.float64)
        for v in [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ]
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            verts.append((verts[i] + verts[j]) / 2.0)
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    for _ in range(subdivisions):
        nxt = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt

    v = np.array(verts)
    v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
    v += np.asarray(center, dtype=np.float64)
    tris = np.asarray(faces, dtype=np.int32)
    if det_flip(v, tris):
        tris = tris[:, [0, 2, 1]]
    return v, tris


# The volume kernel as it was before each group became a slice of its
# chunk: every group is gathered by fancy indexing, every parallel
# constraint takes the offset test (twins included), and the bounds on t are
# picked by np.where.  Its rows of a triangle, corners in canonical order,
# are A, B - A, C - A and the doubled projected area.
_TURNS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [2, 1, 0]])
_CUT_BITS = np.uint8(1) << np.arange(6, dtype=np.uint8)
_CUT_PLANES = np.array([([q for q in range(6) if flags >> q & 1] + [0] * 6)[:6] for flags in range(64)])


def reference_pair_integrals(mesh, turns, tri, box_of, boxes, pair_budget=16_384, entry_budget=65_536):
    """``(P1, Pz)`` of each pair of triangle ``tri[k]`` and box ``box_of[k]``,
    as the engine's ``spatial._pair_integrals`` took them when each group
    of pairs with equal numbers of cutting planes was gathered from its
    chunk: the whole triangle in closed form where no plane cuts it, else
    :func:`reference_clipped_fans`; ``turns`` is ``spatial._turns`` of the
    mesh."""
    tc, side = mesh.tri_coords(), mesh._column_grid()._side
    p1, pz = np.zeros(len(tri)), np.zeros(len(tri))
    for s in range(0, len(tri), pair_budget):
        ids = tri[s : s + pair_budget]
        corner = _TURNS.take(turns.take(ids), axis=0) + 3 * ids[:, None]
        t = np.empty((10, len(ids)))
        t[:9] = tc.reshape(-1, 3).take(corner, axis=0).reshape(-1, 9).T
        a, b, c = t[0:3], t[3:6], t[6:9]
        bmin, bmax = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        b -= a
        c -= a
        t[9] = t[3] * t[7] - t[4] * t[6]
        sign = np.where(t[9] > 0, side.take(ids), 0)
        box = boxes.take(box_of[s : s + pair_budget], axis=0).T.copy()
        blo, bhi = box[:3], box[3:]
        gone = (bmax[:2] <= blo[:2]).any(axis=0) | (bmin[:2] >= bhi[:2]).any(axis=0)
        gone |= (sign == 0) | (bmax[2] <= blo[2])
        gone |= np.where(bmin[2] == bmax[2], bmax[2] > bhi[2], bmin[2] >= bhi[2])
        cuts = np.empty((6, len(ids)), dtype=bool)
        cuts[0::2] = (bmin < blo) & (blo < bmax)
        cuts[1::2] = (bmin < bhi) & (bhi < bmax)
        count = np.where(gone, -1, cuts.sum(axis=0))
        floor = t[2] - blo[2]
        flags = cuts.T.astype(np.uint8) @ _CUT_BITS
        whole = np.flatnonzero(count == 0)
        area = t[9, whole]
        p1[s + whole] = 0.5 * area
        pz[s + whole] = 0.5 * area * (floor[whole] + (t[5, whole] + t[8, whole]) / 3.0)
        for n in np.unique(count[count > 0]).tolist():
            group = np.flatnonzero(count == n)
            step = entry_budget // ((n + 1) * (n + 3))
            for rows in np.split(group, range(step, len(group), step)):
                planes = reference_box_planes(t[:, rows], box[:, rows], _CUT_PLANES.take(flags[rows], axis=0)[:, :n].T)
                p1[s + rows], pz[s + rows] = reference_clipped_fans(t[:, rows], floor[rows], planes)
        p1[s : s + len(ids)] *= sign
        pz[s : s + len(ids)] *= sign
    return p1, pz


def reference_box_planes(t, box, q):
    """(3, n, P) half-planes ``nx x + ny y + d >= 0``, in A's frame, of the
    box planes ``q`` (n, P) of each pair, numbered x0, x1, y0, y1, z0, z1;
    a z plane's normal is the height gradient times the doubled area."""
    b, c, area = t[3:6], t[6:9], t[9]
    axis, upper = q >> 1, q & 1
    sign = 1.0 - 2.0 * upper
    col = np.arange(q.shape[1])
    d = sign * (t[axis, col] - box[axis + 3 * upper, col])
    z = axis == 2
    nx = np.where(z, sign * (b[2] * c[1] - c[2] * b[1]), np.where(axis == 0, sign, 0.0))
    ny = np.where(z, sign * (c[2] * b[0] - b[2] * c[0]), np.where(axis == 1, sign, 0.0))
    return np.array([nx, ny, np.where(z, d * area, d)])


def reference_offsets_shut(d_j, n_j, d_i, n_i, j_below):
    """The parallel test of :func:`reference_clipped_fans` on constraint j
    (offset term ``d_j``, normal ``n_j`` (2, K)) against line i: whether j
    shuts i, with ``j_below`` where j's index is the lower one."""
    off_j = d_j / np.hypot(n_j[0], n_j[1])
    off_i = d_i / np.hypot(n_i[0], n_i[1])
    same = n_j[0] * n_i[0] + n_j[1] * n_i[1] > 0
    return np.where(same, (off_j < off_i) | (off_j == off_i) & j_below, off_i + off_j < 0)


def reference_clipped_fans(t, floor, planes):
    """Unsigned ``(P1, Pz)`` of P pairs cut by n planes each: edge BC and
    the planes as outline lines, each clipped by the other n + 2
    half-planes, its fan from A summed; every parallel constraint takes
    :func:`reference_offsets_shut`, and the bounds on t are ``np.where``
    selects."""
    b, c, area = t[3:6], t[6:9], t[9]
    n = planes.shape[1]
    gx, gy = b[2] * c[1] - c[2] * b[1], c[2] * b[0] - b[2] * c[0]
    zero = np.zeros(t.shape[1])
    nx = np.concatenate([[-b[1], b[1] - c[1], c[1]], planes[0]])
    ny = np.concatenate([[b[0], c[0] - b[0], -c[0]], planes[1]])
    d = np.concatenate([[zero, area, zero], planes[2]])
    lines = np.r_[1, 3 : 3 + n]
    lx, ly, ld = nx[lines], ny[lines], d[lines]
    norm = lx * lx + ly * ly
    foot = -ld / norm
    px, py = foot * lx, foot * ly
    ux, uy = ly, -lx
    cx, cy, cd = nx[:, None], ny[:, None], d[:, None]
    det = lx * cy - ly * cx
    with np.errstate(divide="ignore", invalid="ignore"):
        cut_t = (cd * ly - ld * cy) / det * ux
        cut_t += (ld * cx - cd * lx) / det * uy
    cut_t /= norm
    parallel = det == 0
    parallel[lines, np.arange(n + 1)] = False
    out = np.zeros(det.shape[1:], dtype=bool)
    j, i, p = np.nonzero(parallel)
    shut = reference_offsets_shut(d[j, p], (nx[j, p], ny[j, p]), ld[i, p], (lx[i, p], ly[i, p]), j < lines[i])
    out[i[shut], p[shut]] = True
    t0 = np.where(det < 0, cut_t, -np.inf).max(axis=0)
    t1 = np.where(det > 0, cut_t, np.inf).min(axis=0)
    span = np.where(out | ~(t1 > t0), 0.0, t1 - t0)
    fan = 0.5 * ld * span
    mid = np.where(span > 0, t0 + t1, 0.0)
    rise = (gx * (2.0 * px + mid * ux) + gy * (2.0 * py + mid * uy)) / area
    return fan.sum(axis=0), (fan * (floor + rise / 3.0)).sum(axis=0)


# ---------------------------------------------------------------------------
# The output writers as they were before map rows were assembled as bytes and
# grey-leaf columns spelled once per octree: every row is ``%``-formatted,
# the VTK writer spells every coordinate of every non-white box, and the
# report writer spells every float list of every field on its own.

_CHUNK_ROWS = 4096
_HEX_CORNERS = np.array(
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
)


def reference_spell(fmt, values):
    """``fmt % v`` once per distinct float64 bit pattern of ``values``, and
    each element's index among the spellings."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits, which = np.unique(v.view(np.int64), return_inverse=True)
    words = np.array([fmt % x for x in bits.view(np.float64).tolist()], dtype=object)
    return words, which.reshape(v.shape)


def reference_rows(fmt, table):
    """``%``-style ``fmt`` filled from each row of the 2-D ``table``, one ``%``
    operation per ``_CHUNK_ROWS`` rows."""
    for s in range(0, len(table), _CHUNK_ROWS):
        rows = table[s : s + _CHUNK_ROWS]
        yield (fmt * len(rows)) % tuple(rows.ravel().tolist())


def reference_vtk_map(octree, field, scale) -> bytes:
    """The VTK map of ``field`` on ``octree`` under the color scale ``scale``."""
    from manumap.spatial import _GREY, _WHITE

    cells = np.flatnonzero(octree.class_code != _WHITE)
    n_cells = len(cells)
    words, which = reference_spell("%.9g", np.stack([octree.box_min[cells], octree.box_max[cells]], axis=1))
    words, rank = np.unique(words, return_inverse=True)
    end_rank = rank[which]  # (C, 2, 3)
    k = len(words)
    key = end_rank[:, _HEX_CORNERS[:, 0], 0]
    for a in (1, 2):
        key = key * k + end_rank[:, _HEX_CORNERS[:, a], a]
    keys, corner_point = np.unique(key.ravel(), return_inverse=True)
    points = words[np.stack([keys // (k * k), keys // k % k, keys % k], axis=1)]
    values = np.full(n_cells, float(scale.lo))
    values[octree.class_code[cells] == _GREY] = field.values
    value_words, value_which = reference_spell("%.9g", values)
    return "".join(
        [
            "# vtk DataFile Version 3.0\n",
            f"difficulty map {field.index_id}\n",
            "ASCII\n",
            "DATASET UNSTRUCTURED_GRID\n",
            f"POINTS {len(points)} float\n",
            *reference_rows("%s %s %s\n", points),
            f"CELLS {n_cells} {9 * n_cells}\n",
            *reference_rows("8" + " %d" * 8 + "\n", corner_point.reshape(n_cells, 8)),
            f"CELL_TYPES {n_cells}\n",
            "12\n" * n_cells,
            f"CELL_DATA {n_cells}\n",
            "SCALARS difficulty float 1\n",
            "LOOKUP_TABLE default\n",
            *reference_rows("%s\n", value_words[value_which][:, None]),
        ]
    ).encode()


def reference_ply_map(mesh, octree, field, scale) -> bytes:
    """The PLY map of ``field`` on ``octree`` over ``mesh`` under the color scale ``scale``."""
    values = np.full(len(octree.path_key), float(scale.lo))
    values[octree.grey_index] = field.values
    leaf = octree.find_leaves(mesh.vertices)
    shades = np.where(leaf >= 0, values[leaf], scale.lo)
    colors = np.array(["%d %d %d" % tuple(c) for c in scale.rgb(shades).tolist()], dtype=object)
    words, which = reference_spell("%.9g", mesh.vertices)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"comment difficulty map {field.index_id}\n"
        f"comment scale {scale.lo!r} {scale.hi!r}\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    return "".join(
        [
            header,
            *reference_rows("%s %s %s %s\n", np.column_stack([words[which], colors])),
            *reference_rows("3 %d %d %d\n", mesh.triangles),
        ]
    ).encode()


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def reference_json_parts(obj, out):
    """Append to ``out`` the text ``_encode(obj)`` gives, spelling each list of
    finite floats with ``repr`` once per distinct value, wherever it is."""
    if type(obj) is dict and all(type(k) is str for k in obj):
        sep = "{"
        for key in sorted(obj):
            out.append(sep + _encode(key) + ":")
            reference_json_parts(obj[key], out)
            sep = ","
        out.append("}" if obj else "{}")
        return
    if type(obj) is list and set(map(type, obj)) == {float}:
        values = np.array(obj, dtype=np.float64)
        if np.isfinite(values).all():
            words, which = reference_spell("%r", values)
            out.append("[" + ",".join(words[which].tolist()) + "]")
            return
    out.append(_encode(obj))


def reference_report_json(report, schema_version) -> str:
    """The report file's text: every field's every column spelled from ``to_dict()``."""
    out = []
    reference_json_parts({"schema_version": schema_version, "report": report.to_dict()}, out)
    out.append("\n")
    return "".join(out)
