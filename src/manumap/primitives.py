"""Parametric watertight meshes for experiments, demos, and tests.

Every builder returns an outward-oriented :class:`~manumap.mesh_io.TriMesh`.
These are engine-side conveniences; production parts normally arrive as STL
or OFF files through :func:`manumap.mesh_io.load_mesh`.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .mesh_io import TriMesh


def _oriented(vertices: np.ndarray, triangles) -> TriMesh:
    """Build a TriMesh, flipping winding if the signed volume came out negative.

    The sign is that of the summed triple products ``a . (b x c)``, six
    times the signed volume of the solid.
    """
    tris = np.asarray(triangles, dtype=np.int32)
    tc = vertices[tris]
    if np.einsum("ij,ij->", tc[:, 0], np.cross(tc[:, 1], tc[:, 2])) < 0:
        tris = tris[:, [0, 2, 1]]
    return TriMesh(vertices, tris)


def box_mesh(extents, origin=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned solid box: ``origin`` is its min corner."""
    ex, ey, ez = (float(v) for v in extents)
    ox, oy, oz = (float(v) for v in origin)
    if min(ex, ey, ez) <= 0:
        raise ValueError("box extents must be positive")
    corners = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=np.float64,
    ) * (ex, ey, ez) + (ox, oy, oz)
    quads = [
        (0, 3, 2, 1),  # bottom, -z
        (4, 5, 6, 7),  # top, +z
        (0, 1, 5, 4),  # -y
        (2, 3, 7, 6),  # +y
        (1, 2, 6, 5),  # +x
        (3, 0, 4, 7),  # -x
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(corners, np.array(tris, dtype=np.int32))


def icosphere(radius: float, subdivisions: int = 3, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Sphere approximated by a subdivided icosahedron.

    Triangle count is ``20 * 4**subdivisions``; all vertices lie on the
    sphere of the given radius, to rounding.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 0 <= subdivisions <= 7:
        raise ValueError("subdivisions out of range")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    v = np.array(verts, dtype=np.float64)
    f = np.array(faces, dtype=np.int64)
    for _ in range(subdivisions):
        # Each face's edges ab, bc, ca, face by face; a midpoint is numbered
        # in the order of its edge's first use and taken from that use's ends.
        p, q = f.ravel(), f[:, [1, 2, 0]].ravel()
        key = np.minimum(p, q) * len(v) + np.maximum(p, q)
        _, first, edge = np.unique(key, return_index=True, return_inverse=True)
        new = np.zeros(len(key), dtype=bool)
        new[first] = True
        number = np.cumsum(new) + (len(v) - 1)
        v = np.concatenate([v, (v[p[new]] + v[q[new]]) / 2.0])
        a, b, c = f.T
        ab, bc, ca = number[first[edge]].reshape(-1, 3).T
        f = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
    v += np.asarray(center, dtype=np.float64)
    return _oriented(v, f)


def torus_mesh(
    major_radius: float,
    minor_radius: float,
    segments_major: int = 32,
    segments_minor: int = 16,
    center=(0.0, 0.0, 0.0),
) -> TriMesh:
    """Torus around the vertical axis through ``center``."""
    if not 0 < minor_radius < major_radius:
        raise ValueError("need 0 < minor_radius < major_radius")
    nu, nv = segments_major, segments_minor
    if nu < 3 or nv < 3:
        raise ValueError("need at least 3 segments in each direction")
    theta = 2 * np.pi * np.arange(nu) / nu
    phi = 2 * np.pi * np.arange(nv) / nv
    ring = major_radius + minor_radius * np.cos(phi)[None, :]
    x = ring * np.cos(theta)[:, None]
    y = ring * np.sin(theta)[:, None]
    z = np.broadcast_to(minor_radius * np.sin(phi)[None, :], (nu, nv))
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3) + np.asarray(center, float)

    tris = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            tris.append((a, b, c))
            tris.append((a, c, d))
    return _oriented(verts, tris)


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _triangulate_polygon(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """Ear-clipping triangulation of a simple polygon (no holes)."""
    n = len(poly)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    order = list(range(n))
    if _signed_area(poly) < 0:
        order.reverse()
    scale = float(np.ptp(poly, axis=0).max())
    eps = 1e-12 * max(scale, 1.0) ** 2

    def cross(o, a, b):
        return (poly[a, 0] - poly[o, 0]) * (poly[b, 1] - poly[o, 1]) - (
            poly[a, 1] - poly[o, 1]
        ) * (poly[b, 0] - poly[o, 0])

    tris: list[tuple[int, int, int]] = []
    remaining = order[:]
    guard = 0
    while len(remaining) > 3:
        guard += 1
        if guard > 10 * n * n:
            raise ValueError("polygon appears self-intersecting")
        clipped = False
        for k in range(len(remaining)):
            prev = remaining[k - 1]
            cur = remaining[k]
            nxt = remaining[(k + 1) % len(remaining)]
            if cross(prev, cur, nxt) <= eps:
                continue  # reflex or collinear corner
            ear = True
            for other in remaining:
                if other in (prev, cur, nxt):
                    continue
                # inside-or-on test against the candidate ear
                if (
                    cross(prev, cur, other) >= -eps
                    and cross(cur, nxt, other) >= -eps
                    and cross(nxt, prev, other) >= -eps
                ):
                    ear = False
                    break
            if ear:
                tris.append((prev, cur, nxt))
                remaining.pop(k)
                clipped = True
                break
        if not clipped:
            raise ValueError("polygon could not be triangulated")
    tris.append((remaining[0], remaining[1], remaining[2]))
    return tris


def extrude_polygon(profile, length: float) -> TriMesh:
    """Extrude a simple polygon into a prism.

    ``profile`` is a sequence of (x, z) pairs in the xz plane, swept from
    y=0 to y=length.  Handy for L-sections, T-sections, and other
    constant-cross-section parts.
    """
    poly = np.asarray(profile, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
        raise ValueError("profile must be a sequence of at least 3 (x, z) pairs")
    if length <= 0:
        raise ValueError("length must be positive")

    cap = _triangulate_polygon(poly)
    n = len(poly)
    near = np.column_stack([poly[:, 0], np.zeros(n), poly[:, 1]])
    far = np.column_stack([poly[:, 0], np.full(n, length), poly[:, 1]])
    verts = np.vstack([near, far])

    tris: list[tuple[int, int, int]] = []
    for a, b, c in cap:
        tris.append((a, c, b))  # near cap, flipped
        tris.append((a + n, b + n, c + n))  # far cap
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, j + n))
        tris.append((i, j + n, i + n))
    return _oriented(verts, tris)


def slab_with_pockets(extents, pockets) -> TriMesh:
    """Rectangular slab with rectangular pockets sunk into its top face.

    ``pockets`` is a list of ``((x0, y0, x1, y1), depth)`` entries.  Pocket
    rectangles must be pairwise disjoint and strictly inside the footprint,
    with 0 < depth < slab height.  The result is a conforming heightfield
    solid, watertight by construction.
    """
    sx, sy, sz = (float(v) for v in extents)
    if min(sx, sy, sz) <= 0:
        raise ValueError("slab extents must be positive")
    rects = []
    for (x0, y0, x1, y1), depth in pockets:
        if not (0 < x0 < x1 < sx and 0 < y0 < y1 < sy):
            raise ValueError("pocket must sit strictly inside the footprint")
        if not 0 < depth < sz:
            raise ValueError("pocket depth must be between 0 and the slab height")
        rects.append((float(x0), float(y0), float(x1), float(y1), float(depth)))
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            if not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]):
                raise ValueError("pockets overlap")

    xs = np.array(sorted({0.0, sx} | {r[0] for r in rects} | {r[2] for r in rects}))
    ys = np.array(sorted({0.0, sy} | {r[1] for r in rects} | {r[3] for r in rects}))
    nx, ny = len(xs) - 1, len(ys) - 1

    height = np.full((nx, ny), sz)
    for x0, y0, x1, y1, depth in rects:
        cx = (xs[:-1] + xs[1:]) / 2
        cy = (ys[:-1] + ys[1:]) / 2
        sel_x = (cx > x0) & (cx < x1)
        sel_y = (cy > y0) & (cy < y1)
        height[np.ix_(sel_x, sel_y)] = sz - depth

    vid: dict[tuple[float, float, float], int] = {}
    verts: list[tuple[float, float, float]] = []

    def v(x: float, y: float, z: float) -> int:
        key = (x, y, z)
        if key not in vid:
            vid[key] = len(verts)
            verts.append(key)
        return vid[key]

    tris: list[tuple[int, int, int]] = []

    def quad(p0, p1, p2, p3):
        a, b, c, d = v(*p0), v(*p1), v(*p2), v(*p3)
        tris.append((a, b, c))
        tris.append((a, c, d))

    for i in range(nx):
        for j in range(ny):
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]
            h = height[i, j]
            quad((x0, y0, h), (x1, y0, h), (x1, y1, h), (x0, y1, h))  # top, +z
            quad((x0, y0, 0.0), (x0, y1, 0.0), (x1, y1, 0.0), (x1, y0, 0.0))  # bottom

    def wall_x(x, y0, y1, zlo, zhi, outward_positive):
        if outward_positive:
            quad((x, y0, zlo), (x, y1, zlo), (x, y1, zhi), (x, y0, zhi))
        else:
            quad((x, y1, zlo), (x, y0, zlo), (x, y0, zhi), (x, y1, zhi))

    def wall_y(y, x0, x1, zlo, zhi, outward_positive):
        if outward_positive:
            quad((x1, y, zlo), (x0, y, zlo), (x0, y, zhi), (x1, y, zhi))
        else:
            quad((x0, y, zlo), (x1, y, zlo), (x1, y, zhi), (x0, y, zhi))

    for i in range(nx + 1):  # walls perpendicular to x
        for j in range(ny):
            h_left = height[i - 1, j] if i > 0 else 0.0
            h_right = height[i, j] if i < nx else 0.0
            if h_left == h_right:
                continue
            zlo, zhi = min(h_left, h_right), max(h_left, h_right)
            wall_x(xs[i], ys[j], ys[j + 1], zlo, zhi, outward_positive=h_left > h_right)
    for j in range(ny + 1):  # walls perpendicular to y
        for i in range(nx):
            h_near = height[i, j - 1] if j > 0 else 0.0
            h_far = height[i, j] if j < ny else 0.0
            if h_near == h_far:
                continue
            zlo, zhi = min(h_near, h_far), max(h_near, h_far)
            wall_y(ys[j], xs[i], xs[i + 1], zlo, zhi, outward_positive=h_near > h_far)

    return _oriented(np.array(verts, dtype=np.float64), tris)


def write_binary_stl(mesh: TriMesh, path: str | Path) -> None:
    """Write ``mesh`` as a little-endian binary STL file."""
    tc = mesh.tri_coords()
    n = np.cross(tc[:, 1] - tc[:, 0], tc[:, 2] - tc[:, 0])
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    n = np.where(norm > 0, n / np.maximum(norm, 1e-300), 0.0)
    records = np.zeros(len(tc), dtype=[("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("attr", "<u2")])
    records["n"] = n.astype(np.float32)
    records["v"] = tc.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(b"\0" * 80)
        fh.write(struct.pack("<I", len(tc)))
        fh.write(records.tobytes())
