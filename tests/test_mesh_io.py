import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap import mesh_io
from manumap.errors import EmptyMeshError, NotWatertightError, ParseError
from manumap.mesh_io import (
    PointClass,
    TriMesh,
    classify_points,
    load_mesh,
    point_in_mesh,
    triangle_box_intersect,
    _weld,
)
from manumap.primitives import box_mesh, icosphere, torus_mesh

from oracles import (
    sphere_area,
    sphere_volume,
    triangle_box_overlap,
    triangle_sample_points,
    winding_inside,
    winding_numbers,
)


# ---------------------------------------------------------------------------
# The winding oracle itself, pinned on hand-checkable points before anything
# trusts it.


def test_winding_oracle_unit_cube(unit_cube):
    w = winding_numbers(unit_cube, [(0.5, 0.5, 0.5), (2.0, 0.0, 0.0), (-1.0, -1.0, -1.0)])
    assert w[0] == pytest.approx(1.0, abs=1e-9)
    assert w[1] == pytest.approx(0.0, abs=1e-9)
    assert w[2] == pytest.approx(0.0, abs=1e-9)


def test_winding_oracle_orientation_sign(unit_cube):
    # flipping every triangle negates the winding number
    flipped = TriMesh(unit_cube.vertices, unit_cube.triangles[:, [0, 2, 1]])
    w = winding_numbers(flipped, [(0.5, 0.5, 0.5)])
    assert w[0] == pytest.approx(-1.0, abs=1e-9)


def test_winding_oracle_torus_hole(torus):
    # the hole axis is outside the solid even though it is "surrounded"
    w = winding_numbers(torus, [(0.0, 0.0, 0.0), (20.0, 0.0, 0.0)])
    assert w[0] == pytest.approx(0.0, abs=1e-6)
    assert w[1] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Loading and welding


def test_load_binary_stl_welds_cube(mesh_files):
    mesh = load_mesh(mesh_files["stl_binary"])
    assert mesh.num_vertices == 8  # 36 raw per-facet vertices collapse
    assert mesh.num_triangles == 12
    assert mesh.metrics.watertight


def test_load_ascii_stl_matches_binary(mesh_files):
    a = load_mesh(mesh_files["stl_ascii"])
    b = load_mesh(mesh_files["stl_binary"])
    assert a.num_vertices == b.num_vertices == 8
    assert a.metrics.volume == pytest.approx(b.metrics.volume)
    assert a.metrics.surface_area == pytest.approx(b.metrics.surface_area)


def test_load_off_cube(mesh_files):
    mesh = load_mesh(mesh_files["off"])
    assert mesh.num_vertices == 8
    assert mesh.num_triangles == 12
    assert mesh.metrics.volume == pytest.approx(1.0)


def test_truncated_binary_stl(mesh_files):
    with pytest.raises(ParseError):
        load_mesh(mesh_files["truncated"])


def test_zero_triangle_stl(tmp_path):
    path = tmp_path / "empty.stl"
    path.write_bytes(b"\0" * 80 + struct.pack("<I", 0))
    with pytest.raises(EmptyMeshError):
        load_mesh(path)


def test_weld_idempotent(unit_cube):
    soup = unit_cube.tri_coords().reshape(-1, 3)
    once = _weld(soup)
    twice = _weld(once.tri_coords().reshape(-1, 3))
    assert once.num_vertices == twice.num_vertices == 8
    assert once.metrics.volume == pytest.approx(twice.metrics.volume)


def test_degenerate_triangles_dropped():
    # third facet has zero area and must not survive loading
    soup = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 0], [1, 0, 0], [1, 0, 0],
        ],
        dtype=np.float64,
    )
    mesh = _weld(soup)
    assert mesh.num_triangles == 2


def _weld_with_unique(soup, tol=mesh_io.WELD_TOLERANCE_MM):
    """The weld as first written, grouping keys with np.unique(axis=0); the reference."""
    flat = soup.reshape(-1, 3)
    keys = np.round(flat / tol).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    vertices = flat[first]
    triangles = inverse.reshape(-1, 3)
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    distinct = (a != b) & (b != c) & (c != a)
    va, vb, vc = vertices[a], vertices[b], vertices[c]
    area2 = np.linalg.norm(np.cross(vb - va, vc - va), axis=1)
    span = float(np.ptp(flat, axis=0).max())
    triangles = triangles[distinct & (area2 > 1e-12 * max(span, 1.0) ** 2)]
    used = np.unique(triangles)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(vertices[used], remap[triangles])


def test_weld_matches_unique_reference():
    rng = np.random.default_rng(41)
    tol = mesh_io.WELD_TOLERANCE_MM
    # a closed mesh around the origin, its soup permuted, so coordinates are negative
    # and every vertex is shared by several triangles (exact duplicates)
    sphere = icosphere(3.0, subdivisions=2).tri_coords()
    soups = {"sphere": sphere[rng.permutation(len(sphere))]}
    # integer keys in a small negative-and-positive box: many exact and
    # near duplicates (inside tol / 2), degenerate triangles among them
    grid = rng.integers(-3, 4, (600, 3, 3)) * tol * 7
    soups["grid"] = grid + rng.uniform(-0.4, 0.4, grid.shape) * tol
    # vertices whose keys differ only in z, one tolerance step apart, in both z orders
    base = rng.uniform(-5.0, 5.0, (200, 1, 3))
    steps = rng.permutation(np.array([[0, 0, 0], [0, 0, 1], [0, 0, -1]] * 200).reshape(200, 3, 3))
    soups["z-steps"] = base + steps * tol + np.array([[0, 0, 0], [0, 0, 0], [1e-2, 0, 0]])
    for name, soup in soups.items():
        got, want = _weld(soup.reshape(-1, 3)), _weld_with_unique(soup)
        assert np.array_equal(got.vertices, want.vertices), name
        assert np.array_equal(got.triangles, want.triangles), name
        assert got.content_hash() == want.content_hash(), name
    assert len(_weld(soups["grid"].reshape(-1, 3)).vertices) < 7**3


# ---------------------------------------------------------------------------
# Metrics


def test_unit_cube_metrics(unit_cube):
    m = unit_cube.metrics
    assert m.volume == pytest.approx(1.0)
    assert m.surface_area == pytest.approx(6.0)
    assert m.max_dimension == pytest.approx(1.0)
    assert m.watertight
    assert m.bbox_volume == pytest.approx(1.0)


def test_icosphere_metrics_near_analytic():
    mesh = icosphere(10.0, subdivisions=4)
    assert mesh.num_triangles == 5120
    m = mesh.metrics
    assert m.volume == pytest.approx(sphere_volume(10.0), rel=0.01)
    assert m.surface_area == pytest.approx(sphere_area(10.0), rel=0.01)
    # a faceted sphere is strictly inside the true sphere
    assert m.volume < sphere_volume(10.0)


@pytest.mark.parametrize("name", ["sphere", "pocket", "torus"])
def test_tri_bounds_are_the_vertex_min_and_max(name, sphere10, pocket_plate, torus):
    """tri_bounds() is bitwise the per-triangle min and max of tri_coords(),
    read-only, and computed once per mesh."""
    shape = {"sphere": sphere10, "pocket": pocket_plate, "torus": torus}[name]
    mesh = TriMesh(shape.vertices, shape.triangles)  # nothing cached yet
    bounds = mesh.tri_bounds()
    tc = mesh.tri_coords()
    assert bounds[0].tobytes() == tc.min(axis=1).tobytes()
    assert bounds[1].tobytes() == tc.max(axis=1).tobytes()
    assert bounds[0].shape == bounds[1].shape == (mesh.num_triangles, 3)
    assert not bounds[0].flags.writeable and not bounds[1].flags.writeable
    assert mesh.tri_bounds() is bounds


def test_open_mesh_flagged_not_fatal(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])  # drop one face
    m = open_mesh.metrics
    assert not m.watertight
    assert abs(m.volume) > 0  # still reported as a diagnostic


def test_metrics_translation_invariance(torus):
    moved = TriMesh(torus.vertices + np.array([11.0, -3.0, 42.0]), torus.triangles)
    assert moved.metrics.volume == pytest.approx(torus.metrics.volume, rel=1e-12)
    assert moved.metrics.surface_area == pytest.approx(torus.metrics.surface_area, rel=1e-12)
    assert moved.metrics.bbox_min[2] == pytest.approx(torus.metrics.bbox_min[2] + 42.0)


def test_metrics_rotation_invariance(torus):
    angle = 0.73
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    turned = TriMesh(torus.vertices @ rot.T, torus.triangles)
    assert turned.metrics.volume == pytest.approx(torus.metrics.volume, rel=1e-6)
    assert turned.metrics.surface_area == pytest.approx(torus.metrics.surface_area, rel=1e-6)


def test_volume_additive_under_planar_split():
    whole = box_mesh((4.0, 3.0, 2.0))
    lower = box_mesh((4.0, 3.0, 0.75))
    upper = box_mesh((4.0, 3.0, 1.25), origin=(0.0, 0.0, 0.75))
    total = lower.metrics.volume + upper.metrics.volume
    assert total == pytest.approx(whole.metrics.volume, rel=1e-3)


# ---------------------------------------------------------------------------
# Point containment


def test_point_in_cube(unit_cube):
    assert point_in_mesh(unit_cube, (0.5, 0.5, 0.5)) is PointClass.INSIDE
    assert point_in_mesh(unit_cube, (2.0, 0.0, 0.0)) is PointClass.OUTSIDE


def test_point_on_face_is_boundary(unit_cube):
    assert point_in_mesh(unit_cube, (1.0, 0.5, 0.5)) is PointClass.ON_BOUNDARY


def test_point_in_open_mesh_rejected(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        point_in_mesh(open_mesh, (0.5, 0.5, 0.5))


def _agreement_check(mesh, n_points, seed, pad=2.0):
    """Engine classification vs. winding oracle away from the surface."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(mesh.metrics.bbox_min) - pad
    hi = np.asarray(mesh.metrics.bbox_max) + pad
    pts = rng.uniform(lo, hi, size=(n_points, 3))
    classes = classify_points(mesh, pts)
    w = winding_numbers(mesh, pts)
    eps_shell = np.abs(w - 0.5) < 0.4  # ambiguous: too close to the surface
    keep = (classes != PointClass.ON_BOUNDARY) & ~eps_shell
    engine = classes[keep] == PointClass.INSIDE
    oracle = w[keep] > 0.5
    assert keep.sum() > 0.9 * n_points
    np.testing.assert_array_equal(engine, oracle)


def test_classify_points_matches_winding_cube(unit_cube):
    _agreement_check(unit_cube, 1000, seed=101, pad=0.8)


def test_classify_points_matches_winding_torus(torus):
    _agreement_check(torus, 1000, seed=202, pad=4.0)


def test_classify_points_matches_winding_pocket(pocket_plate):
    _agreement_check(pocket_plate, 1000, seed=303, pad=6.0)


def test_classify_points_deterministic(torus):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-30, 30, size=(400, 3))
    a = classify_points(torus, pts)
    b = classify_points(torus, pts)
    np.testing.assert_array_equal(a, b)


def test_classify_points_agrees_with_scalar_api(unit_cube):
    pts = np.array([[0.5, 0.5, 0.5], [2.0, 0.0, 0.0], [1.0, 0.5, 0.5]])
    batch = classify_points(unit_cube, pts)
    singles = [point_in_mesh(unit_cube, p) for p in pts]
    assert list(batch) == singles


# ---------------------------------------------------------------------------
# Triangle-box intersection


def test_triangle_inside_box():
    tri = [(0.4, 0.4, 0.4), (0.6, 0.4, 0.4), (0.5, 0.6, 0.5)]
    assert triangle_box_intersect(tri, (0, 0, 0), (1, 1, 1))


def test_triangle_beyond_face():
    tri = [(2.0, 0.0, 0.0), (3.0, 0.0, 0.0), (2.5, 1.0, 0.0)]
    assert not triangle_box_intersect(tri, (0, 0, 0), (1, 1, 1))


def test_triangle_plane_cuts_corner():
    # all vertices outside, but the plane x+y+z = 0.3 slices off the origin
    # corner of the unit box
    tri = [(0.3, 0.0, 0.0), (0.0, 0.3, 0.0), (0.0, 0.0, 0.3)]
    box_min, box_max = (0.0, 0.0, 0.0), (0.2, 0.2, 0.2)
    assert triangle_box_intersect(tri, box_min, box_max)
    assert triangle_box_overlap(tri, box_min, box_max)
    samples = triangle_sample_points(tri)
    inside = np.all((samples >= box_min) & (samples <= box_max), axis=1)
    assert inside.any()


def test_triangle_box_matches_clip_oracle():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(400):
        tri = rng.uniform(-1.5, 1.5, size=(3, 3))
        lo = rng.uniform(-1.0, 0.0, size=3)
        hi = lo + rng.uniform(0.2, 1.5, size=3)
        got = triangle_box_intersect(tri, lo, hi)
        want = triangle_box_overlap(tri, lo, hi)
        assert got == want
        agree += got
    assert 0 < agree < 400  # both outcomes exercised


@settings(max_examples=60, deadline=None)
@given(
    shift=st.tuples(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
)
def test_triangle_box_translation_covariance(shift):
    """Translating triangle and box together never changes the answer."""
    tri = np.array([(0.3, 0.0, 0.0), (0.0, 0.9, 0.0), (0.0, 0.0, 1.7)])
    lo = np.array([0.1, 0.1, 0.1])
    hi = np.array([0.8, 0.8, 0.8])
    d = np.asarray(shift)
    assert triangle_box_intersect(tri, lo, hi) == triangle_box_intersect(
        tri + d, lo + d, hi + d
    )


def _wide_coordinates():
    """Coordinates of magnitude 1e-6 to 1e6, of either sign, or zero."""
    return st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=300, deadline=None)
@given(
    center=st.tuples(*[_wide_coordinates()] * 3),
    vertices=st.tuples(*[st.tuples(*[_wide_coordinates()] * 3)] * 3),
    kind=st.sampled_from(["any", "needle", "repeated vertex", "midpoint", "one point"]),
    slack=st.sampled_from([1.0, 1.0 + 2.0**-52, 1.5]),
)
def test_triangle_with_offsets_inside_box_always_overlaps(center, vertices, kind, slack):
    """Every vertex offset fl(p - c) in [-h, h] on every axis makes the SAT test
    True, bit for bit, so the octree may count such a triangle as a hit
    without it.  Each of the 13 projections is rounded from products no
    larger than the ones its radius is rounded from, summed in the same
    order.  With slack 1, some vertex sits exactly at -h or h on each axis."""
    c = np.array(center)
    tri = np.array(vertices)
    if kind == "needle":  # one edge a few ulps long
        tri[1] = np.nextafter(np.nextafter(tri[0], np.inf), np.inf)
    elif kind == "repeated vertex":
        tri[2] = tri[0]
    elif kind == "midpoint":  # collinear up to rounding
        tri[2] = 0.5 * (tri[0] + tri[1])
    elif kind == "one point":
        tri[:] = tri[0]
    h = np.abs(tri - c).max(axis=0) * slack
    assert ((tri - c >= -h) & (tri - c <= h)).all()
    assert mesh_io._tri_box_overlap(tri[None], c[None], h[None])[0]


# ---------------------------------------------------------------------------
# Batched kernels against one-at-a-time evaluation


def _exact_crossings(tc, x, y):
    """The surface heights, as Fractions, where the vertical line at (x, y)
    crosses the triangles ``tc`` (M, 3, 3): every triangle, no buckets, in
    exact rational arithmetic.

    A triangle is crossed when its projected area is not 0 and each edge
    orientation ``(U - P) x (V - P)`` (edges BC, CA, AB) has the area's
    sign.  An orientation that is exactly 0 takes the sign it has for the
    line at (x + e, y + e**2) as e -> 0: the orientation grows by
    ``e * (U.y - V.y) + e**2 * (V.x - U.x)``, so the sign of ``U.y - V.y``,
    or of ``V.x - U.x`` when that is 0 too.
    """
    # a triangle whose closed xy bounds miss (x, y) also misses the perturbed line
    lo, hi = tc[..., :2].min(axis=1), tc[..., :2].max(axis=1)
    near = (lo <= (x, y)).all(axis=1) & ((x, y) <= hi).all(axis=1)
    P = (Fraction(x), Fraction(y))

    def orient(U, V, P):
        return (U[0] - P[0]) * (V[1] - P[1]) - (U[1] - P[1]) * (V[0] - P[0])

    heights = []
    for tri in tc[near]:
        A, B, C = [tuple(Fraction(float(c)) for c in v) for v in tri]
        area = orient(B, C, A)
        if area == 0:  # vertical: never crossed
            continue
        edges = [orient(U, V, P) for U, V in ((B, C), (C, A), (A, B))]
        signs = [
            d or (U[1] - V[1]) or (V[0] - U[0])
            for d, (U, V) in zip(edges, ((B, C), (C, A), (A, B)))
        ]
        if all((d > 0) == (area > 0) and d != 0 for d in signs):
            heights.append(sum(d * v[2] for d, v in zip(edges, (A, B, C))) / area)
    return heights


def _column_reference(mesh, xy, z):
    """Crossings above each height ``z[i, j]`` of line ``xy[i]``, from
    :func:`_exact_crossings`."""
    tc = mesh.tri_coords()
    counts = np.zeros(z.shape, dtype=np.int64)
    for i, (x, y) in enumerate(xy):
        zt = _exact_crossings(tc, x, y)
        for j, h in enumerate(z[i]):
            counts[i, j] = sum(c > Fraction(h) for c in zt)
    return counts


def _k_per_line(xy, k):
    """The crossings offsets of k heights on every line of ``xy``."""
    return k * np.arange(len(xy) + 1)


def _column_queries(grid, rng, n=150):
    """Random lines, lines on grid-cell boundaries, and lines on cell corners."""
    lo, cell, res = grid._lo, grid._cell, grid._res
    span = cell * res
    rand = lo - 0.05 * span + rng.random((n, 2)) * 1.1 * span
    on_x = rand[: n // 3].copy()
    on_x[:, 0] = lo[0] + rng.integers(0, res + 1, len(on_x)) * cell[0]
    corners = lo + rng.integers(0, res + 1, (n // 3, 2)) * cell
    xy = np.concatenate([rand, on_x, corners])
    return xy, rng.uniform(-40.0, 80.0, (len(xy), 3))


@pytest.mark.parametrize("name", ["sphere", "pocket", "cube", "block"])
def test_column_kernel_matches_brute_force(name, sphere10, pocket_plate, unit_cube, split_block):
    """Bucketed casts equal the exact rational crossings of every line with
    every triangle.  The cube's and the block's few triangles each span many
    cells of the grid."""
    mesh = {"sphere": sphere10, "pocket": pocket_plate, "cube": unit_cube, "block": split_block}[name]
    grid = mesh._column_grid()
    if name in ("cube", "block"):
        assert np.diff(grid._ptr).sum() > 4 * len(grid._tab)
    xy, z = _column_queries(grid, np.random.default_rng(17))
    counts = grid.crossings(xy, z.ravel(), _k_per_line(xy, 3)).reshape(z.shape)
    assert np.array_equal(counts, _column_reference(mesh, xy, z))
    assert counts.any() and (counts == 0).any()
    # one height per line gives the same answer as a column of K heights
    assert np.array_equal(grid.crossings(xy, z[:, 0], _k_per_line(xy, 1)), counts[:, 0])


def test_column_kernel_chunk_seams(sphere10, unit_cube, split_block, monkeypatch):
    """Every chunk size gives the exact answers, on the sphere and on the
    cube and the block, whose triangles each span many cells."""
    for mesh in (sphere10, unit_cube, split_block):
        grid = mesh._column_grid()
        xy, z = _column_queries(grid, np.random.default_rng(23), n=300)
        want = _column_reference(mesh, xy, z)
        largest = int(np.diff(grid._ptr).max())
        assert largest > 2
        for budget in (mesh_io._COLUMN_PAIR_BUDGET, 1, largest - 1):
            monkeypatch.setattr(mesh_io, "_COLUMN_PAIR_BUDGET", budget)
            counts = grid.crossings(xy, z.ravel(), _k_per_line(xy, 3))
            assert np.array_equal(counts.reshape(z.shape), want)
        monkeypatch.undo()


def _lines_through_features(mesh):
    """Lines through every vertex, every edge midpoint and the point a third
    along every edge; the edges include the diagonals of the boxes' split
    quad faces."""
    tc = mesh.tri_coords()[..., :2]
    ends = np.concatenate([tc[:, [0, 1]], tc[:, [1, 2]], tc[:, [2, 0]]])
    xy = np.concatenate(
        [tc.reshape(-1, 2), ends.mean(axis=1), ends[:, 0] + (ends[:, 1] - ends[:, 0]) / 3.0]
    )
    return np.unique(xy, axis=0)


@pytest.mark.parametrize("name", ["cube", "block", "pocket", "torus"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_lines_through_vertices_and_edges_cross_evenly(
    name, seed, unit_cube, split_block, pocket_plate, torus
):
    """A line through a vertex or along an edge of a closed mesh crosses it
    an even number of times, and the parity above a height agrees with the
    winding-number oracle at every point outside the boundary band."""
    mesh = {"cube": unit_cube, "block": split_block, "pocket": pocket_plate, "torus": torus}[name]
    grid = mesh._column_grid()
    xy = _lines_through_features(mesh)
    below = mesh.metrics.bbox_min[2] - 1.0
    total = grid.crossings(xy, np.full(len(xy), below), _k_per_line(xy, 1))
    assert (total % 2 == 0).all() and total.any()

    rng = np.random.default_rng(seed)
    lo, hi = mesh.metrics.bbox_min[2], mesh.metrics.bbox_max[2]
    z = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (len(xy), 2))
    inside = grid.crossings(xy, z.ravel(), _k_per_line(xy, 2)) % 2 == 1
    pts = np.column_stack([np.repeat(xy, 2, axis=0), z.ravel()])
    w = winding_numbers(mesh, pts)
    # many of these lines run along a vertical edge or wall, and the points on
    # them lie on the surface: the band is the one _agreement_check uses
    away = (classify_points(mesh, pts) != PointClass.ON_BOUNDARY) & (np.abs(w - 0.5) >= 0.4)
    assert away.any()
    assert np.array_equal(inside[away], w[away] > 0.5)


def test_orientation_filter_decides_no_sign(unit_cube, split_block, pocket_plate, monkeypatch):
    """With an error bound of 1 every orientation and area goes to the exact
    stage, and the grid's area signs and every count stay the same: the
    bound only picks which signs the integers decide."""
    for mesh in (unit_cube, split_block, pocket_plate):
        grid = mesh._column_grid()
        xy, z = _column_queries(grid, np.random.default_rng(29), n=60)
        xy = np.concatenate([xy, _lines_through_features(mesh)[:200]])
        z = np.resize(z, (len(xy), 3))
        want = grid.crossings(xy, z.ravel(), _k_per_line(xy, 3))
        with monkeypatch.context() as m:
            m.setattr(mesh_io, "_CCW_ERRBOUND", 1.0)  # |l - r| <= |l| + |r|: none is sure
            exact = mesh_io._ColumnGrid(
                mesh.tri_coords(), mesh.tri_bounds(), mesh.metrics.max_dimension
            )
            assert np.array_equal(exact._side, grid._side)
            assert np.array_equal(exact.crossings(xy, z.ravel(), _k_per_line(xy, 3)), want)


def _csr_queries(grid, rng):
    """Lines for the CSR kernel, each with its own number of heights (zero for some).

    Random lines and lines outside the grid get random heights; lines on
    triangle vertices and edge midpoints, and random lines through the
    footprint, get heights on their crossings and a few ulps or 1e-9
    relative from them.
    """
    tri_xy = grid._tab[:, :6].reshape(-1, 3, 2)
    pick = rng.integers(0, len(tri_xy), 40)
    on_edges = np.concatenate(
        [tri_xy[pick[:20], 0], 0.5 * (tri_xy[pick[20:], 0] + tri_xy[pick[20:], 1])]
    )
    lo, span = grid._lo, grid._cell * grid._res
    inside = lo + rng.random((60, 2)) * span
    outside = lo + span * np.array([[-0.5, 0.5], [0.5, 1.5], [2.0, 2.0], [-1.0, -1.0]])
    xy = np.concatenate([inside, on_edges, outside])
    m = len(grid._tab)
    heights = []
    for x, y in xy:
        _, zt = grid._hits(np.full(m, x), np.full(m, y), np.arange(m))
        ulps = np.spacing(zt)[:, None] * [-3.0, -1.0, 0.0, 1.0, 3.0]
        rel = np.full((len(zt), 2), [-1e-9, 1e-9]) * span.max()
        near = zt[:, None] + np.column_stack([ulps, rel])
        h = np.concatenate([near.ravel(), rng.uniform(-40.0, 80.0, rng.integers(0, 6))])
        heights.append(rng.permutation(h)[: rng.integers(0, len(h) + 1)])
    perm = rng.permutation(len(xy))
    return xy[perm], [heights[i] for i in perm]


@pytest.mark.parametrize("name", ["sphere", "pocket"])
@pytest.mark.parametrize("budget", [None, 1, 7])
def test_csr_column_kernel_matches_per_line_calls(
    name, budget, sphere10, pocket_plate, monkeypatch
):
    """crossings(xy, hz, hptr) answers each line's heights as a one-line
    call does, at any chunk size."""
    mesh = {"sphere": sphere10, "pocket": pocket_plate}[name]
    grid = mesh._column_grid()
    xy, heights = _csr_queries(grid, np.random.default_rng(31))
    sizes = np.array([len(h) for h in heights])
    assert (sizes == 0).any() and (sizes > 10).any()
    want = [grid.crossings(xy[i : i + 1], h, [0, len(h)]) for i, h in enumerate(heights)]
    if budget is not None:
        monkeypatch.setattr(mesh_io, "_COLUMN_PAIR_BUDGET", budget)
    hptr = np.concatenate([[0], np.cumsum(sizes)])
    counts = grid.crossings(xy, np.concatenate(heights), hptr)
    assert counts.shape == (hptr[-1],)
    for i, c in enumerate(want):
        assert np.array_equal(counts[hptr[i] : hptr[i + 1]], c)
    assert counts.any() and (counts == 0).any()
    empty = grid.crossings(np.empty((0, 2)), np.empty(0), np.zeros(1, dtype=np.int64))
    assert empty.shape == (0,)


def test_column_kernel_and_classify_points_take_zero_inputs(unit_cube):
    grid = unit_cube._column_grid()
    for k in (1, 3):
        counts = grid.crossings(np.empty((0, 2)), np.empty(0), _k_per_line([], k))
        assert counts.shape == (0,)
    out = classify_points(unit_cube, np.empty((0, 3)))
    assert out.shape == (0,) and out.dtype == np.int8


@pytest.mark.parametrize("shift", [(-(2.0**20), 3.0), (2.0, 2.0**20)])
def test_column_grid_extent_and_gate_follow_the_vertices(shift, torus):
    """The grid takes its extent from the triangle bounds; it equals the
    vertex-wise formula, and it gates the lines: the vertex bounds' corners
    find a cell, and a line past them by twice the pad finds none, so it
    meets no triangle.  The shifted torus straddles 2**20 in magnitude."""
    mesh = TriMesh(torus.vertices + (*shift, 0.0), torus.triangles)
    grid = mesh._column_grid()
    xy = mesh.tri_coords()[..., :2].reshape(-1, 2)
    pad = 1e-9 * mesh.metrics.max_dimension
    assert grid._lo.tobytes() == (xy.min(axis=0) - pad).tobytes()
    res = grid._res
    assert grid._cell.tobytes() == ((xy.max(axis=0) + pad - grid._lo) / res).tobytes()
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    assert (grid._cells_of(np.array([lo, hi])) >= 0).all()
    past = np.array([lo - 2 * pad, hi + 2 * pad, [lo[0] - 2 * pad, hi[1]]])
    assert (grid._cells_of(past) == -1).all()
    assert not grid.crossings(past, np.zeros(3), _k_per_line(past, 1)).any()


def _vertical_triangles(rng, n, offset):
    """n triangles whose xy projection is a segment along ``d``, a third each along
    x, along y and diagonal; dyadic xy keeps the projection exactly collinear at
    any offset.  Returns (triangles, unit direction of each segment)."""
    d = rng.integers(1, 5, (n, 2)) / 8.0 * rng.choice([-1.0, 1.0], (n, 2))
    d[: n // 3, 1] = 0.0
    d[n // 3 : 2 * n // 3, 0] = 0.0
    t = rng.integers(-20, 21, (n, 3)).astype(float)
    t[:, 1] = t[:, 0] + rng.integers(1, 20, n)  # at least two distinct vertices
    xy = offset + rng.integers(-64, 64, (n, 1, 2)) / 4.0 + t[..., None] * d[:, None, :]
    tri = np.concatenate([xy, rng.uniform(-10.0, 10.0, (n, 3, 1))], axis=2)
    return tri, d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_vertical_triangles_never_count(offset):
    """A vertical triangle has projected area exactly 0, and no line crosses
    it: not around its footprint, not within a hair of it, and not on it
    (its vertices, edge midpoints and segment ends)."""
    rng = np.random.default_rng(47)
    tc, along = _vertical_triangles(rng, 60, offset)
    grid = mesh_io._ColumnGrid(tc, (tc.min(axis=1), tc.max(axis=1)), 50.0)
    assert (grid._side == 0).all()
    pad = 1e-9 * 50.0

    tid, pts = [], []
    for i, tri in enumerate(tc[:, :, :2]):
        lo, hi = tri.min(axis=0), tri.max(axis=0)
        proj = tri @ along[i]
        first, last = tri[np.argmin(proj)], tri[np.argmax(proj)]
        normal = np.array([-along[i, 1], along[i, 0]])
        probes = [
            lo - 4.0 + rng.random((40, 2)) * (hi - lo + 8.0),  # around the footprint
            lo - 2 * pad + rng.random((40, 2)) * (hi - lo + 4 * pad),  # hugging it
            tri, 0.5 * (tri + np.roll(tri, 1, axis=0)),  # on it
        ]
        for r in (0.0, pad, 2 * pad):  # r from the segment, up to rounding
            probes.append(
                [0.5 * (first + last) + r * normal, 0.5 * (first + last) - r * normal,
                 first - r * along[i], last + r * along[i]]
            )
        block = np.concatenate(probes)
        pts.append(block)
        tid.append(np.full(len(block), i))
    tid, pts = np.concatenate(tid), np.concatenate(pts)

    hit, z = grid._hits(pts[:, 0].copy(), pts[:, 1].copy(), tid)
    assert len(hit) == 0 and len(z) == 0
    assert not grid.crossings(pts, np.full(len(pts), -20.0), _k_per_line(pts, 1)).any()


def _boxes_touching(tc, rng):
    """Boxes (P, 8) whose faces pass exactly through a vertex of the triangle."""
    p = len(tc)
    size = rng.integers(1, 5, (p, 8, 3)) / 4.0
    vert = tc[np.arange(p)[:, None], rng.integers(0, 3, (p, 8))]  # (P, 8, 3)
    below = rng.random((p, 8, 3)) < 0.5
    lo = np.where(below, vert - size, vert)
    return lo, lo + size


def test_batched_sat_matches_single_box():
    rng = np.random.default_rng(31)
    p = 400
    # dyadic coordinates keep centers and half-widths exact, so touching is exact
    tc = rng.integers(-8, 9, (p, 3, 3)) / 4.0
    tc[: p // 4, :, 2] = tc[: p // 4, :1, 2]  # some triangles lie in a z plane
    rand_lo = rng.integers(-8, 8, (p, 8, 3)) / 4.0
    cases = [
        (rand_lo, rand_lo + rng.integers(1, 9, (p, 8, 3)) / 4.0),
        _boxes_touching(tc, rng),
    ]
    for k, (lo, hi) in enumerate(cases):
        got = mesh_io._tri_box_overlap(tc[:, None], 0.5 * (lo + hi), 0.5 * (hi - lo))
        assert got.shape == (p, 8)
        want = np.array(
            [[triangle_box_intersect(tc[i], lo[i, c], hi[i, c]) for c in range(8)]
             for i in range(p)]
        )
        assert np.array_equal(got, want)
        if k == 0:
            assert 0 < got.sum() < got.size
        else:
            assert got.all()  # a closed box touching a vertex intersects the triangle
