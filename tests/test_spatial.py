import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap import mesh_io, spatial
from manumap.additive import build_height_field
from manumap.analysis import AnalysisParams
from manumap.errors import ConfigError, DepthRangeError, MeshMismatchError, NotWatertightError
from manumap.machining import tool_flexibility_field
from manumap.mesh_io import TriMesh, _points_inside
from manumap.primitives import box_mesh, icosphere, slab_with_pockets
from manumap.profiles import default_profiles
from oracles import box_clip_integrals, ramp_prism_volume, winding_numbers
from manumap.spatial import (
    OctantClass,
    build_octree,
    classify_box,
    estimate_part_volume,
    refine,
)


@pytest.fixture(scope="module")
def sphere_tree(sphere10):
    return build_octree(sphere10, max_depth=4)


# ---------------------------------------------------------------------------
# classify_box


def test_classify_interior_box(unit_cube):
    assert classify_box(unit_cube, (0.25, 0.25, 0.25), (0.75, 0.75, 0.75)) is OctantClass.BLACK


def test_classify_disjoint_box(unit_cube):
    assert classify_box(unit_cube, (2, 2, 2), (3, 3, 3)) is OctantClass.WHITE


def test_classify_straddling_box(unit_cube):
    assert classify_box(unit_cube, (0.5, 0.5, 0.5), (1.5, 1.5, 1.5)) is OctantClass.GREY


def test_classify_open_mesh_rejected(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        classify_box(open_mesh, (0, 0, 0), (1, 1, 1))


def test_face_coincident_boxes_resolve_by_center(unit_cube):
    """Boxes that only touch the surface are classed by their center.

    The unit cube sitting in the lower-left octant of a [0,2] cube: the
    part's faces lie exactly on octant boundaries, which must not produce
    an infinite grey shell.
    """
    octants = []
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                lo = np.array([dx, dy, dz], dtype=float)
                octants.append(classify_box(unit_cube, lo, lo + 1.0))
    assert octants.count(OctantClass.BLACK) == 1
    assert octants.count(OctantClass.WHITE) == 7
    assert classify_box(unit_cube, (0, 0, 0), (1, 1, 1)) is OctantClass.BLACK
    assert classify_box(unit_cube, (1, 0, 0), (2, 1, 1)) is OctantClass.WHITE


# ---------------------------------------------------------------------------
# build_octree


def test_sphere_depth1_gives_8_grey(sphere10):
    tree = build_octree(sphere10, max_depth=1)
    kids = tree.leaves()
    assert len(kids) == 8
    assert [k.path_key for k in kids] == list(range(8, 16))
    assert all(k.octant_class is OctantClass.GREY for k in kids)
    # cross-check against the standalone classifier
    for k in kids:
        assert classify_box(sphere10, k.box_min, k.box_max) is OctantClass.GREY


def test_box_part_with_zero_margin_is_black_root():
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=3, margin=0.0)
    (root,) = tree.leaves()
    assert (root.depth, root.path_key) == (0, 1)
    assert root.octant_class is OctantClass.BLACK
    assert root.part_volume == pytest.approx(8.0)


def test_root_is_inflated_cube(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=1, margin=0.01)
    lo, hi = _root_box(tree)
    ext = hi - lo
    assert ext[0] == ext[1] == ext[2]
    assert ext[0] == pytest.approx(64.0 * 1.01)
    assert np.all(lo <= tree.mesh_bbox_min)
    assert np.all(hi >= tree.mesh_bbox_max)


def test_depth_out_of_range(unit_cube):
    with pytest.raises(DepthRangeError):
        build_octree(unit_cube, max_depth=0)
    with pytest.raises(DepthRangeError):
        build_octree(unit_cube, max_depth=11)


def test_open_mesh_rejected(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        build_octree(open_mesh, max_depth=2)


def test_samples_validation(unit_cube):
    """``samples`` is accepted and ignored, whatever its value; the margin is checked."""
    tree = build_octree(unit_cube, max_depth=2)
    for samples in (1, 4, "x"):
        assert build_octree(unit_cube, max_depth=2, samples=samples).fingerprint() == (
            tree.fingerprint()
        )
    with pytest.raises(ValueError):
        build_octree(unit_cube, max_depth=2, margin=-0.5)


@pytest.mark.parametrize(
    "bad",
    [{"max_depth": 11}, {"max_depth": 0}, {"margin": np.inf}, {"margin": np.nan},
     {"margin": -0.5}],
)
def test_every_entry_point_checks_build_params(unit_cube, bad):
    with pytest.raises(ConfigError):
        build_octree(unit_cube, **{"max_depth": 2, **bad})
    with pytest.raises(ConfigError):
        AnalysisParams(**bad)


def _dump_text(tree) -> str:
    buf = io.StringIO()
    tree.dump_leaves(buf)
    return buf.getvalue()


def test_rebuild_is_byte_identical(pocket_plate):
    a = build_octree(pocket_plate, max_depth=3)
    b = build_octree(pocket_plate, max_depth=3)
    assert a.fingerprint() == b.fingerprint()
    assert _dump_text(a) == _dump_text(b)


def _root_box(tree):
    """The root box: the union of the leaf boxes."""
    return tree.box_min.min(axis=0), tree.box_max.max(axis=0)


def _descend(lo, hi, key, depth):
    """Box of path ``key`` at ``depth``, by halving the root box (lo, hi) at each midpoint."""
    for level in reversed(range(depth)):
        upper = spatial._CHILD_BITS[(key >> 3 * level) & 7]
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(upper, mid, lo), np.where(upper, hi, mid)
    return lo, hi


def test_children_partition_parent_exactly(sphere_tree):
    # exact bound sharing: every box is built from its parent's bounds and midpoint
    root_lo, root_hi = _root_box(sphere_tree)
    for leaf in sphere_tree.leaves():
        lo, hi = _descend(root_lo, root_hi, leaf.path_key, leaf.depth)
        assert lo.tobytes() == leaf.box_min.tobytes()
        assert hi.tobytes() == leaf.box_max.tobytes()
    leaf_vol = sum(leaf.box_volume for leaf in sphere_tree.leaves())
    assert leaf_vol == pytest.approx(float(np.prod(root_hi - root_lo)), rel=1e-12)


def test_only_grey_nodes_subdivided(sphere_tree):
    # a leaf above max_depth is one the subdivision stopped at: never grey
    for leaf in sphere_tree.leaves():
        if leaf.depth < sphere_tree.max_depth:
            assert leaf.octant_class in (OctantClass.BLACK, OctantClass.WHITE)
    assert {leaf.depth for leaf in sphere_tree.grey_leaves()} == {sphere_tree.max_depth}


def test_black_white_leaf_volumes(sphere_tree):
    for leaf in sphere_tree.leaves():
        if leaf.octant_class is OctantClass.BLACK:
            assert leaf.part_volume == pytest.approx(leaf.box_volume)
        elif leaf.octant_class is OctantClass.WHITE:
            assert leaf.part_volume == 0.0
        else:
            assert 0.0 <= leaf.part_volume <= leaf.box_volume


def test_leaf_volumes_match_per_leaf_reference(sphere10, monkeypatch):
    """Batched wave and volume arithmetic, at any chunk size, gives the tree
    of the default sizes.  Each grey leaf's volume is the one
    estimate_part_volume finds for the leaf's box alone, whose top
    cross-section comes from the prism above the box instead of the column
    sweep, to within 1e-12 of the box volume."""
    whole = build_octree(sphere10, max_depth=3)
    # SAT chunks of 7 pairs, volume-kernel chunks of 5 pairs and column-kernel
    # chunks of 5 pairs put seams everywhere
    monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", 7)
    monkeypatch.setattr(spatial, "_CLIP_PAIR_BUDGET", 5)
    monkeypatch.setattr(mesh_io, "_COLUMN_PAIR_BUDGET", 5)
    tree = build_octree(sphere10, max_depth=3)
    monkeypatch.undo()
    assert tree.fingerprint() == whole.fingerprint()
    columns = spatial._column_keys(tree.path_key[tree.grey_index])
    assert len(np.unique(columns)) < len(columns)  # stacked leaves share one sweep
    for leaf in tree.grey_leaves():
        alone = estimate_part_volume(sphere10, leaf.box_min, leaf.box_max)
        assert abs(leaf.part_volume - alone) <= 1e-12 * leaf.box_volume


def _exact_cases():
    """Every shared fixture part, and the benchmark meshes."""
    from conftest import die_plate, t_slot_part

    return {
        "unit_cube": lambda r: r.getfixturevalue("unit_cube"),
        "cube100": lambda r: r.getfixturevalue("cube100"),
        "pocket_plate": lambda r: r.getfixturevalue("pocket_plate"),
        "split_block": lambda r: r.getfixturevalue("split_block"),
        "torus": lambda r: r.getfixturevalue("torus"),
        "sphere10": lambda r: r.getfixturevalue("sphere10"),
        "t_slot": lambda r: t_slot_part(),
        "die_plate": lambda r: die_plate(),
        "half_slab": lambda r: slab_with_pockets((80.0, 80.0, 30.0), [((34.0, 34.0, 46.0, 46.0), 20.0)]),
        "ico5120": lambda r: icosphere(10.0, 4),
        "ico81920": lambda r: icosphere(10.0, 6),
    }


@pytest.mark.parametrize("name", sorted(_exact_cases()))
def test_volumes_exact_at_every_depth(name, request):
    """At depths 1-6, black box volumes plus grey volumes equal the mesh
    volume to within 1e-12, every grey volume lies in [0, box volume], and
    the 8 children of each refined grey leaf hold its volume to within
    1e-12 of its box volume."""
    mesh = _exact_cases()[name](request)
    truth = abs(mesh.metrics.volume)
    for depth in range(1, 7):
        tree = build_octree(mesh, max_depth=depth)
        assert tree.total_part_volume() == pytest.approx(truth, rel=1e-12), depth
        g = tree.grey_index
        box = np.prod(tree.box_max - tree.box_min, axis=1)
        assert (tree.part_volume[g] >= 0).all() and (tree.part_volume[g] <= box[g]).all()
    base = build_octree(mesh, max_depth=4)
    refined = refine(base, mesh)
    keys, order = np.sort(refined.path_key), np.argsort(refined.path_key)
    g = base.grey_index
    children = order[np.searchsorted(keys, (base.path_key[g, None] << 3) | np.arange(8))]
    assert (refined.path_key[children] >> 3 == base.path_key[g, None]).all()
    sums = refined.part_volume[children].sum(axis=1)
    box = np.prod(base.box_max[g] - base.box_min[g], axis=1)
    assert (np.abs(sums - base.part_volume[g]) <= 1e-12 * box).all()


def _count_exact_orientations(monkeypatch, active):
    """Count the orientations the column kernel evaluates on integers while
    ``active`` is non-empty."""
    calls = []
    exact = mesh_io._exact_det

    def counted(*coords):
        if active:
            calls.append(coords)
        return exact(*coords)

    monkeypatch.setattr(mesh_io, "_exact_det", counted)
    return calls


def _kernel_cases(rng, count=100):
    """Triangles of six kinds against the unit box: random; every coordinate
    on a coarse grid that includes the box planes (vertices, edges and faces
    on them); horizontal at a grid height; one edge in an axis plane;
    grid points nudged by 1e-15 or 1e-12 (near ties); and triangles 20 times
    the box."""
    grid = np.array([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
    tris = []
    for kind in range(6):
        t = rng.uniform(-0.5, 1.5, (count, 3, 3))
        if kind == 1:
            t = rng.choice(grid, (count, 3, 3))
        elif kind == 2:
            t[:, :, 2] = rng.choice(grid, (count, 1))
        elif kind == 3:
            axis = rng.integers(0, 3, count)
            t[np.arange(count), :2, axis] = rng.choice(grid, (count, 1))
        elif kind == 4:
            t = rng.choice(grid, (count, 3, 3)) + rng.choice([0.0, 1e-15, -1e-15, 1e-12], (count, 3, 3))
        elif kind == 5:
            t = rng.uniform(-20.0, 20.0, (count, 3, 3))
        tris.append(t)
    tc = np.concatenate(tris)
    return tc[np.linalg.norm(np.cross(tc[:, 1] - tc[:, 0], tc[:, 2] - tc[:, 0]), axis=1) > 1e-9]


def test_pair_integrals_match_exact_clipping():
    """The volume kernel's P1 and Pz of each (triangle, box) pair equal the
    exact rational clip of the triangle by the box, to within 1e-12, for
    triangles with corners, edges and faces on or next to the box planes
    and for triangles far larger than the box."""
    tc = _kernel_cases(np.random.default_rng(29))
    mesh = TriMesh(tc.reshape(-1, 3), np.arange(3 * len(tc)).reshape(-1, 3))
    tri = np.arange(len(tc))
    box = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
    p1, pz = spatial._pair_integrals(mesh, spatial._turns(mesh), tri, np.zeros_like(tri), box)
    want = np.array([box_clip_integrals(t, box[0, :3], box[0, 3:]) for t in tc])
    scale = np.maximum(1.0, np.abs(want))
    assert (np.abs(np.column_stack([p1, pz]) - want) <= 1e-12 * scale).all()
    assert (want[:, 0] != 0).sum() > len(tc) // 2


def _tie_block(ulps, slope=0.0):
    """The split-redesign block, 80 x 80 x 60 mm with a 12 x 12 mm pocket
    50 mm deep, its top (z = 60) and pocket floor (z = 10) moved by
    ``ulps`` units in the last place, and its top then tilted to
    ``z + slope * x``.  At margin 0 the root box is [0, 80] x [0, 80] x
    [-10, 70], so both lie on split planes from depth 3 on."""
    mesh = slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)])
    v = mesh.vertices.copy()
    for z in (60.0, 10.0):
        moved = z
        for _ in range(abs(ulps)):
            moved = np.nextafter(moved, np.inf if ulps > 0 else -np.inf)
        v[v[:, 2] == z, 2] = moved
    top = mesh.vertices[:, 2] == 60.0
    v[top, 2] += slope * v[top, 0]
    return TriMesh(v, mesh.triangles), v[:, 2].max(), v[mesh.vertices[:, 2] == 10.0, 2][0]


def _overlap(lo, hi, box_lo, box_hi):
    """Volume of each box (lo, hi) (N, 3) inside the box (box_lo, box_hi)."""
    return np.prod(np.clip(np.minimum(hi, box_hi) - np.maximum(lo, box_lo), 0.0, None), axis=1)


@pytest.mark.parametrize("margin", [0.0, 0.01])
@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_tie_fixture_volumes_exact(ulps, margin):
    """Faces on split planes, and 1 and 2 ulps off them, count once.

    The block's top and pocket floor are horizontal faces that lie on, or
    next to, the planes between stacked leaves (and its sides on the root's
    faces at margin 0).  Every leaf holds the exact volume of the slab less
    the pocket inside its box, to within 1e-12 of the box volume, and the
    leaves add up to the mesh volume to within 1e-12, at depths 1-6.
    """
    mesh, top, floor = _tie_block(ulps)
    assert (top == 60.0) == (ulps == 0) and (floor == 10.0) == (ulps == 0)
    truth = 80.0 * 80.0 * top - 12.0 * 12.0 * (top - floor)
    assert mesh.metrics.volume == pytest.approx(truth, rel=1e-15)
    for depth in range(1, 7):
        tree = build_octree(mesh, max_depth=depth, margin=margin)
        box = np.prod(tree.box_max - tree.box_min, axis=1)
        want = _overlap(tree.box_min, tree.box_max, (0.0, 0.0, 0.0), (80.0, 80.0, top))
        want -= _overlap(tree.box_min, tree.box_max, (34.0, 34.0, floor), (46.0, 46.0, top))
        assert (np.abs(tree.part_volume - want) <= 1e-12 * box).all(), depth
        assert tree.total_part_volume() == pytest.approx(truth, rel=1e-12)


@pytest.mark.parametrize("margin", [0.0, 0.01])
def test_tilted_top_volumes_exact(margin):
    """A top face tilted by 2^-33 (about 1e-10) across a split plane.

    The block's top falls from z = 60, a split plane from depth 3 on at
    margin 0, by x / 2^33, so that it drops 9.3e-9 mm below the plane at
    x = 80 but stays within the 5e-9 mm shrink of the depth-3 boxes under
    the pocket wall at x = 34.  The top's triangles then reach below such
    boxes' shrunk tops while crossing none of them, and must still be kept
    in the grey leaves' lists.  Every grey leaf holds the exact volume of
    the block inside its box, to within 1e-12 of the box volume, at depths
    1-6.  A black or white leaf may miss it by the part between its faces
    and a surface that some ancestor's shrink kept from crossing, which
    lies within 2 _SHRINK root half-widths of those faces.
    """
    slope = -(2.0**-33)  # 60 + slope * x is exact: every x is a small integer
    mesh, top, floor = _tie_block(0, slope)
    assert (top, floor) == (60.0, 10.0)
    for depth in range(1, 7):
        tree = build_octree(mesh, max_depth=depth, margin=margin)
        want = np.array([
            ramp_prism_volume(lo, hi, (0.0, 0.0, 80.0, 80.0), 0.0, 60.0, slope)
            - ramp_prism_volume(lo, hi, (34.0, 34.0, 46.0, 46.0), 10.0, 60.0, slope)
            for lo, hi in zip(tree.box_min, tree.box_max)
        ])
        size = tree.box_max - tree.box_min
        box = np.prod(size, axis=1)
        faces = 2 * (size[:, 0] * size[:, 1] + size[:, 1] * size[:, 2] + size[:, 2] * size[:, 0])
        err = np.abs(tree.part_volume - want)
        g = tree.grey_index
        assert (err[g] <= 1e-12 * box[g]).all(), depth
        assert (err <= spatial._reach(mesh, margin) * faces).all(), depth


@pytest.mark.parametrize("name", ["block", "pocket", "sphere10"])
def test_grouped_center_casts_match_one_point_calls(name, split_block, pocket_plate, sphere10, monkeypatch):
    """Each wave casts its missed children's centers with one line per xy
    column.  Every black or white leaf still has the class of a one-point
    _points_inside call on its center, and the winding-number oracle's, and
    permuting the triangles changes no byte.  The block's centers on the
    x = y diagonal meet the diagonal edges of its faces inside those
    grouped casts, where the exact stage decides them."""
    mesh = {"block": split_block, "pocket": pocket_plate, "sphere10": sphere10}[name]
    casts, in_wave = [], []
    advance, sampler = spatial._advance_wave, spatial._heights_inside

    def spy_wave(*args):
        in_wave.append(True)
        try:
            return advance(*args)
        finally:
            in_wave.pop()

    def spy_cast(mesh, xy, hz, hptr):
        if in_wave:
            assert len(np.unique(xy, axis=0)) == len(xy)  # one line per column
            casts.append(np.diff(hptr))
        return sampler(mesh, xy, hz, hptr)

    monkeypatch.setattr(spatial, "_advance_wave", spy_wave)
    monkeypatch.setattr(spatial, "_heights_inside", spy_cast)
    exact = _count_exact_orientations(monkeypatch, in_wave)
    tree = build_octree(mesh, max_depth=4)
    monkeypatch.undo()

    solid = np.flatnonzero(tree.class_code != spatial._GREY)
    assert sum(int(k.sum()) for k in casts) == len(solid)  # every black or white leaf, once
    assert max(int(k.max()) for k in casts) > 1  # stacked centers share a line
    centers = 0.5 * (tree.box_min[solid] + tree.box_max[solid])
    black = tree.class_code[solid] == spatial._BLACK
    assert np.array_equal(black, _points_inside(mesh, centers))
    for center, code in zip(centers[:50], tree.class_code[solid][:50]):
        inside = _points_inside(mesh, center[None])[0]
        assert code == (spatial._BLACK if inside else spatial._WHITE)
    # a box the surface misses has its center at least half a box from it
    assert np.array_equal(black, winding_numbers(mesh, centers) > 0.5)
    if name == "block":
        assert len(exact) > 0
    shuffled = _permute_triangles(mesh, np.random.default_rng(13))
    assert build_octree(shuffled, max_depth=4).fingerprint() == tree.fingerprint()


def test_column_keys_drop_each_level_z_bit():
    """A column key drops each level's z bit: 1, then x + 2y per level; the
    root box is its own column."""
    assert spatial._column_keys(np.ones(1, dtype=np.int64)).tolist() == [1]
    assert spatial._column_keys(np.array([8, 9, 15, 71])).tolist() == [4, 5, 7, 19]


def test_stacked_leaves_share_their_column_bounds(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=4)
    g = tree.grey_index
    columns = spatial._column_keys(tree.path_key[g])
    xy = np.hstack([tree.box_min[g, :2], tree.box_max[g, :2]])
    pairs = np.unique(np.column_stack([columns, xy.view(np.int64)]), axis=0)
    assert len(pairs) == len(np.unique(columns)) == len(np.unique(xy, axis=0)) < len(g)


def test_walled_part_volume_error_bound(pocket_plate):
    """Vertical walls put long runs of stacked grey leaves in one column;
    the sweep down each run keeps the pocket plate's volume exact to
    1e-12 at every depth."""
    truth = pocket_plate.metrics.volume
    for depth in range(1, 7):
        tree = build_octree(pocket_plate, max_depth=depth)
        assert tree.total_part_volume() == pytest.approx(truth, rel=1e-12)


def _child_boxes(lo, hi, shrink=spatial._SHRINK):
    """(W, 8, 3) child centers and half-widths of nodes (W, 3), as a wave builds them."""
    bits = spatial._CHILD_BITS
    mid = 0.5 * (lo + hi)
    cmin = np.where(bits, mid[:, None, :], lo[:, None, :])
    cmax = np.where(bits, hi[:, None, :], mid[:, None, :])
    return 0.5 * (cmin + cmax), 0.5 * (cmax - cmin) * (1.0 - shrink)


def _wave_cases(rng, w=30, k=5):
    """Dyadic nodes, each paired with k triangles of eight kinds.

    The kinds: lying in a child split plane; lying in a node face; touching a
    node face from outside; every vertex on slab faces (each coordinate the
    node's lo, mid or hi); needles; random; strictly inside one child; inside
    one child but for one vertex coordinate at ``c - h`` or ``c + h`` of that
    child's shrunk box, as the wave computes c and h.  Dyadic numbers keep
    the node centers, half-widths and touching exact.
    """
    lo = rng.integers(-8, 8, (w, 3)) / 2.0
    hi = lo + 2.0 ** rng.integers(-1, 3, (w, 1))
    centers, halves = _child_boxes(lo, hi)
    rows = np.arange(k)
    tris = []
    for n in range(w):
        planes = np.stack([lo[n], 0.5 * (lo[n] + hi[n]), hi[n]])  # (lo, mid, hi) x axis
        span = hi[n] - lo[n]
        for kind in range(8):
            t = lo[n] - span / 4 + rng.integers(0, 13, (k, 3, 3)) / 8.0 * span
            a = rng.integers(0, 3, k)
            side = rng.choice([0, 2], k)
            if kind == 0:
                t[rows, :, a] = planes[1, a][:, None]
            elif kind == 1:
                t[rows, :, a] = planes[side, a][:, None]
            elif kind == 2:
                beyond = rng.integers(0, 3, (k, 3)) / 8.0 * span[a][:, None]
                beyond[:, 0] = 0.0  # vertex 0 on the face, the others outside
                beyond[side == 0] *= -1.0
                t[rows, :, a] = planes[side, a][:, None] + beyond
            elif kind == 3:
                t = planes[rng.integers(0, 3, (k, 3, 3)), np.arange(3)]
            elif kind == 4:
                t[:, 1] = t[:, 0] + 2.0**-20 * rng.integers(-2, 3, (k, 3))
            elif kind >= 6:
                child = rng.integers(0, 8, k)
                c, h = centers[n, child][:, None], halves[n, child][:, None]  # (k, 1, 3)
                t = c + rng.integers(-7, 8, (k, 3, 3)) / 8.0 * h
                if kind == 7:
                    face = np.where(side == 0, -1.0, 1.0) * h[rows, 0, a]
                    t[rows, rng.integers(0, 3, k), a] = c[rows, 0, a] + face
            tris.append(t)
    tc = np.concatenate(tris)
    return tc, np.arange(len(tc)), np.repeat(np.arange(w), 8 * k), lo, hi


@pytest.mark.parametrize("budget", [None, 1, 7])
def test_wave_prefilter_matches_unfiltered_sat(budget, monkeypatch):
    """The slab prefilter changes no wave hit: the full SAT test runs on
    exactly the (pair, child) entries of crossing pairs that no box-normal
    axis separates and that do not lie inside the child box, and every
    entry inside is a hit.  The near entries are every entry within reach
    of the inflated box that is not a hit: those that the shrunk box's
    slabs separate and the inflated box's do not, those that the full test
    rejects and the full test against the inflated box keeps (each
    rejected entry goes through it once more), and every such entry of a
    pair that does not cross; such a pair has no hit."""
    rng = np.random.default_rng(43)
    tc, pair_tri, pair_node, lo, hi = _wave_cases(rng)
    centers, halves = _child_boxes(lo, hi)
    pad = 2.0**-12  # a dyadic reach, so that the cases' touching stays exact
    reach = _child_boxes(lo, hi, shrink=0.0)[1] + pad
    pair_cross = rng.random(len(pair_tri)) < 0.8
    pair_tri_all, pair_node_all = pair_tri, pair_node
    if budget is not None:
        monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", budget)
    tested = []
    full_sat = spatial._tri_box_overlap

    def recording(t, c, h):
        tested.append(len(t))
        return full_sat(t, c, h)

    monkeypatch.setattr(spatial, "_tri_box_overlap", recording)
    bounds = tc.min(axis=1), tc.max(axis=1)
    got, near = spatial._wave_mask(
        tc, bounds, pair_tri, pair_cross, pair_node, centers, halves, reach
    )
    assert not got[~pair_cross].any()
    crossing = np.flatnonzero(pair_cross)
    got, pair_tri, pair_node = got[crossing], pair_tri[crossing], pair_node[crossing]

    # unfiltered reference: every pair against all 8 children, one pair at a time
    want = np.array([
        full_sat(tc[t][None, None], centers[n][None], halves[n][None])[0]
        for t, n in zip(pair_tri, pair_node)
    ])
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size

    def offsets(halves):
        """Per (pair, child, axis): the least and greatest vertex offset, and h."""
        v = tc[pair_tri][:, None] - centers[pair_node][:, :, None, :]  # (P, 8, vertex, axis)
        return v.min(axis=2), v.max(axis=2), halves[pair_node]

    def box_axes_separate(halves):
        vmin, vmax, h = offsets(halves)
        return ((vmin > h) | (vmax < -h)).any(axis=2)

    vmin, vmax, h = offsets(halves)
    slab_sep = box_axes_separate(halves)
    contained = ((vmin >= -h) & (vmax <= h)).all(axis=2)
    missed = ~slab_sep & ~want
    assert sum(tested) == int((~slab_sep & ~contained).sum() + missed.sum())
    assert int((~slab_sep & ~contained).sum()) < int((~slab_sep).sum())
    assert want[contained].all()
    # entries inside with a vertex offset exactly -h or h are in the cases
    assert (contained & ((vmin == -h) | (vmax == h)).any(axis=2)).any()
    assert (~slab_sep & ~want).any()  # the other 10 axes still decide some entries
    # entries that only touch a closed child box are in the cases: the shrink separates them
    assert (slab_sep & ~box_axes_separate(_child_boxes(lo, hi, shrink=0.0)[1])).any()
    # near entries: within the reach of a child box that the shrunk slabs keep
    # apart, or rejected by the full test and kept by it on the inflated box
    close = ~box_axes_separate(reach)
    inflated = np.array([
        full_sat(tc[t][None, None], centers[n][None], reach[n][None])[0]
        for t, n in zip(pair_tri, pair_node)
    ])
    assert np.array_equal(near[crossing], slab_sep & close | missed & inflated)
    assert (slab_sep & close).any() and (missed & inflated).any() and (missed & ~inflated).any()
    every = np.flatnonzero(~pair_cross)
    v = tc[pair_tri_all[every]][:, None] - centers[pair_node_all[every]][:, :, None, :]
    r = reach[pair_node_all[every]]
    assert np.array_equal(near[every], ~((v.min(axis=2) > r) | (v.max(axis=2) < -r)).any(axis=2))


@pytest.mark.parametrize("margin", [0.0, 0.01])
@pytest.mark.parametrize("name", ["box", "pocket"])
def test_root_classify_matches_sat_over_all_triangles(name, margin, pocket_plate, monkeypatch):
    """The root box's hits are the full SAT test's over every triangle.  At a
    positive margin every triangle lies inside the root box and none takes
    the full test; at margin 0 the triangles touching the root's faces take
    it."""
    mesh = {"box": box_mesh((3.0, 2.0, 1.0)), "pocket": pocket_plate}[name]
    m = mesh.metrics
    center = 0.5 * (np.array(m.bbox_min) + np.array(m.bbox_max))
    half = 0.5 * m.max_dimension * (1.0 + margin)
    lo, hi = (center - half)[None], (center + half)[None]
    shrunk = 0.5 * (hi - lo) * (1 - spatial._SHRINK)
    want = np.flatnonzero(
        mesh_io._tri_box_overlap(mesh.tri_coords(), 0.5 * (lo + hi), shrunk)
    )
    tested = []
    full_sat = spatial._tri_box_overlap

    def recording(t, c, h):
        tested.append(len(t))
        return full_sat(t, c, h)

    monkeypatch.setattr(spatial, "_tri_box_overlap", recording)
    hits, code = spatial._classify(mesh, lo, hi)
    assert np.array_equal(hits, want) and code == spatial._GREY
    if margin:
        assert len(want) == mesh.num_triangles and sum(tested) == 0
    else:  # the shrink separates the faces lying on the root's faces
        assert 0 < len(want) < mesh.num_triangles and sum(tested) > 0


def test_grey_shell_volume_shrinks_with_depth(sphere10):
    shells = []
    for depth in (2, 3, 4):
        tree = build_octree(sphere10, max_depth=depth)
        shells.append(sum(n.box_volume for n in tree.grey_leaves()))
    assert shells[0] > shells[1] > shells[2]


def test_find_leaf_locates_points(sphere_tree):
    for p in [(0.0, 0.0, 0.0), (9.5, 0.0, 0.0), (-7.0, 3.0, 2.0)]:
        leaf = sphere_tree.find_leaf(p)
        assert leaf in sphere_tree.leaves()
        assert np.all(np.asarray(leaf.box_min) <= p)
        assert np.all(p <= np.asarray(leaf.box_max))


def _reference_find_leaf(root, index, point):
    """One point, one box per level: the scalar descent; the leaf's index or -1.

    ``root`` is the root box (lo, hi) and ``index`` maps each leaf's path key
    to its index.
    """
    p = np.asarray(point, dtype=np.float64)
    lo, hi = root
    if (p < lo).any() or (p > hi).any():
        return -1
    key = 1
    while key not in index:
        mid = 0.5 * (lo + hi)
        upper = p >= mid
        lo, hi = np.where(upper, mid, lo), np.where(upper, hi, mid)
        key = key << 3 | int(upper[0]) | int(upper[1]) << 1 | int(upper[2]) << 2
    return index[key]


def _root_probes(tree):
    """Every root corner (p == box_max included) and points one ulp outside each face."""
    lo, hi = _root_box(tree)
    corners = np.where(spatial._CHILD_BITS, hi, lo)
    outside = []
    for axis in range(3):
        for face, away in ((lo, -np.inf), (hi, np.inf)):
            q = 0.5 * (lo + hi)
            q[axis] = np.nextafter(face[axis], away)
            outside.append(q)
    return corners, np.array(outside)


def test_find_leaves_matches_scalar_descent(sphere10, sphere_tree, pocket_plate):
    plate_tree = build_octree(pocket_plate, max_depth=3)
    slab = box_mesh((2.0, 2.0, 1.0))  # unmargined: its faces lie on split planes and root faces
    slab_tree = build_octree(slab, max_depth=3, margin=0.0)
    cases = [
        (sphere_tree, sphere10.vertices),
        (plate_tree, pocket_plate.vertices),
        (slab_tree, slab.vertices),
    ]
    for tree, vertices in cases:
        corners, outside = _root_probes(tree)
        leaf_corners = np.array([c for n in tree.leaves() for c in (n.box_min, n.box_max)])
        points = np.concatenate([vertices, corners, outside, leaf_corners])
        found = tree.find_leaves(points)
        assert len(found) == len(points)
        root = _root_box(tree)
        index = {key: i for i, key in enumerate(tree.path_key.tolist())}
        for p, i in zip(points, found.tolist()):
            assert i == _reference_find_leaf(root, index, p)
            assert tree.find_leaf(p) is (None if i < 0 else tree.leaves()[i])
        assert (found[len(vertices) : len(vertices) + 8] >= 0).all()
        assert (found[len(vertices) + 8 : len(vertices) + 14] == -1).all()
    assert len(slab_tree.find_leaves(np.empty((0, 3)))) == 0


def test_grey_leaves_built_once(sphere_tree):
    greys = sphere_tree.grey_leaves()
    assert sphere_tree.grey_leaves() is greys
    assert greys == [n for n in sphere_tree.leaves() if n.octant_class is OctantClass.GREY]
    with pytest.raises(ValueError):  # records are views of the tree's read-only arrays
        greys[0].box_min[0] = 0.0


# ---------------------------------------------------------------------------
# estimate_part_volume


def test_estimate_black_box_short_circuits(unit_cube):
    v = estimate_part_volume(unit_cube, (0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
    assert v == pytest.approx(0.5**3)


def test_estimate_white_box(unit_cube):
    assert estimate_part_volume(unit_cube, (5, 5, 5), (6, 6, 6)) == 0.0


def test_estimate_half_overlap(unit_cube):
    # box [0.5, 1.5] x [0,1]^2 overlaps the part in exactly half its volume
    v = estimate_part_volume(unit_cube, (0.5, 0.0, 0.0), (1.5, 1.0, 1.0))
    assert v == pytest.approx(0.5, abs=0.05)
    assert v == pytest.approx(0.5, rel=1e-12)


def test_estimate_deterministic(sphere10):
    box = ((0.0, 0.0, 0.0), (7.0, 7.0, 7.0))
    a = estimate_part_volume(sphere10, *box)
    b = estimate_part_volume(sphere10, *box)
    assert a == b


# ---------------------------------------------------------------------------
# refine


def test_refine_equals_deeper_build(sphere10):
    base = build_octree(sphere10, max_depth=3)
    refined = refine(base, sphere10)
    direct = build_octree(sphere10, max_depth=4)
    assert refined.fingerprint() == direct.fingerprint()
    assert _dump_text(refined) == _dump_text(direct)


# content_hash of each tree, recorded when grey leaves got their exact
# volumes from the column sweep; a kernel change must not move a byte
_PINNED_FINGERPRINTS = {
    "sphere10-d5": "e823aecca981e7535ec2318f264f50345468c168393d4fab2dfb9e2eb52a1920",
    "pocket-d5": "5149da1a7d17400ae27d186bec589078707b5dbb7bec82df408b8df79ef37660",
    "ico20480-d4": "b4923ec99aedd5c729275c029b892c72a8bf9a7da2f022fd037230fccadecd4d",
}


@pytest.mark.parametrize(
    "case, depth",
    [("sphere10-d5", 5), ("pocket-d5", 5), ("ico20480-d4", 4)],
)
def test_octree_fingerprint_pinned(case, depth, sphere10, pocket_plate):
    # pocket walls are vertical (flat pairs in the column kernel); the
    # 20,480-triangle sphere gives long triangle lists per node
    mesh = {
        "sphere10-d5": sphere10,
        "pocket-d5": pocket_plate,
        "ico20480-d4": icosphere(10.0, 5),
    }[case]
    tree = build_octree(mesh, max_depth=depth)
    assert tree.fingerprint()["content_hash"] == _PINNED_FINGERPRINTS[case]


@pytest.mark.parametrize("case", ["pocket-d5", "sphere10-d5"])
def test_refine_fingerprint_pinned(case, sphere10, pocket_plate):
    mesh = {"pocket-d5": pocket_plate, "sphere10-d5": sphere10}[case]
    refined = refine(build_octree(mesh, max_depth=4), mesh)
    assert refined.fingerprint()["content_hash"] == _PINNED_FINGERPRINTS[case]


def _permute_triangles(mesh, rng):
    return TriMesh(mesh.vertices, mesh.triangles[rng.permutation(len(mesh.triangles))])


def _permute_vertices(mesh, rng):
    """The vertex array permuted, and each triangle's corners rotated by 0-2
    steps, which keeps its orientation."""
    perm = rng.permutation(len(mesh.vertices))
    triangles = np.argsort(perm)[mesh.triangles]  # old vertex i is now at argsort(perm)[i]
    turn = (np.arange(3) + rng.integers(0, 3, (len(triangles), 1))) % 3
    return TriMesh(mesh.vertices[perm], np.take_along_axis(triangles, turn, axis=1))


@pytest.mark.parametrize("case", ["sphere10", "pocket", "sphere10-vertices", "pocket-vertices"])
def test_triangle_order_changes_nothing_but_mesh_hash(case, sphere10, pocket_plate):
    """Permuting a mesh's triangles, or its vertices and each triangle's
    corners, leaves the octree and the local fields unchanged."""
    name, _, vertices = case.partition("-")
    mesh = {"sphere10": sphere10, "pocket": pocket_plate}[name]
    reorder = _permute_vertices if vertices else _permute_triangles
    shuffled = reorder(mesh, np.random.default_rng(11))
    profiles = default_profiles()
    results = []
    for m in (mesh, shuffled):
        tree = build_octree(m, max_depth=4)
        reach = tool_flexibility_field(m, tree, profiles.subtractive)
        height = build_height_field(tree, profiles.additive)
        results.append((tree, _dump_text(tree), reach.values, height.values))
    (a, dump_a, reach_a, height_a), (b, dump_b, reach_b, height_b) = results
    assert a.mesh_hash != b.mesh_hash
    assert a.fingerprint() == b.fingerprint()
    assert dump_a == dump_b
    assert np.array_equal(reach_a, reach_b)
    assert np.array_equal(height_a, height_b)


def test_refine_all_black_tree_is_noop():
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=2, margin=0.0)
    out = refine(tree, mesh)
    assert out.max_depth == 3
    assert out.fingerprint()["leaf_count"] == tree.fingerprint()["leaf_count"]
    assert out.fingerprint()["content_hash"] == tree.fingerprint()["content_hash"]


def test_refine_grey_growth_factor(sphere10):
    # a smooth 2-D boundary shell asymptotically quadruples per level
    tree = build_octree(sphere10, max_depth=3)
    refined = refine(tree, sphere10)
    factor = len(refined.grey_leaves()) / len(tree.grey_leaves())
    assert 4.0 <= factor <= 8.0


def test_refine_rejects_other_mesh(sphere10, unit_cube):
    tree = build_octree(sphere10, max_depth=2)
    with pytest.raises(MeshMismatchError):
        refine(tree, unit_cube)


def test_refine_depth_ceiling():
    # margin 0 keeps this cheap: the root itself is the only (black) leaf
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=10, margin=0.0)
    with pytest.raises(DepthRangeError):
        refine(tree, mesh)


# ---------------------------------------------------------------------------
# leaf dump


def test_dump_leaves_schema(sphere_tree):
    lines = _dump_text(sphere_tree).splitlines()
    assert len(lines) == len(sphere_tree.leaves())
    seen = set()
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"depth", "box_min", "box_max", "class", "part_volume"}
        assert rec["class"] in ("black", "white", "grey")
        assert 0 <= rec["depth"] <= sphere_tree.max_depth
        seen.add(rec["class"])
    assert seen == {"black", "white", "grey"}


# sha256 of each tree's leaf dump, recorded when grey leaves got their exact
# volumes from the column sweep (the cube's, which has no grey leaf, is
# older); with margin 0 the cube's root box is the cube, so the root is a
# black leaf
_PINNED_DUMPS = {
    "sphere10-d3": "d8166295a1557dbd66f00fbd2a80a8410567b554c805ead5c040a24b8bd714ec",
    "pocket-d3": "8e6730cfaca8f50c19ceeb0015ae7e8dc2c4b946d41273d6c8abfc93466b0cc8",
    "box-d1": "0ff0fcdf2776279dda786d6ea5a8a798c9b120b3fc85b7fa7b25d7913839c6f9",
    "cube-root": "6cf09b2ba32518da4a1da40cd0931d58ea315420ee82e5c44beb892a3347c06d",
}


@pytest.mark.parametrize("case", sorted(_PINNED_DUMPS))
def test_dump_leaves_pinned(case, sphere10, pocket_plate):
    mesh, depth, margin = {
        "sphere10-d3": (sphere10, 3, 0.01),
        "pocket-d3": (pocket_plate, 3, 0.01),
        "box-d1": (box_mesh((3.0, 2.0, 1.0)), 1, 0.01),
        "cube-root": (box_mesh((2.0, 2.0, 2.0)), 2, 0.0),
    }[case]
    dump = _dump_text(build_octree(mesh, max_depth=depth, margin=margin)).encode()
    assert hashlib.sha256(dump).hexdigest() == _PINNED_DUMPS[case]


def test_total_volume_matches_leaf_sum(sphere_tree):
    total = sum(leaf.part_volume for leaf in sphere_tree.leaves())
    assert sphere_tree.total_part_volume() == pytest.approx(total)


@pytest.mark.parametrize("depth", [5, 6])
def test_total_volume_independent_of_leaf_order(depth):
    """The leaf volumes are summed correctly rounded: any order of the leaves
    gives the same total, and on this sphere it is the mesh volume to 1e-15
    (a sequential sum missed it by 4.2e-14 at depth 5)."""
    mesh = icosphere(10.0, subdivisions=4)
    tree = build_octree(mesh, max_depth=depth, margin=0.01)
    volumes = tree.part_volume[np.random.default_rng(depth).permutation(len(tree.part_volume))]
    assert tree.total_part_volume() == math.fsum(volumes.tolist())
    assert tree.total_part_volume() == pytest.approx(mesh.metrics.volume, rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(depth=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**20))
def test_build_depth_and_seed_always_valid(depth, seed):
    """Any in-range depth, with the triangles in any order (a permutation
    seed), builds a valid tree that conserves the box volume.

    Leaf by leaf, at every depth: a black leaf holds its whole box, a white
    leaf nothing, a grey leaf between the two.  The 15 % bound on the total
    dates from sampled grey volumes, which missed by up to 15.0 % at depth 1
    (all 8 leaves of this box are grey); volumes are exact now, so the total
    is 6.0 to within 1e-12 at every depth and triangle order.
    """
    mesh = _permute_triangles(box_mesh((3.0, 2.0, 1.0)), np.random.default_rng(seed))
    tree = build_octree(mesh, max_depth=depth)
    assert tree.max_depth == depth
    for leaf in tree.leaves():
        if leaf.octant_class is OctantClass.BLACK:
            assert leaf.part_volume == leaf.box_volume
        elif leaf.octant_class is OctantClass.WHITE:
            assert leaf.part_volume == 0.0
        else:
            assert 0.0 <= leaf.part_volume <= leaf.box_volume
    if depth >= 2:
        assert tree.total_part_volume() == pytest.approx(6.0, rel=0.15)
    assert tree.total_part_volume() == pytest.approx(6.0, rel=1e-12)
