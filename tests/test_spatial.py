import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap import mesh_io, spatial
from manumap.additive import build_height_field
from manumap.analysis import AnalysisParams
from manumap.errors import (
    ConfigError,
    DegenerateMeshError,
    DepthRangeError,
    MeshMismatchError,
    NotWatertightError,
    ParameterError,
)
from manumap.machining import tool_flexibility_field
from manumap.mesh_io import TriMesh, _points_inside
from manumap.primitives import box_mesh, icosphere, slab_with_pockets, torus_mesh
from manumap.profiles import default_profiles
import oracles
from oracles import (
    box_clip_integrals,
    box_part_volume,
    displaced_box_contact,
    find_leaf,
    ramp_prism_volume,
    winding_numbers,
)
from manumap.spatial import (
    OctantClass,
    build_octree,
    classify_box,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", ["box_min", "box_max"])
def test_classify_box_rejects_non_finite_bounds(unit_cube, bad, corner):
    bounds = {"box_min": [0.0, 0.0, 0.0], "box_max": [1.0, 1.0, 1.0]}
    bounds[corner][1] = bad
    with pytest.raises(ParameterError):
        classify_box(unit_cube, **bounds)


def test_face_coincident_boxes_resolve_by_center(unit_cube):
    """A face on a box plane counts for the box below, left of or in front
    of it, and only for that one; the other boxes it touches are classed by
    their center.

    The unit cube sitting in the lower-left octant of a [0,2] cube: its
    faces x, y, z = 1 lie on the upper planes of that octant, which is
    grey, and on the lower planes of its neighbours, which are white.  Its
    faces x, y, z = 0 lie on the upper planes of the boxes beyond them.
    """
    octants = []
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                lo = np.array([dx, dy, dz], dtype=float)
                octants.append(classify_box(unit_cube, lo, lo + 1.0))
    assert octants.count(OctantClass.GREY) == 1
    assert octants.count(OctantClass.WHITE) == 7
    assert classify_box(unit_cube, (0, 0, 0), (1, 1, 1)) is OctantClass.GREY
    assert classify_box(unit_cube, (1, 0, 0), (2, 1, 1)) is OctantClass.WHITE
    assert classify_box(unit_cube, (-1, 0, 0), (0, 1, 1)) is OctantClass.GREY
    assert classify_box(unit_cube, (0.25, 0.25, 0.25), (0.75, 0.75, 1.0)) is OctantClass.GREY
    assert classify_box(unit_cube, (0.25, 0.25, 1.0), (0.75, 0.75, 1.5)) is OctantClass.WHITE


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


def test_box_part_with_zero_margin_has_grey_root():
    """At margin 0 the root box is the cube, whose faces x, y, z = 2 lie on
    the root's upper planes: the root is grey, and so is every leaf with a
    face on those planes, down to max_depth.  Those leaves are whole cube,
    so every leaf holds its whole box."""
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=3, margin=0.0)
    on_top = (tree.box_max == 2.0).any(axis=1)
    assert np.array_equal(tree.class_code == spatial._GREY, on_top)
    assert (tree.class_code[~on_top] == spatial._BLACK).all()
    assert (tree.depth[on_top] == 3).all() and len(tree.grey_index) == 8**3 - 7**3
    box = np.prod(tree.box_max - tree.box_min, axis=1)
    assert np.array_equal(tree.part_volume, box)
    assert tree.total_part_volume() == 8.0


def test_root_is_inflated_cube(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=1, margin=0.01)
    lo, hi = _root_box(tree)
    ext = hi - lo
    assert ext[0] == ext[1] == ext[2]
    assert ext[0] == pytest.approx(64.0 * 1.01)
    assert np.all(lo <= tree.mesh_bbox_min)
    assert np.all(hi >= tree.mesh_bbox_max)


def test_root_holds_the_part():
    """At margin 0 the cube ``center ± half`` can round inside the part's
    bounding box by an ulp, as it does on the first box here; the root box
    is widened to hold it, or the part's faces outside it would be lost.
    On that box at depths 1-6, and on 50 random boxes at depths 1 and 4
    (11 of whose cubes round inside), the root holds the bounding box, the
    leaves add up to the mesh volume and every vertex finds a leaf."""
    lo = np.array([0.9616571936637868, 0.7247899407735336, 0.5412268555474342])
    hi = np.array([1.2385483977091576, 0.8854419495486605, 1.5111522687635668])
    cases = [(box_mesh(hi - lo, lo), range(1, 7))]
    rng = np.random.default_rng(1)
    for _ in range(50):
        origin = rng.uniform(0, 1, 3)
        cases.append((box_mesh(rng.uniform(0.05, 1, 3), origin), (1, 4)))
    rounded = 0
    for mesh, depths in cases:
        m = mesh.metrics
        center, half = 0.5 * (np.array(m.bbox_min) + m.bbox_max), 0.5 * m.max_dimension
        rounded += bool((center - half > m.bbox_min).any() or (center + half < m.bbox_max).any())
        for depth in depths:
            tree = build_octree(mesh, max_depth=depth, margin=0.0)
            root_lo, root_hi = _root_box(tree)
            assert (root_lo <= m.bbox_min).all() and (root_hi >= m.bbox_max).all()
            assert tree.total_part_volume() == pytest.approx(m.volume, rel=1e-12, abs=0)
            assert (tree.find_leaves(mesh.vertices) >= 0).all()
    assert rounded == 12


#: A watertight mesh of volume 0 whose bounding box is the unit cube: two
#: doubled triangles, one on z = 0 and one on x = 0, the lower faces of its
#: root box at margin 0.
_ROOT_FACES_MESH = TriMesh(
    np.array([[0.6, 0.6, 0], [1, 0.6, 0], [1, 1, 0], [0, 0, 0.6], [0, 0.4, 0.6], [0, 0, 1]], dtype=float),
    np.array([[0, 1, 2], [0, 2, 1], [3, 4, 5], [3, 5, 4]]),
)


def test_mesh_the_root_box_does_not_meet_raises():
    """A face on one of the root box's lower faces meets no box of the
    tree, so a mesh made only of such faces has no grey leaf to grade."""
    assert _ROOT_FACES_MESH.metrics.watertight
    with pytest.raises(DegenerateMeshError, match="no box meets the surface"):
        build_octree(_ROOT_FACES_MESH, max_depth=2, margin=0.0)
    assert len(build_octree(_ROOT_FACES_MESH, max_depth=2, margin=0.01).grey_index)


def test_depth_out_of_range(unit_cube):
    with pytest.raises(DepthRangeError):
        build_octree(unit_cube, max_depth=0)
    with pytest.raises(DepthRangeError):
        build_octree(unit_cube, max_depth=11)


def test_open_mesh_rejected(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        build_octree(open_mesh, max_depth=2)


def test_margin_validation(unit_cube):
    """A negative margin is refused, and ``samples`` is no keyword of the build."""
    with pytest.raises(TypeError):
        build_octree(unit_cube, max_depth=2, samples=4)
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
    return "".join(tree.dump_lines())


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


def test_leaf_volumes_match_per_leaf_reference(sphere10, pocket_plate, monkeypatch):
    """Batched contact and volume arithmetic, at any chunk size, gives the tree
    of the default sizes.  Each grey leaf's volume is the exact one that
    oracles.box_part_volume finds for the leaf's box alone, whose top
    cross-section comes from the prism above the box instead of the column
    sweep, to within 1e-12 of the box volume: on every 4th grey leaf of the
    sphere, and on every grey leaf of the pocket plate."""
    whole = build_octree(sphere10, max_depth=3)
    # contact windows of 7 columns or entries, volume-kernel chunks of 5 pairs
    # and column-kernel chunks of 5 pairs put seams everywhere
    monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", 7)
    monkeypatch.setattr(spatial, "_CLIP_PAIR_BUDGET", 5)
    monkeypatch.setattr(mesh_io, "_COLUMN_PAIR_BUDGET", 5)
    tree = build_octree(sphere10, max_depth=3)
    monkeypatch.undo()
    assert tree.fingerprint() == whole.fingerprint()
    columns = tree.box_min[tree.grey_index, :2]
    assert len(np.unique(columns, axis=0)) < len(columns)  # stacked leaves share one sweep
    pocket = build_octree(pocket_plate, max_depth=3)
    for mesh, leaves in ((sphere10, tree.grey_leaves()[::4]), (pocket_plate, pocket.grey_leaves())):
        for leaf in leaves:
            alone = box_part_volume(mesh, leaf.box_min, leaf.box_max)
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


def _count_exact_contacts(monkeypatch):
    """Record the coordinates of every (triangle, box) entry the contact
    kernel decides on integers: 9 of the triangle, then lo and hi."""
    calls = []
    exact = mesh_io._exact_contacts

    def counted(rows, open_axes):
        calls.extend(rows)
        return exact(rows, open_axes)

    monkeypatch.setattr(mesh_io, "_exact_contacts", counted)
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


def test_contact_kernel_matches_oracle(monkeypatch):
    """The contact kernel equals the exact oracle on every triangle of
    :func:`_kernel_cases` against the unit box, and against a box whose
    planes (multiples of 0.1) are not dyadic, with vertices on those planes
    or moved 1 ulp off them: exact ties and ties within rounding.  Some of
    each go to the integer stage."""
    rng = np.random.default_rng(31)
    tc = _kernel_cases(rng)
    lo, hi = np.array([-0.1, -0.3, 0.1]), np.array([0.2, -0.1, 0.2])
    shape = (600, 3, 3)
    near = np.where(rng.random(shape) < 0.5, lo, hi)  # every coordinate on a box plane,
    near += rng.uniform(-0.3, 0.3, shape) * (rng.random(shape) < 0.3)  # some moved off it,
    off = np.nextafter(near, rng.choice([-np.inf, np.inf], shape))
    near = np.where(rng.random(shape) < 0.5, near, off)  # and half of them by 1 ulp more
    for tri, box in ((tc, (np.zeros(3), np.ones(3))), (near, (lo, hi)), (tc * 0.3 - 0.1, (lo, hi))):
        exact = _count_exact_contacts(monkeypatch)
        got = mesh_io._tri_box_overlap(tri, box[0][None], box[1][None])
        monkeypatch.undo()
        want = np.array([displaced_box_contact(t, *box) for t in tri])
        assert np.array_equal(got, want)
        assert 0 < want.sum() < len(want) and len(exact) > 0


def test_pair_integrals_match_exact_clipping():
    """The volume kernel's P1 and Pz of each (triangle, box) pair equal the
    exact rational clip of the triangle by the box, to within 1e-12, for
    triangles with corners, edges and faces on or next to the box planes
    and for triangles far larger than the box."""
    tc = _kernel_cases(np.random.default_rng(29))
    mesh = TriMesh(tc.reshape(-1, 3), np.arange(3 * len(tc)).reshape(-1, 3))
    tri = np.arange(len(tc))
    box = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
    p1, pz = spatial._pair_integrals(mesh, tri, np.zeros_like(tri), box)
    want = np.array([box_clip_integrals(t, box[0, :3], box[0, 3:]) for t in tc])
    scale = np.maximum(1.0, np.abs(want))
    assert (np.abs(np.column_stack([p1, pz]) - want) <= 1e-12 * scale).all()
    assert (want[:, 0] != 0).sum() > len(tc) // 2


def _kernel_pairs(tree):
    """The volume kernel's pairs of a tree: triangle ids, grey-leaf rank and
    the grey boxes as (lo, hi) rows."""
    g = tree.grey_index
    pair_leaf = np.repeat(np.arange(len(g)), np.diff(tree.grey_tri_ptr))
    return tree.grey_tri_ids, pair_leaf, np.hstack([tree.box_min[g], tree.box_max[g]])


#: Twin entries (a plane against the other plane of its axis) and the
#: other parallel (constraint, line) entries that the gathered kernel tests.
_KERNEL_PARALLELS = {"sphere-d6": (108944, 7176), "pocket-margin0": (3952, 6585), "pocket-margin0.01": (8960, 14826)}


@pytest.mark.parametrize(
    "case", ["sphere-d6", "dense-d5", "pocket-margin0", "pocket-margin0.01", *(f"ulps{u}" for u in range(-2, 3))]
)
def test_volume_kernel_equals_the_gathered_reference(case, pocket_plate, monkeypatch):
    """(P1, Pz) of every pair of these builds equal, bit for bit, those of
    :func:`oracles.reference_pair_integrals`, the kernel that gathered
    each group of pairs from its chunk, sent every parallel constraint to
    the offset test and picked its bounds on t by ``np.where``: on sphere
    d6 and dense d5, the pocket plate at d5 and margins 0 and 0.01, and
    the tie blocks at d5 and margin 0, their faces on split planes and 1
    and 2 ulps off them.  The sphere's pairs hold twin planes; the pocket
    plate's axis-parallel edges give parallel constraints that are not
    twins."""
    mesh, depth, margin = {
        "sphere-d6": lambda: (icosphere(10.0, 4), 6, 0.01),
        "dense-d5": lambda: (icosphere(10.0, 6), 5, 0.01),
        "pocket-margin0": lambda: (pocket_plate, 5, 0.0),
        "pocket-margin0.01": lambda: (pocket_plate, 5, 0.01),
    }.get(case, lambda: (_tie_block(int(case[4:]))[0], 5, 0.0))()
    tri, pair_leaf, boxes = _kernel_pairs(build_octree(mesh, max_depth=depth, margin=margin))
    twins, parallel = [], []
    fans, shut = spatial._clipped_fans, oracles.reference_offsets_shut

    def count_twins(t, floor, box, q):
        axis = q >> 1
        twins.append(2 * int((axis[:-1] == axis[1:]).sum()))
        return fans(t, floor, box, q)

    def count_parallel(*args):
        parallel.append(len(args[0]))
        return shut(*args)

    monkeypatch.setattr(spatial, "_clipped_fans", count_twins)
    monkeypatch.setattr(oracles, "reference_offsets_shut", count_parallel)
    got = spatial._pair_integrals(mesh, tri, pair_leaf, boxes)
    want = oracles.reference_pair_integrals(mesh, spatial._turns(mesh), tri, pair_leaf, boxes)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert (got[0] != 0).any()
    if case in _KERNEL_PARALLELS:
        assert (sum(twins), sum(parallel) - sum(twins)) == _KERNEL_PARALLELS[case]


def test_offset_test_never_shuts_a_twin():
    """The gathered kernel's parallel test never shuts a line by its twin,
    the other plane of its axis, nor the twin by the line: their offsets
    add up to at least 0, for rounding is monotone.  Over random triangles
    at scales 1e-3 to 1e3, slivers and near-horizontal ones among them, and
    boxes whose two planes on an axis are far apart, 1 ulp apart, or one
    of them through the corner A."""
    rng = np.random.default_rng(61)
    n = 6000
    tc = rng.uniform(-1.0, 1.0, (n, 3, 3)) * 10.0 ** rng.integers(-3, 4, (n, 1, 1))
    tc += rng.uniform(-100.0, 100.0, (n, 1, 3))
    tc[: n // 4, 2] = tc[: n // 4, 1] + 1e-9 * rng.uniform(-1.0, 1.0, (n // 4, 3))  # slivers
    tc[n // 4 : n // 2, :, 2] = tc[n // 4 : n // 2, :1, 2] + 1e-12 * rng.uniform(size=(n // 4, 3))  # nearly flat
    a, b, c = tc[:, 0], tc[:, 1] - tc[:, 0], tc[:, 2] - tc[:, 0]
    area = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    b, c = np.where(area[:, None] > 0, b, c), np.where(area[:, None] > 0, c, b)  # counterclockwise in xy
    t = np.vstack([a.T, b.T, c.T, np.abs(area)])
    tmin, tmax = tc.min(axis=1).T, tc.max(axis=1).T
    checked = 0
    for axis in range(3):
        lo = tmin[axis] + rng.uniform(0.0, 1.0, n) * (tmax[axis] - tmin[axis])
        hi = lo + rng.uniform(0.0, 1.0, n) * (tmax[axis] - lo)
        kind = rng.integers(0, 3, n)
        hi = np.where(kind == 1, np.nextafter(lo, np.inf), hi)
        lo = np.where(kind == 2, a[:, axis], lo)
        hi = np.where(kind == 2, np.maximum(hi, np.nextafter(lo, np.inf)), hi)
        box = np.vstack([np.full((3, n), -1e9), np.full((3, n), 1e9)])
        box[axis], box[3 + axis] = lo, hi
        keep = (t[9] > 0) & (lo < hi)
        q = np.array([[2 * axis], [2 * axis + 1]]).repeat(n, axis=1)
        planes = oracles.reference_box_planes(t, box, q)[:, :, keep]
        for j, i in ((0, 1), (1, 0)):
            with np.errstate(divide="ignore", invalid="ignore"):  # a flat triangle's z planes have no normal
                shut = oracles.reference_offsets_shut(planes[2, j], planes[:2, j], planes[2, i], planes[:2, i], j < i)
            assert not shut.any(), axis
        checked += int(keep.sum())
    assert checked > 2 * n


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
    x = 80: it meets only the boxes under the plane, touching the plane
    along its edge at x = 0.  Every leaf, black, white or grey, holds the
    exact volume of the block inside its box, to within 1e-12 of the box
    volume, at depths 1-6.
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
        box = np.prod(tree.box_max - tree.box_min, axis=1)
        assert (np.abs(tree.part_volume - want) <= 1e-12 * box).all(), depth


def _oracle_contacts(mesh, lo, hi, first=False):
    """The (box, triangle) contacts of every triangle of ``mesh`` and each box
    ``lo``/``hi`` (N, 3) by :func:`oracles.displaced_box_contact`, which
    has no filter.  It runs only on the pairs that no box-normal axis
    separates under the tie rule (``tmax > lo`` and ``tmin <= hi`` on
    every axis); it would reject the others on a box normal.  With
    ``first``, each box stops at its first contact."""
    tmin, tmax = mesh.tri_bounds()
    tc = mesh.tri_coords()
    box, tri = [], []
    for s in range(0, len(lo), 1024):
        b, t = np.nonzero(((tmax > lo[s : s + 1024, None]) & (tmin <= hi[s : s + 1024, None])).all(axis=2))
        box.append(s + b)
        tri.append(t)
    found = np.zeros(len(lo), dtype=bool)
    pairs = []
    for b, t in zip(np.concatenate(box).tolist(), np.concatenate(tri).tolist()):
        if not (first and found[b]) and displaced_box_contact(tc[t], lo[b], hi[b]):
            found[b] = True
            pairs.append((b, t))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def _oracle_classes(mesh, tree):
    """The class of every leaf's own box: grey where the oracle finds a
    contact, else black or white by its center."""
    grey = np.zeros(len(tree.box_min), dtype=bool)
    grey[_oracle_contacts(mesh, tree.box_min, tree.box_max, first=True)[:, 0]] = True
    inside = _points_inside(mesh, 0.5 * (tree.box_min + tree.box_max))
    return np.where(grey, spatial._GREY, np.where(inside, spatial._BLACK, spatial._WHITE))


@pytest.mark.parametrize("margin", [0.0, 0.01])
@pytest.mark.parametrize(
    "ulps, slope",
    [(0, -(2.0**-33)), (-2, 0.0), (-1, 0.0), (0, 0.0), (1, 0.0), (2, 0.0)],
    ids=["tilted", "ulps-2", "ulps-1", "ulps0", "ulps1", "ulps2"],
)
def test_every_leaf_has_its_own_box_class(ulps, slope, margin):
    """Every leaf's class is the oracle's on its own box, at depths 1-6, on
    the tilted-top block and the split-plane blocks: grey exactly when a
    triangle meets the box displaced by (e, e**2, e**3), else black or
    white by its center.  :func:`classify_box` says the same box by box on
    the depth-6 leaves under the split plane z = 60 and on 100 others."""
    mesh, _, _ = _tie_block(ulps, slope)
    for depth in range(1, 7):
        tree = build_octree(mesh, max_depth=depth, margin=margin)
        want = _oracle_classes(mesh, tree)
        assert np.array_equal(tree.class_code, want), (depth, int((tree.class_code != want).sum()))
    below = np.flatnonzero((tree.box_max[:, 2] == 60.0) & (tree.box_min[:, 0] < 40.0))
    others = np.random.default_rng(5).choice(len(want), 100, replace=False)
    for i in np.union1d(below[:300], others).tolist():
        assert classify_box(mesh, tree.box_min[i], tree.box_max[i]) is spatial._CLASSES[want[i]], i


@pytest.mark.parametrize("name", ["tilted", "sphere10"])
def test_grey_lists_hold_every_triangle_in_reach(name, sphere10):
    """Each grey leaf's list is exactly the triangles that meet its box
    displaced by (e, e**2, e**3), by the oracle, at margins 0 and 0.01:
    the contacts, which are all the volume kernel needs, and no more."""
    mesh = {"tilted": lambda: _tie_block(0, -(2.0**-33))[0], "sphere10": lambda: sphere10}[name]()
    for margin in (0.0, 0.01):
        tree = build_octree(mesh, max_depth=4, margin=margin)
        g = tree.grey_index
        need = _oracle_contacts(mesh, tree.box_min[g], tree.box_max[g])
        listed = np.repeat(np.arange(len(g)), np.diff(tree.grey_tri_ptr))
        have = np.column_stack([listed, tree.grey_tri_ids])
        assert np.array_equal(np.unique(have, axis=0), np.unique(need, axis=0))
        assert len(need) > len(g)  # every grey leaf has a triangle, some more than one


# (mesh, depth, margin) -> entries the contact kernel decides on integers, and
# grey-list pairs.  The blocks' face diagonals run through box corners on the
# plane x = y, and the spheres' six axis vertices lie on box edges: real ties.
# The kernel sees only the candidate cells that each triangle's plane reaches
# column by column (spatial._jump), and no cell of a triangle thin on two axes.
_EXACT_CONTACTS = {
    "block-d5": (164, 6958),
    "half-d5": (148, 4846),
    "sphere-d6": (30, 51596),
    "dense-d5": (24, 141656),
    "tie-block-margin0-d5": (154, 5221),
}


@pytest.mark.parametrize("case", sorted(_EXACT_CONTACTS))
def test_exact_contact_entries_pinned(case, split_block, monkeypatch):
    """How many (triangle, box) entries the float bounds leave to the
    integer stage, and how many pairs the grey lists hold, on the
    benchmark meshes at their margin and on the tie block at margin 0.
    Every entry the integer stage decides gets the oracle's answer.  The
    one-piece block at margin 0 and depth 5 has 8,814 leaves, 3,897 grey."""
    mesh, depth, margin = {
        "block-d5": (split_block, 5, 0.01),
        "half-d5": (slab_with_pockets((80.0, 80.0, 30.0), [((34.0, 34.0, 46.0, 46.0), 20.0)]), 5, 0.01),
        "sphere-d6": (icosphere(10.0, 4), 6, 0.01),
        "dense-d5": (icosphere(10.0, 6), 5, 0.01),
        "tie-block-margin0-d5": (_tie_block(0)[0], 5, 0.0),
    }[case]
    exact = _count_exact_contacts(monkeypatch)
    tree = build_octree(mesh, max_depth=depth, margin=margin)
    monkeypatch.undo()
    assert (len(exact), len(tree.grey_tri_ids)) == _EXACT_CONTACTS[case]
    every_axis = [[True] * 10] * len(exact)
    want = [displaced_box_contact(np.reshape(c[:9], (3, 3)), c[9:12], c[12:]) for c in exact]
    assert mesh_io._exact_contacts(exact, every_axis) == want
    if case == "tie-block-margin0-d5":
        assert (len(tree.path_key), len(tree.grey_index)) == (8814, 3897)


@pytest.mark.parametrize("name", ["block", "pocket", "sphere10"])
def test_grouped_center_casts_match_one_point_calls(name, split_block, pocket_plate, sphere10, monkeypatch):
    """The build casts the centers of the children the surface misses, at
    every level, in one call with one line per xy column.  Every black or
    white leaf still has the class of a one-point _points_inside call on
    its center, and the winding-number oracle's, and permuting the
    triangles changes no byte.  The block's centers on the
    x = y diagonal meet the diagonal edges of its faces inside those
    grouped casts, where the exact stage decides them."""
    mesh = {"block": split_block, "pocket": pocket_plate, "sphere10": sphere10}[name]
    casts, lines, in_build = [], [], []
    grid_cls = mesh_io._ColumnGrid
    points_inside, crossings, cells_of = spatial._points_inside, grid_cls.crossings, grid_cls._cells_of

    def spy_centers(*args):
        in_build.append(True)
        try:
            return points_inside(*args)
        finally:
            in_build.pop()

    def spy_cast(self, xy, hz):
        if in_build:
            bits = np.ascontiguousarray(xy).view(np.int64)
            casts.append(np.unique(bits, axis=0, return_counts=True)[1])  # centers per xy
        return crossings(self, xy, hz)

    def spy_lines(self, xy):
        if in_build:
            assert len(np.unique(xy, axis=0)) == len(xy)  # one line per column
            lines.append(len(xy))
        return cells_of(self, xy)

    monkeypatch.setattr(spatial, "_points_inside", spy_centers)
    monkeypatch.setattr(grid_cls, "crossings", spy_cast)
    monkeypatch.setattr(grid_cls, "_cells_of", spy_lines)
    exact = _count_exact_orientations(monkeypatch, in_build)
    tree = build_octree(mesh, max_depth=4)
    monkeypatch.undo()

    solid = np.flatnonzero(tree.class_code != spatial._GREY)
    assert sum(int(k.sum()) for k in casts) == len(solid)  # every black or white leaf, once
    assert [len(k) for k in casts] == lines  # each cast looks up one line per xy
    assert max(int(k.max(initial=0)) for k in casts) > 1  # stacked centers share a line
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


def test_stacked_leaves_share_their_column_bounds(pocket_plate):
    """Grey leaves (all at one depth) share a column, their path keys equal
    but for each level's z bit, exactly when their x and y bounds are
    bitwise equal: the subdivision computes each axis from that axis's
    bits alone.  The volume sweep finds its runs by those bits."""
    tree = build_octree(pocket_plate, max_depth=4)
    g = tree.grey_index
    z_bits = sum(4 << 3 * level for level in range(tree.max_depth))
    columns = tree.path_key[g] & ~z_bits
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


def _child_boxes(lo, hi):
    """(W, 8, 3) child boxes (cmin, cmax) of nodes (W, 3)."""
    bits = spatial._CHILD_BITS
    mid = 0.5 * (lo + hi)
    return np.where(bits, mid[:, None, :], lo[:, None, :]), np.where(bits, hi[:, None, :], mid[:, None, :])


def _node_cases(rng, w=30, k=5):
    """Dyadic nodes, each paired with k triangles of eight kinds.

    The kinds: lying in a child split plane; lying in a node face; touching a
    node face from outside; every vertex on slab faces (each coordinate the
    node's lo, mid or hi); needles; random; strictly inside one child; inside
    one child but for one vertex coordinate on a face of that child.
    Dyadic numbers keep the child boxes' centers, half-widths and touching
    exact.
    """
    lo = rng.integers(-8, 8, (w, 3)) / 2.0
    hi = lo + 2.0 ** rng.integers(-1, 3, (w, 1))
    cmin, cmax = _child_boxes(lo, hi)
    centers, halves = 0.5 * (cmin + cmax), 0.5 * (cmax - cmin)
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
    return tc, np.repeat(np.arange(w), 8 * k), lo, hi


def _cell_ranges(planes, tmin, tmax):
    """Each triangle's first and last max-depth cell on each axis, (3, M) each."""
    return [spatial._cells_below(planes, np.ascontiguousarray(t.T)) for t in (tmin, tmax)]


def test_cell_ranges_match_searchsorted_and_thin_cells_are_contacts():
    """Per axis, a triangle's first and last max-depth cell are
    ``searchsorted(planes, t, "left") - 1`` of its bounds, on dyadic nodes
    whose triangles lie on, touch or straddle the split planes, and on
    planes that are not dyadic.  A triangle whose range is one cell on two
    axes or more meets, by the exact oracle, every cell that its slabs keep:
    the contacts a jump takes without the kernel.  Among them are faces in
    a split plane, which meet only the cells below it, and slivers in one
    xy column that cross several cells in z."""
    rng = np.random.default_rng(47)
    tc, pair_node, lo, hi = _node_cases(rng)
    checked = on_plane = 0
    for n in range(len(lo)):
        planes = spatial._split_planes(lo[n], hi[n], 2)  # 4 cells a side
        width = planes[:, 1:] - planes[:, :-1]
        cell = rng.integers(0, 4, (10, 3))
        corner, size = planes[[0, 1, 2], cell][:, None], width[[0, 1, 2], cell][:, None]
        inside = corner + rng.integers(1, 8, (10, 3, 3)) / 8.0 * size  # strictly inside one cell
        flat = inside[:5].copy()  # in a split plane of their cell: on its lower or upper face
        axis = rng.integers(0, 3, 5)
        flat[np.arange(5), :, axis] = planes[axis, cell[np.arange(5), axis] + rng.integers(0, 2, 5)][:, None]
        tall = inside[5:].copy()  # one xy column, z anywhere in the node and a little past it
        tall[:, :, 2] = lo[n, 2] + rng.integers(-2, 35, (5, 3)) / 32.0 * (hi[n, 2] - lo[n, 2])
        t = np.concatenate([tc[pair_node == n], flat, tall])
        tmin, tmax = t.min(axis=1), t.max(axis=1)
        for shift in (0.0, 0.1):  # dyadic planes, then planes 0.1 off them
            moved = spatial._split_planes(lo[n] + shift, hi[n] + shift, 3)
            r0, r1 = _cell_ranges(moved, tmin + shift, tmax + shift)
            for a in range(3):
                assert np.array_equal(r0[a], np.searchsorted(moved[a], tmin[:, a] + shift, "left") - 1)
                assert np.array_equal(r1[a], np.searchsorted(moved[a], tmax[:, a] + shift, "left") - 1)
        r0, r1 = _cell_ranges(planes, tmin, tmax)
        for i in np.flatnonzero((r0 == r1).sum(axis=0) >= 2).tolist():
            first, last = np.maximum(r0[:, i], 0), np.minimum(r1[:, i], 3)
            on_plane += bool((tmin[i] == tmax[i]).any() and np.isin(tmin[i], planes).any())
            for c in itertools.product(*(range(f, l + 1) for f, l in zip(first.tolist(), last.tolist()))):
                box = planes[[0, 1, 2], c], planes[[0, 1, 2], np.add(c, 1)]
                assert displaced_box_contact(t[i], *box), (n, i, c)
                checked += 1
    assert checked > 500 and on_plane > 100


def _contact_cases():
    """The fixture matrix of the contact tests: (name, mesh thunk, margin, depth)."""
    from conftest import t_slot_part

    meshes = {f"ulps{u}": (lambda u=u: _tie_block(u)[0]) for u in (-2, -1, 0, 1, 2)}
    meshes["tilted"] = lambda: _tie_block(0, -(2.0**-33))[0]
    meshes["pocket"] = lambda: slab_with_pockets((64.0, 64.0, 64.0), [((22.0, 22.0, 42.0, 42.0), 40.0)])
    meshes["torus"] = lambda: torus_mesh(20.0, 8.0, segments_major=24, segments_minor=12)
    meshes["t_slot"] = t_slot_part
    meshes["cube"] = lambda: box_mesh((1.0, 1.0, 1.0))
    meshes["sphere10"] = lambda: icosphere(10.0, 3)
    cases = [("tilted", meshes["tilted"], 0.0, 6), ("sphere10", meshes["sphere10"], 0.01, 6)]
    for i, (name, mesh) in enumerate(meshes.items()):
        for j, margin in enumerate((0.0, 0.01, 0.3)):
            cases.append((name, mesh, margin, 1 + (2 * i + j) % 5))
    return cases


def _bounding_box_jump(tc, planes, thin, first, last, tri, max_depth):
    """``spatial._jump`` with neither its candidate filter nor its thin rule:
    every cell of each pair's box of cells goes through the contact kernel,
    in chunks of 32,768 cells."""
    count = (last - first + 1).astype(np.int64)
    n = count.prod(axis=0)
    pair = np.repeat(np.arange(len(tri)), n)
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
    found = []
    for s in range(0, len(pair), 1 << 15):
        p, r = pair[s : s + (1 << 15)], rank[s : s + (1 << 15)]
        yz, x = np.divmod(r, count[0, p])
        z, y = np.divmod(yz, count[1, p])
        cells = first[:, p] + np.stack([x, y, z])
        hit = mesh_io._tri_box_overlap(tc[tri[p]], *spatial._boxes(planes, cells, 1))
        key = spatial._SPREAD[cells[:, hit]]
        found.append((key[0] | key[1] << 1 | key[2] << 2 | 1 << 3 * max_depth) << 32 | tri[p][hit])
    return found


_REFERENCE_TREES = {}


def _reference_tree(name, mesh, margin, depth):
    """The build of :func:`_bounding_box_jump`, cached per case: its
    fingerprint and grey CSR."""
    key = name, margin, depth
    if key not in _REFERENCE_TREES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spatial, "_jump", _bounding_box_jump)
            tree = build_octree(mesh, max_depth=depth, margin=margin)
        _REFERENCE_TREES[key] = tree.fingerprint(), tree.grey_tri_ptr, tree.grey_tri_ids
    return _REFERENCE_TREES[key]


@pytest.mark.parametrize("levels", [1, None], ids=["waves-only", "jump-from-root"])
def test_jump_limit_changes_no_byte(levels):
    """How many levels a (node, triangle) pair jumps at once changes no
    byte, and the column-by-column candidates lose no contact.  Waves only:
    the tree is built at depth 1 and refined one level at a time, so every
    pair jumps from a node to its 8 children.  Jump from the root: the
    build at the full depth, where every pair jumps from the root to its
    max-depth cells, and ``refine`` of the build one level shallower.  On
    the tie blocks, the tilted top, the pocket plate, torus, T-slot, cube
    and sphere at margins 0, 0.01 and 0.3 and depths 1-6, and on the
    rotated box at depth 6, each tree equals a reference that sends every
    cell of each pair's box of cells through the contact kernel, with no
    thin-triangle rule: equal fingerprints and grey lists."""
    from conftest import rotated_box

    built = {}
    for name, mesh, margin, depth in [*_contact_cases(), ("rotated", rotated_box, 0.01, 6)]:
        mesh = built.setdefault(name, mesh())
        if levels == 1:
            tree = build_octree(mesh, max_depth=1, margin=margin)
            while tree.max_depth < depth:
                tree = refine(tree, mesh)
            trees = [tree]
        else:
            trees = [build_octree(mesh, max_depth=depth, margin=margin)]
            if depth > 1:
                trees.append(refine(build_octree(mesh, max_depth=depth - 1, margin=margin), mesh))
        fingerprint, ptr, ids = _reference_tree(name, mesh, margin, depth)
        for tree in trees:
            assert tree.max_depth == depth, (name, margin, depth)
            assert tree.fingerprint() == fingerprint, (name, margin, depth)
            assert np.array_equal(tree.grey_tri_ptr, ptr), (name, margin, depth)
            assert np.array_equal(tree.grey_tri_ids, ids), (name, margin, depth)


@pytest.mark.parametrize("budget", [None, 100])
def test_jump_holds_every_contact_of_degenerate_triangles(budget, monkeypatch):
    """On dyadic nodes split into 8 cells a side, ``spatial._jump`` finds
    the contacts that the kernel finds on every cell of each triangle's box
    of cells, in windows of any size and with no warning: for triangles in
    split planes, on node and slab faces, needles, triangles inside one
    cell, and zero-area ones (a point; corners on one line), which take
    their whole range along the axis of their computed normal."""
    rng = np.random.default_rng(53)
    tc, node, lo, hi = _node_cases(rng)
    if budget is not None:
        monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", budget)
    flat = 0
    for n in range(len(lo)):
        a, b = lo[n] + rng.integers(0, 9, (2, 4, 3)) / 8.0 * (hi[n] - lo[n])
        line = np.stack([a, b, 0.5 * (a + b)], axis=1)  # C the midpoint of AB, exactly
        point = np.repeat(a[:, None], 3, axis=1)
        t = np.concatenate([tc[node == n], line, point])
        planes = spatial._split_planes(lo[n], hi[n], 3)
        r0, r1 = _cell_ranges(planes, t.min(axis=1), t.max(axis=1))
        tri = np.flatnonzero(((r1 >= 0) & (r0 <= 7)).all(axis=0))  # the slabs keep the node
        first, last = np.clip(r0[:, tri], 0, 7), np.clip(r1[:, tri], 0, 7)
        thin = (r0 == r1).sum(axis=0) >= 2
        got, want = (np.sort(np.concatenate(f(t, planes, thin, first, last, tri, 3)))
                     for f in (spatial._jump, _bounding_box_jump))
        assert np.array_equal(got, want), n
        flat += int(np.isin(want & 0xFFFFFFFF, np.arange(len(t) - 8, len(t))).sum())
    assert flat > 100  # contacts of zero-area triangles


@pytest.mark.parametrize("depth, contacts", [(6, 12898), (7, 49308)])
def test_candidates_follow_the_contacts(depth, contacts, monkeypatch):
    """On the rotated box, whose triangles' boxes of cells hold more than 30
    times their contacts at depth 6 and 60 times at depth 7, the candidate
    cells (contact-kernel entries, plus the contacts of thin triangles)
    stay within 3 times the contacts.  The depth-7 build's traced peak
    stays under 64 MiB."""
    from conftest import rotated_box

    mesh = rotated_box()
    entries, hits = [], []
    kernel = spatial._tri_box_overlap

    def counted(t, lo, hi):
        hit = kernel(t, lo, hi)
        entries.append(len(hit))
        hits.append(int(hit.sum()))
        return hit

    monkeypatch.setattr(spatial, "_tri_box_overlap", counted)
    tree = build_octree(mesh, max_depth=depth)
    monkeypatch.undo()
    assert len(tree.grey_tri_ids) == contacts
    planes = spatial._split_planes(tree.box_min[0], tree.box_max[-1], depth)
    r0, r1 = (np.clip(r, 0, (1 << depth) - 1) for r in _cell_ranges(planes, *mesh.tri_bounds()))
    assert (r1 - r0 + 1).prod(axis=0).sum() > 30 * 2 ** (depth - 6) * contacts
    candidates = sum(entries) + contacts - sum(hits)
    assert contacts < candidates <= 3 * contacts
    if depth == 7:
        tracemalloc.start()
        try:
            build_octree(mesh, max_depth=depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


# (mesh, depth) at margin 0.01 -> contact-kernel entries, and contacts that
# thin triangles take from their range boxes without the kernel
_CONTACT_PASS_COUNTS = {
    "block-d5": (12112, 0),
    "half-d5": (8272, 0),
    "sphere-d6": (70898, 0),
    "dense-d5": (42924, 103850),
}


@pytest.mark.parametrize("case", sorted(_CONTACT_PASS_COUNTS))
def test_contact_pass_counts_pinned(case, split_block, monkeypatch):
    """How many (cell, triangle) entries the contact pass sends to the
    kernel, and how many contacts come from thin triangles' range boxes,
    on the benchmark meshes: the range boxes take 73 % of the dense
    sphere's contacts, and the kernel sees every other candidate."""
    mesh, depth = {
        "block-d5": lambda: (split_block, 5),
        "half-d5": lambda: (slab_with_pockets((80.0, 80.0, 30.0), [((34.0, 34.0, 46.0, 46.0), 20.0)]), 5),
        "sphere-d6": lambda: (icosphere(10.0, 4), 6),
        "dense-d5": lambda: (icosphere(10.0, 6), 5),
    }[case]()
    entries, hits = [], []
    kernel = spatial._tri_box_overlap

    def counted(t, lo, hi):
        hit = kernel(t, lo, hi)
        entries.append(len(hit))
        hits.append(int(hit.sum()))
        return hit

    monkeypatch.setattr(spatial, "_tri_box_overlap", counted)
    tree = build_octree(mesh, max_depth=depth)
    monkeypatch.undo()
    assert (sum(entries), len(tree.grey_tri_ids) - sum(hits)) == _CONTACT_PASS_COUNTS[case]


#: build_octree's traced peak, in MiB, on a mesh whose caches are filled:
#: the peaks of the build that sent thin triangles' cells column by column
#: and gathered each volume-kernel group, rounded up.
_BUILD_PEAKS_MIB = {"dense-d5": 14.87, "sphere-d6": 14.28, "block-d5": 6.76}


@pytest.mark.parametrize("case", sorted(_BUILD_PEAKS_MIB))
def test_build_traced_peak_bounded(case, split_block):
    """Taking thin triangles' range boxes whole and reordering each volume
    chunk once raise no build's traced peak: windows of thin pairs are
    picked one at a time, and a chunk keeps only its sorted rows."""
    mesh, depth = {
        "dense-d5": lambda: (icosphere(10.0, 6), 5),
        "sphere-d6": lambda: (icosphere(10.0, 4), 6),
        "block-d5": lambda: (split_block, 5),
    }[case]()
    build_octree(mesh, max_depth=depth)  # fill the mesh's caches
    tracemalloc.start()
    try:
        build_octree(mesh, max_depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BUILD_PEAKS_MIB[case] * 2**20, peak


@pytest.mark.parametrize("margin", [0.0, 0.01])
@pytest.mark.parametrize("name", ["box", "pocket"])
def test_root_classify_matches_sat_over_all_triangles(name, margin, pocket_plate, sphere10):
    """The root box's contacts, the triangles in the grey lists of the
    depth-1 tree, are the contact kernel's over every triangle against the
    root box, and the oracle's; at margin 0 the faces on the root's lower
    faces lie outside the displaced box and are in no grey list.  And
    :func:`classify_box`, the column grid's box query on one box, agrees
    with the oracle's contacts and the center's winding number on 12 random
    non-dyadic boxes each of the tie block and of sphere10 per case, plus
    one box outside each mesh and one inside, which no triangle reaches,
    and two boxes over every grid bucket, where a triangle arrives from
    many cells: one around the whole bounding box and the depth-1 tree's
    root box."""
    mesh = {"box": box_mesh((3.0, 2.0, 1.0)), "pocket": pocket_plate}[name]
    tree = build_octree(mesh, max_depth=1, margin=margin)
    lo, hi = _root_box(tree)
    want = np.flatnonzero(mesh_io._tri_box_overlap(mesh.tri_coords(), lo[None], hi[None]))
    oracle = [i for i, t in enumerate(mesh.tri_coords()) if displaced_box_contact(t, lo, hi)]
    assert want.tolist() == oracle
    assert np.array_equal(np.unique(tree.grey_tri_ids), want)
    if margin:
        assert len(want) == mesh.num_triangles
    else:
        on_lower = (mesh.tri_bounds()[1] == lo).any(axis=1)
        assert on_lower.any() and np.array_equal(np.flatnonzero(~on_lower), want)

    rng = np.random.default_rng([len(name), int(100 * margin)])
    classes = []
    for part, inner in ((_tie_block(0)[0], (2.0, 2.0, 1.0)), (sphere10, (-1.0, -1.0, -1.0))):
        m = part.metrics
        bmin, size = np.array(m.bbox_min), np.array(m.bbox_max) - m.bbox_min
        box_lo = bmin - 0.2 * size + rng.uniform(0, 1.2, (12, 3)) * size
        box_lo = np.vstack([box_lo, bmin - size, inner])
        box_hi = box_lo + rng.uniform(0.03, 0.5, (14, 3)) * size
        box_hi[-2], box_hi[-1] = box_lo[-2] + 0.5 * size, box_lo[-1] + 2.0
        root = _root_box(build_octree(part, max_depth=1, margin=margin))
        box_lo = np.vstack([box_lo, bmin - 0.1 * size, root[0]])
        box_hi = np.vstack([box_hi, bmin + 1.1 * size, root[1]])
        tc = part.tri_coords()
        tmin, tmax = part.tri_bounds()
        centers = winding_numbers(part, 0.5 * (box_lo + box_hi)) > 0.5
        for b_lo, b_hi, inside in zip(box_lo, box_hi, centers):
            near = np.flatnonzero(((tmax >= b_lo) & (tmin <= b_hi)).all(axis=1))
            grey = any(displaced_box_contact(tc[i], b_lo, b_hi) for i in near)
            want = OctantClass.GREY if grey else OctantClass.BLACK if inside else OctantClass.WHITE
            assert classify_box(part, b_lo, b_hi) is want, (b_lo, b_hi)
            classes.append((want, len(near)))
    assert {c for c, _ in classes} == set(OctantClass)
    assert sum(n == 0 for _, n in classes) >= 4  # no triangle reaches these boxes


def test_grey_shell_volume_shrinks_with_depth(sphere10):
    shells = []
    for depth in (2, 3, 4):
        tree = build_octree(sphere10, max_depth=depth)
        shells.append(sum(n.box_volume for n in tree.grey_leaves()))
    assert shells[0] > shells[1] > shells[2]


def test_find_leaf_locates_points(sphere_tree):
    points = np.array([(0.0, 0.0, 0.0), (9.5, 0.0, 0.0), (-7.0, 3.0, 2.0)])
    for p, i in zip(points, sphere_tree.find_leaves(points).tolist()):
        leaf = sphere_tree.leaves()[i]
        assert np.all(np.asarray(leaf.box_min) <= p)
        assert np.all(p <= np.asarray(leaf.box_max))


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


def test_find_leaves_matches_scalar_descent(sphere10, pocket_plate):
    """find_leaves equals the scalar descent (oracles.find_leaf) on the
    sphere, the pocket plate and a slab at depths 1-6 and margins 0 and
    0.01, and on a refined tree: at every vertex, root corner, leaf corner
    and leaf center, one ulp outside each root face, and at a NaN, +inf or
    -inf on each axis of the root's center, which find no leaf and warn
    of nothing."""
    slab = box_mesh((2.0, 2.0, 1.0))  # unmargined: its faces lie on split planes and root faces
    cases = [(build_octree(mesh, max_depth=depth, margin=margin), mesh)
             for depth in range(1, 7) for margin in (0.0, 0.01) for mesh in (sphere10, pocket_plate, slab)]
    cases += [(refine(build_octree(mesh, max_depth=2, margin=0.0), mesh), mesh) for mesh in (pocket_plate, slab)]
    for tree, mesh in cases:
        vertices = mesh.vertices
        corners, outside = _root_probes(tree)
        centers = 0.5 * (tree.box_min + tree.box_max)
        unbounded = np.repeat(0.5 * (tree.box_min[:1] + tree.box_max[-1:]), 9, axis=0)
        unbounded[np.arange(9), np.arange(9) % 3] = np.repeat([np.nan, np.inf, -np.inf], 3)
        outside = np.concatenate([outside, unbounded])
        points = np.concatenate([vertices, corners, outside, tree.box_min, tree.box_max, centers])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = tree.find_leaves(points)
        assert len(found) == len(points)
        root = _root_box(tree)
        index = {key: i for i, key in enumerate(tree.path_key.tolist())}
        assert found.tolist() == [find_leaf(root, index, p) for p in points.tolist()]
        assert (found[len(vertices) : len(vertices) + 8] >= 0).all()
        assert (found[len(vertices) + 8 : len(vertices) + 8 + len(outside)] == -1).all()
        assert (found[-len(centers) :] == np.arange(len(centers))).all()
        assert len(tree.find_leaves(np.empty((0, 3)))) == 0


#: At margin 0, the vertices each of whose triangles lies on one of the root's lower faces.
_ROOT_FACE_VERTICES = {"pocket_plate": 9, "unit_cube": 1, "cube100": 1}


@pytest.mark.parametrize("name", sorted({*_exact_cases(), "slab"} - {"ico81920"}))
def test_vertices_land_in_boxes_their_triangles_meet(name, request):
    """Points and faces share one tie rule.  At margins 0 and 0.01 and depths
    1-6, each vertex with a triangle off the root's lower faces lands in a
    grey leaf whose grey list holds one of its triangles.  The others, whose
    faces no box meets (9 on the pocket plate and 1 on each cube, all at
    margin 0), land in black leaves from depth 2 on."""
    mesh = box_mesh((2.0, 2.0, 1.0)) if name == "slab" else _exact_cases()[name](request)
    n_tri, n_vert = len(mesh.triangles), len(mesh.vertices)
    pair_vertex, pair_tri = mesh.triangles.ravel(), np.repeat(np.arange(n_tri), 3)
    for margin in (0.0, 0.01):
        for depth in range(1, 7):
            tree = build_octree(mesh, max_depth=depth, margin=margin)
            on_root = (mesh.vertices[mesh.triangles] == tree.box_min[0]).all(axis=1).any(axis=1)
            free = np.zeros(n_vert, dtype=bool)
            np.logical_or.at(free, pair_vertex, ~on_root[pair_tri])
            leaf = tree.find_leaves(mesh.vertices)
            assert (leaf >= 0).all()
            rank = np.searchsorted(tree.grey_index, leaf)
            grey = tree.class_code[leaf] == spatial._GREY
            held = np.repeat(np.arange(len(tree.grey_index)), np.diff(tree.grey_tri_ptr)) * n_tri
            pair_held = grey[pair_vertex] & np.isin(rank[pair_vertex] * n_tri + pair_tri, held + tree.grey_tri_ids)
            meets = np.zeros(n_vert, dtype=bool)
            np.logical_or.at(meets, pair_vertex, pair_held)
            assert meets[free].all(), (margin, depth)
            assert (~free).sum() == (_ROOT_FACE_VERTICES.get(name, 0) if margin == 0 else 0), (margin, depth)
            if depth >= 2:
                assert (tree.class_code[leaf[~free]] == spatial._BLACK).all(), (margin, depth)


def test_grey_leaves_built_once(sphere_tree):
    greys = sphere_tree.grey_leaves()
    assert sphere_tree.grey_leaves() is greys
    assert greys == [n for n in sphere_tree.leaves() if n.octant_class is OctantClass.GREY]
    with pytest.raises(ValueError):  # records are views of the tree's read-only arrays
        greys[0].box_min[0] = 0.0


# ---------------------------------------------------------------------------
# refine


def test_refine_equals_deeper_build(sphere10):
    base = build_octree(sphere10, max_depth=3)
    refined = refine(base, sphere10)
    direct = build_octree(sphere10, max_depth=4)
    assert refined.fingerprint() == direct.fingerprint()
    assert _dump_text(refined) == _dump_text(direct)


# content_hash of each tree, recorded when grey leaves got their exact
# volumes from the column sweep; a kernel change must not move a byte.  The
# pocket's was recorded again when the grey lists became exactly the
# contacts: 4 boxes with a corner on the x = y diagonal of a face lost the
# triangle that touches them only there, and with it a 1.2e-14 rounding
_PINNED_FINGERPRINTS = {
    "sphere10-d5": "e823aecca981e7535ec2318f264f50345468c168393d4fab2dfb9e2eb52a1920",
    "pocket-d5": "08d353e47a69f33a340f05a3502625e1feb8488cda070fc830732129082043a2",
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


def test_fingerprint_hashes_in_chunks_of_fixed_size(sphere10):
    """fingerprint() hashes its leaf records _FINGERPRINT_ROW_BUDGET rows at
    a time, so its traced peak stays under 256 bytes a chunk row however
    many leaves there are (43,296 at d6, about 10 MiB at once), and its
    digest is that of the whole record array: depth, both box corners, the
    class name with grey's pad byte left out, and the volume, leaf by leaf."""
    for depth in (4, 6):
        tree = build_octree(sphere10, max_depth=depth)
        rec = np.empty(len(tree.path_key), dtype=spatial._FINGERPRINT_RECORD)
        rec["depth"] = tree.depth
        rec["box"] = np.hstack([tree.box_min, tree.box_max])
        rec["class"] = [spatial._CLASSES[c].value.encode() for c in tree.class_code]
        rec["volume"] = tree.part_volume
        pad = spatial._FINGERPRINT_RECORD.fields["class"][1] + 4
        rows = [r.tobytes() for r in rec]
        want = b"".join(
            r[:pad] + r[pad + 1 :] if c == spatial._GREY else r
            for r, c in zip(rows, tree.class_code.tolist())
        )
        tree._fingerprint = None
        tracemalloc.start()
        try:
            got = tree.fingerprint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got["content_hash"] == hashlib.sha256(want).hexdigest()
        assert peak < 256 * spatial._FINGERPRINT_ROW_BUDGET, depth
    assert len(tree.path_key) > 10 * spatial._FINGERPRINT_ROW_BUDGET


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


def test_refine_margin_zero_box_equals_deeper_build():
    """The cube at margin 0, its faces on the root's upper planes, refines
    to the deeper build bit for bit."""
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=2, margin=0.0)
    out = refine(tree, mesh)
    direct = build_octree(mesh, max_depth=3, margin=0.0)
    assert out.max_depth == 3
    assert out.fingerprint() == direct.fingerprint()
    assert _dump_text(out) == _dump_text(direct)


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
    # a root a million times the part keeps this cheap: below depth 1 each
    # grey node has one grey child, the one holding its corner of the part
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=10, margin=1e6)
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
# volumes from the column sweep; the pocket's and the cube's again when the
# grey lists became exactly the contacts.  With margin 0 the cube's root box
# is the cube, whose faces on the root's upper planes grey 37 of its 57
# leaves; the pocket's 8 leaves with a corner on a face diagonal moved in
# the last bits
_PINNED_DUMPS = {
    "sphere10-d3": "d8166295a1557dbd66f00fbd2a80a8410567b554c805ead5c040a24b8bd714ec",
    "pocket-d3": "5e796ba7ef0766aac136886c37fa45e55637e1360fe849000d9aa8c6609f6d65",
    "box-d1": "0ff0fcdf2776279dda786d6ea5a8a798c9b120b3fc85b7fa7b25d7913839c6f9",
    "cube-root": "975d1c9e814ca5b67fdec92af85696bd07abbad48f71e0b2dcbf959cb88ead4e",
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
