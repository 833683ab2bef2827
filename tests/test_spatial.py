import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap import spatial
from manumap.errors import DepthRangeError, MeshMismatchError, NotWatertightError
from manumap.mesh_io import TriMesh, _points_inside
from manumap.primitives import box_mesh, icosphere
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
    kids = tree.root.children
    assert len(kids) == 8
    assert all(k.octant_class is OctantClass.GREY for k in kids)
    # cross-check against the standalone classifier
    for k in kids:
        assert classify_box(sphere10, k.box_min, k.box_max) is OctantClass.GREY


def test_box_part_with_zero_margin_is_black_root():
    mesh = box_mesh((2.0, 2.0, 2.0))
    tree = build_octree(mesh, max_depth=3, margin=0.0)
    assert tree.root.is_leaf
    assert tree.root.octant_class is OctantClass.BLACK
    assert tree.root.part_volume == pytest.approx(8.0)


def test_root_is_inflated_cube(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=1, margin=0.01)
    ext = np.asarray(tree.root.box_max) - np.asarray(tree.root.box_min)
    assert ext[0] == ext[1] == ext[2]
    assert ext[0] == pytest.approx(64.0 * 1.01)
    assert np.all(np.asarray(tree.root.box_min) <= tree.mesh_bbox_min)
    assert np.all(np.asarray(tree.root.box_max) >= tree.mesh_bbox_max)


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
    with pytest.raises(ValueError):
        build_octree(unit_cube, max_depth=2, samples=1)
    with pytest.raises(ValueError):
        build_octree(unit_cube, max_depth=2, margin=-0.5)


def _dump_text(tree) -> str:
    buf = io.StringIO()
    tree.dump_leaves(buf)
    return buf.getvalue()


def test_rebuild_is_byte_identical(pocket_plate):
    a = build_octree(pocket_plate, max_depth=3)
    b = build_octree(pocket_plate, max_depth=3)
    assert a.fingerprint() == b.fingerprint()
    assert _dump_text(a) == _dump_text(b)


def test_children_partition_parent_exactly(sphere_tree):
    def walk(node):
        if node.is_leaf:
            return
        los = sorted(tuple(c.box_min) for c in node.children)
        his = sorted(tuple(c.box_max) for c in node.children)
        mid = tuple((a + b) / 2.0 for a, b in zip(node.box_min, node.box_max))
        # exact bound sharing: child corners are built from parent bounds + midpoint
        xs = sorted({node.box_min[0], mid[0], node.box_max[0]})
        assert {lo[0] for lo in los} == set(xs[:2])
        assert {hi[0] for hi in his} == set(xs[1:])
        child_vol = sum(c.box_volume for c in node.children)
        assert child_vol == pytest.approx(node.box_volume, rel=1e-12)
        for c in node.children:
            walk(c)

    walk(sphere_tree.root)


def test_only_grey_nodes_subdivided(sphere_tree):
    def walk(node):
        if node.children:
            assert node.octant_class is OctantClass.GREY
            for c in node.children:
                walk(c)

    walk(sphere_tree.root)


def test_black_white_leaf_volumes(sphere_tree):
    for leaf in sphere_tree.leaves():
        if leaf.octant_class is OctantClass.BLACK:
            assert leaf.part_volume == pytest.approx(leaf.box_volume)
        elif leaf.octant_class is OctantClass.WHITE:
            assert leaf.part_volume == 0.0
        else:
            assert 0.0 <= leaf.part_volume <= leaf.box_volume


def test_leaf_volumes_match_per_leaf_reference(sphere10, monkeypatch):
    """Batched wave and sampling arithmetic, at any chunk size, equals the
    one-leaf-at-a-time form."""
    n, seed = 3, 5
    whole = build_octree(sphere10, max_depth=3, samples=n, seed=seed)
    # SAT chunks of 7 pairs and sampling batches of 3 leaves put seams everywhere
    monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", 7)
    monkeypatch.setattr(spatial, "_SAMPLE_POINT_BUDGET", 3 * n**3 + 1)
    tree = build_octree(sphere10, max_depth=3, samples=n, seed=seed)
    assert tree.fingerprint() == whole.fingerprint()
    ijk = np.stack(
        np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    for leaf in tree.leaves():
        if leaf.octant_class is OctantClass.GREY:
            jitter = np.random.default_rng([seed, leaf.path_key]).random((n**3, 3))
            pts = leaf.box_min + (ijk + jitter) / n * (leaf.box_max - leaf.box_min)
            inside = _points_inside(sphere10, pts, seed=seed)
            assert leaf.part_volume == leaf.box_volume * (float(inside.sum()) / n**3)
        elif leaf.octant_class is OctantClass.BLACK:
            assert leaf.part_volume == leaf.box_volume


def test_grey_shell_volume_shrinks_with_depth(sphere10):
    shells = []
    for depth in (2, 3, 4):
        tree = build_octree(sphere10, max_depth=depth)
        shells.append(sum(n.box_volume for n in tree.grey_leaves()))
    assert shells[0] > shells[1] > shells[2]


def test_find_leaf_locates_points(sphere_tree):
    for p in [(0.0, 0.0, 0.0), (9.5, 0.0, 0.0), (-7.0, 3.0, 2.0)]:
        leaf = sphere_tree.find_leaf(p)
        assert leaf.is_leaf
        assert np.all(np.asarray(leaf.box_min) <= p)
        assert np.all(p <= np.asarray(leaf.box_max))


# ---------------------------------------------------------------------------
# estimate_part_volume


def test_estimate_black_box_short_circuits(unit_cube):
    v = estimate_part_volume(unit_cube, (0.25, 0.25, 0.25), (0.75, 0.75, 0.75), resolution=2)
    assert v == pytest.approx(0.5**3)


def test_estimate_white_box(unit_cube):
    assert estimate_part_volume(unit_cube, (5, 5, 5), (6, 6, 6), resolution=4) == 0.0


def test_estimate_half_overlap(unit_cube):
    # box [0.5, 1.5] x [0,1]^2 overlaps the part in exactly half its volume
    v = estimate_part_volume(unit_cube, (0.5, 0.0, 0.0), (1.5, 1.0, 1.0), resolution=8)
    assert v == pytest.approx(0.5, abs=0.05)


def test_estimate_needs_two_samples(unit_cube):
    with pytest.raises(ValueError):
        estimate_part_volume(unit_cube, (0, 0, 0), (1, 1, 1), resolution=1)


def test_estimate_deterministic(sphere10):
    box = ((0.0, 0.0, 0.0), (7.0, 7.0, 7.0))
    a = estimate_part_volume(sphere10, *box, resolution=5)
    b = estimate_part_volume(sphere10, *box, resolution=5)
    assert a == b


# ---------------------------------------------------------------------------
# refine


def test_refine_equals_deeper_build(sphere10):
    base = build_octree(sphere10, max_depth=3)
    refined = refine(base, sphere10)
    direct = build_octree(sphere10, max_depth=4)
    assert refined.fingerprint() == direct.fingerprint()
    assert _dump_text(refined) == _dump_text(direct)


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


def test_total_volume_matches_leaf_sum(sphere_tree):
    total = sum(leaf.part_volume for leaf in sphere_tree.leaves())
    assert sphere_tree.total_part_volume() == pytest.approx(total)


@settings(max_examples=25, deadline=None)
@given(depth=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**20))
def test_build_depth_and_seed_always_valid(depth, seed):
    """Any in-range depth/seed must build a tree conserving cube volume."""
    mesh = box_mesh((3.0, 2.0, 1.0))
    tree = build_octree(mesh, max_depth=depth, seed=seed)
    assert tree.max_depth == depth
    assert tree.total_part_volume() == pytest.approx(6.0, rel=0.15)
