import hashlib
import io
import json

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
from manumap.primitives import box_mesh, icosphere
from manumap.profiles import default_profiles
from oracles import winding_numbers
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
    with pytest.raises(ValueError):
        build_octree(unit_cube, max_depth=2, samples=1)
    with pytest.raises(ValueError):
        build_octree(unit_cube, max_depth=2, margin=-0.5)


@pytest.mark.parametrize(
    "bad",
    [{"max_depth": 11}, {"samples": 1}, {"margin": np.inf}, {"margin": np.nan}, {"seed": -1}],
)
def test_every_entry_point_checks_build_params(unit_cube, bad):
    with pytest.raises(ConfigError):
        build_octree(unit_cube, **{"max_depth": 2, **bad})
    with pytest.raises(ConfigError):
        AnalysisParams(**bad)


def test_estimate_checks_resolution_and_seed(unit_cube):
    for kwargs in [{"resolution": 1}, {"seed": -1}]:
        with pytest.raises(ConfigError):
            estimate_part_volume(unit_cube, (0, 0, 0), (1, 1, 1), **kwargs)


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


def _leaf_points(leaf, n, seed):
    """A grey leaf's n**3 sample points, rebuilt alone from its column's line
    stream and its own height stream: lo + (ijk + jitter) / n * size."""
    ijk = np.stack(
        np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    key = np.array([leaf.path_key])
    lines = spatial._uniforms(seed, spatial._column_keys(key), spatial._LINE_STREAM, 2 * n * n)
    heights = spatial._uniforms(seed, key, spatial._HEIGHT_STREAM, n**3)
    jitter = np.column_stack([np.repeat(lines.reshape(n * n, 2), n, axis=0), heights[0]])
    return leaf.box_min + (ijk + jitter) / n * (leaf.box_max - leaf.box_min)


def _assert_leaf_volumes_match_points(tree, mesh, n, seed):
    for leaf in tree.leaves():
        if leaf.octant_class is OctantClass.GREY:
            inside = _points_inside(mesh, _leaf_points(leaf, n, seed))
            assert leaf.part_volume == leaf.box_volume * (float(inside.sum()) / n**3)
        elif leaf.octant_class is OctantClass.BLACK:
            assert leaf.part_volume == leaf.box_volume


def test_leaf_volumes_match_per_leaf_reference(sphere10, monkeypatch):
    """Batched wave and column sampling arithmetic, at any chunk size, equals
    the one-leaf-at-a-time form: a grey leaf's n**3 points rebuilt from its
    column's line stream and its own height stream, through _points_inside."""
    n, seed = 3, 5
    whole = build_octree(sphere10, max_depth=3, samples=n, seed=seed)
    # SAT chunks of 7 pairs, sampling batches of at most 3 leaves (a taller
    # column goes alone) and column-kernel chunks of 5 pairs put seams everywhere
    monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", 7)
    monkeypatch.setattr(spatial, "_SAMPLE_POINT_BUDGET", 3 * n**3 + 1)
    monkeypatch.setattr(mesh_io, "_COLUMN_PAIR_BUDGET", 5)
    tree = build_octree(sphere10, max_depth=3, samples=n, seed=seed)
    assert tree.fingerprint() == whole.fingerprint()
    columns = spatial._column_keys(tree.path_key[tree.grey_index])
    assert len(np.unique(columns)) < len(columns)  # stacked leaves share lines
    _assert_leaf_volumes_match_points(tree, sphere10, n, seed)


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


def test_grazing_samples_settle_as_points_do(monkeypatch):
    """Sample heights whose line runs through an edge get the answer of
    _points_inside, and the true one.  Lines pinned to their strata's
    centers run along the cube's face diagonals (x = y), where the exact
    stage decides them.  Only orientations evaluated inside the sampler's
    own call count, since box classification meets those edges too."""
    n, seed = 4, 3
    mesh = box_mesh((10.0, 10.0, 10.0))
    random = spatial._uniforms

    def centered_lines(seed, keys, stream, count):
        if stream == spatial._LINE_STREAM:
            return np.full((len(keys), count), 0.5)
        return random(seed, keys, stream, count)

    sampling = []
    sampler = spatial._heights_inside

    def spy_sampler(mesh, xy, hz, hptr):
        # several heights share each line
        assert (np.diff(hptr) > 1).all()
        sampling.append(True)
        try:
            return sampler(mesh, xy, hz, hptr)
        finally:
            sampling.pop()

    monkeypatch.setattr(spatial, "_uniforms", centered_lines)
    monkeypatch.setattr(spatial, "_heights_inside", spy_sampler)
    mesh._column_grid()  # its area signs are exact too: build it before counting
    exact = _count_exact_orientations(monkeypatch, sampling)
    tree = build_octree(mesh, max_depth=3, samples=n, seed=seed)
    assert len(exact) > 0
    assert all(x == y for _, _, _, _, x, y in exact)  # on the lines x = y
    _assert_leaf_volumes_match_points(tree, mesh, n, seed)
    # every sample off the surface has the winding-number oracle's answer
    pts = np.concatenate([_leaf_points(leaf, n, seed) for leaf in tree.grey_leaves()])
    on_diagonal = pts[:, 0] == pts[:, 1]
    assert on_diagonal.any()
    w = winding_numbers(mesh, pts)
    away = np.abs(w - 0.5) >= 0.4
    assert np.array_equal(_points_inside(mesh, pts)[away], w[away] > 0.5)
    assert (away & on_diagonal).any()


@pytest.mark.parametrize("name", ["block", "pocket", "sphere10"])
def test_grouped_center_casts_match_one_point_calls(name, split_block, pocket_plate, sphere10, monkeypatch):
    """Each wave casts its missed children's centers with one line per xy
    column.  Every black or white leaf still has the class of a one-point
    _points_inside call on its center, and the winding-number oracle's, and
    permuting the triangles changes no byte.  The block's centers on the
    x = y diagonal meet the diagonal edges of its faces inside those
    grouped casts, where the exact stage decides them."""
    mesh = {"block": split_block, "pocket": pocket_plate, "sphere10": sphere10}[name]
    seed = 101
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
    tree = build_octree(mesh, max_depth=4, seed=seed)
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
    assert build_octree(shuffled, max_depth=4, seed=seed).fingerprint() == tree.fingerprint()


def test_sample_streams_are_counter_hashes():
    """The sampler's jitter: a pure function of (seed, key, stream, counter),
    in [0, 1), with separate line and height streams even for the root box."""
    keys = np.array([1, 8, 9, 4681, 2**30], dtype=np.int64)
    line = spatial._uniforms(7, keys, spatial._LINE_STREAM, 64)
    assert ((line >= 0.0) & (line < 1.0)).all()
    assert np.array_equal(line, spatial._uniforms(7, keys, spatial._LINE_STREAM, 64))
    assert np.array_equal(line[2:3], spatial._uniforms(7, keys[2:3], spatial._LINE_STREAM, 64))
    assert np.array_equal(line[:, :5], spatial._uniforms(7, keys, spatial._LINE_STREAM, 5))
    assert not np.array_equal(line, spatial._uniforms(8, keys, spatial._LINE_STREAM, 64))
    # estimate_part_volume samples its box as key 1 in column 1
    root = np.ones(1, dtype=np.int64)
    assert spatial._column_keys(root).tolist() == [1]
    height = spatial._uniforms(7, root, spatial._HEIGHT_STREAM, 64)
    assert not np.intersect1d(line[0], height[0]).size
    # nearby seeds never share a stream under other keys
    first = [spatial._uniforms(s, np.arange(1, 4097), spatial._LINE_STREAM, 1) for s in range(8)]
    assert len(np.unique(np.concatenate(first))) == 8 * 4096
    big = spatial._uniforms(2**70 + 3, np.arange(1, 2001), spatial._HEIGHT_STREAM, 50).ravel()
    counts, _ = np.histogram(big, bins=10, range=(0.0, 1.0))
    assert np.abs(counts / len(big) - 0.1).max() < 0.005
    # a column key drops each level's z bit: 1, then x + 2y per level
    assert spatial._column_keys(np.array([8, 9, 15, 71])).tolist() == [4, 5, 7, 19]


def test_stacked_leaves_share_their_column_bounds(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=4)
    g = tree.grey_index
    columns = spatial._column_keys(tree.path_key[g])
    xy = np.hstack([tree.box_min[g, :2], tree.box_max[g, :2]])
    pairs = np.unique(np.column_stack([columns, xy.view(np.int64)]), axis=0)
    assert len(pairs) == len(np.unique(columns)) == len(np.unique(xy, axis=0)) < len(g)


def test_walled_part_volume_error_bound(pocket_plate):
    """Vertical walls correlate the estimates of leaves stacked on shared
    lines, so the error spreads wider than with lines per leaf.  Over seeds
    0-19 the pocket plate at depth 5 missed its volume by at most 1.5e-3,
    sd 7.4e-4 (1.1e-4 and 6.1e-5 with one line per sample point); the
    bound is 3e-3."""
    truth = pocket_plate.metrics.volume
    errors = [
        abs(build_octree(pocket_plate, max_depth=5, seed=s).total_part_volume() / truth - 1.0)
        for s in range(20)
    ]
    assert max(errors) <= 3e-3


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
    exactly the (pair, child) entries that no box-normal axis separates and
    that do not lie inside the child box, and every entry inside is a hit."""
    rng = np.random.default_rng(43)
    tc, pair_tri, pair_node, lo, hi = _wave_cases(rng)
    centers, halves = _child_boxes(lo, hi)
    if budget is not None:
        monkeypatch.setattr(spatial, "_SAT_PAIR_BUDGET", budget)
    tested = []
    full_sat = spatial._tri_box_overlap

    def recording(t, c, h):
        tested.append(len(t))
        return full_sat(t, c, h)

    monkeypatch.setattr(spatial, "_tri_box_overlap", recording)
    bounds = tc.min(axis=1), tc.max(axis=1)
    got = spatial._wave_mask(tc, bounds, pair_tri, pair_node, centers, halves)

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
    assert sum(tested) == int((~slab_sep & ~contained).sum()) < int((~slab_sep).sum())
    assert want[contained].all()
    # entries inside with a vertex offset exactly -h or h are in the cases
    assert (contained & ((vmin == -h) | (vmax == h)).any(axis=2)).any()
    assert (~slab_sep & ~want).any()  # the other 10 axes still decide some entries
    # entries that only touch a closed child box are in the cases: the shrink separates them
    assert (slab_sep & ~box_axes_separate(_child_boxes(lo, hi, shrink=0.0)[1])).any()


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


# content_hash of each tree, recorded when grey leaves took their samples on
# shared column lines; a kernel change must not move a byte
_PINNED_FINGERPRINTS = {
    "sphere10-d5": "a48698b0093752263c96bfcd764765c19a72de8b678b0516fc2be978367c8ffd",
    "pocket-d5": "abb83bcf43d3da90949805c55c9be460e74d33bb5210e948c9a789c43b161eb8",
    "ico20480-d4": "b42261cf2ca61698b24e3f8e644a834b562b091b9fe4d3400cf13423d4251c53",
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


# sha256 of each tree's leaf dump, recorded when grey leaves took their
# samples on shared column lines (the cube's, which has no grey leaf, is
# older); with margin 0 the cube's root box is the cube, so the root is a
# black leaf
_PINNED_DUMPS = {
    "sphere10-d3": "835b3c95e1b34756ef7b32764a5ee9252488c9e2493ed9013f2b24961e71e7ec",
    "pocket-d3": "f4861debdf65bfbca052e69dc34dad2046ecbad9e169a730261a1e32b0992728",
    "box-d1": "6737982d96d0921a46504872e5e6e9e469e4242d3b546b72a6b642d6eaf79087",
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


@settings(max_examples=25, deadline=None)
@given(depth=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**20))
def test_build_depth_and_seed_always_valid(depth, seed):
    """Any in-range depth and seed builds a valid tree that conserves the box volume.

    Leaf by leaf, at every depth: a black leaf holds its whole box, a white
    leaf nothing, a grey leaf between the two.  The 15 % bound on the total
    holds only from depth 2 on.  At depth 1 all 8 leaves of this box are
    grey, so the whole 6.0 rests on 8 x 64 jittered samples (each pair of
    stacked leaves shares its column's 16 lines), and over seeds 0-299 and
    500 that estimate misses by up to 15.0 % (3 of 301 seeds land just over
    15 %); depth 2 misses by at most 6.4 %, depth 3 by at most 2.2 %.
    """
    mesh = box_mesh((3.0, 2.0, 1.0))
    tree = build_octree(mesh, max_depth=depth, seed=seed)
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
