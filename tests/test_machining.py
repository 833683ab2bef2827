import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap import machining, mesh_io
from manumap.errors import (
    DegenerateMeshError,
    MeshMismatchError,
    NonPositiveRoughnessError,
    NotWatertightError,
    ProfileError,
)
from manumap.machining import (
    SubtractiveProfile,
    _columns_blocked,
    chip_volume_index,
    hardness_index,
    max_dimension_index,
    roughness_index,
    tool_flexibility_field,
)
from manumap.mesh_io import TriMesh
from manumap.primitives import box_mesh, extrude_polygon, slab_with_pockets
from manumap.spatial import build_octree


@pytest.fixture(scope="module")
def profile():
    return SubtractiveProfile(workspace=(1000.0, 1000.0, 1000.0))


def l_bracket():
    # L cross-section filling 3 of the 4 quadrants of its 2x2 bbox, depth 1
    return extrude_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 1.0)


# ---------------------------------------------------------------------------
# Profile validation


def test_profile_rejects_bad_workspace():
    with pytest.raises(ProfileError):
        SubtractiveProfile(workspace=(0.0, 10.0, 10.0))


def test_profile_rejects_empty_tools():
    with pytest.raises(ProfileError):
        SubtractiveProfile(tool_diameters=())


def test_profile_rejects_aspect_at_most_one():
    with pytest.raises(ProfileError):
        SubtractiveProfile(max_aspect=1.0)
    with pytest.raises(ProfileError):
        SubtractiveProfile(max_aspect=0.5)


def test_profile_rejects_inverted_roughness():
    with pytest.raises(ProfileError):
        SubtractiveProfile(roughness_best_um=6.4, roughness_coarse_um=0.4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workspace": (math.nan, 10.0, 10.0)},
        {"tool_diameters": (2.0, math.nan)},
        {"max_aspect": math.nan},
        {"hardness_limit_hb": math.nan},
        {"roughness_best_um": math.nan},
        {"roughness_coarse_um": math.nan},
    ],
)
def test_profile_rejects_nan(kwargs):
    with pytest.raises(ProfileError):
        SubtractiveProfile(**kwargs)


def test_profile_sorts_tools():
    p = SubtractiveProfile(tool_diameters=(10.0, 2.0, 5.0))
    assert p.tool_diameters == (2.0, 5.0, 10.0)


# ---------------------------------------------------------------------------
# Workspace fit


def test_cube_in_big_machine(cube100, profile):
    assert max_dimension_index(cube100, profile) == pytest.approx(0.1)


def test_oversized_part_saturates(profile):
    big = box_mesh((2000.0, 50.0, 50.0))
    assert max_dimension_index(big, profile) == 1.0


def test_small_core_scores_low(profile):
    small = box_mesh((50.0, 30.0, 20.0))
    assert max_dimension_index(small, profile) < 0.1


def test_best_axis_assignment_is_used():
    # 700 must go on the 800 axis, not the 600 one
    prof = SubtractiveProfile(workspace=(800.0, 600.0, 500.0))
    part = box_mesh((450.0, 700.0, 100.0))
    assert max_dimension_index(part, prof) == pytest.approx(0.875)


def test_accepts_precomputed_metrics(cube100, profile):
    assert max_dimension_index(cube100.metrics, profile) == pytest.approx(0.1)


@settings(max_examples=80, deadline=None)
@given(
    e=st.tuples(*(st.floats(1, 500) for _ in range(3))),
    w=st.tuples(*(st.floats(100, 2000) for _ in range(3))),
    k=st.floats(0.01, 100),
)
def test_fit_is_scale_invariant(e, w, k):
    a = SubtractiveProfile(workspace=w)
    b = SubtractiveProfile(workspace=tuple(k * x for x in w))
    part_a = box_mesh(e).metrics
    part_b = box_mesh(tuple(k * x for x in e)).metrics
    va = max_dimension_index(part_a, a)
    vb = max_dimension_index(part_b, b)
    assert 0.0 <= va <= 1.0
    assert va == pytest.approx(vb, rel=1e-9)


# ---------------------------------------------------------------------------
# Chip volume


def test_solid_cube_makes_no_chips(cube100):
    assert chip_volume_index(cube100) == pytest.approx(0.0, abs=1e-12)


def test_l_bracket_chips():
    # bbox 2x1x2 = 4, part volume 3, one quadrant milled away
    assert chip_volume_index(l_bracket()) == pytest.approx(0.25)


def test_modular_split_reduces_chips():
    whole = chip_volume_index(l_bracket())
    leg_a = chip_volume_index(box_mesh((2.0, 1.0, 1.0)))
    leg_b = chip_volume_index(box_mesh((1.0, 1.0, 1.0)))
    assert leg_a < whole
    assert leg_b < whole


def test_chips_invariant_under_rigid_motion():
    part = l_bracket()
    v0 = chip_volume_index(part)
    moved = TriMesh(part.vertices + np.array([5.0, -2.0, 9.0]), part.triangles)
    assert chip_volume_index(moved) == pytest.approx(v0, rel=1e-12)
    rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    turned = TriMesh(part.vertices @ rot90.T, part.triangles)
    assert chip_volume_index(turned) == pytest.approx(v0, rel=1e-12)


def test_chips_need_watertight_mesh(unit_cube):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        chip_volume_index(open_mesh)


def test_chips_need_a_mesh_that_encloses_volume():
    # one triangle, both windings: closed, but its bounding box is flat
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    flat = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 1]]))
    assert flat.metrics.watertight
    with pytest.raises(DegenerateMeshError):
        chip_volume_index(flat)


# ---------------------------------------------------------------------------
# Hardness and roughness


def test_aluminum_hardness():
    assert hardness_index(95.0, SubtractiveProfile()) == pytest.approx(95.0 / 600.0)


def test_hardness_at_limit_saturates():
    prof = SubtractiveProfile(hardness_limit_hb=600.0)
    assert hardness_index(600.0, prof) == 1.0
    assert hardness_index(750.0, prof) == 1.0


def test_hardness_rejects_nonpositive():
    with pytest.raises(ProfileError):
        hardness_index(0.0, SubtractiveProfile())


def test_roughness_boundaries():
    prof = SubtractiveProfile(roughness_best_um=0.4, roughness_coarse_um=6.4)
    assert roughness_index(6.4, prof) == 0.0
    assert roughness_index(0.4, prof) == 1.0
    assert roughness_index(25.0, prof) == 0.0  # easier than no-effort finish
    assert roughness_index(0.05, prof) == 1.0  # beyond machine capability


def test_roughness_log_midpoint():
    # 1.6 sits at the log midpoint of [0.4, 6.4]: log(6.4/1.6)/log(6.4/0.4)
    prof = SubtractiveProfile(roughness_best_um=0.4, roughness_coarse_um=6.4)
    assert roughness_index(1.6, prof) == pytest.approx(0.5)


def test_roughness_rejects_nonpositive():
    with pytest.raises(NonPositiveRoughnessError):
        roughness_index(0.0, SubtractiveProfile())


def test_hardness_and_roughness_reject_nan():
    prof = SubtractiveProfile()
    with pytest.raises(ProfileError):
        hardness_index(math.nan, prof)
    with pytest.raises(NonPositiveRoughnessError):
        roughness_index(math.nan, prof)
    assert roughness_index(math.inf, prof) == 0.0  # any finish meets an infinite Ra


@settings(max_examples=100, deadline=None)
@given(ra=st.floats(1e-3, 1e3))
def test_roughness_in_range_and_monotone(ra):
    prof = SubtractiveProfile()
    v = roughness_index(ra, prof)
    assert 0.0 <= v <= 1.0
    assert roughness_index(ra * 1.5, prof) <= v


# ---------------------------------------------------------------------------
# Tool-reach field


def test_flat_slab_top_is_free():
    slab = box_mesh((40.0, 40.0, 8.0))
    tree = build_octree(slab, max_depth=3)
    field = tool_flexibility_field(slab, tree, SubtractiveProfile())
    by_key = dict(zip(field.path_keys, field.values))
    top = [n for n in tree.grey_leaves() if n.box_max[2] >= slab.metrics.bbox_max[2]]
    assert top
    assert all(by_key[n.path_key] == 0.0 for n in top)


def test_pocket_floor_reach():
    """Deep 12 mm pocket: the 10 mm tool is the largest that fits.

    Hand-set scenario: depth-40 pocket in a 64 mm block, floor at z = 24.
    The probe pattern of the 20 mm tool pokes into the walls, the 10 mm one
    clears them, so floor boxes grade reach/(10*10), about 0.4.
    """
    mesh = slab_with_pockets((64.0, 64.0, 64.0), [((26.0, 26.0, 38.0, 38.0), 40.0)])
    tree = build_octree(mesh, max_depth=4)
    field = tool_flexibility_field(mesh, tree, SubtractiveProfile())
    by_key = dict(zip(field.path_keys, field.values))
    floor = [
        n
        for n in tree.grey_leaves()
        if 26 < n.center[0] < 38
        and 26 < n.center[1] < 38
        and n.box_min[2] < 24 < n.box_max[2]
    ]
    assert floor
    for n in floor:
        reach = 64.0 - n.box_max[2]
        assert by_key[n.path_key] == pytest.approx(reach / 10.0 / 10.0)
    assert min(by_key[n.path_key] for n in floor) == pytest.approx(0.4, abs=0.05)


def test_undercut_saturates():
    from conftest import t_slot_part

    mesh = t_slot_part()
    tree = build_octree(mesh, max_depth=4)
    field = tool_flexibility_field(mesh, tree, SubtractiveProfile())
    by_key = dict(zip(field.path_keys, field.values))
    shadowed = [
        n
        for n in tree.grey_leaves()
        if 11 < n.center[0] < 17
        and 5 < n.center[1] < 15
        and n.box_min[2] < 10 < n.box_max[2]
        and n.center[2] > 9
    ]
    assert shadowed
    assert all(by_key[n.path_key] == 1.0 for n in shadowed)


def test_field_values_in_range(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=4)
    field = tool_flexibility_field(pocket_plate, tree, SubtractiveProfile())
    assert len(field) == len(tree.grey_leaves())
    assert np.all(field.values >= 0.0)
    assert np.all(field.values <= 1.0)
    assert field.octree_hash == tree.fingerprint()["content_hash"]


def test_workers_do_not_change_values(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=4)
    prof = SubtractiveProfile()
    serial = tool_flexibility_field(pocket_plate, tree, prof, workers=1)
    threaded = tool_flexibility_field(pocket_plate, tree, prof, workers=4)
    np.testing.assert_array_equal(serial.values, threaded.values)
    assert serial.path_keys == threaded.path_keys


def test_field_rejects_foreign_octree(pocket_plate, unit_cube):
    tree = build_octree(pocket_plate, max_depth=3)
    with pytest.raises(MeshMismatchError):
        tool_flexibility_field(unit_cube, tree, SubtractiveProfile())


def test_deeper_pocket_is_harder():
    prof = SubtractiveProfile(tool_diameters=(1.0, 2.0, 4.0, 10.0, 16.0))
    values = []
    for depth in (10.0, 25.0, 40.0):
        mesh = slab_with_pockets((64.0, 64.0, 64.0), [((27.0, 27.0, 37.0, 37.0), depth)])
        tree = build_octree(mesh, max_depth=4)
        field = tool_flexibility_field(mesh, tree, prof)
        by_key = dict(zip(field.path_keys, field.values))
        floor_z = 64.0 - depth
        floor = [
            n
            for n in tree.grey_leaves()
            if 27 < n.center[0] < 37
            and 27 < n.center[1] < 37
            and n.box_min[2] < floor_z < n.box_max[2]
        ]
        values.append(min(by_key[n.path_key] for n in floor))
    assert values[0] < values[1] < values[2]


def _count_exact_orientations(monkeypatch):
    """Count the orientations the column kernel evaluates on integers."""
    calls = []
    exact = mesh_io._exact_det

    def counted(*coords):
        calls.append(coords)
        return exact(*coords)

    monkeypatch.setattr(mesh_io, "_exact_det", counted)
    return calls


@pytest.mark.parametrize(
    "case, xy, lo, hi, blocked",
    [("cube", (5.0, 5.0), 4.0, 10.0, True), ("pocket", (32.0, 32.0), 30.0, 64.0, False)],
)
def test_grazing_column_settles_on_retry(case, xy, lo, hi, blocked, pocket_plate, monkeypatch):
    """A column on the diagonal edge of a face (the cube's top and bottom, the
    pocket's floor) used to graze and settle on a jittered retry.  Its line
    runs exactly through that edge, so the exact stage decides it, and its
    one cast gives the true answer, whatever else is in the batch, every
    time."""
    mesh = {"cube": box_mesh((10.0, 10.0, 10.0)), "pocket": pocket_plate}[case]
    grid_cls = type(mesh._column_grid())
    original = grid_cls.crossings
    casts = []  # the lines of every cast

    def spy(self, xy, hz, hptr):
        casts.append(np.array(xy))
        return original(self, xy, hz, hptr)

    monkeypatch.setattr(grid_cls, "crossings", spy)
    exact = _count_exact_orientations(monkeypatch)

    def run(columns):
        n = len(columns)
        return _columns_blocked(mesh, np.array(columns), np.full(n, lo), np.full(n, hi))

    alone = run([xy])
    assert len(casts) == 1 and casts[0].tolist() == [list(xy)]
    assert len(exact) > 0  # the line meets the diagonal edge exactly
    assert alone[0] == blocked
    assert run([(1.0, 2.0), xy, (3.0, 7.0), (5.0, 5.0)])[1] == blocked
    assert run([xy])[0] == blocked
    assert len(casts) == 3


def _unshared_columns_blocked(mesh, xy, lo, hi):
    """Column occupancy as it was computed before columns shared lines: each
    column cast once, as its own line."""
    eps = machining._EPS_REL * mesh.metrics.max_dimension
    heights = np.column_stack([lo + eps, hi - eps, 0.5 * (lo + hi)])
    counts = mesh._column_grid().crossings(xy, heights.ravel(), 3 * np.arange(len(xy) + 1))
    n_lo, n_hi, n_mid = counts.reshape(-1, 3).T
    return (n_lo - n_hi > 0) | (n_mid % 2 == 1)


def _per_leaf_reach(mesh, octree, profile):
    """Tool reach as it was computed leaf by leaf: for every tool, the 5 probe
    columns of every unresolved leaf, each cast alone."""
    metrics = mesh.metrics
    part_top = metrics.bbox_max[2]
    eps = machining._EPS_REL * metrics.max_dimension
    g = octree.grey_index
    tops = octree.box_max[g, 2]
    centers = 0.5 * (octree.box_min[g, :2] + octree.box_max[g, :2])
    reach = part_top - tops
    dirs = machining._PROBE_DIRS
    values = np.full(len(g), 1.0)
    values[reach <= eps] = 0.0
    unresolved = reach > eps
    for diameter in sorted(profile.tool_diameters, reverse=True):
        if not unresolved.any():
            break
        idx = np.flatnonzero(unresolved)
        spread = diameter / (2.0 * math.sqrt(2.0))
        xy = centers[idx][:, None, :] + spread * dirs[None, :, :]
        lo = np.repeat(tops[idx], len(dirs))
        hi = np.full(len(lo), part_top)
        blocked = _unshared_columns_blocked(mesh, xy.reshape(-1, 2), lo, hi)
        free = ~blocked.reshape(len(idx), len(dirs)).any(axis=1)
        ok = idx[free]
        values[ok] = np.minimum(1.0, reach[ok] / diameter / profile.max_aspect)
        unresolved[ok] = False
    return values


# a pocket whose walls (x, y = 24 and 40) lie on depth-4 leaf faces of the
# margin-0 root [0, 64]^3; tools of diameter 2*sqrt(2)*s put the probes of a
# floor leaf (center x = 26) exactly on the wall at x = 24 when s = 2
_WALL_TOOLS = tuple(2.0 * math.sqrt(2.0) * s for s in (2.0, 8.0))


def _wall_part():
    """The pocket plate with walls on probe lines, its octree and its tools."""
    mesh = slab_with_pockets((64.0, 64.0, 64.0), [((24.0, 24.0, 40.0, 40.0), 30.0)])
    tree = build_octree(mesh, max_depth=4, margin=0.0)
    return mesh, tree, SubtractiveProfile(tool_diameters=_WALL_TOOLS)


def _spy_casts(monkeypatch, mesh):
    """Record the lines of every column cast."""
    grid_cls = type(mesh._column_grid())
    original = grid_cls.crossings
    casts = []

    def spy(self, xy, hz, hptr):
        casts.append(np.array(xy))
        return original(self, xy, hz, hptr)

    monkeypatch.setattr(grid_cls, "crossings", spy)
    return casts


def _rows(xy):
    return {row.tobytes() for row in np.asarray(xy)}


@pytest.mark.parametrize("case", ["sphere", "pocket", "wall"])
def test_grouped_reach_matches_per_leaf_probes(case, sphere10, pocket_plate, monkeypatch):
    """Casting each distinct probe line once, with the heights of every leaf
    stacked on it, gives the values of the per-leaf casts bit for bit, also
    where a probe line runs along a pocket wall and the exact stage decides
    it."""
    if case == "wall":
        mesh, tree, prof = _wall_part()
    else:
        mesh = {"sphere": sphere10, "pocket": pocket_plate}[case]
        tree = build_octree(mesh, max_depth=4)
        prof = SubtractiveProfile()
        g = tree.grey_index
        centers = 0.5 * (tree.box_min[g, :2] + tree.box_max[g, :2])
        assert len(np.unique(centers, axis=0)) < len(g)  # some leaves are stacked
    want = _per_leaf_reach(mesh, tree, prof)
    exact = _count_exact_orientations(monkeypatch)
    got = tool_flexibility_field(mesh, tree, prof).values
    assert np.array_equal(got, want)
    assert len(np.unique(want)) > 1
    if case == "wall":
        assert len(exact) > 0  # the wall on a probe line meets its floor's edges exactly


def test_columns_blocked_casts_each_call_once(monkeypatch):
    """Each _columns_blocked call of tool reach makes exactly one cast, whose
    lines are the distinct xy of its columns, also on the part whose probe
    lines lie on pocket walls."""
    mesh, tree, prof = _wall_part()
    casts = _spy_casts(monkeypatch, mesh)
    calls = []  # (input xy, the casts made) of every _columns_blocked call
    columns_blocked = machining._columns_blocked

    def spy(mesh, xy, lo, hi):
        first = len(casts)
        out = columns_blocked(mesh, xy, lo, hi)
        calls.append((xy, casts[first:]))
        return out

    monkeypatch.setattr(machining, "_columns_blocked", spy)
    exact = _count_exact_orientations(monkeypatch)
    tool_flexibility_field(mesh, tree, prof)
    assert len(calls) > 1 and len(exact) > 0
    for xy, made in calls:
        assert len(made) == 1
        assert len(made[0]) == len(_rows(made[0])) and _rows(made[0]) == _rows(xy)


@pytest.mark.parametrize("name", ["block", "wall"])
def test_seed_changes_nothing(name):
    """A seed that only reorders the triangles, as the benchmark's workload
    seed does, changes nothing: the part permuted at seeds 1 and 2 gives
    trees with equal fingerprints (leaves, classes and exact volumes), and
    the same tool reach as the part in its own order."""
    if name == "block":
        mesh = slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)])
        prof, margin = SubtractiveProfile(), 0.01
    else:
        mesh, _, prof = _wall_part()
        margin = 0.0
    tree = build_octree(mesh, max_depth=4, margin=margin)
    reach = tool_flexibility_field(mesh, tree, prof).values
    assert len(np.unique(reach)) > 1
    orders = [np.random.default_rng(s).permutation(mesh.num_triangles) for s in (1, 2)]
    shuffled = [TriMesh(mesh.vertices, mesh.triangles[order]) for order in orders]
    a, b = (build_octree(m, max_depth=4, margin=margin) for m in shuffled)
    assert a.fingerprint() == b.fingerprint()
    for column in ("path_key", "class_code", "box_min", "box_max", "part_volume"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    for m, tree in zip(shuffled, (a, b)):
        assert np.array_equal(tool_flexibility_field(m, tree, prof).values, reach)
