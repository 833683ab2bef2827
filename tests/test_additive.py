import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap.additive import (
    AdditiveProfile,
    build_height_field,
    max_dimension_index,
    platform_distance_field,
    skin_surface_index,
    volume_index,
)
from manumap.errors import NotWatertightError, ProfileError
from manumap.mesh_io import MeshMetrics, TriMesh
from manumap.primitives import box_mesh, icosphere
from manumap.spatial import build_octree


@pytest.fixture(scope="module")
def envelope250():
    return AdditiveProfile(envelope=(250.0, 250.0, 250.0))


def _degenerate_metrics():
    return MeshMetrics(
        bbox_min=(0.0, 0.0, 0.0),
        bbox_max=(0.0, 0.0, 0.0),
        max_dimension=0.0,
        surface_area=0.0,
        volume=0.0,
        watertight=True,
    )


# ---------------------------------------------------------------------------
# Profile


def test_profile_rejects_bad_envelope():
    with pytest.raises(ProfileError):
        AdditiveProfile(envelope=(400.0, -1.0, 400.0))


def test_profile_rejects_nan():
    with pytest.raises(ProfileError):
        AdditiveProfile(envelope=(400.0, math.nan, 400.0))
    with pytest.raises(ProfileError):
        AdditiveProfile(reference_area=math.nan)


def test_profile_rejects_bad_center():
    with pytest.raises(ProfileError):
        AdditiveProfile(platform_center=(1.0, 2.0, 3.0))


def test_profile_rejects_bad_reference_area():
    with pytest.raises(ProfileError):
        AdditiveProfile(reference_area=0.0)


def test_default_skin_reference_is_box_surface():
    p = AdditiveProfile(envelope=(400.0, 300.0, 200.0))
    assert p.skin_reference == pytest.approx(2 * (400 * 300 + 300 * 200 + 200 * 400))
    assert p.envelope_volume == pytest.approx(400 * 300 * 200)


# ---------------------------------------------------------------------------
# Envelope fit


def test_die_does_not_fit(envelope250):
    # 630 x 182 x 100 die against a 250-cube powder bed
    die = box_mesh((630.0, 182.0, 100.0))
    assert max_dimension_index(die, envelope250) == 1.0


def test_small_cube_fits(envelope250):
    assert max_dimension_index(box_mesh((50.0,) * 3), envelope250) == pytest.approx(0.2)


def test_degenerate_part_scores_zero(envelope250):
    assert max_dimension_index(_degenerate_metrics(), envelope250) == 0.0


# ---------------------------------------------------------------------------
# Consumed volume


def test_envelope_filling_part(envelope250):
    assert volume_index(box_mesh((250.0,) * 3), envelope250) == pytest.approx(1.0)


def test_cube_volume_fraction(envelope250):
    # 100^3 / 250^3
    assert volume_index(box_mesh((100.0,) * 3), envelope250) == pytest.approx(0.064)


def test_oversized_volume_clamps(envelope250):
    assert volume_index(box_mesh((300.0,) * 3), envelope250) == 1.0


def test_volume_needs_watertight(unit_cube, envelope250):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        volume_index(open_mesh, envelope250)


# ---------------------------------------------------------------------------
# Skin surface


def test_cube_skin_ratio(envelope250):
    # (6 e^2)/(6 E^2) = (e/E)^2
    assert skin_surface_index(box_mesh((50.0,) * 3), envelope250) == pytest.approx(
        (50.0 / 250.0) ** 2
    )


def test_sphere_beats_cube_of_equal_volume(envelope250):
    sphere = icosphere(10.0, subdivisions=4)
    side = sphere.metrics.volume ** (1.0 / 3.0)
    cube = box_mesh((side,) * 3)
    assert skin_surface_index(sphere, envelope250) < skin_surface_index(cube, envelope250)


def test_zero_area_degenerate(envelope250):
    assert skin_surface_index(_degenerate_metrics(), envelope250) == 0.0


def test_custom_reference_area():
    prof = AdditiveProfile(reference_area=600.0)
    assert skin_surface_index(box_mesh((10.0,) * 3), prof) == pytest.approx(1.0)


def test_skin_needs_watertight(unit_cube, envelope250):
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.triangles[:-2])
    with pytest.raises(NotWatertightError):
        skin_surface_index(open_mesh, envelope250)


# ---------------------------------------------------------------------------
# Build height field


def test_height_tracks_leaf_tops():
    mesh = box_mesh((40.0, 40.0, 200.0))
    tree = build_octree(mesh, max_depth=3, margin=0.0)
    prof = AdditiveProfile(envelope=(400.0, 400.0, 400.0))
    field = build_height_field(tree, prof)
    bottom = tree.mesh_bbox_min[2]
    by_key = dict(zip(field.path_keys, field.values))
    for leaf in tree.grey_leaves():
        want = np.clip((leaf.box_max[2] - bottom) / 400.0, 0.0, 1.0)
        assert by_key[leaf.path_key] == pytest.approx(want)
    # part is half the envelope height, so the topmost boxes grade exactly 0.5
    assert field.values.max() == pytest.approx(0.5)
    # the bottom row is within one box height of zero
    leaf_size = tree.grey_leaves()[0].box_max[2] - tree.grey_leaves()[0].box_min[2]
    assert field.values.min() <= leaf_size / 400.0 + 1e-12


def test_height_clamps_above_envelope():
    mesh = box_mesh((40.0, 40.0, 500.0))
    tree = build_octree(mesh, max_depth=3, margin=0.0)
    field = build_height_field(tree, AdditiveProfile(envelope=(400.0, 400.0, 400.0)))
    assert field.values.max() == 1.0


def test_height_monotone_in_z(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=3)
    field = build_height_field(tree, AdditiveProfile())
    tops = np.array([n.box_max[2] for n in tree.grey_leaves()])
    order = np.argsort(tops, kind="stable")
    diffs = np.diff(field.values[order])
    assert np.all(diffs >= -1e-12)


def test_height_centroid_reference(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=3)
    prof = AdditiveProfile()
    field = build_height_field(tree, prof, reference="centroid")
    bottom = tree.mesh_bbox_min[2]
    by_key = dict(zip(field.path_keys, field.values))
    for leaf in tree.grey_leaves():
        want = np.clip((leaf.center[2] - bottom) / prof.envelope[2], 0.0, 1.0)
        assert by_key[leaf.path_key] == pytest.approx(want)


def test_height_rejects_unknown_reference(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=2)
    with pytest.raises(ValueError):
        build_height_field(tree, AdditiveProfile(), reference="bottom")


# ---------------------------------------------------------------------------
# Platform distance field


def test_distance_identity(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=3)
    prof = AdditiveProfile(envelope=(400.0, 400.0, 400.0))
    field = platform_distance_field(tree, prof)
    cx = 0.5 * (tree.mesh_bbox_min[0] + tree.mesh_bbox_max[0])
    cy = 0.5 * (tree.mesh_bbox_min[1] + tree.mesh_bbox_max[1])
    half_diag = 0.5 * math.hypot(400.0, 400.0)
    by_key = dict(zip(field.path_keys, field.values))
    for leaf in tree.grey_leaves():
        want = min(1.0, math.hypot(leaf.center[0] - cx, leaf.center[1] - cy) / half_diag)
        assert by_key[leaf.path_key] == pytest.approx(want)
    # central boxes sit within one box diagonal of the center
    leaf_size = tree.grey_leaves()[0].box_max[0] - tree.grey_leaves()[0].box_min[0]
    assert field.values.min() <= leaf_size * math.sqrt(2.0) / half_diag


def test_distance_saturates_past_platform_corner():
    # part footprint wider than the whole platform: corner boxes clamp at 1
    mesh = box_mesh((600.0, 600.0, 30.0))
    tree = build_octree(mesh, max_depth=3)
    field = platform_distance_field(tree, AdditiveProfile(envelope=(400.0, 400.0, 400.0)))
    assert field.values.max() == 1.0


def test_distance_explicit_center(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=3)
    shifted = platform_distance_field(
        tree, AdditiveProfile(platform_center=(0.0, 0.0))
    )
    centered = platform_distance_field(tree, AdditiveProfile())
    assert shifted.values.mean() > centered.values.mean()


def test_distance_rotation_invariance():
    from conftest import die_plate

    mesh = die_plate()
    rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    center = 0.5 * (np.asarray(mesh.metrics.bbox_min) + np.asarray(mesh.metrics.bbox_max))
    turned = TriMesh((mesh.vertices - center) @ rot90.T + center, mesh.triangles)
    prof = AdditiveProfile()
    fa = platform_distance_field(build_octree(mesh, max_depth=4), prof)
    fb = platform_distance_field(build_octree(turned, max_depth=4), prof)
    np.testing.assert_allclose(np.sort(fa.values), np.sort(fb.values), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    ex=st.floats(5, 300),
    ey=st.floats(5, 300),
    ez=st.floats(5, 300),
)
def test_global_indexes_stay_in_range(ex, ey, ez):
    prof = AdditiveProfile(envelope=(250.0, 250.0, 250.0))
    m = box_mesh((ex, ey, ez)).metrics
    for v in (
        max_dimension_index(m, prof),
        volume_index(m, prof),
        skin_surface_index(m, prof),
    ):
        assert 0.0 <= v <= 1.0
