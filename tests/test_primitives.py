"""The parametric builders against their loop-by-loop references, on this machine.

The references run here too, so any CPU's rounding is on both sides:
nothing is compared against recorded hashes.
"""

import numpy as np
import pytest

from conftest import POCKET_DEPTH, POCKET_PLATE_EXTENTS, POCKET_RECT, die_plate, t_slot_part
from manumap.primitives import _oriented, extrude_polygon, icosphere, slab_with_pockets, torus_mesh
from oracles import det_flip, icosphere_arrays

# every radius and center that tests/, bench/ and scripts/ build an
# icosphere at, and one more center off the origin
_SPHERES = [(10.0, (0.0, 0.0, 0.0)), (3.0, (0.0, 0.0, 0.0)), (5.0, (0.0, 0.0, 0.0)),
            (0.2, (0.5, 0.5, 0.5)), (3.0, (1.0, 2.0, 3.0))]


@pytest.mark.parametrize("subdivisions", range(7))
@pytest.mark.parametrize("radius, center", _SPHERES)
def test_icosphere_equals_the_midpoint_dict_build(radius, center, subdivisions):
    """icosphere's vertices and triangles are the dict-based build's byte
    for byte: the midpoints in the order of their edges' first use, each
    the mean of that use's ends, and the children in the same order."""
    mesh = icosphere(radius, subdivisions, center)
    vertices, triangles = icosphere_arrays(radius, subdivisions, center)
    assert mesh.vertices.dtype == vertices.dtype and mesh.triangles.dtype == triangles.dtype
    assert mesh.vertices.shape == vertices.shape and mesh.triangles.shape == triangles.shape
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.triangles.tobytes() == triangles.tobytes()
    assert len(triangles) == 20 * 4**subdivisions


def _builds():
    return {
        "torus": torus_mesh(20.0, 8.0, segments_major=24, segments_minor=12),
        "torus-default": torus_mesh(20.0, 8.0),
        "l-section": extrude_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 1.0),
        "t-slot": t_slot_part(),
        "pocket-plate": slab_with_pockets(POCKET_PLATE_EXTENTS, [(POCKET_RECT, POCKET_DEPTH)]),
        "split-block": slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)]),
        "half-slab": slab_with_pockets((80.0, 80.0, 30.0), [((34.0, 34.0, 46.0, 46.0), 20.0)]),
        "die-plate": die_plate(),
        "sphere": icosphere(10.0, 4),
    }


@pytest.mark.parametrize("name", list(_builds()))
def test_orientation_flip_matches_the_determinant_rule(name):
    """_oriented flips a winding exactly where the summed determinants of
    the triangles' corner matrices are negative, for each builder's mesh
    in both windings."""
    mesh = _builds()[name]
    for tris in (mesh.triangles, mesh.triangles[:, [0, 2, 1]]):
        got = _oriented(mesh.vertices, tris).triangles
        want = tris[:, [0, 2, 1]] if det_flip(mesh.vertices, tris) else tris
        assert np.array_equal(got, want)
    assert mesh.metrics.volume > 0
