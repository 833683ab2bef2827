"""Shared fixtures: parametric parts and on-disk mesh files."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from manumap.mesh_io import TriMesh
from manumap.primitives import (
    box_mesh,
    extrude_polygon,
    icosphere,
    slab_with_pockets,
    torus_mesh,
    write_binary_stl,
)

# Slab with one deep square pocket: 64 mm cube of stock, pocket 20x20 mm
# sunk 40 mm into the top face.  The pocket floor sits at z = 24.
POCKET_PLATE_EXTENTS = (64.0, 64.0, 64.0)
POCKET_RECT = (22.0, 22.0, 42.0, 42.0)
POCKET_DEPTH = 40.0


@pytest.fixture(scope="session")
def unit_cube():
    return box_mesh((1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def cube100():
    return box_mesh((100.0, 100.0, 100.0))


@pytest.fixture(scope="session")
def pocket_plate():
    return slab_with_pockets(POCKET_PLATE_EXTENTS, [(POCKET_RECT, POCKET_DEPTH)])


@pytest.fixture(scope="session")
def split_block():
    """The modular-split demo's one-piece block: 80 x 80 x 60 mm with a
    12 x 12 mm pocket 50 mm deep, 68 triangles.  Its box centers on the
    x = y diagonal graze the diagonal edges of its faces."""
    return slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)])


@pytest.fixture(scope="session")
def torus():
    return torus_mesh(20.0, 8.0, segments_major=24, segments_minor=12)


@pytest.fixture(scope="session")
def sphere10():
    return icosphere(10.0, subdivisions=3)


def t_slot_part():
    """Prism with a T-slot: a narrow throat opening into a wider cavity.

    Cross-section in xz, swept 20 mm along y.  The cavity roof at z = 20
    overhangs the cavity floor between x 10..18 and 22..30, so floor boxes
    under the overhang have no vertical tool corridor at all.
    """
    profile = [
        (0.0, 0.0),
        (40.0, 0.0),
        (40.0, 30.0),
        (22.0, 30.0),
        (22.0, 20.0),
        (30.0, 20.0),
        (30.0, 10.0),
        (10.0, 10.0),
        (10.0, 20.0),
        (18.0, 20.0),
        (18.0, 30.0),
        (0.0, 30.0),
    ]
    return extrude_polygon(profile, 20.0)


@pytest.fixture(scope="session")
def undercut_part():
    return t_slot_part()


def rotated_box():
    """A 40 x 30 x 20 mm box turned 35 degrees about z, then 25 degrees about
    x: large faces tilted off every axis, so each triangle's box of octree
    cells holds many times the cells it meets."""
    c, s = np.cos(np.radians(35.0)), np.sin(np.radians(35.0))
    about_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = np.cos(np.radians(25.0)), np.sin(np.radians(25.0))
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    box = box_mesh((40.0, 30.0, 20.0))
    return TriMesh(box.vertices @ (about_x @ about_z).T, box.triangles)


def die_plate():
    """Desk-scale die-like part: a slab with three small deep pockets."""
    return slab_with_pockets(
        (120.0, 80.0, 40.0),
        [
            ((14.0, 14.0, 26.0, 26.0), 30.0),
            ((54.0, 30.0, 66.0, 42.0), 30.0),
            ((94.0, 50.0, 106.0, 62.0), 30.0),
        ],
    )


_CUBE_OFF = """OFF
8 12 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
3 0 3 2
3 0 2 1
3 4 5 6
3 4 6 7
3 0 1 5
3 0 5 4
3 2 3 7
3 2 7 6
3 1 2 6
3 1 6 5
3 3 0 4
3 3 4 7
"""


def _ascii_stl(mesh) -> str:
    tc = mesh.tri_coords()
    lines = ["solid fixture"]
    for tri in tc:
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        n = n / (np.linalg.norm(n) or 1.0)
        lines.append(f"  facet normal {n[0]:.6e} {n[1]:.6e} {n[2]:.6e}")
        lines.append("    outer loop")
        for v in tri:
            lines.append(f"      vertex {v[0]:.6e} {v[1]:.6e} {v[2]:.6e}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid fixture")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def mesh_files(tmp_path_factory, unit_cube):
    """On-disk mesh fixtures: good cubes in each format plus a broken STL."""
    root = tmp_path_factory.mktemp("meshes")

    stl_bin = root / "cube.stl"
    write_binary_stl(unit_cube, stl_bin)

    stl_ascii = root / "cube_ascii.stl"
    stl_ascii.write_text(_ascii_stl(unit_cube))

    off = root / "cube.off"
    off.write_text(_CUBE_OFF)

    # header promises 12 triangles but the data stops mid-record
    truncated = root / "truncated.stl"
    blob = b"\0" * 80 + struct.pack("<I", 12) + b"\0" * 70
    truncated.write_bytes(blob)

    pocket = root / "pocket.stl"
    write_binary_stl(
        slab_with_pockets(POCKET_PLATE_EXTENTS, [(POCKET_RECT, POCKET_DEPTH)]), pocket
    )

    return {
        "stl_binary": stl_bin,
        "stl_ascii": stl_ascii,
        "off": off,
        "truncated": truncated,
        "pocket": pocket,
    }
