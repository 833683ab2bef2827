import dataclasses
import gc
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manumap.additive import AdditiveProfile, build_height_field
from manumap.analysis import AnalysisParams, analyze_mesh
from manumap.aggregation import IndexReport, build_assembly_report, compare_reports
from manumap.cli import main
from manumap.errors import (
    FieldMismatchError,
    MeshMismatchError,
    ParameterError,
    ReportIOError,
    SchemaMismatchError,
)
from manumap.fields import LocalIndexField, grey_field
from manumap.machining import SubtractiveProfile, tool_flexibility_field
from manumap import aggregation, reporting
from manumap.primitives import box_mesh, icosphere
from manumap.profiles import MachineProfiles
from manumap.reporting import (
    ColorScale,
    SCHEMA_VERSION,
    _atomic_write_chunks,
    _rows,
    emit_report,
    export_difficulty_map,
    load_report,
)
from manumap.spatial import _BLACK, _GREY, _WHITE, OctantClass, build_octree

BLUE = (40, 70, 190)
RED = (250, 40, 40)


def aligned_field(octree, values, index_id="synthetic"):
    greys = octree.grey_leaves()
    vals = np.asarray(values, dtype=np.float64)
    assert len(vals) == len(greys)
    return LocalIndexField(
        index_id=index_id,
        values=vals,
        volumes=np.array([n.part_volume for n in greys]),
        octree_hash=octree.fingerprint()["content_hash"],
        path_keys=tuple(n.path_key for n in greys),
    )


def parse_ply_vertices(text):
    """(x, y, z, r, g, b) rows pulled back out of an ascii PLY body."""
    lines = text.splitlines()
    n = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
    start = lines.index("end_header") + 1
    rows = [tuple(float(t) for t in l.split()) for l in lines[start : start + n]]
    return np.array(rows)


def parse_vtk(text):
    """(head through POINTS, point lines, (C, 8) CELLS indices, tail from CELL_TYPES on)."""
    lines = text.split("\n")
    pts_at = next(i for i, l in enumerate(lines) if l.startswith("POINTS"))
    n_pts = int(lines[pts_at].split()[1])
    cells_at = pts_at + 1 + n_pts
    n_cells = int(lines[cells_at].split()[1])
    assert lines[cells_at] == f"CELLS {n_cells} {9 * n_cells}"
    rows = [l.split() for l in lines[cells_at + 1 : cells_at + 1 + n_cells]]
    assert all(r[0] == "8" and len(r) == 9 for r in rows)
    cells = np.array([[int(t) for t in r[1:]] for r in rows], dtype=np.int64).reshape(-1, 8)
    tail = "\n".join(lines[cells_at + 1 + n_cells :])
    return lines[: pts_at + 1], lines[pts_at + 1 : cells_at], cells, tail


# ---------------------------------------------------------------------------
# Color scale


def test_ramp_anchor_colors_frozen():
    scale = ColorScale(0.0, 1.0)
    got = scale.rgb([0.0, 0.25, 0.5, 0.75, 1.0])
    want = [(40, 70, 190), (100, 160, 220), (180, 200, 160), (230, 150, 80), (250, 40, 40)]
    np.testing.assert_array_equal(got, want)


def test_red_channel_tracks_difficulty():
    scale = ColorScale(0.0, 1.0)
    reds = scale.rgb(np.linspace(0, 1, 257))[:, 0].astype(int)
    assert (np.diff(reds) >= 0).all()
    quarter_reds = scale.rgb([0.0, 0.25, 0.5, 0.75, 1.0])[:, 0].astype(int)
    assert (np.diff(quarter_reds) > 0).all()


def test_out_of_range_values_clamp_to_endpoints():
    scale = ColorScale(0.0, 1.0)
    np.testing.assert_array_equal(scale.rgb([-3.0, 7.0]), [BLUE, RED])


def test_fixed_scale_needs_ordered_bounds():
    with pytest.raises(ValueError):
        ColorScale(1.0, 1.0)
    with pytest.raises(ValueError):
        ColorScale(2.0, 1.0)


def test_auto_scale_spans_field():
    scale = ColorScale.auto([0.2, 0.5, 0.7])
    assert (scale.lo, scale.hi) == (0.2, 0.7)
    np.testing.assert_array_equal(scale.rgb([0.2, 0.7]), [BLUE, RED])


def test_auto_scale_constant_field_is_blue():
    scale = ColorScale.auto([0.3, 0.3])
    assert (scale.lo, scale.hi) == (0.3, 1.3)
    np.testing.assert_array_equal(scale.rgb([0.3]), [BLUE])


# ---------------------------------------------------------------------------
# Difficulty maps


@pytest.fixture(scope="module")
def cube_tree(unit_cube):
    return build_octree(unit_cube, max_depth=2)


def test_constant_field_renders_uniform_blue(unit_cube, cube_tree, tmp_path):
    f = aligned_field(cube_tree, np.zeros(len(cube_tree.grey_leaves())))
    out = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "flat.ply")
    rows = parse_ply_vertices(out.read_text())
    colors = {tuple(int(c) for c in row[3:]) for row in rows}
    assert colors == {BLUE}


def test_binary_field_renders_blue_and_red(unit_cube, tmp_path):
    tree = build_octree(unit_cube, max_depth=1)
    greys = tree.grey_leaves()
    assert len(greys) == 8  # margined cube boundary crosses every octant
    f = aligned_field(tree, np.arange(8) % 2)
    out = export_difficulty_map(unit_cube, tree, f, tmp_path / "two.ply")
    rows = parse_ply_vertices(out.read_text())
    colors = {tuple(int(c) for c in row[3:]) for row in rows}
    assert colors == {BLUE, RED}


def test_pocket_floor_vertices_redder_than_top(pocket_plate, tmp_path):
    tree = build_octree(pocket_plate, max_depth=3)
    f = tool_flexibility_field(pocket_plate, tree, SubtractiveProfile())
    out = export_difficulty_map(pocket_plate, tree, f, tmp_path / "cf.ply")
    rows = parse_ply_vertices(out.read_text())
    x, z, red = rows[:, 0], rows[:, 2], rows[:, 3]
    y = rows[:, 1]
    floor = (np.abs(z - 24.0) < 1.0) & (x >= 22) & (x <= 42) & (y >= 22) & (y <= 42)
    top = z > 63.0
    assert floor.any() and top.any()
    assert red[floor].mean() > red[top].mean()


def test_ply_layout(unit_cube, cube_tree, tmp_path):
    f = aligned_field(cube_tree, np.linspace(0, 1, len(cube_tree.grey_leaves())))
    text = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "m.ply").read_text()
    lines = text.splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert f"element vertex {len(unit_cube.vertices)}" in lines
    assert f"element face {len(unit_cube.triangles)}" in lines
    assert "property uchar red" in text
    body = lines[lines.index("end_header") + 1 :]
    faces = body[len(unit_cube.vertices) :]
    assert len(faces) == len(unit_cube.triangles)
    assert all(l.startswith("3 ") for l in faces)


def test_vtk_cells_and_black_boxes(unit_cube, cube_tree, tmp_path):
    greys = cube_tree.grey_leaves()
    f = aligned_field(cube_tree, np.linspace(0.2, 0.9, len(greys)))
    scale = ColorScale(0.0, 1.0)
    text = export_difficulty_map(
        unit_cube, cube_tree, f, tmp_path / "m.vtk", scale=scale
    ).read_text()
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"

    blacks = [n for n in cube_tree.leaves() if n.octant_class is OctantClass.BLACK]
    n_cells = len(blacks) + len(greys)
    assert len(blacks) == 8  # inner core of the depth-2 margined cube

    _, point_lines, cell_pts, _ = parse_vtk(text)
    assert cell_pts.shape == (n_cells, 8)
    assert len(point_lines) < 8 * n_cells  # neighboring boxes share corners
    pts = np.array([[float(t) for t in l.split()] for l in point_lines])

    types_at = lines.index(f"CELL_TYPES {n_cells}")
    assert all(lines[types_at + 1 + i] == "12" for i in range(n_cells))

    table_at = lines.index("LOOKUP_TABLE default")
    scalars = np.array([float(lines[table_at + 1 + i]) for i in range(n_cells)])

    # match file cells to octree leaves by geometry, not by write order
    cell_mins = pts[cell_pts].min(axis=1)
    for node in blacks:
        hits = np.where(np.abs(cell_mins - node.box_min).max(axis=1) < 1e-9)[0]
        assert len(hits) == 1
        assert scalars[hits[0]] == scale.lo
    by_key = dict(zip(f.path_keys, f.values))
    for node in greys:
        hits = np.where(np.abs(cell_mins - node.box_min).max(axis=1) < 1e-9)[0]
        assert len(hits) == 1
        assert scalars[hits[0]] == pytest.approx(by_key[node.path_key], abs=1e-6)


def test_map_rejects_foreign_field(unit_cube, cube_tree, tmp_path):
    greys = cube_tree.grey_leaves()
    good = aligned_field(cube_tree, np.zeros(len(greys)))
    short = LocalIndexField("synthetic", np.zeros(len(greys) - 1), np.ones(len(greys) - 1))
    with pytest.raises(FieldMismatchError):
        export_difficulty_map(unit_cube, cube_tree, short, tmp_path / "x.ply")
    foreign = LocalIndexField(
        "synthetic", good.values, good.volumes, octree_hash="deadbeef", path_keys=good.path_keys
    )
    with pytest.raises(FieldMismatchError):
        export_difficulty_map(unit_cube, cube_tree, foreign, tmp_path / "x.ply")


@pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)])
def test_fixed_scale_needs_finite_bounds(lo, hi):
    with pytest.raises(ParameterError):
        ColorScale(lo, hi)


def test_map_format_must_be_known(unit_cube, cube_tree, tmp_path):
    f = aligned_field(cube_tree, np.zeros(len(cube_tree.grey_leaves())))
    with pytest.raises(ValueError):
        export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "m.obj")


def test_map_bytes_stable_across_runs(unit_cube, cube_tree, tmp_path):
    f = aligned_field(cube_tree, np.linspace(0, 1, len(cube_tree.grey_leaves())))
    a = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "a.ply").read_bytes()
    b = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "b.ply").read_bytes()
    assert a == b
    # a copy of the tree is a new key of the VTK geometry cache: each write formats it anew
    va = export_difficulty_map(unit_cube, dataclasses.replace(cube_tree), f, tmp_path / "a.vtk")
    vb = export_difficulty_map(unit_cube, dataclasses.replace(cube_tree), f, tmp_path / "b.vtk")
    assert va.read_bytes() == vb.read_bytes()


# SHA-256 of maps written by the per-leaf writers the array code replaced
# (PLY), and by the VTK writer that lists each distinct box corner once;
# any change to the bytes of a map shows here.
PINNED_MAP_DIGESTS = {
    ("cube", "ply"): "bb6ab422ad952cecff46f52d3c0de5de9e1b993fc0db38b69630587e1c2474f9",
    ("cube", "vtk"): "3c14e0d0b811619a97d7442422d427127ff498465268474f5af1fddaad5516d3",
    ("plate", "ply"): "fab8f578218bb4e7e1ffd7d9c3403a166c1e3b8193dde19cd1c3584cde62e4dc",
    ("plate", "vtk"): "ac2d7b48bfc6818114195b481b9b7dafb0d1d92bf9faace83f5bda1c235e7829",
}

#: The per-cell writer's VTK digests, the old pins of the maps above.
PER_CELL_VTK_DIGESTS = {
    "cube": "74d8c1754160394d6469bb2c24f1097b1dbffa69d6158008dcb35bee17a219fc",
    "plate": "b9eb2905b9365fccb7039a9bb42f30ebcac6abec137b4261eedeb03c54efee73",
}


@pytest.fixture(scope="module")
def plate_reach(pocket_plate):
    tree = build_octree(pocket_plate, max_depth=3)
    return tree, tool_flexibility_field(pocket_plate, tree, SubtractiveProfile())


@pytest.mark.parametrize("part, fmt", sorted(PINNED_MAP_DIGESTS))
def test_map_bytes_pinned(part, fmt, unit_cube, cube_tree, pocket_plate, plate_reach, tmp_path):
    if part == "cube":
        mesh, tree = unit_cube, cube_tree
        field = aligned_field(cube_tree, np.linspace(0, 1, len(cube_tree.grey_leaves())))
    else:
        mesh, (tree, field) = pocket_plate, plate_reach
    out = export_difficulty_map(mesh, tree, field, tmp_path / f"{part}.{fmt}")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_MAP_DIGESTS[part, fmt]


# VTK point order for a hexahedron cell, as the writer uses it.
HEX_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)
)
#: One cell's 8 point lines, filled from (x_lo, x_hi, y_lo, y_hi, z_lo, z_hi).
HEX_POINTS = "".join(f"{{{cx}}} {{{2 + cy}}} {{{4 + cz}}}\n" for cx, cy, cz in HEX_CORNERS)


def per_cell_vtk(octree, field, scale):
    """The VTK map as first written, 8 point lines for every cell; the reference."""
    cells = np.flatnonzero(octree.class_code != _WHITE)
    n = len(cells)
    points = [
        HEX_POINTS.format(*(f"{v:.9g}" for pair in zip(lo, hi) for v in pair))
        for lo, hi in zip(octree.box_min[cells].tolist(), octree.box_max[cells].tolist())
    ]
    values = np.full(n, float(scale.lo))
    values[octree.class_code[cells] == _GREY] = field.values
    return "".join(
        [
            "# vtk DataFile Version 3.0\n",
            f"difficulty map {field.index_id}\n",
            "ASCII\n",
            "DATASET UNSTRUCTURED_GRID\n",
            f"POINTS {8 * n} float\n",
            *points,
            f"CELLS {n} {9 * n}\n",
            *("8" + "".join(f" {8 * c + j}" for j in range(8)) + "\n" for c in range(n)),
            f"CELL_TYPES {n}\n",
            "12\n" * n,
            f"CELL_DATA {n}\n",
            "SCALARS difficulty float 1\n",
            "LOOKUP_TABLE default\n",
            *(f"{v:.9g}\n" for v in values.tolist()),
        ]
    )


def origin_part_with_signed_zeros():
    """A box centred on the origin, its tree's 0.0 box bounds made -0.0 on every
    other leaf: the writer keys coordinates by their bits, and the two zeros
    print as "0" and "-0"."""
    tree = build_octree(box_mesh((2.0, 2.0, 2.0), origin=(-1.0, -1.0, -1.0)), max_depth=3)
    odd = (np.arange(len(tree.path_key)) % 2 == 1)[:, None]
    box_min = np.where(odd & (tree.box_min == 0.0), -0.0, tree.box_min)
    box_max = np.where(~odd & (tree.box_max == 0.0), -0.0, tree.box_max)
    return dataclasses.replace(tree, box_min=box_min, box_max=box_max)


@pytest.mark.parametrize("part", ["cube", "plate", "sphere", "origin"])
def test_vtk_shares_corners_matches_per_cell_reference(part, cube_tree, plate_reach, tmp_path):
    if part == "cube":
        tree = cube_tree
        field = aligned_field(tree, np.linspace(0, 1, len(tree.grey_leaves())))
    elif part == "plate":
        tree, field = plate_reach
    else:
        if part == "sphere":
            tree = build_octree(icosphere(10.0, subdivisions=4), max_depth=5)
        else:
            tree = origin_part_with_signed_zeros()
        field = grey_field("synthetic", tree, np.linspace(0, 1, len(tree.grey_index)))
    scale = ColorScale.auto(field.values)
    want = per_cell_vtk(tree, field, scale)
    if part in PER_CELL_VTK_DIGESTS:
        assert hashlib.sha256(want.encode()).hexdigest() == PER_CELL_VTK_DIGESTS[part]
    got = export_difficulty_map(None, tree, field, tmp_path / "m.vtk").read_text()

    head, points, cell_pts, tail = parse_vtk(got)
    want_head, want_points, _, want_tail = parse_vtk(want)
    n_cells = len(cell_pts)
    assert head[:-1] == want_head[:-1]
    assert head[-1] == f"POINTS {len(points)} float"
    assert len(set(points)) == len(points)
    assert 0 <= cell_pts.min() and cell_pts.max() < len(points)
    assert len(points) < len(want_points) == 8 * n_cells
    corners = np.array(points, dtype=object)[cell_pts]
    assert corners.tolist() == np.array(want_points, dtype=object).reshape(n_cells, 8).tolist()
    assert tail == want_tail
    if part == "origin":
        words = {w for line in points for w in line.split()}
        assert {"0", "-0"} <= words


def test_vtk_maps_of_one_octree_share_geometry(pocket_plate, tmp_path, monkeypatch):
    """Maps of one octree format its geometry once and write the bytes of maps
    written alone; the cached geometry goes with the octree."""
    monkeypatch.setattr(reporting, "_VTK_GEOMETRY", type(reporting._VTK_GEOMETRY)())
    built = []
    geometry = reporting._vtk_geometry
    monkeypatch.setattr(reporting, "_vtk_geometry", lambda t: built.append(id(t)) or geometry(t))
    tree = build_octree(pocket_plate, max_depth=3)
    fields = (
        tool_flexibility_field(pocket_plate, tree, SubtractiveProfile()),
        build_height_field(tree, AdditiveProfile()),
    )
    # dataclasses.replace gives each map written alone a tree no cache entry knows
    alone = [
        export_difficulty_map(None, dataclasses.replace(tree), f, tmp_path / "alone.vtk").read_bytes()
        for f in fields
    ]
    for order in ((0, 1), (1, 0)):
        shared = dataclasses.replace(tree)
        built.clear()
        texts = {}
        for i in order:
            out = export_difficulty_map(None, shared, fields[i], tmp_path / f"{i}.vtk")
            texts[i] = out.read_text()
            assert out.read_bytes() == alone[i]
        assert built == [id(shared)]
        geometries = {t[t.index("POINTS") : t.index("CELL_DATA")] for t in texts.values()}
        assert len(geometries) == 1
        a, b = (t[: t.index("POINTS")].splitlines() for t in texts.values())
        assert len(a) == len(b) and [n for n in range(len(a)) if a[n] != b[n]] == [1]
    assert shared in reporting._VTK_GEOMETRY
    del tree, shared
    gc.collect()
    assert len(reporting._VTK_GEOMETRY) == 0


def test_ply_map_of_another_mesh_raises(cube_tree, tmp_path):
    # a small ball inside the cube's black core, a mesh the octree was not built from
    ball = icosphere(0.2, subdivisions=2, center=(0.5, 0.5, 0.5))
    f = aligned_field(cube_tree, np.zeros(len(cube_tree.grey_index)))
    with pytest.raises(MeshMismatchError):
        export_difficulty_map(ball, cube_tree, f, tmp_path / "ball.ply")
    assert not list(tmp_path.iterdir())


def test_ply_vertices_in_black_leaves_take_the_low_color(pocket_plate, tmp_path):
    """At margin 0 no box meets the root's lower faces, so the pocket plate's
    9 bottom vertices whose faces all lie there sit in black leaves: they
    take the color of the scale's low end, as black boxes do in the VTK map.
    Every other vertex takes the value of its grey leaf."""
    tree = build_octree(pocket_plate, max_depth=5, margin=0.0)
    values = np.linspace(0.5, 1.0, len(tree.grey_index))
    scale = ColorScale(0.0, 1.0)
    out = export_difficulty_map(pocket_plate, tree, aligned_field(tree, values), tmp_path / "m.ply", scale=scale)
    rows = parse_ply_vertices(out.read_text())
    v = pocket_plate.vertices
    np.testing.assert_array_equal(rows[:, :3], v)
    bottom = (v[:, 2] == 0) & (v[:, 0] < 64) & (v[:, 1] < 64)
    leaf = tree.find_leaves(v)
    assert bottom.sum() == 9 and (tree.class_code[leaf[bottom]] == _BLACK).all()
    np.testing.assert_array_equal(rows[bottom, 3:], np.tile(BLUE, (9, 1)))
    rank = np.searchsorted(tree.grey_index, leaf[~bottom])
    assert np.array_equal(tree.grey_index[rank], leaf[~bottom])
    np.testing.assert_array_equal(rows[~bottom, 3:], scale.rgb(values[rank]))


def test_maps_span_several_write_chunks(unit_cube, cube_tree, tmp_path, monkeypatch):
    f = aligned_field(cube_tree, np.linspace(0, 1, len(cube_tree.grey_leaves())))
    whole = {
        fmt: export_difficulty_map(unit_cube, cube_tree, f, tmp_path / f"a.{fmt}").read_bytes()
        for fmt in ("ply", "vtk")
    }
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 5)
    tree = dataclasses.replace(cube_tree)  # no VTK geometry cached at the default chunk size
    for fmt in ("ply", "vtk"):
        out = export_difficulty_map(unit_cube, tree, f, tmp_path / f"b.{fmt}")
        assert out.read_bytes() == whole[fmt]


def format_rows(fmt, *tables):
    """``_rows`` as first written, with ``str.format`` per row; the reference."""
    for s in range(0, len(tables[0]), reporting._CHUNK_ROWS):
        cols = [col for t in tables for col in t[s : s + reporting._CHUNK_ROWS].T.tolist()]
        yield "".join(map(fmt.format, *cols))


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300, 0.1]),
)


@st.composite
def row_tables(draw):
    """Equally long (n, 3) float64, uint8 and int64 tables, as the map writers pass."""
    n = draw(st.integers(0, 12))
    return (
        draw(arrays(np.float64, (n, 3), elements=FLOATS)),
        draw(arrays(np.uint8, (n, 3))),
        draw(arrays(np.int64, (n, 3), elements=st.integers(-(2**40), 2**40))),
    )


@settings(max_examples=60, deadline=None)
@given(tables=row_tables())
def test_rows_percent_format_matches_str_format(tables):
    xyz, rgb, ints = tables
    calls = [
        ("%.9g %.9g %.9g\n", "{:.9g} {:.9g} {:.9g}\n", xyz),
        ("%.9g\n", "{:.9g}\n", xyz[:, :1]),
        ("3 %d %d %d\n", "3 {} {} {}\n", ints),
        ("%d %d %d\n", "{} {} {}\n", rgb),
    ]
    for chunk_rows in (1, 5, reporting._CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
            for percent, brace, table in calls:
                assert "".join(_rows(percent, table)) == "".join(format_rows(brace, table))


def bits_to_float(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64).item()


#: Values whose spellings a bit-keyed table could confuse: both zeros, NaNs
#: with other payloads and signs, infinities, and subnormals.
SPELLING_CASES = [
    0.0, -0.0, float("nan"), bits_to_float(0x7FF8000000000001),
    bits_to_float(0xFFF8000000000000), bits_to_float(0x7FF0000000000001),
    float("inf"), float("-inf"), 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
]  # fmt: skip


@settings(max_examples=60, deadline=None)
@given(tables=row_tables(), order=st.permutations(range(len(SPELLING_CASES))))
def test_spelled_rows_match_str_format(tables, order):
    """The map writers' rows, floats spelled once per distinct value and PLY
    colors as one ``"r g b"`` column, equal ``str.format`` of every value."""
    xyz, rgb, _ = tables
    cases = np.array(SPELLING_CASES)[list(order)]
    xyz = np.vstack([xyz, cases.reshape(-1, 3)])
    rgb = np.vstack([rgb, np.arange(len(cases), dtype=np.uint8).reshape(-1, 3)])
    words, which = reporting._spell("%.9g", xyz)
    colors = np.array(["%d %d %d" % tuple(c) for c in rgb.tolist()], dtype=object)
    assert which.shape == xyz.shape
    assert len(words) == len(np.unique(xyz.view(np.int64)))
    for chunk_rows in (1, 5, reporting._CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
            ply = _rows("%s %s %s %s\n", np.column_stack([words[which], colors]))
            want = format_rows("{:.9g} {:.9g} {:.9g} {} {} {}\n", xyz, rgb)
            assert "".join(ply) == "".join(want)
            cell_data = _rows("%s\n", words[which].reshape(-1, 1))
            assert "".join(cell_data) == "".join(format_rows("{:.9g}\n", xyz.reshape(-1, 1)))


def test_failed_chunk_leaves_no_partial_file(tmp_path):
    def chunks():
        yield "ply\n"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        _atomic_write_chunks(tmp_path / "m.ply", chunks())
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Report files


def part_report():
    field = LocalIndexField(
        index_id="tool_flexibility",
        values=np.array([0.36, 0.55]),
        volumes=np.array([2.0, 1.0]),
        octree_hash="h",
        path_keys=(8, 9),
    )
    return IndexReport(
        design_id="plate",
        process="machining",
        global_indexes={"max_dimension": 0.1, "chip_volume": 0.274},
        local_fields={"tool_flexibility": field},
        octree_fingerprint={"max_depth": 3, "leaf_count": 8, "content_hash": "h"},
    )


def test_field_summaries_computed_once_per_report(tmp_path, monkeypatch):
    """A report summarizes each local field once, however often it is
    emitted, and the bytes are those of fresh summaries."""
    fresh = {
        fmt: emit_report(part_report(), tmp_path / f"fresh.{fmt}").read_bytes()
        for fmt in ("json", "csv")
    }
    calls = []
    summarize = aggregation.summarize_field

    def counting(f):
        calls.append(f.index_id)
        return summarize(f)

    monkeypatch.setattr(aggregation, "summarize_field", counting)
    rep = part_report()
    for fmt in ("json", "csv", "json"):
        assert emit_report(rep, tmp_path / f"r.{fmt}").read_bytes() == fresh[fmt]
    assert calls == ["tool_flexibility"]


def test_part_csv_lists_every_index_then_total(tmp_path):
    out = emit_report(part_report(), tmp_path / "r.csv")
    assert b"\r\n" in out.read_bytes()
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert rows[0] == ["metric", "value"]
    metrics = [r[0] for r in rows[1:]]
    assert set(metrics) == {
        "machining.max_dimension",
        "machining.chip_volume",
        "machining.tool_flexibility_mean",
        "machining.tool_flexibility_max",
        "machining.total",
    }
    assert len(metrics) == len(set(metrics))
    assert metrics[-1] == "machining.total"
    by_metric = {r[0]: float(r[1]) for r in rows[1:]}
    assert by_metric["machining.total"] == pytest.approx(0.55)


def test_comparison_csv_has_five_columns(tmp_path):
    rep = part_report()
    comp = compare_reports(rep, rep)
    rows = [
        line.split(",")
        for line in emit_report(comp, tmp_path / "c.csv").read_text().strip().splitlines()
    ]
    assert rows[0] == ["metric", "baseline", "candidate", "delta", "delta_pct"]
    assert all(len(r) == 5 for r in rows)
    assert all(float(r[3]) == 0.0 for r in rows[1:])


def test_cross_process_comparison_csv_leaves_deltas_blank(tmp_path):
    a = part_report()
    b = IndexReport(
        design_id="p2",
        process="additive",
        global_indexes={"volume": 0.064},
        octree_fingerprint={"max_depth": 3, "leaf_count": 8, "content_hash": "h"},
    )
    out = emit_report(compare_reports(a, b), tmp_path / "c.csv")
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert all(r[3] == "" and r[4] == "" for r in rows[1:])


def test_assembly_csv_blocks(tmp_path):
    a = part_report()
    asm = build_assembly_report("asm", {"core": a, "cap": a}, {"core": 2.0, "cap": 1.0})
    raw = emit_report(asm, tmp_path / "a.csv").read_text()
    rows = [line.split(",") for line in raw.strip().splitlines()]
    metrics = [r[0] for r in rows]
    assert "machining.total" in metrics
    assert "core:weight" in metrics and "cap:weight" in metrics
    assert "core:machining.chip_volume" in metrics
    weights = {r[0]: float(r[1]) for r in rows if r[0].endswith(":weight")}
    assert weights["core:weight"] == pytest.approx(2 / 3)
    assert weights["cap:weight"] == pytest.approx(1 / 3)


def test_json_round_trips_part_assembly_comparison(tmp_path):
    rep = part_report()
    asm = build_assembly_report("asm", {"core": rep}, {"core": 1.0})
    comp = compare_reports(rep, rep)
    for name, doc in [("p", rep), ("a", asm), ("c", comp)]:
        path = emit_report(doc, tmp_path / f"{name}.json")
        assert load_report(path) == doc


def test_globals_only_report_round_trips(tmp_path):
    rep = IndexReport(
        design_id="bare",
        process="additive",
        global_indexes={"volume": 0.064, "skin_surface": 0.04},
        octree_fingerprint={"max_depth": 1, "leaf_count": 1, "content_hash": "x"},
    )
    path = emit_report(rep, tmp_path / "bare.json")
    again = load_report(path)
    assert again == rep
    assert again.local_fields == {}


def test_json_is_sorted_and_versioned(tmp_path):
    path = emit_report(part_report(), tmp_path / "r.json")
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert path.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text().count("\n") == 1


def dumps(doc):
    """The stdlib encoder's compact, key-sorted text; the report writer's reference."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, float("nan"), float("inf"), float("-inf")]
    ),
)


def random_floats(seed):
    """100 finite floats of many magnitudes, nearly all distinct."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)).tolist()


#: Short lists, and long ones with few distinct values (as report fields
#: have), with many, or with ints among the floats.
JSON_LISTS = st.one_of(
    st.lists(JSON_FLOATS, max_size=4),
    st.lists(JSON_FLOATS, min_size=1, max_size=4).map(lambda v: v * 40),
    st.integers(0, 2**32).map(random_floats),
    st.lists(st.one_of(st.integers(), JSON_FLOATS), max_size=4),
    st.lists(st.one_of(st.integers(), JSON_FLOATS), min_size=2, max_size=4).map(lambda v: v * 40),
)
#: Strings that need escapes or are not ASCII, among any others.
JSON_TEXT = st.one_of(
    st.text(), st.sampled_from(["é", "\u2603 \U0001f600", '"\\/\n\t', "\x00\x7f"])
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_FLOATS, JSON_TEXT, JSON_LISTS
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(JSON_TEXT, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS)
def test_report_writer_matches_json_dumps(doc):
    out = []
    reporting._json_parts(doc, out)
    assert "".join(out) == dumps(doc)


def test_every_report_kind_written_as_json_dumps(pocket_plate, tmp_path):
    """Part, assembly and comparison reports of a graded fixture, whose fields
    hold long float lists of few distinct values, carry the encoder's bytes."""
    params = AnalysisParams(max_depth=3)
    parts = [
        analyze_mesh(pocket_plate, process, MachineProfiles(), params).report
        for process in ("machining", "additive")
    ]
    asm = build_assembly_report("asm", {"a": parts[0], "b": parts[1]}, {"a": 2.0, "b": 1.0})
    reports = [*parts, asm, compare_reports(parts[0], parts[0]), compare_reports(parts[0], asm)]
    assert any(len(f.values) > 64 for f in parts[0].local_fields.values())
    assert reports[3].field_deltas
    for rep in reports:
        doc = {"schema_version": SCHEMA_VERSION, "report": rep.to_dict()}
        text = emit_report(rep, tmp_path / "r.json").read_text()
        assert text == reporting._report_json(rep) == dumps(doc) + "\n"


def write_indented(report, path):
    """A report as written before reports were compact: the same keys, indent=2."""
    doc = {"schema_version": SCHEMA_VERSION, "report": report.to_dict()}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def test_indented_reports_load_equal_to_compact(tmp_path):
    rep = part_report()
    asm = build_assembly_report("asm", {"core": rep}, {"core": 1.0})
    for name, doc in [("p", rep), ("a", asm), ("c", compare_reports(rep, rep))]:
        compact = emit_report(doc, tmp_path / f"{name}.json")
        indented = write_indented(doc, tmp_path / f"{name}.indented.json")
        assert indented.read_text() != compact.read_text()
        assert load_report(indented) == load_report(compact) == doc


def test_reports_with_the_old_build_settings_still_load(pocket_plate, tmp_path):
    """Reports once recorded ``samples`` and ``seed`` in their params, which
    changed nothing; such a report still loads, keeps its params as written,
    and compares with a fresh one at zero delta on every row."""
    fresh = analyze_mesh(
        pocket_plate, "machining", MachineProfiles(), AnalysisParams(max_depth=3)
    ).report
    doc = json.loads(emit_report(fresh, tmp_path / "new.json").read_text())
    assert not {"samples", "seed"} & set(doc["report"]["params"])
    doc["report"]["params"].update(samples=4, seed=7919)
    (tmp_path / "old.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    old = load_report(tmp_path / "old.json")
    assert old.params == {**fresh.params, "samples": 4, "seed": 7919}
    rows = compare_reports(old, fresh).rows
    assert rows and all(r["delta"] == 0.0 for r in rows)


def test_compare_reads_indented_reports_like_compact(tmp_path, capsys):
    base = part_report()
    cand = dataclasses.replace(
        base, design_id="plate2", global_indexes={"max_dimension": 0.2, "chip_volume": 0.1}
    )
    outputs = {}
    for style, write in (("compact", emit_report), ("indented", write_indented)):
        (tmp_path / style).mkdir()
        paths = [str(write(r, tmp_path / style / f"{r.design_id}.json")) for r in (base, cand)]
        out = tmp_path / f"{style}.out"
        assert main(["compare", *paths, "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs[style] = (capsys.readouterr().out, files)
    assert outputs["compact"] == outputs["indented"]
    assert sorted(outputs["compact"][1]) == [
        "plate_vs_plate2.comparison.csv",
        "plate_vs_plate2.comparison.json",
    ]


def test_report_bytes_stable_across_runs(tmp_path):
    a = emit_report(part_report(), tmp_path / "a.json").read_bytes()
    b = emit_report(part_report(), tmp_path / "b.json").read_bytes()
    assert a == b


def test_report_format_must_be_known(tmp_path):
    with pytest.raises(ValueError):
        emit_report(part_report(), tmp_path / "r.xlsx")


def test_load_rejects_other_schema_versions(tmp_path):
    path = emit_report(part_report(), tmp_path / "r.json")
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatchError):
        load_report(path)


def test_load_rejects_non_reports(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("not json at all {{{")
    with pytest.raises(SchemaMismatchError):
        load_report(bad)
    bad.write_text(json.dumps({"nothing": 1}))
    with pytest.raises(SchemaMismatchError):
        load_report(bad)
    bad.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "report": {"kind": "poem"}}))
    with pytest.raises(SchemaMismatchError):
        load_report(bad)
    bad.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "report": {"kind": "part"}}))
    with pytest.raises(SchemaMismatchError):
        load_report(bad)
    with pytest.raises(FileNotFoundError):
        load_report(tmp_path / "absent.json")


def test_failed_write_leaves_no_partial_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    target = blocker / "sub" / "r.json"
    with pytest.raises(ReportIOError):
        emit_report(part_report(), target)
    assert blocker.read_text() == "a file, not a directory"
    assert list(tmp_path.iterdir()) == [blocker]
