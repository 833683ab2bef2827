import hashlib
import json

import numpy as np
import pytest

from manumap.aggregation import IndexReport, build_assembly_report, compare_reports
from manumap.errors import (
    FieldMismatchError,
    ParameterError,
    ReportIOError,
    SchemaMismatchError,
)
from manumap.fields import LocalIndexField
from manumap.machining import SubtractiveProfile, tool_flexibility_field
from manumap import aggregation, reporting
from manumap.primitives import box_mesh, icosphere
from manumap.reporting import (
    ColorScale,
    SCHEMA_VERSION,
    _atomic_write_chunks,
    emit_report,
    export_difficulty_map,
    load_report,
)
from manumap.spatial import OctantClass, build_octree

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

    pts_at = lines.index(next(l for l in lines if l.startswith("POINTS")))
    n_pts = int(lines[pts_at].split()[1])
    assert n_pts == 8 * n_cells
    pts = np.array([[float(t) for t in lines[pts_at + 1 + i].split()] for i in range(n_pts)])

    types_at = lines.index(f"CELL_TYPES {n_cells}")
    assert all(lines[types_at + 1 + i] == "12" for i in range(n_cells))

    table_at = lines.index("LOOKUP_TABLE default")
    scalars = np.array([float(lines[table_at + 1 + i]) for i in range(n_cells)])

    # match file cells to octree leaves by geometry, not by write order
    cell_mins = pts.reshape(n_cells, 8, 3).min(axis=1)
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
    va = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "a.vtk").read_bytes()
    vb = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / "b.vtk").read_bytes()
    assert va == vb


# SHA-256 of maps written by the per-leaf writers the array code replaced;
# any change to the bytes of a map shows here.
PINNED_MAP_DIGESTS = {
    ("cube", "ply"): "bb6ab422ad952cecff46f52d3c0de5de9e1b993fc0db38b69630587e1c2474f9",
    ("cube", "vtk"): "74d8c1754160394d6469bb2c24f1097b1dbffa69d6158008dcb35bee17a219fc",
    ("plate", "ply"): "fab8f578218bb4e7e1ffd7d9c3403a166c1e3b8193dde19cd1c3584cde62e4dc",
    ("plate", "vtk"): "b9eb2905b9365fccb7039a9bb42f30ebcac6abec137b4261eedeb03c54efee73",
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


def test_nearest_grey_fallback_chunks_match_full_argmin(cube_tree, tmp_path, monkeypatch):
    # a small ball inside the cube's black core: every vertex misses the greys
    ball = icosphere(0.2, subdivisions=2, center=(0.5, 0.5, 0.5))
    found = cube_tree.find_leaves(ball.vertices)
    assert all(cube_tree.leaves()[i].octant_class is OctantClass.BLACK for i in found)
    greys = cube_tree.grey_leaves()
    values = np.random.default_rng(7).random(len(greys))
    f = aligned_field(cube_tree, values)
    scale = ColorScale(0.0, 1.0)

    centers = np.array([n.center for n in greys])
    d2 = ((ball.vertices[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    want = scale.rgb(values[np.argmin(d2, axis=1)])

    maps = []
    for budget in (1, 3 * len(greys) - 1, len(ball.vertices) * len(greys)):
        monkeypatch.setattr(reporting, "_NEAREST_PAIR_BUDGET", budget)
        out = export_difficulty_map(ball, cube_tree, f, tmp_path / f"b{budget}.ply", scale=scale)
        maps.append(out.read_bytes())
        np.testing.assert_array_equal(parse_ply_vertices(out.read_text())[:, 3:], want)
    assert maps[0] == maps[1] == maps[2]


def test_maps_span_several_write_chunks(unit_cube, cube_tree, tmp_path, monkeypatch):
    f = aligned_field(cube_tree, np.linspace(0, 1, len(cube_tree.grey_leaves())))
    whole = {
        fmt: export_difficulty_map(unit_cube, cube_tree, f, tmp_path / f"a.{fmt}").read_bytes()
        for fmt in ("ply", "vtk")
    }
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 5)
    for fmt in ("ply", "vtk"):
        out = export_difficulty_map(unit_cube, cube_tree, f, tmp_path / f"b.{fmt}")
        assert out.read_bytes() == whole[fmt]


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
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
