import io
import json
import subprocess
import sys

import numpy as np
import pytest

from manumap.aggregation import IndexReport
from manumap import cli
from manumap.analysis import AnalysisParams
from manumap.cli import main
from manumap.mesh_io import load_mesh
from manumap.primitives import box_mesh, write_binary_stl
from manumap.reporting import SCHEMA_VERSION, emit_report, load_report
from manumap.spatial import build_octree

FAST = ["--depth", "2", "--workers", "1"]


def saved_report(tmp_path, name, process, globals_):
    rep = IndexReport(
        design_id=name,
        process=process,
        global_indexes=globals_,
        octree_fingerprint={"max_depth": 2, "leaf_count": 8, "content_hash": name},
    )
    return emit_report(rep, tmp_path / f"{name}.json")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_happy_path(mesh_files, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["analyze", str(mesh_files["pocket"]), "--process", "machining",
         "--out", str(out), "--depth", "3", "--workers", "1"]
    )
    assert code == 0
    report_path = out / "part.machining.report.json"
    map_path = out / "part.machining.tool_flexibility.ply"
    assert report_path.exists() and map_path.exists()
    rep = load_report(report_path)
    assert rep.process == "machining"
    assert 0.0 <= rep.total <= 1.0
    assert map_path.read_text().startswith("ply\n")
    assert "machining.total" in capsys.readouterr().out


def test_analyze_both_processes_share_one_octree(mesh_files, tmp_path):
    out = tmp_path / "results"
    code = main(["analyze", str(mesh_files["pocket"]), "--process", "both",
                 "--out", str(out), *FAST])
    assert code == 0
    mach = json.loads((out / "part.machining.report.json").read_text())
    add = json.loads((out / "part.additive.report.json").read_text())
    assert mach["report"]["octree_fingerprint"] == add["report"]["octree_fingerprint"]
    assert (out / "part.machining.tool_flexibility.ply").exists()
    assert (out / "part.additive.build_height.ply").exists()


def test_analyze_both_needs_an_output_directory(mesh_files, capsys):
    assert main(["analyze", str(mesh_files["pocket"]), "--process", "both", *FAST]) == 2
    assert "--out" in capsys.readouterr().err


def test_analyze_both_rejects_single_file_flags(mesh_files, tmp_path, capsys):
    code = main(["analyze", str(mesh_files["pocket"]), "--process", "both",
                 "--out", str(tmp_path), "--json", str(tmp_path / "r.json"), *FAST])
    assert code == 2
    assert "--json" in capsys.readouterr().err


def test_analyze_exact_path_flags(mesh_files, tmp_path):
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    m = tmp_path / "m.vtk"
    d = tmp_path / "leaves.jsonl"
    code = main(
        ["analyze", str(mesh_files["pocket"]), "--json", str(j), "--csv", str(c),
         "--map", str(m), "--dump-octree", str(d), "--depth", "3", "--workers", "1"]
    )
    assert code == 0
    assert load_report(j).design_id == "part"
    assert c.read_text().startswith("metric,value")
    assert m.read_text().startswith("# vtk DataFile Version 3.0")
    leaves = [json.loads(line) for line in d.read_text().splitlines()]
    assert leaves
    assert set(leaves[0]) == {"depth", "box_min", "box_max", "class", "part_volume"}


def test_dump_octree_streams_the_leaf_dump(mesh_files, tmp_path, monkeypatch):
    """The streamed CLI dump equals Octree.dump_leaves byte for byte, across write chunks."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 5)
    d = tmp_path / "leaves.jsonl"
    assert main(["analyze", str(mesh_files["pocket"]), "--dump-octree", str(d),
                 "--seed", "3", *FAST]) == 0
    tree = build_octree(load_mesh(mesh_files["pocket"]), max_depth=2)
    assert len(tree.leaves()) > 3 * 5  # several chunks, the last one partial
    buf = io.StringIO()
    tree.dump_leaves(buf)
    assert d.read_bytes() == buf.getvalue().encode()
    assert not (tmp_path / "leaves.jsonl.tmp").exists()


def test_analyze_map_index_selection(mesh_files, tmp_path, capsys):
    m = tmp_path / "rho.ply"
    code = main(["analyze", str(mesh_files["pocket"]), "--process", "additive",
                 "--map", str(m), "--map-index", "platform_distance", *FAST])
    assert code == 0
    assert m.exists()
    code = main(["analyze", str(mesh_files["pocket"]), "--process", "additive",
                 "--map", str(m), "--map-index", "tool_flexibility", *FAST])
    assert code == 2
    assert "tool_flexibility" in capsys.readouterr().err


def test_missing_mesh_exits_3(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "ghost.stl"), *FAST]) == 3
    assert "not found" in capsys.readouterr().err


def test_truncated_mesh_exits_3(mesh_files, capsys):
    assert main(["analyze", str(mesh_files["truncated"]), *FAST]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_open_mesh_exits_3(tmp_path):
    open_stl = tmp_path / "open.stl"
    open_stl.write_text(
        "solid sheet\n"
        "facet normal 0 0 1\nouter loop\n"
        "vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\n"
        "endloop\nendfacet\n"
        "endsolid sheet\n"
    )
    assert main(["analyze", str(open_stl), *FAST]) == 3


def test_missing_profile_exits_2(mesh_files, capsys):
    code = main(["analyze", str(mesh_files["pocket"]), "--profile", "/no/such.cfg", *FAST])
    assert code == 2
    assert "profile" in capsys.readouterr().err


def test_bad_profile_exits_2(mesh_files, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[machining]\nmax_apsect = 5\n")
    assert main(["analyze", str(mesh_files["pocket"]), "--profile", str(bad), *FAST]) == 2


def test_bad_scale_exits_2(mesh_files, tmp_path, capsys):
    base = ["analyze", str(mesh_files["pocket"]), "--map", str(tmp_path / "m.ply"), *FAST]
    assert main(base + ["--scale", "wide"]) == 2
    assert main(base + ["--scale", "3:1"]) == 2
    assert "--scale" in capsys.readouterr().err


def test_depth_out_of_range_exits_2(mesh_files):
    assert main(["analyze", str(mesh_files["pocket"]), "--depth", "0", "--workers", "1"]) == 2
    assert main(["analyze", str(mesh_files["pocket"]), "--depth", "11", "--workers", "1"]) == 2


# Each documented failure exits with its code and a one-line message, never a
# traceback.

# A closed mesh that encloses no volume: one triangle, both windings.
FLAT_STL = (
    "solid flat\n"
    "facet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\n"
    "endloop\nendfacet\n"
    "facet normal 0 0 -1\nouter loop\nvertex 0 0 0\nvertex 0 1 0\nvertex 1 0 0\n"
    "endloop\nendfacet\n"
    "endsolid flat\n"
)
# Preludes that change the inputs in the child, where argv[2] is the mesh path:
# overwrite the box with the flat sheet, or add a profile holding a NaN.
_FLAT_MESH = f"import sys; open(sys.argv[2], 'w').write({FLAT_STL!r}); "
_NAN_PROFILE = (
    "import sys; cfg = sys.argv[2] + '.cfg'; "
    "open(cfg, 'w').write('[machining]\\nmax_aspect = nan\\n'); "
    "sys.argv += ['--profile', cfg]; "
)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: manumap") == 2


@pytest.mark.parametrize(
    "flags, prelude, code",
    [
        (["--samples", "3"], "", 2),
        (["--depth", "x"], "", 2),
        (["--no-such-flag"], "", 2),
        (["--format", "obj"], "", 2),
        (["--margin", "-1"], "", 2),
        (["--seed", "-5"], "", 2),
        (["--workers", "0"], "", 2),
        (["--workers", "-3"], "", 2),
        (["--margin", "inf"], "", 2),
        (["--required-ra", "nan"], "", 2),
        (["--map", "unwritten.ply", "--scale=-inf:inf"], "", 2),
        ([], _NAN_PROFILE, 2),
        ([], _FLAT_MESH, 3),
        (["--process", "additive"], _FLAT_MESH, 3),
    ],
    ids=[
        "samples-flag", "depth-x", "unknown-flag", "format-obj", "margin-neg", "seed-neg",
        "workers-0", "workers-neg", "margin-inf", "required-ra-nan", "scale-inf",
        "profile-nan", "flat-mesh", "flat-mesh-additive",
    ],
)
def test_failures_exit_with_code_and_no_traceback(tmp_path, flags, prelude, code):
    mesh = tmp_path / "box.stl"
    write_binary_stl(box_mesh((10.0, 10.0, 10.0)), mesh)
    script = prelude + "import sys; from manumap.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", str(mesh), "--depth", "2", *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1  # one line: no usage block, no traceback
    assert "usage:" not in proc.stderr and "Traceback" not in proc.stderr


def test_analysis_failure_exits_4_and_no_traceback(tmp_path):
    """An AnalysisError exits 4 with a one-line message: comparing two
    machining reports that share no metric (the second holds none) raises
    NoSharedIndexesError."""
    base = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    cand = saved_report(tmp_path, "b", "machining", {})
    script = "import sys; from manumap.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "compare", str(base), str(cand)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and "share no metrics" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["analyze", "m.stl"], ["analyze-assembly", "a=m.stl"]])
def test_bare_command_grades_with_library_defaults(argv):
    assert cli._params(cli.build_parser().parse_args(argv)) == AnalysisParams()


def test_unknown_material_exits_2(mesh_files, capsys):
    code = main(["analyze", str(mesh_files["pocket"]), "--material", "unobtainium", *FAST])
    assert code == 2
    assert "unobtainium" in capsys.readouterr().err


def test_missing_arguments_exit_2(capsys):
    assert main(["analyze"]) == 2
    capsys.readouterr()


def test_failed_output_write_exits_1(mesh_files, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    code = main(["analyze", str(mesh_files["pocket"]),
                 "--json", str(blocker / "sub" / "r.json"), *FAST])
    assert code == 1
    assert blocker.read_text() == "file"
    assert list(tmp_path.iterdir()) == [blocker]
    capsys.readouterr()


def test_workers_flag_never_changes_bytes(mesh_files, tmp_path):
    outs = []
    for workers, name in [("1", "a"), ("8", "b")]:
        out = tmp_path / name
        code = main(["analyze", str(mesh_files["pocket"]), "--out", str(out),
                     "--depth", "3", "--workers", workers])
        assert code == 0
        outs.append(out)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# analyze-assembly


@pytest.fixture()
def two_boxes(tmp_path):
    big = tmp_path / "big.stl"
    small = tmp_path / "small.stl"
    write_binary_stl(box_mesh((20.0, 20.0, 20.0)), big)  # 8000 mm^3
    write_binary_stl(box_mesh((20.0, 20.0, 10.0)), small)  # 4000 mm^3
    return big, small


def test_assembly_volume_weights_two_to_one(two_boxes, tmp_path, capsys):
    big, small = two_boxes
    out = tmp_path / "asm"
    code = main(["analyze-assembly", f"body={big}", f"cap={small}",
                 "--design-id", "fixture", "--out", str(out), *FAST])
    assert code == 0
    asm = load_report(out / "fixture.assembly.report.json")
    assert asm.weights["body"] == pytest.approx(0.667, abs=5e-4)
    assert asm.weights["cap"] == pytest.approx(0.333, abs=5e-4)
    assert asm.totals is not None
    assert (out / "fixture.body.report.json").exists()
    assert (out / "fixture.cap.report.json").exists()
    assert "weight 0.66" in capsys.readouterr().out


def test_assembly_single_module_totals_match_module(two_boxes, tmp_path):
    big, _ = two_boxes
    out = tmp_path / "asm"
    code = main(["analyze-assembly", f"solo={big}", "--out", str(out), *FAST])
    assert code == 0
    asm = load_report(out / "assembly.assembly.report.json")
    module = load_report(out / "assembly.solo.report.json")
    part = module.scalar_metrics()
    for key, val in asm.totals.items():
        assert val == pytest.approx(part[f"machining.{key}"])


def test_assembly_hybrid_has_no_cross_process_totals(two_boxes, tmp_path, capsys):
    big, small = two_boxes
    out = tmp_path / "asm"
    code = main(["analyze-assembly", f"body={big}:machining", f"lid={small}:additive",
                 "--out", str(out), *FAST])
    assert code == 0
    text = capsys.readouterr().out
    assert "warning:" in text and "different processes" in text
    asm = load_report(out / "assembly.assembly.report.json")
    assert asm.totals is None
    assert asm.module_reports["body"].process == "machining"
    assert asm.module_reports["lid"].process == "additive"


def test_assembly_grades_a_repeated_module_once(mesh_files, tmp_path):
    pocket = str(mesh_files["pocket"])
    out = tmp_path / "asm"
    assert main(["analyze-assembly", f"a={pocket}", f"b={pocket}",
                 "--depth", "3", "--out", str(out)]) == 0
    a = (out / "assembly.a.report.json").read_bytes()
    b = (out / "assembly.b.report.json").read_bytes()
    doc_a, doc_b = json.loads(a), json.loads(b)
    doc_b["report"]["design_id"] = doc_a["report"]["design_id"]
    assert doc_a == doc_b
    for module, text in (("a", a), ("b", b)):
        alone = tmp_path / module
        assert main(["analyze", pocket, "--design-id", module,
                     "--depth", "3", "--out", str(alone)]) == 0
        assert (alone / f"{module}.machining.report.json").read_bytes() == text


def test_assembly_bad_module_spec_exits_2(capsys):
    assert main(["analyze-assembly", "just-a-path.stl", *FAST]) == 2
    assert "ID=PATH" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_report_with_itself_all_zero(mesh_files, tmp_path, capsys):
    r = tmp_path / "r.json"
    assert main(["analyze", str(mesh_files["pocket"]), "--json", str(r), *FAST]) == 0
    capsys.readouterr()
    c = tmp_path / "cmp.csv"
    assert main(["compare", str(r), str(r), "--csv", str(c)]) == 0
    rows = [line.split(",") for line in c.read_text().strip().splitlines()[1:]]
    assert rows
    assert all(float(row[3]) == 0.0 for row in rows)
    assert "+0.0%" in capsys.readouterr().out


def test_compare_reports_percent_drop(tmp_path, capsys):
    base = saved_report(tmp_path, "one-piece", "machining", {"reach": 1.0})
    cand = saved_report(tmp_path, "modular", "machining", {"reach": 0.550})
    out = tmp_path / "cmp"
    assert main(["compare", str(base), str(cand), "--out", str(out)]) == 0
    doc = load_report(out / "one-piece_vs_modular.comparison.json")
    row = next(r for r in doc.rows if r["metric"] == "machining.reach")
    assert row["delta_pct"] == pytest.approx(-45.0, abs=1.0)
    assert "-45.0%" in capsys.readouterr().out
    assert (out / "one-piece_vs_modular.comparison.csv").exists()


def test_compare_cross_process_side_by_side(tmp_path, capsys):
    base = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    cand = saved_report(tmp_path, "b", "additive", {"volume": 0.1})
    assert main(["compare", str(base), str(cand)]) == 0
    text = capsys.readouterr().out
    assert "side by side" in text
    assert "n/a" in text


def test_compare_schema_mismatch_exits_5(tmp_path, capsys):
    good = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    stale = tmp_path / "stale.json"
    doc = json.loads(good.read_text())
    doc["schema_version"] = SCHEMA_VERSION + 1
    stale.write_text(json.dumps(doc))
    assert main(["compare", str(good), str(stale)]) == 5
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("global_indexes", [0.5]),
        ("local_fields", [0.5]),
        ("octree_fingerprint", [0.5]),
        ("global_indexes", {"reach": float("nan")}),
    ],
    ids=["global-list", "fields-list", "fingerprint-list", "global-nan"],
)
def test_compare_malformed_body_exits_5(tmp_path, capsys, key, value):
    good = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["report"][key] = value
    bad.write_text(json.dumps(doc))
    assert main(["compare", str(good), str(bad)]) == 5
    assert main(["compare", str(bad), str(good)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_compare_of_comparisons_exits_5(tmp_path, capsys):
    good = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    cmp_json = tmp_path / "cmp.json"
    assert main(["compare", str(good), str(good), "--json", str(cmp_json)]) == 0
    assert main(["compare", str(cmp_json), str(good)]) == 5
    assert "ComparisonReport" in capsys.readouterr().err


def test_compare_missing_report_exits_1(tmp_path, capsys):
    good = saved_report(tmp_path, "a", "machining", {"reach": 0.5})
    assert main(["compare", str(good), str(tmp_path / "ghost.json")]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profile-validate


def test_profile_validate_echoes_normalized_json(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("[machining]\nmax_aspect = 7\n")
    j = tmp_path / "normalized.json"
    assert main(["profile-validate", str(cfg), "--json", str(j)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["machining"]["max_aspect"] == 7.0
    assert doc["machining"]["workspace_mm"] == [800.0, 600.0, 500.0]
    assert json.loads(j.read_text()) == doc


def test_profile_validate_rejects_bad_file(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("[milling]\nx = 1\n")
    assert main(["profile-validate", str(cfg)]) == 2
    assert "milling" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("[additive]\nenvelope_mm = 300 300 300\n")
    proc = subprocess.run(
        [sys.executable, "-m", "manumap", "profile-validate", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["additive"]["envelope_mm"] == [300.0, 300.0, 300.0]
