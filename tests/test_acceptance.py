"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s or read captured output).  Tolerances are pinned here as
constants; loosening them is a contract change, not a test fix.
"""

import json
import time

import numpy as np
import pytest

from conftest import POCKET_DEPTH, POCKET_PLATE_EXTENTS, POCKET_RECT, die_plate, t_slot_part
from oracles import sphere_volume, winding_numbers
from manumap.additive import AdditiveProfile, build_height_field, platform_distance_field
from manumap.additive import max_dimension_index as additive_max_dimension
from manumap.additive import skin_surface_index, volume_index
from manumap.aggregation import IndexReport, compare_reports, max_rule_total, weighted_total
from manumap.cli import main
from manumap.fields import LocalIndexField
from manumap.machining import (
    SubtractiveProfile,
    chip_volume_index,
    hardness_index,
    max_dimension_index,
    roughness_index,
    tool_flexibility_field,
)
from manumap.aggregation import volume_weighted_mean
from manumap.mesh_io import PointClass, classify_points
from manumap.primitives import box_mesh, icosphere, slab_with_pockets, torus_mesh
from manumap.spatial import build_octree

TOTAL_TOL = 5e-4          # aggregation regression, absolute
PERCENT_TOL = 1.0         # comparison deltas, percentage points
VOLUME_REL_TOL = 0.02     # octree conservation vs closed-form sphere volume
SPHERE_BUDGET_S = 30.0
AGGREGATION_BUDGET_S = 1.0
N_ORACLE_POINTS = 10_000  # per fixture
N_RANDOM_INPUTS = 200     # range sweep for the scalar indexes
N_RANDOM_FIELDS = 100     # per weighted-mean property


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_two_module_totals_regression():
    t0 = time.perf_counter()
    weights = (0.67, 0.33)
    got = (
        weighted_total((0.068, 0.049), weights),
        weighted_total((0.274, 0.344), weights),
        weighted_total((0.095, 0.360), weights),
        max_rule_total((0.550, 0.440)),
    )
    elapsed = time.perf_counter() - t0
    want = (0.062, 0.297, 0.182, 0.550)
    errors = [abs(g - w) for g, w in zip(got, want)]
    ok = max(errors) <= TOTAL_TOL and elapsed < AGGREGATION_BUDGET_S
    verdict(
        1,
        ok,
        f"totals {', '.join(f'{g:.4f}' for g in got)} vs {want}, "
        f"max abs error {max(errors):.2e} (tol {TOTAL_TOL}), {elapsed * 1e3:.1f} ms",
    )


def _report_with_reach_max(design_id: str, value: float) -> IndexReport:
    field = LocalIndexField(
        index_id="tool_flexibility",
        values=np.array([value]),
        volumes=np.array([1.0]),
        octree_hash=design_id,
        path_keys=(8,),
    )
    return IndexReport(
        design_id=design_id,
        process="machining",
        global_indexes={},
        local_fields={"tool_flexibility": field},
        octree_fingerprint={"max_depth": 1, "leaf_count": 8, "content_hash": design_id},
    )


def test_02_comparison_percent_deltas():
    comp = compare_reports(
        _report_with_reach_max("one-piece", 1.0), _report_with_reach_max("modular", 0.550)
    )
    row = next(r for r in comp.rows if r["metric"] == "machining.tool_flexibility_max")
    drop_ok = abs(row["delta_pct"] - (-45.0)) <= PERCENT_TOL

    rng = np.random.default_rng(41)
    ratio_errs = []
    for ratio, target in ((0.40, -60.0), (0.47, -53.0)):
        for base in rng.uniform(0.05, 1.0, 25):
            c = compare_reports(
                _report_with_reach_max("b", float(base)),
                _report_with_reach_max("c", float(base * ratio)),
            )
            r = next(x for x in c.rows if x["metric"] == "machining.tool_flexibility_max")
            ratio_errs.append(abs(r["delta_pct"] - target))
    ratios_ok = max(ratio_errs) <= PERCENT_TOL
    verdict(
        2,
        drop_ok and ratios_ok,
        f"1.0 vs 0.550 reports {row['delta_pct']:+.2f}% (want -45 +/- {PERCENT_TOL}); "
        f"50 synthetic 0.40x/0.47x baselines within {max(ratio_errs):.2e} of -60%/-53%",
    )


def test_03_octree_volume_conservation():
    mesh = icosphere(10.0, subdivisions=4)
    t0 = time.perf_counter()
    tree = build_octree(mesh, max_depth=6)
    total = tree.total_part_volume()
    elapsed = time.perf_counter() - t0
    analytic = sphere_volume(10.0)  # 4188.79 mm^3
    rel = abs(total - analytic) / analytic
    ok = rel <= VOLUME_REL_TOL and elapsed < SPHERE_BUDGET_S
    verdict(
        3,
        ok,
        f"sum of leaf volumes {total:.2f} vs {analytic:.2f} mm^3 "
        f"(rel err {rel:.4f}, tol {VOLUME_REL_TOL}), {elapsed:.1f} s (budget {SPHERE_BUDGET_S})",
    )


def test_04_point_in_mesh_matches_winding_oracle(unit_cube, torus, pocket_plate):
    fixtures = [("cube", unit_cube, 11), ("torus", torus, 13), ("pocket", pocket_plate, 17)]
    details = []
    all_ok = True
    for name, mesh, seed in fixtures:
        rng = np.random.default_rng(seed)
        lo = np.asarray(mesh.metrics.bbox_min)
        hi = np.asarray(mesh.metrics.bbox_max)
        span = hi - lo
        pts = rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(N_ORACLE_POINTS, 3))
        classes = classify_points(mesh, pts)
        w = winding_numbers(mesh, pts)
        # keep only points the winding number calls decisively and the
        # classifier does not flag as sitting on the surface
        keep = (np.abs(w - 0.5) > 0.4) & (classes != PointClass.ON_BOUNDARY)
        agree = (classes[keep] == PointClass.INSIDE) == (w[keep] > 0.5)
        all_ok &= bool(agree.all()) and keep.sum() > 0.9 * N_ORACLE_POINTS
        details.append(f"{name} {agree.sum()}/{keep.sum()}")
    verdict(4, all_ok, f"agreement outside the epsilon shell: {', '.join(details)}")


def test_05_index_range_and_saturation(pocket_plate):
    rng = np.random.default_rng(20260817)
    seen = []
    for i in range(N_RANDOM_INPUTS):
        ws = tuple(rng.uniform(50.0, 1000.0, 3))
        tools = tuple(sorted(rng.uniform(0.5, 40.0, rng.integers(1, 6))))
        best = rng.uniform(0.05, 1.0)
        sub = SubtractiveProfile(
            workspace=ws,
            tool_diameters=tools,
            max_aspect=rng.uniform(1.5, 25.0),
            hardness_limit_hb=rng.uniform(50.0, 800.0),
            roughness_best_um=best,
            roughness_coarse_um=best * rng.uniform(1.5, 40.0),
        )
        add = AdditiveProfile(envelope=tuple(rng.uniform(50.0, 1000.0, 3)))
        if i % 4 == 0:
            ext = rng.uniform(20.0, 120.0, 3)
            px0, py0 = rng.uniform(0.2, 0.4, 2) * ext[:2]
            px1, py1 = rng.uniform(0.6, 0.8, 2) * ext[:2]
            mesh = slab_with_pockets(
                tuple(ext), [((px0, py0, px1, py1), float(rng.uniform(0.2, 0.8) * ext[2]))]
            )
        else:
            mesh = box_mesh(tuple(rng.uniform(1.0, 900.0, 3)))
        seen.extend(
            [
                max_dimension_index(mesh, sub),
                chip_volume_index(mesh),
                hardness_index(float(rng.uniform(1.0, 1000.0)), sub),
                roughness_index(float(rng.uniform(0.01, 100.0)), sub),
                additive_max_dimension(mesh, add),
                volume_index(mesh, add),
                skin_surface_index(mesh, add),
            ]
        )
    seen = np.array(seen)
    range_ok = bool((seen >= 0.0).all() and (seen <= 1.0).all())

    tree = build_octree(pocket_plate, max_depth=3)
    local_ok = True
    for k in range(10):
        tools = tuple(sorted(rng.uniform(0.5, 40.0, rng.integers(1, 6))))
        f = tool_flexibility_field(
            pocket_plate,
            tree,
            SubtractiveProfile(tool_diameters=tools, max_aspect=rng.uniform(1.5, 25.0)),
        )
        prof = AdditiveProfile(envelope=tuple(rng.uniform(80.0, 1000.0, 3)))
        h = build_height_field(tree, prof)
        d = platform_distance_field(tree, prof)
        for fld in (f, h, d):
            local_ok &= bool((fld.values >= 0.0).all() and (fld.values <= 1.0).all())

    die = box_mesh((630.0, 182.0, 100.0))
    saturated = additive_max_dimension(die, AdditiveProfile(envelope=(250.0, 250.0, 250.0)))

    slot = t_slot_part()
    slot_tree = build_octree(slot, max_depth=4)
    f = tool_flexibility_field(slot, slot_tree, SubtractiveProfile())
    by_key = dict(zip(f.path_keys, f.values))
    shadowed = [
        n
        for n in slot_tree.grey_leaves()
        if 11 < n.center[0] < 17
        and 5 < n.center[1] < 15
        and n.box_min[2] < 10 < n.box_max[2]
        and n.center[2] > 9
    ]
    undercut_vals = [by_key[n.path_key] for n in shadowed]
    undercut_ok = bool(shadowed) and all(v == 1.0 for v in undercut_vals)

    cube_chip = chip_volume_index(box_mesh((100.0, 100.0, 100.0)))
    cube_ok = cube_chip == pytest.approx(0.0, abs=1e-9)

    ok = range_ok and local_ok and saturated == 1.0 and undercut_ok and cube_ok
    verdict(
        5,
        ok,
        f"{len(seen)} scalar values in [0,1]: {range_ok}; local fields in [0,1]: {local_ok}; "
        f"oversize part saturates at {saturated}; {len(undercut_vals)} undercut leaves all 1.0: "
        f"{undercut_ok}; solid cube chip index {cube_chip:.1e}",
    )


def _floor_min(mesh, rect, floor_z, profile):
    tree = build_octree(mesh, max_depth=4)
    field = tool_flexibility_field(mesh, tree, profile)
    by_key = dict(zip(field.path_keys, field.values))
    x0, y0, x1, y1 = rect
    floor = [
        n
        for n in tree.grey_leaves()
        if x0 < n.center[0] < x1
        and y0 < n.center[1] < y1
        and n.box_min[2] < floor_z < n.box_max[2]
    ]
    assert floor
    return min(by_key[n.path_key] for n in floor)


def test_06_reach_difficulty_monotone_in_pocket_shape():
    profile = SubtractiveProfile()
    rect = (26.0, 26.0, 38.0, 38.0)
    by_depth = []
    for depth in (5.0, 20.0, 35.0, 50.0):
        mesh = slab_with_pockets((64.0, 64.0, 64.0), [(rect, depth)])
        by_depth.append(_floor_min(mesh, rect, 64.0 - depth, profile))
    deeper_ok = bool(np.all(np.diff(by_depth) >= 0.0))

    by_width = []
    for width in (5.0, 10.0, 15.0, 20.0):
        lo, hi = (64.0 - width) / 2.0, (64.0 + width) / 2.0
        rect = (lo, lo, hi, hi)
        mesh = slab_with_pockets((64.0, 64.0, 64.0), [(rect, 40.0)])
        by_width.append(_floor_min(mesh, rect, 24.0, profile))
    wider_ok = bool(np.all(np.diff(by_width) <= 0.0))

    verdict(
        6,
        deeper_ok and wider_ok,
        f"floor difficulty by depth 5->50: {[round(float(v), 3) for v in by_depth]} "
        f"(non-decreasing); by width 5->20: {[round(float(v), 3) for v in by_width]} "
        f"(non-increasing)",
    )


def test_07_parallel_runs_are_byte_identical(mesh_files, tmp_path):
    digests = {}
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        code = main(
            ["analyze", str(mesh_files["pocket"]), "--process", "both", "--out", str(out),
             "--depth", "4", "--workers", workers]
        )
        assert code == 0
        digests[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    same_names = sorted(digests["1"]) == sorted(digests["8"])
    same_bytes = same_names and all(
        digests["1"][name] == digests["8"][name] for name in digests["1"]
    )
    verdict(
        7,
        same_bytes,
        f"{len(digests['1'])} output files (reports + maps, both processes) "
        f"identical for --workers 1 vs 8: {same_bytes}",
    )


def test_08_volume_weighted_mean_properties():
    rng = np.random.default_rng(97)

    def random_field(values=None, volumes=None, n=None):
        n = n or int(rng.integers(1, 30))
        if values is None:
            values = rng.uniform(0.0, 1.0, n)
        if volumes is None:
            volumes = rng.uniform(0.01, 50.0, len(values))
        return LocalIndexField("x", np.asarray(values), np.asarray(volumes))

    const_ok = all(
        volume_weighted_mean(random_field(values=np.full(int(rng.integers(1, 30)), c)))
        == pytest.approx(c, abs=1e-12)
        for c in rng.uniform(0.0, 1.0, N_RANDOM_FIELDS)
    )
    mean_ok = True
    for _ in range(N_RANDOM_FIELDS):
        v = rng.uniform(0.0, 1.0, int(rng.integers(1, 30)))
        f = random_field(values=v, volumes=np.full(len(v), float(rng.uniform(0.1, 9.0))))
        mean_ok &= volume_weighted_mean(f) == pytest.approx(float(v.mean()), rel=1e-9)
    scale_ok = True
    for _ in range(N_RANDOM_FIELDS):
        v = rng.uniform(0.0, 1.0, int(rng.integers(1, 30)))
        vol = rng.uniform(0.01, 50.0, len(v))
        k = float(rng.uniform(1e-3, 1e4))
        a = volume_weighted_mean(random_field(values=v, volumes=vol))
        b = volume_weighted_mean(random_field(values=v, volumes=vol * k))
        scale_ok &= a == pytest.approx(b, rel=1e-9)

    verdict(
        8,
        const_ok and mean_ok and scale_ok,
        f"{N_RANDOM_FIELDS} fields each: constant identity {const_ok}, "
        f"equal-volume arithmetic mean {mean_ok}, volume-unit invariance {scale_ok}",
    )


DIE_POCKETS = (
    ((14.0, 14.0, 26.0, 26.0), 30.0),
    ((54.0, 30.0, 66.0, 42.0), 30.0),
    ((94.0, 50.0, 106.0, 62.0), 30.0),
)


def test_09_die_fixture_corner_contrast():
    mesh = die_plate()
    tree = build_octree(mesh, max_depth=5)
    reach = tool_flexibility_field(mesh, tree, SubtractiveProfile())
    height = build_height_field(tree, AdditiveProfile())

    centers = np.array([n.center for n in tree.grey_leaves()])
    masks = []
    for (x0, y0, x1, y1), _depth in DIE_POCKETS:
        pts = np.array([(x0, y0), (x0, y1), (x1, y0), (x1, y1)])
        dxy = np.sqrt(((centers[:, None, :2] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        masks.append((dxy < 4.0) & (centers[:, 2] > 12.0) & (centers[:, 2] < 38.0))
    corner = np.logical_or.reduce(masks)
    assert corner.any()

    top_reach = reach.values >= np.quantile(reach.values, 0.9)
    top_height = height.values >= np.quantile(height.values, 0.9)
    reach_frac = float(top_reach[corner].mean())
    height_frac = float(top_height[corner].mean())
    per_pocket = [float(top_reach[m].mean()) for m in masks]

    ok = reach_frac >= 0.5 and min(per_pocket) >= 0.5 and height_frac <= 0.1
    verdict(
        9,
        ok,
        f"pocket-corner leaves in the machining top decile: {reach_frac:.2f} "
        f"(per pocket {[round(p, 2) for p in per_pocket]}); in the build-height "
        f"top decile: {height_frac:.2f}",
    )
