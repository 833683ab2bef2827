"""Compare a one-piece pocket block against a two-module horizontal split.

The one-piece design is an 80 x 80 x 60 mm block with a 12 x 12 mm pocket
cut 50 mm deep; finishing its floor demands a slender tool at full reach.
Splitting the block at mid-pocket height yields two identical 30 mm slabs
with 20 mm pockets, each floor reachable with far less tool overhang.  The
script grades all three parts for machining, combines the modules by
volume, and prints the pocket-floor difficulty next to the usual
metric-by-metric comparison.

    python3 scripts/run_modular_split_demo.py --out out/modular_split
"""

import argparse
from pathlib import Path

import numpy as np

from manumap.aggregation import compare_reports
from manumap.analysis import AnalysisParams, ModuleSpec, analyze_assembly, analyze_mesh
from manumap.primitives import slab_with_pockets
from manumap.profiles import default_profiles
from manumap.reporting import emit_report, export_difficulty_map

POCKET_RECT = (34.0, 34.0, 46.0, 46.0)
FLOOR_Z = 10.0  # both the deep pocket and the half-depth pockets bottom out here


def pocket_floor_stats(result) -> tuple[float, float]:
    """(min, mean) reach difficulty over leaves straddling the pocket floor."""
    field = result.fields["tool_flexibility"]
    by_key = dict(zip(field.path_keys, field.values))
    x0, y0, x1, y1 = POCKET_RECT
    vals = [
        by_key[n.path_key]
        for n in result.octree.grey_leaves()
        if x0 < n.center[0] < x1
        and y0 < n.center[1] < y1
        and n.box_min[2] < FLOOR_Z < n.box_max[2]
    ]
    return min(vals), float(np.mean(vals))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=5, help="octree depth")
    ap.add_argument("--out", default="out/modular_split", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    profiles = default_profiles()
    params = AnalysisParams(max_depth=args.depth)

    one_piece = analyze_mesh(
        slab_with_pockets((80.0, 80.0, 60.0), [(POCKET_RECT, 50.0)]),
        "machining",
        profiles,
        params=params,
        design_id="one-piece",
    )
    emit_report(one_piece.report, out / "one-piece.report.json")
    export_difficulty_map(
        one_piece.mesh,
        one_piece.octree,
        one_piece.fields["tool_flexibility"],
        out / "one-piece.tool_flexibility.ply",
    )

    half = lambda: slab_with_pockets((80.0, 80.0, 30.0), [(POCKET_RECT, 20.0)])
    modules = [
        ModuleSpec("lower", half(), "machining"),
        ModuleSpec("upper", half(), "machining"),
    ]
    assembly, results = analyze_assembly("split", modules, profiles, params=params)
    emit_report(assembly, out / "split.assembly.report.json")
    for name, res in results.items():
        export_difficulty_map(
            res.mesh,
            res.octree,
            res.fields["tool_flexibility"],
            out / f"split.{name}.tool_flexibility.ply",
        )

    comparison = compare_reports(one_piece.report, assembly)
    emit_report(comparison, out / "one-piece_vs_split.comparison.csv")

    print(f"module weights  { {k: round(v, 3) for k, v in assembly.weights.items()} }")
    print("\npocket-floor reach difficulty (min / mean over floor leaves):")
    lo, mean = pocket_floor_stats(one_piece)
    print(f"  one-piece      {lo:.3f} / {mean:.3f}")
    for name in sorted(results):
        lo_m, mean_m = pocket_floor_stats(results[name])
        drop = 100.0 * (mean_m - mean) / mean
        print(f"  split {name:<8} {lo_m:.3f} / {mean_m:.3f}  ({drop:+.0f}% mean)")

    print(f"\n{'metric':<40} {'one-piece':>10} {'split':>10} {'change':>8}")
    for row in comparison.rows:
        pct = "n/a" if row["delta_pct"] is None else f"{row['delta_pct']:+.1f}%"
        print(
            f"{row['metric']:<40} {row['baseline']:>10.4f} {row['candidate']:>10.4f} {pct:>8}"
        )
    print(f"\nreports and maps in {out}/")


if __name__ == "__main__":
    main()
