"""Grade a die-like plate under machining and additive processes.

A 120 x 80 x 40 mm slab with three deep square pockets stands in for a
forming die.  Both processes are graded over one shared octree; the script
exports the reach-difficulty and build-height maps and prints how strongly
each map singles out the pocket corners, the classic hard-to-mill zones.

    python3 scripts/run_die_scenario.py --out out/die
"""

import argparse
from pathlib import Path

import numpy as np

from manumap.analysis import AnalysisParams, analyze_mesh
from manumap.primitives import slab_with_pockets
from manumap.profiles import default_profiles
from manumap.reporting import emit_report, export_difficulty_map
from manumap.spatial import build_octree

EXTENTS = (120.0, 80.0, 40.0)
POCKETS = [
    ((14.0, 14.0, 26.0, 26.0), 30.0),
    ((54.0, 30.0, 66.0, 42.0), 30.0),
    ((94.0, 50.0, 106.0, 62.0), 30.0),
]


def corner_share_of_top_decile(octree, field) -> float:
    """Fraction of pocket-corner leaves that land in the field's top decile."""
    centers = np.array([n.center for n in octree.grey_leaves()])
    corners = np.array(
        [(x, y) for (x0, y0, x1, y1), _ in POCKETS for (x, y) in ((x0, y0), (x0, y1), (x1, y0), (x1, y1))]
    )
    dxy = np.sqrt(((centers[:, None, :2] - corners[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    corner = (dxy < 4.0) & (centers[:, 2] > 12.0) & (centers[:, 2] < 38.0)
    top = field.values >= np.quantile(field.values, 0.9)
    return float(top[corner].mean())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=5, help="octree depth")
    ap.add_argument("--out", default="out/die", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    mesh = slab_with_pockets(EXTENTS, POCKETS)
    profiles = default_profiles()
    params = AnalysisParams(max_depth=args.depth)
    octree = build_octree(mesh, **params.octree_params())

    for process, index_id in [("machining", "tool_flexibility"), ("additive", "build_height")]:
        res = analyze_mesh(mesh, process, profiles, params=params, design_id="die", octree=octree)
        emit_report(res.report, out / f"die.{process}.report.json")
        for fmt in ("ply", "vtk"):
            export_difficulty_map(
                mesh, octree, res.fields[index_id], out / f"die.{process}.{index_id}.{fmt}"
            )
        print(f"{process}:")
        for key, val in res.report.scalar_metrics().items():
            print(f"  {key:<40} {val:.4f}")
        share = corner_share_of_top_decile(octree, res.fields[index_id])
        print(f"  pocket-corner leaves in the {index_id} top decile: {share:.2f}\n")
    print(f"reports and maps in {out}/")


if __name__ == "__main__":
    main()
