"""Benchmark workloads: seeded fixture STL files and the CLI commands of one job.

A workload's seed permutes the triangle order of every fixture before it is
written as binary STL.  Reordering triangles leaves the geometry and the
octree leaf counts unchanged, so each seed gives a different input file with
the same amount of work.  The seed is also passed to the program as --seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from manumap.mesh_io import TriMesh
from manumap.primitives import icosphere, slab_with_pockets, write_binary_stl

# The modular-split demo part: an 80 x 80 x 60 mm block with a 12 x 12 mm
# pocket 50 mm deep, and the two 30 mm slabs it splits into.
POCKET_RECT = (34.0, 34.0, 46.0, 46.0)


def _one_piece() -> TriMesh:
    return slab_with_pockets((80.0, 80.0, 60.0), [(POCKET_RECT, 50.0)])


def _half_slab() -> TriMesh:
    return slab_with_pockets((80.0, 80.0, 30.0), [(POCKET_RECT, 20.0)])


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: dict[str, Callable[[], TriMesh]]
    # commands(fixture_dir, out_dir, opts) -> the job's argv lists, where
    # opts (--seed, --workers) go to every grading command
    commands: Callable[[Path, Path, list[str]], list[list[str]]]


def _sphere_both(fx: Path, out: Path, opts: list[str]) -> list[list[str]]:
    return [
        ["analyze", str(fx / "sphere.stl"), "--process", "both", "--depth", "6",
         "--format", "vtk", "--out", str(out), *opts],
    ]


def _split_redesign(fx: Path, out: Path, opts: list[str]) -> list[list[str]]:
    half = str(fx / "half.stl")
    return [
        ["analyze", str(fx / "one.stl"), "--design-id", "one-piece", "--depth", "5",
         "--out", str(out), *opts],
        ["analyze-assembly", f"lower={half}", f"upper={half}", "--design-id", "split",
         "--depth", "5", "--out", str(out), *opts],
        ["compare", str(out / "one-piece.machining.report.json"),
         str(out / "split.assembly.report.json"), "--out", str(out)],
    ]


def _dense_additive(fx: Path, out: Path, opts: list[str]) -> list[list[str]]:
    return [
        ["analyze", str(fx / "dense.stl"), "--process", "additive", "--depth", "5",
         "--out", str(out), *opts],
    ]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-both", {"sphere.stl": lambda: icosphere(10.0, 4)}, _sphere_both),
        Workload(
            "split-redesign", {"one.stl": _one_piece, "half.stl": _half_slab}, _split_redesign
        ),
        Workload("dense-additive", {"dense.stl": lambda: icosphere(10.0, 6)}, _dense_additive),
    )
}


def permuted(mesh: TriMesh, rng: np.random.Generator) -> TriMesh:
    """The same mesh with its triangles in a random order."""
    return TriMesh(mesh.vertices, mesh.triangles[rng.permutation(mesh.num_triangles)])


def write_fixtures(workload: Workload, seed: int, fixture_dir: Path) -> dict[str, dict]:
    """Build, permute and write the workload's STL files; return counts and digests."""
    fixture_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    info = {}
    for name, make in workload.fixtures.items():
        mesh = permuted(make(), rng)
        path = fixture_dir / name
        write_binary_stl(mesh, path)
        info[name] = {
            "triangles": mesh.num_triangles,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    return info
