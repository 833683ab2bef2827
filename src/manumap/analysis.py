"""End-to-end grading of meshes and assemblies."""

from __future__ import annotations

from dataclasses import dataclass

from . import additive as am
from . import machining as mc
from .aggregation import (
    AssemblyReport,
    IndexReport,
    build_assembly_report,
)
from .errors import ParameterError, ProfileError
from .fields import LocalIndexField
from .mesh_io import DEFAULT_SEED, TriMesh
from .profiles import MachineProfiles
from .spatial import (
    DEFAULT_MARGIN,
    DEFAULT_MAX_DEPTH,
    DEFAULT_SAMPLES,
    Octree,
    _check_build_params,
    build_octree,
)

PROCESSES = ("machining", "additive")


@dataclass(frozen=True)
class AnalysisParams:
    """Knobs shared by every analysis run."""

    max_depth: int = DEFAULT_MAX_DEPTH
    samples: int = DEFAULT_SAMPLES
    margin: float = DEFAULT_MARGIN
    seed: int = DEFAULT_SEED
    workers: int = 1
    material: str | None = None
    required_ra_um: float | None = None
    height_reference: str = "top"

    def __post_init__(self):
        _check_build_params(self.max_depth, self.margin, self.samples, self.seed)
        if self.workers < 1:
            raise ParameterError(f"workers must be at least 1, got {self.workers!r}")

    def to_dict(self) -> dict:
        out = {
            "max_depth": self.max_depth,
            "samples": self.samples,
            "margin": self.margin,
            "seed": self.seed,
            "height_reference": self.height_reference,
        }
        if self.material is not None:
            out["material"] = self.material
        if self.required_ra_um is not None:
            out["required_ra_um"] = self.required_ra_um
        return out


@dataclass(frozen=True)
class AnalysisResult:
    """Report plus the artifacts needed for maps and octree dumps."""

    report: IndexReport
    octree: Octree
    fields: dict[str, LocalIndexField]
    mesh: TriMesh


def analyze_mesh(
    mesh: TriMesh,
    process: str,
    profiles: MachineProfiles,
    params: AnalysisParams = AnalysisParams(),
    design_id: str = "part",
    octree: Octree | None = None,
) -> AnalysisResult:
    """Grade one watertight mesh under one process.

    Pass a prebuilt ``octree`` to share the decomposition between processes;
    it must have been built from the same mesh with the same parameters.
    """
    if process not in PROCESSES:
        raise ProfileError(f"unknown process {process!r}; expected one of {PROCESSES}")
    if octree is None:
        octree = build_octree(
            mesh,
            max_depth=params.max_depth,
            margin=params.margin,
            samples=params.samples,
            seed=params.seed,
        )

    fields: dict[str, LocalIndexField] = {}
    if process == "machining":
        prof = profiles.subtractive
        global_indexes = {
            "max_dimension": mc.max_dimension_index(mesh, prof),
            "chip_volume": mc.chip_volume_index(mesh),
        }
        if params.material is not None:
            hb = profiles.lookup_hardness(params.material)
            global_indexes["hardness"] = mc.hardness_index(hb, prof)
        if params.required_ra_um is not None:
            global_indexes["roughness"] = mc.roughness_index(params.required_ra_um, prof)
        fields["tool_flexibility"] = mc.tool_flexibility_field(
            mesh, octree, prof, workers=params.workers
        )
    else:
        prof = profiles.additive
        global_indexes = {
            "max_dimension": am.max_dimension_index(mesh, prof),
            "volume": am.volume_index(mesh, prof),
            "skin_surface": am.skin_surface_index(mesh, prof),
        }
        fields["build_height"] = am.build_height_field(
            octree, prof, reference=params.height_reference
        )
        fields["platform_distance"] = am.platform_distance_field(octree, prof)

    report = IndexReport(
        design_id=design_id,
        process=process,
        global_indexes=global_indexes,
        local_fields=dict(fields),
        mesh_hash=mesh.content_hash(),
        octree_fingerprint=octree.fingerprint(),
        params=params.to_dict(),
        part_volume=abs(mesh.metrics.volume),
    )
    return AnalysisResult(report=report, octree=octree, fields=fields, mesh=mesh)


@dataclass(frozen=True)
class ModuleSpec:
    """One module of an assembly: a mesh and the process meant to make it."""

    module_id: str
    mesh: TriMesh
    process: str


def analyze_assembly(
    design_id: str,
    modules: list[ModuleSpec],
    profiles: MachineProfiles,
    params: AnalysisParams = AnalysisParams(),
) -> tuple[AssemblyReport, dict[str, AnalysisResult]]:
    """Grade each module under its own process and combine by part volume."""
    if len({m.module_id for m in modules}) != len(modules):
        raise ProfileError("module ids must be unique")
    results: dict[str, AnalysisResult] = {}
    volumes: dict[str, float] = {}
    for spec in modules:
        res = analyze_mesh(
            spec.mesh, spec.process, profiles, params=params, design_id=spec.module_id
        )
        results[spec.module_id] = res
        volumes[spec.module_id] = abs(spec.mesh.metrics.volume)
    report = build_assembly_report(
        design_id,
        {name: res.report for name, res in results.items()},
        volumes,
    )
    return report, results
