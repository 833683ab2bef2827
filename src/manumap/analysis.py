"""End-to-end grading of meshes and assemblies."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from . import additive as am
from . import machining as mc
from .aggregation import (
    AssemblyReport,
    IndexReport,
    build_assembly_report,
)
from .errors import MeshMismatchError, ParameterError, ProfileError
from .fields import LocalIndexField
from .mesh_io import TriMesh
from .profiles import MachineProfiles
from .spatial import (
    DEFAULT_MARGIN,
    DEFAULT_MAX_DEPTH,
    Octree,
    _check_build_params,
    build_octree,
)

PROCESSES = ("machining", "additive")


@dataclass(frozen=True)
class AnalysisParams:
    """Knobs shared by every analysis run; a report's ``params`` lists each one set.

    Of the octree settings only ``max_depth`` and ``margin`` exist: nothing
    in a build is sampled or random, so no other setting could change it.
    They are kept as the Python ``int`` and ``float`` that the build's check
    returns, so a report writes them as JSON numbers.
    """

    max_depth: int = DEFAULT_MAX_DEPTH
    margin: float = DEFAULT_MARGIN
    material: str | None = None
    required_ra_um: float | None = None
    height_reference: str = "top"

    def __post_init__(self):
        depth, margin = _check_build_params(**self.octree_params())
        object.__setattr__(self, "max_depth", depth)
        object.__setattr__(self, "margin", margin)

    def octree_params(self) -> dict:
        """The build_octree keyword arguments these params ask for."""
        return {k: getattr(self, k) for k in ("max_depth", "margin")}

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class AnalysisResult:
    """Report plus the artifacts needed for maps and octree dumps."""

    report: IndexReport
    octree: Octree
    mesh: TriMesh

    @property
    def fields(self) -> dict[str, LocalIndexField]:
        """The report's local fields, by index id."""
        return self.report.local_fields


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
    it must have been built from the same mesh with the same parameters
    (``MeshMismatchError`` or ``ParameterError`` otherwise).
    """
    if process not in PROCESSES:
        raise ProfileError(f"unknown process {process!r}; expected one of {PROCESSES}")
    wanted = params.octree_params()
    if octree is None:
        octree = build_octree(mesh, **wanted)
    elif octree.mesh_hash != mesh.content_hash():
        raise MeshMismatchError("octree was built from a different mesh")
    else:
        built = {k: getattr(octree, k) for k in wanted}
        if built != wanted:
            raise ParameterError(f"octree was built with {built}, params ask for {wanted}")

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
        fields["tool_flexibility"] = mc.tool_flexibility_field(mesh, octree, prof)
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
        local_fields=fields,
        mesh_hash=mesh.content_hash(),
        octree_fingerprint=octree.fingerprint(),
        params=params.to_dict(),
        part_volume=abs(mesh.metrics.volume),
    )
    return AnalysisResult(report=report, octree=octree, mesh=mesh)


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
    """Grade each module under its own process and combine by part volume.

    A module's analysis depends only on its mesh content, process, profiles
    and params, so modules of equal ``content_hash()`` and process share one
    analysis: their reports differ only in ``design_id``.
    """
    if len({m.module_id for m in modules}) != len(modules):
        raise ProfileError("module ids must be unique")
    graded: dict[tuple[str, str], AnalysisResult] = {}
    results: dict[str, AnalysisResult] = {}
    volumes: dict[str, float] = {}
    for spec in modules:
        key = (spec.mesh.content_hash(), spec.process)
        first = graded.get(key)
        if first is None:
            first = graded[key] = analyze_mesh(
                spec.mesh, spec.process, profiles, params=params, design_id=spec.module_id
            )
        results[spec.module_id] = AnalysisResult(
            report=replace(first.report, design_id=spec.module_id),
            octree=first.octree,
            mesh=spec.mesh,
        )
        volumes[spec.module_id] = abs(spec.mesh.metrics.volume)
    report = build_assembly_report(
        design_id,
        {name: res.report for name, res in results.items()},
        volumes,
    )
    return report, results
