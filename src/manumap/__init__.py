"""manumap: grade how hard a part is to machine or to build additively.

A watertight mesh is decomposed into an octree of inside/outside/boundary
boxes; global indexes grade the whole part against a machine profile and
local fields grade each boundary box, all normalized to [0, 1].  Module
reports combine into assembly totals weighted by part volume, so one-piece
designs can be compared against modular redesigns.
"""

from .additive import (
    AdditiveProfile,
    build_height_field,
    platform_distance_field,
    skin_surface_index,
    volume_index,
)
from .aggregation import (
    AssemblyReport,
    ComparisonReport,
    IndexReport,
    LocalFieldSummary,
    build_assembly_report,
    compare_reports,
    max_rule_total,
    summarize_field,
    volume_weighted_mean,
    volume_weights,
    weighted_total,
)
from .analysis import (
    AnalysisParams,
    AnalysisResult,
    ModuleSpec,
    analyze_assembly,
    analyze_mesh,
)
from .errors import ManumapError
from .fields import LocalIndexField, clamp01, fit_ratio
from .machining import (
    SubtractiveProfile,
    chip_volume_index,
    hardness_index,
    roughness_index,
    tool_flexibility_field,
)
from .mesh_io import (
    MeshMetrics,
    PointClass,
    TriMesh,
    as_metrics,
    classify_points,
    load_mesh,
    point_in_mesh,
)
from .profiles import MachineProfiles, default_profiles, load_profiles
from .reporting import (
    SCHEMA_VERSION,
    ColorScale,
    emit_report,
    export_difficulty_map,
    load_report,
)
from .spatial import (
    OctantClass,
    OctantNode,
    Octree,
    build_octree,
    classify_box,
    refine,
)

__version__ = "0.1.0"

# machining.max_dimension_index and additive.max_dimension_index share a name
# on purpose (same rule, different capacity limits); import the module you need.
from . import additive, machining  # noqa: E402  (re-export for qualified access)

__all__ = [
    "AdditiveProfile",
    "AnalysisParams",
    "AnalysisResult",
    "AssemblyReport",
    "ColorScale",
    "ComparisonReport",
    "IndexReport",
    "LocalFieldSummary",
    "LocalIndexField",
    "MachineProfiles",
    "ManumapError",
    "MeshMetrics",
    "ModuleSpec",
    "OctantClass",
    "OctantNode",
    "Octree",
    "PointClass",
    "SCHEMA_VERSION",
    "SubtractiveProfile",
    "TriMesh",
    "additive",
    "analyze_assembly",
    "analyze_mesh",
    "as_metrics",
    "build_assembly_report",
    "build_height_field",
    "build_octree",
    "chip_volume_index",
    "clamp01",
    "classify_box",
    "classify_points",
    "compare_reports",
    "default_profiles",
    "emit_report",
    "export_difficulty_map",
    "fit_ratio",
    "hardness_index",
    "load_mesh",
    "load_profiles",
    "load_report",
    "machining",
    "max_rule_total",
    "platform_distance_field",
    "point_in_mesh",
    "refine",
    "roughness_index",
    "skin_surface_index",
    "summarize_field",
    "tool_flexibility_field",
    "volume_index",
    "volume_weighted_mean",
    "volume_weights",
    "weighted_total",
]
