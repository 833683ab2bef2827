import dataclasses

import pytest

from manumap.analysis import AnalysisParams, analyze_mesh
from manumap.errors import MeshMismatchError, ParameterError
from manumap.primitives import box_mesh, icosphere
from manumap.profiles import default_profiles
from manumap.spatial import build_octree

PARAMS = AnalysisParams(max_depth=3)


@pytest.fixture(scope="module")
def sphere():
    return icosphere(5.0, subdivisions=2)


@pytest.mark.parametrize("process", ["machining", "additive"])
def test_prebuilt_octree_of_another_mesh_is_refused(sphere, process):
    box_tree = build_octree(box_mesh((8.0, 8.0, 8.0)), max_depth=3)
    with pytest.raises(MeshMismatchError):
        analyze_mesh(sphere, process, default_profiles(), params=PARAMS, octree=box_tree)


@pytest.mark.parametrize("process", ["machining", "additive"])
@pytest.mark.parametrize(
    "other", [{"max_depth": 2}, {"margin": 0.05}, {"samples": 3}, {"seed": 1}]
)
def test_prebuilt_octree_built_with_other_settings_is_refused(sphere, process, other):
    tree = build_octree(sphere, **{"max_depth": 3, **other})
    with pytest.raises(ParameterError):
        analyze_mesh(sphere, process, default_profiles(), params=PARAMS, octree=tree)


@pytest.mark.parametrize("process", ["machining", "additive"])
def test_matching_prebuilt_octree_grades_as_a_fresh_build(sphere, process):
    tree = build_octree(sphere, max_depth=3)
    shared = analyze_mesh(sphere, process, default_profiles(), params=PARAMS, octree=tree)
    fresh = analyze_mesh(sphere, process, default_profiles(), params=PARAMS)
    assert shared.report == fresh.report


def test_report_params_list_every_field_that_is_set():
    bare = AnalysisParams()
    assert bare.to_dict() == {
        f.name: getattr(bare, f.name)
        for f in dataclasses.fields(AnalysisParams)
        if getattr(bare, f.name) is not None
    }
    full = AnalysisParams(material="steel-c45", required_ra_um=1.6)
    assert set(full.to_dict()) == {f.name for f in dataclasses.fields(AnalysisParams)}
