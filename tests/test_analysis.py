import dataclasses
import json

import numpy as np
import pytest

from manumap import analysis, machining
from manumap.analysis import AnalysisParams, ModuleSpec, analyze_assembly, analyze_mesh
from manumap.errors import DepthRangeError, MeshMismatchError, ParameterError
from manumap.mesh_io import TriMesh
from manumap.primitives import box_mesh, icosphere, slab_with_pockets
from manumap.profiles import default_profiles
from manumap.reporting import emit_report
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
    "other", [{"max_depth": 2}, {"margin": 0.05}, {"max_depth": 4}, {"margin": 0.0}]
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


@pytest.mark.parametrize(
    "settings, error",
    [
        ({"max_depth": 2.5}, DepthRangeError),
        ({"max_depth": True}, DepthRangeError),
        ({"max_depth": np.float64(3.0)}, DepthRangeError),
        ({"max_depth": "3"}, DepthRangeError),
        ({"margin": True}, ParameterError),
        ({"margin": "0.1"}, ParameterError),
        ({"max_depth": np.int64(3)}, None),
    ],
    ids=["depth-2.5", "depth-True", "depth-float64", "depth-str", "margin-True", "margin-str", "depth-int64"],
)
def test_build_params_of_another_type_are_refused(settings, error, sphere, tmp_path):
    """A depth that is not an integer, or a margin that is not a real
    number, is refused by AnalysisParams and build_octree alike, a bool
    being neither; a numpy integer depth is kept as a Python int, so a
    report graded at it writes plain JSON numbers."""
    if error is not None:
        with pytest.raises(error):
            AnalysisParams(**settings)
        with pytest.raises(error):
            build_octree(sphere, **settings)
        return
    params = AnalysisParams(**settings)
    assert (type(params.max_depth), type(params.margin)) == (int, float)
    result = analyze_mesh(sphere, "machining", default_profiles(), params=params)
    assert type(result.octree.max_depth) is int
    text = emit_report(result.report, tmp_path / "part.json").read_text()
    assert text.count('"max_depth":3') == 2  # the params and the octree fingerprint


def test_assembly_grades_each_distinct_module_once(sphere, monkeypatch):
    copy = TriMesh(sphere.vertices.copy(), sphere.triangles.copy())
    order = np.random.default_rng(0).permutation(sphere.num_triangles)
    permuted = TriMesh(sphere.vertices, sphere.triangles[order])
    assert copy.content_hash() == sphere.content_hash() != permuted.content_hash()
    specs = [
        ModuleSpec("same_a", sphere, "machining"),
        ModuleSpec("same_b", sphere, "machining"),  # the same TriMesh object
        ModuleSpec("copy", copy, "machining"),  # equal content, other arrays
        ModuleSpec("permuted", permuted, "machining"),  # triangle order differs
        ModuleSpec("printed", sphere, "additive"),  # same mesh, other process
    ]
    alone = {
        s.module_id: analyze_mesh(s.mesh, s.process, default_profiles(), PARAMS, s.module_id)
        for s in specs
    }

    built, reached = [], []

    def spy(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(analysis, "build_octree", spy(built, analysis.build_octree))
    monkeypatch.setattr(
        machining, "tool_flexibility_field", spy(reached, machining.tool_flexibility_field)
    )
    _, results = analyze_assembly("asm", specs, default_profiles(), params=PARAMS)

    assert list(results) == [s.module_id for s in specs]
    for s in specs:
        assert results[s.module_id].report == alone[s.module_id].report, s.module_id
        assert results[s.module_id].mesh is s.mesh
    # one build and one tool reach per distinct (content, process)
    assert sorted(args[0].content_hash() for args in built) == sorted(
        [sphere.content_hash(), sphere.content_hash(), permuted.content_hash()]
    )
    assert [args[0].content_hash() for args in reached] == [
        sphere.content_hash(), permuted.content_hash()
    ]
    tree = results["same_a"].octree
    assert all(results[m].octree is tree for m in ("same_b", "copy"))
    assert results["permuted"].octree is not tree


@pytest.mark.parametrize("process", ["machining", "additive"])
@pytest.mark.parametrize("case", ["block-4", "sphere-0"])
def test_triangle_order_changes_no_report_but_mesh_hash(case, process):
    """The mesh's volume and surface area are exactly rounded sums, so a
    report of the triangles in another order differs only in ``mesh_hash``.
    With numpy's pairwise sums, the block at permutation seed 4 moved
    ``part_volume`` in its last bit, and the sphere at seed 0 its area."""
    name, seed = case.split("-")
    mesh = {
        "block": slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)]),
        "sphere": icosphere(10.0, subdivisions=3),
    }[name]
    order = np.random.default_rng(int(seed)).permutation(mesh.num_triangles)
    permuted = TriMesh(mesh.vertices, mesh.triangles[order])
    assert permuted.metrics == mesh.metrics
    docs = [
        analyze_mesh(m, process, default_profiles(), params=PARAMS).report.to_dict()
        for m in (mesh, permuted)
    ]
    differ = sorted(k for k in docs[0] if json.dumps(docs[0][k]) != json.dumps(docs[1][k]))
    assert differ == ["mesh_hash"]
