import inspect
from dataclasses import replace

import numpy as np
import pytest

from manumap import errors
from manumap.additive import AdditiveProfile, build_height_field, platform_distance_field
from manumap.errors import EmptyFieldError, ManumapError
from manumap.machining import SubtractiveProfile, tool_flexibility_field
from manumap.primitives import box_mesh
from manumap.spatial import build_octree

ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, ManumapError) and cls is not ManumapError
]


def test_every_error_carries_a_documented_exit_code():
    assert len(ERROR_CLASSES) >= 24
    for cls in ERROR_CLASSES:
        assert cls.exit_code in {1, 2, 3, 4, 5}, cls.__name__


def test_configuration_errors_are_value_errors():
    config = [cls for cls in ERROR_CLASSES if cls.exit_code == 2]
    assert errors.ProfileError in config and errors.ParameterError in config
    assert all(issubclass(cls, ValueError) for cls in config)


@pytest.mark.parametrize(
    "grade",
    [
        lambda mesh, tree: tool_flexibility_field(mesh, tree, SubtractiveProfile()),
        lambda mesh, tree: build_height_field(tree, AdditiveProfile()),
        lambda mesh, tree: platform_distance_field(tree, AdditiveProfile()),
    ],
    ids=["tool_flexibility", "build_height", "platform_distance"],
)
def test_field_without_grey_leaves_is_an_empty_field(grade):
    # a build always has grey leaves (the surface meets the root box), so the
    # tree's grey leaves are relabelled black by hand
    mesh = box_mesh((2.0, 2.0, 2.0))
    built = build_octree(mesh, max_depth=2, margin=0.0)
    tree = replace(built, class_code=np.zeros_like(built.class_code))
    assert len(tree.grey_index) == 0
    with pytest.raises(EmptyFieldError):
        grade(mesh, tree)
