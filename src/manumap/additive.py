"""Difficulty indexes for building a part by powder-bed additive manufacturing.

Global indexes grade the part against the machine envelope (fit, consumed
volume, skin surface to fuse); the local fields grade each grey octree box
by its height above the platform and by its lateral distance from the
platform center, both of which drive build time and recoating risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotWatertightError, ParameterError, ProfileError
from .fields import LocalIndexField, clamp01, fit_ratio, grey_field
from .mesh_io import as_metrics
from .spatial import Octree

#: Leaf points that build_height_field measures a leaf's height at.
HEIGHT_REFERENCES = ("top", "centroid")


@dataclass(frozen=True)
class AdditiveProfile:
    """Capabilities of the additive machine used for grading.

    envelope:
        Build volume extents (mm); z is the build direction.
    platform_center:
        Optional platform center in machine xy.  When omitted the part is
        assumed centered, so its own bounding-box center is used.
    reference_area:
        Skin-surface normalization (mm^2); defaults to the total surface
        area of the envelope box.
    """

    envelope: tuple[float, float, float] = (400.0, 400.0, 400.0)
    platform_center: tuple[float, float] | None = None
    reference_area: float | None = None

    def __post_init__(self):
        env = tuple(float(v) for v in self.envelope)
        if len(env) != 3 or any(not v > 0 for v in env):
            raise ProfileError(f"envelope must be three positive extents, got {self.envelope!r}")
        object.__setattr__(self, "envelope", env)
        if self.platform_center is not None:
            pc = tuple(float(v) for v in self.platform_center)
            if len(pc) != 2:
                raise ProfileError("platform_center must be an xy pair")
            object.__setattr__(self, "platform_center", pc)
        if self.reference_area is not None and not self.reference_area > 0:
            raise ProfileError(f"reference_area must be positive, got {self.reference_area!r}")

    @property
    def envelope_volume(self) -> float:
        a, b, c = self.envelope
        return a * b * c

    @property
    def skin_reference(self) -> float:
        if self.reference_area is not None:
            return float(self.reference_area)
        a, b, c = self.envelope
        return 2.0 * (a * b + b * c + c * a)


def max_dimension_index(mesh, profile: AdditiveProfile) -> float:
    """How close the part comes to exceeding the build envelope (1 = does not fit)."""
    return clamp01(fit_ratio(as_metrics(mesh).extents, profile.envelope))


def volume_index(mesh, profile: AdditiveProfile) -> float:
    """Part volume as a fraction of the build volume."""
    m = as_metrics(mesh)
    if not m.watertight:
        raise NotWatertightError("volume grading needs a closed mesh")
    return clamp01(abs(m.volume) / profile.envelope_volume)


def skin_surface_index(mesh, profile: AdditiveProfile) -> float:
    """Surface to fuse relative to the profile's reference skin area."""
    m = as_metrics(mesh)
    if not m.watertight:
        raise NotWatertightError("an open mesh has no well-defined skin to fuse")
    return clamp01(m.surface_area / profile.skin_reference)


# ---------------------------------------------------------------------------
# Local fields


def build_height_field(
    octree: Octree, profile: AdditiveProfile, reference: str = "top"
) -> LocalIndexField:
    """Per-grey-leaf height above the part's bottom plane, in envelope-z units.

    The part is assumed to sit directly on the platform.  ``reference``
    picks the leaf's top face ("top", the default: material anywhere in the
    box must be recoated up to its top) or its centroid ("centroid").
    """
    if reference not in HEIGHT_REFERENCES:
        choices = " or ".join(map(repr, HEIGHT_REFERENCES))
        raise ParameterError(f"reference must be {choices}, got {reference!r}")
    g = octree.grey_index
    bottom = octree.mesh_bbox_min[2]
    env_z = profile.envelope[2]
    if reference == "top":
        zs = octree.box_max[g, 2]
    else:
        zs = 0.5 * (octree.box_min[g, 2] + octree.box_max[g, 2])
    values = np.clip((zs - bottom) / env_z, 0.0, 1.0)
    return grey_field("build_height", octree, values)


def platform_distance_field(octree: Octree, profile: AdditiveProfile) -> LocalIndexField:
    """Per-grey-leaf lateral distance from the platform center.

    Normalized by the platform's half diagonal, so a part flush with the
    envelope corner grades 1.  With no explicit platform_center the part's
    bounding-box center is taken as centered on the platform.
    """
    if profile.platform_center is not None:
        cx, cy = profile.platform_center
    else:
        cx = 0.5 * (octree.mesh_bbox_min[0] + octree.mesh_bbox_max[0])
        cy = 0.5 * (octree.mesh_bbox_min[1] + octree.mesh_bbox_max[1])
    half_diag = 0.5 * math.hypot(profile.envelope[0], profile.envelope[1])
    g = octree.grey_index
    centers = 0.5 * (octree.box_min[g, :2] + octree.box_max[g, :2])
    dist = np.hypot(centers[:, 0] - cx, centers[:, 1] - cy)
    values = np.clip(dist / half_diag, 0.0, 1.0)
    return grey_field("platform_distance", octree, values)
