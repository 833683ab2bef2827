"""Difficulty indexes for machining a part out of stock.

Global indexes grade the whole part (fit in the workspace, chip volume,
material hardness, required finish); the local tool-reach field grades each
grey octree box by how deep a vertical mill must descend to machine it and
whether any available tool can get there without colliding with the part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMeshError,
    MeshMismatchError,
    NonPositiveRoughnessError,
    NotWatertightError,
    ProfileError,
)
from .fields import LocalIndexField, clamp01, fit_ratio, grey_field
from .mesh_io import TriMesh, as_metrics
from .spatial import Octree

_EPS_REL = 1e-6


@dataclass(frozen=True)
class SubtractiveProfile:
    """Capabilities of the milling setup used for grading.

    workspace:
        Machinable stock envelope (mm), any axis assignment allowed.
    tool_diameters:
        Available end-mill diameters (mm).
    max_aspect:
        Largest workable length-to-diameter ratio of a tool.
    hardness_limit_hb:
        Hardest material (Brinell) the setup can cut.
    roughness_best_um / roughness_coarse_um:
        Finest achievable and no-effort surface roughness (Ra, um).
    """

    workspace: tuple[float, float, float] = (800.0, 600.0, 500.0)
    tool_diameters: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0)
    max_aspect: float = 10.0
    hardness_limit_hb: float = 600.0
    roughness_best_um: float = 0.4
    roughness_coarse_um: float = 6.4

    def __post_init__(self):
        ws = tuple(float(v) for v in self.workspace)
        if len(ws) != 3 or any(not v > 0 for v in ws):
            raise ProfileError(f"workspace must be three positive extents, got {self.workspace!r}")
        tools = tuple(sorted(float(d) for d in self.tool_diameters))
        if not tools or any(not d > 0 for d in tools):
            raise ProfileError("tool_diameters must be a non-empty list of positive diameters")
        if not self.max_aspect > 1:
            raise ProfileError(
                f"max_aspect must exceed 1 (a tool shorter than its diameter cannot plunge), got {self.max_aspect!r}"
            )
        if not self.hardness_limit_hb > 0:
            raise ProfileError("hardness_limit_hb must be positive")
        if not 0 < self.roughness_best_um < self.roughness_coarse_um:
            raise ProfileError(
                "roughness bounds need 0 < best < coarse, got "
                f"best={self.roughness_best_um!r} coarse={self.roughness_coarse_um!r}"
            )
        object.__setattr__(self, "workspace", ws)
        object.__setattr__(self, "tool_diameters", tools)


def max_dimension_index(mesh, profile: SubtractiveProfile) -> float:
    """How close the part comes to exceeding the stock envelope (1 = does not fit)."""
    return clamp01(fit_ratio(as_metrics(mesh).extents, profile.workspace))


def chip_volume_index(mesh) -> float:
    """Fraction of the bounding stock that must be removed as chips."""
    m = as_metrics(mesh)
    if not m.watertight:
        raise NotWatertightError("chip volume needs a closed mesh with a trustworthy volume")
    if m.bbox_volume <= 0:
        raise DegenerateMeshError("flat bounding box: the mesh encloses no volume to machine")
    return clamp01((m.bbox_volume - abs(m.volume)) / m.bbox_volume)


def hardness_index(hardness_hb: float, profile: SubtractiveProfile) -> float:
    """Material hardness relative to the hardest the setup can cut."""
    if not hardness_hb > 0:
        raise ProfileError(f"hardness must be positive, got {hardness_hb!r}")
    return clamp01(hardness_hb / profile.hardness_limit_hb)


def roughness_index(required_ra_um: float, profile: SubtractiveProfile) -> float:
    """Difficulty of hitting the required finish, log-scaled between the
    no-effort roughness (0) and the finest the setup can do (1)."""
    if not required_ra_um > 0:
        raise NonPositiveRoughnessError(f"required Ra must be positive, got {required_ra_um!r}")
    coarse = profile.roughness_coarse_um
    best = profile.roughness_best_um
    if required_ra_um >= coarse:
        return 0.0
    if required_ra_um <= best:
        return 1.0
    return clamp01(math.log(coarse / required_ra_um) / math.log(coarse / best))


# ---------------------------------------------------------------------------
# Local tool-reach field


def tool_flexibility_field(
    mesh: TriMesh, octree: Octree, profile: SubtractiveProfile, workers: int = 1
) -> LocalIndexField:
    """Per-grey-leaf difficulty of reaching the box with a vertical end mill.

    For each grey leaf the required reach is the drop from the part's top
    plane to the leaf's top face.  Tools are tried largest first; a tool
    qualifies when five probe columns spread over its footprint (center plus
    four points at r/sqrt(2)) meet no part material between the leaf top and
    the part top.  The value is the reach of the largest qualifying tool in
    units of its allowed aspect ratio, clamped to 1; boxes no tool can reach
    from above score 1.

    ``workers`` is ignored: the probes run as batched array kernels in one
    thread, which measured faster than a thread pool.  It stays because the
    benchmark harness calls this function with ``workers=1`` to check that
    the value never depends on it.
    """
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    return grey_field("tool_flexibility", octree, _solve_leaves(mesh, octree, profile))


_PROBE_DIRS = np.array([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])


def _solve_leaves(mesh: TriMesh, octree: Octree, profile: SubtractiveProfile) -> np.ndarray:
    metrics = mesh.metrics
    part_top = metrics.bbox_max[2]
    eps = _EPS_REL * metrics.max_dimension

    g = octree.grey_index
    tops = octree.box_max[g, 2]
    centers = 0.5 * (octree.box_min[g, :2] + octree.box_max[g, :2])
    reach = part_top - tops

    def blocked(rows, diameter, dirs):
        """(len(rows), len(dirs)): probe columns ``dirs`` of the leaves ``rows`` blocked."""
        spread = diameter / (2.0 * math.sqrt(2.0))
        xy = centers[rows][:, None, :] + spread * _PROBE_DIRS[None, dirs, :]
        lo = np.repeat(tops[rows], len(dirs))
        hi = np.full(len(lo), part_top)
        return _columns_blocked(mesh, xy.reshape(-1, 2), lo, hi).reshape(len(rows), len(dirs))

    values = np.full(len(g), 1.0)  # unreachable until proven otherwise
    values[reach <= eps] = 0.0  # top-plane boxes need no descent
    tools = sorted(profile.tool_diameters, reverse=True)
    idx = np.flatnonzero(reach > eps)
    # The center probe's column and heights are the same for every tool:
    # cast it once.  A leaf it blocks no tool can reach, so it stays at 1.
    idx = idx[~blocked(idx, tools[0], [0])[:, 0]]
    for diameter in tools:
        if not len(idx):
            break
        free = ~blocked(idx, diameter, [1, 2, 3, 4]).any(axis=1)
        ok = idx[free]
        values[ok] = np.minimum(1.0, reach[ok] / diameter / profile.max_aspect)
        idx = idx[~free]
    return values


def _columns_blocked(mesh: TriMesh, xy: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """True where part material occupies any of the open column (lo, hi) at xy.

    Each column asks about three heights: just over ``lo``, just under ``hi``
    and the middle, in one :meth:`~manumap.mesh_io._ColumnGrid.crossings`
    call, which casts the columns at bitwise-equal xy (the probe columns of
    grey leaves stacked in one column) on one line.  The kernel's counts
    are exact, also on lines that run through an edge or along a wall, so
    every column is settled by that one cast, and a height's answer does
    not depend on what else its line or its cast asks.
    """
    eps = _EPS_REL * mesh.metrics.max_dimension
    heights = np.column_stack([lo + eps, hi - eps, 0.5 * (lo + hi)])
    n_lo, n_hi, n_mid = mesh._column_grid().crossings(xy, heights).T
    return (n_lo - n_hi > 0) | (n_mid % 2 == 1)
