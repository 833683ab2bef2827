"""Adaptive octree decomposition of a part.

The part's bounding box is cubified, inflated by a small margin and widened
where the cube rounds inside it, so that the root box holds the part, and
split recursively: boxes fully inside the part are black, fully outside are
white, and boxes the surface meets are grey and subdivided until
``max_depth``.  The grey boxes are found bottom up, from the triangles'
contacts with the cells of ``max_depth``: a box is grey when one of its
children is.  The contacts come from one pass: it lists each triangle's
candidate cells column by column along the axis of its normal's largest
component, so their number follows the contacts, not the triangles'
bounding boxes; a triangle within one cell's slab on two axes takes every
cell of its range.  A lone box (:func:`classify_box`) takes the column grid's
box query.  A box the surface misses is black or white by the exact parity
of its center's vertical line.
Grey terminal boxes get their exact solid volume by the divergence theorem
(:func:`_grey_volumes`): each triangle's part in a box is integrated in
closed form, and the grey boxes stacked in one xy column are swept top
down, each passing the part's cross-section area at its floor to the box
below.  Nothing is sampled and nothing is random, so every value is
reproducible and independent of how boxes are batched.  The tree is linear:
it keeps only its leaves, as arrays in Morton (z-curve) order.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateMeshError,
    DepthRangeError,
    MeshMismatchError,
    NotWatertightError,
    ParameterError,
)
from .mesh_io import TriMesh, _boxes_touch, _points_inside, _tri_box_overlap

DEFAULT_MAX_DEPTH = 5
DEFAULT_MARGIN = 0.01
#: Deepest octree a build or refine may ask for.
MAX_DEPTH_LIMIT = 10

_SAT_PAIR_BUDGET = 8_192  # columns and (cell, triangle) entries per window of the contact pass
_CLIP_PAIR_BUDGET = 16_384  # (triangle, box) pairs per chunk of the volume kernel
_CLIP_ENTRY_BUDGET = 65_536  # (constraint, line, pair) entries per call of _clipped_fans
_FINGERPRINT_ROW_BUDGET = 4_096  # leaf records per chunk of the fingerprint's hash input


class OctantClass(enum.Enum):
    BLACK = "black"  # fully inside the part
    WHITE = "white"  # fully outside
    GREY = "grey"  # crossed by the surface


#: Leaf class codes in ``Octree.class_code``, and the class each code stands for.
_BLACK, _WHITE, _GREY = 0, 1, 2
_CLASSES = (OctantClass.BLACK, OctantClass.WHITE, OctantClass.GREY)

#: One leaf of the fingerprint's hash input: depth, box corners, class name
#: (5 bytes, of which "grey" uses 4), part volume; packed, little-endian.
_FINGERPRINT_RECORD = np.dtype(
    [("depth", "<i4"), ("box", "<f8", (6,)), ("class", "S5"), ("volume", "<f8")]
)
_CLASS_NAMES = np.array([c.value.encode() for c in _CLASSES], dtype="S5")


@dataclass(frozen=True, eq=False, slots=True)
class OctantNode:
    """One leaf box of an :class:`Octree`: a read-only record of one row of its arrays."""

    box_min: np.ndarray
    box_max: np.ndarray
    depth: int
    octant_class: OctantClass
    path_key: int
    part_volume: float

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.box_min + self.box_max)

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.box_max - self.box_min))


#: The leaf columns of an :class:`Octree`; a tuple of leaf arrays comes in this order.
_LEAF_COLUMNS = ("path_key", "depth", "class_code", "box_min", "box_max", "part_volume")


@dataclass(eq=False, repr=False)
class Octree:
    """Result of :func:`build_octree`: a linear octree, its leaves as arrays.

    Row i of ``path_key``, ``depth``, ``class_code``, ``box_min``,
    ``box_max`` and ``part_volume`` describes leaf i, and the rows are in
    Morton (z-curve) order.  The boxes are the ones the subdivision computes
    (``mid = 0.5 * (lo + hi)``, :func:`_split_planes`), not re-derived from
    the key, which would round differently.  ``grey_index`` lists the grey
    rows; every grey leaf sits at ``max_depth``.  Grey leaf g keeps the
    triangles in contact with its box, ``grey_tri_ids[grey_tri_ptr[g]:
    grey_tri_ptr[g + 1]]``, in the sense of :func:`classify_box`: exactly
    those made it grey, and they are all the volume kernel needs.
    :func:`refine` starts from these lists.  All arrays are read-only.
    """

    path_key: np.ndarray  # (L,) int64: 1, then 3 bits (x + 2y + 4z) per level
    depth: np.ndarray  # (L,) int32
    class_code: np.ndarray  # (L,) int8, an index into _CLASSES
    box_min: np.ndarray  # (L, 3) float64
    box_max: np.ndarray  # (L, 3) float64
    part_volume: np.ndarray  # (L,) float64
    grey_tri_ptr: np.ndarray  # (G + 1,) offsets into grey_tri_ids
    grey_tri_ids: np.ndarray
    max_depth: int
    margin: float
    mesh_hash: str
    mesh_bbox_min: tuple[float, float, float]
    mesh_bbox_max: tuple[float, float, float]
    mesh_volume: float

    def __post_init__(self):
        for name in (*_LEAF_COLUMNS, "grey_tri_ptr", "grey_tri_ids"):
            getattr(self, name).setflags(write=False)
        self.grey_index = np.flatnonzero(self.class_code == _GREY)
        self.grey_index.setflags(write=False)
        self._leaves: list[OctantNode] | None = None
        self._greys: list[OctantNode] | None = None
        self._fingerprint: dict | None = None
        self._grey_columns_memo: tuple[np.ndarray, tuple[int, ...]] | None = None
        self._lookup: tuple[np.ndarray, np.ndarray] | None = None  # _locate's planes and keys

    def leaves(self) -> list[OctantNode]:
        """A record per leaf, in Morton order; one shared list, built on first use."""
        if self._leaves is None:
            self._leaves = [
                OctantNode(lo, hi, d, _CLASSES[c], k, v)
                for lo, hi, d, c, k, v in zip(
                    self.box_min,
                    self.box_max,
                    self.depth.tolist(),
                    self.class_code.tolist(),
                    self.path_key.tolist(),
                    self.part_volume.tolist(),
                )
            ]
        return self._leaves

    def grey_leaves(self) -> list[OctantNode]:
        """The grey leaves' records in Morton order; one shared list, not to be mutated."""
        if self._greys is None:
            leaves = self.leaves()
            self._greys = [leaves[i] for i in self.grey_index.tolist()]
        return self._greys

    def _grey_columns(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The grey leaves' part volumes, read-only, and path-key tuple: one
        pair, built on first use, that every field of the octree holds."""
        if self._grey_columns_memo is None:
            volumes = self.part_volume[self.grey_index]
            volumes.setflags(write=False)
            self._grey_columns_memo = volumes, tuple(self.path_key[self.grey_index].tolist())
        return self._grey_columns_memo

    def total_part_volume(self) -> float:
        return math.fsum(self.part_volume.tolist())

    def find_leaves(self, points) -> np.ndarray:
        """Index of the leaf containing each of the (N, 3) ``points``, -1 outside the root or at a NaN.

        Boxes are half-open, (lo, hi], by the tie rule of contact
        (:func:`classify_box`): at every level a point goes to the upper
        child on an axis where ``p > mid``, with ``mid = 0.5 * (lo + hi)`` of
        the box it is in, so a point on a split plane lands in the box below
        it, the one a face on that plane meets.  The root box itself is
        closed, so points on its min faces still find a leaf.  Each point
        takes that descent's answer in two searches (:func:`_locate`): for
        its max-depth cell among the split planes, then for the cell's leaf
        among the leaves' Morton keys.
        """
        if self._lookup is None:
            # Morton order starts with the all-lower corner leaf and ends with the all-upper one
            planes = _split_planes(self.box_min[0], self.box_max[-1], self.max_depth)
            self._lookup = planes, _morton_keys(self.path_key, self.depth, self.max_depth)
        return _locate(*self._lookup, points)

    def dump_lines(self):
        """The leaf dump: one JSON object per leaf, in Morton order, one line each."""
        for depth, lo, hi, code, volume in zip(
            self.depth.tolist(),
            self.box_min.tolist(),
            self.box_max.tolist(),
            self.class_code.tolist(),
            self.part_volume.tolist(),
        ):
            record = {
                "depth": depth,
                "box_min": lo,
                "box_max": hi,
                "class": _CLASSES[code].value,
                "part_volume": volume,
            }
            yield json.dumps(record, sort_keys=True) + "\n"

    def fingerprint(self) -> dict:
        """Stable identity of the decomposition: depth, leaf count, content hash.

        The hash runs over one record per leaf in Morton order: depth as
        int32, box_min and box_max as float64, the class name in ASCII and
        the part volume as float64.  The records are built and hashed
        ``_FINGERPRINT_ROW_BUDGET`` leaves at a time, so the memory it takes
        does not grow with the tree.
        """
        if self._fingerprint is None:
            n = len(self.path_key)
            digest = hashlib.sha256()
            blank = _FINGERPRINT_RECORD.fields["class"][1] + 4  # the pad byte of "grey"
            for start in range(0, n, _FINGERPRINT_ROW_BUDGET):
                rows = slice(start, min(start + _FINGERPRINT_ROW_BUDGET, n))
                rec = np.empty(rows.stop - start, dtype=_FINGERPRINT_RECORD)
                rec["depth"] = self.depth[rows]
                rec["box"][:, :3] = self.box_min[rows]
                rec["box"][:, 3:] = self.box_max[rows]
                rec["class"] = _CLASS_NAMES[self.class_code[rows]]
                rec["volume"] = self.part_volume[rows]
                raw = rec.view(np.uint8).reshape(len(rec), -1)
                keep = np.ones(raw.shape, dtype=bool)
                keep[self.class_code[rows] == _GREY, blank] = False
                digest.update(raw[keep])
            self._fingerprint = {
                "max_depth": self.max_depth,
                "leaf_count": n,
                "content_hash": digest.hexdigest(),
            }
        return self._fingerprint


def _morton_keys(key: np.ndarray, level: np.ndarray, max_depth: int) -> np.ndarray:
    """Left-aligned keys of the nodes with path keys ``key`` at depths ``level``:
    without the leading 1, padded to ``max_depth`` levels, so each is the
    key of the node's first max-depth cell.  A linear octree's leaves sort by it."""
    shift = 3 * level.astype(np.int64)
    return (key ^ (1 << shift)) << (3 * max_depth - shift)


def _locate(planes: np.ndarray, morton: np.ndarray, points) -> np.ndarray:
    """:meth:`Octree.find_leaves` over leaves with the ascending keys ``morton``
    (:func:`_morton_keys`) in the root box split by ``planes`` (:func:`_split_planes`).

    On each axis a point's max-depth cell is the one of the contact rule,
    (lo, hi], ``searchsorted(planes[a], p, "left") - 1`` as
    :func:`_cells_below` gives it for a triangle's bounds, clipped to the
    first cell on the root's lower face: every plane is bitwise the
    ``mid`` of the boxes around it, so this is the descent's ``p > mid``
    at every level.  The point's leaf is the last one whose key is at most
    its cell's (Gargantini, 1982).  Points outside the root or with a NaN
    search from the root's lower corner, and get -1.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3).T
    inside = ((planes[:, :1] <= p) & (p <= planes[:, -1:])).all(axis=0)
    p = np.where(inside, p, planes[:, :1])
    cell = 0
    for a in range(3):
        cell |= _SPREAD.take(np.clip(np.searchsorted(planes[a], p[a], "left") - 1, 0, planes.shape[1] - 2)) << a
    return np.where(inside, np.searchsorted(morton, cell, "right") - 1, -1)


# ---------------------------------------------------------------------------
# Classification


def classify_box(mesh: TriMesh, box_min, box_max) -> OctantClass:
    """Classify one axis-aligned box against a watertight mesh.

    Grey means a triangle is in contact with the box displaced by a symbolic
    (e, e**2, e**3), e -> 0+ (:func:`_tri_box_overlap`), as the octree's
    contact pass decides it: a face on one of the box's planes counts for
    the box below, left of or in front of that plane, never for both; the
    boundary band's box query (:func:`mesh_io._boxes_touch`) decides it.  A
    box the surface misses is black or white by its center point, whose
    answer then holds for the whole open box.  The center is ``0.5 * lo +
    0.5 * hi``, which no finite bounds overflow; it has the bits of ``0.5 *
    (lo + hi)`` wherever that sum does not overflow and no half is
    subnormal, for halving is then exact.
    """
    if not mesh.metrics.watertight:
        raise NotWatertightError("box classification needs a watertight mesh")
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    if not ((-np.inf < lo) & (lo < hi) & (hi < np.inf)).all():  # NaN fails every test
        raise ParameterError("box bounds must be finite, with box_max above box_min on every axis")
    if _boxes_touch(mesh, lo[None], hi[None])[0]:
        return OctantClass.GREY
    return OctantClass.BLACK if _points_inside(mesh, (0.5 * lo + 0.5 * hi)[None])[0] else OctantClass.WHITE


# ---------------------------------------------------------------------------
# Construction


def _check_build_params(max_depth: int, margin: float = DEFAULT_MARGIN) -> None:
    """Reject octree build parameters out of range; NaN fails every test.

    The one check behind build_octree, refine and AnalysisParams, so the CLI
    rejects a bad flag before it loads a mesh.
    """
    if not 1 <= max_depth <= MAX_DEPTH_LIMIT:
        raise DepthRangeError(f"max_depth must be in [1, {MAX_DEPTH_LIMIT}], got {max_depth!r}")
    if not 0 <= margin < np.inf:
        raise ParameterError(f"margin must be finite and non-negative, got {margin!r}")


def build_octree(
    mesh: TriMesh,
    max_depth: int = DEFAULT_MAX_DEPTH,
    margin: float = DEFAULT_MARGIN,
) -> Octree:
    """Decompose ``mesh`` into an octree of black/white/grey boxes.

    Parameters
    ----------
    max_depth:
        Subdivision levels below the root, in [1, 10].
    margin:
        Relative inflation of the cubified root box (0.01 = 1%).

    The root box is the cubified bounding box, inflated by ``margin`` and
    widened where it rounds inside the bounding box, so it holds the part.
    The leaves come from every triangle's contacts with the cells of
    ``max_depth`` (:func:`_grow`), grey ones with their exact solid volumes,
    up to rounding (:func:`_grey_volumes`).  An open mesh raises
    ``NotWatertightError``; a closed one whose bounding box has no volume
    (a flat sheet), or whose faces all lie on the root box's lower faces,
    raises ``DegenerateMeshError``.
    """
    metrics = mesh.metrics
    if not metrics.watertight:
        raise NotWatertightError("octree decomposition needs a watertight mesh")
    if metrics.bbox_volume <= 0:
        raise DegenerateMeshError("flat bounding box: the mesh encloses no volume to decompose")
    _check_build_params(max_depth, margin)

    bbox_min = np.array(metrics.bbox_min)
    bbox_max = np.array(metrics.bbox_max)
    center = 0.5 * (bbox_min + bbox_max)
    half = 0.5 * metrics.max_dimension * (1.0 + margin)
    lo, hi = np.minimum(center - half, bbox_min), np.maximum(center + half, bbox_max)
    m = mesh.num_triangles
    leaves, tri_ptr, tri_ids = _grow(
        mesh, (), (lo, hi), np.ones(1, dtype=np.int64), np.zeros(m, dtype=np.intp), np.arange(m), 0, max_depth
    )

    tree = Octree(
        *leaves,
        grey_tri_ptr=tri_ptr,
        grey_tri_ids=tri_ids,
        max_depth=max_depth,
        margin=margin,
        mesh_hash=mesh.content_hash(),
        mesh_bbox_min=metrics.bbox_min,
        mesh_bbox_max=metrics.bbox_max,
        mesh_volume=metrics.volume,
    )
    tree.fingerprint()  # every report carries it: hash the leaves as part of the build
    return tree


_CHILD_BITS = np.array(
    [[(c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1] for c in range(8)], dtype=bool
)
#: Bit b of a cell coordinate moved to bit 3 b: x, y and z of a path key.
_SPREAD = sum((np.arange(1 << MAX_DEPTH_LIMIT, dtype=np.int64) >> b & 1) << 3 * b
              for b in range(MAX_DEPTH_LIMIT))
#: A triangle's computed normal n = (B - A) x (C - A) is within 8 eps E**2
#: (1 + O(eps)) of the exact one, a quarter of this bound times E**2, for
#: eps = 2**-53 and E the largest component of the computed edges: each is
#: exact up to a factor 1 + eps, each component of n two rounded products
#: and a rounded difference.  It decides nothing; it widens :func:`_column_spans`.
_NORMAL_SPAN_ERRBOUND = 2.0**-47  # 64 eps


def _grow(
    mesh: TriMesh,
    done: tuple[tuple[np.ndarray, ...], ...],
    root: tuple[np.ndarray, np.ndarray],
    keys: np.ndarray,
    pair_node: np.ndarray,
    pair_tri: np.ndarray,
    depth: int,
    max_depth: int,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Subdivide grey nodes down to ``max_depth``; the finished leaves.

    The nodes at ``depth`` of the tree with root box ``root`` have path
    keys ``keys``, in Morton order, and the pairs hold every triangle in
    contact with a node's box (:func:`_tri_box_overlap`), and maybe others
    (a build pairs the root with every triangle); the leaves of ``done`` (as
    in :data:`_LEAF_COLUMNS`) are kept.  Returns all leaves in Morton
    order, with their part volumes, and the grey lists as a CSR (offsets,
    ascending triangle ids).

    The grey leaves come from the (cell, triangle) contacts at ``max_depth``
    (:func:`_contacts`); with none, no box meets the surface, and
    ``DegenerateMeshError`` is raised.  A box is grey exactly when one of
    its children is, for they tile it (:func:`_subdivide`).  The grey
    leaves take their volumes from :func:`_grey_volumes`.
    """
    planes = _split_planes(*root, max_depth)
    coords = np.zeros((3, len(keys)), dtype=np.int32)  # the nodes' cell coordinates, one row per axis
    for b in range(depth):
        coords |= ((keys >> 3 * b + np.arange(3)[:, None] & 1) << b).astype(np.int32)
    cell = np.sort(_contacts(mesh, planes, coords, pair_node, pair_tri, depth, max_depth))
    if not len(cell):
        raise DegenerateMeshError("no box meets the surface: its faces all lie on the root box's lower faces")
    tri_ids = cell & 0xFFFFFFFF
    cell >>= 32  # by cell, then triangle
    first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    tri_ptr = np.append(first, len(cell))
    cell = cell[first]  # the grey cells' path keys
    leaves = _subdivide(mesh, planes, done, coords, keys, cell, depth, max_depth)
    _grey_volumes(mesh, planes, leaves, tri_ptr, tri_ids)
    return leaves, tri_ptr, tri_ids


def _subdivide(mesh, planes, done, coords, keys, cell, depth, max_depth) -> tuple[np.ndarray, ...]:
    """:func:`_grow`'s leaves in Morton order, grey volumes NaN: those of
    ``done``, then each level's grey keys, the next one's shifted by 3 bits,
    down to the grey cells' path keys ``cell``.  The other children of grey
    nodes take their boxes from :func:`_split_planes` and their classes from
    one cast of their centers (:func:`_points_inside`), each answer
    independent of the batch.  A function of its own, so that its copies of
    the leaves are freed before the volume stage."""
    solid = []
    for level in range(depth + 1, max_depth + 1):
        up = cell >> 3 * (max_depth - level)
        grey = up[np.r_[True, up[1:] != up[:-1]]]  # the level's grey keys, ascending
        slot = 8 * (np.cumsum(np.r_[True, grey[1:] >> 3 != grey[:-1] >> 3]) - 1) + (grey & 7)
        coords = (2 * coords[:, :, None] + _CHILD_BITS.T[:, None, :]).reshape(3, -1)
        keys = (keys[:, None] << 3 | np.arange(8)).ravel()
        miss = np.bincount(slot, minlength=len(keys)) == 0
        box = _boxes(planes, coords[:, miss], 1 << max_depth - level)
        solid.append((keys[miss], np.full(len(box[0]), level, dtype=np.int32), *box))
        coords, keys = coords[:, slot], keys[slot]
    key, level, lo, hi = (np.concatenate(column) for column in zip(*solid))
    inside, size = _points_inside(mesh, 0.5 * (lo + hi)), hi - lo
    code, volume = np.where(inside, _BLACK, _WHITE).astype(np.int8), size[:, 0] * size[:, 1] * size[:, 2]
    n = len(keys)  # the grey leaves
    grey = (keys, np.full(n, max_depth, dtype=np.int32), np.full(n, _GREY, dtype=np.int8),
            *_boxes(planes, coords, 1), np.full(n, np.nan))
    black_white = (key, level, code, lo, hi, np.where(inside, volume, 0.0))
    key, level, *rest = (np.concatenate(column) for column in zip(*done, black_white, grey))
    order = np.argsort(_morton_keys(key, level, max_depth))
    return tuple(column[order] for column in (key, level, *rest))


def _split_planes(lo: np.ndarray, hi: np.ndarray, max_depth: int) -> np.ndarray:
    """(3, 2**max_depth + 1) split planes of the root box ``lo``/``hi``, one row per axis.

    Each is ``0.5 * (lo + hi)`` of the two around it, as a box splits, so a
    node at level k and cell i spans planes ``i << max_depth - k`` to ``i +
    1 << max_depth - k``, bit for bit.
    """
    planes = np.reshape([lo, hi], (2, 3)).T
    for _ in range(max_depth):
        mid = 0.5 * (planes[:, :-1] + planes[:, 1:])
        planes = np.insert(planes, np.arange(1, planes.shape[1]), mid, axis=1)
    return planes


def _boxes(planes: np.ndarray, cells: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi (N, 3) of the boxes ``step`` max-depth cells a side at cell coordinates ``cells`` (3, N)."""
    at = cells * step + (np.arange(3) * planes.shape[1])[:, None]
    return planes.take(at).T, planes.take(at + step).T


def _cells_below(planes: np.ndarray, t: np.ndarray, axis=np.arange(3)[:, None]) -> np.ndarray:
    """``searchsorted(planes[axis], t, "left") - 1`` elementwise, ``t`` and
    ``axis`` broadcast (by default a row of t per axis).  Of a triangle's
    bounds these are its cell range r0 to r1: cell j's slab keeps it (not
    ``tmax <= lo`` nor ``tmin > hi``, the contact kernel's box-normal rule)
    exactly when r0 <= j <= r1, and contains it exactly when r0 == j == r1.
    A floor estimate corrected against the planes (and a NaN below them,
    which no t passes) is faster than the search."""
    n = planes.shape[1] - 1
    padded = np.hstack([np.full((3, 1), np.nan), planes, np.full((3, 1), np.inf)]).ravel()
    base = axis * (n + 3) + 1  # planes[a, j] is padded[base + j]
    with np.errstate(divide="ignore"):
        scale = np.nan_to_num(n / (planes[:, -1] - planes[:, 0]), posinf=0.0)
    j = np.clip((t - planes[axis, 0]) * scale[axis], -1, n).astype(np.int64) + base
    while (down := padded.take(j) >= t).any():
        j -= down
    while (up := padded.take(j + 1) < t).any():
        j += up
    return j - base


def _contacts(mesh, planes, coords, pair_node, pair_tri, depth, max_depth) -> np.ndarray:
    """The (cell, triangle) contacts at ``max_depth`` as ``path key << 32 | triangle``, int64.

    ``coords`` holds the cell coordinates of :func:`_grow`'s nodes at
    ``depth`` in the root box split by ``planes``.  Every (node, triangle)
    pair goes straight to the cells of its node in its triangle's cell
    ranges (:func:`_cells_below`) that the triangle's plane reaches, column
    by column, or to all of them if the triangle is thin (:func:`_jump`).
    The root may pair with any triangle (its clamped ranges are at worst
    empty, ``last = first - 1``), a node below it only with those in
    contact with it: no range is ever negative.
    """
    r0, r1 = (_cells_below(planes, np.ascontiguousarray(t.T)).astype(np.int32) for t in mesh.tri_bounds())
    thin = (r0 == r1).sum(axis=0) >= 2
    step = 1 << max_depth - depth  # max-depth cells per node and axis
    first = coords.take(pair_node, axis=1) * step
    last = np.minimum(r1.take(pair_tri, axis=1), first + (step - 1))
    first = np.maximum(r0.take(pair_tri, axis=1), first, out=first)
    del r0, r1  # the pairs' copies are clamped: free the triangles' ranges before the jump
    found = _jump(mesh.tri_coords(), planes, thin, first, last, pair_tri, max_depth)
    return np.concatenate([np.zeros(0, dtype=np.int64), *found])


def _normals(tc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The computed normals (B - A) x (C - A), (3, N), of the triangles ABC
    of ``tc`` (N, 3, 3), and the largest component E of their edges, (N,)."""
    x = [[tc[:, k, a] for a in range(3)] for k in range(3)]  # vertex k, axis a: 1-D, faster than (N, 3)
    e1, e2 = ([x[k][a] - x[0][a] for a in range(3)] for k in (1, 2))
    e = np.maximum.reduce([np.abs(c) for c in (*e1, *e2)])
    return np.stack([e1[p] * e2[q] - e1[q] * e2[p] for p, q in ((1, 2), (2, 0), (0, 1))]), e


def _column_spans(tc: np.ndarray, planes: np.ndarray, i: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """(2, N): the least and greatest d of the plane of triangle ``tc[k]``
    (N, 3, 3) over max-depth column (``i[k]``, ``j[k]``) on the axes u, v
    after d, widened; d is the axis of the computed normal n's largest
    component.  Over the column's rectangle, clamped to the triangle's
    bounds, the plane rises from A_d (A the first vertex) by s_u X + s_v Y,
    X = x - A_u, Y = y - A_v, s = (-n_u / n_d, -n_v / n_d); at the corners.

    Let b = :data:`_NORMAL_SPAN_ERRBOUND` E**2.  Where |n_d| > b, the exact
    normal has |N_d| > 3 |n_d| / 4, so the triangle lies on the graph of
    its plane, and the slopes (at most 1 in size) are within eps + 2 b /
    (3 |n_d|) of the exact ones.  |X| and |Y| are at most the triangle's
    extent, 2 E (1 + O(eps)), so a computed (s_u X + s_v Y) + A_d is within
    eps |A_d| + 4 E (5 eps + 2 b / (3 |n_d|)) (1 + O(eps)) of the exact
    height, and widening it by w rounds by at most eps (|A_d| + 4 E + w)
    more.  As computed, w = 2**-51 |A_d| + E (2**-48 + 4 b / |n_d|)
    exceeds the sum, b / |n_d| being below 1: the widened span strictly
    holds the exact one.  A zero-area or needle triangle, |n_d| <= b, takes
    an infinite w, its whole range; no step divides by 0.
    """
    u, v = (d + 1) % 3, (d + 2) % 3
    n, e = _normals(tc)
    b = _NORMAL_SPAN_ERRBOUND * e * e
    nd = n[d]
    flat = ~(np.abs(nd) > b)
    nd[flat] = 1.0
    a = tc[:, 0]
    w = 2.0**-51 * np.abs(a[:, d]) + e * (2.0**-48 + 4 * (b / np.abs(nd)))
    w[flat] = np.inf
    ends = []
    for k, c in ((i, u), (j, v)):  # the rise's least and greatest term along u, then v
        x = [tc[:, 0, c], tc[:, 1, c], tc[:, 2, c]]
        x0 = np.maximum(planes[c].take(k), np.minimum(np.minimum(*x[:2]), x[2])) - a[:, c]
        x1 = np.minimum(planes[c].take(k + 1), np.maximum(np.maximum(*x[:2]), x[2])) - a[:, c]
        s = -n[c] / nd
        x0 *= s
        x1 *= s
        ends.append((np.minimum(x0, x1), np.maximum(x0, x1)))
    (ulo, uhi), (vlo, vhi) = ends
    return np.stack([ulo + vlo + a[:, d] - w, uhi + vhi + a[:, d] + w])


def _windows(n: np.ndarray, budget: int):
    """Each entry's item and rank in it (int32), in windows of at most
    ``budget`` entries, of items that hold ``n[i]`` entries each, in turn."""
    end = np.cumsum(n)
    for s in range(0, int(end[-1]) if len(end) else 0, budget):
        e = min(s + budget, int(end[-1]))
        i0, i1 = np.searchsorted(end, [s, e - 1], "right").tolist()
        start = end[i0 : i1 + 1] - n[i0 : i1 + 1]
        per = np.minimum(end[i0 : i1 + 1], e) - np.maximum(start, s)
        shift = (np.cumsum(per) - per - np.maximum(s - start, 0)).astype(np.int32)
        yield np.repeat(np.arange(i0, i1 + 1), per), np.arange(e - s, dtype=np.int32) - np.repeat(shift, per)


def _jump(tc, planes, thin, first, last, tri, max_depth) -> list[np.ndarray]:
    """The contacts, as in :func:`_contacts`, of triangle ``tri[p]`` and the
    max-depth cells from ``first[:, p]`` to ``last[:, p]`` on each axis.

    A ``thin`` triangle lies in one cell's slab on two axes or more, so
    inside those displaced slabs; it is connected and the third slab keeps
    it on every cell of its range, so it meets every cell of the pair's
    range box, and takes them all without a test.  The other pairs'
    candidates go column by column, as in conservative voxelization along
    the dominant axis (Schwarz and Seidel, "Fast parallel surface and
    solid voxelization on GPUs", 2010): each (u, v) column of the pair's
    cells keeps those on d that the triangle's plane reaches over it
    (:func:`_column_spans`), clamped to ``first`` and ``last``.  A contact's
    point lies in the closed cell, on the plane over the column, so every
    contact is a candidate, and each candidate goes to
    :func:`_tri_box_overlap`.  Thin pairs are picked and their cells listed
    in windows of :data:`_SAT_PAIR_BUDGET`; the others go by axis d, and
    their columns and candidates in windows too, so no triangle's are held
    whole.  d is computed for every triangle, since a build pairs each one
    with the root; a pair whose range is empty on some axis lists no cell,
    or no column, or no cell in its columns.
    """
    found = []
    thin = thin.take(tri)
    axis = np.empty(len(tc), dtype=np.int8)
    for s in range(0, len(tc), _SAT_PAIR_BUDGET):
        n = np.abs(_normals(tc[s : s + _SAT_PAIR_BUDGET])[0])
        axis[s : s + _SAT_PAIR_BUDGET] = np.where(n[2] > np.maximum(n[0], n[1]), 2, n[1] > n[0])  # argmax
    # a thin pair joins no group, every other pair one: no width is negative (_contacts)
    axis = np.where(thin, -1, axis.take(tri))
    for d in range(3):
        u, v = (d + 1) % 3, (d + 2) % 3
        sel = np.flatnonzero(axis == d)
        lo, hi, tri_d = first.take(sel, axis=1), last.take(sel, axis=1), tri.take(sel)
        rows = hi[v] - lo[v] + 1  # int32, as the ranks: int32 divmod is several times faster
        for pair, rank in _windows((hi[u] - lo[u] + 1) * rows, _SAT_PAIR_BUDGET):
            i, j = (x + lo[c].take(pair) for x, c in zip(np.divmod(rank, rows.take(pair)), (u, v)))
            t = tri_d.take(pair)
            z = _cells_below(planes, _column_spans(tc.take(t, axis=0), planes, i, j, d), d)
            z0 = np.maximum(z[0], lo[d].take(pair))
            count = np.minimum(z[1], hi[d].take(pair)) - z0 + 1
            for col, r in _windows(np.maximum(count, 0), _SAT_PAIR_BUDGET):
                cells = np.empty((3, len(col)), dtype=np.int64)
                cells[u], cells[v], cells[d] = i.take(col), j.take(col), z0.take(col) + r
                tt = t.take(col)
                hit = _tri_box_overlap(tc.take(tt, axis=0), *_boxes(planes, cells, 1))
                key = _SPREAD.take(cells[:, hit])
                found.append((key[0] | key[1] << 1 | key[2] << 2 | 1 << 3 * max_depth) << 32 | tt[hit])
    for s in range(0, len(tri), _SAT_PAIR_BUDGET):
        sel = s + np.flatnonzero(thin[s : s + _SAT_PAIR_BUDGET])
        lo = first.take(sel, axis=1)
        width = last.take(sel, axis=1) - lo + 1
        for pair, rank in _windows(width.prod(axis=0), _SAT_PAIR_BUDGET):
            yz, x = np.divmod(rank, width[0].take(pair))
            z, y = np.divmod(yz, width[1].take(pair))
            key = _SPREAD.take(lo.take(pair, axis=1) + np.stack([x, y, z]))
            found.append((key[0] | key[1] << 1 | key[2] << 2 | 1 << 3 * max_depth) << 32 | tri.take(sel[pair]))
    return found


#: Rows of the volume kernel's corner table (:func:`_pair_integrals`).
_TAB_A = slice(0, 3)  # the first vertex, A, in canonical rotation
_TAB_B, _TAB_C = slice(3, 6), slice(6, 9)  # B - A and C - A, ABC turning counterclockwise in xy
_TAB_AREA = 9  # (B - A) x (C - A) in xy
#: The corners in turn from each first one on, counterclockwise and then clockwise.
_TURNS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [2, 1, 0]])


def _turns(mesh: TriMesh) -> np.ndarray:
    """Each triangle's row of :data:`_TURNS`: its corners in canonical order.

    The first corner A is the lexicographically least (x, y, z) one, and B
    and C follow it counterclockwise in xy, by the exact sign of the
    projected area that the column grid keeps.  So a rotation of the
    corners changes no value computed from A, B and C.
    """
    x, y, z = np.moveaxis(mesh.tri_coords(), 2, 0)  # (M, 3) each

    def less(i, j):
        return (x[:, i] < x[:, j]) | (x[:, i] == x[:, j]) & (
            (y[:, i] < y[:, j]) | (y[:, i] == y[:, j]) & (z[:, i] < z[:, j])
        )

    first = np.where(less(2, 0) & less(2, 1), 2, less(1, 0).astype(np.int8))
    return (first + 3 * (mesh._column_grid()._side < 0)).astype(np.int8)


def _pair_integrals(
    mesh: TriMesh, tri: np.ndarray, box_of: np.ndarray, boxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(P1, Pz)`` of each pair of triangle ``tri[k]`` and box ``box_of[k]``.

    ``boxes`` holds the boxes' (lo, hi) corners, one row of 6 per box.
    Over the xy projection of the part of the triangle inside the box,
    ``P1`` integrates 1 and ``Pz`` the triangle's height above the box
    floor, both signed by the triangle's n_z (positive facing up): the
    exact sign of the column grid, but 0 where the rounded projected area
    is not positive, so a vertical triangle adds 0.  A horizontal one
    counts only at a height in ``(z0, z1]``: one on a box plane belongs to
    the box below it.

    Each chunk gathers its triangles' rows A, B - A, C - A and the doubled
    projected area (:data:`_TAB_A` and on), corners in canonical order
    (:func:`_turns`), and their bounds, the bits of
    :meth:`TriMesh.tri_bounds`.  A pair whose triangle no box plane cuts
    takes the whole triangle in closed form; the others go to
    :func:`_clipped_fans` in groups with equal numbers of cutting planes.
    Only a plane strictly inside the triangle's bounds cuts it, so no
    cutting plane holds an edge of it.  Pairs run in chunks of
    :data:`_CLIP_PAIR_BUDGET`, each reordered once by a stable sort on its
    number of cutting planes, so that each group is a slice of it, and a
    group in calls of at most :data:`_CLIP_ENTRY_BUDGET` entries.  Every
    value is a pair's own, so the order changes no bit.
    """
    tc, side, turns = mesh.tri_coords(), mesh._column_grid()._side, _turns(mesh)
    p1, pz = np.zeros(len(tri)), np.zeros(len(tri))
    for s in range(0, len(tri), _CLIP_PAIR_BUDGET):
        ids = tri[s : s + _CLIP_PAIR_BUDGET]
        box = boxes.take(box_of[s : s + _CLIP_PAIR_BUDGET], axis=0).T
        corner = _TURNS.take(turns.take(ids), axis=0) + 3 * ids[:, None]
        t = np.empty((10, len(ids)))
        t[:9] = tc.reshape(-1, 3).take(corner, axis=0).reshape(-1, 9).T
        a, b, c = t[_TAB_A], t[_TAB_B], t[_TAB_C]
        bmin, bmax = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        b -= a
        c -= a
        t[_TAB_AREA] = t[3] * t[7] - t[4] * t[6]
        sign = np.where(t[_TAB_AREA] > 0, side.take(ids), 0)
        blo, bhi = box[:3], box[3:]
        gone = (bmax[:2] <= blo[:2]).any(axis=0) | (bmin[:2] >= bhi[:2]).any(axis=0)
        gone |= (sign == 0) | (bmax[2] <= blo[2])
        gone |= np.where(bmin[2] == bmax[2], bmax[2] > bhi[2], bmin[2] >= bhi[2])
        # the planes x0, x1, y0, y1, z0, z1 that cut each triangle's bounds
        cuts = np.empty((6, len(ids)), dtype=bool)
        cuts[0::2] = (bmin < blo) & (blo < bmax)
        cuts[1::2] = (bmin < bhi) & (bhi < bmax)
        # each pair's number of cutting planes (int8, which sorts by radix), -1
        # where the pair adds nothing, and its cut flags (_CUT_BITS)
        count = np.where(gone, -1, cuts.sum(axis=0, dtype=np.int8))
        flags = cuts.T.astype(np.uint8) @ _CUT_BITS
        del corner, a, b, c, bmin, bmax, blo, bhi, gone, cuts  # the unsorted rows go with their views
        order = np.argsort(count, kind="stable")
        t, sign, box, count, flags = t[:, order], sign[order], box[:, order], count[order], flags[order]
        floor = t[2] - box[2]  # the height of A above the box floor
        q1, qz = np.zeros(len(ids)), np.zeros(len(ids))
        start = np.searchsorted(count, np.arange(max(count[-1], 0) + 2)).tolist()  # group n: start[n]:start[n + 1]
        whole = slice(start[0], start[1])
        area = t[_TAB_AREA, whole]
        q1[whole] = 0.5 * area
        qz[whole] = 0.5 * area * (floor[whole] + (t[5, whole] + t[8, whole]) / 3.0)
        for n in range(1, len(start) - 1):
            step = _CLIP_ENTRY_BUDGET // ((n + 1) * (n + 3))  # _clipped_fans' entries per pair
            for r in range(start[n], start[n + 1], step):
                rows = slice(r, min(r + step, start[n + 1]))
                q = _CUT_PLANES.take(flags[rows], axis=0)[:, :n].T
                q1[rows], qz[rows] = _clipped_fans(t[:, rows], floor[rows], box[:, rows], q)
        p1[s + order] = q1 * sign
        pz[s + order] = qz * sign
    return p1, pz


#: The planes that a set of cut flags names: flag bit q marks plane q of x0,
#: x1, y0, y1, z0, z1, and row ``flags`` lists the marked planes, ascending.
_CUT_BITS = np.uint8(1) << np.arange(6, dtype=np.uint8)
_CUT_PLANES = np.array([([q for q in range(6) if flags >> q & 1] + [0] * 6)[:6] for flags in range(64)])


def _clipped_fans(
    t: np.ndarray, floor: np.ndarray, box: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned ``(P1, Pz)`` of P pairs whose triangles are cut by n box planes each.

    ``t`` holds the triangles' rows of :data:`_TAB_A` and on, ``floor``
    A's height above the box floor, ``box`` the boxes' (6, P) rows, and
    ``q`` (n, P) the cutting planes of each pair, numbered x0, x1, y0, y1,
    z0, z1.  Each is the half-plane ``nx x + ny y + d >= 0`` in A's frame:
    a z plane is ``z0 <= z`` or ``z <= z1`` on the triangle's plane, times
    the doubled area, so its normal is the height gradient times that
    area.  By Green's theorem the projected area is a sum of fan triangles
    (A, p, q), one per outline segment pq; segments on edges AB and CA run
    through A and add nothing.  So only edge BC and the n cutting planes
    are outline lines, each clipped (Liang-Barsky) by the other n + 2
    half-planes.  A line's segment from ``p0 + t0 u`` to ``p0 + t1 u``,
    with ``p0`` the line's foot from A and ``u = (n_y, -n_x)``, spans the
    fan area ``d (t1 - t0) / 2``.  Of two parallel constraints facing one
    way, only the tighter one can carry a segment, the lower index when
    they coincide; two coincident ones facing opposite ways both carry it,
    so their fans cancel.

    No line is shut by itself, nor by its twin, the other plane of its
    axis, so neither takes the parallel test.  Twins face opposite ways,
    and their offsets add up to at least 0: ``fl(A - lo)`` is at least
    ``fl(A - hi)``, for lo < hi and rounding is monotone, and a z plane's
    offset is that difference times the positive doubled area, over the
    norm of its normal, both shared by the twins, so monotone in it too.
    Each bound is picked without a branch: constraint j bounds t from below
    by ``min(cut_t, inf)`` where det < 0, and from above by ``max(cut_t,
    -inf)`` where det > 0, one ``bound = copysign(inf, -det)`` serving
    both; where det is 0, cut_t is set to ``-bound``, so both are neutral.
    ``max`` and ``min`` only select, so t0 and t1 are the greatest lower
    and least upper bound, as a select of each side's bounds gives them,
    but where a NaN cut_t reaches the other one: a NaN upper bound makes t1
    NaN in both, a lower one t0, so the segment's span and midpoint are 0
    in both.  Coordinates below 1e60 in size keep every product here
    finite, det's included.
    """
    b, c, area = t[_TAB_B], t[_TAB_C], t[_TAB_AREA]
    n = len(q)
    axis, upper = q >> 1, q & 1
    sign = 1.0 - 2.0 * upper  # +1 on a lower plane, -1 on an upper one
    gx, gy = b[2] * c[1] - c[2] * b[1], c[2] * b[0] - b[2] * c[0]  # the height gradient times the doubled area
    z = axis == 2
    col = np.arange(len(floor))
    off = sign * (t[axis, col] - box[axis + 3 * upper, col])  # t's rows 0-2 are A
    zero = np.zeros(len(floor))
    # constraint rows: edges AB, BC and CA, then the cutting planes
    nx = np.concatenate([[-b[1], b[1] - c[1], c[1]], np.where(z, sign * gx, np.where(axis == 0, sign, 0.0))])
    ny = np.concatenate([[b[0], c[0] - b[0], -c[0]], np.where(z, sign * gy, np.where(axis == 1, sign, 0.0))])
    d = np.concatenate([[zero, area, zero], np.where(z, off * area, off)])
    del upper, sign, z, off  # freed before the (constraint, line, pair) entries
    lines = np.r_[1, 3 : 3 + n]  # the outline lines: BC and the planes
    lx, ly, ld = nx[lines], ny[lines], d[lines]
    norm = lx * lx + ly * ly
    foot = -ld / norm
    px, py = foot * lx, foot * ly  # p0, each line's foot from A
    ux, uy = ly, -lx
    # (constraint j, line i, P): the point where line i meets j's line, by
    # Cramer's rule, which gives (i, j) and (j, i) the same bits, so that
    # two lines hand the outline over at one point however ill-conditioned
    # their crossing; then its parameter t along u.  j bounds t from below
    # where n_i x n_j < 0 and from above where it is > 0.
    cx, cy, cd = nx[:, None], ny[:, None], d[:, None]
    det = lx * cy - ly * cx
    cut_t, other = cd * ly, ld * cx  # in place from here: each op rounds as in one expression
    cut_t -= ld * cy
    other -= cd * lx
    with np.errstate(divide="ignore", invalid="ignore"):
        cut_t /= det
        other /= det
        cut_t *= ux
        other *= uy
        cut_t += other
    cut_t /= norm
    bound = np.copysign(np.inf, det, out=other)
    np.negative(bound, out=bound)
    parallel = det == 0
    np.negative(bound, out=cut_t, where=parallel)
    parallel[lines, np.arange(n + 1)] = False  # a line never clips itself,
    for k in range(n - 1):  # nor its twin
        twin = axis[k] == axis[k + 1]
        parallel[3 + k, k + 2] &= ~twin
        parallel[4 + k, k + 1] &= ~twin
    j, i, p = np.unravel_index(np.flatnonzero(parallel), parallel.shape)
    # Parallel constraints, by their offsets d / |n|: of two facing one way,
    # the one with the greater offset is redundant, and of two equal ones
    # the higher index; two facing opposite ways leave an empty strip when
    # their offsets add up below 0.  Each test is antisymmetric, so exactly
    # one line of a same-facing pair carries the segment.
    off_j = d[j, p] / np.hypot(nx[j, p], ny[j, p])
    off_i = ld[i, p] / np.hypot(lx[i, p], ly[i, p])
    same = nx[j, p] * lx[i, p] + ny[j, p] * ly[i, p] > 0
    shut = np.where(same, (off_j < off_i) | (off_j == off_i) & (j < lines[i]), off_i + off_j < 0)
    out = np.zeros(det.shape[1:], dtype=bool)
    out[i[shut], p[shut]] = True
    t0 = np.minimum(cut_t, bound).max(axis=0)
    t1 = np.maximum(cut_t, bound, out=bound).min(axis=0)
    span = np.where(out | ~(t1 > t0), 0.0, t1 - t0)
    fan = 0.5 * ld * span
    mid = np.where(span > 0, t0 + t1, 0.0)  # twice the midpoint parameter
    # the height above the floor, averaged over the fan's three corners
    rise = (gx * (2.0 * px + mid * ux) + gy * (2.0 * py + mid * uy)) / area
    return fan.sum(axis=0), (fan * (floor + rise / 3.0)).sum(axis=0)


def _sorted_sum(group: np.ndarray, count: int, values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` per group 0..count - 1, each group's terms added
    one by one in ascending order, so that no reordering of the terms
    changes a bit: ``np.bincount`` adds in input order, here sorted by value."""
    o = np.argsort(values)
    return np.bincount(group[o], weights=values[o], minlength=count)


def _grey_volumes(mesh: TriMesh, planes: np.ndarray, leaves, tri_ptr: np.ndarray, tri_ids: np.ndarray) -> None:
    """Fill in the exact part volume of every grey leaf of ``leaves``, in place.

    ``leaves`` are :func:`_grow`'s leaf arrays as in :data:`_LEAF_COLUMNS`,
    in Morton order, in the root box split by ``planes``, and grey leaf g's
    triangles are ``tri_ids[tri_ptr[g]: tri_ptr[g + 1]]``: the triangles in
    contact with its box (:func:`classify_box`).  For a grey box
    R x [z0, z1] with h = z1 - z0, let A(z) be the area of the part's
    cross-section with R just above height z.  By the divergence theorem
    (:func:`_pair_integrals`)

        V = h A(z1) + sum Pz,    A(z0) = A(z1) + sum P1

    over the box's triangles.  The grey leaves stacked in one xy column
    (all at one depth, so with bitwise-equal x and y bounds, each one's z0
    bitwise the z1 of the one below) form runs, swept top down: each leaf's A(z1) is the A(z0)
    of the leaf above.  The top of a run reads its A(z1) off the leaf that
    holds the same-size box above it: black (R's area), or white or outside
    the root (0).  The lists hold every triangle that adds to a box's sums,
    for any triangle with part of its area in the box meets its interior;
    a horizontal face on a box plane counts for the box below, in the
    kernel as in the contact test.  The box above a run top meets no
    triangle, so its class holds for its whole interior and gives A(z1)
    exactly.  Each sum adds its terms in sorted order
    (:func:`_sorted_sum`), and each volume is clamped to [0, box volume].
    """
    key, level, code, lo, hi, volume = leaves
    g = np.flatnonzero(code == _GREY)
    max_depth = int(level[g[0]])  # every grey leaf sits at max_depth
    lo, hi = lo[g], hi[g]
    size = hi - lo
    pair_leaf = np.repeat(np.arange(len(g)), np.diff(tri_ptr))
    p1, pz = _pair_integrals(mesh, tri_ids, pair_leaf, np.hstack([lo, hi]))
    sum_p1, sum_pz = _sorted_sum(pair_leaf, len(g), p1), _sorted_sum(pair_leaf, len(g), pz)

    xy = np.ascontiguousarray(lo[:, :2]).view(np.int64)  # the bits of each column's x and y
    order = np.lexsort((-lo[:, 2], *xy.T))  # column by column, top down
    upper, lower = order[:-1], order[1:]
    top = np.r_[True, (xy[lower] != xy[upper]).any(axis=1) | (hi[lower, 2] != lo[upper, 2])]
    heads = np.sort(order[top])  # ascending, as the pairs go

    # A(z1) at the top of each run: the class of the box above
    above = 0.5 * (lo[heads] + hi[heads])
    above[:, 2] = hi[heads, 2] + 0.5 * size[heads, 2]
    leaf = _locate(planes, _morton_keys(key, level, max_depth), above)
    black = (leaf >= 0) & (code[leaf] == _BLACK)
    area_top = np.empty(len(g))
    area_top[heads] = np.where(black, size[heads, 0] * size[heads, 1], 0.0)

    # the sweep: one step down every run at a time
    rank = np.arange(len(g)) - np.maximum.accumulate(np.where(top, np.arange(len(g)), 0))
    by_rank = np.argsort(rank, kind="stable")
    steps = np.searchsorted(rank[by_rank], np.arange(1, rank.max() + 2))
    for i0, i1 in zip(steps[:-1].tolist(), steps[1:].tolist()):
        step = by_rank[i0:i1]
        below, over = order[step], order[step - 1]
        area_top[below] = area_top[over] + sum_p1[over]
    box = size[:, 0] * size[:, 1] * size[:, 2]
    volume[g] = np.clip(size[:, 2] * area_top + sum_pz, 0.0, box)


# ---------------------------------------------------------------------------
# Refinement


def refine(octree: Octree, mesh: TriMesh) -> Octree:
    """One more subdivision level: equivalent to rebuilding at max_depth + 1.

    Black and white leaves are untouched; every grey leaf is replaced by
    its 8 children, to which its triangles jump as in a fresh build, and
    the new grey leaves get their exact volumes (:func:`_grow`).
    """
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    new_depth = octree.max_depth + 1
    _check_build_params(new_depth)  # the margin was checked by the build

    rest = octree.class_code != _GREY
    kept = tuple(getattr(octree, name)[rest] for name in _LEAF_COLUMNS)
    g = octree.grey_index
    pair_node = np.repeat(np.arange(len(g)), np.diff(octree.grey_tri_ptr))
    leaves, tri_ptr, tri_ids = _grow(
        mesh, (kept,), (octree.box_min[0], octree.box_max[-1]), octree.path_key[g], pair_node,
        octree.grey_tri_ids, octree.max_depth, new_depth,
    )
    columns = dict(zip(_LEAF_COLUMNS, leaves))
    tree = replace(octree, **columns, grey_tri_ptr=tri_ptr, grey_tri_ids=tri_ids, max_depth=new_depth)
    tree.fingerprint()
    return tree
