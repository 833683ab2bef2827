"""Adaptive octree decomposition of a part.

The part's bounding box is cubified, inflated by a small margin, and split
recursively: boxes fully inside the part are black, fully outside are white,
and boxes crossed by the surface are grey and subdivided until ``max_depth``.
A box the surface misses is black or white by the exact parity of its
center's vertical line.  Grey terminal boxes get their exact solid volume
by the divergence theorem (:func:`_grey_volumes`): each triangle's part in
a box is integrated in closed form, and the grey boxes stacked in one xy
column are swept top down, each passing the part's cross-section area at
its floor to the box below.  Nothing is sampled and nothing is random, so
every value is reproducible and independent of how boxes are batched.  The
tree is linear: it keeps only its leaves, as arrays in Morton (z-curve)
order.
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
from .mesh_io import (
    _SAT_PAIR_BUDGET,
    TriMesh,
    _heights_inside,
    _points_inside,
    _tri_box_overlap,
)

DEFAULT_MAX_DEPTH = 5
DEFAULT_MARGIN = 0.01
#: Deepest octree a build or refine may ask for.
MAX_DEPTH_LIMIT = 10

#: Relative inward shrink applied to a box before the surface-crossing test.
#: A triangle that merely touches the closed box (no transversal crossing)
#: then does not count, and the box classifies by its center point instead.
#: Keeps axis-aligned parts from producing infinitely thin grey shells.
_SHRINK = 1e-9

_CLIP_PAIR_BUDGET = 16_384  # (triangle, box) pairs per chunk of the volume kernel
_CLIP_ENTRY_BUDGET = 65_536  # (constraint, line, pair) entries per call of _clipped_fans


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
    Morton (z-curve) order.  The boxes are the ones the subdivision computed
    (``mid = 0.5 * (lo + hi)`` at each level), not re-derived from the key,
    which would round differently.  ``grey_index`` lists the grey rows;
    every grey leaf sits at ``max_depth``.  Grey leaf g keeps the triangles
    near it, ``grey_tri_ids[grey_tri_ptr[g]:grey_tri_ptr[g + 1]]``: every
    triangle that crosses its box shrunk by :data:`_SHRINK` (these made it
    grey, and ``grey_tri_cross`` marks them) and every other triangle that
    meets its box inflated by ``2 * _SHRINK`` root half-widths (the volume
    kernel's ties need those), with some whose bounds merely reach that
    box.  :func:`refine` starts from these lists.  All arrays are
    read-only.
    """

    path_key: np.ndarray  # (L,) int64: 1, then 3 bits (x + 2y + 4z) per level
    depth: np.ndarray  # (L,) int32
    class_code: np.ndarray  # (L,) int8, an index into _CLASSES
    box_min: np.ndarray  # (L, 3) float64
    box_max: np.ndarray  # (L, 3) float64
    part_volume: np.ndarray  # (L,) float64
    grey_tri_ptr: np.ndarray  # (G + 1,) offsets into grey_tri_ids
    grey_tri_ids: np.ndarray
    grey_tri_cross: np.ndarray  # (T,) bool, aligned with grey_tri_ids
    max_depth: int
    margin: float
    mesh_hash: str
    mesh_bbox_min: tuple[float, float, float]
    mesh_bbox_max: tuple[float, float, float]
    mesh_volume: float

    def __post_init__(self):
        for name in (*_LEAF_COLUMNS, "grey_tri_ptr", "grey_tri_ids", "grey_tri_cross"):
            getattr(self, name).setflags(write=False)
        self.grey_index = np.flatnonzero(self.class_code == _GREY)
        self.grey_index.setflags(write=False)
        self._leaves: list[OctantNode] | None = None
        self._greys: list[OctantNode] | None = None
        self._fingerprint: dict | None = None
        self._by_key: tuple[np.ndarray, np.ndarray] | None = None  # see _key_index

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

    def total_part_volume(self) -> float:
        return math.fsum(self.part_volume.tolist())

    def find_leaf(self, point) -> OctantNode | None:
        """Record of the leaf whose half-open box contains ``point``, or None outside the root.

        The root's max faces belong to the root, so a point on them still
        finds a leaf.  A one-point call of :meth:`find_leaves`.
        """
        i = int(self.find_leaves(np.reshape(point, (1, 3)))[0])
        return None if i < 0 else self.leaves()[i]

    def find_leaves(self, points) -> np.ndarray:
        """Index of the leaf containing each of the (N, 3) ``points``, -1 outside the root.

        Boxes are half-open: at every level a point goes to the upper child
        on an axis where ``p >= mid``, with ``mid = 0.5 * (lo + hi)`` of the
        box it is in, so a point on a split plane lands in the box above it.
        The root box itself is closed, so points on its max faces still find
        a leaf.  All points descend level by level at once, each stopping
        when its path key is a leaf's.
        """
        if self._by_key is None:
            self._by_key = _key_index(self.path_key)
        # Morton order starts with the all-lower corner leaf and ends with the all-upper one
        return _locate(self._by_key, self.box_min[0], self.box_max[-1], points)

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

    def dump_leaves(self, fh) -> None:
        """Write the leaf dump (:meth:`dump_lines`) to the text file ``fh``."""
        fh.writelines(self.dump_lines())

    def fingerprint(self) -> dict:
        """Stable identity of the decomposition: depth, leaf count, content hash.

        The hash runs over one record per leaf in Morton order: depth as
        int32, box_min and box_max as float64, the class name in ASCII and
        the part volume as float64.
        """
        if self._fingerprint is None:
            rec = np.empty(len(self.path_key), dtype=_FINGERPRINT_RECORD)
            rec["depth"] = self.depth
            rec["box"] = np.hstack([self.box_min, self.box_max])
            rec["class"] = _CLASS_NAMES[self.class_code]
            rec["volume"] = self.part_volume
            raw = rec.view(np.uint8).reshape(len(rec), -1)
            keep = np.ones(raw.shape, dtype=bool)
            keep[self.grey_index, _FINGERPRINT_RECORD.fields["class"][1] + 4] = False
            self._fingerprint = {
                "max_depth": self.max_depth,
                "leaf_count": len(rec),
                "content_hash": hashlib.sha256(raw[keep].tobytes()).hexdigest(),
            }
        return self._fingerprint


def _key_index(path_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaves' path keys sorted, and the leaf of each sorted key: :func:`_locate`'s index."""
    order = np.argsort(path_key)
    return path_key[order], order


def _locate(by_key, lo: np.ndarray, hi: np.ndarray, points) -> np.ndarray:
    """:meth:`Octree.find_leaves` over the leaves indexed by ``by_key``
    (:func:`_key_index`), in the root box ``lo``/``hi``."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    found = np.full(len(p), -1, dtype=np.intp)
    rows = np.flatnonzero(~((p < lo) | (p > hi)).any(axis=1))
    lo = np.broadcast_to(lo, (len(rows), 3))
    hi = np.broadcast_to(hi, (len(rows), 3))
    key = np.ones(len(rows), dtype=np.int64)
    sorted_keys, leaf_of = by_key
    while len(rows):
        at = np.minimum(np.searchsorted(sorted_keys, key), len(sorted_keys) - 1)
        leaf = sorted_keys[at] == key
        found[rows[leaf]] = leaf_of[at[leaf]]
        rows, key, lo, hi = rows[~leaf], key[~leaf], lo[~leaf], hi[~leaf]
        mid = 0.5 * (lo + hi)
        upper = p[rows] >= mid
        key = key << 3 | (upper[:, 0] + 2 * upper[:, 1] + 4 * upper[:, 2])
        lo, hi = np.where(upper, mid, lo), np.where(upper, hi, mid)
    return found


# ---------------------------------------------------------------------------
# Classification


def classify_box(mesh: TriMesh, box_min, box_max) -> OctantClass:
    """Classify one axis-aligned box against a watertight mesh.

    Grey means the surface crosses the open box; a surface that only touches
    the box's boundary does not count, and such boxes classify black or
    white by their center point.
    """
    if not mesh.metrics.watertight:
        raise NotWatertightError("box classification needs a watertight mesh")
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    if (hi <= lo).any():
        raise ParameterError("box_max must exceed box_min on every axis")
    return _CLASSES[_classify(mesh, lo[None], hi[None])[1]]


def _classify(mesh: TriMesh, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, int]:
    """The triangles crossing the (1, 3) box ``lo``/``hi`` and the box's class code.

    The box is shrunk by :data:`_SHRINK` for the SAT test; a box no triangle
    crosses is black or white by the exact parity of its center.  A
    triangle whose bounds (:meth:`TriMesh.tri_bounds`) lie inside the shrunk
    box is a hit without the full test, which would say the same (see
    :func:`_tri_box_overlap`); for an octree's root at a positive margin,
    that is every triangle.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1 - _SHRINK)
    tmin, tmax = mesh.tri_bounds()
    hit = ((tmin - center >= -half) & (tmax - center <= half)).all(axis=1)
    rest = np.flatnonzero(~hit)
    hit[rest] = _tri_box_overlap(mesh.tri_coords()[rest], center, half)
    hits = np.flatnonzero(hit)
    if len(hits):
        return hits, _GREY
    return hits, _BLACK if _points_inside(mesh, center)[0] else _WHITE


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
    *,
    samples=None,
) -> Octree:
    """Decompose ``mesh`` into an octree of black/white/grey boxes.

    Parameters
    ----------
    max_depth:
        Subdivision levels below the root, in [1, 10].
    margin:
        Relative inflation of the cubified root box (0.01 = 1%).
    samples:
        Ignored: neither checked nor stored.  Grey-leaf volumes are exact,
        and the keyword stays only so that older calls that pass it still run.

    Every grey leaf's ``part_volume`` is its exact solid volume, up to
    rounding (:func:`_grey_volumes`).  An open mesh raises
    ``NotWatertightError``; a closed one whose bounding box has no volume
    (a flat sheet) raises ``DegenerateMeshError``.
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
    lo, hi = (center - half)[None, :], (center + half)[None, :]
    root_key = np.ones(1, dtype=np.int64)

    hits, code = _classify(mesh, lo, hi)
    if code == _GREY:
        # the root keeps every triangle; those that cross it start the classification
        cross = np.zeros(mesh.num_triangles, dtype=bool)
        cross[hits] = True
        tris = np.arange(mesh.num_triangles)
        root_of = np.zeros(len(tris), dtype=np.intp)
        leaves, tri_ptr, tri_ids, cross = _grow(
            mesh, [], lo, hi, root_key, root_of, tris, cross, 0, max_depth, margin
        )
        _grey_volumes(mesh, leaves, tri_ptr, tri_ids, margin)
    else:
        volume = np.array([float(np.prod(hi - lo)) if code == _BLACK else 0.0])
        code = np.array([code], dtype=np.int8)
        leaves = (root_key, np.zeros(1, dtype=np.int32), code, lo, hi, volume)
        tri_ptr, tri_ids, cross = np.zeros(1, dtype=np.intp), hits, np.zeros(0, dtype=bool)

    tree = Octree(
        *leaves,
        grey_tri_ptr=tri_ptr,
        grey_tri_ids=tri_ids,
        grey_tri_cross=cross,
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


def _grow(
    mesh: TriMesh,
    done: list[tuple[np.ndarray, ...]],
    lo: np.ndarray,
    hi: np.ndarray,
    keys: np.ndarray,
    pair_node: np.ndarray,
    pair_tri: np.ndarray,
    pair_cross: np.ndarray,
    depth: int,
    max_depth: int,
    margin: float,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Subdivide grey nodes level by level down to ``max_depth``; the finished leaves.

    The W nodes at ``depth`` have boxes ``lo``/``hi`` (W, 3) and path keys
    ``keys``, in Morton order, and triangle ``pair_tri[p]`` is near node
    ``pair_node[p]``, crossing it where ``pair_cross[p]``.  The leaves of
    ``done``, tuples of leaf arrays as in :data:`_LEAF_COLUMNS`, are kept
    as they are.  Returns all leaves in Morton order, grey volumes NaN for
    :func:`_grey_volumes` to fill, and the grey leaves' triangle lists as a
    CSR (offsets, triangle ids, crossing flags).  Children of
    Morton-ordered nodes come out Morton-ordered, so the greys, all made by
    the last wave, keep their order through the final sort and stay
    aligned with the CSR.
    """
    pad = _reach(mesh, margin)
    while True:
        depth += 1
        lo, hi, keys, code, volume, pair_child, pair_tri, pair_cross = _advance_wave(
            mesh, lo, hi, keys, pair_node, pair_tri, pair_cross, pad
        )
        wave = (keys, np.full(len(keys), depth, dtype=np.int32), code, lo, hi, volume)
        grey = code == _GREY
        grey_of = np.cumsum(grey) - 1  # a grey child's index among the grey children
        on_grey = grey[pair_child]  # only grey children keep their triangles
        pair_child, pair_tri, pair_cross = pair_child[on_grey], pair_tri[on_grey], pair_cross[on_grey]
        if depth == max_depth or not grey.any():
            break
        done.append(tuple(column[~grey] for column in wave))
        lo, hi, keys = lo[grey], hi[grey], keys[grey]
        pair_node = grey_of[pair_child]

    done.append(wave)
    key, depth, *rest = (np.concatenate(column) for column in zip(*done))
    # left-aligned keys: drop the leading 1 and pad every key to max_depth levels
    shift = 3 * depth.astype(np.int64)
    morton = (key ^ (1 << shift)) << (3 * max_depth - shift)
    order = np.argsort(morton)
    counts = np.bincount(grey_of[pair_child], minlength=int(grey.sum()))
    tri_ptr = np.concatenate([[0], np.cumsum(counts)])
    leaves = tuple(column[order] for column in (key, depth, *rest))
    return leaves, tri_ptr, pair_tri, pair_cross


def _reach(mesh: TriMesh, margin: float) -> float:
    """How far past a box a near triangle may lie: ``2 * _SHRINK`` root
    half-widths, from the mesh and ``margin`` as the root box is, so that a
    build and a refine agree bit for bit."""
    return _SHRINK * mesh.metrics.max_dimension * (1.0 + margin)


def _advance_wave(
    mesh: TriMesh,
    lo: np.ndarray,
    hi: np.ndarray,
    keys: np.ndarray,
    pair_node: np.ndarray,
    pair_tri: np.ndarray,
    pair_cross: np.ndarray,
    pad: float,
) -> tuple[np.ndarray, ...]:
    """Split W grey nodes into their 8 children each; returns the 8W children.

    Children come node by node, child c of a node taking the upper half on
    axis a where bit a of c is set.  Returns their boxes (8W, 3), path keys,
    class codes, part volumes (NaN on grey children, which
    :func:`_grey_volumes` fills), and the (child, triangle) near pairs
    ordered by child, each child's triangles in its node's order, with
    their crossing flags.

    Every (node, triangle) pair of the level is tested against the node's
    8 children by :func:`_wave_mask`.  Only crossing pairs decide classes:
    a child is grey when a crossing pair's triangle crosses it.  Children
    that the surface misses are center-classified in one
    :func:`_heights_inside` call with one line per xy column (one
    :func:`_column_keys` value), carrying the center heights of every
    missed child stacked in that column.  A height's answer depends only on
    the mesh and the point, so sharing lines changes no class.
    """
    mid = 0.5 * (lo + hi)
    cmin = np.where(_CHILD_BITS, mid[:, None, :], lo[:, None, :]).reshape(-1, 3)
    cmax = np.where(_CHILD_BITS, hi[:, None, :], mid[:, None, :]).reshape(-1, 3)
    size = cmax - cmin
    centers = 0.5 * (cmin + cmax)
    halves = 0.5 * size * (1.0 - _SHRINK)
    hit, near = _wave_mask(
        mesh.tri_coords(),
        mesh.tri_bounds(),
        pair_tri,
        pair_cross,
        pair_node,
        centers.reshape(-1, 8, 3),
        halves.reshape(-1, 8, 3),
        (0.5 * size + pad).reshape(-1, 8, 3),
    )

    entry = np.flatnonzero(hit | near)  # 8 * pair + child; faster than a 2-D nonzero
    cross = hit.reshape(-1)[entry]
    pair = entry >> 3
    group = pair_node[pair] * 8 + (entry & 7)
    order = np.argsort(group, kind="stable")

    code = np.full(len(cmin), _GREY, dtype=np.int8)
    volume = np.full(len(cmin), np.nan)
    child_keys = (keys[:, None] << 3 | np.arange(8)).ravel()
    miss = np.flatnonzero(np.bincount(group[cross], minlength=len(cmin)) == 0)
    if len(miss):
        # the missed centers column by column: stacked centers share x and y bitwise
        columns = _column_keys(child_keys[miss])
        by_column = np.argsort(columns, kind="stable")
        miss = miss[by_column]
        heads = np.flatnonzero(np.r_[True, np.diff(columns[by_column]) != 0])
        hptr = np.r_[heads, len(miss)]
        inside = _heights_inside(mesh, centers[miss[heads], :2], centers[miss, 2], hptr)
        code[miss] = np.where(inside, _BLACK, _WHITE)
        volume[miss] = np.where(inside, size[miss, 0] * size[miss, 1] * size[miss, 2], 0.0)
    return cmin, cmax, child_keys, code, volume, group[order], pair_tri[pair[order]], cross[order]


#: The children a set of six slab flags keeps: flag bit ``3 * s + a`` marks
#: slab s (0 lower, 1 upper) on axis a, and bit c of ``_SLAB_CHILDREN[flags]``
#: is set when all three of child c's slabs are marked (child c takes the
#: upper slab on axis a where bit a of c is set).
_SLAB_CHILDREN = np.array(
    [sum(1 << c for c in range(8) if all(flags >> (3 * (c >> a & 1) + a) & 1 for a in range(3)))
     for flags in range(64)],
    dtype=np.uint8,
)
_FLAG_BITS = np.uint8(1) << np.arange(6, dtype=np.uint8)  # the weight of flag 3 * s + a


def _wave_mask(
    tc: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    pair_tri: np.ndarray,
    pair_cross: np.ndarray,
    pair_node: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
    reach: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(P, 8) hits and near entries of triangle ``pair_tri[p]`` and child c of node ``pair_node[p]``.

    ``tc`` holds the triangles' vertices and ``bounds`` their ``(tmin,
    tmax)`` as in :meth:`TriMesh.tri_bounds`; ``centers``, ``halves`` and
    ``reach`` are the (W, 8, 3) child boxes of the W nodes, shrunk and
    inflated.  A hit is an entry of a crossing pair (``pair_cross[p]``)
    that the SAT test finds crossing the shrunk child box; a near entry is
    any other entry that reaches the inflated child box: by its bounds
    alone, but by the full test where the entry took it and was rejected.
    Hits alone make a child grey, so near entries change no class.

    The box-normal axes run first, per pair rather than per child: along
    an axis the 8 children share two slabs, the lower one of child 0 and
    the upper one of child 7 (child c takes the upper slab where bit a of c
    is set), with bit-identical center and half-width numbers.  A slab
    takes the triangle's bounds less its center, ``lo`` and ``hi``: ``lo
    <= h and hi >= -h`` is exactly "not separated" in
    :func:`_tri_box_overlap`, because ``fl(min(p) - c) == min(fl(p - c))``,
    and ``lo >= -h and hi <= h`` is "contained".  The six flags of a pair
    index :data:`_SLAB_CHILDREN`, which ANDs each child's three slabs.  A
    contained child is a hit, as the full test would also say (see its
    docstring); only the entries that no slab separates and that are not
    contained gather their vertices and go through :func:`_tri_box_overlap`,
    so the hits are the full test's.  Pairs run in chunks of
    :data:`_SAT_PAIR_BUDGET`, and a chunk's remaining entries (at most 8
    per pair) are tested together; the rejected ones of all chunks then
    take the test against the inflated box together.
    """
    tmin, tmax = bounds
    # (W, lower/upper, 3) slabs of the shrunk and the inflated children
    slab_c, slab_h, slab_r = centers[:, [0, 7]], halves[:, [0, 7]], reach[:, [0, 7]]
    centers, halves, reach = (a.reshape(-1, 3) for a in (centers, halves, reach))  # child 8 * node + c
    hit = np.zeros((len(pair_tri), 8), dtype=bool)
    near = np.zeros((len(pair_tri), 8), dtype=bool)
    hits, nears = hit.reshape(-1), near.reshape(-1)  # entry 8 * p + c is pair p, child c
    missed = [np.zeros(0, dtype=np.intp)]
    # Row gathers use take(axis=0), and bit masks unpack to flat entries: both
    # several times faster than fancy indexing, 2-D unpackbits and 2-D nonzero.
    for s in range(0, len(pair_tri), _SAT_PAIR_BUDGET):
        tri = pair_tri[s : s + _SAT_PAIR_BUDGET]
        node_of = pair_node[s : s + _SAT_PAIR_BUDGET]
        c = slab_c.take(node_of, axis=0)  # (P, 2, 3)
        h, r = slab_h.take(node_of, axis=0), slab_r.take(node_of, axis=0)
        lo = tmin.take(tri, axis=0)[:, None] - c
        hi = tmax.take(tri, axis=0)[:, None] - c
        keep, contained, close = (
            _SLAB_CHILDREN.take(flag.reshape(-1, 6).view(np.uint8) @ _FLAG_BITS)
            for flag in ((lo <= h) & (hi >= -h), (lo >= -h) & (hi <= h), (lo <= r) & (hi >= -r))
        )
        crossing = pair_cross[s : s + _SAT_PAIR_BUDGET].view(np.uint8) * np.uint8(255)
        keep &= crossing
        contained &= crossing
        nears[8 * s : 8 * (s + len(tri))] = np.unpackbits(close & ~keep, bitorder="little")
        hits[8 * s : 8 * (s + len(tri))] = np.unpackbits(contained, bitorder="little")
        entry = np.flatnonzero(np.unpackbits(keep & ~contained, bitorder="little"))
        pair = entry >> 3
        box = node_of[pair] * 8 + (entry & 7)
        crossed = _tri_box_overlap(
            tc.take(tri[pair], axis=0), centers.take(box, axis=0), halves.take(box, axis=0)
        )
        hits[8 * s + entry] = crossed
        missed.append(8 * s + entry[~crossed])
    # an entry that the slabs keep and the full test rejects is near if it meets the inflated box
    missed = np.concatenate(missed)
    for s in range(0, len(missed), 8 * _SAT_PAIR_BUDGET):
        entry = missed[s : s + 8 * _SAT_PAIR_BUDGET]
        box = pair_node[entry >> 3] * 8 + (entry & 7)
        nears[entry] = _tri_box_overlap(
            tc.take(pair_tri[entry >> 3], axis=0), centers.take(box, axis=0), reach.take(box, axis=0)
        )
    return hit, near


def _column_keys(keys: np.ndarray) -> np.ndarray:
    """Path keys with the z bit of every level dropped: 1, then 2 bits (x + 2y) per level.

    Boxes of one depth share a column key exactly when they are stacked in
    one xy column, and then their x and y bounds are bitwise equal, because
    the subdivision computes each axis from that axis's bits alone.
    """
    column = np.zeros_like(keys)
    shift = np.zeros_like(keys)
    rest = keys.copy()
    while (rest > 1).any():
        level = rest > 1
        column[level] |= (rest[level] & 3) << shift[level]
        shift[level] += 2
        rest[level] >>= 3
    return column | (1 << shift)


#: Rows of :func:`_corners`.
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


def _corners(tc: np.ndarray, ids: np.ndarray, turns: np.ndarray, side: np.ndarray):
    """Rows A, B - A, C - A and the doubled projected area of the triangles
    ``ids``, corners in canonical order (:func:`_turns`), their n_z signs,
    and their bounds, the bits of :meth:`TriMesh.tri_bounds`, as (3, P) rows.

    A sign is the exact one of the column grid, ``side``, but 0 where the
    rounded area is not positive, as on a vertical triangle.
    """
    corner = _TURNS.take(turns.take(ids), axis=0) + 3 * ids[:, None]
    t = np.empty((10, len(ids)))
    t[:9] = tc.reshape(-1, 3).take(corner, axis=0).reshape(-1, 9).T
    a, b, c = t[_TAB_A], t[_TAB_B], t[_TAB_C]
    bounds = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    b -= a
    c -= a
    t[_TAB_AREA] = t[3] * t[7] - t[4] * t[6]
    return t, np.where(t[_TAB_AREA] > 0, side.take(ids), 0.0), bounds


def _pair_integrals(
    mesh: TriMesh, turns: np.ndarray, tri: np.ndarray, box_of: np.ndarray, boxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(P1, Pz)`` of each pair of triangle ``tri[k]`` and box ``box_of[k]``.

    ``turns`` is :func:`_turns` of the mesh, and ``boxes`` holds the
    boxes' (lo, hi) corners, one row of 6 per box.  Over the xy projection
    of the part of the triangle inside the box, ``P1`` integrates 1 and
    ``Pz`` the triangle's height above the box floor, both signed by the
    triangle's n_z (positive facing up).  A vertical triangle adds 0.  A
    horizontal one counts only at a height in ``(z0, z1]``: one on a box
    plane belongs to the box below it.

    A pair whose triangle no box plane cuts takes the whole triangle in
    closed form; the others go to :func:`_clipped_fans` in groups with
    equal numbers of cutting planes.  Only a plane strictly inside the
    triangle's bounds cuts it, so no cutting plane holds an edge of it.
    Pairs run in chunks of :data:`_CLIP_PAIR_BUDGET`, and a group in calls
    of at most :data:`_CLIP_ENTRY_BUDGET` entries.
    """
    tc, side = mesh.tri_coords(), mesh._column_grid()._side
    p1, pz = np.zeros(len(tri)), np.zeros(len(tri))
    for s in range(0, len(tri), _CLIP_PAIR_BUDGET):
        ids = tri[s : s + _CLIP_PAIR_BUDGET]
        t, sign, (bmin, bmax) = _corners(tc, ids, turns, side)
        box = boxes.take(box_of[s : s + _CLIP_PAIR_BUDGET], axis=0).T.copy()
        blo, bhi = box[:3], box[3:]
        gone = (bmax[:2] <= blo[:2]).any(axis=0) | (bmin[:2] >= bhi[:2]).any(axis=0)
        gone |= (sign == 0) | (bmax[2] <= blo[2])
        gone |= np.where(bmin[2] == bmax[2], bmax[2] > bhi[2], bmin[2] >= bhi[2])
        # the planes x0, x1, y0, y1, z0, z1 that cut each triangle's bounds
        cuts = np.empty((6, len(ids)), dtype=bool)
        cuts[0::2] = (bmin < blo) & (blo < bmax)
        cuts[1::2] = (bmin < bhi) & (bhi < bmax)
        count = np.where(gone, -1, cuts.sum(axis=0))

        floor = t[2] - blo[2]  # the height of A above the box floor
        flags = cuts.T.astype(np.uint8) @ _CUT_BITS
        whole = np.flatnonzero(count == 0)
        area = t[_TAB_AREA, whole]
        p1[s + whole] = 0.5 * area
        pz[s + whole] = 0.5 * area * (floor[whole] + (t[5, whole] + t[8, whole]) / 3.0)
        for n in np.unique(count[count > 0]).tolist():
            group = np.flatnonzero(count == n)
            step = _CLIP_ENTRY_BUDGET // ((n + 1) * (n + 3))  # _clipped_fans' entries per pair
            for rows in np.split(group, range(step, len(group), step)):
                planes = _box_planes(t[:, rows], box[:, rows], _CUT_PLANES.take(flags[rows], axis=0)[:, :n].T)
                p1[s + rows], pz[s + rows] = _clipped_fans(t[:, rows], floor[rows], planes)
        p1[s : s + len(ids)] *= sign
        pz[s : s + len(ids)] *= sign
    return p1, pz


def _box_planes(t: np.ndarray, box: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(3, n, P) half-planes ``nx x + ny y + d >= 0``, in A's frame, of the
    box planes ``q`` (n, P) of each pair, numbered x0, x1, y0, y1, z0, z1.

    A z plane is ``z0 <= z`` or ``z <= z1`` on the triangle's plane, times
    the doubled area: its normal is the height gradient times that area.
    """
    b, c, area = t[_TAB_B], t[_TAB_C], t[_TAB_AREA]
    axis, upper = q >> 1, q & 1
    sign = 1.0 - 2.0 * upper  # +1 on a lower plane, -1 on an upper one
    col = np.arange(q.shape[1])
    d = sign * (t[axis, col] - box[axis + 3 * upper, col])  # t's rows 0-2 are A
    z = axis == 2
    nx = np.where(z, sign * (b[2] * c[1] - c[2] * b[1]), np.where(axis == 0, sign, 0.0))
    ny = np.where(z, sign * (c[2] * b[0] - b[2] * c[0]), np.where(axis == 1, sign, 0.0))
    return np.array([nx, ny, np.where(z, d * area, d)])


#: The planes that a set of cut flags names: flag bit q marks plane q of x0,
#: x1, y0, y1, z0, z1, and row ``flags`` lists the marked planes, ascending.
_CUT_BITS = np.uint8(1) << np.arange(6, dtype=np.uint8)
_CUT_PLANES = np.array([([q for q in range(6) if flags >> q & 1] + [0] * 6)[:6] for flags in range(64)])


def _clipped_fans(t: np.ndarray, floor: np.ndarray, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned ``(P1, Pz)`` of P pairs whose triangles are cut by n box planes each.

    ``t`` holds the triangles' rows of :func:`_corners`, ``floor`` A's
    height above the box floor, and ``planes`` the (3, n, P) cutting
    planes of :func:`_box_planes`.  By Green's theorem the projected
    area is a sum of fan triangles (A, p, q), one per outline segment pq;
    segments on edges AB and CA run through A and add nothing.  So only
    edge BC and the n cutting planes are outline lines, each clipped
    (Liang-Barsky) by the other n + 2 half-planes.  A line's segment from
    ``p0 + t0 u`` to ``p0 + t1 u``, with ``p0`` the line's foot from A and
    ``u = (n_y, -n_x)``, spans the fan area ``d (t1 - t0) / 2``.  Of two
    parallel constraints facing one way, only the tighter one can carry a
    segment, the lower index when they coincide; two coincident ones
    facing opposite ways both carry it, so their fans cancel.
    """
    b, c, area = t[_TAB_B], t[_TAB_C], t[_TAB_AREA]
    n = planes.shape[1]
    gx, gy = b[2] * c[1] - c[2] * b[1], c[2] * b[0] - b[2] * c[0]  # as in _box_planes
    zero = np.zeros(t.shape[1])
    # constraint rows: edges AB, BC and CA, then the cutting planes
    nx = np.concatenate([[-b[1], b[1] - c[1], c[1]], planes[0]])
    ny = np.concatenate([[b[0], c[0] - b[0], -c[0]], planes[1]])
    d = np.concatenate([[zero, area, zero], planes[2]])
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
    with np.errstate(divide="ignore", invalid="ignore"):
        cut_t = (cd * ly - ld * cy) / det * ux
        cut_t += (ld * cx - cd * lx) / det * uy
    cut_t /= norm
    parallel = det == 0
    parallel[lines, np.arange(n + 1)] = False  # a line never clips itself
    out = np.zeros(det.shape[1:], dtype=bool)
    j, i, p = np.nonzero(parallel)
    # Parallel constraints, by their offsets d / |n|: of two facing one way,
    # the one with the greater offset is redundant, and of two equal ones
    # the higher index; two facing opposite ways leave an empty strip when
    # their offsets add up below 0.  Each test is antisymmetric, so exactly
    # one line of a same-facing pair carries the segment.
    off_j = d[j, p] / np.hypot(nx[j, p], ny[j, p])
    off_i = ld[i, p] / np.hypot(lx[i, p], ly[i, p])
    same = nx[j, p] * lx[i, p] + ny[j, p] * ly[i, p] > 0
    shut = np.where(same, (off_j < off_i) | (off_j == off_i) & (j < lines[i]), off_i + off_j < 0)
    out[i[shut], p[shut]] = True
    t0 = np.where(det < 0, cut_t, -np.inf).max(axis=0)
    t1 = np.where(det > 0, cut_t, np.inf).min(axis=0)
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


def _rises_over(mesh: TriMesh, turns: np.ndarray, tri: np.ndarray, box: np.ndarray, slack: float):
    """Whether the plane of each triangle ``tri[k]`` rises above the floor of
    ``box[k]``, less ``slack``, somewhere over the box's xy rectangle; a
    pair for which it does not has nothing in the box.

    The plane's highest point over the rectangle is at a corner, which the
    gradient's signs pick axis by axis.  A vertical triangle never rises.
    """
    t, sign, _ = _corners(mesh.tri_coords(), tri, turns, mesh._column_grid()._side)
    b, c, area = t[_TAB_B], t[_TAB_C], t[_TAB_AREA]
    gx = b[2] * c[1] - c[2] * b[1]  # the height gradient times the doubled area, as in _box_planes
    gy = c[2] * b[0] - b[2] * c[0]
    rel = box.T - np.concatenate([t[_TAB_A], t[_TAB_A]])  # the box corners less A
    rise = np.maximum(gx * rel[0], gx * rel[3]) + np.maximum(gy * rel[1], gy * rel[4])
    with np.errstate(divide="ignore", invalid="ignore"):
        top = t[2] + rise / area
    return (sign != 0) & (top > box[:, 2] - slack)


def _grey_volumes(mesh: TriMesh, leaves, tri_ptr: np.ndarray, tri_ids: np.ndarray, margin: float) -> None:
    """Fill in the exact part volume of every grey leaf of ``leaves``, in place.

    ``leaves`` are the tree's leaf arrays as in :data:`_LEAF_COLUMNS`, in
    Morton order, and grey leaf g's triangles are ``tri_ids[tri_ptr[g]:
    tri_ptr[g + 1]]``: at least every triangle that meets its box
    inflated by ``pad`` (:func:`_reach`).  For a grey box R x [z0, z1] with
    h = z1 - z0, let A(z) be the area of the part's cross-section with R
    just above height z.  By the divergence theorem (:func:`_pair_integrals`)

        V = h A(z1) + sum Pz,    A(z0) = A(z1) + sum P1

    over the box's triangles.  The grey leaves stacked in one xy column
    (one :func:`_column_keys` value, each one's z0 bitwise the z1 of the
    one below) form runs, swept top down: each leaf's A(z1) is the A(z0)
    of the leaf above.  The top of a run reads its A(z1) off the leaf that
    holds the same-size box above it, black (R's area) or white or outside
    the root (0), plus the P1 of its own triangles in the slab R x (z1, z1
    + pad], which covers the shrink of any box above; only triangles whose
    plane rises into the slab over R (:func:`_rises_over`) are clipped.
    Each sum adds its terms in sorted order (:func:`_sorted_sum`), and
    each volume is clamped to [0, box volume].
    """
    key, _, code, lo, hi, volume = leaves
    g = np.flatnonzero(code == _GREY)
    if not len(g):
        return
    pad = _reach(mesh, margin)
    root_lo, root_hi = lo[0], hi[-1]  # Morton order: the all-lower and the all-upper corner
    lo, hi = lo[g], hi[g]
    size = hi - lo
    pair_leaf = np.repeat(np.arange(len(g)), np.diff(tri_ptr))
    turns = _turns(mesh)
    p1, pz = _pair_integrals(mesh, turns, tri_ids, pair_leaf, np.hstack([lo, hi]))
    sum_p1, sum_pz = _sorted_sum(pair_leaf, len(g), p1), _sorted_sum(pair_leaf, len(g), pz)

    columns = _column_keys(key[g])
    order = np.lexsort((-lo[:, 2], columns))  # column by column, top down
    upper, lower = order[:-1], order[1:]
    top = np.r_[True, (columns[lower] != columns[upper]) | (hi[lower, 2] != lo[upper, 2])]
    heads = np.sort(order[top])  # ascending, as the pairs go

    # A(z1) at the top of each run: the class of the box above, and the slab under it
    above = 0.5 * (lo[heads] + hi[heads])
    above[:, 2] = hi[heads, 2] + 0.5 * size[heads, 2]
    leaf = _locate(_key_index(key), root_lo, root_hi, above)
    black = (leaf >= 0) & (code[leaf] == _BLACK)
    head_of = np.full(len(g), -1)
    head_of[heads] = np.arange(len(heads))
    slab = np.flatnonzero((head_of[pair_leaf] >= 0) & (mesh.tri_bounds()[1][tri_ids, 2] > hi[pair_leaf, 2]))
    slab_box = np.hstack([lo[heads], hi[heads]])
    slab_box[:, 2] = slab_box[:, 5]
    slab_box[:, 5] += pad
    slab = slab[_rises_over(mesh, turns, tri_ids[slab], slab_box[head_of[pair_leaf[slab]]], pad)]
    slab_of = head_of[pair_leaf[slab]]
    slab_p1, _ = _pair_integrals(mesh, turns, tri_ids[slab], slab_of, slab_box)
    area_top = np.empty(len(g))
    area_top[heads] = np.where(black, size[heads, 0] * size[heads, 1], 0.0)
    area_top[heads] += _sorted_sum(slab_of, len(heads), slab_p1)

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


def estimate_part_volume(mesh: TriMesh, box_min, box_max) -> float:
    """Solid part volume inside one box.

    Black boxes short-circuit to the full box volume and white boxes to zero;
    a grey box gets its exact volume by the kernel of :func:`_grey_volumes`,
    its cross-section at the top from the P1 of every triangle over the
    prism from the box up to the mesh's top.
    """
    cls = classify_box(mesh, box_min, box_max)
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    if cls is OctantClass.BLACK:
        return float(np.prod(hi - lo))
    if cls is OctantClass.WHITE:
        return 0.0
    prism = np.r_[lo[:2], hi[2], hi[:2], max(hi[2], mesh.metrics.bbox_max[2])]
    tris = np.tile(np.arange(mesh.num_triangles), 2)
    box_of = np.repeat([0, 1], mesh.num_triangles)  # the prism, then the box
    p1, pz = _pair_integrals(
        mesh, _turns(mesh), tris, box_of, np.array([prism, np.r_[lo, hi]])
    )
    volume = (hi[2] - lo[2]) * _sorted_sum(box_of, 2, p1)[0] + _sorted_sum(box_of, 2, pz)[1]
    return float(np.clip(volume, 0.0, np.prod(hi - lo)))


# ---------------------------------------------------------------------------
# Refinement


def refine(octree: Octree, mesh: TriMesh) -> Octree:
    """One more subdivision level: equivalent to rebuilding at max_depth + 1.

    Black and white leaves are untouched; every grey leaf is replaced by its
    8 children, classified from its crossing triangles and its near ones
    carried on, exactly as a fresh build would, and the new grey leaves get
    their exact volumes.
    """
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    new_depth = octree.max_depth + 1
    _check_build_params(new_depth)  # the margin was checked by the build

    rest = octree.class_code != _GREY
    kept = tuple(getattr(octree, name)[rest] for name in _LEAF_COLUMNS)
    g = octree.grey_index
    pair_node = np.repeat(np.arange(len(g)), np.diff(octree.grey_tri_ptr))
    leaves, tri_ptr, tri_ids, cross = _grow(
        mesh, [kept], octree.box_min[g], octree.box_max[g], octree.path_key[g], pair_node,
        octree.grey_tri_ids, octree.grey_tri_cross, octree.max_depth, new_depth, octree.margin,
    )
    _grey_volumes(mesh, leaves, tri_ptr, tri_ids, octree.margin)
    columns = dict(zip(_LEAF_COLUMNS, leaves))
    tree = replace(
        octree, **columns, grey_tri_ptr=tri_ptr, grey_tri_ids=tri_ids, grey_tri_cross=cross,
        max_depth=new_depth,
    )
    tree.fingerprint()
    return tree
