"""Adaptive octree decomposition of a part.

The part's bounding box is cubified, inflated by a small margin, and split
recursively: boxes fully inside the part are black, fully outside are white,
and boxes crossed by the surface are grey and subdivided until ``max_depth``.
A box the surface misses is black or white by the exact parity of its
center's vertical line, so the boxes and their classes do not depend on the
seed.  Grey terminal boxes get their solid volume estimated by jittered-grid
sampling by column parity: the grey boxes stacked in one xy column share
that column's jittered vertical lines, each line is cast once, and each box
reads its own jittered heights off the line's crossings.  Every jitter is a
hash of the seed and a box or column path, and the sampler is the seed's
only reader, so every value is reproducible run to run and independent of
how boxes are batched.  The tree is linear: it keeps only its leaves, as
arrays in Morton (z-curve) order.
"""

from __future__ import annotations

import enum
import hashlib
import json
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
DEFAULT_SAMPLES = 4
DEFAULT_MARGIN = 0.01
#: Seed of the grey-leaf volume sampler whenever a caller does not pin one;
#: nothing else in the package is random.
DEFAULT_SEED = 7919
#: Deepest octree a build or refine may ask for.
MAX_DEPTH_LIMIT = 10

#: Relative inward shrink applied to a box before the surface-crossing test.
#: A triangle that merely touches the closed box (no transversal crossing)
#: then does not count, and the box classifies by its center point instead.
#: Keeps axis-aligned parts from producing infinitely thin grey shells.
_SHRINK = 1e-9

_SAMPLE_POINT_BUDGET = 200_000


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
    every grey leaf sits at ``max_depth``, and grey leaf g keeps the
    triangles crossing it, ``grey_tri_ids[grey_tri_ptr[g]:grey_tri_ptr[g + 1]]``,
    for :func:`refine`.  All arrays are read-only.
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
    samples: int
    seed: int
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
        self._by_key: tuple[np.ndarray, np.ndarray] | None = None  # sorted keys, leaf of each

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
        return float(sum(self.part_volume.tolist()))

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
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        found = np.full(len(p), -1, dtype=np.intp)
        # Morton order starts with the all-lower corner leaf and ends with the all-upper one
        lo, hi = self.box_min[0], self.box_max[-1]
        rows = np.flatnonzero(~((p < lo) | (p > hi)).any(axis=1))
        lo = np.broadcast_to(lo, (len(rows), 3))
        hi = np.broadcast_to(hi, (len(rows), 3))
        key = np.ones(len(rows), dtype=np.int64)
        if self._by_key is None:
            order = np.argsort(self.path_key)
            self._by_key = self.path_key[order], order
        sorted_keys, leaf_of = self._by_key
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


def _check_build_params(
    max_depth: int = DEFAULT_MAX_DEPTH,
    margin: float = DEFAULT_MARGIN,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> None:
    """Reject octree build parameters out of range; NaN fails every test.

    The one check behind build_octree, refine, estimate_part_volume and
    AnalysisParams, so the CLI rejects a bad flag before it loads a mesh.
    """
    if not 1 <= max_depth <= MAX_DEPTH_LIMIT:
        raise DepthRangeError(f"max_depth must be in [1, {MAX_DEPTH_LIMIT}], got {max_depth!r}")
    if not samples >= 2:
        raise ParameterError(f"samples must be at least 2, got {samples!r}")
    if not 0 <= margin < np.inf:
        raise ParameterError(f"margin must be finite and non-negative, got {margin!r}")
    if not seed >= 0:
        raise ParameterError(f"seed must be non-negative, got {seed!r}")


def build_octree(
    mesh: TriMesh,
    max_depth: int = DEFAULT_MAX_DEPTH,
    margin: float = DEFAULT_MARGIN,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Octree:
    """Decompose ``mesh`` into an octree of black/white/grey boxes.

    Parameters
    ----------
    max_depth:
        Subdivision levels below the root, in [1, 10].
    margin:
        Relative inflation of the cubified root box (0.01 = 1%).
    samples:
        Grid resolution n for grey-leaf volume sampling (n**3 points, n >= 2).
    seed:
        Seed of the grey-leaf volume sampler, its only reader: each grey
        leaf's sample heights hash (seed, leaf path) and its column's
        sample lines hash (seed, column path), so estimates are independent
        of evaluation order.  The tree's boxes and classes do not depend on
        it.

    An open mesh raises ``NotWatertightError``; a closed one whose bounding
    box has no volume (a flat sheet) raises ``DegenerateMeshError``.
    """
    metrics = mesh.metrics
    if not metrics.watertight:
        raise NotWatertightError("octree decomposition needs a watertight mesh")
    if metrics.bbox_volume <= 0:
        raise DegenerateMeshError("flat bounding box: the mesh encloses no volume to decompose")
    _check_build_params(max_depth, margin, samples, seed)

    bbox_min = np.array(metrics.bbox_min)
    bbox_max = np.array(metrics.bbox_max)
    center = 0.5 * (bbox_min + bbox_max)
    half = 0.5 * metrics.max_dimension * (1.0 + margin)
    lo, hi = (center - half)[None, :], (center + half)[None, :]
    root_key = np.ones(1, dtype=np.int64)

    tri_ids, code = _classify(mesh, lo, hi)
    if code == _GREY:
        root_of = np.zeros(len(tri_ids), dtype=np.intp)
        leaves, tri_ptr, tri_ids = _grow(
            mesh, [], lo, hi, root_key, root_of, tri_ids, 0, max_depth, samples, seed
        )
    else:
        volume = np.array([float(np.prod(hi - lo)) if code == _BLACK else 0.0])
        code = np.array([code], dtype=np.int8)
        leaves = (root_key, np.zeros(1, dtype=np.int32), code, lo, hi, volume)
        tri_ptr = np.zeros(1, dtype=np.intp)

    tree = Octree(
        *leaves,
        grey_tri_ptr=tri_ptr,
        grey_tri_ids=tri_ids,
        max_depth=max_depth,
        margin=margin,
        samples=samples,
        seed=seed,
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
    depth: int,
    max_depth: int,
    samples: int,
    seed: int,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Subdivide grey nodes level by level down to ``max_depth``; the finished leaves.

    The W nodes at ``depth`` have boxes ``lo``/``hi`` (W, 3) and path keys
    ``keys``, in Morton order, and triangle ``pair_tri[p]`` crosses node
    ``pair_node[p]``.  The leaves of ``done``, tuples of leaf arrays as in
    :data:`_LEAF_COLUMNS`, are kept as they are.  Returns all leaves in
    Morton order and the grey leaves' triangle lists as a CSR (offsets,
    triangle ids).  Children of Morton-ordered nodes come out Morton-ordered,
    so the greys, all made by the last wave, keep their order through the
    final sort and stay aligned with the CSR.
    """
    while True:
        depth += 1
        lo, hi, keys, code, volume, pair_child, pair_tri = _advance_wave(
            mesh, lo, hi, keys, pair_node, pair_tri
        )
        wave = (keys, np.full(len(keys), depth, dtype=np.int32), code, lo, hi, volume)
        grey = code == _GREY
        grey_of = np.cumsum(grey) - 1  # a grey child's index among the grey children
        if depth == max_depth or not grey.any():
            break
        done.append(tuple(column[~grey] for column in wave))
        lo, hi, keys = lo[grey], hi[grey], keys[grey]
        pair_node = grey_of[pair_child]

    volume[grey] = _estimate_grey_volumes(mesh, lo[grey], hi[grey], keys[grey], samples, seed)
    done.append(wave)
    key, depth, *rest = (np.concatenate(column) for column in zip(*done))
    # left-aligned keys: drop the leading 1 and pad every key to max_depth levels
    shift = 3 * depth.astype(np.int64)
    morton = (key ^ (1 << shift)) << (3 * max_depth - shift)
    order = np.argsort(morton)
    counts = np.bincount(grey_of[pair_child], minlength=int(grey.sum()))
    tri_ptr = np.concatenate([[0], np.cumsum(counts)])
    return tuple(column[order] for column in (key, depth, *rest)), tri_ptr, pair_tri


def _advance_wave(
    mesh: TriMesh,
    lo: np.ndarray,
    hi: np.ndarray,
    keys: np.ndarray,
    pair_node: np.ndarray,
    pair_tri: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Split W grey nodes into their 8 children each; returns the 8W children.

    Children come node by node, child c of a node taking the upper half on
    axis a where bit a of c is set.  Returns their boxes (8W, 3), path keys,
    class codes, part volumes (NaN on grey children, which are sampled
    later), and the (child, triangle) hit pairs ordered by child, each
    child's triangles in its node's order.

    Every (node, triangle) pair of the level is SAT-tested against the
    node's 8 children by :func:`_wave_mask` (box-normal slabs from the
    triangles' bounds first, the full test only where they neither separate
    nor contain, same hits).  Children that the surface misses are
    center-classified in one :func:`_heights_inside` call with one line per
    xy column (one :func:`_column_keys` value), carrying the center heights
    of every missed child stacked in that column.  A height's answer
    depends only on the mesh and the point, so sharing lines changes no
    class.
    """
    mid = 0.5 * (lo + hi)
    cmin = np.where(_CHILD_BITS, mid[:, None, :], lo[:, None, :]).reshape(-1, 3)
    cmax = np.where(_CHILD_BITS, hi[:, None, :], mid[:, None, :]).reshape(-1, 3)
    size = cmax - cmin
    centers = 0.5 * (cmin + cmax)
    halves = 0.5 * size * (1.0 - _SHRINK)
    mask = _wave_mask(
        mesh.tri_coords(),
        mesh.tri_bounds(),
        pair_tri,
        pair_node,
        centers.reshape(-1, 8, 3),
        halves.reshape(-1, 8, 3),
    )

    entry = np.flatnonzero(mask)  # 8 * pair + child; faster than a 2-D nonzero
    pair = entry >> 3
    group = pair_node[pair] * 8 + (entry & 7)
    order = np.argsort(group, kind="stable")

    code = np.full(len(cmin), _GREY, dtype=np.int8)
    volume = np.full(len(cmin), np.nan)
    child_keys = (keys[:, None] << 3 | np.arange(8)).ravel()
    miss = np.flatnonzero(np.bincount(group, minlength=len(cmin)) == 0)
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
    return cmin, cmax, child_keys, code, volume, group[order], pair_tri[pair[order]]


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
    pair_node: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
) -> np.ndarray:
    """(P, 8) SAT hits of triangle ``pair_tri[p]`` against child c of node ``pair_node[p]``.

    ``tc`` holds the triangles' vertices and ``bounds`` their ``(tmin,
    tmax)`` as in :meth:`TriMesh.tri_bounds`; ``centers`` and ``halves`` are
    the (W, 8, 3) child boxes of the W nodes.  The box-normal axes run
    first, per pair rather than per child: along an axis the 8 children
    share two slabs, the lower one of child 0 and the upper one of child 7
    (child c takes the upper slab where bit a of c is set), with
    bit-identical center and half-width numbers.  A slab takes the
    triangle's bounds less its center, ``lo`` and ``hi``: ``lo <= h and hi
    >= -h`` is exactly "not separated" in :func:`_tri_box_overlap`, because
    ``fl(min(p) - c) == min(fl(p - c))``, and ``lo >= -h and hi <= h`` is
    "contained".  The six flags of a pair index :data:`_SLAB_CHILDREN`,
    which ANDs each child's three slabs.  A contained child is a hit, as the
    full test would also say (see its docstring); only the entries that no
    slab separates and that are not contained gather their vertices and go
    through :func:`_tri_box_overlap`, so the mask is the full test's.
    Pairs run in chunks of :data:`_SAT_PAIR_BUDGET`, and a chunk's remaining
    entries (at most 8 per pair) are tested together.
    """
    tmin, tmax = bounds
    slab_c, slab_h = centers[:, [0, 7]], halves[:, [0, 7]]  # (W, lower/upper, 3)
    centers, halves = centers.reshape(-1, 3), halves.reshape(-1, 3)  # child 8 * node + c
    mask = np.zeros((len(pair_tri), 8), dtype=bool)
    entries = mask.reshape(-1)  # entry 8 * p + c is pair p, child c
    # Row gathers use take(axis=0), and bit masks unpack to flat entries: both
    # several times faster than fancy indexing, 2-D unpackbits and 2-D nonzero.
    for s in range(0, len(pair_tri), _SAT_PAIR_BUDGET):
        tri = pair_tri[s : s + _SAT_PAIR_BUDGET]
        node_of = pair_node[s : s + _SAT_PAIR_BUDGET]
        c, h = slab_c.take(node_of, axis=0), slab_h.take(node_of, axis=0)  # (P, 2, 3)
        lo = tmin.take(tri, axis=0)[:, None] - c
        hi = tmax.take(tri, axis=0)[:, None] - c
        touch = (lo <= h) & (hi >= -h)
        inside = (lo >= -h) & (hi <= h)
        keep, contained = (
            _SLAB_CHILDREN.take(flag.reshape(-1, 6).view(np.uint8) @ _FLAG_BITS)
            for flag in (touch, inside)
        )
        entries[8 * s : 8 * (s + len(tri))] = np.unpackbits(contained, bitorder="little")
        entry = np.flatnonzero(np.unpackbits(keep & ~contained, bitorder="little"))
        pair = entry >> 3
        box = node_of[pair] * 8 + (entry & 7)
        entries[8 * s + entry] = _tri_box_overlap(
            tc.take(tri[pair], axis=0), centers.take(box, axis=0), halves.take(box, axis=0)
        )
    return mask


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


#: Stream tags of the sampler: a column's line jitter and a box's height jitter.
_LINE_STREAM, _HEIGHT_STREAM = 1, 2
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment, 2**64 / golden ratio


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array (array arithmetic wraps)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, keys: np.ndarray, stream: int, count: int) -> np.ndarray:
    """(len(keys), count) floats in [0, 1); entry (r, c) hashes (seed, keys[r], stream, c).

    A counter-based SplitMix64 stream: the seed, the key and the stream tag
    are mixed into a 64-bit state one after another, each through the
    output function, and value c is the output function of state + (c + 1)
    * gamma.  Mixing the seed first keeps streams of nearby seeds from
    coinciding under some other key.  No generator object exists and no
    loop runs per key.  The seed enters modulo 2**64.
    """
    state = np.zeros(len(keys), dtype=np.uint64)
    for word in (np.uint64(seed % 2**64), keys.astype(np.uint64), np.uint64(stream)):
        state = _mix64((state ^ word) + _GAMMA)
    z = state[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    return (_mix64(z) >> np.uint64(11)) * 2.0**-53


def _estimate_grey_volumes(
    mesh: TriMesh, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray, samples: int, seed: int
) -> np.ndarray:
    """Part volume in each box (lo, hi) (G, 3) from n**3 stratified samples.

    Boxes stacked in one xy column (one :func:`_column_keys` value) share
    its n**2 vertical lines: line (i, j) is jittered within xy stratum
    (i, j) by the column's stream.  Box g puts n heights on each line,
    height k jittered within z stratum k by the box's own stream, so point
    (i, j, k) of a box is ``lo + (ijk + jitter) / n * size`` as on a
    jittered grid.  :func:`_heights_inside` casts each line once against
    the heights of every box on it.  Every sample depends only on the mesh,
    the seed and a key, so no estimate depends on which boxes share a batch.
    Whole columns go in batches of about :data:`_SAMPLE_POINT_BUDGET` points.
    """
    n = samples
    n2, n3 = n * n, n**3
    axis = np.arange(n)
    ij = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(n2, 2)
    size = hi - lo
    volumes = size[:, 0] * size[:, 1] * size[:, 2]
    columns = _column_keys(keys)
    order = np.argsort(columns, kind="stable")  # the boxes, column by column
    heads = np.flatnonzero(np.r_[len(keys) > 0, np.diff(columns[order]) != 0])
    ends = np.r_[heads[1:], len(keys)]  # each column's boxes are order[heads[c]:ends[c]]
    c0 = 0
    while c0 < len(heads):
        c1 = int(np.searchsorted(ends, heads[c0] + _SAMPLE_POINT_BUDGET // n3, side="right"))
        c1 = max(c1, c0 + 1)  # a column with more points goes alone
        first, count = heads[c0:c1], ends[c0:c1] - heads[c0:c1]
        rows = order[first[0] : ends[c1 - 1]]
        col = np.repeat(np.arange(c1 - c0), count)  # the column of each box in the batch

        head = order[first]  # lines: lo + (ij + jitter) / n * size in x and y
        xy = ij + _uniforms(seed, columns[head], _LINE_STREAM, 2 * n2).reshape(-1, n2, 2)
        xy /= n
        xy *= size[head, None, :2]
        xy += lo[head, None, :2]
        z = _uniforms(seed, keys[rows], _HEIGHT_STREAM, n3).reshape(-1, n2, n)
        z += axis  # heights: lo + (k + jitter) / n * size in z
        z /= n
        z *= size[rows, 2, None, None]
        z += lo[rows, 2, None, None]

        # CSR: column by column, line by line, then the boxes of the column, n heights each
        width = count * n
        line_start = ((first - first[0]) * n3)[:, None] + np.arange(n2) * width[:, None]
        rank = np.arange(len(rows)) - np.repeat(first - first[0], count)
        slot = line_start[col][:, :, None] + (rank * n)[:, None, None] + axis
        hptr = np.r_[line_start.ravel(), len(rows) * n3]
        hz = np.empty(len(rows) * n3)
        hz[slot] = z
        xy = xy.reshape(-1, 2)
        inside = _heights_inside(mesh, xy, hz, hptr)
        volumes[rows] *= inside[slot].reshape(len(rows), n3).sum(axis=1) / n3
        c0 = c1
    return volumes


def estimate_part_volume(
    mesh: TriMesh, box_min, box_max, resolution: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> float:
    """Solid part volume inside one box.

    Black boxes short-circuit to the full box volume and white boxes to zero;
    grey boxes are sampled on a seeded jittered n**3 grid (n**2 lines of n
    heights, the box being its own column), as an octree's root would be,
    so the relative error on a surface-crossing box falls off roughly like
    1/n.
    """
    _check_build_params(samples=resolution, seed=seed)
    cls = classify_box(mesh, box_min, box_max)
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    if cls is OctantClass.BLACK:
        return float(np.prod(hi - lo))
    if cls is OctantClass.WHITE:
        return 0.0
    root_key = np.ones(1, dtype=np.int64)
    return float(_estimate_grey_volumes(mesh, lo[None], hi[None], root_key, resolution, seed)[0])


# ---------------------------------------------------------------------------
# Refinement


def refine(octree: Octree, mesh: TriMesh) -> Octree:
    """One more subdivision level: equivalent to rebuilding at max_depth + 1.

    Black and white leaves are untouched; every grey leaf is replaced by its
    8 children, classified and sampled exactly as a fresh build would,
    because every sample's jitter derives from a leaf or column path.
    """
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    new_depth = octree.max_depth + 1
    _check_build_params(new_depth, octree.margin, octree.samples, octree.seed)

    rest = octree.class_code != _GREY
    kept = tuple(getattr(octree, name)[rest] for name in _LEAF_COLUMNS)
    g = octree.grey_index
    pair_node = np.repeat(np.arange(len(g)), np.diff(octree.grey_tri_ptr))
    leaves, tri_ptr, tri_ids = _grow(
        mesh, [kept], octree.box_min[g], octree.box_max[g], octree.path_key[g],
        pair_node, octree.grey_tri_ids, octree.max_depth, new_depth, octree.samples, octree.seed,
    )
    columns = dict(zip(_LEAF_COLUMNS, leaves))
    tree = replace(octree, **columns, grey_tri_ptr=tri_ptr, grey_tri_ids=tri_ids, max_depth=new_depth)
    tree.fingerprint()
    return tree
