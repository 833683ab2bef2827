"""Adaptive octree decomposition of a part.

The part's bounding box is cubified, inflated by a small margin, and split
recursively: boxes fully inside the part are black, fully outside are white,
and boxes crossed by the surface are grey and subdivided until ``max_depth``.
Grey terminal boxes get their solid volume estimated by jittered-grid
sampling seeded by each box's path, so every value is reproducible run to
run and independent of how boxes are batched.  Leaves are always
enumerated in Morton (z-curve) order.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DepthRangeError, MeshMismatchError, NotWatertightError
from .mesh_io import _SAT_PAIR_BUDGET, DEFAULT_SEED, TriMesh, _points_inside, _tri_box_overlap

DEFAULT_MAX_DEPTH = 5
DEFAULT_SAMPLES = 4
DEFAULT_MARGIN = 0.01

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


@dataclass(eq=False, slots=True)
class OctantNode:
    """One octree box.  ``part_volume`` is set on black and grey leaves only."""

    box_min: np.ndarray
    box_max: np.ndarray
    depth: int
    octant_class: OctantClass
    path_key: int
    children: tuple["OctantNode", ...] | None = None
    part_volume: float | None = None
    tri_ids: np.ndarray | None = None  # grey terminal leaves keep theirs for refine()

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.box_min + self.box_max)

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.box_max - self.box_min))


class Octree:
    """Result of :func:`build_octree`; treat as immutable once built."""

    def __init__(
        self,
        root: OctantNode,
        max_depth: int,
        margin: float,
        samples: int,
        seed: int,
        mesh_hash: str,
        mesh_bbox_min: tuple[float, float, float],
        mesh_bbox_max: tuple[float, float, float],
        mesh_volume: float,
    ):
        self.root = root
        self.max_depth = max_depth
        self.margin = margin
        self.samples = samples
        self.seed = seed
        self.mesh_hash = mesh_hash
        self.mesh_bbox_min = mesh_bbox_min
        self.mesh_bbox_max = mesh_bbox_max
        self.mesh_volume = mesh_volume
        self._leaves: list[OctantNode] | None = None
        self._fingerprint: dict | None = None

    def leaves(self) -> list[OctantNode]:
        """All leaf boxes in Morton order (depth-first, child index 0..7)."""
        if self._leaves is None:
            out: list[OctantNode] = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                if node.children is None:
                    out.append(node)
                else:
                    stack.extend(reversed(node.children))
            self._leaves = out
        return self._leaves

    def grey_leaves(self) -> list[OctantNode]:
        return [n for n in self.leaves() if n.octant_class is OctantClass.GREY]

    def total_part_volume(self) -> float:
        return float(sum(n.part_volume or 0.0 for n in self.leaves()))

    def find_leaf(self, point) -> OctantNode | None:
        """Leaf whose half-open box contains ``point`` (None if outside the root)."""
        p = np.asarray(point, dtype=np.float64)
        node = self.root
        if (p < node.box_min).any() or (p > node.box_max).any():
            return None
        while node.children is not None:
            mid = 0.5 * (node.box_min + node.box_max)
            idx = int(p[0] >= mid[0]) | int(p[1] >= mid[1]) << 1 | int(p[2] >= mid[2]) << 2
            node = node.children[idx]
        return node

    def iter_leaf_records(self):
        for n in self.leaves():
            yield {
                "depth": n.depth,
                "box_min": [float(v) for v in n.box_min],
                "box_max": [float(v) for v in n.box_max],
                "class": n.octant_class.value,
                "part_volume": None if n.part_volume is None else float(n.part_volume),
            }

    def dump_leaves(self, target) -> None:
        """Write one JSON object per leaf (Morton order) to a path or file."""
        if hasattr(target, "write"):
            for rec in self.iter_leaf_records():
                target.write(json.dumps(rec, sort_keys=True) + "\n")
        else:
            with open(Path(target), "w", encoding="utf-8") as fh:
                self.dump_leaves(fh)

    def fingerprint(self) -> dict:
        """Stable identity of the decomposition: depth, leaf count, content hash."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            count = 0
            for n in self.leaves():
                h.update(struct.pack("<i", n.depth))
                h.update(np.asarray(n.box_min).tobytes())
                h.update(np.asarray(n.box_max).tobytes())
                h.update(n.octant_class.value.encode())
                h.update(struct.pack("<d", -1.0 if n.part_volume is None else n.part_volume))
                count += 1
            self._fingerprint = {
                "max_depth": self.max_depth,
                "leaf_count": count,
                "content_hash": h.hexdigest(),
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
        raise ValueError("box_max must exceed box_min on every axis")
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    hits = _tri_box_overlap(mesh.tri_coords(), center[None, :], (half * (1.0 - _SHRINK))[None, :])
    if bool(hits.any()):
        return OctantClass.GREY
    inside = _points_inside(mesh, center[None, :])
    return OctantClass.BLACK if bool(inside[0]) else OctantClass.WHITE


# ---------------------------------------------------------------------------
# Construction


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
        Base seed; each leaf derives its own stream from (seed, leaf path),
        so estimates are independent of evaluation order.
    """
    metrics = mesh.metrics
    if not metrics.watertight:
        raise NotWatertightError("octree decomposition needs a watertight mesh")
    if not 1 <= max_depth <= 10:
        raise DepthRangeError(f"max_depth must be in [1, 10], got {max_depth}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if margin < 0:
        raise ValueError("margin must be non-negative")

    bbox_min = np.array(metrics.bbox_min)
    bbox_max = np.array(metrics.bbox_max)
    center = 0.5 * (bbox_min + bbox_max)
    half = 0.5 * metrics.max_dimension * (1.0 + margin)
    root = OctantNode(
        box_min=center - half,
        box_max=center + half,
        depth=0,
        octant_class=OctantClass.GREY,
        path_key=1,
    )

    tc = mesh.tri_coords()
    all_ids = np.arange(len(tc), dtype=np.int64)
    root_hit = _tri_box_overlap(
        tc, root.center[None, :], ((root.box_max - root.box_min) * 0.5 * (1 - _SHRINK))[None, :]
    )
    terminal_grey: list[OctantNode] = []
    if not bool(root_hit.any()):
        inside = bool(_points_inside(mesh, root.center[None, :], seed=seed)[0])
        root.octant_class = OctantClass.BLACK if inside else OctantClass.WHITE
        root.part_volume = root.box_volume if inside else 0.0
    else:
        wave = [(root, all_ids[root_hit])]
        while wave:
            wave, newly_terminal = _advance_wave(mesh, tc, wave, max_depth, seed)
            terminal_grey.extend(newly_terminal)

    _estimate_grey_volumes(mesh, terminal_grey, samples, seed)

    tree = Octree(
        root=root,
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


def _advance_wave(
    mesh: TriMesh,
    tc: np.ndarray,
    wave: list[tuple[OctantNode, np.ndarray]],
    terminal_depth: int,
    seed: int,
) -> tuple[list[tuple[OctantNode, np.ndarray]], list[OctantNode]]:
    """Subdivide one level of grey nodes; returns (next wave, new terminal greys).

    Every (node, triangle) pair of the level is SAT-tested against the
    node's 8 children in chunked batches, and children that the surface
    misses are center-classified in one batch, which keeps both the
    overlap tests and the parity casts vectorized.
    """
    nodes = [node for node, _ in wave]
    lo = np.array([node.box_min for node in nodes])
    hi = np.array([node.box_max for node in nodes])
    mid = 0.5 * (lo + hi)
    cmin = np.where(_CHILD_BITS, mid[:, None, :], lo[:, None, :])  # (W, 8, 3)
    cmax = np.where(_CHILD_BITS, hi[:, None, :], mid[:, None, :])
    size = cmax - cmin
    centers = 0.5 * (cmin + cmax)
    halves = 0.5 * size * (1.0 - _SHRINK)
    volume = size[..., 0] * size[..., 1] * size[..., 2]  # == OctantNode.box_volume

    pair_tri = np.concatenate([tids for _, tids in wave])
    pair_node = np.repeat(np.arange(len(nodes)), [len(tids) for _, tids in wave])
    mask = np.empty((len(pair_tri), 8), dtype=bool)
    for s in range(0, len(pair_tri), _SAT_PAIR_BUDGET):
        tri, node_of = pair_tri[s : s + _SAT_PAIR_BUDGET], pair_node[s : s + _SAT_PAIR_BUDGET]
        mask[s : s + _SAT_PAIR_BUDGET] = _tri_box_overlap(
            tc[tri][:, None], centers[node_of], halves[node_of]
        )

    # group the hit pairs by (node, child), keeping each node's triangle order
    pair, child = np.nonzero(mask)
    group = pair_node[pair] * 8 + child
    order = np.argsort(group, kind="stable")
    hit_count = np.bincount(group, minlength=8 * len(nodes))
    sub_ids = np.split(pair_tri[pair[order]], np.cumsum(hit_count)[:-1])

    miss = hit_count == 0
    inside = np.zeros(len(miss), dtype=bool)
    if miss.any():
        inside[miss] = _points_inside(mesh, centers.reshape(-1, 3)[miss], seed=seed)

    next_wave: list[tuple[OctantNode, np.ndarray]] = []
    terminal: list[OctantNode] = []
    for w, node in enumerate(nodes):
        depth = node.depth + 1
        kids = []
        for c in range(8):
            g = 8 * w + c
            child = OctantNode(
                box_min=cmin[w, c],
                box_max=cmax[w, c],
                depth=depth,
                octant_class=OctantClass.GREY,
                path_key=node.path_key << 3 | c,
            )
            if miss[g]:
                child.octant_class = OctantClass.BLACK if inside[g] else OctantClass.WHITE
                child.part_volume = float(volume[w, c]) if inside[g] else 0.0
            elif depth >= terminal_depth:
                child.tri_ids = sub_ids[g]
                terminal.append(child)
            else:
                next_wave.append((child, sub_ids[g]))
            kids.append(child)
        node.children = tuple(kids)
        node.part_volume = None
        node.tri_ids = None
    return next_wave, terminal


def _sample_lattice(n: int) -> np.ndarray:
    """The n**3 cell corners (i, j, k) of the stratified sampling grid, (n**3, 3)."""
    axis = np.arange(n)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _estimate_grey_volumes(mesh: TriMesh, leaves: list[OctantNode], samples: int, seed: int) -> None:
    """Set ``part_volume`` of each grey leaf from n**3 jittered-grid samples.

    Each leaf's jitter comes from its own stream ``(seed, path_key)``, so the
    estimate does not depend on which leaves share a batch.
    """
    if not leaves:
        return
    n3 = samples**3
    group = max(1, _SAMPLE_POINT_BUDGET // n3)
    ijk = _sample_lattice(samples)
    jitter = np.empty((min(group, len(leaves)), n3, 3))
    for s in range(0, len(leaves), group):
        batch = leaves[s : s + group]
        for i, node in enumerate(batch):
            np.random.default_rng([seed, node.path_key]).random(out=jitter[i])
        lo = np.array([node.box_min for node in batch])
        size = np.array([node.box_max for node in batch]) - lo
        offs = (ijk + jitter[: len(batch)]) / samples
        pts = (lo[:, None, :] + offs * size[:, None, :]).reshape(-1, 3)
        inside = _points_inside(mesh, pts, seed=seed)
        fraction = inside.reshape(len(batch), n3).sum(axis=1) / n3
        volume = size[:, 0] * size[:, 1] * size[:, 2]  # == OctantNode.box_volume
        for node, v in zip(batch, volume * fraction):
            node.part_volume = float(v)


def estimate_part_volume(
    mesh: TriMesh, box_min, box_max, resolution: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> float:
    """Solid part volume inside one box.

    Black boxes short-circuit to the full box volume and white boxes to zero;
    grey boxes are sampled on a seeded jittered n**3 grid, so the relative
    error on a surface-crossing box falls off roughly like 1/n.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    cls = classify_box(mesh, box_min, box_max)
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    box_volume = float(np.prod(hi - lo))
    if cls is OctantClass.BLACK:
        return box_volume
    if cls is OctantClass.WHITE:
        return 0.0
    rng = np.random.default_rng([seed, 1])
    n3 = resolution**3
    offs = (_sample_lattice(resolution) + rng.random((n3, 3))) / resolution
    pts = lo + offs * (hi - lo)
    inside = _points_inside(mesh, pts, seed=seed)
    return box_volume * (float(inside.sum()) / n3)


# ---------------------------------------------------------------------------
# Refinement


def refine(octree: Octree, mesh: TriMesh) -> Octree:
    """One more subdivision level: equivalent to rebuilding at max_depth + 1.

    Black and white leaves are untouched; every terminal grey leaf is split
    and its children classified and sampled exactly as a fresh build would,
    because all seeds derive from leaf paths.
    """
    if mesh.content_hash() != octree.mesh_hash:
        raise MeshMismatchError("octree was built from a different mesh")
    new_depth = octree.max_depth + 1
    if new_depth > 10:
        raise DepthRangeError("refinement would exceed the maximum depth of 10")

    tc = mesh.tri_coords()
    replaced: dict[int, OctantNode] = {}
    wave: list[tuple[OctantNode, np.ndarray]] = []
    for leaf in octree.leaves():
        if leaf.octant_class is not OctantClass.GREY:
            continue
        twin = OctantNode(
            box_min=leaf.box_min,
            box_max=leaf.box_max,
            depth=leaf.depth,
            octant_class=OctantClass.GREY,
            path_key=leaf.path_key,
        )
        replaced[id(leaf)] = twin
        wave.append((twin, leaf.tri_ids))

    if wave:
        rest, terminal = _advance_wave(mesh, tc, wave, new_depth, octree.seed)
        assert not rest  # grey leaves sit at max_depth, one step reaches new_depth
        _estimate_grey_volumes(mesh, terminal, octree.samples, octree.seed)

    def rebuild(node: OctantNode) -> OctantNode:
        if node.children is None:
            return replaced.get(id(node), node)
        kids = tuple(rebuild(c) for c in node.children)
        if all(k is c for k, c in zip(kids, node.children)):
            return node
        return OctantNode(
            box_min=node.box_min,
            box_max=node.box_max,
            depth=node.depth,
            octant_class=node.octant_class,
            path_key=node.path_key,
            children=kids,
        )

    tree = Octree(
        root=rebuild(octree.root),
        max_depth=new_depth,
        margin=octree.margin,
        samples=octree.samples,
        seed=octree.seed,
        mesh_hash=octree.mesh_hash,
        mesh_bbox_min=octree.mesh_bbox_min,
        mesh_bbox_max=octree.mesh_bbox_max,
        mesh_volume=octree.mesh_volume,
    )
    tree.fingerprint()
    return tree
