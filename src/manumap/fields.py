"""Shared containers and small math helpers for difficulty indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import EmptyFieldError, FieldValueError


def clamp01(value: float) -> float:
    """Clamp a scalar difficulty to the canonical [0, 1] range."""
    return float(min(1.0, max(0.0, value)))


def fit_ratio(extents, limits) -> float:
    """Smallest worst-axis ratio of part extents to capacity limits.

    All six axis assignments are tried; the best orientation's worst ratio
    comes back unclamped, so callers can tell a snug fit from no fit.
    """
    ext = np.asarray(extents, dtype=np.float64)
    lim = np.asarray(limits, dtype=np.float64)
    if ext.shape != (3,) or lim.shape != (3,):
        raise ValueError("extents and limits must be 3-vectors")
    if (lim <= 0).any():
        raise ValueError("capacity limits must be positive")
    best = np.inf
    for perm in permutations(range(3)):
        worst = float(np.max(ext[list(perm)] / lim))
        best = min(best, worst)
    return best


@dataclass(frozen=True, eq=False)
class LocalIndexField:
    """Per-leaf difficulty values over the grey boxes of one octree.

    values[i] belongs to the i-th grey leaf in Morton order and volumes[i]
    is that leaf's estimated part volume; octree_hash ties the field to the
    decomposition it was computed on.
    """

    index_id: str
    values: np.ndarray
    volumes: np.ndarray
    octree_hash: str = ""
    path_keys: tuple[int, ...] = field(default=())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalIndexField):
            return NotImplemented
        return (
            self.index_id == other.index_id
            and self.octree_hash == other.octree_hash
            and self.path_keys == other.path_keys
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.volumes, other.volumes)
        )

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vols = np.asarray(self.volumes, dtype=np.float64)
        if vals.ndim != 1 or vols.shape != vals.shape:
            raise FieldValueError("values and volumes must be 1-D arrays of equal length")
        if len(vals) == 0:
            raise EmptyFieldError(f"field {self.index_id!r} has no grey leaves")
        # written so that NaN fails: a NaN value or volume would reach every total
        if not ((vals >= 0) & (vals <= 1)).all():
            raise FieldValueError(f"field {self.index_id!r} values must lie in [0, 1]")
        if not ((vols >= 0) & (vols < np.inf)).all():
            raise FieldValueError(f"field {self.index_id!r} volumes must be finite and >= 0")
        if self.path_keys and len(self.path_keys) != len(vals):
            raise FieldValueError(f"field {self.index_id!r} path keys and values differ in length")
        vals.setflags(write=False)
        vols.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "volumes", vols)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def max_value(self) -> float:
        return float(self.values.max())


def grey_field(index_id: str, octree, values) -> LocalIndexField:
    """A field of ``values`` over ``octree``'s grey leaves, holding the octree's grey-leaf columns."""
    volumes, path_keys = octree._grey_columns()
    return LocalIndexField(
        index_id=index_id,
        values=values,
        volumes=volumes,
        octree_hash=octree.fingerprint()["content_hash"],
        path_keys=path_keys,
    )
