"""Shared dense-vector primitives.

Conventions used throughout the package:

* A single local descriptor ``x`` is a 1-D float64 array of length ``d``.
* Anchor points are stored column-wise: an anchor matrix ``C`` has shape
  ``(d, n)`` and ``C[:, j]`` is the j-th anchor.
* Batches of descriptors on the coding side are column-stacked, shape
  ``(d, m)``.  Collections of embedded vectors on the aggregation side are
  row-stacked, shape ``(m, D)``; the pivot happens in :mod:`faemb.pipeline`.
* Symmetric matrices travel as their flattened upper triangle in row-major
  order: ``(0,0), (0,1), ..., (0,d-1), (1,1), ..., (d-1,d-1)``.  A ``d x d``
  symmetric matrix therefore flattens to length ``d*(d+1)//2``.  No scaling
  is applied to off-diagonal entries.

All arithmetic is done in float64; file storage narrows descriptors to
float32 (see :mod:`faemb.storage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "tri_length",
    "l1_dist_cubed",
    "DescriptorSet",
    "stack_descriptors",
]


def tri_length(d: int) -> int:
    """Length of the flattened upper triangle of a ``d x d`` symmetric matrix."""
    if d < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {d}")
    return d * (d + 1) // 2


@lru_cache(maxsize=64)
def _triu_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(d)
    return rows, cols


def l1_dist_cubed(x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Cubed L1 distances from ``x`` to every anchor column.

    Returns a vector of length ``n`` with entries ``(sum_k |x_k - v_jk|)**3``.
    """
    x = np.asarray(x, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if x.ndim != 1 or anchors.ndim != 2 or anchors.shape[0] != x.shape[0]:
        raise ValueError(
            f"expected x (d,) and anchors (d, n); got {x.shape} and {anchors.shape}"
        )
    return np.abs(x[:, None] - anchors).sum(axis=0) ** 3


def l1_dist_cubed_batch(X: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Cubed L1 distances for a column batch: ``X (d, m)`` -> ``(n, m)``."""
    X = np.asarray(X, dtype=np.float64)
    return np.abs(X[:, None, :] - anchors[:, :, None]).sum(axis=0) ** 3


@dataclass(frozen=True)
class DescriptorSet:
    """All local descriptors extracted from one image.

    ``descriptors`` is row-stacked, shape ``(count, dim)``; the set must be
    non-empty and finite.
    """

    image_id: str
    descriptors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.descriptors, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(
                f"descriptor set for {self.image_id!r} is empty: shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"descriptor set for {self.image_id!r} contains non-finite values")
        object.__setattr__(self, "descriptors", arr)

    @property
    def count(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


def stack_descriptors(sets: list[DescriptorSet]) -> np.ndarray:
    """Concatenate the descriptors of several images into one ``(N, d)`` array."""
    if not sets:
        raise ValueError("no descriptor sets given")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError(f"descriptor sets have mixed dimensions: {sorted(dims)}")
    return np.concatenate([s.descriptors for s in sets], axis=0)
