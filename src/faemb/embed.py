"""Per-descriptor embeddings built from coding coefficients.

The main map sends a descriptor ``x`` with coefficients ``gamma`` to a
concatenation of per-anchor blocks.  Block ``j`` stacks an optional scaled
coefficient, an optional scaled residual ``gamma_j * (x - v_j)``, and the
coefficient-weighted flattened outer product of the residual with itself.
Only the upper triangle of the outer product is kept (the matrix is
symmetric), so with the default scale factors the embedded length is
``n * d * (d + 1) / 2``.

Hard-assignment embeddings (one active anchor, nearest in Euclidean
distance) are provided as reference points: the residual form and the
outer-product form.  A one-hot coefficient vector reduces the main map to
the latter exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coding import CodingModel
from .core import _triu_indices, tri_length

__all__ = [
    "EmbeddingConfig",
    "BoundInputs",
    "embedding_length",
    "embed_faemb",
    "embed_faemb_batch",
    "embed_vlad",
    "embed_vlat",
    "bound_faemb",
    "bound_ffaemb",
    "taylor_approx_error",
]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Scale factors for the zeroth- and first-order embedding blocks.

    Either factor set to zero removes its block from the output entirely
    (the default on both counts), leaving only the second-order block.
    """

    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("s1", "s2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def embedding_length(n: int, d: int, cfg: EmbeddingConfig | None = None) -> int:
    """Length of the embedded vector for ``n`` anchors in dimension ``d``."""
    cfg = cfg or EmbeddingConfig()
    per_anchor = tri_length(d)
    if cfg.s1 != 0.0:
        per_anchor += 1
    if cfg.s2 != 0.0:
        per_anchor += d
    return n * per_anchor


def _check_pair(x: np.ndarray, gamma: np.ndarray, model: CodingModel) -> None:
    if x.shape != (model.dim,):
        raise ValueError(f"x must have shape ({model.dim},), got {x.shape}")
    if gamma.shape != (model.n_anchors,):
        raise ValueError(
            f"gamma must have shape ({model.n_anchors},), got {gamma.shape}"
        )
    s = gamma.sum()
    if abs(s - 1.0) > 1e-6:
        raise ValueError(f"coefficients must sum to 1 (got {s!r})")


def embed_faemb(
    x: np.ndarray,
    gamma: np.ndarray,
    model: CodingModel,
    cfg: EmbeddingConfig | None = None,
) -> np.ndarray:
    """Embed one descriptor given its coding coefficients.

    Single-descriptor view of :func:`embed_faemb_batch`.
    """
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    _check_pair(x, gamma, model)
    return embed_faemb_batch(x[:, None], gamma[:, None], model, cfg)[0]


def embed_faemb_batch(
    X: np.ndarray,
    Gamma: np.ndarray,
    model: CodingModel,
    cfg: EmbeddingConfig | None = None,
) -> np.ndarray:
    """Embed column-stacked descriptors; returns a ``(m, L)`` matrix of rows."""
    cfg = cfg or EmbeddingConfig()
    X = np.asarray(X, dtype=np.float64)
    Gamma = np.asarray(Gamma, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != model.dim:
        raise ValueError(f"X must be ({model.dim}, m), got shape {X.shape}")
    if Gamma.shape != (model.n_anchors, X.shape[1]):
        raise ValueError(
            f"Gamma must be ({model.n_anchors}, {X.shape[1]}), got {Gamma.shape}"
        )
    dev = np.abs(Gamma.sum(axis=0) - 1.0).max() if Gamma.size else 0.0
    if dev > 1e-6:
        raise ValueError(f"coefficient columns must sum to 1 (worst deviation {dev:.3e})")
    d, n = model.dim, model.n_anchors
    m = X.shape[1]
    tri = tri_length(d)
    rows, cols = _triu_indices(d)
    with_s1 = cfg.s1 != 0.0
    with_s2 = cfg.s2 != 0.0
    per = tri + (1 if with_s1 else 0) + (d if with_s2 else 0)
    out = np.empty((m, n * per))
    C = model.anchors
    for j in range(n):
        pos = j * per
        R = X - C[:, j : j + 1]  # (d, m)
        gj = Gamma[j]  # (m,)
        if with_s1:
            out[:, pos] = cfg.s1 * gj
            pos += 1
        if with_s2:
            out[:, pos : pos + d] = (cfg.s2 * gj)[:, None] * R.T
            pos += d
        out[:, pos : pos + tri] = gj[:, None] * (R[rows] * R[cols]).T
    return out


def _nearest_anchor(x: np.ndarray, C: np.ndarray) -> int:
    diff = C - x[:, None]
    return int(np.argmin((diff * diff).sum(axis=0)))


def embed_vlad(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Hard-assignment residual embedding: one ``x - v*`` block, zeros elsewhere.

    Nearest anchor in Euclidean distance; ties resolve to the lowest index.
    """
    x = np.asarray(x, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if x.ndim != 1 or C.ndim != 2 or C.shape[0] != x.shape[0]:
        raise ValueError(f"incompatible shapes x {x.shape}, C {C.shape}")
    d, n = C.shape
    out = np.zeros(n * d)
    j = _nearest_anchor(x, C)
    out[j * d : (j + 1) * d] = x - C[:, j]
    return out


def embed_vlat(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Hard-assignment second-order embedding: flattened residual outer product."""
    x = np.asarray(x, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if x.ndim != 1 or C.ndim != 2 or C.shape[0] != x.shape[0]:
        raise ValueError(f"incompatible shapes x {x.shape}, C {C.shape}")
    d, n = C.shape
    tri = tri_length(d)
    rows, cols = _triu_indices(d)
    out = np.zeros(n * tri)
    j = _nearest_anchor(x, C)
    r = x - C[:, j]
    out[j * tri : (j + 1) * tri] = r[rows] * r[cols]
    return out


def bound_faemb(x: np.ndarray, gamma: np.ndarray, model: CodingModel, M: float) -> float:
    """Second-order approximation-error bound ``(M/6) sum_j |g_j| ||x-v_j||_1^3``."""
    if M <= 0:
        raise ValueError(f"M must be > 0, got {M}")
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    _check_pair(x, gamma, model)
    a = np.abs(x[:, None] - model.anchors).sum(axis=0) ** 3
    return float(M / 6.0 * (np.abs(gamma) @ a))


def bound_ffaemb(x: np.ndarray, gamma: np.ndarray, model: CodingModel, M: float) -> float:
    """Relaxed bound ``(n*M/6) ||g||_2^2 sum_j ||x-v_j||_1^3``; always >= the tight one."""
    if M <= 0:
        raise ValueError(f"M must be > 0, got {M}")
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    _check_pair(x, gamma, model)
    a = np.abs(x[:, None] - model.anchors).sum(axis=0) ** 3
    n = model.n_anchors
    return float(n * M / 6.0 * (gamma @ gamma) * a.sum())


@dataclass(frozen=True)
class BoundInputs:
    """Function oracles for the approximation-error harness.

    ``value``/``gradient`` are required; ``hessian`` only for ``k = 2``.
    ``M`` bounds the Lipschitz constant of the order-``k`` derivative on the
    region containing the evaluation point and the anchors.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None
    M: float
    k: int

    def __post_init__(self) -> None:
        if self.k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {self.k}")
        if not (np.isfinite(self.M) and self.M > 0):
            raise ValueError(f"M must be finite and > 0, got {self.M}")
        if self.k == 2 and self.hessian is None:
            raise ValueError("k = 2 requires a hessian oracle")


def taylor_approx_error(
    inputs: BoundInputs, x: np.ndarray, gamma: np.ndarray, model: CodingModel
) -> tuple[float, float]:
    """Evaluate both sides of the approximation-error inequality.

    Returns ``(lhs, rhs)`` where ``lhs`` is the absolute error of the
    coefficient-blended order-``k`` Taylor approximation of ``f`` around the
    anchors, and ``rhs = (M/(k+1)!) sum_j |g_j| ||x-v_j||_1^(k+1)``.
    The inequality ``lhs <= rhs`` holds whenever ``M`` is a valid Lipschitz
    constant for the order-``k`` derivative of ``f``.
    """
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    _check_pair(x, gamma, model)
    C = model.anchors
    approx = 0.0
    for j in range(model.n_anchors):
        v = C[:, j]
        r = x - v
        t = inputs.value(v) + float(inputs.gradient(v) @ r)
        if inputs.k == 2:
            assert inputs.hessian is not None
            t += 0.5 * float(r @ inputs.hessian(v) @ r)
        approx += gamma[j] * t
    lhs = abs(inputs.value(x) - approx)
    fact = 2.0 if inputs.k == 1 else 6.0
    l1 = np.abs(x[:, None] - C).sum(axis=0)
    rhs = float(inputs.M / fact * (np.abs(gamma) @ (l1 ** (inputs.k + 1))))
    return lhs, rhs
