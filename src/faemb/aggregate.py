"""From a bag of embedded descriptors to a single image signature.

Stages, in pipeline order:

1. whitening with optional removal of the leading principal components
   (the most bursty, co-occurrence-driven directions),
2. democratic weighting, which equalizes each descriptor's inner product
   with the aggregated sum,
3. sum aggregation,
4. signed power-law normalization,
5. unit normalization,
6. optionally, rotation normalization learned on aggregated signatures,
   with truncation for short representations.

Whitening and rotation models are fitted once on training material and are
immutable afterwards; application is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

__all__ = [
    "WhiteningModel",
    "ImageSignature",
    "DemocraticResult",
    "fit_whitening",
    "whiten",
    "whiten_batch",
    "democratic_weights",
    "sum_weights",
    "aggregate_image",
    "power_law",
    "l2_normalize",
    "fit_rotation_norm",
    "apply_rn",
]

_T = TypeVar("_T")

_ZERO_NORM = 1e-10  # descriptors below this norm are excluded from weighting
_BLOCK_ROWS = 2048  # cap on the rows of a whitening fit's block (see _row_groups)

# Fixed settings of democratic weighting: the residual it must meet, the cap
# on diagonal-scaling iterations, the cap on Newton polish steps, and the
# stall rule: the polish stops after this many consecutive accepted steps
# that each keep the residual above this fraction of its previous value.
_DEM_TOL = 1e-3
_DEM_MAX_ITERS = 100
_POLISH_MAX_STEPS = 25
_POLISH_STALL_STEPS = 2
_POLISH_STALL_RATIO = 0.99


@dataclass(frozen=True)
class WhiteningModel:
    """Scaled PCA projection ``x -> (x - mean) @ basis``.

    ``basis`` holds covariance eigenvectors of the training data as columns,
    each divided by the square root of its eigenvalue, shape
    ``(dim, out_dim)``, stored C-contiguous so that a fitted model and the
    same model read back from a file round alike.  Whitening keeps the
    trailing columns after dropping the leading ones; rotation normalization
    keeps the leading columns with a zero mean, so it does not center.
    ``floored`` counts the kept directions whose eigenvalue was raised to
    the ``eps`` floor at fitting time.  Model files store it; it is ``None``
    when unknown (a model built from bare arrays, or a file without it).
    """

    mean: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    floored: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or not (
            basis.shape[0] == mean.shape[0] >= basis.shape[1] >= 1
        ):
            raise ValueError(
                f"inconsistent whitening model shapes: mean {mean.shape}, basis {basis.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ImageSignature:
    """Final fixed-length image representation.

    Unit Euclidean norm unless ``degenerate`` is set (an image whose
    aggregate came out exactly zero keeps a zero vector instead of NaNs).
    """

    values: np.ndarray = field(repr=False)
    image_id: str = ""
    degenerate: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"signature values must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("signature contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DemocraticResult:
    weights: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _row_groups(items: Iterable[_T], rows: Callable[[_T], int], dim: int) -> Iterator[list[_T]]:
    """Consecutive ``items`` gathered into groups of ``min(dim, 2048)`` rows or more.

    This is the one rule that cuts training vectors of length ``dim`` into
    the blocks a whitening fit accumulates: whole images until a block has
    as many rows as the vectors have dimensions, so a block is about the
    size of the D x D sums it updates, or 2,048 rows for longer vectors,
    where the product that updates the sums still runs within about 10% of
    one unblocked product.  Only the last group may hold fewer rows, so
    grouping groups that this rule made returns them unchanged.
    """
    target = min(dim, _BLOCK_ROWS)
    group, count = [], 0
    for item in items:
        group.append(item)
        count += rows(item)
        if count >= target:
            yield group
            group, count = [], 0
    if group:
        yield group


def _moments(blocks: np.ndarray | Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of samples given as row blocks, ``N >= 2`` rows.

    ``blocks`` is one ``(N, D)`` matrix (a single block) or an iterable of
    ``(m, D)`` blocks, read once and in order and grouped by
    :func:`_row_groups`.  Each group is centered on the first group's mean
    ``c`` and accumulated as shifted sums (Chan, Golub & LeVeque, 1983),
    ``S += Bc.T @ Bc`` and ``s += Bc.sum(axis=0)``; then
    ``cov = (S - outer(s, s) / N) / (N - 1)`` and ``mean = c + s / N``.  No
    ``(N, D)`` array is formed: besides ``S`` and the product that updates
    it, memory holds one group and its centered copy.
    """
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    rows = (np.asarray(B, dtype=np.float64) for B in blocks)
    first = next(rows, None)
    if first is None or first.ndim != 2:
        raise ValueError("training vectors must come as 2-D row blocks")
    D = first.shape[1]
    N, c, S, s = 0, None, None, None
    for group in _row_groups(itertools.chain([first], rows), len, D):
        if any(B.ndim != 2 or B.shape[1] != D for B in group):
            raise ValueError(f"every row block must be 2-D with {D} columns")
        B = np.ascontiguousarray(group[0] if len(group) == 1 else np.concatenate(group))
        if c is None:
            c = B.mean(axis=0) if len(B) else np.zeros(D)
            S, s = np.zeros((D, D)), np.zeros(D)
        Bc = B - c
        S += Bc.T @ Bc
        s += Bc.sum(axis=0)
        N += len(B)
    if N < 2:
        raise ValueError(f"need at least 2 training vectors, got {N}")
    S -= np.outer(s, s) / N
    S /= N - 1
    return c + s / N, S


def _pca(cov: np.ndarray, cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of ``cov`` in descending order (clipped at 0) and the
    eigenvectors at positions ``cols`` of that order (default all) as columns.
    """
    lam, P = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    return np.maximum(lam[order], 0.0), P[:, order[cols]]


def _scaled_basis(cov: np.ndarray, cols: slice, eps: float | None) -> tuple[np.ndarray, int]:
    """The principal directions ``cols`` of ``cov``, each scaled by the inverse
    square root of its eigenvalue floored at ``eps``, and how many of those
    eigenvalues the floor raised.
    """
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lam, P = _pca(cov, cols)
    if eps is None:
        eps = 1e-10 * max(lam[0], np.finfo(np.float64).tiny)
    kept = lam[cols]
    return P / np.sqrt(np.maximum(kept, eps)), int((kept < eps).sum())


def fit_whitening(
    Phi_train: np.ndarray | Iterable[np.ndarray], drop: int = 0, eps: float | None = None
) -> WhiteningModel:
    """Fit the whitening model on embedded vectors.

    ``Phi_train`` is one ``(N, D)`` matrix, or an iterable of ``(m, D)`` row
    blocks such as one matrix per image.  Blocks are read once, in order,
    and accumulated group by group (see :func:`_moments`), so memory is
    O(D^2) plus one group, never N x D.  The groups depend only on the block
    sizes: a list of per-image matrices gives the ``fit-agg`` subcommand's
    model bit for bit.

    The ``drop`` leading principal directions are removed.  ``eps`` floors
    the eigenvalues before the inverse square root, so rank-deficient
    training data cannot blow up; it defaults to ``1e-10`` times the largest.
    The model's ``floored`` counts the kept directions it raised.
    """
    if drop < 0:
        raise ValueError(f"drop must be >= 0, got {drop}")
    mean, cov = _moments(Phi_train)
    if drop >= len(mean):
        raise ValueError(f"drop must satisfy 0 <= drop < {len(mean)}, got {drop}")
    basis, floored = _scaled_basis(cov, slice(drop, None), eps)
    return WhiteningModel(mean=mean, basis=basis, floored=floored)


def whiten(phi: np.ndarray, model: WhiteningModel) -> np.ndarray:
    """Center, rotate, scale, and drop the leading components of one vector.

    Single-vector view of :func:`whiten_batch`.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (model.dim,):
        raise ValueError(f"expected length {model.dim}, got shape {phi.shape}")
    return whiten_batch(phi[None, :], model)[0]


def whiten_batch(Phi: np.ndarray, model: WhiteningModel) -> np.ndarray:
    """Center, rotate, scale, and drop the leading components of each row."""
    Phi = np.asarray(Phi, dtype=np.float64)
    if Phi.ndim != 2 or Phi.shape[1] != model.dim:
        raise ValueError(f"expected (*, {model.dim}), got shape {Phi.shape}")
    return (Phi - model.mean) @ model.basis


def democratic_weights(Phi_w: np.ndarray) -> DemocraticResult:
    """Per-descriptor weights equalizing contributions to the aggregate.

    Solves for ``lam >= 0`` with ``lam_i * (phi_i . sum_j lam_j phi_j) = 1``
    for every descriptor of non-negligible norm, by up to 100 diagonal
    scaling iterations on the clipped Gram matrix.  When scaling alone has not
    brought the residual to 1e-3, up to 25 damped Newton steps on the
    unclipped matrix follow.  The polish stops early once it has stalled:
    after two consecutive accepted steps that each leave the residual above
    99% of its previous value, or after a line search of 30 halvings finds
    no lower residual.  Its point is kept only if it meets 1e-3, else the
    best scaling iterate comes back with its residual and
    ``converged=False``.  Descriptors with norm below 1e-10 get weight 0 and
    are excluded from the condition.
    """
    Phi = np.asarray(Phi_w, dtype=np.float64)
    if Phi.ndim != 2 or Phi.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix of descriptor rows")
    if not np.isfinite(Phi).all():
        raise ValueError("descriptors contain non-finite values")
    N = Phi.shape[0]
    norms = np.sqrt((Phi * Phi).sum(axis=1))
    active = norms >= _ZERO_NORM
    if not active.any():
        raise ValueError("all descriptors have (near-)zero norm; condition unsatisfiable")
    A = Phi[active]
    K = A @ A.T
    Kpos = np.maximum(K, 0.0)
    lam = np.ones(A.shape[0])

    def residual_of(v: np.ndarray) -> float:
        return float(np.abs(v * (K @ v) - 1.0).max())

    best = lam.copy()
    best_res = residual_of(lam)
    it = 0
    for it in range(1, _DEM_MAX_ITERS + 1):
        s = lam * (Kpos @ lam)
        s = np.maximum(s, np.finfo(np.float64).tiny)
        lam = lam / np.sqrt(s)
        res = residual_of(lam)
        if res < best_res:
            best, best_res = lam.copy(), res
        if res <= _DEM_TOL:
            break
    if best_res > _DEM_TOL:
        polished, polished_res, extra = _newton_polish(K, best)
        it += extra
        if polished_res <= _DEM_TOL:
            best, best_res = polished, polished_res
    weights = np.zeros(N)
    weights[active] = best
    return DemocraticResult(
        weights=weights,
        residual=best_res,
        iterations=it,
        converged=best_res <= _DEM_TOL,
    )


def _newton_polish(K: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Damped Newton steps on F(lam) = lam*(K lam) - 1, keeping lam > 0."""
    def res(v: np.ndarray) -> float:
        return float(np.abs(v * (K @ v) - 1.0).max())

    cur = res(lam)
    steps = stalled = 0
    for steps in range(1, _POLISH_MAX_STEPS + 1):
        if cur <= 0.1 * _DEM_TOL:
            break
        Kl = K @ lam
        F = lam * Kl - 1.0
        J = np.diag(Kl) + lam[:, None] * K
        try:
            dlam = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        alpha, accepted = 1.0, False
        for _ in range(30):
            trial = lam + alpha * dlam
            if (trial > 0).all():
                t = res(trial)
                if t < cur:
                    stalled = stalled + 1 if t > _POLISH_STALL_RATIO * cur else 0
                    lam, cur, accepted = trial, t, True
                    break
            alpha *= 0.5
        if not accepted or stalled == _POLISH_STALL_STEPS:
            break
    return lam, cur, steps


def sum_weights(count: int) -> np.ndarray:
    """All-ones weights: plain sum pooling, the baseline aggregation mode."""
    if count < 1:
        raise ValueError("need at least one descriptor")
    return np.ones(count)


def aggregate_image(Phi_w: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of descriptor rows: the raw (pre-normalization) signature."""
    Phi = np.asarray(Phi_w, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if Phi.ndim != 2 or w.shape != (Phi.shape[0],):
        raise ValueError(
            f"shape mismatch: descriptors {Phi.shape}, weights {w.shape}"
        )
    return w @ Phi


def power_law(psi: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Signed power normalization ``sign(a) * |a|**alpha``; identity at alpha=1."""
    if not (np.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    psi = np.asarray(psi, dtype=np.float64)
    return np.sign(psi) * np.abs(psi) ** alpha


def l2_normalize(psi: np.ndarray, image_id: str = "") -> ImageSignature:
    """Unit-normalize into an :class:`ImageSignature`.

    A zero input produces a zero signature flagged ``degenerate`` instead of
    dividing by zero, so batch jobs keep going on empty images.
    """
    psi = np.asarray(psi, dtype=np.float64)
    norm = float(np.linalg.norm(psi))
    if norm < 1e-12:
        return ImageSignature(values=np.zeros_like(psi), image_id=image_id, degenerate=True)
    return ImageSignature(values=psi / norm, image_id=image_id)


def fit_rotation_norm(
    Psi_train: np.ndarray, keep: int, eps: float | None = None
) -> WhiteningModel:
    """Fit the signature-level rotation on row-stacked full-length signatures.

    The model keeps the ``keep`` leading principal directions and has a zero
    mean: it is applied without centering.  ``eps`` is as in
    :func:`fit_whitening`.
    """
    Psi = np.asarray(Psi_train, dtype=np.float64)
    if Psi.ndim != 2:
        raise ValueError(f"training matrix must be 2-D, got shape {Psi.shape}")
    N, D = Psi.shape
    if N < 2:
        raise ValueError(f"need at least 2 training signatures, got {N}")
    if not (1 <= keep <= D):
        raise ValueError(f"keep must lie in [1, {D}], got {keep}")
    basis, floored = _scaled_basis(_moments(Psi)[1], slice(keep), eps)
    return WhiteningModel(mean=np.zeros(D), basis=basis, floored=floored)


def apply_rn(psi: ImageSignature, model: WhiteningModel) -> ImageSignature:
    """Rotate, truncate to the model's ``out_dim`` components, and re-unit-normalize.

    A degenerate signature comes out as a degenerate zero signature.
    """
    y = whiten(psi.values, model)
    return l2_normalize(np.zeros_like(y) if psi.degenerate else y, image_id=psi.image_id)
