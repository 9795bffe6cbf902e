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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WhiteningModel",
    "ImageSignature",
    "RotationNormModel",
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

_ZERO_NORM = 1e-10  # descriptors below this norm are excluded from weighting

# Fixed settings of democratic weighting: the residual it must meet, the cap
# on diagonal-scaling iterations and the cap on Newton polish steps.
_DEM_TOL = 1e-3
_DEM_MAX_ITERS = 100
_POLISH_MAX_STEPS = 25


@dataclass(frozen=True)
class WhiteningModel:
    """Centering + decorrelating projection with leading-component removal.

    ``projection`` holds eigenvectors of the training covariance as columns,
    ordered by descending eigenvalue.  ``eps`` floors the eigenvalues before
    the inverse square root so rank-deficient training data cannot blow up.
    ``_basis`` is derived from those: the scaled projection with the
    ``drop`` leading columns removed, shape ``(dim, out_dim)``.
    """

    mean: np.ndarray = field(repr=False)
    projection: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    drop: int
    eps: float
    _basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        P = np.asarray(self.projection, dtype=np.float64)
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        D = mean.shape[0]
        if mean.ndim != 1 or P.shape != (D, D) or lam.shape != (D,):
            raise ValueError("inconsistent whitening model shapes")
        if np.any(np.diff(lam) > 1e-9 * max(1.0, abs(lam[0]))):
            raise ValueError("eigenvalues must be sorted in descending order")
        if not (0 <= self.drop < D):
            raise ValueError(f"drop must satisfy 0 <= drop < {D}, got {self.drop}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", P)
        object.__setattr__(self, "eigenvalues", lam)
        keep = slice(self.drop, None)
        basis = P[:, keep] / np.sqrt(np.maximum(lam[keep], self.eps))
        object.__setattr__(self, "_basis", basis)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def out_dim(self) -> int:
        return self.dim - self.drop


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
class RotationNormModel:
    """Whitening-style rotation learned on aggregated signatures.

    Applied without centering; ``keep`` truncates to a short representation.
    """

    rotation: np.ndarray = field(repr=False)
    keep: int

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError(f"rotation must be square, got shape {R.shape}")
        if not (1 <= self.keep <= R.shape[0]):
            raise ValueError(f"keep must lie in [1, {R.shape[0]}], got {self.keep}")
        object.__setattr__(self, "rotation", R)


@dataclass(frozen=True)
class DemocraticResult:
    weights: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _pca(
    X: np.ndarray, keep: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Principal components of row-stacked samples ``X (N, D)``, ``N >= 2``.

    Returns the mean, the centered rows, all covariance eigenvalues in
    descending order (clipped at 0) and the eigenvectors of the leading
    ``keep`` (default all) of them as columns.
    """
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    lam, P = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    return mean, Xc, np.maximum(lam[order], 0.0), P[:, order[:keep]]


def fit_whitening(
    Phi_train: np.ndarray, drop: int = 0, eps: float | None = None
) -> WhiteningModel:
    """Fit the whitening model on row-stacked embedded vectors.

    ``eps`` defaults to ``1e-10`` times the largest eigenvalue.
    """
    Phi = np.asarray(Phi_train, dtype=np.float64)
    if Phi.ndim != 2:
        raise ValueError(f"training matrix must be 2-D, got shape {Phi.shape}")
    N, D = Phi.shape
    if N < 2:
        raise ValueError(f"need at least 2 training vectors, got {N}")
    if not (0 <= drop < D):
        raise ValueError(f"drop must satisfy 0 <= drop < {D}, got {drop}")
    mean, _, lam, P = _pca(Phi)
    if eps is None:
        eps = 1e-10 * max(lam[0], np.finfo(np.float64).tiny)
    return WhiteningModel(mean=mean, projection=P, eigenvalues=lam, drop=drop, eps=eps)


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
    return (Phi - model.mean) @ model._basis


def democratic_weights(Phi_w: np.ndarray) -> DemocraticResult:
    """Per-descriptor weights equalizing contributions to the aggregate.

    Solves for ``lam >= 0`` with ``lam_i * (phi_i . sum_j lam_j phi_j) = 1``
    for every descriptor of non-negligible norm, by up to 100 diagonal
    scaling iterations on the clipped Gram matrix followed by up to 25 damped
    Newton steps on the unclipped one when scaling alone has not brought the
    residual to 1e-3.  Descriptors with norm below 1e-10 get weight 0 and are
    excluded from the condition.
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
    lam = best
    if best_res > _DEM_TOL:
        lam, best_res, extra = _newton_polish(K, lam)
        it += extra
    weights = np.zeros(N)
    weights[active] = lam
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
    steps = 0
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
                    lam, cur, accepted = trial, t, True
                    break
            alpha *= 0.5
        if not accepted:
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
) -> RotationNormModel:
    """Fit the signature-level rotation on row-stacked full-length signatures."""
    Psi = np.asarray(Psi_train, dtype=np.float64)
    if Psi.ndim != 2:
        raise ValueError(f"training matrix must be 2-D, got shape {Psi.shape}")
    N, D = Psi.shape
    if N < 2:
        raise ValueError(f"need at least 2 training signatures, got {N}")
    if not (1 <= keep <= D):
        raise ValueError(f"keep must lie in [1, {D}], got {keep}")
    _, _, lam, P = _pca(Psi)
    if eps is None:
        eps = 1e-10 * max(lam[0], np.finfo(np.float64).tiny)
    rotation = (P / np.sqrt(np.maximum(lam, eps))).T
    return RotationNormModel(rotation=rotation, keep=keep)


def apply_rn(psi: ImageSignature, model: RotationNormModel) -> ImageSignature:
    """Rotate, truncate to ``keep`` components, and re-unit-normalize."""
    D = model.rotation.shape[0]
    if psi.dim != D:
        raise ValueError(f"expected signature length {D}, got {psi.dim}")
    if psi.degenerate:
        return ImageSignature(
            values=np.zeros(model.keep), image_id=psi.image_id, degenerate=True
        )
    y = (model.rotation @ psi.values)[: model.keep]
    return l2_normalize(y, image_id=psi.image_id)
