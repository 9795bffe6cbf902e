"""Coordinate coding of local descriptors against a learned anchor set.

Two coders are provided for the same family of objectives.  For one
descriptor ``x`` and anchors ``C = [v_1 .. v_n]`` with coefficients summing
to one:

* ``ffaemb_gamma`` minimizes the ridge-style per-sample objective
  ``0.5*||x - C g||^2 + 0.5*mu*||g||^2 * sum_j a_j`` in closed form, where
  ``a_j = ||x - v_j||_1^3``.
* ``faemb_gamma`` minimizes ``0.5*||x - C g||^2 + 0.5*mu*sum_j |g_j| a_j``
  by a damped equality-constrained Newton iteration on the sign-linearized
  objective (``sign(0) = 0``), followed by an exact active-set refinement
  over sign orthants.  The distance-weighted absolute values act like a
  weighted lasso, so minimizers may pin coefficients exactly to zero; the
  refinement handles those kinks that the plain damped iteration cannot.
  The damped phase is only a warm start with fixed settings: a column hands
  off to the refinement as soon as a step fails to lower its objective or
  its Newton decrement is small enough, whichever comes first.  With
  ``mu == 0`` the objective is a plain constrained least-squares problem,
  solved directly.

Both coders work on column-stacked batches (``ffaemb_gamma_batch``,
``faemb_gamma_batch``); the single-descriptor functions are views of them.

``train_coding`` alternates per-sample coefficient solves with exact
coordinate-descent updates of the anchors (``update_anchors``), keeping the
batch objective non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .core import l1_dist_cubed, l1_dist_cubed_batch

__all__ = [
    "VARIANTS",
    "STATIONARITY_TOL",
    "CodingModel",
    "SolverParams",
    "NewtonSolution",
    "BatchNewtonSolution",
    "TrainResult",
    "SingularSystemError",
    "kmeans_init",
    "ffaemb_gamma",
    "ffaemb_gamma_batch",
    "faemb_gamma",
    "faemb_gamma_batch",
    "gamma_gradient",
    "objective",
    "per_sample_objective",
    "anchor_gradient",
    "update_anchors",
    "train_coding",
]

Variant = Literal["faemb", "ffaemb"]
VARIANTS: tuple[str, ...] = ("faemb", "ffaemb")

# Contract-level convergence threshold for the Newton coder: the solution is
# reported as converged when the KKT residual is at or below this value.
STATIONARITY_TOL = 1e-5

# Fixed settings of the damped Newton warm start: the decrement criterion
# ``delta^2 / 2 <= _NEWTON_TOL``, the step length and the iteration cap.
_NEWTON_TOL = 1e-6
_NEWTON_STEP = 0.1
_NEWTON_MAX_ITERS = 500


class SingularSystemError(ValueError):
    """Raised when a coding system is singular; typically mu == 0 with
    rank-deficient anchors.  Setting mu > 0 regularizes the system."""


@dataclass(frozen=True)
class CodingModel:
    """Learned anchors plus the coding objective they were trained for.

    ``anchors`` has shape ``(d, n)`` with anchors as columns.
    """

    anchors: np.ndarray = field(repr=False)
    mu: float
    variant: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.anchors, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"anchors must be a (d, n) matrix, got shape {arr.shape}")
        d, n = arr.shape
        if n < 1:
            raise ValueError(f"need at least 1 anchor, got {n}")
        if d < 1:
            raise ValueError("anchor dimension must be >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("anchors contain non-finite values")
        if not (np.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for j in range(n - 1):
            dup = np.abs(arr[:, j + 1 :] - arr[:, j : j + 1]).max(axis=0) <= 1e-12
            if dup.any():
                k = j + 1 + int(np.flatnonzero(dup)[0])
                raise ValueError(f"anchors {j} and {k} coincide (within 1e-12)")
        object.__setattr__(self, "anchors", arr)
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def dim(self) -> int:
        return self.anchors.shape[0]

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[1]


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the alternating trainer."""

    max_outer_iters: int = 20
    outer_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be >= 0")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")


@dataclass(frozen=True)
class NewtonSolution:
    """Result of one ``faemb_gamma`` solve.

    ``iterations`` counts damped Newton iterations (0 when ``mu == 0``);
    ``refine_steps`` counts orthant solves in the active-set refinement (1
    for the direct ``mu == 0`` solve).  ``decrement_iteration`` is the
    iteration whose Newton decrement satisfied ``delta^2 / 2 <= 1e-6`` (None
    if the damped phase handed off, or never ran, before reaching it).
    ``stationarity`` is ``max_j |grad_j + w|`` with the sign-linearized
    gradient (``sign(0) = 0``); at a solution with exact zeros this may stay
    at the size of the corresponding penalty weight even though the point is
    optimal, which is what ``kkt_residual`` measures (it accounts for the
    subdifferential at zero).
    """

    gamma: np.ndarray
    iterations: int
    refine_steps: int
    decrement_iteration: int | None
    stationarity: float
    kkt_residual: float
    converged: bool


@dataclass(frozen=True)
class BatchNewtonSolution:
    """Result of one ``faemb_gamma_batch`` solve; arrays over samples.

    Fields mean what they mean in :class:`NewtonSolution`, per column.
    ``decrement_iterations`` uses -1 where the criterion was never met.
    """

    gamma: np.ndarray
    iterations: np.ndarray
    refine_steps: np.ndarray
    decrement_iterations: np.ndarray
    stationarity: np.ndarray
    kkt_residual: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class TrainResult:
    """Trained model, final coefficients and the objective trace.

    ``anchor_sweeps`` and ``anchor_converged`` hold one entry per outer
    iteration: the coordinate-descent sweeps the anchor update ran, and
    whether its move test stopped them before the sweep cap.
    """

    model: CodingModel
    gamma: np.ndarray
    trace: np.ndarray
    anchor_sweeps: np.ndarray
    anchor_converged: np.ndarray


# ---------------------------------------------------------------------------
# anchor initialization


def kmeans_init(X: np.ndarray, n: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Deterministic k-means anchors for ``X`` of shape ``(d, m)``.

    Greedy distance-weighted seeding followed by Lloyd iterations.  A cluster
    that empties is re-seeded to the point currently farthest from its
    assigned centroid.  Returns anchors of shape ``(d, n)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be (d, m), got shape {X.shape}")
    d, m = X.shape
    if n < 1:
        raise ValueError("need n >= 1 clusters")
    if m < n:
        raise ValueError(f"need at least n={n} samples, got m={m}")
    pts = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(seed)

    centers = np.empty((n, d))
    centers[0] = pts[rng.integers(m)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for k in range(1, n):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(m, p=d2 / total))
        else:
            idx = int(rng.integers(m))
        centers[k] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[k]) ** 2).sum(axis=1))

    sq = (pts * pts).sum(axis=1)
    assign = np.full(m, -1)
    for _ in range(max_iters):
        dist2 = sq[:, None] - 2.0 * (pts @ centers.T) + (centers * centers).sum(axis=1)
        new_assign = dist2.argmin(axis=1)
        here = dist2[np.arange(m), new_assign]
        for j in range(n):
            if not (new_assign == j).any():
                far = int(here.argmax())
                centers[j] = pts[far]
                new_assign[far] = j
                here[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(n):
            members = assign == j
            centers[j] = pts[members].mean(axis=0)
    return centers.T.copy()


# ---------------------------------------------------------------------------
# shared pieces


def _penalty_weights(X: np.ndarray, model: CodingModel) -> np.ndarray:
    """Per-sample kink weights ``0.5 * mu * a_j`` as an (n, m) matrix."""
    return 0.5 * model.mu * l1_dist_cubed_batch(X, model.anchors)


def _as_column(x: np.ndarray, model: CodingModel) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"x must have shape ({model.dim},), got {x.shape}")
    return x[:, None]


def _bordered(H: np.ndarray) -> np.ndarray:
    """The KKT matrix ``[[H, 1], [1^T, 0]]`` of a sum-to-one quadratic."""
    n = H.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = H
    M[n, :n] = 1.0
    M[:n, n] = 1.0
    return M


def _bordered_inverse(H: np.ndarray) -> np.ndarray:
    """Inverse of ``[[H, 1], [1^T, 0]]``; raises SingularSystemError."""
    try:
        return np.linalg.inv(_bordered(H))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "the constrained coding system is singular; use regularization mu > 0 "
            "or full-rank anchors"
        ) from exc


def gamma_gradient(x: np.ndarray, gamma: np.ndarray, model: CodingModel) -> np.ndarray:
    """Analytic gradient of the per-sample coding objective at ``gamma``.

    Uses the ``sign(0) = 0`` convention for the faemb variant, where the
    objective is non-differentiable at zero coefficients.
    """
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    C = model.anchors
    a = l1_dist_cubed(x, C)
    smooth = C.T @ (C @ gamma - x)
    if model.variant == "faemb":
        return smooth + 0.5 * model.mu * np.sign(gamma) * a
    return smooth + model.mu * a.sum() * gamma


# ---------------------------------------------------------------------------
# closed-form coder


def ffaemb_gamma(x: np.ndarray, model: CodingModel) -> np.ndarray:
    """Closed-form sum-to-one coefficients for the ridge-style objective.

    Single-descriptor view of :func:`ffaemb_gamma_batch`.
    """
    return ffaemb_gamma_batch(_as_column(x, model), model)[:, 0]


def ffaemb_gamma_batch(
    X: np.ndarray, model: CodingModel, chunk: int = 8192
) -> np.ndarray:
    """Closed-form coefficients for column-stacked descriptors.

    ``X`` has shape ``(d, m)``; returns coefficients ``(n, m)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != model.dim:
        raise ValueError(f"X must be ({model.dim}, m), got shape {X.shape}")
    C = model.anchors
    n = model.n_anchors
    m = X.shape[1]
    H = C.T @ C
    CtX = C.T @ X
    out = np.empty((n, m))
    eye = np.eye(n)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        a_tot = l1_dist_cubed_batch(X[:, lo:hi], C).sum(axis=0)
        G = H[None, :, :] + (model.mu * a_tot)[:, None, None] * eye[None]
        rhs = np.empty((hi - lo, n, 2))
        rhs[:, :, 0] = CtX[:, lo:hi].T
        rhs[:, :, 1] = 1.0
        try:
            sol = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "coding system is singular (rank-deficient anchors with mu == 0); "
                "set mu > 0 to regularize"
            ) from exc
        y1 = sol[:, :, 0]
        y2 = sol[:, :, 1]
        lam = (y1.sum(axis=1) - 1.0) / y2.sum(axis=1)
        out[:, lo:hi] = (y1 - lam[:, None] * y2).T
    if not np.isfinite(out).all():
        raise SingularSystemError(
            "coding solve produced non-finite coefficients; set mu > 0 to regularize"
        )
    return out


# ---------------------------------------------------------------------------
# Newton coder


def faemb_gamma(x: np.ndarray, model: CodingModel) -> NewtonSolution:
    """Sum-to-one coefficients for the kinked (absolute-value) objective.

    Single-descriptor view of :func:`faemb_gamma_batch`.
    """
    sol = faemb_gamma_batch(_as_column(x, model), model)
    dec = int(sol.decrement_iterations[0])
    return NewtonSolution(
        gamma=sol.gamma[:, 0],
        iterations=int(sol.iterations[0]),
        refine_steps=int(sol.refine_steps[0]),
        decrement_iteration=dec if dec >= 0 else None,
        stationarity=float(sol.stationarity[0]),
        kkt_residual=float(sol.kkt_residual[0]),
        converged=bool(sol.converged[0]),
    )


def faemb_gamma_batch(X: np.ndarray, model: CodingModel) -> BatchNewtonSolution:
    """Coefficients for the kinked objective, column-stacked descriptors.

    Phase 1 is a warm start: damped equality-constrained Newton steps of
    fixed length 0.1 from the uniform coefficients.  A column hands off to
    phase 2 at the first step that fails to lower its objective (by more
    than 1e-13 relative), when its Newton decrement meets
    ``delta^2/2 <= 1e-6``, or after 500 steps.  Phase 2 refines to the exact
    minimizer by walking sign orthants (each step solves the KKT system
    restricted to the orthant's support and either accepts it or
    clamps/releases a coordinate).  A column that met the decrement test
    starts the walk from its Newton signs; any other starts from the signs
    of the thresholded closed-form ridge solution.

    With ``mu == 0`` (or all kink weights zero) there is no kink: the
    bordered least-squares system is solved directly, with ``iterations`` 0
    and ``refine_steps`` 1.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != model.dim:
        raise ValueError(f"X must be ({model.dim}, m), got shape {X.shape}")
    C = model.anchors
    n = model.n_anchors
    m = X.shape[1]
    H = C.T @ C
    CtX = C.T @ X
    W = _penalty_weights(X, model)
    dec = np.full(m, -1, dtype=np.int64)

    if model.mu == 0.0 or W.max() == 0.0:
        rhs = np.concatenate([CtX, np.ones((1, m))], axis=0)
        try:
            Gam = np.linalg.solve(_bordered(H), rhs)[:n]
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "the constrained coding system is singular; use regularization "
                "mu > 0 or full-rank anchors"
            ) from exc
        if not np.isfinite(Gam).all():
            raise SingularSystemError(
                "least-squares coding produced non-finite coefficients; anchors may "
                "be rank-deficient (set mu > 0)"
            )
        gs = H @ Gam - CtX
        lam = -gs.mean(axis=0)
        resid = np.abs(gs + lam).max(axis=0)
        return BatchNewtonSolution(
            gamma=Gam,
            iterations=np.zeros(m, dtype=np.int64),
            refine_steps=np.ones(m, dtype=np.int64),
            decrement_iterations=dec,
            stationarity=resid,
            kkt_residual=resid.copy(),
            converged=resid <= STATIONARITY_TOL,
        )

    scale = max(1.0, np.abs(CtX).max(), W.max())
    Minv_left = _bordered_inverse(H)[:, :n]

    def q_cols(G: np.ndarray, Xa: np.ndarray, Wa: np.ndarray) -> np.ndarray:
        R = Xa - C @ G
        return 0.5 * (R * R).sum(axis=0) + (np.abs(G) * Wa).sum(axis=0)

    Gam = np.full((n, m), 1.0 / n)
    iters = np.full(m, _NEWTON_MAX_ITERS, dtype=np.int64)
    # the columns still iterating, with their slices of the inputs and their
    # objective (a live column has lowered it at every step); a column is
    # written back to Gam and dropped once it stops
    cols = np.arange(m)
    G, Xa, Ca, Wa = Gam.copy(), X, CtX, W
    q = q_cols(G, Xa, Wa)
    for it in range(1, _NEWTON_MAX_ITERS + 1):
        Grad = H @ G - Ca + Wa * np.sign(G)
        Dg = -(Minv_left @ Grad)[:n]
        delta2 = np.maximum(-(Grad * Dg).sum(axis=0), 0.0)
        hit = 0.5 * delta2 <= _NEWTON_TOL
        G = G + _NEWTON_STEP * Dg
        qn = q_cols(G, Xa, Wa)
        stop = hit | ~(qn < q - 1e-13 * np.maximum(q, 1.0))
        q = qn
        if stop.any():
            Gam[:, cols[stop]] = G[:, stop]
            iters[cols[stop]] = it
            dec[cols[hit]] = it
            go = ~stop
            cols, G, Xa, Ca, Wa, q = cols[go], G[:, go], Xa[:, go], Ca[:, go], Wa[:, go], q[go]
            if not cols.size:
                break
    Gam[:, cols] = G  # columns that used up _NEWTON_MAX_ITERS
    if not np.isfinite(Gam).all():
        raise SingularSystemError(
            "Newton iteration diverged; anchors may be rank-deficient (set mu > 0)"
        )

    # warm sign patterns: columns that met the decrement test trust their
    # Newton signs, the others start from the thresholded closed-form ridge
    # solution
    sig = np.sign(Gam)
    handed_off = dec < 0
    if handed_off.any():
        ridge = ffaemb_gamma_batch(X[:, handed_off], model)
        thresh = 0.05 * np.abs(ridge).max(axis=0, keepdims=True)
        sig[:, handed_off] = np.where(np.abs(ridge) > thresh, np.sign(ridge), 0.0)
    empty = ~sig.any(axis=0)
    if empty.any():
        sig[:, empty] = 1.0

    lam_final = np.zeros(m)
    refine = _orthant_walk_batch(H, CtX, W, Gam, sig, lam_final, scale)

    gs = H @ Gam - CtX
    g = gs + W * np.sign(Gam)
    stationarity = np.abs(g + lam_final).max(axis=0)
    kkt = np.where(
        Gam == 0.0,
        np.maximum(np.abs(gs + lam_final) - W, 0.0),
        np.abs(g + lam_final),
    ).max(axis=0)
    return BatchNewtonSolution(
        gamma=Gam,
        iterations=iters,
        refine_steps=refine,
        decrement_iterations=dec,
        stationarity=stationarity,
        kkt_residual=kkt,
        converged=kkt <= STATIONARITY_TOL,
    )


def _orthant_walk_batch(
    H: np.ndarray,
    CtX: np.ndarray,
    W: np.ndarray,
    Gam: np.ndarray,
    sig: np.ndarray,
    lam_out: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Active-set refinement from the starting points Gam and sign patterns sig.

    Writes each column's result into Gam and its multiplier into lam_out;
    returns the number of orthant solves each column took.
    """
    n, m = Gam.shape
    M0 = _bordered(H)
    diag = np.arange(n)
    steps = np.full(m, 6 * n, dtype=np.int64)
    # the columns still walking, with their slices of the inputs; a column
    # is written back to Gam and lam_out and dropped once it is done
    cols = np.arange(m)
    G, S, Ct, Wt = Gam.copy(), sig.copy(), CtX, W
    L = np.zeros(m)
    releases = np.zeros(m, dtype=np.int64)
    for step in range(1, 6 * n + 1):
        k = cols.size
        clamped = S == 0  # (n, k)
        # a clamped coordinate's row and column reduce to the identity
        free = np.ones((k, n + 1), dtype=bool)
        free[:, :n] = ~clamped.T
        A = np.where(free[:, :, None] & free[:, None, :], M0, 0.0)
        A[:, diag, diag] += clamped.T
        rhs = np.ones((k, n + 1))
        rhs[:, :n] = np.where(clamped, 0.0, Ct - Wt * S).T
        try:
            sol = np.linalg.solve(A, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            A[:, :n, :n] += 1e-12 * scale * np.eye(n)
            sol = np.linalg.solve(A, rhs[..., None])[..., 0]
        Gstar = sol[:, :n].T  # (n, k)
        lam = sol[:, n]
        gscale = np.maximum(1.0, np.abs(Gstar).max(axis=0))
        consistent = np.all(Gstar * S >= -1e-12 * gscale, axis=0)
        done = np.zeros(k, dtype=bool)

        pc = np.flatnonzero(consistent)
        if pc.size:
            Gc, lc = Gstar[:, pc], lam[pc]
            G[:, pc] = Gc
            L[pc] = lc
            gs = H @ Gc - Ct[:, pc]
            viol = np.abs(gs + lc) - Wt[:, pc]
            viol[~clamped[:, pc]] = -np.inf
            done[pc] = (viol.max(axis=0) <= 1e-10 * scale) | (releases[pc] >= 2 * n + 4)
            rel = np.flatnonzero(~done[pc])
            if rel.size:
                releases[pc[rel]] += 1
                jrel = viol[:, rel].argmax(axis=0)
                s = -np.sign(gs[jrel, rel] + lc[rel])
                s[s == 0] = 1.0
                S[jrel, pc[rel]] = s

        pi = np.flatnonzero(~consistent)
        if pi.size:
            Gc, Gi, Si = G[:, pi], Gstar[:, pi], S[:, pi]
            diff = Gi - Gc
            crossing = (Si != 0) & (Gi * Si < 0) & (np.abs(diff) > 0)
            theta = np.full(diff.shape, np.inf)
            np.divide(Gc, -diff, out=theta, where=crossing)
            theta = np.where(theta > 0, theta, np.inf)
            jmin = theta.argmin(axis=0)
            at = np.arange(pi.size)
            tmin = theta[jmin, at]
            ok = np.isfinite(tmin) & (tmin < 1.0)
            Gn = Gc + np.where(ok, tmin, 1.0)[None, :] * diff
            Gn[jmin[ok], at[ok]] = 0.0
            Si[jmin[ok], at[ok]] = 0.0
            full = ~ok
            if full.any():
                Si[:, full] = np.sign(Gn[:, full])
            empty = np.flatnonzero(~Si.any(axis=0))
            if empty.size:
                Si[Wt[:, pi[empty]].argmin(axis=0), empty] = 1.0
            G[:, pi] = Gn
            S[:, pi] = Si

        if done.any():
            fin = cols[done]
            Gam[:, fin] = G[:, done]
            lam_out[fin] = L[done]
            steps[fin] = step
            go = ~done
            cols, G, S, Ct, Wt = cols[go], G[:, go], S[:, go], Ct[:, go], Wt[:, go]
            L, releases = L[go], releases[go]
            if not cols.size:
                break
    Gam[:, cols] = G  # columns that used up their 6 n steps
    lam_out[cols] = L
    return steps


# ---------------------------------------------------------------------------
# batch objective and anchor updates


def _check_coefficients(X: np.ndarray, Gamma: np.ndarray, model: CodingModel) -> None:
    if X.ndim != 2 or Gamma.ndim != 2:
        raise ValueError("X and Gamma must be 2-D")
    if X.shape[0] != model.dim:
        raise ValueError(f"X rows ({X.shape[0]}) != anchor dim ({model.dim})")
    if Gamma.shape[0] != model.n_anchors:
        raise ValueError(f"Gamma rows ({Gamma.shape[0]}) != anchor count ({model.n_anchors})")
    if X.shape[1] != Gamma.shape[1]:
        raise ValueError(f"column counts differ: X {X.shape[1]} vs Gamma {Gamma.shape[1]}")
    dev = np.abs(Gamma.sum(axis=0) - 1.0).max() if Gamma.size else 0.0
    if dev > 1e-6:
        raise ValueError(f"coefficient columns must sum to 1 (worst deviation {dev:.3e})")


def per_sample_objective(X: np.ndarray, Gamma: np.ndarray, model: CodingModel) -> np.ndarray:
    """Per-column value of the coding objective (before averaging)."""
    X = np.asarray(X, dtype=np.float64)
    Gamma = np.asarray(Gamma, dtype=np.float64)
    _check_coefficients(X, Gamma, model)
    R = X - model.anchors @ Gamma
    rec = 0.5 * (R * R).sum(axis=0)
    A = l1_dist_cubed_batch(X, model.anchors)
    if model.variant == "faemb":
        pen = 0.5 * model.mu * (np.abs(Gamma) * A).sum(axis=0)
    else:
        pen = 0.5 * model.mu * (Gamma * Gamma).sum(axis=0) * A.sum(axis=0)
    return rec + pen


def objective(X: np.ndarray, Gamma: np.ndarray, model: CodingModel) -> float:
    """Mean coding objective over column-stacked descriptors ``X (d, m)``."""
    return float(per_sample_objective(X, Gamma, model).mean())


def anchor_gradient(
    X: np.ndarray, Gamma: np.ndarray, anchors: np.ndarray, mu: float, variant: str
) -> np.ndarray:
    """Analytic gradient of the batch objective with respect to the anchors.

    The absolute-value distance terms use the ``sign(0) = 0`` convention
    coordinate-wise; the gradient is exact wherever no anchor coordinate
    ties a descriptor coordinate.
    """
    X = np.asarray(X, dtype=np.float64)
    Gamma = np.asarray(Gamma, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    d, m = X.shape
    n = anchors.shape[1]
    R = anchors @ Gamma - X
    grad = (R @ Gamma.T) / m
    if mu > 0.0:
        Wp = np.abs(Gamma) if variant == "faemb" else np.broadcast_to(
            (Gamma * Gamma).sum(axis=0), (n, m)
        )
        for j in range(n):
            diff = anchors[:, j : j + 1] - X
            l1 = np.abs(diff).sum(axis=0)
            grad[:, j] += (1.5 * mu / m) * (np.sign(diff) @ (Wp[j] * l1 * l1))
    return grad


def _solve_anchor_coordinate(
    a: float,
    b: float,
    mu: float,
    w: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    t_old: float,
    order: np.ndarray | None = None,
) -> float:
    """Exact minimizer of one anchor coordinate with everything else fixed.

    The slice objective is ``F(t) = a/2 t^2 - b t + mu/2 sum_i w_i
    (|t - x_i| + r_i)^3`` with ``w_i, r_i >= 0``: convex in ``t``, smooth
    except at the breakpoints ``x_i`` (those with ``w_i > 0``), where the
    derivative jumps upward.  To the left of ``t`` a term contributes
    ``w_i (t + u_i)^2`` to ``F'(t) / (1.5 mu)``, with ``u_i = r_i - x_i``;
    to the right it contributes ``-w_i (v_i - t)^2``, with ``v_i = r_i + x_i``.

    ``order`` sorts ``x`` ascending (computed here when not given).  Prefix
    sums of ``w, w u, w u^2`` and suffix sums of ``w, w v, w v^2`` in that
    order give both one-sided derivatives at every breakpoint in one pass.
    The first breakpoint whose right-derivative is not negative bounds the
    minimizer from above: it is the minimizer when its left-derivative is
    not positive, and otherwise the minimizer lies in the open stretch just
    left of it (unbounded below if it is the first breakpoint; past the last
    breakpoint if every right-derivative is negative).  On that stretch
    ``F'`` is a quadratic whose coefficients are summed in the original
    order of ``x``; its root on the increasing branch, clamped to the
    stretch, is returned.  With no breakpoint, or ``mu == 0``, ``F`` is a
    parabola and the result is ``b / a`` (``t_old`` when ``a == 0``).
    """
    keep = w > 0.0
    if mu == 0.0 or not keep.any():
        return b / a if a > 0.0 else t_old
    if order is None:
        order = np.argsort(x, kind="stable")
    c15 = 1.5 * mu
    o = order[keep[order]]
    xs, ws, rs = x[o], w[o], r[o]
    u, v = rs - xs, rs + xs
    zero = np.zeros((3, 1))
    prefix = np.cumsum(np.stack([ws, ws * u, ws * u * u]), axis=1)
    suffix = np.cumsum(np.stack([ws, ws * v, ws * v * v])[:, ::-1], axis=1)[:, ::-1]
    # column k of P and S sums the first k sorted terms and the rest
    P = np.concatenate([zero, prefix], axis=1)
    S = np.concatenate([suffix, zero], axis=1)
    c2, c1, c0 = P[0] - S[0], 2.0 * (P[1] + S[1]), P[2] - S[2]
    base = a * xs - b
    right = base + c15 * ((c2[1:] * xs + c1[1:]) * xs + c0[1:])
    k = int(np.count_nonzero(right < 0.0))
    if k < xs.size:
        left = base[k] + c15 * ((c2[k] * xs[k] + c1[k]) * xs[k] + c0[k])
        if left <= 0.0:
            return float(xs[k])  # zero lies inside the subgradient jump
    lo = float(xs[k - 1]) if k > 0 else -math.inf
    hi = float(xs[k]) if k < xs.size else math.inf

    # On the stretch F'(t) = A t^2 + B t + D.  The coefficients are summed in
    # the original order: sums taken from the sorted prefix sums round
    # differently and move trained anchors by about 1e-7.
    w, x, r = w[keep], x[keep], r[keep]
    left_of = x < hi
    ws = np.where(left_of, w, -w)
    z = np.where(left_of, x - r, x + r)
    A = c15 * float(ws.sum())
    B = a - 2.0 * c15 * float(ws @ z)
    D = c15 * float(ws @ (z * z)) - b
    if abs(A) > 1e-300:
        sq = math.sqrt(max(B * B - 4.0 * A * D, 0.0))
        qq = -0.5 * (B + math.copysign(sq, B))
        root = D / qq if B >= 0.0 and qq != 0.0 else qq / A
    elif B != 0.0:
        root = -D / B
    else:
        root = 0.5 * (lo + hi)
    return min(max(root, lo), hi)


def _anchor_cd_sweeps(
    X: np.ndarray,
    Gamma: np.ndarray,
    C: np.ndarray,
    mu: float,
    variant: str,
    max_sweeps: int = 80,
) -> tuple[np.ndarray, int, bool]:
    """Cyclic exact coordinate descent on the anchors.

    Returns the anchors, the number of sweeps run and whether the move test
    stopped them (no coordinate moved by more than ``1e-12 (1 + max |C|)``
    in the last sweep); ``False`` means the ``max_sweeps`` cap did.

    The cubed-L1 penalty is non-differentiable exactly on the axis-aligned
    planes where an anchor coordinate ties a descriptor coordinate, and its
    minimizers often sit on them, which stalls curvature-based steps.  The
    penalty's subdifferential there is a coordinate-aligned box, so a point
    that no single-coordinate move can improve is a true minimizer of this
    convex subproblem; each exact 1-D solve also keeps the descent monotone.
    """
    d, m = X.shape
    n = C.shape[1]
    C = C.copy()
    if variant == "faemb":
        W = np.abs(Gamma)
    else:
        W = np.broadcast_to((Gamma * Gamma).sum(axis=0), (n, m))
    curv = (Gamma * Gamma).sum(axis=1)
    half_mu = 0.5 * mu
    orders = np.argsort(X, axis=1, kind="stable")
    for sweep in range(1, max_sweeps + 1):
        R = X - C @ Gamma
        L1 = np.abs(C.T[:, :, None] - X[None, :, :]).sum(axis=1)
        moved = 0.0
        for j in range(n):
            g_j = Gamma[j]
            w = W[j]
            a = float(curv[j])
            for k in range(d):
                t_old = float(C[k, j])
                x_row = X[k]
                r = np.maximum(L1[j] - np.abs(t_old - x_row), 0.0)
                e = R[k] + t_old * g_j
                b = float(g_j @ e)
                if a <= 0.0 and (mu == 0.0 or not (w > 0.0).any()):
                    continue
                t_new = _solve_anchor_coordinate(a, b, mu, w, x_row, r, t_old, orders[k])
                if not np.isfinite(t_new) or t_new == t_old:
                    continue
                l1_old = np.abs(t_old - x_row) + r
                l1_new = np.abs(t_new - x_row) + r
                f_old = 0.5 * a * t_old * t_old - b * t_old
                f_new = 0.5 * a * t_new * t_new - b * t_new
                if mu > 0.0:
                    f_old += half_mu * float(w @ (l1_old**3))
                    f_new += half_mu * float(w @ (l1_new**3))
                if f_new > f_old:
                    continue
                C[k, j] = t_new
                R[k] = e - t_new * g_j
                L1[j] = l1_new
                moved = max(moved, abs(t_new - t_old))
        if moved <= 1e-12 * (1.0 + np.abs(C).max()):
            return C, sweep, True
    return C, max_sweeps, False


def update_anchors(
    X: np.ndarray,
    Gamma: np.ndarray,
    c_init: np.ndarray,
    model: CodingModel,
) -> np.ndarray:
    """Exact coordinate descent on the anchors for fixed coefficients.

    Runs the sweeps of :func:`_anchor_cd_sweeps` from ``c_init``; the
    returned anchors never score worse than ``c_init`` on the batch
    objective.
    """
    return _update_anchors(X, Gamma, c_init, model)[0]


def _update_anchors(
    X: np.ndarray, Gamma: np.ndarray, c_init: np.ndarray, model: CodingModel
) -> tuple[np.ndarray, int, bool]:
    """:func:`update_anchors` plus the sweep count and convergence flag."""
    X = np.asarray(X, dtype=np.float64)
    Gamma = np.asarray(Gamma, dtype=np.float64)
    C = np.array(c_init, dtype=np.float64, copy=True)
    polished, sweeps, converged = _anchor_cd_sweeps(X, Gamma, C, model.mu, model.variant)
    if objective(X, Gamma, replace(model, anchors=polished)) <= objective(
        X, Gamma, replace(model, anchors=C)
    ):
        return polished, sweeps, converged
    return C, sweeps, converged


def train_coding(
    X: np.ndarray,
    n: int,
    mu: float,
    variant: str,
    params: SolverParams | None = None,
    seed: int = 0,
) -> TrainResult:
    """Alternating minimization of anchors and coefficients.

    Anchors start from :func:`kmeans_init`.  Each outer iteration updates the
    anchors for the current coefficients, then re-solves every coefficient
    column with :func:`faemb.pipeline.code_batch`; a per-sample safeguard keeps whichever coefficients score better
    under the new anchors, so the recorded objective trace is non-increasing.
    Stops after ``params.max_outer_iters`` iterations or when the objective
    improves by less than ``params.outer_tol``.
    """
    from .pipeline import code_batch  # pipeline imports this module at load time

    params = params or SolverParams()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be (d, m), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("training descriptors contain non-finite values")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n < 2:
        raise ValueError(f"training needs at least 2 anchors, got n={n}")
    d, m = X.shape
    if m < n:
        raise ValueError(f"need at least n={n} training descriptors, got {m}")

    anchors = kmeans_init(X, n, seed=seed)
    model = CodingModel(anchors=anchors, mu=mu, variant=variant)
    Gamma = code_batch(X, model)
    trace = [objective(X, Gamma, model)]
    sweeps: list[int] = []
    converged: list[bool] = []
    for _ in range(params.max_outer_iters):
        anchors, n_sweeps, done = _update_anchors(X, Gamma, model.anchors, model)
        sweeps.append(n_sweeps)
        converged.append(done)
        model = replace(model, anchors=anchors)
        fresh = code_batch(X, model)
        worse = per_sample_objective(X, fresh, model) > per_sample_objective(
            X, Gamma, model
        )
        if worse.any():
            fresh[:, worse] = Gamma[:, worse]
        Gamma = fresh
        trace.append(objective(X, Gamma, model))
        if abs(trace[-1] - trace[-2]) < params.outer_tol:
            break
    return TrainResult(
        model=model,
        gamma=Gamma,
        trace=np.asarray(trace),
        anchor_sweeps=np.asarray(sweeps, dtype=np.int64),
        anchor_converged=np.asarray(converged, dtype=bool),
    )
