"""Compact binary codes for image signatures.

Signatures are PCA-projected to ``b`` dimensions and rotated by an
orthogonal matrix chosen to minimize the quantization error against the
binary hypercube; bits are the signs of the rotated projection.  Ranking is
exhaustive Hamming distance with stable tie-breaking.

Conventions fixed here: the sign boundary maps 0 to bit 1, and bits are
packed little-endian (bit k of the code is bit ``k % 8`` of byte ``k // 8``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregate import ImageSignature, _moments, _pca

__all__ = [
    "ItqModel",
    "ItqFit",
    "BinaryCode",
    "fit_itq",
    "encode_itq",
    "unpack_bits",
    "hamming_distance",
    "hamming_rank",
]

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.int64)


def _hamming(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact Hamming distances, shape ``(len(queries), len(codes))``, int64.

    ``codes`` and ``queries`` hold packed code bytes, one code per row; the
    set bits of each XORed byte come from a 256-entry table, small enough
    to stay in cache between calls.  Every view of Hamming distance in the
    package calls this kernel.
    """
    return _POPCOUNT[np.bitwise_xor(codes, queries[:, None, :])].sum(axis=-1)


@dataclass(frozen=True)
class ItqModel:
    """PCA projection plus learned orthogonal rotation.

    ``pca`` maps centered signatures to the top-``bits`` principal
    components; ``rotation`` is orthogonal within 1e-10 (Frobenius).
    """

    mean: np.ndarray = field(repr=False)
    pca: np.ndarray = field(repr=False)
    rotation: np.ndarray = field(repr=False)
    bits: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        pca = np.asarray(self.pca, dtype=np.float64)
        R = np.asarray(self.rotation, dtype=np.float64)
        D = mean.shape[0]
        b = self.bits
        if mean.ndim != 1 or pca.shape != (D, b) or R.shape != (b, b):
            raise ValueError("inconsistent ITQ model shapes")
        if b < 1 or b > D:
            raise ValueError(f"bits must lie in [1, {D}], got {b}")
        dev = np.linalg.norm(R.T @ R - np.eye(b))
        if dev > 1e-10:
            raise ValueError(f"rotation is not orthogonal (deviation {dev:.3e})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "pca", pca)
        object.__setattr__(self, "rotation", R)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class ItqFit:
    """Fitted model plus the per-iteration quantization error trace."""

    model: ItqModel
    quantization_errors: np.ndarray


@dataclass(frozen=True)
class BinaryCode:
    """A packed ``n_bits``-bit code for one image."""

    packed: np.ndarray = field(repr=False)
    n_bits: int
    image_id: str = ""

    def __post_init__(self) -> None:
        packed = np.asarray(self.packed, dtype=np.uint8)
        if packed.ndim != 1:
            raise ValueError("packed bits must be a 1-D byte array")
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if packed.shape[0] != (self.n_bits + 7) // 8:
            raise ValueError(
                f"{self.n_bits} bits need {(self.n_bits + 7) // 8} bytes, "
                f"got {packed.shape[0]}"
            )
        object.__setattr__(self, "packed", packed)


def _orthogonal_init(b: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((b, b)))
    # canonical QR: make the factorization unique so seeds are reproducible
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def fit_itq(
    Psi_train: np.ndarray, bits: int, iters: int = 50, seed: int = 0
) -> ItqFit:
    """Fit PCA + rotation by alternating sign assignment and Procrustes.

    Requires more training signatures than bits and a training covariance of
    rank at least ``bits``.  The returned error trace (one entry per
    iteration) is non-increasing.
    """
    Psi = np.asarray(Psi_train, dtype=np.float64)
    if Psi.ndim != 2:
        raise ValueError(f"training matrix must be 2-D, got shape {Psi.shape}")
    N, D = Psi.shape
    if N <= bits:
        raise ValueError(f"need more than bits={bits} training signatures, got {N}")
    if not (1 <= bits <= D):
        raise ValueError(f"bits must lie in [1, {D}], got {bits}")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    mean, cov = _moments(Psi)
    lam, pca = _pca(cov, slice(bits))
    rank = int((lam > 1e-10 * max(lam[0], np.finfo(np.float64).tiny)).sum())
    if bits > rank:
        raise ValueError(
            f"bits={bits} exceeds the training covariance rank ({rank}); "
            "use more/denser training signatures or fewer bits"
        )
    V = (Psi - mean) @ pca
    R = _orthogonal_init(bits, seed)
    errors = np.empty(iters)
    for t in range(iters):
        B = np.where(V @ R >= 0.0, 1.0, -1.0)
        U, _, Wt = np.linalg.svd(V.T @ B)
        R = U @ Wt
        errors[t] = np.linalg.norm(B - V @ R)
    model = ItqModel(mean=mean, pca=pca, rotation=R, bits=bits)
    return ItqFit(model=model, quantization_errors=errors)


def encode_itq(psi: ImageSignature | np.ndarray, model: ItqModel) -> BinaryCode:
    """Binarize one signature; bit k set iff the rotated projection is >= 0."""
    if isinstance(psi, ImageSignature):
        values, image_id = psi.values, psi.image_id
    else:
        values, image_id = np.asarray(psi, dtype=np.float64), ""
    if values.shape != (model.dim,):
        raise ValueError(f"expected signature length {model.dim}, got {values.shape}")
    proj = model.rotation.T @ (model.pca.T @ (values - model.mean))
    bits = proj >= 0.0
    return BinaryCode(
        packed=np.packbits(bits, bitorder="little"),
        n_bits=model.bits,
        image_id=image_id,
    )


def unpack_bits(code: BinaryCode) -> np.ndarray:
    """Unpacked 0/1 array of length ``n_bits``."""
    return np.unpackbits(code.packed, count=code.n_bits, bitorder="little")


def hamming_distance(a: BinaryCode, b: BinaryCode) -> int:
    if a.n_bits != b.n_bits:
        raise ValueError(f"bit lengths differ: {a.n_bits} vs {b.n_bits}")
    return int(_hamming(a.packed[None], b.packed[None])[0, 0])


def hamming_rank(query: BinaryCode, db: list[BinaryCode]) -> list[tuple[str, int]]:
    """All database codes by ascending Hamming distance; ties keep db order."""
    if not db:
        return []
    for c in db:
        if c.n_bits != query.n_bits:
            raise ValueError(f"bit lengths differ: {query.n_bits} vs {c.n_bits}")
    dist = _hamming(np.stack([c.packed for c in db]), query.packed[None])[0]
    order = np.argsort(dist, kind="stable")
    return [(db[i].image_id, int(dist[i])) for i in order]
