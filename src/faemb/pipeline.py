"""End-to-end plumbing: descriptor sets in, image signatures out.

The full chain per image is: code every descriptor, embed it, whiten the
embedded vectors, weight them (democratic or plain sum), aggregate, apply
the signed power law, and unit-normalize.  Everything downstream of the
fitted models is pure, so images are processed independently and can be
fanned out over a thread pool.

Also hosts the timing benchmark comparing the per-descriptor cost of the
iterative coder against the closed-form one at matched sizes.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .aggregate import (
    ImageSignature,
    WhiteningModel,
    aggregate_image,
    democratic_weights,
    l2_normalize,
    power_law,
    sum_weights,
    whiten_batch,
)
from .coding import (
    CodingModel,
    faemb_gamma,
    faemb_gamma_batch,
    ffaemb_gamma,
    ffaemb_gamma_batch,
    kmeans_init,
)
from .core import DescriptorSet, tri_length
from .embed import EmbeddingConfig, embed_faemb, embed_faemb_batch

__all__ = [
    "AggregationParams",
    "BenchResult",
    "default_drop",
    "code_batch",
    "embed_descriptor_set",
    "signature_from_embedded",
    "compute_signature",
    "parallel_map",
    "benchmark_embedding",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class AggregationParams:
    """How per-descriptor vectors are combined into one signature."""

    mode: str = "democratic"
    alpha: float = 0.5
    dem_iters: int = 100
    dem_tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.mode not in ("democratic", "sum"):
            raise ValueError(f"mode must be 'democratic' or 'sum', got {self.mode!r}")


def default_drop(d: int) -> int:
    """Leading whitened components removed by default: one anchor block's worth."""
    return tri_length(d)


def code_batch(X: np.ndarray, model: CodingModel) -> np.ndarray:
    """Coefficients for column-stacked descriptors under the model's variant."""
    if model.variant == "faemb":
        return faemb_gamma_batch(X, model).gamma
    return ffaemb_gamma_batch(X, model)


def embed_descriptor_set(
    dset: DescriptorSet,
    model: CodingModel,
    cfg: EmbeddingConfig | None = None,
) -> np.ndarray:
    """Code and embed every descriptor of one image; rows are embedded vectors."""
    X = dset.descriptors.T
    Gamma = code_batch(X, model)
    return embed_faemb_batch(X, Gamma, model, cfg)


def signature_from_embedded(
    embedded: np.ndarray,
    whitening: WhiteningModel,
    agg: AggregationParams | None = None,
    image_id: str = "",
) -> ImageSignature:
    """Whiten, weight, aggregate, and normalize one image's embedded vectors."""
    agg = agg or AggregationParams()
    Pw = whiten_batch(embedded, whitening)
    if agg.mode == "democratic":
        try:
            weights = democratic_weights(
                Pw, max_iters=agg.dem_iters, tol=agg.dem_tol
            ).weights
        except ValueError:
            # every descriptor whitened to (near-)zero: degenerate image
            return ImageSignature(
                values=np.zeros(whitening.out_dim), image_id=image_id, degenerate=True
            )
    else:
        weights = sum_weights(Pw.shape[0])
    psi = aggregate_image(Pw, weights)
    return l2_normalize(power_law(psi, agg.alpha), image_id=image_id)


def compute_signature(
    dset: DescriptorSet,
    model: CodingModel,
    whitening: WhiteningModel,
    cfg: EmbeddingConfig | None = None,
    agg: AggregationParams | None = None,
) -> ImageSignature:
    """Full per-image pipeline from raw descriptors to a unit signature."""
    embedded = embed_descriptor_set(dset, model, cfg)
    return signature_from_embedded(embedded, whitening, agg, image_id=dset.image_id)


def parallel_map(
    fn: Callable[[_T], _R], items: Sequence[_T] | Iterable[_T], threads: int = 1
) -> list[_R]:
    """Order-preserving map, threaded when ``threads > 1``."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class BenchResult:
    """Per-descriptor embedding timings (microseconds) and their ratio."""

    faemb_us: float
    ffaemb_us: float
    ratio: float
    count: int
    faemb_sample: int
    n: int
    d: int


def benchmark_embedding(
    n: int = 16,
    d: int = 45,
    count: int = 100_000,
    mu: float = 1e-2,
    seed: int = 0,
    faemb_sample: int | None = None,
) -> BenchResult:
    """Time the single-descriptor code-and-embed path for both coders.

    Both variants share the same anchors and descriptor stream.  The
    closed-form coder is timed over all ``count`` descriptors; the iterative
    coder, being orders of magnitude slower, is timed over an i.i.d. subset
    (``faemb_sample``, default ``min(count, 10_000)``) — the per-descriptor
    mean is the same statistic either way.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if faemb_sample is None:
        faemb_sample = min(count, 10_000)
    faemb_sample = min(faemb_sample, count)
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((d, max(16 * n, 512)))
    anchors = kmeans_init(train, n, seed=seed)
    fast = CodingModel(anchors=anchors, mu=mu, variant="ffaemb")
    slow = CodingModel(anchors=anchors, mu=mu, variant="faemb")
    X = rng.standard_normal((d, count))

    t0 = time.perf_counter()
    for i in range(count):
        x = X[:, i]
        gamma = ffaemb_gamma(x, fast)
        embed_faemb(x, gamma, fast)
    ffaemb_us = (time.perf_counter() - t0) / count * 1e6

    t0 = time.perf_counter()
    for i in range(faemb_sample):
        x = X[:, i]
        sol = faemb_gamma(x, slow)
        embed_faemb(x, sol.gamma, slow)
    faemb_us = (time.perf_counter() - t0) / faemb_sample * 1e6

    return BenchResult(
        faemb_us=faemb_us,
        ffaemb_us=ffaemb_us,
        ratio=faemb_us / ffaemb_us,
        count=count,
        faemb_sample=faemb_sample,
        n=n,
        d=d,
    )
