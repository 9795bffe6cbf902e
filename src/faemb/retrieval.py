"""Exhaustive retrieval, evaluation, and synthetic corpus generation.

Indexes hold either real-valued signatures (ranked by Euclidean distance)
or binary codes (ranked by Hamming distance); both searches are exact
exhaustive scans with stable tie-breaking by insertion order.

Evaluation follows the classic protocol: junk items are removed from a
ranking before scoring (later items close up), the query itself is always
removed, and average precision is the mean of precision at each relevant
item's rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .aggregate import ImageSignature
from .binary import BinaryCode, _POPCOUNT
from .core import DescriptorSet

__all__ = [
    "RetrievalIndex",
    "GroundTruth",
    "MapReport",
    "build_index",
    "build_binary_index",
    "search",
    "average_precision",
    "evaluate_map",
    "synth_corpus",
]


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable exhaustive-search index over one homogeneous collection.

    ``mode`` is "real" (``vectors`` holds signature rows, ``width`` is the
    dimension) or "binary" (``vectors`` holds packed code bytes, ``width``
    is the bit count).
    """

    ids: tuple[str, ...]
    vectors: np.ndarray = field(repr=False)
    mode: str
    width: int

    def __post_init__(self) -> None:
        if self.mode not in ("real", "binary"):
            raise ValueError(f"mode must be 'real' or 'binary', got {self.mode!r}")
        v = np.asarray(self.vectors)
        if v.ndim != 2 or v.shape[0] != len(self.ids):
            raise ValueError("vectors must be one row per id")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        if self.mode == "real":
            v = np.ascontiguousarray(v, dtype=np.float64)
            if v.shape[1] != self.width:
                raise ValueError(f"rows have {v.shape[1]} dims, width says {self.width}")
        else:
            v = v.astype(np.uint8, copy=False)
            if v.shape[1] != (self.width + 7) // 8:
                raise ValueError(
                    f"{self.width} bits need {(self.width + 7) // 8} bytes per row, "
                    f"got {v.shape[1]}"
                )
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return len(self.ids)


def build_index(signatures: list[ImageSignature]) -> RetrievalIndex:
    if not signatures:
        raise ValueError("cannot index an empty signature list")
    dim = signatures[0].dim
    for s in signatures:
        if s.dim != dim:
            raise ValueError(f"mixed signature lengths: {dim} vs {s.dim}")
    return RetrievalIndex(
        ids=tuple(s.image_id for s in signatures),
        vectors=np.stack([s.values for s in signatures]),
        mode="real",
        width=dim,
    )


def build_binary_index(codes: list[BinaryCode]) -> RetrievalIndex:
    if not codes:
        raise ValueError("cannot index an empty code list")
    bits = codes[0].n_bits
    for c in codes:
        if c.n_bits != bits:
            raise ValueError(f"mixed code lengths: {bits} vs {c.n_bits}")
    return RetrievalIndex(
        ids=tuple(c.image_id for c in codes),
        vectors=np.stack([c.packed for c in codes]),
        mode="binary",
        width=bits,
    )


_SCAN_BLOCK_BYTES = 1 << 18  # one block's difference rows stay in cache


def _euclidean_scan(vectors: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from ``q`` to every row, a block of rows at a time.

    One small buffer is reused for every block, so a query allocates no
    N x D temporary: no fresh pages to fault in per query, whatever the
    index size. Each row is reduced exactly as a whole-matrix
    ``((vectors - q) ** 2).sum(axis=1)`` would, so distances are identical.
    """
    n, width = vectors.shape
    rows = max(1, _SCAN_BLOCK_BYTES // (8 * max(width, 1)))
    buf = np.empty((min(rows, n), width))
    dist = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        b = buf[: hi - lo]
        np.subtract(vectors[lo:hi], q, out=b)
        np.square(b, out=b)
        b.sum(axis=1, out=dist[lo:hi])
    return np.sqrt(dist, out=dist)


def search(
    query: ImageSignature | BinaryCode | np.ndarray,
    index: RetrievalIndex,
    k: int | None = None,
) -> list[tuple[str, float]]:
    """Top-``k`` (all if None) index entries by ascending distance to ``query``."""
    if isinstance(query, ImageSignature):
        if index.mode != "real":
            raise ValueError("real-valued query against a binary index")
        q = query.values
    elif isinstance(query, BinaryCode):
        if index.mode != "binary":
            raise ValueError("binary query against a real-valued index")
        if query.n_bits != index.width:
            raise ValueError(f"bit lengths differ: {query.n_bits} vs {index.width}")
        q = query.packed
    else:
        q = np.asarray(query)
        if index.mode != "real":
            raise ValueError("raw-array queries are only supported for real indexes")
        q = q.astype(np.float64)
    if index.mode == "real":
        if q.shape != (index.width,):
            raise ValueError(f"query length {q.shape} != index width {index.width}")
        dist = _euclidean_scan(index.vectors, q)
    else:
        dist = _POPCOUNT[np.bitwise_xor(index.vectors, q)].sum(axis=1).astype(np.float64)
    order = np.argsort(dist, kind="stable")
    if k is not None:
        order = order[:k]
    return [(index.ids[i], float(dist[i])) for i in order]


@dataclass(frozen=True)
class GroundTruth:
    """Relevance labels per query id: relevant ids and ignorable junk ids."""

    entries: dict[str, tuple[frozenset[str], frozenset[str]]]

    def __post_init__(self) -> None:
        for qid, (relevant, junk) in self.entries.items():
            overlap = relevant & junk
            if overlap:
                raise ValueError(
                    f"query {qid!r}: ids marked both relevant and junk: {sorted(overlap)}"
                )

    def relevant_for(self, query_id: str) -> frozenset[str]:
        return self.entries[query_id][0]

    def junk_for(self, query_id: str) -> frozenset[str]:
        return self.entries[query_id][1]

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.entries


def average_precision(
    ranked_ids: list[str],
    relevant: frozenset[str] | set[str],
    junk: frozenset[str] | set[str] = frozenset(),
) -> float:
    """AP of one ranking after junk removal.

    Junk ids are deleted from the ranking (positions close up); precision is
    then averaged at the rank of each relevant item, with the denominator
    equal to the total number of relevant items.  An empty relevant set is
    defined as AP 0 and warns, since the query carries no signal.
    """
    if len(set(ranked_ids)) != len(ranked_ids):
        raise ValueError("ranked list contains duplicate ids")
    if not relevant:
        warnings.warn("empty relevant set; average precision defined as 0", stacklevel=2)
        return 0.0
    hits = 0
    rank = 0
    total = 0.0
    for rid in ranked_ids:
        if rid in junk:
            continue
        rank += 1
        if rid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


@dataclass(frozen=True)
class MapReport:
    mean_average_precision: float
    per_query: dict[str, float]


def evaluate_map(
    queries: list[ImageSignature] | list[BinaryCode],
    index: RetrievalIndex,
    ground_truth: GroundTruth,
) -> MapReport:
    """Mean AP over queries, each ranked against the full index.

    The query's own id is always removed from its ranking.  Every query must
    have a ground-truth entry.
    """
    if not queries:
        raise ValueError("no queries given")
    per_query: dict[str, float] = {}
    for q in queries:
        qid = q.image_id
        if qid not in ground_truth:
            raise KeyError(f"query {qid!r} has no ground-truth entry")
        ranked = [rid for rid, _ in search(q, index) if rid != qid]
        relevant = ground_truth.relevant_for(qid) - {qid}
        per_query[qid] = average_precision(ranked, relevant, ground_truth.junk_for(qid))
    mean = float(np.mean(list(per_query.values())))
    return MapReport(mean_average_precision=mean, per_query=per_query)


def synth_corpus(
    n_clusters: int,
    per_cluster: int,
    d: int,
    sigma: float,
    seed: int = 0,
    descriptors_per_image: int = 200,
) -> tuple[list[DescriptorSet], GroundTruth]:
    """Planted-cluster corpus: groups of images sharing a descriptor pool.

    Each cluster draws a template pool of ``descriptors_per_image`` standard
    normal descriptors; each image in the cluster is the template plus
    ``sigma``-scaled Gaussian noise.  Images within a cluster are mutually
    relevant (self excluded); there is no junk.  Deterministic given ``seed``.
    """
    if min(n_clusters, per_cluster, d, descriptors_per_image) < 1:
        raise ValueError("corpus parameters must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    sets: list[DescriptorSet] = []
    entries: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    for c in range(n_clusters):
        template = rng.standard_normal((descriptors_per_image, d))
        ids = [f"c{c:03d}_i{i:02d}" for i in range(per_cluster)]
        for i, image_id in enumerate(ids):
            noise = rng.standard_normal((descriptors_per_image, d))
            sets.append(
                DescriptorSet(image_id=image_id, descriptors=template + sigma * noise)
            )
        for image_id in ids:
            entries[image_id] = (
                frozenset(other for other in ids if other != image_id),
                frozenset(),
            )
    return sets, GroundTruth(entries=entries)
