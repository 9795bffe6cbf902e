"""Exhaustive retrieval, evaluation, and synthetic corpus generation.

Indexes hold either real-valued signatures (ranked by Euclidean distance)
or binary codes (ranked by Hamming distance); both searches are exact
exhaustive scans with stable tie-breaking by insertion order.

Evaluation follows the classic protocol: junk items are removed from a
ranking before scoring (later items close up), the query itself is always
removed, and average precision is the mean of precision at each relevant
item's rank.

Real distances are defined by :func:`_squared_scan`: the sum of squared
differences, then sqrt.  A top-k ``search`` and ``evaluate_map`` find the
rows that matter from ``S = |q|^2 + |v|^2 - 2 q.v`` (one GEMV per query, one
GEMM per block of queries) and re-score only those rows exactly.  ``S``
differs from the exact sum by at most ``3 gamma_(D+2) (|q| + |v|)^2`` plus an
underflow term (:func:`_error_bound`), whatever the BLAS summation order or
thread count.  A rule on that bound, widened by ``16 u`` for the ties sqrt
creates, decides which rows are re-scored, so both return exactly what a full
exact scan would: ``search`` keeps every row whose lower bound is not above
the k-th smallest upper bound, ``evaluate_map`` every row whose bounds
straddle a relevant row's exact sum.

``evaluate_map`` gives exactly the ranks that ``search`` would, without
sorting a full ranking per query.  It scores blocks of queries at once, as
many as keep one block's largest Q x N temporary within
``_SCORE_BLOCK_BYTES`` (1 MB) and its stacked queries within
``_SCAN_BLOCK_BYTES`` (256 KB), and only counts the rows ranked before each
relevant row.  Binary distances come exact from one blocked XOR-popcount.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .aggregate import ImageSignature
from .binary import BinaryCode, _hamming
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
    is the bit count).  Real rows must be finite, squared norms included.
    ``_positions`` maps each id to its row; for a real index ``_sq_norms``
    holds every row's squared norm, which the batched evaluation reuses on
    every call.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray = field(repr=False)
    mode: str
    width: int
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    _sq_norms: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("real", "binary"):
            raise ValueError(f"mode must be 'real' or 'binary', got {self.mode!r}")
        v = np.asarray(self.vectors)
        if v.ndim != 2 or v.shape[0] != len(self.ids):
            raise ValueError("vectors must be one row per id")
        positions = {rid: i for i, rid in enumerate(self.ids)}
        if len(positions) != len(self.ids):
            raise ValueError("index ids must be unique")
        sq_norms = None
        if self.mode == "real":
            v = np.ascontiguousarray(v, dtype=np.float64)
            if v.shape[1] != self.width:
                raise ValueError(f"rows have {v.shape[1]} dims, width says {self.width}")
            sq_norms = np.einsum("ij,ij->i", v, v)
            if not np.isfinite(sq_norms).all():
                raise ValueError("index rows must be finite, with finite squared norms")
        else:
            v = v.astype(np.uint8, copy=False)
            if v.shape[1] != (self.width + 7) // 8:
                raise ValueError(
                    f"{self.width} bits need {(self.width + 7) // 8} bytes per row, "
                    f"got {v.shape[1]}"
                )
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_sq_norms", sq_norms)

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
# python floats: the bound is rebuilt per query, numpy scalars cost more
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
_TINY = float(np.finfo(np.float64).tiny)
_TIE_MARGIN = 16 * _UNIT_ROUNDOFF


def _squared_scan(
    vectors: np.ndarray, q: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Squared distance from ``q`` to every row, or to ``vectors[rows]``.

    Rows are scanned a block at a time through one small buffer (a selection
    is gathered into it block by block), so a query allocates no N x D
    temporary: no fresh pages to fault in per query, whatever the index
    size. Each row is reduced exactly as a whole-matrix
    ``((vectors - q) ** 2).sum(axis=1)`` would, so the sums do not depend
    on the block size, on the selection or on which rows are scanned
    together.
    """
    n = len(vectors) if rows is None else len(rows)
    width = vectors.shape[1]
    step = max(1, _SCAN_BLOCK_BYTES // (8 * max(width, 1)))
    buf = np.empty((min(step, n), width))
    dist = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        b = buf[: hi - lo]
        if rows is None:
            np.subtract(vectors[lo:hi], q, out=b)
        else:
            # "clip" writes straight into b; mode "raise" would buffer a copy
            np.take(vectors, rows[lo:hi], axis=0, out=b, mode="clip")
            b -= q
        np.square(b, out=b)
        b.sum(axis=1, out=dist[lo:hi])
    return dist


def _error_bound(q_norm: float, norms: np.ndarray, width: int) -> np.ndarray:
    """Per-row bound on ``|S - s|``, the GEMM form against the exact scan.

    ``S = |q|^2 + |v|^2 - 2 q.v`` in any summation order and ``s`` the sum
    :func:`_squared_scan` computes for the same row satisfy ``|S - s| <= 3
    gamma_(D+2) (|q| + |v|)^2 + (D + 4) tiny``, with ``gamma_n = n u / (1 -
    n u)``, ``u = 2^-53`` and ``tiny`` the smallest normal double.  Each of
    ``S`` and ``s`` is within ``gamma_(D+2) (|q| + |v|)^2`` of the true
    squared distance whatever the summation order, so the bound holds for
    any BLAS blocking and thread count; the third ``gamma`` absorbs the
    rounding of the norms, of the bound itself and of ``S`` plus or minus
    it, and the ``tiny`` term covers underflow with at least ``tiny`` to
    spare.  ``norms`` are the rows' norms, ``q_norm`` the query's.
    """
    ops = width + 2
    err = q_norm + norms
    err *= err
    err *= 3.0 * ops * _UNIT_ROUNDOFF / (1.0 - ops * _UNIT_ROUNDOFF)  # 3 gamma_(D+2)
    err += (width + 4) * _TINY
    return err


def _query_vector(
    query: ImageSignature | BinaryCode | np.ndarray, index: RetrievalIndex
) -> np.ndarray:
    """The query as a row comparable with ``index.vectors``, after the checks.

    A real query must be finite with a finite squared norm, the rule
    :class:`RetrievalIndex` applies to its rows: the error bound the ranking
    relies on holds only then.
    """
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
        if not math.isfinite(np.vdot(q, q)):  # vdot, unlike q @ q, never warns
            raise ValueError("real queries must be finite, with a finite squared norm")
    return q


def search(
    query: ImageSignature | BinaryCode | np.ndarray,
    index: RetrievalIndex,
    k: int | None = None,
) -> list[tuple[str, float]]:
    """Top-``k`` (all if None) index entries by ascending distance to ``query``.

    Distances are sqrt of :func:`_squared_scan`'s sums (Hamming counts for a
    binary index), ties broken by row; ``k`` must be None or ``>= 0``.

    A real top-k with ``k < N`` re-scores only candidate rows.  One GEMV
    gives ``S = |v|^2 + |q|^2 - 2 V.q`` and :func:`_error_bound` its bound
    ``err``, so each row's exact sum ``s`` lies in ``[S - err, S + err]``
    (both ends as computed; the bound's spare ``gamma`` covers their
    rounding).  Let ``T`` be the k-th smallest ``S + err``; the candidates
    are every row whose ``S - err`` is not above ``T (1 + 16 u)``.  They are
    re-scored with :func:`_squared_scan`'s arithmetic and ordered by (key,
    row), ``key = sqrt(s)``; the first k are the answer.

    * Every true top-k row is a candidate.  At least k rows have ``s <= S +
      err <= T``, so the k-th smallest exact sum ``s_k`` is at most ``T``;
      sqrt is monotone, so the k-th smallest key is ``fl(sqrt(s_k))``.  A
      true top-k row ``r`` has ``key_r <= fl(sqrt(s_k))``, and as sqrt is
      correctly rounded, ``s_r <= s_k (1 + u)^2 / (1 - u)^2 < T (1 + 16 u)``;
      ``S_r - err_r <= s_r`` keeps it.  (Where ``T (1 + 16 u)`` underflows,
      the bound's spare ``tiny`` covers the lost margin.)
    * Every row that sqrt ties with the k-th is a candidate: it has ``key_r =
      fl(sqrt(s_k))``, so the same inequality holds.

    So every row outside the candidates has a key above the k-th, and the
    first k candidates by (key, row) are the first k rows overall.  A row
    whose bound overflows (a NaN or infinite end) is never ruled out, since
    the test is "not above".  With ``k`` None or at least ``N`` every
    distance is needed, so the full exact scan runs instead.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be None or >= 0, got {k}")
    q = _query_vector(query, index)
    if k == 0:
        return []
    if index.mode == "real" and k is not None and k < len(index):
        approx = index.vectors @ q
        approx *= -2.0
        approx += index._sq_norms
        q_sq = q @ q
        approx += q_sq
        err = _error_bound(np.sqrt(q_sq), np.sqrt(index._sq_norms), index.width)
        cut = np.partition(approx + err, k - 1)[k - 1] * (1.0 + _TIE_MARGIN)
        approx -= err
        rows = np.flatnonzero(~(approx > cut))
        dist = _squared_scan(index.vectors, q, rows)
        np.sqrt(dist, out=dist)
        order = np.argsort(dist, kind="stable")[:k]
        return [(index.ids[rows[i]], float(dist[i])) for i in order]
    if index.mode == "real":
        dist = _squared_scan(index.vectors, q)
        np.sqrt(dist, out=dist)
    else:
        dist = _hamming(index.vectors, q[None])[0]
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


_EMPTY_RELEVANT = "empty relevant set; average precision defined as 0"


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
        warnings.warn(_EMPTY_RELEVANT, stacklevel=2)
        return 0.0
    ranks = []
    rank = 0
    for rid in ranked_ids:
        if rid in junk:
            continue
        rank += 1
        if rid in relevant:
            ranks.append(rank)
    return _ap_from_ranks(ranks, len(relevant))


def _ap_from_ranks(ranks: list[int], n_relevant: int) -> float:
    """AP from the ascending ranks of the relevant items that were found."""
    total = 0.0
    for hits, rank in enumerate(ranks, start=1):
        total += hits / rank
    return total / n_relevant


@dataclass(frozen=True)
class MapReport:
    mean_average_precision: float
    per_query: dict[str, float]


_SCORE_BLOCK_BYTES = 1 << 20  # one query block's largest Q x N temporary


def _real_ranks(
    approx: np.ndarray,
    err: np.ndarray,
    q: np.ndarray,
    vectors: np.ndarray,
    rows: np.ndarray,
    excluded: list[int],
) -> np.ndarray:
    """Ranks of ``rows`` from approximate squared distances within ``err``.

    ``approx`` holds every row's approximate squared distance to ``q`` and
    ``|approx - s| <= err`` holds for the exact sums ``s`` of
    :func:`_squared_scan`.  A row whose upper bound lies below a target's
    exact sum less the tie margin is surely before that target, one whose
    lower bound lies above its sum plus the margin surely after it (the
    margin keeps rows apart that sqrt would round to the same key).  Every
    other row is re-scored exactly and compared by (key, row).  Rows in
    ``excluded`` (junk and the query itself) never count.
    """
    target = _squared_scan(vectors, q, rows)
    before = (approx + err) < (target * (1.0 - _TIE_MARGIN))[:, None]
    after = (approx - err) > (target * (1.0 + _TIE_MARGIN))[:, None]
    near = (~(before | after)).any(axis=0)
    near[excluded] = False
    # the targets and the rows near any of them are compared exactly below
    before[:, near] = False
    before[:, rows] = False
    before[:, excluded] = False
    near[rows] = False
    pool, exact_sq = rows, target
    if near.any():
        near_rows = np.flatnonzero(near)
        pool = np.concatenate([rows, near_rows])
        exact_sq = np.concatenate([target, _squared_scan(vectors, q, near_rows)])
    key = np.sqrt(exact_sq)
    at = key[: rows.size, None]
    exact = (key < at) | ((key == at) & (pool < rows[:, None]))
    return 1 + np.count_nonzero(before, axis=1) + np.count_nonzero(exact, axis=1)


def evaluate_map(
    queries: list[ImageSignature] | list[BinaryCode],
    index: RetrievalIndex,
    ground_truth: GroundTruth,
) -> MapReport:
    """Mean AP over queries, each ranked against the full index.

    The query's own id is always removed from its ranking.  Every query must
    have a ground-truth entry; every query is checked before any is ranked.

    Queries are ranked a block at a time: a block holds as many queries as
    keep its largest Q x N temporary (the GEMM's scores, or the binary
    kernel's popcount look-ups) within ``_SCORE_BLOCK_BYTES`` and its
    stacked query rows within ``_SCAN_BLOCK_BYTES``.  A relevant row's rank
    is 1 plus the number of non-junk, non-self rows that come before it in
    :func:`search`'s order: ascending distance, ties by row.

    Binary: one blocked XOR-popcount gives exact integer distances.

    Real: one GEMM gives ``S = |q|^2 + |v|^2 - 2 q.v`` for the whole block,
    within :func:`_error_bound` of the sum ``s`` that :func:`_squared_scan`
    computes for the same row.  Only rows within that bound of a relevant
    row's exact sum, widened by a relative margin of ``16 u`` for the ties
    sqrt creates, are re-scored exactly (the fallback); every other row is
    counted from ``S``.  So ranks, and with them AP, are exactly
    those of :func:`search` plus :func:`average_precision`.
    """
    if not queries:
        raise ValueError("no queries given")
    vectors = []
    for q in queries:
        if q.image_id not in ground_truth:
            raise KeyError(f"query {q.image_id!r} has no ground-truth entry")
        vectors.append(_query_vector(q, index))
    n = len(index)
    positions = index._positions
    real = index.mode == "real"
    row_bytes = index.vectors.shape[1] * index.vectors.itemsize  # one stacked query
    # bytes per (query, row) pair: a float64 score, or one int64 per code byte
    pair_bytes = 8 if real else 8 * row_bytes
    block = max(
        1, min(_SCORE_BLOCK_BYTES // max(pair_bytes * n, 1), _SCAN_BLOCK_BYTES // row_bytes)
    )
    if real:
        norms = np.sqrt(index._sq_norms)
    else:
        row_order = np.arange(n)
    per_query: dict[str, float] = {}
    for lo in range(0, len(queries), block):
        Q = np.stack(vectors[lo : lo + block])
        if real:
            scores = Q @ index.vectors.T
            scores *= -2.0
            scores += index._sq_norms
            q_sq = np.einsum("ij,ij->i", Q, Q)
            scores += q_sq[:, None]
            q_norms = np.sqrt(q_sq)
        else:
            # distance then row: one integer key in search's order
            scores = _hamming(index.vectors, Q)
            scores *= n
            scores += row_order
        for b, query in enumerate(queries[lo : lo + block]):
            qid = query.image_id
            relevant = ground_truth.relevant_for(qid) - {qid}
            if not relevant:
                warnings.warn(_EMPTY_RELEVANT, stacklevel=2)
                per_query[qid] = 0.0
                continue
            rows = np.array([positions[r] for r in relevant if r in positions], dtype=np.intp)
            excluded = [
                positions[j] for j in ground_truth.junk_for(qid) | {qid} if j in positions
            ]
            if rows.size == 0:
                ranks = rows
            elif real:
                err = _error_bound(q_norms[b], norms, index.width)
                ranks = _real_ranks(scores[b], err, Q[b], index.vectors, rows, excluded)
            else:
                key = scores[b]
                at = key[rows][:, None]
                ranks = (
                    1
                    + np.count_nonzero(key < at, axis=1)
                    - np.count_nonzero(key[excluded] < at, axis=1)
                )
            per_query[qid] = _ap_from_ranks(sorted(ranks.tolist()), len(relevant))
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
