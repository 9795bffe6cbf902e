"""Independent reference implementations used to pin expected test values.

Everything here is written naively — exhaustive enumeration, plain loops,
textbook formulas — and deliberately shares no code with the package, so a
test that compares the two is a genuine cross-check.  The one exception is
``evaluate_map_naive``: it is the per-query evaluation path built from the
package's ``search`` and ``average_precision`` (each checked against
``search_naive`` and ``ap_naive``), kept as the bitwise reference for the
batched evaluator.  ``search_scan_naive`` is the full exact scan that a
real top-k ``search`` must reproduce bit for bit.
"""

from __future__ import annotations

import struct
import zlib
from itertools import product

import numpy as np


def objective_naive(x, C, gamma, mu, variant):
    """Per-sample coding objective via plain Python loops."""
    d, n = C.shape
    r = np.array(x, dtype=float)
    for j in range(n):
        r = r - gamma[j] * C[:, j]
    rec = 0.5 * sum(float(v) * float(v) for v in r)
    a = [sum(abs(float(x[i] - C[i, j])) for i in range(d)) ** 3 for j in range(n)]
    if variant == "faemb":
        pen = 0.5 * mu * sum(abs(float(gamma[j])) * a[j] for j in range(n))
    else:
        pen = 0.5 * mu * sum(float(g) ** 2 for g in gamma) * sum(a)
    return rec + pen


def _solve_support(C, x, mu, sigma):
    """KKT solve restricted to the support/sign pattern ``sigma``; None if singular."""
    n = C.shape[1]
    free = [j for j in range(n) if sigma[j] != 0]
    k = len(free)
    H = C.T @ C
    w = 0.5 * mu * np.abs(x[:, None] - C).sum(axis=0) ** 3
    A = np.zeros((k + 1, k + 1))
    for a, j in enumerate(free):
        for b, l in enumerate(free):
            A[a, b] = H[j, l]
        A[a, k] = 1.0
        A[k, a] = 1.0
    b_vec = np.zeros(k + 1)
    for a, j in enumerate(free):
        b_vec[a] = C[:, j] @ x - w[j] * sigma[j]
    b_vec[k] = 1.0
    try:
        sol = np.linalg.solve(A, b_vec)
    except np.linalg.LinAlgError:
        return None
    gamma = np.zeros(n)
    for a, j in enumerate(free):
        gamma[j] = sol[a]
    return gamma


def faemb_oracle(x, C, mu):
    """Global minimizer of the kinked objective by exhaustive orthant search.

    Enumerates every sign/support pattern in {-1, 0, +1}^n (n must be small),
    solves the restricted equality-constrained system, keeps sign-consistent
    candidates, and returns the best by objective value.
    """
    n = C.shape[1]
    best_gamma, best_q = None, np.inf
    for sigma in product((-1, 0, 1), repeat=n):
        if all(s == 0 for s in sigma):
            continue
        gamma = _solve_support(C, x, mu, sigma)
        if gamma is None or not np.isfinite(gamma).all():
            continue
        ok = True
        for j in range(n):
            if sigma[j] != 0 and gamma[j] * sigma[j] < -1e-9:
                ok = False
                break
        if not ok:
            continue
        q = objective_naive(x, C, gamma, mu, "faemb")
        if q < best_q - 1e-15:
            best_q, best_gamma = q, gamma
    return best_gamma


def ffaemb_oracle(x, C, mu):
    """Closed-form coder re-derived as one bordered KKT system."""
    n = C.shape[1]
    a_tot = float((np.abs(x[:, None] - C).sum(axis=0) ** 3).sum())
    G = C.T @ C + mu * a_tot * np.eye(n)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = G
    A[n, :n] = 1.0
    A[:n, n] = 1.0
    rhs = np.concatenate([C.T @ x, [1.0]])
    return np.linalg.solve(A, rhs)[:n]


def ls_simplex_oracle(x, C):
    """Equality-constrained least squares (mu = 0 case) via its KKT system."""
    return ffaemb_oracle(x, C, 0.0)


def golden_section_min(f):
    """Minimizer of a convex scalar function by bracketing and golden section.

    Walks downhill from 0 with doubling steps until ``f(c - s) >= f(c) <=
    f(c + s)``, which brackets a minimizer for convex ``f``, then shrinks the
    bracket by the golden ratio to the precision of its endpoints.
    """
    c, s = 0.0, 1.0
    fc = f(c)
    while True:
        fl, fr = f(c - s), f(c + s)
        if fl >= fc <= fr:
            break
        c, fc = (c - s, fl) if fl < fr else (c + s, fr)
        s *= 2.0
    lo, hi = c - s, c + s
    g = (5 ** 0.5 - 1) / 2
    p, q = hi - g * (hi - lo), lo + g * (hi - lo)
    fp, fq = f(p), f(q)
    for _ in range(500):
        if hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
        if fp <= fq:
            hi, q, fq = q, p, fp
            p = hi - g * (hi - lo)
            fp = f(p)
        else:
            lo, p, fp = p, q, fq
            q = lo + g * (hi - lo)
            fq = f(q)
    return p if fp <= fq else q


def anchor_coordinate_objective(t, a, b, mu, w, x, r):
    """``a/2 t^2 - b t + mu/2 sum_i w_i (|t - x_i| + r_i)^3`` by a plain loop."""
    pen = sum(float(wi) * (abs(t - float(xi)) + float(ri)) ** 3 for wi, xi, ri in zip(w, x, r))
    return 0.5 * a * t * t - b * t + 0.5 * mu * pen


def anchor_coordinate_naive(a, b, mu, w, x, r):
    """Minimizer of the convex 1-D anchor-coordinate objective by golden section."""
    return golden_section_min(lambda t: anchor_coordinate_objective(t, a, b, mu, w, x, r))


def fd_gradient(f, x0, h=1e-6):
    """Central finite differences of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e.flat[i] = h
        g.flat[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def embed_naive(x, gamma, C, s1=0.0, s2=0.0):
    """Embedding via the full outer product, flattened with explicit loops."""
    d, n = C.shape
    blocks = []
    for j in range(n):
        r = np.array([float(x[i] - C[i, j]) for i in range(d)])
        if s1 != 0.0:
            blocks.append(np.array([s1 * gamma[j]]))
        if s2 != 0.0:
            blocks.append(s2 * gamma[j] * r)
        outer = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                outer[a, b] = r[a] * r[b]
        tri = []
        for a in range(d):
            for b in range(a, d):
                tri.append(gamma[j] * outer[a, b])
        blocks.append(np.array(tri))
    return np.concatenate(blocks)


def vlad_naive(x, C):
    d, n = C.shape
    dists = [sum((float(x[i] - C[i, j])) ** 2 for i in range(d)) for j in range(n)]
    j_star = dists.index(min(dists))
    out = np.zeros(n * d)
    for i in range(d):
        out[j_star * d + i] = x[i] - C[i, j_star]
    return out


def vlat_naive(x, C):
    d, n = C.shape
    dists = [sum((float(x[i] - C[i, j])) ** 2 for i in range(d)) for j in range(n)]
    j_star = dists.index(min(dists))
    tri_len = d * (d + 1) // 2
    out = np.zeros(n * tri_len)
    pos = j_star * tri_len
    r = [float(x[i] - C[i, j_star]) for i in range(d)]
    for a in range(d):
        for b in range(a, d):
            out[pos] = r[a] * r[b]
            pos += 1
    return out


def search_naive(q, vectors, ids):
    """Exhaustive Euclidean ranking with stable ties, one distance at a time."""
    scored = []
    for i, (ident, v) in enumerate(zip(ids, vectors)):
        dist = float(np.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(q, v))))
        scored.append((dist, i, ident))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(ident, dist) for dist, _, ident in scored]


def search_scan_naive(q, vectors, ids, k=None):
    """Real search as one full scan: the whole-matrix sum of squared
    differences, sqrt, then a stable argsort of every row, cut to ``k``."""
    diff = np.asarray(vectors, dtype=np.float64) - q
    dist = np.sqrt((diff * diff).sum(axis=1))
    order = np.argsort(dist, kind="stable")[:k]
    return [(ids[i], float(dist[i])) for i in order]


def hamming_naive(bits_a, bits_b):
    """Distance between two 0/1 sequences by per-bit comparison."""
    assert len(bits_a) == len(bits_b)
    return sum(1 for a, b in zip(bits_a, bits_b) if int(a) != int(b))


def hamming_rank_naive(q_bits, db_bits, ids):
    scored = [
        (hamming_naive(q_bits, bits), i, ident)
        for i, (bits, ident) in enumerate(zip(db_bits, ids))
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(ident, dist) for dist, _, ident in scored]


def ap_naive(ranked_ids, relevant, junk=frozenset()):
    """Average precision straight from its definition."""
    cleaned = [r for r in ranked_ids if r not in junk]
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for rank, rid in enumerate(cleaned, start=1):
        if rid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def evaluate_map_naive(queries, index, ground_truth):
    """Per-query mAP: a full ``search`` then ``average_precision`` per query.

    Returns ``(mean, per_query)``.
    """
    from faemb.retrieval import average_precision, search

    if not queries:
        raise ValueError("no queries given")
    per_query = {}
    for q in queries:
        qid = q.image_id
        if qid not in ground_truth:
            raise KeyError(f"query {qid!r} has no ground-truth entry")
        ranked = [rid for rid, _ in search(q, index) if rid != qid]
        relevant = ground_truth.relevant_for(qid) - {qid}
        per_query[qid] = average_precision(ranked, relevant, ground_truth.junk_for(qid))
    return float(np.mean(list(per_query.values()))), per_query


def container_naive(sections, major=1, minor=0):
    """A model container byte by byte, as the ``faemb.storage`` docstring lays it out.

    A string is kind 3 with one dimension, its utf-8 byte length.
    """
    kind_and_code = {
        "float64": (0, "<d"),
        "int64": (1, "<q"),
        "uint8": (2, "<B"),
        "float32": (4, "<f"),
    }
    blobs = []
    for name, value in sections.items():
        if isinstance(value, str):
            payload = value.encode("utf-8")
            kind, shape = 3, [len(payload)]
        else:
            arr = np.asarray(value)
            kind, code = kind_and_code[arr.dtype.name]
            shape = list(arr.shape)
            payload = b"".join(struct.pack(code, x) for x in arr.flat)
        body = struct.pack("<II", kind, len(shape))
        for extent in shape:
            body += struct.pack("<Q", extent)
        body += payload
        blobs.append((name.encode("utf-8"), body + struct.pack("<I", zlib.crc32(body))))
    offset = 16 + sum(4 + len(name) + 16 for name, _ in blobs)
    out = struct.pack("<4sIII", b"FAMB", major, minor, len(blobs))
    for name, blob in blobs:
        out += struct.pack("<I", len(name)) + name + struct.pack("<QQ", offset, len(blob))
        offset += len(blob)
    for _, blob in blobs:
        out += blob
    return out
