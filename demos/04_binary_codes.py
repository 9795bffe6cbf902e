"""
Compact binary codes for the same signatures
============================================

Real-valued signatures are accurate but heavy; iterative quantization packs
them into a few dozen bytes.  It projects signatures onto their top PCA
directions, then learns an orthogonal rotation that minimizes the gap
between the projected data and its own signs.  Hamming distance on the
resulting codes ranks almost as well as Euclidean distance on the reals.
"""

import numpy as np

from faemb.aggregate import l2_normalize
from faemb.binary import encode_itq, fit_itq, hamming_distance, unpack_bits
from faemb.retrieval import build_binary_index, build_index, evaluate_map
from faemb.coding import SolverParams, train_coding
from faemb.pipeline import default_drop, embed_descriptor_set, signature_from_embedded
from faemb.aggregate import fit_whitening
from faemb.retrieval import synth_corpus

rng = np.random.default_rng(12)

# ----------------------------------------------------------------------
# Reuse the small pipeline from the retrieval demo to get signatures.
sets, gt = synth_corpus(8, 4, d=8, sigma=0.35, seed=5, descriptors_per_image=60)
stacked = np.vstack([s.descriptors for s in sets])
take = rng.choice(stacked.shape[0], size=800, replace=False)
model = train_coding(stacked[take].T, n=4, mu=1e-2, variant="ffaemb",
                     params=SolverParams(max_outer_iters=4), seed=0).model
embedded = [embed_descriptor_set(s, model) for s in sets]
wm = fit_whitening(embedded, drop=default_drop(8))
signatures = [signature_from_embedded(E, wm, image_id=s.image_id)
              for E, s in zip(embedded, sets)]
S = np.vstack([s.values for s in signatures])
print(f"{S.shape[0]} signatures of length {S.shape[1]}")

# ----------------------------------------------------------------------
# Fit 16-bit codes.  The quantization error trace is non-increasing and the
# learned rotation is orthogonal to machine precision.
fit = fit_itq(S, bits=16, iters=50, seed=0)
R = fit.model.rotation
print(f"rotation orthogonality error: {np.abs(R @ R.T - np.eye(16)).max():.2e}")
print(f"quantization error: {fit.quantization_errors[0]:.3f} -> {fit.quantization_errors[-1]:.3f}")

codes = [encode_itq(s, fit.model) for s in signatures]
print(f"code size: {codes[0].packed.nbytes} bytes for {codes[0].n_bits} bits")
print("first code bits:", unpack_bits(codes[0]))

# Same-cluster images land close in Hamming space.
same = hamming_distance(codes[0], codes[1])
other = hamming_distance(codes[0], codes[-1])
print(f"hamming({codes[0].image_id}, {codes[1].image_id}) = {same}   "
      f"hamming({codes[0].image_id}, {codes[-1].image_id}) = {other}")

# ----------------------------------------------------------------------
# Ranking quality: binary vs the real-valued baseline truncated to the same
# 16 dimensions (ITQ's own PCA projection, re-normalized).
Z = (S - fit.model.mean) @ fit.model.pca
real = [l2_normalize(z, image_id=s.image_id) for z, s in zip(Z, signatures)]
map_real = evaluate_map(real, build_index(real), gt).mean_average_precision
map_bin = evaluate_map(codes, build_binary_index(codes), gt).mean_average_precision
print(f"\nmAP real-16d: {map_real:.4f}   mAP binary-16bit: {map_bin:.4f}")
