"""
A complete retrieval pipeline on a planted corpus
=================================================

Synthetic images come in clusters: every image of a cluster shares a
descriptor template plus noise, and images of the same cluster are mutually
relevant.  The pipeline is: train anchors, embed every descriptor, whiten
and truncate, weight descriptors democratically so each contributes equally
to its image signature, power-law normalize, and rank by Euclidean distance.
"""

import numpy as np

from faemb.coding import SolverParams, train_coding
from faemb.pipeline import default_drop, embed_descriptor_set, signature_from_embedded
from faemb.aggregate import fit_whitening
from faemb.retrieval import build_index, evaluate_map, search, synth_corpus

rng = np.random.default_rng(3)

# ----------------------------------------------------------------------
# 8 clusters x 4 images, 60 descriptors each, in 8 dimensions.
sets, gt = synth_corpus(8, 4, d=8, sigma=0.35, seed=5, descriptors_per_image=60)
print(f"corpus: {len(sets)} images, descriptors per image: {sets[0].descriptors.shape}")

# Train the coding model on a descriptor subsample.
stacked = np.vstack([s.descriptors for s in sets])
take = rng.choice(stacked.shape[0], size=800, replace=False)
result = train_coding(stacked[take].T, n=4, mu=1e-2, variant="ffaemb",
                      params=SolverParams(max_outer_iters=4), seed=0)
model = result.model
print(f"trained {model.n_anchors} anchors; objective {result.trace[0]:.4f} -> {result.trace[-1]:.4f}")

# Embed everything, fit the whitening on the embedded rows, truncate.  The
# fit takes the per-image list as it is and accumulates its covariance block
# by block, so the rows are never stacked into one matrix.
embedded = [embed_descriptor_set(s, model) for s in sets]
drop = default_drop(stacked.shape[1])
wm = fit_whitening(embedded, drop=drop)
print(f"embedded width {embedded[0].shape[1]}, dropping {drop} -> signature length "
      f"{embedded[0].shape[1] - drop}")

# Democratic weighting + power law + unit norm, one signature per image.
signatures = [signature_from_embedded(E, wm, image_id=s.image_id)
              for E, s in zip(embedded, sets)]

# ----------------------------------------------------------------------
# Search: the query is its own best match at distance zero; images of the
# same cluster follow.
index = build_index(signatures)
hits = search(signatures[0], index, k=5)
print(f"\ntop-5 for {signatures[0].image_id}:")
for rid, dist in hits:
    marker = "*" if rid in gt.relevant_for(signatures[0].image_id) or rid == signatures[0].image_id else " "
    print(f"  {marker} {rid}  {dist:.4f}")

report = evaluate_map(signatures, index, gt)
print(f"\nmAP over all {len(report.per_query)} queries: {report.mean_average_precision:.4f}")
