import threading

import numpy as np
import pytest

from faemb.aggregate import (
    aggregate_image,
    democratic_weights,
    fit_whitening,
    l2_normalize,
    power_law,
    whiten_batch,
)
from faemb.coding import CodingModel, kmeans_init
from faemb.core import DescriptorSet, stack_descriptors
from faemb.embed import embedding_length
from faemb.pipeline import (
    AggregationParams,
    BenchResult,
    benchmark_embedding,
    code_batch,
    compute_signature,
    default_drop,
    embed_descriptor_set,
    parallel_map,
    signature_from_embedded,
)


def toy_setup(seed=0, d=5, n=3, n_images=4, count=20):
    rng = np.random.default_rng(seed)
    sets = [
        DescriptorSet(image_id=f"img{i}", descriptors=rng.standard_normal((count, d)))
        for i in range(n_images)
    ]
    anchors = kmeans_init(stack_descriptors(sets).T, n, seed=seed)
    model = CodingModel(anchors=anchors, mu=1e-2, variant="ffaemb")
    embedded = [embed_descriptor_set(s, model) for s in sets]
    whitening = fit_whitening(np.vstack(embedded), drop=2)
    return sets, model, embedded, whitening


class TestDefaultDrop:
    def test_matches_one_anchor_block(self):
        assert default_drop(16) == 136
        assert default_drop(45) == 1035


class TestEmbedDescriptorSet:
    def test_shapes(self):
        sets, model, embedded, _ = toy_setup()
        L = embedding_length(model.n_anchors, model.dim)
        assert embedded[0].shape == (20, L)

    def test_coefficients_match_code_batch(self):
        sets, model, _, _ = toy_setup()
        X = sets[0].descriptors.T
        Gamma = code_batch(X, model)
        np.testing.assert_allclose(Gamma.sum(axis=0), 1.0, atol=1e-9)


class TestSignatureFromEmbedded:
    def test_matches_manual_chain(self):
        sets, model, embedded, whitening = toy_setup()
        agg = AggregationParams(mode="democratic", alpha=0.5)
        got = signature_from_embedded(embedded[0], whitening, agg, image_id="img0")
        Pw = whiten_batch(embedded[0], whitening)
        w = democratic_weights(Pw).weights
        manual = l2_normalize(power_law(aggregate_image(Pw, w), 0.5), image_id="img0")
        np.testing.assert_allclose(got.values, manual.values, atol=1e-12)
        assert got.image_id == "img0"
        np.testing.assert_allclose(np.linalg.norm(got.values), 1.0)

    def test_sum_mode(self):
        sets, model, embedded, whitening = toy_setup()
        agg = AggregationParams(mode="sum", alpha=1.0)
        got = signature_from_embedded(embedded[1], whitening, agg)
        Pw = whiten_batch(embedded[1], whitening)
        manual = l2_normalize(Pw.sum(axis=0))
        np.testing.assert_allclose(got.values, manual.values, atol=1e-12)

    def test_degenerate_image_flagged_not_crashed(self):
        sets, model, embedded, whitening = toy_setup()
        # rows equal to the whitening mean whiten to exactly zero, making the
        # equalization condition unsatisfiable; the pipeline must flag, not crash
        sig = signature_from_embedded(
            np.tile(whitening.mean, (embedded[0].shape[0], 1)), whitening
        )
        assert sig.degenerate
        assert sig.dim == whitening.out_dim

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            AggregationParams(mode="max")


class TestComputeSignature:
    def test_equals_two_stage_path(self):
        sets, model, embedded, whitening = toy_setup()
        direct = compute_signature(sets[2], model, whitening)
        staged = signature_from_embedded(embedded[2], whitening, image_id="img2")
        np.testing.assert_allclose(direct.values, staged.values, atol=1e-12)
        assert direct.image_id == "img2"

    def test_identical_images_identical_signatures(self):
        sets, model, _, whitening = toy_setup()
        twin = DescriptorSet(image_id="twin", descriptors=sets[0].descriptors.copy())
        a = compute_signature(sets[0], model, whitening)
        b = compute_signature(twin, model, whitening)
        np.testing.assert_array_equal(a.values, b.values)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(50))
        assert parallel_map(lambda v: v * v, items, threads=4) == [v * v for v in items]

    def test_serial_path(self):
        assert parallel_map(str, [3, 1, 2], threads=1) == ["3", "1", "2"]

    def test_actually_uses_worker_threads(self):
        seen = set()

        def who(v):
            seen.add(threading.current_thread().name)
            return v

        parallel_map(who, list(range(64)), threads=4)
        assert any("ThreadPoolExecutor" in name for name in seen)

    def test_accepts_generators(self):
        assert parallel_map(lambda v: v + 1, (i for i in range(5)), threads=2) == [
            1,
            2,
            3,
            4,
            5,
        ]

    def test_pipeline_results_match_serial(self):
        sets, model, _, whitening = toy_setup()

        def run(dset):
            return compute_signature(dset, model, whitening)

        serial = parallel_map(run, sets, threads=1)
        threaded = parallel_map(run, sets, threads=3)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.values, b.values)


class TestBenchmark:
    def test_tiny_run_reports_sane_fields(self):
        res = benchmark_embedding(n=3, d=4, count=40, faemb_sample=10, seed=0)
        assert isinstance(res, BenchResult)
        assert res.count == 40
        assert res.faemb_sample == 10
        assert res.n == 3 and res.d == 4
        assert res.faemb_us > 0 and res.ffaemb_us > 0
        np.testing.assert_allclose(res.ratio, res.faemb_us / res.ffaemb_us, rtol=1e-12)

    def test_sample_clipped_to_count(self):
        res = benchmark_embedding(n=2, d=3, count=5, faemb_sample=50, seed=1)
        assert res.faemb_sample == 5

    def test_count_validated(self):
        with pytest.raises(ValueError):
            benchmark_embedding(count=0)
