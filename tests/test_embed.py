import numpy as np
import pytest

from faemb.coding import CodingModel, ffaemb_gamma, ffaemb_gamma_batch
from faemb.embed import (
    BoundInputs,
    EmbeddingConfig,
    bound_faemb,
    bound_ffaemb,
    embed_faemb,
    embed_faemb_batch,
    embed_vlad,
    embed_vlat,
    embedding_length,
    taylor_approx_error,
)

from oracles import embed_naive, vlad_naive, vlat_naive


def half_half_model():
    # two scalar anchors at 0 and 1, descriptor midway between them
    model = CodingModel(anchors=np.array([[0.0, 1.0]]), mu=0.0, variant="faemb")
    return np.array([0.5]), np.array([0.5, 0.5]), model


class TestEmbedFaemb:
    def test_scalar_anchor_pair_by_hand(self):
        x, gamma, model = half_half_model()
        np.testing.assert_allclose(embed_faemb(x, gamma, model), [0.125, 0.125])

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(0)
        for s1, s2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 0.5), (0.7, 0.3)):
            d, n = 4, 3
            C = rng.standard_normal((d, n))
            x = rng.standard_normal(d)
            gamma = rng.dirichlet(np.ones(n))
            model = CodingModel(anchors=C, mu=0.0, variant="faemb")
            cfg = EmbeddingConfig(s1=s1, s2=s2)
            got = embed_faemb(x, gamma, model, cfg)
            np.testing.assert_allclose(got, embed_naive(x, gamma, C, s1, s2), atol=1e-12)
            assert got.shape == (embedding_length(n, d, cfg),)

    def test_one_hot_coefficients_reduce_to_vlat_block(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((3, 4))
        x = C[:, 2] + 0.1 * rng.standard_normal(3)  # nearest anchor is 2
        gamma = np.zeros(4)
        gamma[2] = 1.0
        model = CodingModel(anchors=C, mu=0.0, variant="faemb")
        np.testing.assert_allclose(embed_faemb(x, gamma, model), embed_vlat(x, C), atol=1e-12)

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        model = CodingModel(anchors=C, mu=0.0, variant="faemb")
        g1 = rng.dirichlet(np.ones(3))
        g2 = rng.dirichlet(np.ones(3))
        mix = 0.3 * g1 + 0.7 * g2
        np.testing.assert_allclose(
            embed_faemb(x, mix, model),
            0.3 * embed_faemb(x, g1, model) + 0.7 * embed_faemb(x, g2, model),
            atol=1e-12,
        )

    def test_zero_coefficient_gives_zero_block(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((2, 3))
        model = CodingModel(anchors=C, mu=0.0, variant="faemb")
        gamma = np.array([0.5, 0.0, 0.5])
        out = embed_faemb(rng.standard_normal(2), gamma, model)
        tri = 3
        np.testing.assert_array_equal(out[tri : 2 * tri], 0.0)

    def test_rejects_infeasible_gamma(self):
        x, _, model = half_half_model()
        with pytest.raises(ValueError, match="sum to 1"):
            embed_faemb(x, np.array([0.9, 0.9]), model)

    def test_rejects_shape_mismatch(self):
        x, gamma, model = half_half_model()
        with pytest.raises(ValueError):
            embed_faemb(np.array([0.5, 0.5]), gamma, model)
        with pytest.raises(ValueError):
            embed_faemb(x, np.array([1.0]), model)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        d, n, m = 5, 4, 17
        C = rng.standard_normal((d, n))
        X = rng.standard_normal((d, m))
        model = CodingModel(anchors=C, mu=1e-2, variant="ffaemb")
        Gamma = ffaemb_gamma_batch(X, model)
        for s1, s2 in ((0.0, 0.0), (0.2, 0.4)):
            cfg = EmbeddingConfig(s1=s1, s2=s2)
            batch = embed_faemb_batch(X, Gamma, model, cfg)
            assert batch.shape == (m, embedding_length(n, d, cfg))
            for i in range(m):
                np.testing.assert_allclose(
                    batch[i], embed_naive(X[:, i], Gamma[:, i], C, s1, s2), atol=1e-12
                )
                # the single-descriptor branch does the same element-wise products
                np.testing.assert_array_equal(
                    batch[i], embed_faemb(X[:, i], Gamma[:, i], model, cfg)
                )


class TestEmbeddingLength:
    def test_default_length(self):
        assert embedding_length(8, 16) == 8 * 136
        assert embedding_length(16, 45) == 16 * 1035

    def test_optional_blocks(self):
        cfg = EmbeddingConfig(s1=1.0, s2=1.0)
        assert embedding_length(2, 3, cfg) == 2 * (1 + 3 + 6)
        assert embedding_length(2, 3, EmbeddingConfig(s1=1.0)) == 2 * (1 + 6)

    def test_config_rejects_negative_scales(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(s1=-0.1)
        with pytest.raises(ValueError):
            EmbeddingConfig(s2=float("nan"))


class TestHardAssignment:
    def test_vlad_matches_naive(self):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((4, 5))
        for _ in range(10):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(embed_vlad(x, C), vlad_naive(x, C), atol=1e-12)

    def test_vlat_matches_naive(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((3, 4))
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(embed_vlat(x, C), vlat_naive(x, C), atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        C = np.array([[1.0, -1.0]])  # x = 0 is equidistant
        out = embed_vlad(np.array([0.0]), C)
        np.testing.assert_array_equal(out, [-1.0, 0.0])
        out2 = embed_vlat(np.array([0.0]), C)
        np.testing.assert_array_equal(out2, [1.0, 0.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            embed_vlad(np.ones(3), np.ones((2, 4)))


class TestBounds:
    def test_hand_values(self):
        x, gamma, model = half_half_model()
        np.testing.assert_allclose(bound_faemb(x, gamma, model, M=6.0), 0.125)
        np.testing.assert_allclose(bound_ffaemb(x, gamma, model, M=6.0), 0.25)

    def test_relaxed_bound_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            C = rng.standard_normal((d, n))
            x = rng.standard_normal(d)
            gamma = rng.standard_normal(n)
            gamma /= gamma.sum()
            model = CodingModel(anchors=C, mu=0.0, variant="faemb")
            tight = bound_faemb(x, gamma, model, M=2.0)
            loose = bound_ffaemb(x, gamma, model, M=2.0)
            assert loose >= tight - 1e-12

    def test_rejects_nonpositive_m(self):
        x, gamma, model = half_half_model()
        with pytest.raises(ValueError):
            bound_faemb(x, gamma, model, M=0.0)
        with pytest.raises(ValueError):
            bound_ffaemb(x, gamma, model, M=-1.0)


class TestTaylorHarness:
    def test_quadratic_is_exact_at_second_order(self):
        rng = np.random.default_rng(8)
        d, n = 3, 4
        A = rng.standard_normal((d, d))
        A = A + A.T
        b = rng.standard_normal(d)

        inputs = BoundInputs(
            value=lambda z: float(0.5 * z @ A @ z + b @ z),
            gradient=lambda z: A @ z + b,
            hessian=lambda z: A,
            M=1.0,
            k=2,
        )
        C = rng.standard_normal((d, n))
        model = CodingModel(anchors=C, mu=1e-2, variant="ffaemb")
        x = rng.standard_normal(d)
        gamma = ffaemb_gamma(x, model)
        lhs, rhs = taylor_approx_error(inputs, x, gamma, model)
        assert lhs <= 1e-10
        assert rhs >= 0.0

    def test_affine_is_exact_at_first_order(self):
        rng = np.random.default_rng(9)
        d, n = 4, 3
        b = rng.standard_normal(d)
        inputs = BoundInputs(
            value=lambda z: float(b @ z + 2.0),
            gradient=lambda z: b,
            hessian=None,
            M=1.0,
            k=1,
        )
        C = rng.standard_normal((d, n))
        model = CodingModel(anchors=C, mu=0.0, variant="faemb")
        x = rng.standard_normal(d)
        gamma = np.full(n, 1.0 / n)
        lhs, _ = taylor_approx_error(inputs, x, gamma, model)
        assert lhs <= 1e-12

    def test_sine_bound_holds(self):
        # f(z) = sin(sum z); all derivatives bounded by 1
        rng = np.random.default_rng(10)
        d, n = 3, 4
        ones = np.ones(d)
        for k in (1, 2):
            inputs = BoundInputs(
                value=lambda z: float(np.sin(z.sum())),
                gradient=lambda z: np.cos(z.sum()) * ones,
                hessian=lambda z: -np.sin(z.sum()) * np.ones((d, d)),
                M=1.0,
                k=k,
            )
            worst = 0.0
            for _ in range(50):
                C = rng.standard_normal((d, n))
                model = CodingModel(anchors=C, mu=1e-2, variant="ffaemb")
                x = rng.standard_normal(d)
                gamma = ffaemb_gamma(x, model)
                lhs, rhs = taylor_approx_error(inputs, x, gamma, model)
                worst = max(worst, lhs - rhs)
            assert worst <= 1e-12

    def test_k2_requires_hessian(self):
        with pytest.raises(ValueError, match="hessian"):
            BoundInputs(
                value=lambda z: 0.0,
                gradient=lambda z: np.zeros(2),
                hessian=None,
                M=1.0,
                k=2,
            )

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k"):
            BoundInputs(
                value=lambda z: 0.0,
                gradient=lambda z: np.zeros(2),
                hessian=None,
                M=1.0,
                k=3,
            )
