import numpy as np
import pytest

from faemb.aggregate import (
    DemocraticResult,
    ImageSignature,
    RotationNormModel,
    WhiteningModel,
    aggregate_image,
    apply_rn,
    democratic_weights,
    fit_rotation_norm,
    fit_whitening,
    l2_normalize,
    power_law,
    sum_weights,
    whiten,
    whiten_batch,
)


class TestWhitening:
    def test_axis_aligned_covariance_by_hand(self):
        # x-variance 4, y-variance 1 around mean (1, -2)
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((4000, 2))
        Z -= Z.mean(axis=0)
        # exactly decorrelate and rescale the sample so the answer is known
        cov = Z.T @ Z / (len(Z) - 1)
        lam, P = np.linalg.eigh(cov)
        Z = Z @ P / np.sqrt(lam)
        Phi = Z * np.array([2.0, 1.0]) + np.array([1.0, -2.0])
        model = fit_whitening(Phi)
        np.testing.assert_allclose(model.mean, [1.0, -2.0], atol=1e-9)
        np.testing.assert_allclose(np.sort(model.eigenvalues), [1.0, 4.0], atol=1e-9)
        W = whiten_batch(Phi, model)
        np.testing.assert_allclose(W.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(W.T @ W / (len(W) - 1), np.eye(2), atol=1e-8)

    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        Phi = rng.standard_normal((500, 6)) @ A + rng.standard_normal(6)
        model = fit_whitening(Phi)
        W = whiten_batch(Phi, model)
        cov = W.T @ W / (len(W) - 1)
        np.testing.assert_allclose(cov, np.eye(6), atol=1e-8)

    def test_drop_removes_leading_directions(self):
        rng = np.random.default_rng(2)
        Phi = rng.standard_normal((300, 5))
        Phi[:, 0] *= 50.0  # dominant direction
        model = fit_whitening(Phi, drop=2)
        assert model.out_dim == 3
        assert whiten(Phi[0], model).shape == (3,)
        W = whiten_batch(Phi, model)
        assert W.shape == (300, 3)

    def test_scalar_and_batch_agree(self):
        rng = np.random.default_rng(3)
        Phi = rng.standard_normal((40, 4))
        model = fit_whitening(Phi, drop=1)
        W = whiten_batch(Phi, model)
        scale = np.sqrt(np.maximum(model.eigenvalues, model.eps))
        by_hand = ((Phi - Phi.mean(axis=0)) @ model.projection / scale)[:, 1:]
        np.testing.assert_allclose(W, by_hand, atol=1e-12)
        for i in range(0, 40, 7):
            np.testing.assert_allclose(whiten(Phi[i], model), W[i], atol=1e-12)

    def test_eps_floor_handles_rank_deficiency(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((100, 2))
        Phi = np.hstack([base, base @ np.ones((2, 1))])  # third column dependent
        model = fit_whitening(Phi)
        W = whiten_batch(Phi, model)
        assert np.isfinite(W).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_whitening(np.ones((1, 3)))
        with pytest.raises(ValueError):
            fit_whitening(np.ones((10, 3)), drop=3)
        rng = np.random.default_rng(5)
        model = fit_whitening(rng.standard_normal((20, 3)))
        with pytest.raises(ValueError):
            whiten(np.ones(4), model)

    def test_model_rejects_unsorted_eigenvalues(self):
        with pytest.raises(ValueError, match="descending"):
            WhiteningModel(
                mean=np.zeros(2),
                projection=np.eye(2),
                eigenvalues=np.array([1.0, 2.0]),
                drop=0,
                eps=1e-10,
            )


class TestDemocraticWeights:
    def test_single_unit_vector(self):
        res = democratic_weights(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(res.weights, [1.0], atol=1e-12)
        assert res.converged

    def test_orthonormal_rows_get_unit_weight(self):
        res = democratic_weights(np.eye(4))
        np.testing.assert_allclose(res.weights, np.ones(4), atol=1e-12)
        assert res.residual <= 1e-12

    def test_orthogonal_rows_scale_inversely_with_norm(self):
        # for mutually orthogonal rows the condition decouples:
        # w_i * c_i^2 * w_i = 1, so w_i = 1 / c_i
        norms = np.array([0.5, 1.0, 2.0, 4.0])
        Phi = np.diag(norms)
        res = democratic_weights(Phi)
        np.testing.assert_allclose(res.weights, 1.0 / norms, rtol=1e-10)
        assert res.converged

    def test_equalizes_contributions(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((12, 8))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        Phi = base + 0.25 * rng.standard_normal((12, 8))
        res = democratic_weights(Phi)
        assert res.converged
        psi = aggregate_image(Phi, res.weights)
        contrib = res.weights * (Phi @ psi)
        np.testing.assert_allclose(contrib, 1.0, atol=1e-3)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        Phi = rng.standard_normal((10, 6))
        Phi /= np.linalg.norm(Phi, axis=1, keepdims=True)
        perm = rng.permutation(10)
        res = democratic_weights(Phi)
        res_p = democratic_weights(Phi[perm])
        np.testing.assert_allclose(res_p.weights, res.weights[perm], atol=1e-8)

    def test_zero_norm_row_gets_zero_weight(self):
        Phi = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        res = democratic_weights(Phi)
        assert res.weights[1] == 0.0
        np.testing.assert_allclose(res.weights[[0, 2]], [1.0, 0.5], rtol=1e-10)

    def test_all_zero_rows_raise(self):
        with pytest.raises(ValueError, match="zero norm"):
            democratic_weights(np.zeros((3, 4)))

    def test_unsatisfiable_instance_reports_not_converged(self):
        # two anti-parallel rows: lam_i (K lam)_i = 1 needs both products
        # positive, impossible with lam >= 0
        Phi = np.array([[1.0, 0.0], [-1.0, 0.0]])
        res = democratic_weights(Phi)
        assert not res.converged
        assert res.residual > 1e-3

    def test_result_fields(self):
        res = democratic_weights(np.eye(2))
        assert isinstance(res, DemocraticResult)
        assert res.iterations >= 0


class TestPooling:
    def test_sum_weights(self):
        np.testing.assert_array_equal(sum_weights(4), np.ones(4))
        with pytest.raises(ValueError):
            sum_weights(0)

    def test_aggregate_is_weighted_sum(self):
        rng = np.random.default_rng(20)
        Phi = rng.standard_normal((5, 7))
        w = rng.uniform(0.5, 2.0, 5)
        np.testing.assert_allclose(aggregate_image(Phi, w), Phi.T @ w, atol=1e-12)

    def test_aggregate_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_image(np.ones((3, 2)), np.ones(4))


class TestPowerLaw:
    def test_identity_at_alpha_one(self):
        v = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(power_law(v, alpha=1.0), v)

    def test_square_root_by_hand(self):
        np.testing.assert_allclose(power_law(np.array([4.0, -9.0])), [2.0, -3.0])

    def test_preserves_sign_and_zero(self):
        v = np.array([-8.0, 0.0, 1.0])
        out = power_law(v, alpha=1 / 3)
        np.testing.assert_allclose(out, [-2.0, 0.0, 1.0])

    def test_alpha_validated(self):
        for bad in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                power_law(np.ones(2), alpha=bad)


class TestNormalize:
    def test_unit_norm(self):
        sig = l2_normalize(np.array([3.0, 4.0]), image_id="img")
        np.testing.assert_allclose(sig.values, [0.6, 0.8])
        np.testing.assert_allclose(np.linalg.norm(sig.values), 1.0)
        assert sig.image_id == "img"
        assert not sig.degenerate

    def test_zero_vector_degenerate(self):
        sig = l2_normalize(np.zeros(5))
        assert sig.degenerate
        np.testing.assert_array_equal(sig.values, np.zeros(5))

    def test_signature_rejects_nan(self):
        with pytest.raises(ValueError):
            ImageSignature(values=np.array([np.nan, 1.0]))


class TestRotationNorm:
    def fit_toy(self, seed=30, N=200, D=6, keep=3):
        rng = np.random.default_rng(seed)
        Psi = rng.standard_normal((N, D))
        Psi /= np.linalg.norm(Psi, axis=1, keepdims=True)
        return Psi, fit_rotation_norm(Psi, keep=keep)

    def test_output_is_unit_norm_and_truncated(self):
        Psi, model = self.fit_toy()
        out = apply_rn(l2_normalize(Psi[0]), model)
        assert out.dim == 3
        np.testing.assert_allclose(np.linalg.norm(out.values), 1.0)

    def test_no_centering_applied(self):
        # shifting the fit data must not shift the application: the model
        # carries no mean, so applying to the zero signature stays zero-free
        Psi, model = self.fit_toy()
        sig = ImageSignature(values=Psi[3])
        manual = model.rotation @ Psi[3]
        got = apply_rn(sig, model)
        manual_t = manual[: model.keep]
        np.testing.assert_allclose(got.values, manual_t / np.linalg.norm(manual_t))

    def test_degenerate_passthrough(self):
        _, model = self.fit_toy()
        sig = ImageSignature(values=np.zeros(6), degenerate=True)
        out = apply_rn(sig, model)
        assert out.degenerate
        assert out.dim == model.keep

    def test_keep_bounds_validated(self):
        rng = np.random.default_rng(31)
        Psi = rng.standard_normal((50, 4))
        with pytest.raises(ValueError):
            fit_rotation_norm(Psi, keep=0)
        with pytest.raises(ValueError):
            fit_rotation_norm(Psi, keep=5)

    def test_length_mismatch_rejected(self):
        _, model = self.fit_toy()
        with pytest.raises(ValueError):
            apply_rn(ImageSignature(values=np.zeros(7)), model)

    def test_model_shape_validated(self):
        with pytest.raises(ValueError):
            RotationNormModel(rotation=np.ones((2, 3)), keep=1)
        with pytest.raises(ValueError):
            RotationNormModel(rotation=np.eye(3), keep=4)
