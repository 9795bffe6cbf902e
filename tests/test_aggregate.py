import numpy as np
import pytest

import faemb.aggregate
from faemb.aggregate import (
    DemocraticResult,
    ImageSignature,
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
        # each basis column is an eigenvector over the square root of its eigenvalue
        np.testing.assert_allclose(
            np.sort(1.0 / (model.basis**2).sum(axis=0)), [1.0, 4.0], atol=1e-9
        )
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
        Xc = Phi - Phi.mean(axis=0)
        lam, P = np.linalg.eigh(Xc.T @ Xc / (len(Phi) - 1))
        lam, P = lam[::-1], P[:, ::-1]  # descending
        by_hand = (Xc @ P / np.sqrt(np.maximum(lam, 1e-10 * lam[0])))[:, 1:]
        # an eigenvector's sign is arbitrary: align each column before comparing
        by_hand *= np.sign((W * by_hand).sum(axis=0))
        np.testing.assert_allclose(W, by_hand, atol=1e-12)
        for i in range(0, 40, 7):
            np.testing.assert_allclose(whiten(Phi[i], model), W[i], atol=1e-12)

    def test_eps_floor_handles_rank_deficiency(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((100, 2))
        Phi = np.hstack([base, base @ np.ones((2, 1))])  # third column dependent
        model = fit_whitening(Phi)
        assert model.floored == 1  # the dependent column's zero eigenvalue
        W = whiten_batch(Phi, model)
        assert np.isfinite(W).all()
        assert fit_whitening(base).floored == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_whitening(np.ones((1, 3)))
        with pytest.raises(ValueError):
            fit_whitening(np.ones((10, 3)), drop=3)
        with pytest.raises(ValueError, match="eps"):
            fit_whitening(np.eye(3), eps=0.0)
        with pytest.raises(ValueError, match="drop"):
            fit_whitening(np.ones((10, 3)), drop=-1)
        rng = np.random.default_rng(5)
        model = fit_whitening(rng.standard_normal((20, 3)))
        with pytest.raises(ValueError):
            whiten(np.ones(4), model)

    def test_block_validation(self):
        with pytest.raises(ValueError, match="2 training vectors, got 1"):
            fit_whitening([np.ones((1, 3)), np.ones((0, 3))])
        with pytest.raises(ValueError, match="2-D"):
            fit_whitening([])
        with pytest.raises(ValueError, match="3 columns"):
            fit_whitening([np.ones((4, 3)), np.ones((4, 2))])
        with pytest.raises(ValueError, match="2-D"):
            fit_whitening(np.ones(3))

    def test_basis_is_c_contiguous(self):
        # a fitted model must round as the same model read back from a file
        rng = np.random.default_rng(6)
        model = fit_whitening(rng.standard_normal((60, 5)), drop=1)
        assert model.basis.flags.c_contiguous
        fortran = WhiteningModel(mean=model.mean, basis=np.asfortranarray(model.basis))
        assert fortran.basis.flags.c_contiguous and fortran.floored is None


# Blocked and one-block fits agree with a two-pass mean and covariance to
# 1e-12 of the largest entry (measured about 1e-15).  Summing raw, unshifted
# squares instead misses this by 1e-7 on the offset data.
_BLOCK_RTOL = 1e-12


def _blocked_data(kind: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    if kind == "offset":  # mean 1e4, unit spread: the cancellation case
        return 1e4 + rng.standard_normal((300, 7))
    return rng.standard_normal((300, 7)) @ rng.standard_normal((7, 7))


class TestBlockedFit:
    @pytest.mark.parametrize("kind", ["plain", "offset"])
    @pytest.mark.parametrize(
        "cuts",
        [[7, 8, 9, 200], [1, 2, 150], [299], [3, 10, 11, 12, 13, 290, 298]],
        ids=["uneven", "short-first", "one-row-last", "many"],
    )
    def test_matches_one_block(self, kind, cuts):
        X = _blocked_data(kind)
        # the two-pass reference: center on the exact mean, then one product
        mean1, cov1 = X.mean(axis=0), np.cov(X, rowvar=False)
        for blocks in (X, np.split(X, cuts)):
            mean, cov = faemb.aggregate._moments(blocks)
            assert np.abs(mean - mean1).max() <= _BLOCK_RTOL * np.abs(mean1).max()
            assert np.abs(cov - cov1).max() <= _BLOCK_RTOL * np.abs(cov1).max()
        # so do the fitted models: basis @ basis.T is the inverse covariance,
        # free of eigenvector signs, and amplifies the difference by its
        # condition number
        one, blocked = fit_whitening(X), fit_whitening(np.split(X, cuts))
        inv1, inv = one.basis @ one.basis.T, blocked.basis @ blocked.basis.T
        assert np.abs(inv - inv1).max() <= 1e-9 * np.abs(inv1).max()

    def test_offset_data_needs_the_shift(self):
        X = _blocked_data("offset")
        _, cov = faemb.aggregate._moments(np.split(X, [7, 8, 9, 200]))
        naive = (X.T @ X - np.outer(X.sum(axis=0), X.sum(axis=0)) / len(X)) / (len(X) - 1)
        assert np.abs(naive - cov).max() > 1e3 * _BLOCK_RTOL * np.abs(cov).max()

    def test_one_row_blocks(self):
        X = _blocked_data("offset")
        mean1, cov1 = X.mean(axis=0), np.cov(X, rowvar=False)
        mean, cov = faemb.aggregate._moments(list(X[:, None, :]))
        assert np.abs(mean - mean1).max() <= _BLOCK_RTOL * np.abs(mean1).max()
        assert np.abs(cov - cov1).max() <= _BLOCK_RTOL * np.abs(cov1).max()

    def test_groups_hold_width_rows_but_the_last(self):
        sizes = [3, 1, 0, 5, 2, 2, 9, 1, 1]
        groups = list(faemb.aggregate._row_groups(sizes, lambda k: k, 4))
        assert groups == [[3, 1], [0, 5], [2, 2], [9], [1, 1]]
        flat = [sum(g) for g in groups]
        assert list(faemb.aggregate._row_groups(flat, lambda k: k, 4)) == [[f] for f in flat]
        # long vectors: a block stops at 2,048 rows, not at their length
        wide = list(faemb.aggregate._row_groups([1000] * 5, lambda k: k, 16_560))
        assert wide == [[1000] * 3, [1000] * 2]

    def test_grouping_depends_only_on_block_sizes(self):
        # per-image blocks and the same images pre-grouped by the rule give
        # bitwise the same model: this is what keeps fit-agg and the library
        # path equal
        rng = np.random.default_rng(8)
        images = [rng.standard_normal((m, 6)) for m in (2, 3, 1, 4, 5, 2, 1, 6, 3)]
        grouped = [
            np.concatenate(g) for g in faemb.aggregate._row_groups(images, len, 6)
        ]
        a, b = fit_whitening(images, drop=1), fit_whitening(iter(grouped), drop=1)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.basis.tobytes() == b.basis.tobytes()


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

    def test_failed_polish_returns_the_scaling_iterate(self, monkeypatch):
        seen = {}

        def missing_polish(K, lam):
            seen["lam"], seen["K"] = lam.copy(), K
            return 2.0 * lam, 0.5, 3  # a point that misses the 1e-3 tolerance

        monkeypatch.setattr(faemb.aggregate, "_newton_polish", missing_polish)
        Phi = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        res = democratic_weights(Phi)
        lam = seen["lam"]
        np.testing.assert_array_equal(res.weights, lam)
        assert res.residual == np.abs(lam * (seen["K"] @ lam) - 1.0).max()
        assert res.residual > 1e-3
        assert not res.converged

    def test_stalled_polish_stops_after_two_steps(self, monkeypatch):
        # more Gaussian rows than dimensions: the polish's accepted steps barely
        # lower the residual (without the stall rule it ran 16 steps here)
        Phi = np.random.default_rng(12).standard_normal((40, 24))
        res = democratic_weights(Phi)
        assert not res.converged
        assert res.iterations <= 100 + 2
        monkeypatch.setattr(
            faemb.aggregate, "_newton_polish", lambda K, lam: (2.0 * lam, 0.5, 0)
        )
        np.testing.assert_array_equal(democratic_weights(Phi).weights, res.weights)

    def test_near_orthogonal_sweep_keeps_converging(self):
        # criterion 8's near-orthogonal regime over many sizes, widths and
        # noise levels; every instance that converges needs the polish.  152
        # of 200 converged before the polish had a stall rule.
        rng = np.random.default_rng(818)
        converged = 0
        for _ in range(200):
            count = int(rng.integers(5, 61))
            base = rng.standard_normal((count, count + int(rng.integers(2, 41))))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            Phi = base + rng.uniform(0.05, 0.5) * rng.standard_normal(base.shape)
            res = democratic_weights(Phi)
            if res.converged:
                converged += 1
                psi = aggregate_image(Phi, res.weights)
                assert np.abs(res.weights * (Phi @ psi) - 1.0).max() <= 1e-3
        assert converged == 152

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
        # carries a zero mean, so a signature is projected as it is
        Psi, model = self.fit_toy()
        np.testing.assert_array_equal(model.mean, np.zeros(6))
        sig = ImageSignature(values=Psi[3])
        manual = Psi[3] @ model.basis
        got = apply_rn(sig, model)
        np.testing.assert_allclose(got.values, manual / np.linalg.norm(manual))

    def test_degenerate_passthrough(self):
        _, model = self.fit_toy()
        sig = ImageSignature(values=np.zeros(6), degenerate=True)
        out = apply_rn(sig, model)
        assert out.degenerate
        assert out.dim == model.out_dim == 3
        np.testing.assert_array_equal(out.values, np.zeros(3))

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
            WhiteningModel(mean=np.zeros(2), basis=np.ones((3, 2)))
        with pytest.raises(ValueError):
            WhiteningModel(mean=np.zeros(3), basis=np.ones((3, 4)))
        with pytest.raises(ValueError):
            WhiteningModel(mean=np.zeros(3), basis=np.ones((3, 0)))
        with pytest.raises(ValueError):
            WhiteningModel(mean=np.zeros(3), basis=np.ones(3))
