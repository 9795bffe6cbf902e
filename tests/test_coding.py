from dataclasses import replace

import numpy as np
import pytest

import faemb.coding
from faemb.coding import (
    STATIONARITY_TOL,
    CodingModel,
    SingularSystemError,
    SolverParams,
    _anchor_cd_sweeps,
    _solve_anchor_coordinate,
    anchor_gradient,
    faemb_gamma,
    faemb_gamma_batch,
    ffaemb_gamma,
    ffaemb_gamma_batch,
    gamma_gradient,
    kmeans_init,
    objective,
    per_sample_objective,
    train_coding,
    update_anchors,
)

from oracles import (
    anchor_coordinate_naive,
    anchor_coordinate_objective,
    faemb_oracle,
    fd_gradient,
    ffaemb_oracle,
    golden_section_min,
    ls_simplex_oracle,
    objective_naive,
)


def random_instance(rng, d=None, n=None):
    d = d or int(rng.integers(3, 11))
    n = n or int(rng.integers(2, min(d, 6) + 1))
    C = rng.standard_normal((d, n))
    x = rng.standard_normal(d)
    return x, C


class TestCodingModel:
    def test_rejects_empty_anchor_set(self):
        with pytest.raises(ValueError):
            CodingModel(anchors=np.ones((3, 0)), mu=0.0, variant="faemb")

    def test_single_anchor_pins_coefficient_to_one(self):
        # degenerate but legal: the sum-to-one constraint leaves no freedom
        model = CodingModel(anchors=np.array([[0.4], [1.1]]), mu=0.1, variant="ffaemb")
        np.testing.assert_allclose(ffaemb_gamma(np.array([2.0, -1.0]), model), [1.0])
        model_f = CodingModel(anchors=model.anchors, mu=0.1, variant="faemb")
        sol = faemb_gamma(np.array([2.0, -1.0]), model_f)
        np.testing.assert_allclose(sol.gamma, [1.0])
        assert sol.converged

    def test_rejects_duplicate_anchors(self):
        C = np.ones((3, 3))
        C[:, 2] = 2.0
        with pytest.raises(ValueError, match="coincide"):
            CodingModel(anchors=C, mu=0.0, variant="faemb")

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            CodingModel(anchors=np.eye(3), mu=0.0, variant="vlad")

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            CodingModel(anchors=np.eye(3), mu=-1.0, variant="faemb")

    def test_properties(self):
        m = CodingModel(anchors=np.eye(4)[:, :3], mu=0.5, variant="ffaemb")
        assert m.dim == 4
        assert m.n_anchors == 3


class TestFfaembGamma:
    def test_matches_oracle_across_mu(self):
        rng = np.random.default_rng(10)
        for mu in (0.0, 1e-3, 1e-2, 1.0):
            for _ in range(10):
                x, C = random_instance(rng)
                model = CodingModel(anchors=C, mu=mu, variant="ffaemb")
                got = ffaemb_gamma(x, model)
                np.testing.assert_allclose(got, ffaemb_oracle(x, C, mu), atol=1e-9)
                assert abs(got.sum() - 1.0) < 1e-10

    def test_large_mu_approaches_uniform(self):
        rng = np.random.default_rng(11)
        x, C = random_instance(rng, d=6, n=4)
        model = CodingModel(anchors=C, mu=1e9, variant="ffaemb")
        np.testing.assert_allclose(ffaemb_gamma(x, model), np.full(4, 0.25), atol=1e-6)

    def test_singular_raises_with_advice(self):
        # antipodal anchors make the Gram matrix exactly singular
        C = np.array([[1.0, -1.0]])
        model = CodingModel(anchors=C, mu=0.0, variant="ffaemb")
        with pytest.raises(SingularSystemError, match="mu > 0"):
            ffaemb_gamma(np.array([0.3]), model)
        with pytest.raises(SingularSystemError, match="mu > 0"):
            ffaemb_gamma_batch(np.array([[0.3, 0.1]]), model)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        C = rng.standard_normal((7, 5))
        X = rng.standard_normal((7, 40))
        model = CodingModel(anchors=C, mu=3e-3, variant="ffaemb")
        batch = ffaemb_gamma_batch(X, model)
        for i in range(40):
            np.testing.assert_allclose(batch[:, i], ffaemb_oracle(X[:, i], C, 3e-3), atol=1e-9)
            np.testing.assert_allclose(batch[:, i], ffaemb_gamma(X[:, i], model), atol=1e-12)

    def test_batch_chunking_is_invisible(self):
        rng = np.random.default_rng(13)
        C = rng.standard_normal((5, 3))
        X = rng.standard_normal((5, 23))
        model = CodingModel(anchors=C, mu=1e-2, variant="ffaemb")
        np.testing.assert_array_equal(
            ffaemb_gamma_batch(X, model, chunk=7), ffaemb_gamma_batch(X, model)
        )


class TestFaembGamma:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(20)
        for mu in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(8):
                x, C = random_instance(rng)
                model = CodingModel(anchors=C, mu=mu, variant="faemb")
                sol = faemb_gamma(x, model)
                expected = faemb_oracle(x, C, mu)
                q_got = objective_naive(x, C, sol.gamma, mu, "faemb")
                q_best = objective_naive(x, C, expected, mu, "faemb")
                assert q_got <= q_best + 1e-9 * max(1.0, abs(q_best))
                np.testing.assert_allclose(sol.gamma, expected, atol=1e-6)

    def test_mu_zero_equals_least_squares(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            x, C = random_instance(rng)
            model = CodingModel(anchors=C, mu=0.0, variant="faemb")
            sol = faemb_gamma(x, model)
            np.testing.assert_allclose(sol.gamma, ls_simplex_oracle(x, C), atol=1e-8)
            assert sol.converged

    def test_feasibility_and_flags(self):
        rng = np.random.default_rng(22)
        x, C = random_instance(rng, d=9, n=5)
        model = CodingModel(anchors=C, mu=0.05, variant="faemb")
        sol = faemb_gamma(x, model)
        assert abs(sol.gamma.sum() - 1.0) < 1e-10
        assert sol.kkt_residual <= 1e-5
        assert sol.converged
        assert sol.iterations >= 1

    def test_decrement_iteration_recorded_when_smooth(self):
        # with mu tiny the kink weights are negligible and the damped phase
        # reaches its decrement criterion like a plain Newton method
        rng = np.random.default_rng(23)
        x, C = random_instance(rng, d=8, n=4)
        model = CodingModel(anchors=C, mu=1e-12, variant="faemb")
        sol = faemb_gamma(x, model)
        assert sol.decrement_iteration is not None
        assert sol.decrement_iteration <= 200

    def test_objective_dominates_simple_candidates(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            x, C = random_instance(rng)
            n = C.shape[1]
            mu = 10 ** rng.uniform(-4, 0)
            model = CodingModel(anchors=C, mu=mu, variant="faemb")
            sol = faemb_gamma(x, model)
            q_star = objective_naive(x, C, sol.gamma, mu, "faemb")
            assert q_star <= objective_naive(x, C, np.full(n, 1 / n), mu, "faemb") + 1e-10
            for j in range(n):
                onehot = np.zeros(n)
                onehot[j] = 1.0
                assert q_star <= objective_naive(x, C, onehot, mu, "faemb") + 1e-10

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(25)
        C = rng.standard_normal((10, 6))
        X = rng.standard_normal((10, 60))
        for mu in (0.0, 1e-2, 0.5):
            model = CodingModel(anchors=C, mu=mu, variant="faemb")
            batch = faemb_gamma_batch(X, model)
            for i in range(60):
                x = X[:, i]
                if mu == 0.0:
                    np.testing.assert_allclose(batch.gamma[:, i], ls_simplex_oracle(x, C), atol=1e-6)
                elif i % 6 == 0:  # the exhaustive oracle is slow
                    np.testing.assert_allclose(batch.gamma[:, i], faemb_oracle(x, C, mu), atol=1e-6)
                sol = faemb_gamma(x, model)
                np.testing.assert_allclose(batch.gamma[:, i], sol.gamma, atol=1e-8)
            assert batch.converged.all()
            assert batch.kkt_residual.max() <= 1e-5

    def test_refine_steps_per_column(self):
        rng = np.random.default_rng(27)
        C = rng.standard_normal((8, 5))
        X = rng.standard_normal((8, 12))
        for mu in (0.0, 1e-2, 0.5):
            model = CodingModel(anchors=C, mu=mu, variant="faemb")
            steps = faemb_gamma_batch(X, model).refine_steps
            assert steps.shape == (12,)
            assert (steps >= 1).all()
            for i in range(12):
                assert faemb_gamma(X[:, i], model).refine_steps == steps[i]

    def test_damped_phase_hands_off_at_first_unproductive_step(self):
        # paper shape with k-means anchors: the damped steps stop paying long
        # before the decrement test, and the orthant walk still lands exactly
        rng = np.random.default_rng(28)
        anchors = kmeans_init(rng.standard_normal((45, 512)), 16, seed=0)
        model = CodingModel(anchors=anchors, mu=1e-2, variant="faemb")
        sol = faemb_gamma_batch(rng.standard_normal((45, 200)), model)
        assert (sol.iterations < 20).all()
        assert (sol.iterations >= 1).all()
        assert (sol.kkt_residual <= STATIONARITY_TOL).all()
        assert sol.converged.all()

    def test_walk_starts_from_damped_point_without_closed_form_solve(self, monkeypatch):
        # every column, handed off or not, starts the orthant walk from its
        # own damped point; no closed-form ridge solve supplies start signs
        def refuse(*args, **kwargs):
            raise AssertionError("faemb_gamma_batch called ffaemb_gamma_batch")

        rng = np.random.default_rng(28)
        anchors = kmeans_init(rng.standard_normal((45, 512)), 16, seed=0)
        model = CodingModel(anchors=anchors, mu=1e-2, variant="faemb")
        monkeypatch.setattr(faemb.coding, "ffaemb_gamma_batch", refuse)
        sol = faemb_gamma_batch(rng.standard_normal((45, 200)), model)
        assert (sol.decrement_iterations == -1).all()  # every column handed off
        assert sol.converged.all()

    def test_mu_zero_skips_damped_phase(self):
        rng = np.random.default_rng(29)
        C = rng.standard_normal((8, 5))
        X = rng.standard_normal((8, 7))
        model = CodingModel(anchors=C, mu=0.0, variant="faemb")
        sol = faemb_gamma_batch(X, model)
        assert (sol.iterations == 0).all()
        assert (sol.refine_steps == 1).all()
        assert (sol.decrement_iterations == -1).all()
        single = faemb_gamma(X[:, 0], model)
        assert single.iterations == 0
        assert single.refine_steps == 1
        assert single.decrement_iteration is None

    def test_solution_is_sparse_when_penalty_dominates(self):
        rng = np.random.default_rng(26)
        x, C = random_instance(rng, d=10, n=6)
        model = CodingModel(anchors=C, mu=5.0, variant="faemb")
        sol = faemb_gamma(x, model)
        assert (sol.gamma == 0.0).sum() >= 1
        assert sol.converged  # exact zeros and still optimal


class TestKmeans:
    def test_deterministic(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((4, 50))
        np.testing.assert_array_equal(kmeans_init(X, 3, seed=7), kmeans_init(X, 3, seed=7))

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            kmeans_init(np.ones((3, 2)), 4)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(31)
        centers = np.array([[0.0, 10.0, -10.0], [0.0, 10.0, 10.0]])
        X = np.hstack(
            [centers[:, [j]] + 0.05 * rng.standard_normal((2, 30)) for j in range(3)]
        )
        got = kmeans_init(X, 3, seed=0)
        # each true center should be within noise distance of some anchor
        for j in range(3):
            dists = np.linalg.norm(got - centers[:, [j]], axis=0)
            assert dists.min() < 0.2

    def test_anchors_are_member_means(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((3, 40))
        anchors = kmeans_init(X, 4, seed=1)
        d2 = ((X.T[:, None, :] - anchors.T[None]) ** 2).sum(-1)
        assign = d2.argmin(1)
        for j in range(4):
            members = X[:, assign == j]
            assert members.size > 0
            np.testing.assert_allclose(anchors[:, j], members.mean(axis=1), atol=1e-9)


class TestObjective:
    def test_matches_naive_both_variants(self):
        rng = np.random.default_rng(40)
        C = rng.standard_normal((5, 4))
        X = rng.standard_normal((5, 7))
        Gamma = rng.dirichlet(np.ones(4), size=7).T
        for variant in ("faemb", "ffaemb"):
            model = CodingModel(anchors=C, mu=2e-2, variant=variant)
            expected = np.mean(
                [objective_naive(X[:, i], C, Gamma[:, i], 2e-2, variant) for i in range(7)]
            )
            np.testing.assert_allclose(objective(X, Gamma, model), expected, rtol=1e-12)

    def test_rejects_infeasible_columns(self):
        model = CodingModel(anchors=np.eye(3), mu=0.0, variant="faemb")
        X = np.ones((3, 2))
        Gamma = np.full((3, 2), 0.5)  # columns sum to 1.5
        with pytest.raises(ValueError, match="sum to 1"):
            objective(X, Gamma, model)

    def test_per_sample_shape(self):
        model = CodingModel(anchors=np.eye(3), mu=0.1, variant="ffaemb")
        X = np.random.default_rng(41).standard_normal((3, 5))
        Gamma = np.full((3, 5), 1 / 3)
        assert per_sample_objective(X, Gamma, model).shape == (5,)


class TestGradients:
    def test_gamma_gradient_matches_fd_away_from_zeros(self):
        rng = np.random.default_rng(50)
        for variant in ("faemb", "ffaemb"):
            x, C = random_instance(rng, d=7, n=4)
            model = CodingModel(anchors=C, mu=0.03, variant=variant)
            gamma = rng.uniform(0.2, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
            got = gamma_gradient(x, gamma, model)
            fd = fd_gradient(lambda g: objective_naive(x, C, g, 0.03, variant), gamma)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)

    def test_anchor_gradient_matches_fd(self):
        rng = np.random.default_rng(51)
        for variant in ("faemb", "ffaemb"):
            d, n, m = 4, 3, 12
            C = rng.standard_normal((d, n))
            X = rng.standard_normal((d, m))
            Gamma = rng.dirichlet(np.ones(n), size=m).T
            model = CodingModel(anchors=C, mu=0.02, variant=variant)
            got = anchor_gradient(X, Gamma, C, 0.02, variant)

            def f(flat):
                return objective(
                    X, Gamma, CodingModel(anchors=flat.reshape(d, n), mu=0.02, variant=variant)
                )

            fd = fd_gradient(f, C.ravel()).reshape(d, n)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)


class TestUpdateAnchors:
    def test_mu_zero_reaches_normal_equation_solution(self):
        rng = np.random.default_rng(60)
        d, n, m = 4, 3, 50
        X = rng.standard_normal((d, m))
        Gamma = rng.dirichlet(np.ones(n), size=m).T
        C0 = rng.standard_normal((d, n))
        model = CodingModel(anchors=C0, mu=0.0, variant="faemb")
        got = update_anchors(X, Gamma, C0, model)
        expected = X @ Gamma.T @ np.linalg.inv(Gamma @ Gamma.T)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(61)
        for variant in ("faemb", "ffaemb"):
            d, n, m = 5, 4, 60
            X = rng.standard_normal((d, m))
            Gamma = rng.dirichlet(np.ones(n), size=m).T
            C0 = rng.standard_normal((d, n))
            model = CodingModel(anchors=C0, mu=0.05, variant=variant)
            before = objective(X, Gamma, model)
            C1 = update_anchors(X, Gamma, C0, model)
            after = objective(X, Gamma, replace(model, anchors=C1))
            assert after <= before + 1e-12

    def test_result_is_coordinatewise_stationary(self):
        # nudging any single anchor coordinate must not find a clearly
        # better objective than the returned anchors
        rng = np.random.default_rng(62)
        d, n, m = 4, 3, 40
        X = rng.standard_normal((d, m))
        Gamma = rng.dirichlet(np.ones(n), size=m).T
        C0 = rng.standard_normal((d, n))
        model = CodingModel(anchors=C0, mu=0.03, variant="faemb")
        C1 = update_anchors(X, Gamma, C0, model)
        base = objective(X, Gamma, replace(model, anchors=C1))
        for i in range(d):
            for j in range(n):
                for delta in (1e-3, -1e-3):
                    probe = C1.copy()
                    probe[i, j] += delta
                    q = objective(X, Gamma, replace(model, anchors=probe))
                    assert q >= base - 1e-6

    def test_stationary_with_extrapolating_coefficients(self):
        # coefficients such as [2, -1, 0] put a coordinate's minimizer beyond
        # every descriptor value; no exact single-coordinate move may then
        # improve the returned anchors
        for inst, (variant, X, Gamma, C0) in enumerate(_extrapolating_instances(24)):
            d, n = C0.shape
            model = CodingModel(anchors=C0, mu=0.01, variant=variant)
            C1 = update_anchors(X, Gamma, C0, model)
            base = objective(X, Gamma, replace(model, anchors=C1))
            for i in range(d):
                for j in range(n):

                    def f(t):
                        probe = C1.copy()
                        probe[i, j] = t
                        return objective(X, Gamma, replace(model, anchors=probe))

                    assert f(golden_section_min(f)) >= base - 1e-7 * (1.0 + abs(base)), (
                        inst, i, j,
                    )

    def test_sweep_cap_is_reported(self):
        # the seventh extrapolating instance (faemb) needs about 320 sweeps
        # before no coordinate moves; at the 80-sweep cap that must show
        variant, X, Gamma, C0 = list(_extrapolating_instances(7))[6]
        assert variant == "faemb"
        model = CodingModel(anchors=C0, mu=0.01, variant=variant)
        C1, sweeps, converged = _anchor_cd_sweeps(X, Gamma, C0, 0.01, variant)
        assert (sweeps, converged) == (80, False)
        np.testing.assert_array_equal(C1, update_anchors(X, Gamma, C0, model))
        _, sweeps, converged = _anchor_cd_sweeps(X, Gamma, C0, 0.01, variant, max_sweeps=400)
        assert converged and 80 < sweeps < 400

    def test_well_conditioned_instance_converges(self):
        rng = np.random.default_rng(61)
        X = rng.standard_normal((5, 60))
        Gamma = rng.dirichlet(np.ones(4), size=60).T
        C0 = rng.standard_normal((5, 4))
        for variant in ("faemb", "ffaemb"):
            model = CodingModel(anchors=C0, mu=0.05, variant=variant)
            _, sweeps, converged = _anchor_cd_sweeps(X, Gamma, C0, 0.05, variant)
            assert converged and 1 <= sweeps < 80


def _extrapolating_instances(count):
    """Anchor problems whose coefficients put minimizers beyond the data.

    Every other coefficient column is a permutation of [2, -1, 0]; variants
    alternate, faemb first.  Yields ``(variant, X, Gamma, C0)``.
    """
    rng = np.random.default_rng(63)
    d, n, m = 4, 3, 6
    for inst in range(count):
        variant = ("faemb", "ffaemb")[inst % 2]
        X = 0.1 * rng.standard_normal((d, m))
        Gamma = rng.dirichlet(np.ones(n), size=m).T
        for col in range(0, m, 2):
            Gamma[:, col] = rng.permutation([2.0, -1.0, 0.0])
        C0 = rng.standard_normal((d, n))
        yield variant, X, Gamma, C0


def _coordinate_instance(rng, i):
    """One 1-D anchor-coordinate problem; ``i`` cycles through the edge cases."""
    m = int(rng.integers(1, 13))
    x = rng.standard_normal(m)
    if i % 4 == 0:
        x = np.round(x, 1)  # tied breakpoints
    w = rng.uniform(0.0, 2.0, m)
    if i % 3 == 0:
        w[rng.random(m) < 0.4] = 0.0
    r = rng.uniform(0.0, 3.0, m)
    if i % 5 == 0:
        r[:] = 0.0
    mu = (0.0, 1e-4, 1e-2, 0.3, 3.0)[(i // 3) % 5]
    a = float(rng.uniform(0.0, 5.0)) if i % 11 else 0.0
    b = float(rng.standard_normal()) * (50.0 if i % 6 == 1 else 1.0)
    if a == 0.0 and (mu == 0.0 or not (w > 0.0).any()):
        a = 1.0  # keep F bounded below
    return a, b, mu, w, x, r


class TestSolveAnchorCoordinate:
    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(64)
        seen = dict.fromkeys(("ties", "zero_w", "mu_zero", "r_zero", "beyond"), 0)
        for i in range(2400):
            a, b, mu, w, x, r = _coordinate_instance(rng, i)
            got = _solve_anchor_coordinate(a, b, mu, w, x, r, 0.0)
            ref = anchor_coordinate_naive(a, b, mu, w, x, r)
            f_got = anchor_coordinate_objective(got, a, b, mu, w, x, r)
            f_ref = anchor_coordinate_objective(ref, a, b, mu, w, x, r)
            scale = 1.0 + abs(a * ref * ref) + abs(b * ref) + mu * float(
                w @ (np.abs(ref - x) + r) ** 3
            )
            assert f_got <= f_ref + 1e-12 * scale, (i, got, ref)
            kept = x[w > 0.0]
            seen["ties"] += np.unique(kept).size < kept.size
            seen["zero_w"] += kept.size < x.size
            seen["mu_zero"] += mu == 0.0
            seen["r_zero"] += mu > 0.0 and not r.any()
            seen["beyond"] += kept.size > 0 and not kept.min() <= ref <= kept.max()
        assert min(seen.values()) >= 100, seen

    def test_minimizer_beyond_every_breakpoint(self):
        # the slope 100 t + 5 vanishes at -0.05, left of both breakpoints; an
        # earlier solver returned the breakpoint -0.01 here
        args = (100.0, -5.0, 1e-4, np.ones(2), np.array([-0.01, 0.01]), np.zeros(2))
        got = _solve_anchor_coordinate(*args, 0.0)
        assert got == pytest.approx(anchor_coordinate_naive(*args), abs=1e-9)
        assert got == pytest.approx(-0.05, abs=1e-7)
        mirrored = (100.0, 5.0, *args[2:])
        assert _solve_anchor_coordinate(*mirrored, 0.0) == pytest.approx(-got, abs=1e-15)


class TestTrainCoding:
    def test_trace_monotone_and_feasible(self):
        rng = np.random.default_rng(70)
        X = rng.standard_normal((6, 300))
        for variant in ("faemb", "ffaemb"):
            params = SolverParams(max_outer_iters=4)
            result = train_coding(X, 4, 1e-2, variant, params=params, seed=0)
            diffs = np.diff(result.trace)
            assert (diffs <= 1e-9).all()
            np.testing.assert_allclose(result.gamma.sum(axis=0), 1.0, atol=1e-9)
            assert result.model.variant == variant

    def test_outer_iteration_runs_at_most_three_anchor_sweeps(self, monkeypatch):
        # one sweep solves each of the d * n anchor coordinates at most once;
        # sweeping to the move test would take 11 (faemb) and 24 (ffaemb)
        # sweeps on this data
        rng = np.random.default_rng(70)
        X = rng.standard_normal((6, 300))
        solve = faemb.coding._solve_anchor_coordinate
        calls = []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(faemb.coding, "_solve_anchor_coordinate", counting)
        for variant in ("faemb", "ffaemb"):
            calls.clear()
            params = SolverParams(max_outer_iters=1)
            result = train_coding(X, 4, 1e-2, variant, params=params, seed=0)
            assert len(result.trace) == 2
            assert 0 < len(calls) <= 3 * 6 * 4

    def test_deterministic(self):
        rng = np.random.default_rng(71)
        X = rng.standard_normal((5, 120))
        params = SolverParams(max_outer_iters=2)
        a = train_coding(X, 3, 1e-2, "ffaemb", params=params, seed=5)
        b = train_coding(X, 3, 1e-2, "ffaemb", params=params, seed=5)
        np.testing.assert_array_equal(a.model.anchors, b.model.anchors)
        np.testing.assert_array_equal(a.trace, b.trace)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            train_coding(np.ones((3, 10)), 2, 0.0, "nope")

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            train_coding(np.ones((3, 2)), 4, 0.0, "faemb")

    def test_rejects_single_anchor_training(self):
        rng = np.random.default_rng(72)
        with pytest.raises(ValueError, match="at least 2 anchors"):
            train_coding(rng.standard_normal((3, 20)), 1, 0.0, "ffaemb")


def test_solver_params_validation():
    # the outer tolerance is a fixed constant, not a parameter
    with pytest.raises(TypeError):
        SolverParams(outer_tol=1e-6)
    with pytest.raises(ValueError):
        SolverParams(max_outer_iters=-1)
    assert SolverParams(max_outer_iters=0).max_outer_iters == 0
