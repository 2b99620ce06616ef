import math

import numpy as np
import pytest

from basis_oracle import bordered_matrix, rref_pivot_columns
from conftest import all_censored_dataset
from survcare import (
    GaussianKernel,
    PolynomialKernel,
    Sobolev1Kernel,
    SurvivalDataset,
    build_representer_basis,
    constant_norm_squared,
    gram_matrix,
    neg_log_partial_likelihood,
    penalized_gradient,
    penalized_objective,
    simulate_dataset,
)
from survcare.partial_likelihood import (
    RepresenterContext,
    likelihood_gradient_weights,
    preconditioned_gradient,
    preconditioned_objective,
)
from survcare.simulation import DgpConfig


def bordered_norm_oracle(ctx, beta):
    """Squared Hilbert norm of f_beta through the bordered quadratic form."""
    sub = bordered_matrix(
        ctx.gram.entries[np.ix_(ctx.basis, ctx.basis)], ctx.constant_norm_sq)
    delta = np.concatenate(([-float(ctx.kbar[ctx.basis] @ beta)], beta))
    return float(delta @ sub @ delta)


class TestLikelihood:
    def test_single_record_is_zero(self):
        data = SurvivalDataset([[0.2]], [0.7], [False])
        assert neg_log_partial_likelihood(np.array([3.7]), data) == 0.0

    def test_two_records_enumeration(self):
        data = SurvivalDataset([[0.1], [0.2]], [0.4, 0.9], [False, False])
        # risk sets {1,2} then {2}: (1/2)(log 1 + log(1/2))
        expected = 0.5 * (math.log(1.0) + math.log(0.5))
        assert neg_log_partial_likelihood(np.zeros(2), data) == pytest.approx(expected, abs=1e-15)

    def test_all_censored_is_zero(self):
        data = all_censored_dataset()
        assert neg_log_partial_likelihood(np.ones(len(data)), data) == 0.0

    def test_shift_invariance(self, small_dataset):
        rng = np.random.default_rng(8)
        n = len(small_dataset)
        for _ in range(50):
            f = rng.normal(0.0, 3.0, n)
            c = rng.normal(0.0, 5.0)
            base = neg_log_partial_likelihood(f, small_dataset)
            assert abs(neg_log_partial_likelihood(f + c, small_dataset) - base) <= 1e-12

    def test_ties_use_full_risk_set(self):
        data = SurvivalDataset([[0.1], [0.2], [0.3]], [0.5, 0.5, 1.0],
                               [False, False, False])
        f = np.array([0.3, -0.2, 0.1])
        w = np.exp(f)
        s_tied = w.sum() / 3
        expected = (math.log(s_tied) * 2 + math.log(w[2] / 3) - f.sum()) / 3
        assert neg_log_partial_likelihood(f, data) == pytest.approx(expected, rel=1e-13)

    def test_extreme_values_stay_finite(self, small_dataset):
        f = np.linspace(-30.0, 30.0, len(small_dataset))
        assert np.isfinite(neg_log_partial_likelihood(f, small_dataset))

    def test_rejects_non_finite(self, small_dataset):
        bad = np.zeros(len(small_dataset))
        bad[0] = np.inf
        with pytest.raises(ValueError):
            neg_log_partial_likelihood(bad, small_dataset)


def naive_gradient_weights(f, data):
    """O(n^2) reference in log space: u_p is (1/n) times the sum over events i
    at risk with p of exp(f_p - log sum_{j at risk at T_i} exp(f_j)), minus
    (1/n) when p is an event."""
    times, events = data.times, data.events
    u = -events.astype(float)
    for i in np.flatnonzero(events):
        at_risk = times >= times[i]
        u[at_risk] += np.exp(f[at_risk] - np.logaddexp.reduce(f[at_risk]))
    return u / len(data)


class TestGradientWeights:
    # a half-width of 2000 spreads f by about 4000, which overflows
    # 1 / (shifted suffix sum) and takes the log-space path
    @pytest.mark.parametrize("half_width", [3.0, 2000.0])
    def test_match_naive_reference(self, small_dataset, half_width):
        rng = np.random.default_rng(12)
        f = rng.uniform(-half_width, half_width, len(small_dataset))
        u = likelihood_gradient_weights(f, small_dataset)
        np.testing.assert_allclose(u, naive_gradient_weights(f, small_dataset),
                                   rtol=1e-12, atol=1e-15)
        assert abs(u.sum()) <= 1e-12  # the weights of a shift-invariant loss sum to zero


class TestRepresenterBasis:
    def test_distinct_points_full_basis(self):
        kernel = GaussianKernel(shift=1.0, lengthscales=(1.0,))
        gram = gram_matrix(kernel, [[0.1], [0.9]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))
        np.testing.assert_array_equal(basis, [0, 1])

    def test_duplicate_points_collapse(self):
        kernel = GaussianKernel(shift=1.0, lengthscales=(1.0,))
        gram = gram_matrix(kernel, [[0.4], [0.4]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))
        np.testing.assert_array_equal(basis, [0])

    def test_linear_kernel_rank_deficiency(self):
        kernel = PolynomialKernel(degree=1, shift=1.0)
        gram = gram_matrix(kernel, [[1.0], [2.0], [3.0]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))
        np.testing.assert_array_equal(basis, [0])

    def test_pivot_count_matches_rank_oracle(self, small_dataset, sob1):
        gram = gram_matrix(sob1, small_dataset.covariates)
        cns = constant_norm_squared(sob1)
        basis = build_representer_basis(gram, cns)
        bordered = bordered_matrix(gram.entries, cns)
        assert len(basis) + 1 == np.linalg.matrix_rank(bordered, tol=1e-8)

    def test_rref_pivots_simple(self):
        # row 3 = row 1 + row 2: rank 2, pivots in the first two columns
        m = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [1.0, 1.0, 5.0]])
        assert rref_pivot_columns(m) == [0, 1]


@pytest.fixture(scope="module")
def ctx(small_dataset, sob1):
    return RepresenterContext.build(small_dataset, sob1)


class TestPenalizedObjective:
    def test_zero_beta_gives_bare_likelihood(self, ctx, small_dataset):
        expected = neg_log_partial_likelihood(np.zeros(len(small_dataset)), small_dataset)
        assert penalized_objective(np.zeros(ctx.basis_size), ctx, 0.5) == expected

    def test_all_censored_pure_penalty(self, sob1):
        data = all_censored_dataset()
        ctx = RepresenterContext.build(data, sob1)
        rng = np.random.default_rng(1)
        beta = rng.normal(size=ctx.basis_size)
        expected = 2.0 * float(beta @ ctx.penalty @ beta)
        assert penalized_objective(beta, ctx, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_bordered_quadratic_oracle(self, ctx, small_dataset):
        rng = np.random.default_rng(2)
        for gamma in (1e-2, 1.0):
            beta = rng.normal(0, 1, ctx.basis_size)
            fvals = ctx.fitted_values(beta)
            assert abs(fvals.mean()) <= 1e-10  # P_n(f_beta) = 0
            oracle = neg_log_partial_likelihood(fvals, small_dataset) \
                + gamma * bordered_norm_oracle(ctx, beta)
            assert penalized_objective(beta, ctx, gamma) == pytest.approx(oracle, rel=1e-9)

    def test_penalty_form_equivalence(self, ctx):
        rng = np.random.default_rng(4)
        for _ in range(10):
            beta = rng.normal(0, 2, ctx.basis_size)
            direct = float(beta @ ctx.penalty @ beta)
            assert direct == pytest.approx(bordered_norm_oracle(ctx, beta), rel=1e-9)

    def test_convex_along_segments(self, ctx):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b1, b2 = rng.normal(0, 1, (2, ctx.basis_size))
            mid = penalized_objective((b1 + b2) / 2, ctx, 0.1)
            avg = (penalized_objective(b1, ctx, 0.1) + penalized_objective(b2, ctx, 0.1)) / 2
            assert mid <= avg + 1e-10

    def test_rejects_bad_gamma(self, ctx):
        with pytest.raises(ValueError):
            penalized_objective(np.zeros(ctx.basis_size), ctx, 0.0)

    def test_centering_of_ktilde_columns(self, ctx):
        assert np.abs(ctx.design.mean(axis=0)).max() <= 1e-10

    def test_khat_symmetric_psd(self, ctx):
        np.testing.assert_allclose(ctx.penalty, ctx.penalty.T, atol=1e-12)
        evals = np.linalg.eigvalsh(ctx.penalty)
        assert evals.min() >= -1e-8 * max(evals.max(), 1.0)


class TestPenalizedGradient:
    def test_finite_differences(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(6)
        h = 1e-6
        for gamma in (1e-3, 1e-1, 10.0):
            beta = rng.normal(0, 0.5, ctx.basis_size)
            grad = penalized_gradient(beta, ctx, gamma)
            for j in range(0, ctx.basis_size, 5):
                e = np.zeros(ctx.basis_size)
                e[j] = h
                fd = (penalized_objective(beta + e, ctx, gamma)
                      - penalized_objective(beta - e, ctx, gamma)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_all_censored_gradient_is_penalty_only(self, sob1):
        data = all_censored_dataset()
        ctx = RepresenterContext.build(data, sob1)
        rng = np.random.default_rng(7)
        beta = rng.normal(size=ctx.basis_size)
        np.testing.assert_allclose(
            penalized_gradient(beta, ctx, 1.5), 2 * 1.5 * (ctx.penalty @ beta), rtol=1e-12)

    def test_zero_at_fitted_minimum(self, small_dataset, sob1):
        from survcare import fit_kernel_estimator

        est = fit_kernel_estimator(small_dataset, sob1, 0.1)
        assert est.converged
        assert est.gradient_norm <= 1e-8

    def test_preconditioned_coordinates_consistent(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(9)
        gamma = 0.3
        v = rng.normal(size=ctx.basis_size)
        beta = ctx.to_beta @ (v / ctx.scale(gamma))
        assert preconditioned_objective(v, ctx, gamma) == pytest.approx(
            penalized_objective(beta, ctx, gamma), rel=1e-10)
        h = 1e-6
        grad = preconditioned_gradient(v, ctx, gamma)
        for j in range(0, ctx.basis_size, 7):
            e = np.zeros(ctx.basis_size)
            e[j] = h
            fd = (preconditioned_objective(v + e, ctx, gamma)
                  - preconditioned_objective(v - e, ctx, gamma)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=2e-6, abs=1e-9)

    def test_round_trip_beta_transforms(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(10)
        beta = rng.normal(size=ctx.basis_size)
        np.testing.assert_allclose(
            ctx.to_beta @ (ctx.from_beta @ beta), beta, atol=1e-8)


class TestMultivariateContext:
    def test_additive_kernel_context(self):
        data, _ = simulate_dataset(DgpConfig("multivariate_d10"), 30, 4)
        from survcare import AdditiveKernel

        kernel = AdditiveKernel(summands=tuple(
            (j, Sobolev1Kernel(shift=1.0 if j == 0 else 0.0)) for j in range(10)))
        ctx = RepresenterContext.build(data, kernel)
        assert 1 <= ctx.basis_size <= 30
        beta = np.linspace(-1, 1, ctx.basis_size)
        assert abs(ctx.fitted_values(beta).mean()) <= 1e-9
