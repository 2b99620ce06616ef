import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_oracle import bordered_matrix, rref_pivot_columns
from conftest import all_censored_dataset
from likelihood_oracle import (
    naive_gradient_weights,
    naive_neg_log_partial_likelihood,
    penalized_objective,
)
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
    simulate_dataset,
)
from survcare.partial_likelihood import (
    _ROW_BLOCK,
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


@st.composite
def stacked_problems(draw):
    """Survival data with ties and censoring, and a (P, n) stack of f rows.

    Each row has its own spread; a spread of 1500 or more underflows some
    shifted suffix sums and takes the log-space path.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    distinct_times = draw(st.integers(1, n))  # few distinct times: many ties
    times = rng.integers(1, distinct_times + 1, n) / distinct_times
    censored_share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    data = SurvivalDataset(np.zeros((n, 1)), times, rng.uniform(size=n) < censored_share)
    rows = draw(st.sampled_from([1, 2, 5, _ROW_BLOCK + 1]))
    spreads = rng.choice([1e-3, 3.0, 60.0, 1500.0, 4000.0], rows)
    centres = rng.normal(0.0, 50.0, (rows, 1))
    return data, centres + spreads[:, None] * rng.uniform(-0.5, 0.5, (rows, n))


class TestStackedLikelihood:
    # derandomised: the examples are the same on every run
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(problem=stacked_problems())
    def test_rows_match_the_single_vector_loss(self, problem):
        data, stack = problem
        losses = neg_log_partial_likelihood(stack, data)
        assert losses.shape == (stack.shape[0],)
        singles = np.array([neg_log_partial_likelihood(row, data) for row in stack])
        np.testing.assert_allclose(losses, singles, rtol=1e-12, atol=0.0)
        if not data.events.any():
            assert np.all(losses == 0.0)

    def test_suffix_max_fallback_is_reached(self, small_dataset):
        # f falling by 4000 along the time order underflows the shifted
        # suffix sums of the late events' risk sets into the log-space path
        idx = small_dataset.risk_index()
        f = np.empty(len(small_dataset))
        f[idx.order] = np.linspace(2000.0, -2000.0, len(small_dataset))
        suffix = np.cumsum(np.exp(f[idx.order] - f.max())[::-1])[::-1]
        assert (suffix[idx.group_start[idx.event_sorted]] == 0.0).any()
        stack = np.vstack([f, np.zeros_like(f), f])
        losses = neg_log_partial_likelihood(stack, small_dataset)
        assert np.isfinite(losses).all()
        assert losses[0] == losses[2] == neg_log_partial_likelihood(f, small_dataset)

    def test_all_censored_stack_is_zero(self):
        data = all_censored_dataset()
        stack = np.random.default_rng(2).normal(size=(_ROW_BLOCK + 1, len(data)))
        losses = neg_log_partial_likelihood(stack, data)
        assert losses.shape == (_ROW_BLOCK + 1,) and np.all(losses == 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_entry_in_any_row(self, small_dataset, bad):
        stack = np.zeros((_ROW_BLOCK + 1, len(small_dataset)))
        stack[_ROW_BLOCK, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            neg_log_partial_likelihood(stack, small_dataset)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 40)])
    def test_rejects_wrong_shapes(self, small_dataset, shape):
        with pytest.raises(ValueError, match="relative-risk values"):
            neg_log_partial_likelihood(np.zeros(shape), small_dataset)


@st.composite
def oracle_problems(draw, half_width):
    """Survival data with random ties and censoring, f uniform on
    [-half_width, half_width], and a random permutation of the records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    distinct_times = draw(st.integers(1, n))  # few distinct times: many ties
    times = rng.integers(1, distinct_times + 1, n) / distinct_times
    censored_share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    censored = rng.uniform(size=n) < censored_share
    f = rng.uniform(-half_width, half_width, n)
    return SurvivalDataset(np.zeros((n, 1)), times, censored), f, rng.permutation(n)


class TestGradientWeights:
    # a half-width of 2000 spreads f by about 4000, which underflows shifted
    # terms and suffix sums and takes both log-space paths
    @pytest.mark.parametrize("half_width", [3.0, 2000.0])
    # derandomised: the examples are the same on every run
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn=st.data())
    def test_match_naive_reference(self, half_width, drawn):
        data, f, perm = drawn.draw(oracle_problems(half_width))
        permuted = SurvivalDataset(data.covariates[perm], data.times[perm], data.censored[perm])
        # exp(f_p - log S) is rounded to about eps * max|f| in absolute terms
        # in both evaluations, so entries that cancel to near 0 (a loss, or an
        # event's weight) agree only to that floor
        floor = 1e-15 * max(1.0, np.abs(f).max())
        for d, values in ((data, f), (permuted, f[perm])):
            loss = neg_log_partial_likelihood(values, d)
            assert loss == pytest.approx(
                naive_neg_log_partial_likelihood(values, d), rel=1e-12, abs=floor)
            u = likelihood_gradient_weights(values, d)
            np.testing.assert_allclose(u, naive_gradient_weights(values, d),
                                       rtol=1e-12, atol=floor)
            assert abs(u.sum()) <= 1e-12  # the weights of a shift-invariant loss sum to zero


class TestRepresenterBasis:
    def test_distinct_points_full_basis(self):
        kernel = GaussianKernel(shift=1.0, lengthscales=(1.0,))
        gram = gram_matrix(kernel, [[0.1], [0.9]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))[0]
        np.testing.assert_array_equal(basis, [0, 1])

    def test_duplicate_points_collapse(self):
        kernel = GaussianKernel(shift=1.0, lengthscales=(1.0,))
        gram = gram_matrix(kernel, [[0.4], [0.4]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))[0]
        np.testing.assert_array_equal(basis, [0])

    def test_linear_kernel_rank_deficiency(self):
        kernel = PolynomialKernel(degree=1, shift=1.0)
        gram = gram_matrix(kernel, [[1.0], [2.0], [3.0]])
        basis = build_representer_basis(gram, constant_norm_squared(kernel))[0]
        np.testing.assert_array_equal(basis, [0])

    def test_pivot_count_matches_rank_oracle(self, small_dataset, sob1):
        gram = gram_matrix(sob1, small_dataset.covariates)
        cns = constant_norm_squared(sob1)
        basis = build_representer_basis(gram, cns)[0]
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
