import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_oracle import bordered_matrix, khat_matrix, rref_pivot_columns
from conftest import all_censored_dataset
from likelihood_oracle import (
    fitted_values,
    ktilde_design,
    naive_gradient_weights,
    naive_neg_log_partial_likelihood,
    penalized_objective,
)
from survcare import (
    GaussianKernel,
    PolynomialKernel,
    Sobolev1Kernel,
    Sobolev2Kernel,
    SurvivalDataset,
    build_representer_basis,
    constant_norm_squared,
    fit_kernel_estimator,
    gram_matrix,
    neg_log_partial_likelihood,
    penalized_gradient,
    simulate_dataset,
)
from survcare import partial_likelihood
from survcare.partial_likelihood import (
    LevelEvaluation,
    RepresenterContext,
    _back_substitute,
    _centred_penalty_factor,
    _diagonal_block_inverses,
    _forward_substitute,
    _sorted_neg_log_partial_likelihood,
    likelihood_gradient_weights,
    preconditioned_gradient,
    preconditioned_objective,
)
from survcare.simulation import DgpConfig


def bordered_norm_oracle(ctx, kernel, beta):
    """Squared Hilbert norm of f_beta through the bordered quadratic form.

    f_beta = sum_j beta_j k(., X_j) - (kbar_A' beta) 1 over the basis A, so
    its norm is the bordered Gram matrix's quadratic form in
    (-kbar_A' beta, beta), with the Gram matrix formed afresh.
    """
    gram = gram_matrix(kernel, ctx.dataset.covariates)
    sub = bordered_matrix(gram[np.ix_(ctx.basis, ctx.basis)], constant_norm_squared(kernel))
    delta = np.concatenate(([-float(gram.mean(axis=0)[ctx.basis] @ beta)], beta))
    return float(delta @ sub @ delta)


def khat_reference(ctx, kernel):
    """khat over the context's basis by its formula, from a fresh Gram matrix."""
    gram = gram_matrix(kernel, ctx.dataset.covariates)
    return khat_matrix(gram, constant_norm_squared(kernel), ctx.basis)


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


def stacked_losses(stack, data):
    """The core's losses of the rows of a (P, n) stack, scored as (n, P) columns."""
    idx = data.risk_index()
    return _sorted_neg_log_partial_likelihood(np.asarray(stack).T[idx.order], idx)


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
    rows = draw(st.sampled_from([1, 2, 5, 121]))
    spreads = rng.choice([1e-3, 3.0, 60.0, 1500.0, 4000.0], rows)
    centres = rng.normal(0.0, 50.0, (rows, 1))
    return data, centres + spreads[:, None] * rng.uniform(-0.5, 0.5, (rows, n))


class TestStackedLikelihood:
    """The likelihood core on an (n, P) matrix, as the theta scan calls it."""

    # derandomised: the examples are the same on every run
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(problem=stacked_problems())
    def test_rows_match_the_single_vector_loss(self, problem):
        data, stack = problem
        losses = stacked_losses(stack, data)
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
        losses = stacked_losses(stack, small_dataset)
        assert np.isfinite(losses).all()
        assert losses[0] == losses[2] == neg_log_partial_likelihood(f, small_dataset)

    def test_all_censored_stack_is_zero(self):
        data = all_censored_dataset()
        stack = np.random.default_rng(2).normal(size=(121, len(data)))
        losses = stacked_losses(stack, data)
        assert losses.shape == (121,) and np.all(losses == 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_entry_in_any_row(self, small_dataset, bad):
        # the public entry point checks every record's value; the core does not
        for row in range(len(small_dataset)):
            f = np.zeros(len(small_dataset))
            f[row] = bad
            with pytest.raises(ValueError, match="finite"):
                neg_log_partial_likelihood(f, small_dataset)

    # None stands for the dataset's size: a (P, n) stack is not one vector
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 40), (2, None)])
    def test_rejects_wrong_shapes(self, small_dataset, shape):
        shape = tuple(len(small_dataset) if s is None else s for s in shape)
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
        bordered = bordered_matrix(gram, cns)
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
        expected = 2.0 * float(beta @ khat_reference(ctx, sob1) @ beta)
        assert penalized_objective(beta, ctx, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_bordered_quadratic_oracle(self, ctx, small_dataset, sob1):
        rng = np.random.default_rng(2)
        for gamma in (1e-2, 1.0):
            beta = rng.normal(0, 1, ctx.basis_size)
            fvals = fitted_values(ctx, beta)
            assert abs(fvals.mean()) <= 1e-10  # P_n(f_beta) = 0
            oracle = neg_log_partial_likelihood(fvals, small_dataset) \
                + gamma * bordered_norm_oracle(ctx, sob1, beta)
            assert penalized_objective(beta, ctx, gamma) == pytest.approx(oracle, rel=1e-9)

    def test_penalty_form_equivalence(self, ctx, sob1):
        rng = np.random.default_rng(4)
        for _ in range(10):
            beta = rng.normal(0, 2, ctx.basis_size)
            w = ctx.from_beta @ beta
            direct = float(w @ w)
            assert direct == pytest.approx(bordered_norm_oracle(ctx, sob1, beta), rel=1e-9)

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
        # prec_design = ktilde R^-1 Q, so its columns are centred with ktilde's
        assert np.abs(ctx.prec_design.mean(axis=0)).max() <= 1e-10

    def test_khat_symmetric_psd(self, ctx, sob1):
        khat = khat_reference(ctx, sob1)
        np.testing.assert_allclose(khat, khat.T, atol=1e-12)
        evals = np.linalg.eigvalsh(khat)
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

    @pytest.mark.parametrize("gamma", [1e-5, 1e-2, 1.0])
    def test_matches_the_exact_formula(self, ctx, sob1, gamma):
        # every coordinate against ktilde' u + 2 gamma khat beta, with D and
        # khat formed afresh from the kernel
        beta = np.random.default_rng(8).normal(0, 0.5, ctx.basis_size)
        ktilde = ktilde_design(ctx)
        exact = ktilde.T @ likelihood_gradient_weights(ktilde @ beta, ctx.dataset) \
            + 2.0 * gamma * (khat_reference(ctx, sob1) @ beta)
        grad = penalized_gradient(beta, ctx, gamma)
        assert np.abs(grad - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_all_censored_gradient_is_penalty_only(self, sob1):
        data = all_censored_dataset()
        ctx = RepresenterContext.build(data, sob1)
        rng = np.random.default_rng(7)
        beta = rng.normal(size=ctx.basis_size)
        np.testing.assert_allclose(
            penalized_gradient(beta, ctx, 1.5), 2 * 1.5 * (khat_reference(ctx, sob1) @ beta),
            rtol=1e-12)

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
        beta = ctx.to_theta(v / ctx.scale(gamma))
        level = LevelEvaluation(ctx, gamma)
        assert preconditioned_objective(v, level) == pytest.approx(
            penalized_objective(beta, ctx, gamma), rel=1e-10)
        h = 1e-6
        grad = preconditioned_gradient(v, level)
        for j in range(0, ctx.basis_size, 7):
            e = np.zeros(ctx.basis_size)
            e[j] = h
            fd = (preconditioned_objective(v + e, level)
                  - preconditioned_objective(v - e, level)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=2e-6, abs=1e-9)

    def test_round_trip_beta_transforms(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(10)
        beta = rng.normal(size=ctx.basis_size)
        np.testing.assert_allclose(
            ctx.to_theta(ctx.from_beta @ beta), beta, atol=1e-8)


def reference_objective(v, ctx, gamma):
    """The preconditioned objective through the public loss, computed afresh."""
    w = v / ctx.scale(gamma)
    return neg_log_partial_likelihood(ctx.prec_design @ w, ctx.dataset) + gamma * float(w @ w)


def reference_gradient(v, ctx, gamma):
    """The preconditioned gradient through the public weights, computed afresh."""
    scale = ctx.scale(gamma)
    w = v / scale
    u = likelihood_gradient_weights(ctx.prec_design @ w, ctx.dataset)
    return (ctx.prec_design.T @ u + 2.0 * gamma * w) / scale


def spread_point(ctx, gamma):
    """A point whose f values fall by 4000 along the time order.

    The late events' shifted risk sums underflow, which takes the loss's log
    space path, and their reciprocals overflow, which takes the weights'.
    """
    idx = ctx.dataset.risk_index()
    target = np.empty(len(ctx.dataset))
    target[idx.order] = np.linspace(2000.0, -2000.0, len(ctx.dataset))
    w = np.linalg.lstsq(ctx.prec_design, target - target.mean(), rcond=None)[0]
    return w * ctx.scale(gamma)


@pytest.fixture
def pass_count(monkeypatch):
    """The number of risk-set passes run since the fixture was set up."""
    calls = []
    original = partial_likelihood._sorted_log_risk_sums

    def counting(fs, idx):
        calls.append(None)
        return original(fs, idx)

    monkeypatch.setattr(partial_likelihood, "_sorted_log_risk_sums", counting)
    return lambda: len(calls)


class TestLevelEvaluation:
    GAMMA = 0.3

    def test_matches_the_public_formulas_bitwise(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(11)
        points = [rng.normal(size=ctx.basis_size) * s for s in (0.1, 1.0, 30.0)]
        points.append(spread_point(ctx, self.GAMMA))
        for v in points:
            level = LevelEvaluation(ctx, self.GAMMA)
            objective = preconditioned_objective(v, level)
            gradient = preconditioned_gradient(v, level)  # reuses the objective's pass
            fresh = preconditioned_gradient(v, LevelEvaluation(ctx, self.GAMMA))
            assert objective == reference_objective(v, ctx, self.GAMMA)
            assert gradient.tobytes() == reference_gradient(v, ctx, self.GAMMA).tobytes()
            assert gradient.tobytes() == fresh.tobytes()
            assert np.isfinite(objective) and np.all(np.isfinite(gradient))

    def test_spread_point_takes_both_log_space_paths(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        level = LevelEvaluation(ctx, self.GAMMA)
        likelihood = level.score(spread_point(ctx, self.GAMMA)).likelihood
        idx = small_dataset.risk_index()
        suffix = np.cumsum(likelihood.shifted[::-1])[::-1][idx.event_start]
        assert (suffix < np.finfo(float).tiny).any()
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(np.exp(-(likelihood.log_risk - likelihood.max))))

    def test_gradient_elsewhere_is_recomputed(self, small_dataset, sob1, pass_count):
        ctx = RepresenterContext.build(small_dataset, sob1)
        level = LevelEvaluation(ctx, self.GAMMA)
        v = np.random.default_rng(12).normal(size=ctx.basis_size)
        preconditioned_objective(v, level)
        at_v = preconditioned_gradient(v, level)
        assert pass_count() == 1
        elsewhere = v + 1.0
        at_elsewhere = preconditioned_gradient(elsewhere, level)
        assert pass_count() == 2
        # one ulp away, or a signed zero, is a different point bit for bit
        nudged = elsewhere.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        preconditioned_gradient(nudged, level)
        assert pass_count() == 3
        zero = np.zeros(ctx.basis_size)
        preconditioned_objective(zero, level)
        preconditioned_gradient(-zero, level)
        assert pass_count() == 5
        assert at_elsewhere.tobytes() == reference_gradient(elsewhere, ctx, self.GAMMA).tobytes()
        assert at_elsewhere.tobytes() != at_v.tobytes()

    def test_one_pass_per_objective_evaluation_in_a_fit(self, monkeypatch, small_dataset,
                                                        sob1, pass_count):
        from survcare import estimators

        ctx = RepresenterContext.build(small_dataset, sob1)
        evaluations = {"objective": 0, "gradient": 0}
        for name in evaluations:
            original = getattr(estimators, f"preconditioned_{name}")

            def counting(v, level, name=name, original=original):
                evaluations[name] += 1
                return original(v, level)

            monkeypatch.setattr(estimators, f"preconditioned_{name}", counting)
        est = fit_kernel_estimator(small_dataset, sob1, 0.05, ctx=ctx)
        assert est.converged and evaluations["gradient"] > 1
        # the final theta-space check is the one pass outside BFGS
        assert pass_count() == evaluations["objective"] + 1
        # the training loss and the norm come from that check's point
        assert est.train_loss == neg_log_partial_likelihood(
            ctx.prec_design @ (ctx.from_beta @ est.beta), small_dataset)
        w = ctx.from_beta @ est.beta
        assert est.hilbert_norm_squared == float(w @ w)


class TestMultivariateContext:
    def test_additive_kernel_context(self):
        data, _ = simulate_dataset(DgpConfig("multivariate_d10"), 30, 4)
        from survcare import AdditiveKernel

        kernel = AdditiveKernel(summands=tuple(
            (j, Sobolev1Kernel(shift=1.0 if j == 0 else 0.0)) for j in range(10)))
        ctx = RepresenterContext.build(data, kernel)
        assert 1 <= ctx.basis_size <= 30
        beta = np.linspace(-1, 1, ctx.basis_size)
        assert abs(fitted_values(ctx, beta).mean()) <= 1e-9


def test_context_retains_only_what_a_fit_reads():
    # the d=10 Gaussian setting of the care_d10_theta benchmark workload,
    # where every training point enters the basis.  A fit reads one n x m
    # design and two m x m transforms; keeping the n x n Gram matrix, a
    # second n x m design or an m x m penalty as well would exceed the bound
    data, _ = simulate_dataset(DgpConfig("multivariate_d10"), 400, 1)
    kernel = GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = RepresenterContext.build(data, kernel)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, m = len(data), ctx.basis_size
    assert m == n
    assert retained <= 1.1 * 8 * (n * m + 2 * m * m)


def test_context_build_peaks_at_five_square_arrays():
    # Sobolev-1 at n=800, where the basis is every point, so each of the
    # Gram matrix, the selector's factor, R, the moment matrix, its
    # eigenvectors and the design is n x n.  The Gram is freed before R is
    # formed, the whitened design overwrites the selector's factor and is
    # rotated in place, so at most four are live at once, whether or not the
    # Python version keeps a call's arguments alive until it returns
    data, _ = simulate_dataset(DgpConfig("univariate"), 800, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = RepresenterContext.build(data, Sobolev1Kernel(shift=1.0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n, m = len(data), ctx.basis_size
    assert m == n
    assert peak <= 5.5 * 8 * n * m


# the basis of each kernel on n uniform points: every point for Sobolev-1 and
# the Gaussian, fewer for Sobolev-2 and the polynomial (its feature rank)
PENALTY_KERNELS = {
    "sobolev1": (Sobolev1Kernel(shift=1.0), 1),
    "sobolev2": (Sobolev2Kernel(shift=1.0), 1),
    "gaussian_d10": (GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10), 10),
    "polynomial": (PolynomialKernel(degree=2, shift=1.0), 10),
}


def centred_penalty_case(kernel, points):
    """The selector's factor, kbar at the basis, M = lower' [-kb'; I] and D at the basis."""
    gram = gram_matrix(kernel, points)
    basis, lower = build_representer_basis(gram, constant_norm_squared(kernel))
    kb = gram.mean(axis=0)[basis]
    return lower, kb, lower[1:].T - np.outer(lower[0], kb), gram[np.ix_(basis, basis)] - kb


def penalty_cases():
    yield "empty", Sobolev2Kernel(shift=2.0), np.zeros((1, 1))  # the section is the constant
    for name, (kernel, dim) in PENALTY_KERNELS.items():
        for n in (1, 63, 64, 65, 129, 800):
            points = np.random.default_rng(n).uniform(0.0, 1.0, (n, dim))
            yield f"{name}-{n}", kernel, points


@pytest.mark.parametrize("kernel, points", [case[1:] for case in penalty_cases()],
                         ids=[case[0] for case in penalty_cases()])
class TestCentredPenaltyFactor:
    def test_factor_is_exact_and_triangular(self, kernel, points):
        lower, kb, design, _ = centred_penalty_case(kernel, points)
        factor, _ = _centred_penalty_factor(lower, kb)
        m = kb.shape[0]
        if isinstance(kernel, (Sobolev1Kernel, GaussianKernel)):
            assert m == len(points)
        assert factor.shape == (m, m)
        assert np.array_equal(factor, np.triu(factor))
        gram_form = design.T @ design
        assert np.linalg.norm(factor.T @ factor - gram_form) <= 1e-14 * np.linalg.norm(gram_form)
        if m <= partial_likelihood._BASIS_BLOCK:
            # one block is one QR of M itself, as a dense factorisation gives it
            assert factor.tobytes() == np.linalg.qr(design, mode="r").tobytes()

    def test_whitened_basis_rows(self, kernel, points):
        # W R = D at the basis points, to the rounding of the selector's
        # factor, whose entries are of the bordered matrix's size
        lower, kb, _, at_basis = centred_penalty_case(kernel, points)
        factor, whitened = _centred_penalty_factor(lower, kb)
        assert whitened.shape == at_basis.shape
        terms = max(np.abs(at_basis).max(initial=0.0) + np.abs(kb).max(initial=0.0), 1.0,
                    constant_norm_squared(kernel))
        assert np.abs(whitened @ factor - at_basis).max(initial=0.0) <= 1e-14 * terms

    def test_block_substitutions(self, kernel, points):
        # normwise backward stable, as triangular substitution is (Higham,
        # Accuracy and Stability of Numerical Algorithms, section 8.1)
        lower, kb, _, _ = centred_penalty_case(kernel, points)
        factor, _ = _centred_penalty_factor(lower, kb)
        m = factor.shape[0]
        inverses = _diagonal_block_inverses(factor)
        assert len(inverses) == -(-m // partial_likelihood._BASIS_BLOCK)
        rhs = np.random.default_rng(m).normal(size=(m, 3))
        for matrix, x in ((factor, _back_substitute(factor, inverses, rhs)),
                          (factor.T, _forward_substitute(factor, inverses, rhs))):
            assert x.shape == rhs.shape
            if m:
                bound = m * np.finfo(float).eps * np.abs(matrix).max() * np.abs(x).max()
                assert np.abs(matrix @ x - rhs).max() <= bound
