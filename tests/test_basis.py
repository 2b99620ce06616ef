"""Property tests of the representer basis against the row-reduction oracle.

On Gram matrices whose rank is clear the Cholesky selector and row reduction
pick the same columns, and then every array of the representer context is
bit-identical.  On numerically rank-deficient Grams (Gaussian kernels with
very short or very long lengthscales, Sobolev-2, polynomial kernels) the two
rules can decide a column near the tolerance differently.  The selector's
defining property still holds there: every bordered column, so every section
the oracle picked, lies within the tolerance of the selector's span.  Where
both fits converge, the fits over the two bases agree: the penalised
objectives to a relative 1e-8 and the training fitted values to 1e-6.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from basis_oracle import (
    RREF_PIVOT_TOL,
    bordered_matrix,
    khat_matrix,
    rref_basis,
    rref_basis_and_factor,
)
from likelihood_oracle import fitted_values, ktilde_design, penalized_objective
from survcare import (
    AdditiveKernel,
    GaussianKernel,
    PolynomialKernel,
    Sobolev1Kernel,
    Sobolev2Kernel,
    SurvivalDataset,
    build_representer_basis,
    constant_norm_squared,
    fit_kernel_estimator,
    gram_matrix,
)
from survcare import partial_likelihood
from survcare.partial_likelihood import RepresenterContext

GAMMA = 0.1
OBJECTIVE_REL_GAP = 1e-8
FITTED_SUP_GAP = 1e-6

CONTEXT_ARRAYS = ("basis", "kbar", "prec_design", "curvature", "from_beta", "factor")


def kernel_and_dimension():
    """(kernel, covariate dimension, whether covariates must lie in [0, 1])."""
    shift = st.sampled_from([0.5, 1.0, 2.0])
    return st.one_of(
        st.builds(lambda a, ls, d: (GaussianKernel(shift=a, lengthscales=(ls,) * d), d, False),
                  shift, st.sampled_from([0.05, 0.3, 1.0, 5.0]), st.integers(1, 3)),
        st.builds(lambda a, p, d: (PolynomialKernel(degree=p, shift=a), d, False),
                  shift, st.integers(1, 3), st.integers(1, 3)),
        st.builds(lambda a: (Sobolev1Kernel(shift=a), 1, True), shift),
        st.builds(lambda a: (Sobolev2Kernel(shift=a), 1, True), shift),
        st.builds(lambda a, d: (AdditiveKernel(summands=tuple(
            (j, Sobolev1Kernel(shift=a if j == 0 else 0.0)) for j in range(d))), d, True),
            shift, st.integers(2, 3)),
    )


@st.composite
def basis_problems(draw):
    """A kernel, points with exact and near duplicates, and survival outcomes."""
    kernel, dim, unit = draw(kernel_and_dimension())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_distinct = draw(st.integers(1, 25))
    points = rng.uniform(0.0, 1.0, (n_distinct, dim))
    n_copies = draw(st.integers(0, 8))
    if n_copies:
        jitter = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
        copies = points[rng.integers(0, n_distinct, n_copies)]
        copies = copies + jitter * rng.uniform(-1.0, 1.0, copies.shape)
        points = np.vstack([points, np.clip(copies, 0.0, 1.0) if unit else copies])
        points = points[rng.permutation(points.shape[0])]
    n = points.shape[0]
    data = SurvivalDataset(points, rng.uniform(0.05, 1.0, n), rng.uniform(size=n) < 0.3)
    return kernel, data


def oracle_context(monkeypatch, data, kernel) -> RepresenterContext:
    with monkeypatch.context() as m:
        m.setattr(partial_likelihood, "build_representer_basis", rref_basis_and_factor)
        return RepresenterContext.build(data, kernel)


def schur_diagonals(bordered, accepted, columns):
    """Squared distances of bordered columns from the span of ``accepted``."""
    span = bordered[np.ix_(accepted, accepted)]
    cross = bordered[np.ix_(accepted, columns)]
    coef = np.linalg.lstsq(span, cross, rcond=None)[0]
    return np.diag(bordered)[columns] - np.einsum("ij,ij->j", cross, coef)


def check_against_oracle(monkeypatch, kernel, data):
    """Assert the selector's context matches the oracle's context or span."""
    ctx = RepresenterContext.build(data, kernel)
    ref = oracle_context(monkeypatch, data, kernel)
    if np.array_equal(ctx.basis, ref.basis):
        for name in CONTEXT_ARRAYS:
            a, b = getattr(ctx, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        return
    bordered = bordered_matrix(gram_matrix(kernel, data.covariates),
                               constant_norm_squared(kernel))
    accepted = np.concatenate(([0], ctx.basis + 1))
    residual = schur_diagonals(bordered, accepted, np.arange(len(data) + 1))
    # the selector uses the oracle's relative tolerance; twice that, since the
    # residuals are recomputed by least squares
    assert residual.max() <= 2 * RREF_PIVOT_TOL * np.abs(bordered).max()
    fits = [fit_kernel_estimator(data, kernel, GAMMA, ctx=c) for c in (ctx, ref)]
    if all(f.converged for f in fits):
        objectives = [penalized_objective(f.beta, c, GAMMA) for f, c in zip(fits, (ctx, ref))]
        gap = abs(objectives[0] - objectives[1]) / abs(objectives[1])
        assert gap <= OBJECTIVE_REL_GAP, (ctx.basis, ref.basis, objectives)
        fitted = [fitted_values(c, f.beta) for f, c in zip(fits, (ctx, ref))]
        assert np.abs(fitted[0] - fitted[1]).max() <= FITTED_SUP_GAP


# derandomised: the examples are the same on every run, so the suite's
# outcome does not depend on the draw
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem=basis_problems())
@example(problem=(Sobolev2Kernel(shift=2.0), SurvivalDataset([[0.0]], [0.5], [False])))
def test_selector_matches_row_reduction(monkeypatch, problem):
    kernel, data = problem
    check_against_oracle(monkeypatch, kernel, data)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=basis_problems())
def test_penalty_factor_is_exact(problem):
    # the whitening factor comes from the selector's Cholesky factor, with no
    # ridge, so from_beta' from_beta = R'R reproduces khat to rounding.  The
    # khat formula is formed from terms of the bordered matrix's size; where
    # khat is far smaller (a Sobolev-2 section close to the constant) the
    # formula's own cancellation is of order eps times those terms, hence the
    # second term
    kernel, data = problem
    ctx = RepresenterContext.build(data, kernel)
    assert np.all(np.isfinite(ctx.to_theta(np.eye(ctx.basis_size))))
    if ctx.basis_size:
        gram = gram_matrix(kernel, data.covariates)
        cns = constant_norm_squared(kernel)
        khat = khat_matrix(gram, cns, ctx.basis)
        gap = np.abs(ctx.from_beta.T @ ctx.from_beta - khat).max()
        terms = np.abs(bordered_matrix(gram, cns)).max()
        assert gap <= 1e-11 * np.abs(khat).max() + 1e-14 * terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=basis_problems())
def test_whitened_design_is_exact(problem):
    # prec_design @ from_beta = W Q Q' R = W R for the whitened design W,
    # which must give back D = ktilde at every training point: at the basis
    # points, whitened through the selector's factor, and at the duplicates
    # and near duplicates outside the basis, whitened by a solve with R.
    # Bounded as the penalty factor's gap, against a Gram formed afresh
    kernel, data = problem
    ctx = RepresenterContext.build(data, kernel)
    design = ktilde_design(ctx)
    gap = np.abs(ctx.prec_design @ ctx.from_beta - design).max(initial=0.0)
    terms = np.abs(bordered_matrix(gram_matrix(kernel, data.covariates),
                                   constant_norm_squared(kernel))).max()
    assert gap <= 1e-11 * np.abs(design).max(initial=0.0) + 1e-14 * terms


def test_empty_basis_at_origin():
    # one point at the origin: its Sobolev section equals the constant times
    # the shift, so the bordered Schur diagonal is zero and the basis is empty
    kernel = Sobolev2Kernel(shift=2.0)
    gram = gram_matrix(kernel, [[0.0]])
    cns = constant_norm_squared(kernel)
    assert build_representer_basis(gram, cns)[0].size == 0
    assert rref_basis(gram, cns).size == 0


@pytest.mark.parametrize("kernel, dim, rank", [
    (PolynomialKernel(degree=3, shift=1.0), 3, 20),
    (PolynomialKernel(degree=2, shift=1.0), 10, 66),
])
def test_polynomial_rank_is_feature_count(kernel, dim, rank):
    # the bordered Gram of a degree-p polynomial kernel in d dimensions has
    # rank binom(d + p, p): the constant plus rank - 1 training sections
    points = np.random.default_rng(dim).uniform(0.0, 1.0, (120, dim))
    gram = gram_matrix(kernel, points)
    cns = constant_norm_squared(kernel)
    basis = build_representer_basis(gram, cns)[0]
    assert basis.size == rank - 1
    np.testing.assert_array_equal(basis, rref_basis(gram, cns))


def test_duplicates_keep_first_occurrence():
    points = np.random.default_rng(3).uniform(0.0, 1.0, (100, 1))
    tripled = np.vstack([points, points, points])
    kernel = Sobolev1Kernel(shift=1.0)
    gram = gram_matrix(kernel, tripled)
    cns = constant_norm_squared(kernel)
    basis = build_representer_basis(gram, cns)[0]
    np.testing.assert_array_equal(basis, np.arange(100))
    np.testing.assert_array_equal(basis, rref_basis(gram, cns))


@pytest.mark.parametrize("kernel", [Sobolev1Kernel(shift=1.0), Sobolev2Kernel(shift=0.5),
                                    GaussianKernel(shift=1.0, lengthscales=(1.0,))])
def test_factor_over_many_blocks(kernel):
    # 600 points span ten column blocks; Sobolev-1 accepts every point,
    # Sobolev-2 and the Gaussian skip points between accepted ones, so the
    # accepted rows are gathered from across the working factor
    gram = gram_matrix(kernel, np.random.default_rng(1).uniform(0.0, 1.0, (600, 1)))
    cns = constant_norm_squared(kernel)
    basis, lower = build_representer_basis(gram, cns)
    accepted = np.concatenate(([0], basis + 1))
    bordered = bordered_matrix(gram, cns)[np.ix_(accepted, accepted)]
    assert np.array_equal(lower, np.tril(lower))
    assert np.abs(lower @ lower.T - bordered).max() <= 1e-12 * np.abs(bordered).max()


@pytest.mark.parametrize("kernel", [Sobolev1Kernel(shift=1.0),
                                    GaussianKernel(shift=1.0, lengthscales=(1.0,))],
                         ids=["every_point", "few_points"])
def test_selector_memory_is_one_working_factor(kernel):
    # above its input Gram, the selector holds the (n+1)^2 working factor and
    # a few column blocks; a bordered copy of the Gram, or a copy of the
    # factor's accepted rows, would each add up to another (n+1)^2
    n = 600
    gram = gram_matrix(kernel, np.random.default_rng(0).uniform(0.0, 1.0, (n, 1)))
    tracemalloc.start()
    try:
        build_representer_basis(gram, constant_norm_squared(kernel))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (n + 1) ** 2 * 8
