import json

import numpy as np
import pytest

from basis_oracle import rref_basis_and_factor
from conftest import all_censored_dataset
from feature_map_oracle import feature_matrix, fit_feature_map_estimator
from likelihood_oracle import fitted_values
from newton_oracle import newton_reference
from survcare import (
    CenteredExternal,
    DgpConfig,
    ExternalSpec,
    GammaGrid,
    GaussianKernel,
    KernelEstimator,
    PolynomialKernel,
    Sobolev1Kernel,
    SurvivalDataset,
    fit_kernel_estimator,
    neg_log_partial_likelihood,
    simulate_dataset,
    true_f0,
)
from survcare import OptimOptions, estimators, partial_likelihood
from survcare.kernels import NotInSpaceError
from survcare.model_selection import _centred_externals
from survcare.optimizer import minimize_bfgs
from survcare.partial_likelihood import RepresenterContext

from test_partial_likelihood import bordered_norm_oracle


class TestFitKernelEstimator:
    def test_single_record_zero_function(self):
        data = SurvivalDataset([[0.3]], [0.6], [False])
        est = fit_kernel_estimator(data, Sobolev1Kernel(shift=1.0), 0.5)
        np.testing.assert_allclose(est.beta, 0.0, atol=1e-10)
        assert est.predict_many([0.8]) == pytest.approx(0.0, abs=1e-10)

    def test_huge_gamma_shrinks_to_zero(self, uni_dgp):
        data, _ = simulate_dataset(uni_dgp, 100, 21)
        est = fit_kernel_estimator(data, Sobolev1Kernel(shift=1.0), 1e6)
        assert np.abs(est.predict_many(data.covariates)).max() <= 1e-3

    def test_objective_beats_zero(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        est = fit_kernel_estimator(small_dataset, sob1, 0.05, ctx=ctx)
        fitted = neg_log_partial_likelihood(fitted_values(ctx, est.beta), small_dataset) \
            + 0.05 * est.hilbert_norm_squared
        at_zero = neg_log_partial_likelihood(np.zeros(len(small_dataset)), small_dataset)
        assert fitted <= at_zero

    def test_context_from_other_data_is_refused(self, uni_dgp, sob1):
        a, _ = simulate_dataset(uni_dgp, 30, 1)
        b, _ = simulate_dataset(uni_dgp, 30, 2)
        with pytest.raises(ValueError, match="another dataset"):
            fit_kernel_estimator(b, sob1, 0.1, ctx=RepresenterContext.build(a, sob1))

    def test_context_with_another_kernel_is_refused(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        with pytest.raises(ValueError, match="kernel"):
            fit_kernel_estimator(small_dataset, GaussianKernel(shift=1.0, lengthscales=(0.5,)),
                                 0.1, ctx=ctx)
        # an equal kernel is the same kernel
        est = fit_kernel_estimator(small_dataset, Sobolev1Kernel(shift=1.0), 0.1, ctx=ctx)
        assert est.converged and abs(est.predict_many(small_dataset.covariates).mean()) <= 1e-9

    def test_warm_start_of_the_wrong_length_is_refused(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        m = ctx.basis_size
        with pytest.raises(ValueError, match=f"^warm start must have length {m}$"):
            fit_kernel_estimator(small_dataset, sob1, 0.1, warm=np.zeros(m + 1), ctx=ctx)

    def test_not_in_space_kernel_rejected(self, small_dataset):
        with pytest.raises(NotInSpaceError):
            fit_kernel_estimator(small_dataset, Sobolev1Kernel(shift=0.0), 0.1)

    def test_empty_basis_degenerates_to_zero(self):
        # a single point at the origin makes the kernel row proportional to
        # the constant border row, so the representer basis is empty
        data = SurvivalDataset([[0.0]], [0.5], [False])
        est = fit_kernel_estimator(data, Sobolev1Kernel(shift=2.0), 0.1)
        assert est.beta.size == 0
        assert est.converged
        np.testing.assert_array_equal(est.predict_many([0.7]), [0.0])

    @pytest.mark.parametrize("fit, kernel, coef", [
        (fit_kernel_estimator, Sobolev1Kernel(shift=1.0), "beta"),
        (fit_feature_map_estimator, PolynomialKernel(degree=2, shift=1.0), "alpha"),
    ], ids=["representer", "feature_map"])
    def test_all_censored_warns_and_zeroes(self, fit, kernel, coef):
        data = all_censored_dataset()
        est = fit(data, kernel, 0.1)
        assert est.fit_warning is not None and "censored" in est.fit_warning
        np.testing.assert_allclose(getattr(est, coef), 0.0, atol=1e-12)

    @pytest.mark.parametrize("basis, n, seed, lengthscale, gamma", [
        ("row_reduction", 120, 1, 0.05, 1e-4),
        ("cholesky", 120, 2, 0.03, 1e-5),
    ])
    def test_overflowing_gradient_gives_finite_fit(self, monkeypatch, basis, n, seed,
                                                   lengthscale, gamma):
        # short lengthscales let BFGS reach iterates whose f values spread
        # beyond the exponent range; each draw raised "relative-risk values
        # must be finite" when the gradient weights overflowed to NaN
        if basis == "row_reduction":
            monkeypatch.setattr(partial_likelihood, "build_representer_basis",
                                rref_basis_and_factor)
        data, _ = simulate_dataset(DgpConfig("univariate"), n, seed)
        kernel = GaussianKernel(shift=1.0, lengthscales=(lengthscale,))
        est = fit_kernel_estimator(data, kernel, gamma)
        assert np.all(np.isfinite(est.beta))
        assert np.all(np.isfinite(est.predict_many(data.covariates)))
        if not est.converged:
            assert est.fit_warning is not None and "did not converge" in est.fit_warning

    def test_short_lengthscale_converges_at_smallest_gamma(self):
        # with a ridged Cholesky of khat, this draw's whitened penalty had a
        # negative eigenvalue: the objective was unbounded below, BFGS ran
        # 500 iterations to a gradient of 6e147 and the Hilbert norm was NaN
        data, _ = simulate_dataset(DgpConfig("univariate"), 120, 2)
        kernel = GaussianKernel(shift=1.0, lengthscales=(0.03,))
        est = fit_kernel_estimator(data, kernel, 1e-5)
        assert est.converged
        assert est.gradient_norm <= 1e-8
        assert np.isfinite(est.hilbert_norm_squared)

    def test_huge_shift_keeps_the_constant(self):
        # the constant's bordered diagonal 1 / shift = 1e-8 is below the
        # selector's tolerance relative to the Gram's 1e8 entries; it is
        # accepted anyway, so the fit is still centred
        data, _ = simulate_dataset(DgpConfig("univariate"), 120, 2)
        kernel = GaussianKernel(shift=1e8, lengthscales=(0.3,))
        est = fit_kernel_estimator(data, kernel, 1e-2)
        assert est.converged
        assert est.beta.size > 0
        assert abs(est.predict_many(data.covariates).mean()) <= 1e-6

    def test_trace_monotone(self, small_dataset, sob1):
        est = fit_kernel_estimator(small_dataset, sob1, 0.01)
        trace = np.asarray(est.objective_trace)
        assert np.all(np.diff(trace) <= 0)


def spy_on_bfgs(monkeypatch, replace_stop=None):
    """Record each BFGS run's (options, result, stop answers) in a fit.

    ``replace_stop`` maps the fit's stop predicate to the one BFGS is given.
    """
    runs = []

    def spy(objective, gradient, init, options=None, stop=None):
        answers = []
        given = replace_stop(stop) if replace_stop else stop

        def asked(v):
            answers.append(bool(given(v)))
            return answers[-1]

        result = minimize_bfgs(objective, gradient, init, options,
                               stop=asked if given else None)
        runs.append((options, result, answers))
        return result

    monkeypatch.setattr(estimators, "minimize_bfgs", spy)
    return runs


class TestRoundingFloorStop:
    # a draw and level whose BFGS run reaches the rounding floor: an accepted
    # step with no decrease, after which the theta-space test holds
    GAMMA = GammaGrid.geometric(1e-5, 10.0, 50).values[38]

    @pytest.fixture
    def floor_level(self, sob1):
        data, _ = simulate_dataset(DgpConfig("univariate"), 40, 1)
        return data, RepresenterContext.build(data, sob1)

    def test_a_stop_that_never_holds_changes_nothing(self, monkeypatch, floor_level, sob1):
        data, ctx = floor_level
        plain_runs = spy_on_bfgs(monkeypatch, replace_stop=lambda stop: None)
        plain = fit_kernel_estimator(data, sob1, self.GAMMA, ctx=ctx)
        never_runs = spy_on_bfgs(monkeypatch, replace_stop=lambda stop: lambda v: False)
        never = fit_kernel_estimator(data, sob1, self.GAMMA, ctx=ctx)
        assert not plain_runs[0][2] and never_runs[0][2]  # the floor was reached
        assert never.beta.tobytes() == plain.beta.tobytes()
        assert never.objective_trace == plain.objective_trace
        assert (never.converged, never.gradient_norm, never.train_loss,
                never.hilbert_norm_squared) == (plain.converged, plain.gradient_norm,
                                                plain.train_loss, plain.hilbert_norm_squared)

    def test_a_level_the_rule_stops_is_converged(self, monkeypatch, floor_level, sob1):
        data, ctx = floor_level
        runs = spy_on_bfgs(monkeypatch)
        est = fit_kernel_estimator(data, sob1, self.GAMMA, ctx=ctx)
        options, result, answers = runs[0]
        # the rule stopped it: the inner gradient was still above its tolerance
        assert answers == [True]
        assert result.converged and result.gradient_norm > options.gradient_tolerance
        # and the final check read the point the rule read
        assert est.converged and est.fit_warning is None
        assert est.gradient_norm <= OptimOptions().gradient_tolerance

    @pytest.mark.slow
    def test_mid_grid_level_stops_at_the_floor(self, sob1):
        # n=1600, grid index 22 (gamma 4.94e-3) of the 50-level path: the
        # theta-space test holds from the 5th gradient on, while the inner
        # gradient stays above the inner tolerance; without the rule BFGS ran
        # all 500 iterations there, at about 33 objective calls each
        data, _ = simulate_dataset(DgpConfig("univariate"), 1600, 1)
        ctx = RepresenterContext.build(data, sob1)
        warm = None
        for gamma in GammaGrid.geometric(1e-5, 10.0, 50).values[:21:-1]:
            est = fit_kernel_estimator(data, sob1, gamma, warm=warm, ctx=ctx)
            warm = est.beta
        assert gamma == pytest.approx(4.94e-3, rel=1e-3)
        assert est.converged
        assert len(est.objective_trace) - 1 <= 50


class TestNewtonReference:
    """Every converged level of a 50-level path against its Newton-refined reference.

    The reference (``newton_oracle``) runs exact Newton steps from the fit
    with the dense Hessian, so it is the level's solution to rounding; a
    converged fit's training values lie within 1e-6 (sup) of it.
    """

    GRID = GammaGrid.geometric(1e-5, 10.0, 50)

    @pytest.mark.parametrize("dgp, n, seed, kernel", [
        ("univariate", 200, 1, Sobolev1Kernel(shift=1.0)),
        ("univariate", 200, 2, Sobolev1Kernel(shift=1.0)),
        pytest.param(
            "multivariate_d10", 100, 1, GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10),
            marks=pytest.mark.xfail(strict=True, reason=(
                "the 1e-8 theta-gradient test stops the levels near gamma = 1e-5 up to "
                "2e-6 from the solution; a stop rule on fitted values would mend it"))),
    ], ids=["univariate-seed1", "univariate-seed2", "gaussian_d10"])
    def test_converged_levels_lie_near_the_reference(self, dgp, n, seed, kernel):
        data, _ = simulate_dataset(DgpConfig(dgp), n, seed)
        ctx = RepresenterContext.build(data, kernel)
        warm, gaps = None, {}
        for gamma in reversed(self.GRID.values):  # as a path runs: warm starts, descending
            est = fit_kernel_estimator(data, kernel, gamma, warm=warm, ctx=ctx)
            warm = est.beta
            if est.converged:
                reference = newton_reference(ctx, gamma, est.beta)
                gaps[gamma] = np.abs(est.predict_many(data.covariates) - reference).max()
        assert len(gaps) >= 45
        assert max(gaps.values()) <= 1e-6, gaps


class TestPredict:
    def test_zero_beta_everywhere_zero(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        est = KernelEstimator(
            kernel=sob1,
            basis_points=small_dataset.covariates[ctx.basis],
            beta=np.zeros(ctx.basis_size),
            kbar_at_basis=ctx.kbar[ctx.basis],
        )
        np.testing.assert_array_equal(est.predict_many([0.3]), [0.0])
        np.testing.assert_array_equal(est.predict_many([[0.1], [0.9]]), [0.0, 0.0])

    def test_training_point_matches_internal_fit_values(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        est = fit_kernel_estimator(small_dataset, sob1, 0.2, ctx=ctx)
        internal = fitted_values(ctx, est.beta)
        external = est.predict_many(small_dataset.covariates)
        np.testing.assert_allclose(external, internal, atol=1e-12)

    def test_training_mean_is_zero(self, small_dataset, sob1):
        est = fit_kernel_estimator(small_dataset, sob1, 0.02)
        assert abs(est.predict_many(small_dataset.covariates).mean()) <= 1e-8

    def test_dimension_mismatch(self, small_dataset, sob1):
        est = fit_kernel_estimator(small_dataset, sob1, 0.1)
        with pytest.raises(ValueError):
            est.predict_many(np.zeros((3, 2)))


class TestUniquenessAndRegularisation:
    def test_warm_starts_agree(self, small_dataset, sob1):
        ctx = RepresenterContext.build(small_dataset, sob1)
        rng = np.random.default_rng(0)
        est1 = fit_kernel_estimator(small_dataset, sob1, 0.05, ctx=ctx)
        est2 = fit_kernel_estimator(small_dataset, sob1, 0.05, ctx=ctx,
                                    warm=rng.normal(0, 1, ctx.basis_size))
        obj1 = neg_log_partial_likelihood(fitted_values(ctx, est1.beta), small_dataset) \
            + 0.05 * est1.hilbert_norm_squared
        obj2 = neg_log_partial_likelihood(fitted_values(ctx, est2.beta), small_dataset) \
            + 0.05 * est2.hilbert_norm_squared
        assert abs(obj1 - obj2) <= 1e-9
        np.testing.assert_allclose(
            fitted_values(ctx, est1.beta), fitted_values(ctx, est2.beta), atol=1e-6)

    def test_hilbert_norm_monotone_in_gamma(self, uni_dgp):
        data, _ = simulate_dataset(uni_dgp, 120, 9)
        ctx = RepresenterContext.build(data, Sobolev1Kernel(shift=1.0))
        norms = []
        warm = None
        for gamma in (10.0, 1.0, 0.1, 0.01, 0.001):
            est = fit_kernel_estimator(data, Sobolev1Kernel(shift=1.0), gamma,
                                       ctx=ctx, warm=warm)
            warm = est.beta
            norms.append(est.hilbert_norm_squared)
        assert all(a <= b + 1e-9 for a, b in zip(norms, norms[1:]))


class TestFeatureMapEstimator:
    def test_zero_alpha_zero_function(self, small_dataset):
        kernel = PolynomialKernel(degree=2, shift=1.0)
        est = fit_feature_map_estimator(small_dataset, kernel, 1e9)
        np.testing.assert_allclose(est.predict_many(small_dataset.covariates), 0.0,
                                   atol=1e-6)

    def test_agrees_with_representer_path(self, uni_dgp):
        data, _ = simulate_dataset(uni_dgp, 50, 33)
        kernel = PolynomialKernel(degree=2, shift=1.0)
        for gamma in (1e-2, 1.0):
            rep = fit_kernel_estimator(data, kernel, gamma)
            fm = fit_feature_map_estimator(data, kernel, gamma)
            gap = np.abs(rep.predict_many(data.covariates)
                         - fm.predict_many(data.covariates)).max()
            assert gap <= 1e-5
        # the draw of acceptance criterion 4: both routes converge to one optimum
        data, _ = simulate_dataset(uni_dgp, 50, 44)
        for gamma in (1e-2, 1.0, 10.0):
            objectives = []
            for est in (fit_kernel_estimator(data, kernel, gamma),
                        fit_feature_map_estimator(data, kernel, gamma)):
                assert est.converged, est.fit_warning
                objectives.append(
                    neg_log_partial_likelihood(est.predict_many(data.covariates), data)
                    + gamma * est.hilbert_norm_squared)
            assert abs(objectives[0] - objectives[1]) <= 1e-10

    def test_norm_identity_against_bordered_oracle(self, uni_dgp):
        data, _ = simulate_dataset(uni_dgp, 30, 12)
        kernel = PolynomialKernel(degree=2, shift=1.0)
        ctx = RepresenterContext.build(data, kernel)
        phi = feature_matrix(kernel, data.covariates)
        c = phi[0, -1]
        means = phi[:, :-1].mean(axis=0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            beta = rng.normal(0, 1, ctx.basis_size)
            alpha = phi[ctx.basis, :-1].T @ beta
            feature_norm = float(alpha @ alpha) + (float(means @ alpha) / c) ** 2
            assert feature_norm == pytest.approx(bordered_norm_oracle(ctx, kernel, beta),
                                                 rel=1e-8)

    def test_training_mean_zero(self, small_dataset):
        kernel = PolynomialKernel(degree=2, shift=1.0)
        est = fit_feature_map_estimator(small_dataset, kernel, 0.1)
        assert abs(est.predict_many(small_dataset.covariates).mean()) <= 1e-8

    def test_requires_polynomial(self, small_dataset, sob1):
        with pytest.raises(TypeError):
            fit_feature_map_estimator(small_dataset, sob1, 0.1)


def center_external(raw, train):
    """The external as fit_care centres it on the training sample."""
    centred, = _centred_externals([ExternalSpec(name="ext", fn=raw)], train, train)
    return centred


class TestCenteredExternal:
    def test_constant_centres_to_zero(self, small_dataset):
        ext = center_external(lambda xs: np.full(xs.shape[0], 7.0), small_dataset)
        assert ext.training_mean == pytest.approx(7.0)
        np.testing.assert_allclose(ext.predict_many([[0.2], [0.8]]), 0.0)

    def test_centering_idempotent(self, small_dataset):
        raw = lambda xs: 2.0 * xs[:, 0] + 1.0
        once = center_external(raw, small_dataset)
        twice = center_external(lambda xs: once.predict_many(xs), small_dataset)
        assert twice.training_mean == pytest.approx(0.0, abs=1e-12)
        xs = np.linspace(0, 1, 7)[:, None]
        np.testing.assert_allclose(twice.predict_many(xs), once.predict_many(xs), atol=1e-12)

    def test_true_risk_nearly_centered_at_scale(self, uni_dgp):
        n = 4000
        data, _ = simulate_dataset(uni_dgp, n, 77)
        ext = center_external(lambda xs: true_f0(uni_dgp, xs), data)
        assert abs(ext.training_mean) <= 3.0 / np.sqrt(n)

    def test_non_finite_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            center_external(lambda xs: np.full(xs.shape[0], np.nan), small_dataset)

    def test_sup_bound_warning(self, small_dataset):
        with pytest.warns(UserWarning, match="sup-norm bound"):
            center_external(lambda xs: np.full(xs.shape[0], 500.0), small_dataset)

    def test_table_backed_external_cannot_extrapolate(self, small_dataset):
        table = np.full(len(small_dataset), 1.0)
        ext, = _centred_externals([ExternalSpec(name="table", train_values=table,
                                                valid_values=table)],
                                  small_dataset, small_dataset)
        assert isinstance(ext, CenteredExternal) and ext.raw is None
        with pytest.raises(ValueError):
            ext.predict_many([0.5])

    def test_sample_values_are_centred_once_and_read_only(self, small_dataset):
        raw = lambda xs: 2.0 * xs[:, 0] + 1.0
        valid = small_dataset.subset(np.arange(3))
        ext, = _centred_externals([ExternalSpec(name="ext", fn=raw)], small_dataset, valid)
        for values, data in ((ext.train_values, small_dataset), (ext.valid_values, valid)):
            assert not values.flags.writeable
            np.testing.assert_array_equal(values, raw(data.covariates) - ext.training_mean)
            np.testing.assert_array_equal(values, ext.predict_many(data.covariates))
        assert abs(ext.train_values.mean()) <= 1e-12


class TestSerialization:
    def test_kernel_estimator_json_round_trip(self, small_dataset, sob1):
        est = fit_kernel_estimator(small_dataset, sob1, 0.1)
        blob = json.dumps(est.to_json())
        again = KernelEstimator.from_json(json.loads(blob))
        xs = np.linspace(0, 1, 9)[:, None]
        np.testing.assert_allclose(again.predict_many(xs), est.predict_many(xs), rtol=1e-15)

    def test_empty_basis_round_trip(self):
        # the one-point fit of test_empty_basis_degenerates_to_zero; its basis
        # is written as [], so only the dimension key keeps its shape
        data = SurvivalDataset([[0.0]], [0.5], [False])
        est = fit_kernel_estimator(data, Sobolev1Kernel(shift=2.0), 0.1)
        obj = json.loads(json.dumps(est.to_json()))
        assert obj["basis_points"] == [] and obj["dimension"] == 1
        again = KernelEstimator.from_json(obj)
        assert again.basis_points.shape == (0, 1)
        np.testing.assert_array_equal(again.predict_many([0.7, 0.2]), [0.0, 0.0])
        with pytest.raises(ValueError, match="expected dimension 1, got 2"):
            again.predict_many([[0.7, 0.2]])

    def test_json_without_dimension_loads_a_non_empty_basis(self, small_dataset, sob1):
        est = fit_kernel_estimator(small_dataset, sob1, 0.1)
        obj = est.to_json()
        del obj["dimension"]
        again = KernelEstimator.from_json(json.loads(json.dumps(obj)))
        xs = np.linspace(0, 1, 9)[:, None]
        assert again.basis_points.shape == est.basis_points.shape
        np.testing.assert_array_equal(again.predict_many(xs), est.predict_many(xs))
