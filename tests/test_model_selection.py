import csv
import gc
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survcare import (
    AllFitsFailed,
    DataFormatError,
    DgpConfig,
    GammaGrid,
    GaussianKernel,
    OptimOptions,
    PolynomialKernel,
    Sobolev1Kernel,
    SurvivalDataset,
    ThetaGrid,
    external_predictor,
    fit_care,
    fit_kernel_estimator,
    neg_log_partial_likelihood,
    simulate_dataset,
    split_train_validation,
    theta_grid,
    true_f0,
    validation_loss,
)
from survcare import estimators, model_selection
from survcare.model_selection import (
    CareEntry,
    CvReport,
    ExternalSpec,
    GammaEntry,
    _fit_gamma_path,
    fit_care_path,
)
from theta_grid_oracle import exhaustive_care_losses, recursive_theta_points


@pytest.fixture(scope="module")
def cv_setup(uni_dgp):
    data, truth = simulate_dataset(uni_dgp, 160, 404)
    train, valid = split_train_validation(data, 11)
    return train, valid, truth


SMALL_GRID = GammaGrid.geometric(1e-4, 10.0, 8)


class TestValidationLoss:
    def test_matches_direct_likelihood(self, cv_setup):
        _, valid, _ = cv_setup
        rng = np.random.default_rng(0)
        preds = rng.normal(size=len(valid))
        assert validation_loss(preds, valid) == neg_log_partial_likelihood(preds, valid)

    def test_constants_equal_zero_function(self, cv_setup):
        _, valid, _ = cv_setup
        zero = validation_loss(np.zeros(len(valid)), valid)
        const = validation_loss(np.full(len(valid), 4.2), valid)
        assert const == pytest.approx(zero, abs=1e-12)

    def test_single_uncensored_record(self):
        valid = SurvivalDataset([[0.5]], [0.9], [False])
        assert validation_loss(np.array([1.3]), valid) == 0.0


class TestThetaGrid:
    def test_single_external_resolution_20(self):
        grid = theta_grid(1, 20)
        assert len(grid) == 21
        np.testing.assert_allclose([p[0] for p in grid.points], np.arange(21) / 20)

    def test_two_externals_resolution_1(self):
        grid = theta_grid(2, 1)
        assert grid.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_two_externals_resolution_2_count(self):
        assert len(theta_grid(2, 2)) == 6

    def test_vertices_always_present(self):
        grid = theta_grid(3, 4)
        pts = set(map(tuple, grid.points.tolist()))
        assert (0.0, 0.0, 0.0) in pts
        for m in range(3):
            vertex = tuple(1.0 if j == m else 0.0 for j in range(3))
            assert vertex in pts

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="points"):
            theta_grid(8, 60)

    def test_invalid_simplex_point_rejected(self):
        with pytest.raises(ValueError):
            ThetaGrid(points=((0.7, 0.7),))

    @pytest.mark.parametrize("points", [
        (), ((0.1, 0.2), (0.3,)), ((float("nan"),),), ((-0.1, 0.2),), (0.1, 0.2),
    ], ids=["empty", "ragged", "nan", "negative", "flat"])
    def test_malformed_points_rejected(self, points):
        with pytest.raises(ValueError):
            ThetaGrid(points=points)

    @pytest.mark.parametrize("num_externals, resolution", [
        (1, 1), (1, 20), (2, 1), (3, 7), (3, 20), (5, 20), (4, 40),
    ])
    def test_matches_recursive_enumeration(self, num_externals, resolution):
        grid = theta_grid(num_externals, resolution)
        expected = recursive_theta_points(num_externals, resolution)
        assert tuple(map(tuple, grid.points.tolist())) == expected
        assert grid.points.dtype == np.float64
        assert grid.points.shape == (len(expected), num_externals)

    def test_array_holds_the_points_read_only(self):
        grid = theta_grid(3, 4)
        assert grid.points.shape == (len(grid), 3) and grid.num_externals == 3
        assert not grid.points.flags.writeable
        given = np.array(grid.points)
        same = ThetaGrid(given)
        assert same.points.tobytes() == grid.points.tobytes()
        assert given.flags.writeable  # the grid keeps a copy, not the caller's array
        assert ThetaGrid([[0.5], [1.0]]).points.tolist() == [[0.5], [1.0]]

    def test_grid_retains_only_its_array(self):
        # 53,130 points: the array alone is 2.1 MB, a tuple per point 13 MB
        gc.collect()
        tracemalloc.start()
        try:
            grid = theta_grid(5, 20)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array_bytes = len(grid) * grid.num_externals * 8
        assert array_bytes == 53_130 * 5 * 8
        assert retained <= 1.25 * array_bytes


class TestCrossValidateGamma:
    def test_singleton_grid(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        _, report, fits = fit_care_path(train, valid, sob1, GammaGrid((0.1,)))
        assert report.gamma_hat == 0.1
        assert set(fits) == {0.1}

    def test_selection_attains_table_minimum(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        _, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID)
        gamma_hat = report.gamma_hat
        losses = {e.gamma: e.valid_loss for e in report.gamma_entries if e.converged}
        assert losses[gamma_hat] == min(losses.values())
        # re-evaluating the loss at the selection reproduces the table entry
        preds = fits[gamma_hat].predict_many(valid.covariates)
        assert validation_loss(preds, valid) == pytest.approx(losses[gamma_hat], abs=1e-12)

    def test_warm_and_cold_starts_select_same_gamma(self, uni_dgp, sob1):
        for seed in range(5):
            data, _ = simulate_dataset(uni_dgp, 200, 1000 + seed)
            train, valid = split_train_validation(data, seed)
            gamma_warm = fit_care_path(train, valid, sob1, SMALL_GRID)[1].gamma_hat
            # cold oracle: independent fits from zero at every grid point
            losses = {}
            for gamma in SMALL_GRID.values:
                est = fit_kernel_estimator(train, sob1, gamma)
                if est.converged:
                    losses[gamma] = validation_loss(
                        est.predict_many(valid.covariates), valid)
            best = min(losses.values())
            gamma_cold = min(g for g, v in losses.items() if v == best)
            assert gamma_warm == gamma_cold

    def test_interior_minimum_is_typical(self, uni_dgp, sob1):
        # validation-loss curve shape: the minimiser should usually be interior
        grid = GammaGrid.geometric(1e-5, 10.0, 50)
        interior = 0
        for seed in range(20):
            data, _ = simulate_dataset(uni_dgp, 400, 3000 + seed)
            train, valid = split_train_validation(data, seed)
            gamma_hat = fit_care_path(train, valid, sob1, grid)[1].gamma_hat
            if grid.values[0] < gamma_hat < grid.values[-1]:
                interior += 1
        assert interior >= 16

    def test_all_fits_failed(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        opts = OptimOptions(gradient_tolerance=1e-30, max_iterations=1)
        with pytest.raises(AllFitsFailed):
            fit_care_path(train, valid, sob1, GammaGrid((0.1, 1.0)), options=opts)


# (fits made before the refusal, its message) of each malformed call of fit_care_path
REFUSALS = {
    "no_theta_grid": "a theta grid is required when externals are given",
    "theta_grid_too_wide": "theta grid width must match the number of externals",
    "dimensions_differ": "training and validation dimensions differ",
    "external_without_values": "external 'empty' needs a callable or value tables",
}


class TestFitCare:
    def test_no_externals_degrades_to_cv(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        _, report_cv, fits = fit_care_path(train, valid, sob1, SMALL_GRID, [], None)
        gamma_hat = report_cv.gamma_hat
        losses = {e.gamma: e.valid_loss for e in report_cv.gamma_entries if e.converged}
        assert losses[gamma_hat] == min(losses.values())
        care, report = fit_care(train, valid, sob1, SMALL_GRID)  # externals default to none
        assert care.gamma == gamma_hat
        assert care.theta == ()
        np.testing.assert_allclose(
            care.kernel_estimator.beta, fits[gamma_hat].beta, atol=1e-12)
        assert report.gamma_check == report_cv.gamma_hat
        assert report.theta_check == () and report.care_losses.size == 0

    def test_vertex_dominance(self, cv_setup, sob1):
        train, valid, truth = cv_setup
        externals = [ExternalSpec(name="ext", fn=truth.external)]
        care, report = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 20))
        best_care = min(e.valid_loss for e in report.care_entries)
        kernel_only = min(e.valid_loss for e in report.gamma_entries if e.converged)
        tv = truth.external(train.covariates)
        vv = truth.external(valid.covariates) - tv.mean()
        external_loss = validation_loss(vv, valid)
        assert best_care <= kernel_only + 1e-12
        assert best_care <= external_loss + 1e-12

    def test_selection_reproducible_and_optimal(self, cv_setup, sob1):
        train, valid, truth = cv_setup
        externals = [ExternalSpec(name="ext", fn=truth.external)]
        care1, report1 = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 10))
        care2, report2 = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 10))
        assert (care1.gamma, care1.theta) == (care2.gamma, care2.theta)
        losses = {(e.gamma, e.theta): e.valid_loss for e in report1.care_entries}
        assert losses[(care1.gamma, care1.theta)] == min(losses.values())

    def test_superset_of_theta_never_worse(self, cv_setup, sob1):
        train, valid, truth = cv_setup
        externals = [ExternalSpec(name="ext", fn=truth.external)]
        _, coarse = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 5))
        _, fine = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 20))
        assert min(e.valid_loss for e in fine.care_entries) <= \
            min(e.valid_loss for e in coarse.care_entries) + 1e-12

    def test_table_backed_externals(self, cv_setup, sob1):
        train, valid, truth = cv_setup
        spec = ExternalSpec(
            name="table",
            train_values=truth.external(train.covariates),
            valid_values=truth.external(valid.covariates),
        )
        care, report = fit_care(train, valid, sob1, SMALL_GRID, [spec], theta_grid(1, 10))
        assert sum(care.theta) <= 1.0
        assert report.theta_check is not None

    def test_wrong_table_length_rejected(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        spec = ExternalSpec(name="bad", train_values=np.zeros(3),
                            valid_values=np.zeros(len(valid)))
        with pytest.raises(ValueError, match="training values"):
            fit_care(train, valid, sob1, SMALL_GRID, [spec], theta_grid(1, 5))

    @pytest.mark.parametrize("side", ["train_values", "valid_values"])
    def test_external_beyond_the_sup_bound_warns(self, cv_setup, sob1, side):
        train, valid, _ = cv_setup
        constant = ExternalSpec(name="big", fn=lambda xs: np.full(xs.shape[0], 500.0))
        with pytest.warns(UserWarning, match="'big' exceeds the sup-norm bound"):
            fit_care(train, valid, sob1, GammaGrid((1.0,)), [constant], theta_grid(1, 2))
        # one value past the bound on either sample is enough
        tables = {"train_values": np.zeros(len(train)), "valid_values": np.zeros(len(valid))}
        tables[side][0] = -100.5
        with pytest.warns(UserWarning, match="'big' exceeds the sup-norm bound"):
            fit_care(train, valid, sob1, GammaGrid((1.0,)),
                     [ExternalSpec(name="big", **tables)], theta_grid(1, 2))
        tables[side][0] = -100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_care(train, valid, sob1, GammaGrid((1.0,)),
                     [ExternalSpec(name="big", **tables)], theta_grid(1, 2))

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_malformed_arguments_are_refused(self, cv_setup, sob1, monkeypatch, case):
        message = REFUSALS[case]
        train, valid, truth = cv_setup
        calls = []
        original = model_selection.fit_kernel_estimator
        monkeypatch.setattr(model_selection, "fit_kernel_estimator",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        externals = [ExternalSpec(name="ext", fn=truth.external)]
        thetas = theta_grid(1, 5)
        if case == "no_theta_grid":
            thetas = None
        elif case == "theta_grid_too_wide":
            thetas = theta_grid(2, 5)
        elif case == "dimensions_differ":
            valid = SurvivalDataset(np.zeros((len(valid), 2)), valid.times, valid.events)
        else:
            externals = [ExternalSpec(name="empty", train_values=np.zeros(len(train)))]
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_care_path(train, valid, sob1, SMALL_GRID, externals, thetas)
        assert calls == []  # the argument checks come before any fit

    def test_non_finite_validation_predictions_are_refused(self):
        # a degree-60 polynomial overflows at the validation point 1e6
        rng = np.random.default_rng(4)
        train = SurvivalDataset(rng.uniform(0.0, 1.0, (30, 1)), rng.uniform(0.1, 1.0, 30),
                                rng.uniform(size=30) < 0.7)
        valid = SurvivalDataset([[0.1], [0.5], [1e6], [0.7]], [1.0, 2.0, 3.0, 4.0],
                                [True, True, True, False])
        with pytest.raises(ValueError, match="^polynomial kernel values overflow$"):
            fit_care(train, valid, PolynomialKernel(degree=60, shift=1.0),
                     GammaGrid.geometric(0.01, 1.0, 3))


class TestPathLosses:
    @pytest.mark.parametrize("with_externals", [False, True], ids=["kernel_only", "externals"])
    def test_every_level_scores_as_its_validation_loss(self, cv_setup, sob1, with_externals):
        train, valid, truth = cv_setup
        externals = [ExternalSpec(name="ext", fn=truth.external)] if with_externals else []
        thetas = theta_grid(1, 10) if with_externals else None
        # five iterations leave the lower levels unconverged
        _, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, externals, thetas,
                                        OptimOptions(max_iterations=5))
        converged = [e.converged for e in report.gamma_entries]
        assert any(converged) and not all(converged)
        assert [e.gamma for e in report.gamma_entries] == list(SMALL_GRID.values)
        for e in report.gamma_entries:
            assert e.valid_loss == validation_loss(fits[e.gamma].predict_many(valid.covariates),
                                                   valid)
            assert e.train_loss == fits[e.gamma].train_loss
            assert e.converged == fits[e.gamma].converged


class TestThetaScan:
    def test_ties_go_to_the_lexicographically_smallest_theta(self, cv_setup, sob1):
        # Two identical externals with quarter-integer validation values and a
        # zero training mean, at resolution 4: every product and sum in a
        # combination is exact, so points with equal theta sums give
        # byte-equal combinations and tie exactly.
        train, valid, truth = cv_setup
        values = np.round(4.0 * truth.external(valid.covariates)) / 4.0
        spec = ExternalSpec(name="twin", train_values=np.zeros(len(train)),
                            valid_values=values)
        _, report = fit_care(train, valid, sob1, SMALL_GRID, [spec, spec], theta_grid(2, 4))
        by_gamma = {}
        for e in report.care_entries:
            by_gamma.setdefault(e.gamma, []).append(e)
        tied_levels = 0
        for gamma, level in by_gamma.items():
            for e in level:
                twins = [o.valid_loss for o in level if sum(o.theta) == sum(e.theta)]
                assert twins == [e.valid_loss] * len(twins)
            best = min(e.valid_loss for e in level)
            minimisers = [e.theta for e in level if e.valid_loss == best]
            tied_levels += len(minimisers) > 1
        assert tied_levels > 0
        best = min(e.valid_loss for e in report.care_entries)
        winners = [(e.gamma, e.theta) for e in report.care_entries if e.valid_loss == best]
        assert len(winners) > 1
        assert (report.gamma_check, report.theta_check) == min(winners)

    def test_entries_match_the_single_vector_loss(self, cv_setup, sob1):
        train, valid, truth = cv_setup
        spec = ExternalSpec(name="ext", fn=truth.external)
        thetas = theta_grid(2, 10)
        _, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, [spec, spec], thetas)
        centred = truth.external(valid.covariates) - truth.external(train.covariates).mean()
        for e in report.care_entries[::7]:
            kernel = fits[e.gamma].predict_many(valid.covariates)
            combo = (1.0 - sum(e.theta)) * kernel + (e.theta[0] + e.theta[1]) * centred
            assert e.valid_loss == pytest.approx(validation_loss(combo, valid), rel=1e-12)

    def test_a_scan_larger_than_one_block_matches_the_single_vector_loss(self, cv_setup, sob1):
        # 231 points, more than one block: the scan scores only the points
        # that can still win and leaves +inf at the others
        train, valid, truth = cv_setup
        rng = np.random.default_rng(12)
        specs = [ExternalSpec(name="ext", fn=truth.external),
                 ExternalSpec(name="table", train_values=rng.normal(size=len(train)),
                              valid_values=rng.normal(size=len(valid)))]
        thetas = theta_grid(2, 20)
        assert len(thetas) == 231 > model_selection._ROW_BLOCK
        care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, specs, thetas)
        assert report.care_thetas is thetas.points
        centred = np.stack([
            truth.external(valid.covariates) - truth.external(train.covariates).mean(),
            specs[1].valid_values - specs[1].train_values.mean(),
        ])
        assert report.care_losses.shape == (len(report.care_gammas), len(thetas))
        exhaustive = np.empty(report.care_losses.shape)
        for gamma, losses, singles in zip(report.care_gammas, report.care_losses, exhaustive):
            kernel = fits[gamma].predict_many(valid.covariates)
            for p, theta in enumerate(thetas.points):
                singles[p] = validation_loss((1.0 - theta.sum()) * kernel + theta @ centred, valid)
            scored = np.isfinite(losses)
            assert 0 < scored.sum() < len(thetas)
            assert (losses[~scored] == np.inf).all()
            assert losses[scored] == pytest.approx(singles[scored], rel=1e-12)
            assert (singles[~scored] > singles.min()).all()
        level, p = np.unravel_index(np.argmin(exhaustive), exhaustive.shape)
        assert (care.gamma, care.theta) == (report.care_gammas[level],
                                            tuple(thetas.points[p].tolist()))


def assert_matches_the_exhaustive_scan(report, fits, care, valid) -> np.ndarray:
    """Check the pruned scan against the exhaustive one and return the latter's losses.

    Every scored loss is the exhaustive loss bit for bit, every dropped point
    (+inf) lies strictly above its level's minimum, and the selection is the
    exhaustive scan's first minimiser.
    """
    kernel = [fits[g].predict_many(valid.covariates) for g in report.care_gammas]
    exhaustive = exhaustive_care_losses(kernel, [e.valid_values for e in care.externals],
                                        report.care_thetas, valid)
    assert report.care_losses.shape == exhaustive.shape
    scored = np.isfinite(report.care_losses)
    assert report.care_losses[scored].tobytes() == exhaustive[scored].tobytes()
    assert (report.care_losses[~scored] == np.inf).all()
    above_minimum = exhaustive > exhaustive.min(axis=1, keepdims=True)
    assert above_minimum[~scored].all()
    level, p = divmod(int(np.argmin(exhaustive)), exhaustive.shape[1])
    assert (report.gamma_check, report.theta_check) == (
        report.care_gammas[level], tuple(report.care_thetas[p].tolist()))
    assert (care.gamma, care.theta) == (report.gamma_check, report.theta_check)
    return exhaustive


def takes_log_space(values, data) -> bool:
    """Whether a shifted risk-set sum of ``values`` falls below the normal range."""
    idx = data.risk_index()
    fs = np.asarray(values)[idx.order]
    suffix = np.exp(fs - fs.max())[::-1].cumsum()[::-1]
    return bool((suffix[idx.event_start] < np.finfo(float).tiny).any())


@st.composite
def scan_problems(draw):
    """Univariate data with tied times and censoring, M in {1, 2, 3} externals
    (tables or callables) and a lattice of resolution up to 20."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(n):
        distinct = draw(st.integers(1, n))  # few distinct times: many ties
        censored = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
        return SurvivalDataset(rng.uniform(0.0, 1.0, (n, 1)),
                               rng.integers(1, distinct + 1, n) / distinct,
                               rng.uniform(size=n) < censored)

    train, valid = sample(draw(st.integers(4, 60))), sample(draw(st.integers(2, 60)))
    specs = []
    for m in range(draw(st.integers(1, 3))):
        scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
        if draw(st.booleans()):
            specs.append(ExternalSpec(name=f"table_{m}",
                                      train_values=scale * rng.normal(size=len(train)),
                                      valid_values=scale * rng.normal(size=len(valid))))
        else:
            a, b = rng.normal(size=2)
            specs.append(ExternalSpec(
                name=f"fn_{m}",
                fn=lambda xs, a=a, b=b, scale=scale: scale * np.sin(a + 6.0 * b * xs[:, 0])))
    return train, valid, specs, theta_grid(len(specs), draw(st.integers(1, 20)))


class TestPrunedScan:
    """The scan scores only the points that can still win, with the exhaustive selection."""

    # derandomised: the examples are the same on every run
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(problem=scan_problems())
    def test_matches_the_exhaustive_scan(self, problem, sob1):
        train, valid, specs, thetas = problem
        try:
            care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, specs, thetas)
        except AllFitsFailed:
            assume(False)
        assert_matches_the_exhaustive_scan(report, fits, care, valid)

    def test_all_censored_validation_data_tie_every_point(self, cv_setup, sob1, monkeypatch):
        # the first pass's planes are flat and cut nothing, so the rest of
        # each level is scored without gradients
        passes = []
        original = model_selection.LikelihoodPass
        monkeypatch.setattr(model_selection, "LikelihoodPass",
                            lambda fs, idx: passes.append(fs.shape[1]) or original(fs, idx))
        train, valid, truth = cv_setup
        valid = SurvivalDataset(valid.covariates, valid.times, np.ones(len(valid), dtype=bool))
        rng = np.random.default_rng(3)
        specs = [ExternalSpec(name="ext", fn=truth.external)] + [
            ExternalSpec(name=f"table_{m}", train_values=rng.normal(size=len(train)),
                         valid_values=rng.normal(size=len(valid))) for m in range(2)]
        thetas = theta_grid(3, 8)
        assert len(thetas) == 165 > model_selection._ROW_BLOCK
        care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, specs, thetas)
        assert (report.care_losses == 0.0).all()  # every point scored, every loss 0
        assert report.gamma_check == report.care_gammas[0]
        assert report.theta_check == (0.0, 0.0, 0.0)
        assert_matches_the_exhaustive_scan(report, fits, care, valid)
        assert passes == [15] * len(report.care_gammas)  # every 11th of 165 points

    def test_twin_externals_tie_exactly(self, cv_setup, sob1):
        # quarter-integer values, a zero training mean and sixteenths on the
        # grid: every product and sum is exact, so points with equal theta
        # sums give byte-equal combinations, and a minimiser is tied
        train, valid, truth = cv_setup
        values = np.round(4.0 * truth.external(valid.covariates)) / 4.0
        spec = ExternalSpec(name="twin", train_values=np.zeros(len(train)), valid_values=values)
        thetas = theta_grid(2, 16)
        assert len(thetas) == 153 > model_selection._ROW_BLOCK
        care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, [spec, spec], thetas)
        exhaustive = assert_matches_the_exhaustive_scan(report, fits, care, valid)
        best = exhaustive.min(axis=1, keepdims=True)
        tied = (exhaustive == best).sum(axis=1)
        assert tied.max() > 1
        # every tied minimiser of a level was scored
        assert (report.care_losses[exhaustive == best] == exhaustive[exhaustive == best]).all()

    def test_an_external_equal_to_a_level_s_predictions(self, cv_setup, sob1):
        # at that level the first external's direction is exactly zero, so
        # the loss is flat along it and its planes cannot cut along it
        train, valid, truth = cv_setup
        _, plain, fits = fit_care_path(train, valid, sob1, SMALL_GRID)
        gamma = plain.gamma_hat
        copy = ExternalSpec(name="copy", train_values=np.zeros(len(train)),
                            valid_values=fits[gamma].predict_many(valid.covariates))
        specs = [copy, ExternalSpec(name="ext", fn=truth.external)]
        care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, specs,
                                           theta_grid(2, 20))
        assert gamma in report.care_gammas
        exhaustive = assert_matches_the_exhaustive_scan(report, fits, care, valid)
        level = report.care_gammas.index(gamma)
        # the loss at that level depends on the second weight alone
        second = report.care_thetas[:, 1]
        for weight in np.unique(second):
            same = exhaustive[level, second == weight]
            assert np.ptp(same) <= 1e-12 * (1.0 + abs(same).max())

    def test_a_level_spread_past_the_exponent_range(self, cv_setup, sob1):
        # the wide external falls by 4000 along the validation time order,
        # so late risk sets' shifted sums underflow near its vertex
        train, valid, _ = cv_setup
        rng = np.random.default_rng(6)
        falling = np.empty(len(valid))
        falling[valid.risk_index().order] = np.linspace(2000.0, -2000.0, len(valid))
        wide = ExternalSpec(name="wide", train_values=rng.uniform(-2000.0, 2000.0, len(train)),
                            valid_values=falling)
        narrow = ExternalSpec(name="narrow", train_values=rng.normal(size=len(train)),
                              valid_values=rng.normal(size=len(valid)))
        with pytest.warns(UserWarning, match="sup-norm"):
            care, report, fits = fit_care_path(train, valid, sob1, SMALL_GRID, [wide, narrow],
                                               theta_grid(2, 20))
        assert_matches_the_exhaustive_scan(report, fits, care, valid)
        # some scored combination takes the log-space paths
        kernel = {g: fits[g].predict_many(valid.covariates) for g in report.care_gammas}
        centred = np.stack([e.valid_values for e in care.externals])
        scored = [(1.0 - theta.sum()) * kernel[e.gamma] + np.asarray(e.theta) @ centred
                  for e in report.care_entries for theta in [np.asarray(e.theta)]]
        assert any(takes_log_space(f, valid) for f in scored)

    def test_peak_memory_of_a_53130_point_scan(self):
        # five externals at resolution 20 on 400 validation points: one
        # (n x |Theta|) array of combinations alone would take 170 MB
        data, truth = simulate_dataset(DgpConfig("univariate"), 800, 21)
        train, valid = split_train_validation(data, 22)
        rng = np.random.default_rng(23)
        specs = [ExternalSpec(name="ext", fn=truth.external)] + [
            ExternalSpec(name=f"table_{m}", train_values=rng.normal(size=len(train)),
                         valid_values=rng.normal(size=len(valid))) for m in range(4)]
        thetas = theta_grid(5, 20)
        assert len(thetas) == 53130 and len(valid) == 400
        peaks = []
        original = model_selection._scan_level

        def traced(*args):
            # the scan's own allocations: its inputs exist before it starts
            tracemalloc.start()
            try:
                losses = original(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return losses

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_selection, "_scan_level", traced)
            _, report = fit_care(train, valid, Sobolev1Kernel(shift=1.0), SMALL_GRID,
                                 specs, thetas)
        assert len(peaks) == len(report.care_gammas) > 0
        assert max(peaks) < 25e6


class TestPathPredictions:
    @pytest.mark.parametrize("kernel, dim", [
        (Sobolev1Kernel(shift=1.0), 1),
        (GaussianKernel(shift=0.5, lengthscales=(0.5, 0.5)), 2),
    ], ids=["sobolev1", "gaussian_d2"])
    def test_cached_predictions_equal_predict_many(self, monkeypatch, kernel, dim):
        rng = np.random.default_rng(dim)
        data = SurvivalDataset(rng.uniform(0.0, 1.0, (90, dim)),
                               rng.uniform(0.05, 1.0, 90), rng.uniform(size=90) < 0.3)
        train, valid = split_train_validation(data, 3)
        calls = []
        original = estimators.cross_matrix
        monkeypatch.setattr(estimators, "cross_matrix",
                            lambda *args: calls.append(1) or original(*args))
        fits, preds = _fit_gamma_path(train, valid, kernel, SMALL_GRID, None)
        assert len(calls) == 1  # one validation cross matrix for the whole path
        order = valid.risk_index().order
        for level, gamma in enumerate(SMALL_GRID.values):
            direct = fits[gamma].predict_many(valid.covariates)[order]
            assert preds[:, level].tobytes() == direct.tobytes()

    def test_empty_basis_predicts_zeros(self):
        # one training point at the origin: its Sobolev section is the
        # constant times the shift, so the basis is empty
        train = SurvivalDataset([[0.0]], [0.5], [False])
        valid = SurvivalDataset([[0.2], [0.5], [0.9]], [0.3, 0.6, 0.9], [False, True, False])
        fits, preds = _fit_gamma_path(train, valid, Sobolev1Kernel(shift=2.0), SMALL_GRID, None)
        order = valid.risk_index().order
        for level, gamma in enumerate(SMALL_GRID.values):
            assert fits[gamma].beta.size == 0
            direct = fits[gamma].predict_many(valid.covariates)[order]
            assert preds[:, level].tobytes() == direct.tobytes() == np.zeros(3).tobytes()


@pytest.fixture(scope="module")
def fitted(cv_setup, sob1):
    train, valid, truth = cv_setup
    externals = [ExternalSpec(name="ext", fn=truth.external)]
    care, _ = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 10))
    return care


class TestPredictCare:
    def test_zero_theta_equals_kernel(self, fitted):
        clone = type(fitted)(
            kernel_estimator=fitted.kernel_estimator,
            externals=fitted.externals, theta=(0.0,), gamma=fitted.gamma)
        xs = np.array([[0.2], [0.8]])
        assert clone.predict_many(xs) == pytest.approx(
            fitted.kernel_estimator.predict_many(xs))

    def test_vertex_theta_equals_external(self, fitted):
        clone = type(fitted)(
            kernel_estimator=fitted.kernel_estimator,
            externals=fitted.externals, theta=(1.0,), gamma=fitted.gamma)
        xs = np.array([[0.3], [0.6]])
        assert clone.predict_many(xs) == pytest.approx(fitted.externals[0].predict_many(xs))

    def test_interior_theta_between_components(self, fitted):
        clone = type(fitted)(
            kernel_estimator=fitted.kernel_estimator,
            externals=fitted.externals, theta=(0.4,), gamma=fitted.gamma)
        xs = np.array([[0.25], [0.75]])
        parts = np.stack([fitted.kernel_estimator.predict_many(xs),
                          fitted.externals[0].predict_many(xs)])
        values = clone.predict_many(xs)
        assert np.all(parts.min(axis=0) - 1e-12 <= values)
        assert np.all(values <= parts.max(axis=0) + 1e-12)

    def test_one_coordinate_points_as_a_1d_array(self, fitted, cv_setup):
        # a 1-D array is n points of a one-coordinate model, bit for bit its column
        truth = cv_setup[2]
        xs = np.linspace(0.0, 1.0, 11)
        for evaluate in (fitted.kernel_estimator.predict_many, fitted.predict_many,
                         fitted.externals[0].predict_many, truth.f0, truth.external,
                         lambda x: true_f0(truth.config, x),
                         lambda x: external_predictor(truth.config, x)):
            flat, column = evaluate(xs), evaluate(xs[:, None])
            assert flat.shape == (11,)
            assert flat.tobytes() == column.tobytes()


@pytest.fixture(scope="module")
def scanned(cv_setup, sob1):
    train, valid, truth = cv_setup
    spec = ExternalSpec(name="ext", fn=truth.external)
    _, report = fit_care(train, valid, sob1, SMALL_GRID, [spec, spec], theta_grid(2, 5))
    return report


def csv_bytes_by_row_formula(report) -> bytes:
    """The report's CSV written one row per care entry, or per level without externals."""
    entries = list(report.care_entries)
    num_theta = len(entries[0].theta) if entries else 0
    by_gamma = {e.gamma: e for e in report.gamma_entries}
    sink = io.StringIO(newline="")
    writer = csv.writer(sink)
    writer.writerow(["gamma", *[f"theta_{m + 1}" for m in range(num_theta)],
                     "train_loss", "valid_loss", "converged"])
    for e in entries:
        g = by_gamma[e.gamma]
        writer.writerow([repr(e.gamma), *[repr(t) for t in e.theta],
                         repr(g.train_loss), repr(e.valid_loss), int(g.converged)])
    if not entries:
        for g in report.gamma_entries:
            writer.writerow([repr(g.gamma), repr(g.train_loss), repr(g.valid_loss),
                             int(g.converged)])
    return sink.getvalue().encode("utf-8")


class TestCvReport:
    def test_entries_view_matches_the_arrays(self, scanned):
        thetas = list(map(tuple, scanned.care_thetas.tolist()))
        expected = [CareEntry(gamma, theta, loss)
                    for gamma, losses in zip(scanned.care_gammas, scanned.care_losses.tolist())
                    for theta, loss in zip(thetas, losses)]
        view = scanned.care_entries
        assert scanned.care_losses.shape == (len(scanned.care_gammas), len(theta_grid(2, 5)))
        assert len(view) == len(expected) > 7
        assert view[0] == expected[0]
        assert view[-1] == expected[-1]
        assert view[::7] == expected[::7]
        assert list(view) == expected
        assert all(type(t) is float for e in view for t in e.theta)
        assert all(type(e.gamma) is float and type(e.valid_loss) is float for e in view[::7])
        with pytest.raises(IndexError):
            view[len(expected)]
        with pytest.raises(TypeError):
            view[0] = expected[0]

    def test_entries_view_skips_dropped_points(self):
        losses = np.arange(12.0).reshape(2, 6)
        losses[0, [0, 4]] = losses[1, 5] = np.inf
        report = CvReport(care_gammas=(0.1, 1.0), care_thetas=theta_grid(2, 2).points,
                          care_losses=losses)
        thetas = list(map(tuple, report.care_thetas.tolist()))
        expected = [CareEntry(gamma, thetas[p], losses[level, p])
                    for level, gamma in enumerate(report.care_gammas)
                    for p in range(6) if np.isfinite(losses[level, p])]
        view = report.care_entries
        assert len(view) == len(expected) == 9
        assert list(view) == expected == view[:]
        assert [view[i] for i in range(-9, 9)] == expected * 2
        assert view[::4] == expected[::4]
        with pytest.raises(IndexError):
            view[9]

    def test_csv_bytes_match_the_row_formula(self, cv_setup, sob1, scanned, tmp_path):
        path = tmp_path / "care.csv"
        scanned.to_csv(path)
        assert path.read_bytes() == csv_bytes_by_row_formula(scanned)
        train, valid, _ = cv_setup
        _, report, _ = fit_care_path(train, valid, sob1, SMALL_GRID)
        report.to_csv(path)
        assert path.read_bytes() == csv_bytes_by_row_formula(report)

    def test_csv_bytes_match_a_cell_by_cell_reference(self, tmp_path):
        # numpy floats in the entries, an unconverged level outside the scan,
        # thirds on the grid and dropped (+inf) points, the last of a level
        # among them: every float cell is repr(float(v)), and a dropped
        # point has no row
        rng = np.random.default_rng(4)
        gammas = (1e-5, 0.1, 2.5)
        entries = [GammaEntry(np.float64(g), np.float64(rng.normal()), float(rng.normal()), c)
                   for g, c in zip(gammas + (7.0,), (True, False, True, True))]
        levels = (gammas[0], gammas[2], 7.0)
        losses = rng.normal(size=(3, len(theta_grid(2, 3))))
        losses[0, 1] = losses[1, -1] = np.inf
        losses[2, 3:7] = np.inf
        report = CvReport(gamma_entries=entries, care_gammas=levels,
                          care_thetas=theta_grid(2, 3).points, care_losses=losses)
        path = tmp_path / "care.csv"
        report.to_csv(path)
        sink = io.StringIO(newline="")
        writer = csv.writer(sink)
        writer.writerow(["gamma", "theta_1", "theta_2", "train_loss", "valid_loss", "converged"])
        by_gamma = {e.gamma: e for e in entries}
        for level, gamma in enumerate(levels):
            entry = by_gamma[gamma]
            for p, theta in enumerate(report.care_thetas):
                if losses[level, p] == np.inf:
                    continue
                writer.writerow([repr(float(v)) for v in (gamma, *theta, entry.train_loss,
                                                          report.care_losses[level, p])]
                                + [int(entry.converged)])
        assert path.read_bytes() == sink.getvalue().encode("utf-8")
        assert len(report.care_entries) == losses.size - 6 == sink.getvalue().count("\n") - 1

    def test_d10_theta_scan_retains_little_memory(self):
        # 1,771 weight vectors per level: one object per (level, point)
        # would hold megabytes, the loss array 8 bytes per pair
        data, _ = simulate_dataset(DgpConfig("multivariate_d10"), 240, 8)
        train, valid = split_train_validation(data, 9)
        rng = np.random.default_rng(10)
        externals = [ExternalSpec(name=f"table_{m}", train_values=rng.normal(size=len(train)),
                                  valid_values=rng.normal(size=len(valid))) for m in range(3)]
        kernel = GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10)
        grid, thetas = GammaGrid.geometric(1e-5, 10.0, 10), theta_grid(3, 20)
        gc.collect()
        tracemalloc.start()
        try:
            result = fit_care(train, valid, kernel, grid, externals, thetas)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 0.5e6
        report = result[1]
        scored_levels = {e.gamma for e in report.care_entries}
        assert scored_levels == set(report.care_gammas) != set()
        assert len(report.care_entries) < len(report.care_gammas) * len(thetas)

    def test_csv_round_trip(self, cv_setup, sob1, tmp_path):
        train, valid, truth = cv_setup
        externals = [ExternalSpec(name="ext", fn=truth.external)]
        _, report = fit_care(train, valid, sob1, SMALL_GRID, externals, theta_grid(1, 5))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.care_entries)
        assert set(rows[0]) == {"gamma", "theta_1", "train_loss", "valid_loss", "converged"}
        first = report.care_entries[0]
        assert float(rows[0]["gamma"]) == first.gamma
        assert float(rows[0]["valid_loss"]) == first.valid_loss

    def test_summary_contains_selections(self, cv_setup, sob1):
        train, valid, _ = cv_setup
        _, report, _ = fit_care_path(train, valid, sob1, SMALL_GRID)
        summary = report.summary()
        assert summary["gamma_hat"] == report.gamma_hat
        assert summary["gamma_check"] == report.gamma_hat and summary["theta_check"] == []
        assert summary["num_gamma"] == len(SMALL_GRID)
        (selected,) = [e for e in report.gamma_entries if e.gamma == report.gamma_hat]
        assert summary["valid_loss_at_gamma_hat"] == selected.valid_loss


class TestGammaGridValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GammaGrid(())

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            GammaGrid((0.0, 1.0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            GammaGrid((1.0, 0.5))

    def test_geometric_counts(self):
        grid = GammaGrid.geometric(1e-5, 10.0, 50)
        assert len(grid) == 50
        assert grid.values[0] == pytest.approx(1e-5)
        assert grid.values[-1] == pytest.approx(10.0)
        ratios = np.diff(np.log(grid.values))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
