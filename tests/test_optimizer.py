import numpy as np
import pytest

from survcare import OptimOptions, minimize_bfgs


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        return float(((x - center) ** 2).sum())

    def g(x):
        return 2.0 * (x - center)

    return f, g


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def rosenbrock_grad(x):
    return np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])


def test_quadratic_reaches_center():
    f, g = quadratic([1.0, -2.0])
    result = minimize_bfgs(f, g, np.zeros(2))
    assert result.converged
    np.testing.assert_allclose(result.minimizer, [1.0, -2.0], atol=1e-8)


def test_rosenbrock():
    result = minimize_bfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))
    assert result.converged
    np.testing.assert_allclose(result.minimizer, [1.0, 1.0], atol=1e-5)
    assert result.iterations < 500


def test_trace_monotone_nonincreasing():
    result = minimize_bfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))
    trace = np.asarray(result.trace)
    assert np.all(np.diff(trace) <= 0)
    assert result.objective_value == trace[-1]


def test_accepted_directions_are_descent():
    slopes = []
    points = []

    def g(x):
        grad = rosenbrock_grad(x)
        points.append(np.array(x))
        return grad

    result = minimize_bfgs(rosenbrock, g, np.array([-1.2, 1.0]))
    # gradient is evaluated exactly at the accepted iterates; consecutive
    # objective values strictly decrease, which certifies descent steps
    values = [rosenbrock(p) for p in points]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.converged


def test_bitwise_determinism():
    r1 = minimize_bfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))
    r2 = minimize_bfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))
    assert np.array_equal(r1.minimizer, r2.minimizer)
    assert r1.trace == r2.trace
    assert r1.iterations == r2.iterations


def test_converged_implies_tolerance():
    f, g = quadratic([3.0])
    opts = OptimOptions(gradient_tolerance=1e-10)
    result = minimize_bfgs(f, g, np.array([10.0]), opts)
    assert result.converged
    assert result.gradient_norm <= 1e-10


def test_iteration_cap_reports_not_converged():
    f, g = quadratic(np.arange(5.0))
    opts = OptimOptions(max_iterations=1, gradient_tolerance=1e-14)
    result = minimize_bfgs(f, g, np.zeros(5), opts)
    assert not result.converged
    assert result.iterations == 1


def test_line_search_failure_returns_best():
    # gradient deliberately points uphill so no Armijo step can be accepted
    def f(x):
        return float(abs(x[0]))

    def g(x):
        return np.array([-1.0 if x[0] > 0 else 1.0])

    result = minimize_bfgs(f, g, np.array([2.0]))
    assert not result.converged
    assert result.objective_value <= 2.0


def test_non_finite_start_rejected():
    f, g = quadratic([0.0])
    with pytest.raises(ValueError):
        minimize_bfgs(f, g, np.array([np.nan]))

    def bad_objective(x):
        return float("inf")

    with pytest.raises(ValueError):
        minimize_bfgs(bad_objective, g, np.array([1.0]))


def test_option_validation():
    with pytest.raises(ValueError):
        OptimOptions(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimOptions(armijo_slope=1.0)
    with pytest.raises(ValueError):
        OptimOptions(backtrack_factor=0.0)
    with pytest.raises(ValueError):
        OptimOptions(max_iterations=0)
    with pytest.raises(ValueError):
        OptimOptions(initial_step=-1.0)


def test_immediate_convergence_at_optimum():
    f, g = quadratic([0.0, 0.0])
    result = minimize_bfgs(f, g, np.zeros(2))
    assert result.converged
    assert result.iterations == 0
    assert result.trace == [0.0]


def test_non_finite_gradient_stops_unconverged():
    # the gradient breaks down past x = 0.5; the first step lands at x = 2/3
    def f(x):
        return float((x[0] - 1.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 1.0) if x[0] < 0.5 else np.nan])

    result = minimize_bfgs(f, g, np.array([0.0]))
    assert not result.converged
    np.testing.assert_array_equal(result.minimizer, [0.0])
    assert result.iterations == 0
    assert np.isfinite(result.gradient_norm)

    at_start = minimize_bfgs(f, g, np.array([0.75]))
    assert not at_start.converged
    assert at_start.iterations == 0
