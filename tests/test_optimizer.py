import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfgs_oracle
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
        OptimOptions(max_iterations=0)


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


def convex_problem(dim, seed):
    """An SPD quadratic (eigenvalues in [0.03, 1]) plus a log-sum-exp term."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * 10.0 ** rng.uniform(-1.5, 0.0, dim)) @ q.T
    a = (a + a.T) / 2
    b = rng.standard_normal((int(rng.integers(1, 6)), dim))
    c = rng.standard_normal(dim)
    weight = rng.uniform(0.0, 1.0)

    def f(x):
        z = b @ x
        top = z.max()
        return float(0.5 * x @ a @ x - c @ x + weight * (top + np.log(np.exp(z - top).sum())))

    def g(x):
        z = b @ x
        p = np.exp(z - z.max())
        return a @ x - c + weight * (b.T @ (p / p.sum()))

    return f, g, rng.standard_normal(dim)


def assert_matches_dense_oracle(f, g, x0, opts):
    dense = bfgs_oracle.minimize_bfgs(f, g, x0, opts)
    result = minimize_bfgs(f, g, x0, opts)
    assert result.iterations == dense.iterations
    assert result.converged == dense.converged
    np.testing.assert_allclose(result.trace, dense.trace, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.minimizer, dense.minimizer, rtol=0.0, atol=1e-10)
    return result


class TestDenseUpdateEquivalence:
    """The two-loop recursion applies the dense rank-two update's matrix."""

    # A tolerance of 1e-6 ends every run on the gradient test; at 1e-8 these
    # objectives (|f| up to ~100) can stall at the Armijo test's rounding
    # floor, where either form may stop one iteration earlier.
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_update(self, dim, seed):
        f, g, x0 = convex_problem(dim, seed)
        result = assert_matches_dense_oracle(f, g, x0, OptimOptions(gradient_tolerance=1e-6))
        assert result.converged

    def test_curvature_skip(self):
        # Huber terms are linear beyond |x - b| > 1: the gradient stays fixed
        # there, so y = 0 and the pair is skipped until the quadratic zone.
        # The offset keeps f away from 0, where a relative trace gap is void.
        b = np.array([0.3, -0.2, 0.1])

        def f(x):
            r = np.abs(x - b)
            return 1.0 + float(np.where(r <= 1.0, 0.5 * r**2, r - 0.5).sum())

        def g(x):
            return np.clip(x - b, -1.0, 1.0)

        points = []

        def recording_g(x):
            points.append(np.array(x))
            return g(x)

        x0 = np.array([10.0, -8.0, 6.0])
        result = assert_matches_dense_oracle(f, recording_g, x0, OptimOptions())
        assert result.converged
        # steepest descent at the same scale twice: the first pair was not stored
        np.testing.assert_array_equal(points[2] - points[1], points[1] - points[0])

    def test_restart_clears_the_pairs(self):
        # x[0] > 0 is a wall of curvature 2**500, so the first step stores a
        # pair whose 1/s'y is 2**-500.  At x1 = (0, 3e-88) the direction's
        # slope g'Hg underflows to 0, which triggers the restart.
        wall, c1, c2, a = 2.0**500, 0.5, 0.25, -1e-88

        def f(x):
            v = 0.5 * c1 * (x[0] - a) ** 2 + 0.5 * c2 * x[1] ** 2
            return float(v + (0.5 * wall * x[0] ** 2 if x[0] > 0 else 0.0))

        def g(x):
            return np.array([c1 * (x[0] - a) + (wall * x[0] if x[0] > 0 else 0.0), c2 * x[1]])

        opts = OptimOptions(gradient_tolerance=1e-95)
        x0, x1 = np.array([1.0, 3e-88]), np.array([0.0, 3e-88])
        result = minimize_bfgs(f, g, x0, opts)
        # after the restart the state is that of a fresh start at x1
        fresh = minimize_bfgs(f, g, x1, opts)
        assert result.converged and fresh.converged
        assert result.trace[1:] == fresh.trace
        np.testing.assert_array_equal(result.minimizer, fresh.minimizer)
        assert result.iterations == fresh.iterations + 1
        # the dense update reaches the same restart, then forms (1/s'y)^2 for
        # the next pair, which overflows at s'y ~ 1e-177 and ends its run
        dense = bfgs_oracle.minimize_bfgs(f, g, x0, opts)
        assert dense.trace == result.trace[:3]
        assert not dense.converged


def test_no_dense_inverse_hessian():
    """A 1500-dimensional run allocates far less than one 1500 x 1500 array."""
    dim = 1500
    diag = np.linspace(1.0, 2.0, dim)
    target = np.cos(np.arange(dim))

    def f(x):
        r = x - target
        return float(0.5 * (diag * r * r).sum() + 0.05 * (r[1:] * r[:-1]).sum())

    def g(x):
        r = x - target
        out = diag * r
        out[1:] += 0.05 * r[:-1]
        out[:-1] += 0.05 * r[1:]
        return out

    tracemalloc.start()
    try:
        result = minimize_bfgs(f, g, np.zeros(dim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < dim * dim * 8
