"""BFGS minimisation with Armijo backtracking for smooth convex objectives.

The inverse-Hessian approximation is never formed.  It is applied to the
gradient by the two-loop recursion over the (s, y) pairs accepted since the
last restart, so an iteration costs O(m k) time and memory for k stored pairs
in m dimensions, where a dense update costs O(m^2).

The objective is called at every trial point of a line search, and the
gradient only at the start and at each accepted point, right after the
objective was called there.  So an objective that remembers its last point
can hand the gradient the work the two share.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Armijo backtracking: each search starts at the full step, halves it up to
# MAX_BACKTRACKS times, and accepts the first step with a decrease of at
# least ARMIJO_SLOPE times the step's first-order prediction.
MAX_BACKTRACKS = 60
BACKTRACK_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
INITIAL_STEP = 1.0


@dataclass(frozen=True)
class OptimOptions:
    gradient_tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        # NaN, infinity and an int beyond the double range fail the bound
        if not 0 < self.gradient_tolerance <= sys.float_info.max:
            raise ValueError("gradient_tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class OptimResult:
    minimizer: np.ndarray
    objective_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    trace: list[float] = field(default_factory=list)


def _norm(v) -> float:
    """The Euclidean norm of a vector: numpy's norm, sqrt(v . v), without its call overhead."""
    return math.sqrt(float(v @ v))


def _inverse_hessian_times(g, h0, pairs):
    """The BFGS inverse-Hessian approximation times ``g``.

    The approximation is h0 I updated by every (s, y, 1/s'y) in ``pairs``, in
    order; the two-loop recursion (Nocedal and Wright, Numerical Optimization,
    2nd ed., Algorithm 7.4) applies it without forming it.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    q *= h0
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def minimize_bfgs(objective, gradient, init, options: OptimOptions | None = None,
                  stop=None) -> OptimResult:
    """Minimise a smooth function with BFGS and Armijo backtracking.

    The inverse-Hessian approximation starts at the identity scaled by
    1 / (1 + ||g0||) and takes the standard rank-two update for every accepted
    step whose curvature s'y is safely positive; a step that fails that test
    stores no pair.  The approximation is applied by the two-loop recursion
    over the stored pairs (full memory, no history limit), which gives the
    dense update's matrix in exact arithmetic at O(m k) time and memory for k
    pairs.  A non-descent direction from rounding clears the pairs and
    restarts from the scaled identity at the current gradient.  Convergence
    is declared when the infinity norm of the gradient drops below the
    tolerance.  On a failed line search (no Armijo decrease within 60
    halvings) or a non-finite gradient the best iterate with a finite
    gradient is returned with ``converged=False``.

    ``stop``, when given, is a predicate on an iterate for the rounding
    floor: after an accepted step whose objective is not below the last one
    (the Armijo test accepted it only because the decrease it asks for is
    below the objective's rounding), the run stops as converged if
    ``stop(x)`` holds at the new iterate.  It is called only on such steps
    and changes no iterate, so a predicate that never holds gives the run
    without one, bit for bit.
    """
    opts = options or OptimOptions()
    x = np.array(init, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("initial point must be finite")
    fx = float(objective(x))
    if not math.isfinite(fx):
        raise ValueError("objective is not finite at the initial point")
    g = np.asarray(gradient(x), dtype=float)
    g_max = float(np.abs(g).max())  # NaN or inf when g is not finite
    h0 = 1.0 / (1.0 + _norm(g))
    pairs = []  # (s, y, 1 / s'y) accepted since the last restart
    trace = [fx]
    iterations = 0
    finite = math.isfinite(g_max)
    converged = finite and g_max <= opts.gradient_tolerance

    while finite and not converged and iterations < opts.max_iterations:
        direction = -_inverse_hessian_times(g, h0, pairs)
        slope = float(g @ direction)
        if slope >= 0.0:
            # numerical loss of positive definiteness; restart from steepest descent
            pairs = []
            h0 = 1.0 / (1.0 + _norm(g))
            direction = -h0 * g
            slope = float(g @ direction)
        if slope >= -1e-16 * abs(fx):
            break  # descent below the objective's rounding noise
        step = INITIAL_STEP
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * direction
            f_new = float(objective(x_new))
            if math.isfinite(f_new) and f_new <= fx + ARMIJO_SLOPE * step * slope:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            break
        g_new = np.asarray(gradient(x_new), dtype=float)
        g_new_max = float(np.abs(g_new).max())
        if not math.isfinite(g_new_max):
            break  # no usable search direction from x_new; keep the last iterate
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * _norm(s) * _norm(y):
            pairs.append((s, y, 1.0 / sy))
        floor = not f_new < fx
        x, g, fx, g_max = x_new, g_new, f_new, g_new_max
        trace.append(fx)
        iterations += 1
        converged = g_max <= opts.gradient_tolerance or (
            floor and stop is not None and bool(stop(x)))

    return OptimResult(
        minimizer=x,
        objective_value=fx,
        gradient_norm=g_max,
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
