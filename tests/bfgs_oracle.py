"""Dense-update BFGS oracle for ``survcare.optimizer.minimize_bfgs``.

The library applies the inverse-Hessian approximation by the two-loop
recursion over the stored (s, y) pairs.  The reference here is the original
optimizer, which keeps that approximation as a dense m x m matrix and updates
it in place by the rank-two formula after every accepted step.  Both give the
same matrix in exact arithmetic, so tests compare iteration counts, traces and
minimisers.  It costs O(m^2) memory and time per iteration.
"""

from __future__ import annotations

import numpy as np

from survcare.optimizer import (
    ARMIJO_SLOPE,
    BACKTRACK_FACTOR,
    INITIAL_STEP,
    MAX_BACKTRACKS,
    OptimOptions,
    OptimResult,
)


def minimize_bfgs(objective, gradient, init, options: OptimOptions | None = None) -> OptimResult:
    """Minimise a smooth function with BFGS and Armijo backtracking.

    The inverse-Hessian approximation starts at the identity scaled by
    1 / (1 + ||g0||) and is updated by the standard rank-two formula; updates
    are skipped when the curvature s'y is not safely positive.  Convergence is
    declared when the infinity norm of the gradient drops below the tolerance.
    On a failed line search (no Armijo decrease within 60 halvings) or a
    non-finite gradient the best iterate with a finite gradient is returned
    with ``converged=False``.
    """
    opts = options or OptimOptions()
    x = np.array(init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point must be finite")
    fx = float(objective(x))
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at the initial point")
    g = np.asarray(gradient(x), dtype=float)
    dim = x.shape[0]
    h = np.eye(dim) / (1.0 + float(np.linalg.norm(g)))
    trace = [fx]
    iterations = 0
    finite = bool(np.all(np.isfinite(g)))
    converged = finite and float(np.abs(g).max()) <= opts.gradient_tolerance

    buf1 = np.empty((dim, dim))
    buf2 = np.empty((dim, dim))
    while finite and not converged and iterations < opts.max_iterations:
        direction = -(h @ g)
        slope = float(g @ direction)
        if slope >= 0.0:
            # numerical loss of positive definiteness; restart from steepest descent
            h = np.eye(dim) / (1.0 + float(np.linalg.norm(g)))
            direction = -(h @ g)
            slope = float(g @ direction)
        if slope >= -1e-16 * abs(fx):
            break  # descent below the objective's rounding noise
        step = INITIAL_STEP
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * direction
            f_new = float(objective(x_new))
            if np.isfinite(f_new) and f_new <= fx + ARMIJO_SLOPE * step * slope:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            break
        g_new = np.asarray(gradient(x_new), dtype=float)
        if not np.all(np.isfinite(g_new)):
            break  # no usable search direction from x_new; keep the last iterate
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            # (I - rho s y') H (I - rho y s') + rho s s', expanded in-place
            rho = 1.0 / sy
            hy = h @ y
            np.multiply(s[:, None], hy[None, :], out=buf1)
            np.add(buf1, buf1.T, out=buf2)
            buf2 *= rho
            h -= buf2
            np.multiply(s[:, None], s[None, :], out=buf1)
            buf1 *= rho * rho * float(y @ hy) + rho
            h += buf1
        x, g, fx = x_new, g_new, f_new
        trace.append(fx)
        iterations += 1
        converged = float(np.abs(g).max()) <= opts.gradient_tolerance

    return OptimResult(
        minimizer=x,
        objective_value=fx,
        gradient_norm=float(np.abs(g).max()),
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
