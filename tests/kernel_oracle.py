"""Kernel oracles: pointwise evaluation and the kappa limit functional.

``eval_kernel`` evaluates one pair of points through the library's
vectorised ``cross_matrix``, which the pointwise kernel tests check against
closed forms.  ``kappa_matrix`` is the limit of 1 / (1' (A + dI)^{-1} 1) as
d -> 0; over Gram matrices of growing point sets its infimum approaches the
inverse squared Hilbert norm of the constant, the independent check of the
library's closed-form ``constant_norm_squared``.
"""

import math

import numpy as np

from survcare.kernels import cross_matrix

# Relative singular-value cutoff for pseudo-inverses of Gram matrices; values
# below this fraction of the largest eigenvalue are treated as exact zeros.
PINV_CUTOFF = 1e-10


def eval_kernel(config, x, y) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between x and y")
    return float(cross_matrix(config, x[None, :], y[None, :])[0, 0])


def kappa_matrix(A) -> float:
    """Limit of 1 / (1' (A + dI)^{-1} 1) as d -> 0, for symmetric PSD A.

    Returns 0 when the all-ones vector has a component in the null space of A
    (the limit diverges), and 1 / (1' A^+ 1) otherwise, using an eigenvalue
    cutoff of PINV_CUTOFF relative to the largest eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
    lam_max = float(evals.max())
    cutoff = PINV_CUTOFF * max(lam_max, 0.0)
    overlaps = evecs.T @ np.ones(n)
    null = evals <= cutoff
    null_proj_sq = float((overlaps[null] ** 2).sum())
    if math.sqrt(null_proj_sq) > 1e-8 * math.sqrt(n):
        return 0.0
    denom = float((overlaps[~null] ** 2 / evals[~null]).sum())
    return 1.0 / denom
