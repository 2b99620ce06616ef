"""Feature-map oracle: the primal route of the polynomial-kernel fit.

A polynomial kernel (x'y + a)^p has a finite feature map phi with
phi(x)'phi(y) = k(x, y).  Fitting in feature space is a second (design,
penalty) pair for the library's penalised solver: the design is the centred
non-constant features and the penalty their Hilbert form.  Its dimension does
not grow with the training size, and its fitted function must equal the
representer route's, which acceptance criterion 4 checks.  Both routes run
through ``estimators._fit_penalised``, so the comparison tests the two
(design, penalty) constructions, not two solvers.
"""

import math
from dataclasses import dataclass

import numpy as np

from survcare.estimators import _fit_penalised
from survcare.kernels import PolynomialKernel, _as_points
from survcare.partial_likelihood import PenalisedProblem


def _exponent_tuples(dim: int, total: int):
    if dim == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(dim - 1, total - first):
            yield (first,) + rest


def _poly_feature_index(config: PolynomialKernel, dim: int):
    """Multi-indices (graded lexicographic, constant excluded) and their weights."""
    if config.shift == 0.0:
        raise ValueError("feature map requires a positive shift")
    p, a = config.degree, config.shift
    exponents, weights = [], []
    for total in range(1, p + 1):
        for exps in _exponent_tuples(dim, total):
            coeff = math.factorial(p) / math.factorial(p - total)
            for e in exps:
                coeff /= math.factorial(e)
            exponents.append(exps)
            weights.append(math.sqrt(coeff * a ** (p - total)))
    return exponents, np.asarray(weights)


def feature_matrix(config: PolynomialKernel, points) -> np.ndarray:
    """Finite-dimensional feature map rows phi(x) with phi(x)'phi(y) = k(x, y).

    Coordinates are weighted monomials in graded lexicographic order; the last
    coordinate is the constant feature c = a^{p/2}.
    """
    if not isinstance(config, PolynomialKernel):
        raise TypeError("feature maps are available for polynomial kernels only")
    pts = _as_points(points)
    exponents, weights = _poly_feature_index(config, pts.shape[1])
    cols = np.empty((pts.shape[0], len(exponents) + 1))
    for j, exps in enumerate(exponents):
        col = np.ones(pts.shape[0])
        for d, e in enumerate(exps):
            if e:
                col = col * pts[:, d] ** e
        cols[:, j] = weights[j] * col
    cols[:, -1] = config.shift ** (config.degree / 2.0)
    return cols


def feature_map(config: PolynomialKernel, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return feature_matrix(config, x[None, :])[0]


@dataclass
class FeatureMapEstimator:
    """Primal-space estimator f(x) = alpha' (phi(x)_{1..q} - feature_means)."""

    kernel: PolynomialKernel
    alpha: np.ndarray
    feature_means: np.ndarray
    converged: bool
    hilbert_norm_squared: float
    fit_warning: str | None

    def predict_many(self, xs) -> np.ndarray:
        phi = feature_matrix(self.kernel, xs)[:, :-1]
        return (phi - self.feature_means[None, :]) @ self.alpha


def fit_feature_map_estimator(train, kernel: PolynomialKernel, gamma: float,
                              options=None, warm=None) -> FeatureMapEstimator:
    """Fit the same penalised objective in the polynomial feature space.

    The design is the centred non-constant features and the penalty is
    I + u u' with u = P_n(phi) / c, so the objective is l(f_alpha) +
    gamma (sum_j alpha_j^2 + (c^{-1} sum_j alpha_j P_n(phi_j))^2), where
    P_n(phi_j) are training means of the non-constant features and c is the
    constant feature value.
    """
    phi = feature_matrix(kernel, train.covariates)
    c = float(phi[0, -1])
    means = phi[:, :-1].mean(axis=0)
    u = means / c
    penalty = np.eye(u.shape[0]) + np.outer(u, u)
    problem = PenalisedProblem.precondition(
        train, phi[:, :-1] - means[None, :], penalty, np.linalg.cholesky(penalty).T)
    result, fit_warning = _fit_penalised(problem, gamma, warm, options)
    alpha = result.minimizer
    return FeatureMapEstimator(
        kernel=kernel,
        alpha=alpha,
        feature_means=means,
        converged=result.converged,
        hilbert_norm_squared=float(alpha @ problem.penalty @ alpha),
        fit_warning=fit_warning,
    )
