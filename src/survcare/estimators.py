"""Fitted relative-risk estimators and centred external predictors.

A fit is one solve, ``_fit_penalised``, of the strongly convex penalised
likelihood l(D theta) + gamma theta' P theta over a (design, penalty) pair.
``fit_kernel_estimator`` takes D and P from the representer route, over a
basis subset of training points, which suits any kernel; a polynomial
kernel's basis already shrinks to its feature rank there.  The solver sees
only the pair, so any other route, such as the polynomial feature map the
tests compare against, runs through the same solve.  ``CenteredExternal``
holds an external predictor with its training mean subtracted, as the
convex aggregation of ``model_selection`` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalDataset
from .kernels import KernelConfig, cross_matrix, kernel_from_json, kernel_to_json
from .optimizer import OptimOptions, OptimResult, minimize_bfgs
from .partial_likelihood import (
    PenalisedProblem,
    RepresenterContext,
    neg_log_partial_likelihood,
    penalized_gradient,
    preconditioned_gradient,
    preconditioned_objective,
)


@dataclass
class KernelEstimator:
    """Relative-risk function sum_j (k(x, X_j) - kbar_j) beta_j over the basis.

    ``kbar_at_basis`` stores the training means kbar(X_j), so predictions at
    new points are automatically centred: the training-sample mean of the
    fitted function is zero.
    """

    kernel: KernelConfig
    basis_points: np.ndarray
    beta: np.ndarray
    kbar_at_basis: np.ndarray
    converged: bool = True
    gradient_norm: float = 0.0
    hilbert_norm_squared: float = 0.0
    fit_warning: str | None = None
    objective_trace: list[float] | None = None

    def predict_many(self, xs) -> np.ndarray:
        return self._centred_sections(xs) @ self.beta

    def _centred_sections(self, xs) -> np.ndarray:
        """The (len(xs), basis size) matrix of k(x, X_j) - kbar(X_j).

        It depends on the training sample and the basis only, so every fit of
        one regularisation path shares it.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if xs.shape[1] != self.basis_points.shape[1]:
            raise ValueError(
                f"expected dimension {self.basis_points.shape[1]}, got {xs.shape[1]}"
            )
        if self.beta.size == 0:  # empty basis: the centred span is {0}
            return np.zeros((xs.shape[0], 0))
        return cross_matrix(self.kernel, xs, self.basis_points) - self.kbar_at_basis[None, :]

    def predict(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.predict_many(x[None, :])[0])

    def to_json(self) -> dict:
        return {
            "kernel": kernel_to_json(self.kernel),
            "basis_points": self.basis_points.tolist(),
            "beta": self.beta.tolist(),
            "kbar_at_basis": self.kbar_at_basis.tolist(),
            "converged": bool(self.converged),
            "gradient_norm": float(self.gradient_norm),
            "hilbert_norm_squared": float(self.hilbert_norm_squared),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KernelEstimator":
        return cls(
            kernel=kernel_from_json(obj["kernel"]),
            basis_points=np.asarray(obj["basis_points"], dtype=float),
            beta=np.asarray(obj["beta"], dtype=float),
            kbar_at_basis=np.asarray(obj["kbar_at_basis"], dtype=float),
            converged=bool(obj.get("converged", True)),
            gradient_norm=float(obj.get("gradient_norm", 0.0)),
            hilbert_norm_squared=float(obj.get("hilbert_norm_squared", 0.0)),
        )


def _fit_penalised(problem: PenalisedProblem, gamma: float, warm,
                   options: OptimOptions | None) -> tuple[OptimResult, str | None]:
    """Minimise l(D theta) + gamma theta' P theta from ``warm`` (zero when None).

    Returns the result in theta coordinates, with the gradient norm and the
    convergence flag of the penalised gradient, and the fit's warning if any.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    train = problem.dataset
    m = problem.penalty.shape[0]
    init = np.zeros(m) if warm is None else np.asarray(warm, dtype=float)
    if init.shape != (m,):
        raise ValueError(f"warm start must have length {m}")
    fit_warning = None
    if not train.events.any():
        fit_warning = "all records censored: likelihood is constant, fitted function is zero"
    if m == 0:  # empty basis: the centred span is {0}
        loss = neg_log_partial_likelihood(np.zeros(len(train)), train)
        return OptimResult(np.zeros(0), loss, 0.0, 0, True, [loss]), fit_warning
    opts = options or OptimOptions()
    # optimise in the preconditioned coordinates; the inner tolerance is
    # tightened by the transform norm so the theta-space gradient meets the
    # requested tolerance
    scale = problem.scale(gamma)
    transform_norm = float(np.abs(problem.from_beta * scale[:, None]).sum(axis=0).max())
    inner = replace(opts, gradient_tolerance=max(
        opts.gradient_tolerance / max(transform_norm, 1.0), 1e-13))
    result = minimize_bfgs(
        lambda w: preconditioned_objective(w, problem, gamma),
        lambda w: preconditioned_gradient(w, problem, gamma),
        (problem.from_beta @ init) * scale,
        inner,
    )
    theta = problem.to_beta @ (result.minimizer / scale)
    grad_norm = float(np.abs(penalized_gradient(theta, problem, gamma)).max())
    converged = grad_norm <= opts.gradient_tolerance
    if not converged:
        fit_warning = (fit_warning + "; " if fit_warning else "") + (
            f"optimizer did not converge (gradient norm {grad_norm:.3e})"
        )
    return replace(result, minimizer=theta, gradient_norm=grad_norm,
                   converged=converged), fit_warning


def fit_kernel_estimator(train: SurvivalDataset, kernel: KernelConfig, gamma: float,
                         options: OptimOptions | None = None, warm=None,
                         ctx: RepresenterContext | None = None) -> KernelEstimator:
    """Fit the penalised kernel estimator at one regularisation level.

    ``warm`` optionally seeds the optimiser with coefficients from a previous
    fit on the same training data.  A prebuilt RepresenterContext can be
    passed to share basis and Gram computations across a gamma path.
    """
    if ctx is None:
        ctx = RepresenterContext.build(train, kernel)
    result, fit_warning = _fit_penalised(ctx, gamma, warm, options)
    beta = result.minimizer
    return KernelEstimator(
        kernel=kernel,
        basis_points=train.covariates[ctx.basis],
        beta=beta,
        kbar_at_basis=ctx.kbar[ctx.basis],
        converged=result.converged,
        gradient_norm=result.gradient_norm,
        hilbert_norm_squared=float(beta @ ctx.penalty @ beta),
        fit_warning=fit_warning,
        objective_trace=result.trace,
    )


@dataclass
class CenteredExternal:
    """External predictor minus its training-sample mean.

    ``raw`` is an opaque vectorised function mapping an (n, d) covariate array
    to n predictions; table-backed externals pass None and are evaluated
    through their cached value vectors instead.
    """

    training_mean: float
    raw: object | None = None
    name: str = ""

    def predict_many(self, xs) -> np.ndarray:
        if self.raw is None:
            raise ValueError(
                f"external {self.name!r} is table-backed and cannot be evaluated at new points"
            )
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        values = np.asarray(self.raw(xs), dtype=float)
        return values - self.training_mean

    def predict(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.predict_many(x[None, :])[0])
