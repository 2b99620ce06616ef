"""Fitted relative-risk estimators.

A fit is one solve, ``_fit_penalised``, of the strongly convex penalised
likelihood l(D theta) + gamma ||R theta||^2 over a design D and an exact
factor R of its penalty.  ``fit_kernel_estimator`` takes D and R from the
representer route, over a basis subset of training points, which suits any
kernel; a polynomial kernel's basis already shrinks to its feature rank
there.  The solver sees only the pair, so any other route, such as the
polynomial feature map the tests compare against, runs through the same
solve.  An estimator predicts through ``predict_many`` alone, at points as
``data.as_points`` takes them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalDataset, as_points
from .kernels import KernelConfig, cross_matrix, kernel_from_json, kernel_to_json
from .optimizer import OptimOptions, OptimResult, minimize_bfgs
from .partial_likelihood import (
    LevelEvaluation,
    PenalisedPoint,
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
    fitted function is zero.  ``train_loss`` is the unpenalised likelihood of
    the training data at the fit; like ``fit_warning`` and
    ``objective_trace`` it is not saved, and an estimator read back has None.
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
    train_loss: float | None = None

    def predict_many(self, xs) -> np.ndarray:
        return self._centred_sections(xs) @ self.beta

    def _centred_sections(self, xs) -> np.ndarray:
        """The (len(xs), basis size) matrix of k(x, X_j) - kbar(X_j).

        It depends on the training sample and the basis only, so every fit of
        one regularisation path shares it.
        """
        xs = as_points(xs, self.basis_points.shape[1])
        if self.beta.size == 0:  # empty basis: the centred span is {0}
            return np.zeros((xs.shape[0], 0))
        return cross_matrix(self.kernel, xs, self.basis_points) - self.kbar_at_basis[None, :]

    def to_json(self) -> dict:
        return {
            "kernel": kernel_to_json(self.kernel),
            "basis_points": self.basis_points.tolist(),
            "dimension": int(self.basis_points.shape[1]),
            "beta": self.beta.tolist(),
            "kbar_at_basis": self.kbar_at_basis.tolist(),
            "converged": bool(self.converged),
            "gradient_norm": float(self.gradient_norm),
            "hilbert_norm_squared": float(self.hilbert_norm_squared),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KernelEstimator":
        """The estimator ``to_json`` wrote.

        ``dimension`` shapes an empty basis as (0, d); an object without it
        still loads when its basis is non-empty.
        """
        beta = np.asarray(obj["beta"], dtype=float)
        basis_points = np.asarray(obj["basis_points"], dtype=float)
        if "dimension" in obj:
            basis_points = basis_points.reshape(beta.shape[0], int(obj["dimension"]))
        return cls(
            kernel=kernel_from_json(obj["kernel"]),
            basis_points=basis_points,
            beta=beta,
            kbar_at_basis=np.asarray(obj["kbar_at_basis"], dtype=float),
            converged=bool(obj.get("converged", True)),
            gradient_norm=float(obj.get("gradient_norm", 0.0)),
            hilbert_norm_squared=float(obj.get("hilbert_norm_squared", 0.0)),
        )


def _transform_norm(from_beta: np.ndarray, scale: np.ndarray) -> float:
    """max_j sum_i |from_beta_ij| scale_i: it bounds the theta-space gradient by the inner one.

    Summed over blocks of 64 rows, so no m x m temporary is formed.
    """
    sums = np.zeros(from_beta.shape[1])
    for start in range(0, from_beta.shape[0], 64):
        rows = slice(start, start + 64)
        sums += scale[rows] @ np.abs(from_beta[rows])
    return float(sums.max())


def _fit_penalised(problem: PenalisedProblem, gamma: float, warm,
                   options: OptimOptions | None) -> tuple[OptimResult, str | None, PenalisedPoint]:
    """Minimise l(D theta) + gamma ||R theta||^2 from ``warm`` (zero when None).

    Returns the result in theta coordinates, with the gradient norm and the
    convergence flag of the penalised gradient, the fit's warning if any, and
    the solution's ``PenalisedPoint``.  BFGS runs on one ``LevelEvaluation``,
    so each point it scores costs one likelihood pass, which the gradient at
    an accepted point reuses.  The final theta-space check reads the point at
    from_beta @ theta, whose pass also gives the training loss and whose w
    the squared norm.  BFGS asks the same check as its stop predicate at the
    rounding floor, where its inner tolerance may be out of reach: after an
    accepted step with no representable decrease, the level stops as
    converged if the check passes there.  The check remembers the last point
    it read, so the final check of a level the rule stopped reuses it and
    the two cannot disagree.
    """
    if not 0 < gamma <= sys.float_info.max:  # NaN, inf and ints beyond a double fail
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    train = problem.dataset
    m = problem.prec_design.shape[1]
    init = np.zeros(m) if warm is None else np.asarray(warm, dtype=float)
    if init.shape != (m,):
        raise ValueError(f"warm start must have length {m}")
    fit_warning = None
    if not train.events.any():
        fit_warning = "all records censored: likelihood is constant, fitted function is zero"
    if m == 0:  # empty basis: the centred span is {0}
        loss = neg_log_partial_likelihood(np.zeros(len(train)), train)
        return (OptimResult(np.zeros(0), loss, 0.0, 0, True, [loss]), fit_warning,
                PenalisedPoint(problem, init))
    opts = options or OptimOptions()
    # optimise in the preconditioned coordinates; the inner tolerance is
    # tightened by the transform norm so the theta-space gradient meets the
    # requested tolerance
    level = LevelEvaluation(problem, gamma)
    transform_norm = _transform_norm(problem.from_beta, level.scale)
    inner = replace(opts, gradient_tolerance=max(
        opts.gradient_tolerance / max(transform_norm, 1.0), 1e-13))
    checked = None  # (v's bytes, theta, its point, its theta-space gradient norm)

    def theta_check(v):
        nonlocal checked
        if checked is None or checked[0] != v.tobytes():
            theta = problem.to_theta(v / level.scale)
            point = PenalisedPoint(problem, problem.from_beta @ theta)
            norm = float(np.abs(penalized_gradient(theta, problem, gamma, point)).max())
            checked = (v.tobytes(), theta, point, norm)
        return checked

    # at the rounding floor BFGS stops once the final check would pass there
    result = minimize_bfgs(
        lambda v: preconditioned_objective(v, level),
        lambda v: preconditioned_gradient(v, level),
        (problem.from_beta @ init) * level.scale,
        inner,
        stop=lambda v: theta_check(v)[3] <= opts.gradient_tolerance,
    )
    _, theta, final, grad_norm = theta_check(result.minimizer)
    converged = grad_norm <= opts.gradient_tolerance
    if not converged:
        fit_warning = (fit_warning + "; " if fit_warning else "") + (
            f"optimizer did not converge (gradient norm {grad_norm:.3e})"
        )
    return replace(result, minimizer=theta, gradient_norm=grad_norm,
                   converged=converged), fit_warning, final


def fit_kernel_estimator(train: SurvivalDataset, kernel: KernelConfig, gamma: float,
                         options: OptimOptions | None = None, warm=None,
                         ctx: RepresenterContext | None = None) -> KernelEstimator:
    """Fit the penalised kernel estimator at one regularisation level.

    ``warm`` optionally seeds the optimiser with coefficients from a previous
    fit on the same training data.  A prebuilt RepresenterContext can be
    passed to share basis and Gram computations across a gamma path; it must
    have been built from ``train`` itself and from an equal kernel.
    """
    if ctx is None:
        ctx = RepresenterContext.build(train, kernel)
    elif ctx.dataset is not train:
        raise ValueError("the representer context was built from another dataset")
    elif ctx.kernel != kernel:
        raise ValueError(f"the representer context was built with kernel {ctx.kernel!r}, "
                         f"not {kernel!r}")
    result, fit_warning, final = _fit_penalised(ctx, gamma, warm, options)
    return KernelEstimator(
        kernel=kernel,
        basis_points=train.covariates[ctx.basis],
        beta=result.minimizer,
        kbar_at_basis=ctx.kbar[ctx.basis],
        converged=result.converged,
        gradient_norm=result.gradient_norm,
        hilbert_norm_squared=final.norm_squared(),
        fit_warning=fit_warning,
        objective_trace=result.trace,
        train_loss=final.likelihood.loss(),
    )

