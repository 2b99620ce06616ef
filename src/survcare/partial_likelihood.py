"""Negative log-partial likelihood, the penalised problem, and representer basis.

The likelihood is

    l(f) = (1/n) sum_{events i} log S(f, T_i) - (1/n) sum_{events i} f(X_i)

with S(f, t) = (1/n) sum_j 1{T_j >= t} exp(f(X_j)).  Risk sets use >=, so a
subject's own term is always included and S(f, T_i) > 0.  Evaluation shifts by
the running maximum of f before exponentiating (log-sum-exp), so values of f
around +-30 during line searches are handled exactly.  When f spreads beyond
the exponent range, a shifted suffix sum can fall below the smallest normal
double and lose precision, or underflow to 0; those risk sums are accumulated
in log space instead.  The gradient weights switch to log space when a
reciprocal risk sum overflows.  Both stay accurate and finite however far f
spreads.  The core works on values already gathered into the sorted order of
the dataset's risk index, one vector or one per column of an (n, P) matrix;
``neg_log_partial_likelihood`` gathers and calls it, and a caller that scores
many combinations of the same vectors gathers those vectors once instead.

Every fit minimises l(D theta) + gamma ||R theta||^2 for a design D, whose
columns are basis functions evaluated at the training points, and an
upper-triangular factor R of their Gram form in the Hilbert space
(``PenalisedProblem``).  The penalty is R'R by definition; no m x m penalty
matrix is stored.  Over representer coefficients beta indexed by the basis A
(``RepresenterContext``) this is

    l(f_beta) + gamma * sum_{i,j in A} khat(X_i, X_j) beta_i beta_j

with f_beta(x) = sum_{j in A} ktilde(x, X_j) beta_j, where
ktilde(x, y) = k(x, y) - kbar(y), kbar(y) = (1/n) sum_i k(X_i, y), and
khat(x, y) = k(x, y) - kbar(x) - kbar(y) + kbar(x) kbar(y) * cns with cns the
squared Hilbert norm of the constant.  By construction every f_beta has zero
empirical mean, so the quadratic form is exactly the squared Hilbert norm of
f_beta and the objective is strongly convex.

The basis A holds the training points whose bordered columns (the Gram
matrix of the constant and the kernel sections) are linearly independent of
the columns before them: a column-skipping Cholesky factorisation accepts the
constant, then each point whose Schur-complement diagonal, the squared
Hilbert distance of k(., X_j) from the span of the constant and the sections
accepted before it, exceeds ``SCHUR_DIAGONAL_REL_TOL`` times the largest
bordered entry.  Centring that factor gives R for khat without forming khat,
whose formula loses digits to cancellation when khat is far smaller than the
Gram entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RiskSetIndex, SurvivalDataset
from .kernels import GramMatrix, KernelConfig, constant_norm_squared, gram_matrix

# A training point joins the representer basis when the Schur-complement
# diagonal of its bordered column, given the columns accepted before it,
# exceeds this fraction of the largest entry of the bordered matrix.
SCHUR_DIAGONAL_REL_TOL = 1e-10
# Columns per block of the basis factorisation: one matrix product per block.
_BASIS_BLOCK = 64
# Rows of a stacked likelihood scored per pass of sort, exp, suffix sum and log.
# Not a power of two: the core runs down columns of an (n, _ROW_BLOCK) block,
# and at 128 (or 64, 192, 256) its rows sit a power-of-two number of bytes
# apart, a stride at which the cumulative sum runs about 3x slower.
_ROW_BLOCK = 120
# Smallest normal double: a shifted suffix sum below it carries fewer bits.
_TINY = np.finfo(float).tiny


def _sorted_log_risk_sums(fs: np.ndarray, idx: RiskSetIndex):
    """Per event, in sorted order: log sum_{q >= group_start(p)} exp(fs_q).

    ``fs`` holds f values already in the risk index ``idx``'s sorted order,
    one vector of n values or an (n, P) matrix holding one such vector per
    column; the work runs down the first axis.  Returns (log_risk,
    shifted_exp) where log_risk has one row per event at sorted position p
    and shifted_exp = exp(fs - column max).
    """
    m = fs.max(axis=0)
    shifted = np.exp(fs - m)
    suffix = np.cumsum(shifted[::-1], axis=0)[::-1]
    starts = idx.group_start[idx.event_sorted]
    sums = suffix[starts]
    with np.errstate(divide="ignore"):
        log_risk = m + np.log(sums)
    normal = sums >= _TINY
    if not np.all(normal):
        # a shifted suffix sum below the normal range has lost precision or
        # underflowed to 0; sum those suffixes in log space instead
        log_suffix = np.logaddexp.accumulate(fs[::-1], axis=0)[::-1]
        log_risk = np.where(normal, log_risk, log_suffix[starts])
    return log_risk, shifted


def _column_sums(values: np.ndarray):
    # each column summed as one contiguous row, so with numpy's pairwise
    # summation a column's sum is bit-identical to the sum of it alone
    return np.ascontiguousarray(values.T).sum(axis=-1)


def _sorted_neg_log_partial_likelihood(fs: np.ndarray, idx: RiskSetIndex):
    """The likelihood core: the loss of one vector, or of each column of an (n, P) matrix.

    ``fs`` is already in the sorted order of the risk index ``idx``
    (``fvalues[idx.order]``), so a caller that scores many vectors gathers
    their shared parts once.  Each column's loss is bit-identical to the loss
    of that column alone.  Values are not checked.
    """
    log_risk, _ = _sorted_log_risk_sums(fs, idx)
    n = fs.shape[0]
    log_s = log_risk - np.log(n)
    return (_column_sums(log_s) - _column_sums(fs[idx.event_sorted])) / n


def neg_log_partial_likelihood(fvalues, data: SurvivalDataset) -> float | np.ndarray:
    """Exact negative log-partial likelihood of the relative-risk values.

    ``fvalues`` holds one value per record and gives a float, or is a (P, n)
    stack of such vectors and gives the array of its P losses, each
    bit-identical to the loss of its row alone.  The values are gathered into
    the dataset's sorted order and scored by the core; a stack goes
    ``_ROW_BLOCK`` rows per pass, which bounds the temporaries.  All-censored
    data give 0.0.
    """
    fvalues = np.asarray(fvalues, dtype=float)
    if fvalues.ndim not in (1, 2) or fvalues.shape[-1] != len(data):
        raise ValueError(f"expected {len(data)} relative-risk values")
    if not np.all(np.isfinite(fvalues)):
        raise ValueError("relative-risk values must be finite")
    idx = data.risk_index()
    if fvalues.ndim == 1:
        return float(_sorted_neg_log_partial_likelihood(fvalues[idx.order], idx))
    losses = np.empty(fvalues.shape[0])
    for start in range(0, fvalues.shape[0], _ROW_BLOCK):
        block = np.ascontiguousarray(fvalues[start:start + _ROW_BLOCK].T)[idx.order]
        losses[start:start + _ROW_BLOCK] = _sorted_neg_log_partial_likelihood(block, idx)
    return losses


def likelihood_gradient_weights(fvalues, data: SurvivalDataset) -> np.ndarray:
    """Weights u (original record order) such that grad l(M beta) = M' u.

    Columns of M are per-record values of basis functions; u collects the
    first Gateaux derivative of the likelihood with respect to each record's
    function value.
    """
    fvalues = np.asarray(fvalues, dtype=float)
    idx = data.risk_index()
    fs = fvalues[idx.order]
    log_risk, shifted = _sorted_log_risk_sums(fs, idx)
    n = len(data)
    ev = idx.event_sorted
    # 1 / Stilde_i at event positions, zero elsewhere; Stilde is the shifted
    # suffix sum, so shifted * cumulative(1/Stilde) stays bounded by 1 per term.
    inv_sums = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if ev.any():
            inv_sums[ev] = np.exp(-(log_risk - (fs.max())))
        cum = np.cumsum(inv_sums)[idx.group_end]
        u_sorted = (shifted * cum - ev) / n
    if not np.all(np.isfinite(u_sorted)):
        # f spreads by more than the exponent range, so some 1/Stilde
        # overflowed; each term exp(fs_p - log S_i) is at most 1 in log space
        neg_log_sums = np.full(n, -np.inf)
        neg_log_sums[ev] = -log_risk
        log_cum = np.logaddexp.accumulate(neg_log_sums)[idx.group_end]
        u_sorted = (np.exp(fs + log_cum) - ev) / n
    u = np.empty(n)
    u[idx.order] = u_sorted
    return u


def build_representer_basis(gram, constant_norm_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """The representer basis and the Cholesky factor of its bordered Gram matrix.

    The (n+1) x (n+1) bordered matrix, with top-left ``constant_norm_sq``, a
    border of ones and the Gram matrix as the body, is the Hilbert-space Gram
    matrix of (1, k(., X_1), ..., k(., X_n)), so it is positive semi-definite.
    Its leftmost linearly independent columns are found by a left-looking
    Cholesky factorisation that skips columns.  It always accepts the
    constant's column, whose diagonal is ``constant_norm_sq`` > 0; a point's
    column j is accepted when its Schur-complement diagonal given the
    accepted columns before it (the squared distance of its function from
    their span) exceeds ``SCHUR_DIAGONAL_REL_TOL`` times the largest entry of
    the bordered matrix, and skipped otherwise.  Blocks of columns take their
    Schur complement with one matrix product against the factor so far;
    within a block each accepted column updates only the block's later
    columns.  Returns (basis, lower): the accepted training indices (the
    constant's column excluded), sorted ascending and 0-based, and the
    (m+1) x (m+1) lower-triangular factor with lower @ lower.T the bordered
    matrix over the accepted columns, the constant's first.
    """
    k = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if constant_norm_sq <= 0:
        raise ValueError("constant_norm_sq must be positive")
    n = k.shape[0]
    bordered = np.empty((n + 1, n + 1))
    bordered[0, 0] = constant_norm_sq
    bordered[0, 1:] = 1.0
    bordered[1:, 0] = 1.0
    bordered[1:, 1:] = k
    tol = SCHUR_DIAGONAL_REL_TOL * max(float(np.abs(bordered).max()), np.finfo(float).tiny)
    # column r holds the r-th accepted column of the factor; rows above its
    # own index are never read
    factor = np.zeros((n + 1, n + 1))
    accepted: list[int] = []
    for start in range(0, n + 1, _BASIS_BLOCK):
        stop = min(start + _BASIS_BLOCK, n + 1)
        r = len(accepted)
        schur = bordered[start:, start:stop] - factor[start:, :r] @ factor[start:stop, :r].T
        for c in range(stop - start):
            diag = schur[c, c]
            if not (diag > tol or start + c == 0):
                continue
            col = schur[c:, c] / np.sqrt(diag)
            factor[start + c:, len(accepted)] = col
            accepted.append(start + c)
            schur[c + 1:, c + 1:] -= col[1:, None] * col[None, 1:stop - start - c]
    basis = np.array(accepted[1:], dtype=int) - 1
    return basis, factor[accepted, :len(accepted)]


@dataclass
class PenalisedProblem:
    """The objective l(D theta) + gamma ||R theta||^2 on one training dataset.

    D (``design``, n x m) holds per-record values of m basis functions and R
    is an exact upper-triangular factor of their positive definite Gram form,
    so every fitting route is one choice of (D, R).  The penalty is R'R by
    definition: no m x m penalty matrix is formed or stored, and
    ``from_beta`` carries R.  Everything stored is gamma-independent, so one
    problem serves a whole regularisation path.  Immutable after
    construction.

    Fitting does not run in theta coordinates directly: the penalty and the
    likelihood curvature are both severely ill-conditioned for smooth kernels.
    ``precondition`` therefore prepares a two-stage linear change of
    variables.  First the penalty is whitened through R, so in w = R theta it
    is w'w; then the whitened design is rotated into the eigenbasis Q of its
    own second-moment matrix, whose eigenvalues ``curvature`` proxy the
    likelihood Hessian.  Per regularisation level the fit scales these
    coordinates by sqrt(2 gamma + curvature), which makes the effective
    Hessian nearly the identity for every gamma.  The change of variables is
    exact, so the minimised objective and the resulting fitted function are
    unchanged.
    """

    dataset: SurvivalDataset
    design: np.ndarray        # D, n x m
    prec_design: np.ndarray   # D in preconditioned coordinates
    curvature: np.ndarray     # eigenvalues of the whitened design moment matrix
    to_beta: np.ndarray       # theta = to_beta @ w
    from_beta: np.ndarray     # w = from_beta @ theta = Q' R theta

    @classmethod
    def precondition(cls, dataset: SurvivalDataset, design: np.ndarray, factor: np.ndarray,
                     **fields):
        """Build the problem for ``design`` and ``factor``, the R of the penalty R'R.

        R is upper triangular and nonsingular; ``fields`` go to a subclass.
        """
        factor_inv = np.linalg.inv(factor)
        whitened = design @ factor_inv
        curvature, rot = np.linalg.eigh((whitened.T @ whitened) / len(dataset))
        curvature = np.maximum(curvature, 0.0)
        prec_design = whitened @ rot
        to_beta = factor_inv @ rot
        from_beta = rot.T @ factor
        arrays = (design, prec_design, curvature, to_beta, from_beta)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(dataset, *arrays, **fields)

    def fitted_values(self, theta) -> np.ndarray:
        return self.design @ np.asarray(theta, dtype=float)

    def scale(self, gamma: float) -> np.ndarray:
        """Per-coordinate scaling sqrt(2 gamma + curvature) for one level."""
        return np.sqrt(2.0 * gamma + self.curvature)


@dataclass
class RepresenterContext(PenalisedProblem):
    """The representer route's problem: D = ktilde and R'R = khat over the basis.

    ``basis`` indexes the training points whose centred kernel sections span
    the fit, so theta is the coefficient vector beta of the module docstring.
    The Gram matrix is freed once the design is taken from it.
    """

    basis: np.ndarray
    kbar: np.ndarray

    @classmethod
    def build(cls, dataset: SurvivalDataset, kernel: KernelConfig) -> "RepresenterContext":
        gram = gram_matrix(kernel, dataset.covariates)
        basis, lower = build_representer_basis(gram, constant_norm_squared(kernel))
        k = gram.entries
        kbar = k.mean(axis=0)
        kb = kbar[basis]
        # the centred sections are (1, k(., X_A)) T with T = [-kb'; I], so
        # khat = T' lower lower' T = R'R for the R of a QR of lower' T; lower,
        # its centred copy and the Gram are freed before whitening allocates
        factor = np.linalg.qr(lower[1:].T - np.outer(lower[0], kb), mode="r")
        del lower
        ktilde = k[:, basis] - kb[None, :]
        del gram, k
        basis.flags.writeable = False
        kbar.flags.writeable = False
        return cls.precondition(dataset, ktilde, factor, basis=basis, kbar=kbar)

    @property
    def basis_size(self) -> int:
        return self.basis.shape[0]


def penalized_gradient(beta, ctx: PenalisedProblem, gamma: float) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    fvals = ctx.design @ beta
    u = likelihood_gradient_weights(fvals, ctx.dataset)
    return ctx.design.T @ u + 2.0 * gamma * (ctx.from_beta.T @ (ctx.from_beta @ beta))


def preconditioned_objective(v, ctx: PenalisedProblem, gamma: float) -> float:
    """Penalised objective in the scaled coordinates v (same function values).

    The underlying coefficients are theta = to_beta @ (v / scale(gamma)).
    """
    v = np.asarray(v, dtype=float)
    w = v / ctx.scale(gamma)
    fvals = ctx.prec_design @ w
    pen = gamma * float(w @ w)
    return neg_log_partial_likelihood(fvals, ctx.dataset) + pen


def preconditioned_gradient(v, ctx: PenalisedProblem, gamma: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    scale = ctx.scale(gamma)
    w = v / scale
    u = likelihood_gradient_weights(ctx.prec_design @ w, ctx.dataset)
    return (ctx.prec_design.T @ u + 2.0 * gamma * w) / scale
