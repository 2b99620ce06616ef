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
reciprocal risk sum, or a running sum of them, overflows.  Both stay
accurate and finite however far f spreads.  Only a pass that can reach
these paths enters ``np.errstate`` to silence the log of zero and the
overflow it expects; one within the exponent range leaves numpy's error
state alone.  The core works on values already gathered into the sorted
order of the dataset's risk index, one vector or one per column of an (n, P)
matrix.  One pass of it (the shift, the exponentials, the risk-set suffix sums
and their logs) is a ``LikelihoodPass``, from which the loss and the gradient
weights are both read: ``neg_log_partial_likelihood`` and
``likelihood_gradient_weights`` each run one pass at one vector.
``model_selection`` gathers a path's validation predictions once, scores
every level in one call and passes the theta scan's blocks of combinations
of the same columns.  Where the scan prunes a grid larger than one block,
each block is a ``LikelihoodPass`` over (n, b) columns, whose gradient
weights give each combination's tangent plane in theta.

Every fit minimises l(D theta) + gamma ||R theta||^2 for a design D, whose
columns are basis functions evaluated at the training points, and an
upper-triangular factor R of their Gram form in the Hilbert space
(``PenalisedProblem``).  The penalty is R'R by definition; no m x m penalty
matrix is stored, and D is kept only as its exact image in preconditioned
coordinates.  Over representer coefficients beta indexed by the basis A
(``RepresenterContext``) this is

    l(f_beta) + gamma * sum_{i,j in A} khat(X_i, X_j) beta_i beta_j

with f_beta(x) = sum_{j in A} ktilde(x, X_j) beta_j, where
ktilde(x, y) = k(x, y) - kbar(y), kbar(y) = (1/n) sum_i k(X_i, y), and
khat(x, y) = k(x, y) - kbar(x) - kbar(y) + kbar(x) kbar(y) * cns with cns the
squared Hilbert norm of the constant.  By construction every f_beta has zero
empirical mean, so the quadratic form is exactly the squared Hilbert norm of
f_beta and the objective is strongly convex.

A fit scores each point once.  Every point is one ``PenalisedPoint``, with its
fitted values, its likelihood pass and the one gradient formula.  A fit's
``LevelEvaluation`` scores the optimizer's points, and the gradient at the
point a line search accepts reuses that pass; at the solution, one more point
gives the penalised gradient, the training loss and the squared norm.

The basis A holds the training points whose bordered columns (the Gram
matrix of the constant and the kernel sections) are linearly independent of
the columns before them: a column-skipping Cholesky factorisation accepts the
constant, then each point whose Schur-complement diagonal, the squared
Hilbert distance of k(., X_j) from the span of the constant and the sections
accepted before it, exceeds ``SCHUR_DIAGONAL_REL_TOL`` times the largest
bordered entry.  The factorisation reads the Gram matrix in place and never
forms the (n+1) x (n+1) bordered matrix.  Centring that factor gives R for
khat without forming khat, whose formula loses digits to cancellation when
khat is far smaller than the Gram entries.  The centred factor is one spike
row over an upper-triangular block, so R is a rank-one update of that block,
reduced one block of rows at a time (``_centred_penalty_factor``).  The same
block rotations, applied to the factor's basis rows, whiten the design there,
so neither R's inverse nor the design at the basis points is ever formed, and
no dense QR or LU of an m x m matrix runs.  Coefficients come back from the
preconditioned coordinates by substitution through R's diagonal blocks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .data import RiskSetIndex, SurvivalDataset, as_record_values
from .kernels import KernelConfig, constant_norm_squared, gram_matrix

# A training point joins the representer basis when the Schur-complement
# diagonal of its bordered column, given the columns accepted before it,
# exceeds this fraction of the largest entry of the bordered matrix.
SCHUR_DIAGONAL_REL_TOL = 1e-10
# Columns per block of the basis factorisation: one matrix product per block.
_BASIS_BLOCK = 64
# Rows of the whitened design rotated per product: few enough to bound the
# temporary, many enough that each product amortises packing the rotation.
_ROTATED_ROWS = 256
# Smallest normal double: a shifted suffix sum below it carries fewer bits.
_TINY = np.finfo(float).tiny
# The log of the largest double, less a margin for rounding: exp stays finite below it.
_LOG_HUGE = math.log(np.finfo(float).max) - 1.0


def _sorted_log_risk_sums(fs: np.ndarray, idx: RiskSetIndex):
    """Per event, in sorted order: log sum_{q >= group_start(p)} exp(fs_q).

    ``fs`` holds f values already in the risk index ``idx``'s sorted order,
    one vector of n values or an (n, P) matrix holding one such vector per
    column; the work runs down the first axis.  Returns (m, log_risk,
    shifted_exp) where m is the column max, log_risk has one row per event at
    sorted position p and shifted_exp = exp(fs - m).
    """
    m = fs.max(axis=0)
    shifted = np.exp(fs - m)
    suffix = shifted[::-1].cumsum(axis=0)[::-1]
    sums = suffix[idx.event_start]
    if sums.size and sums.min() >= _TINY:
        return m, m + np.log(sums), shifted
    # no event, or a shifted suffix sum below the normal range has lost
    # precision or underflowed to 0; sum those suffixes in log space instead
    with np.errstate(divide="ignore"):
        log_risk = m + np.log(sums)
    normal = sums >= _TINY
    if not normal.all():
        log_suffix = np.logaddexp.accumulate(fs[::-1], axis=0)[::-1]
        log_risk = np.where(normal, log_risk, log_suffix[idx.event_start])
    return m, log_risk, shifted


def _column_sums(values: np.ndarray):
    # each column summed as one contiguous row, so with numpy's pairwise
    # summation a column's sum is bit-identical to the sum of it alone
    if values.ndim == 1:
        return values.sum()
    return np.ascontiguousarray(values.T).sum(axis=-1)


def _sorted_loss(fs: np.ndarray, log_risk: np.ndarray, idx: RiskSetIndex):
    """The loss of each column of ``fs`` from its log risk sums."""
    n = fs.shape[0]
    log_s = log_risk - np.log(n)
    return (_column_sums(log_s) - _column_sums(fs[idx.event_positions])) / n


def _sorted_neg_log_partial_likelihood(fs: np.ndarray, idx: RiskSetIndex):
    """The likelihood core: the loss of one vector, or of each column of an (n, P) matrix.

    ``fs`` is already in the sorted order of the risk index ``idx``
    (``fvalues[idx.order]``), so a caller that scores many vectors gathers
    their shared parts once.  Each column's loss is bit-identical to the loss
    of that column alone.  Values are not checked.
    """
    return _sorted_loss(fs, _sorted_log_risk_sums(fs, idx)[1], idx)


class LikelihoodPass:
    """One pass over the risk sets at one vector of f values, or at each column of a matrix.

    The loss and the gradient weights both read it, so a caller that needs
    both at one point pays once for the exponentials, the suffix sums and the
    logs.  ``fs`` holds the values already in the risk index's sorted order
    (``fvalues[idx.order]``), one vector of n values or an (n, P) matrix with
    one vector per column; ``max`` is their (column) maximum, ``log_risk``
    the log risk sum of each event (sorted positions ascending; one column
    per column of ``fs``) and ``shifted`` exp(fs - max).  Each column's loss
    has the bits of that column's alone, and so do its weights unless some
    column's weights take the log-space path, which the whole block then
    takes.  Values are not checked.
    """

    def __init__(self, fs: np.ndarray, idx: RiskSetIndex):
        self.idx = idx
        self.fs = fs
        self.max, self.log_risk, self.shifted = _sorted_log_risk_sums(fs, idx)

    def loss(self):
        """The loss: a float for one vector, an array of one per column for a matrix."""
        loss = _sorted_loss(self.fs, self.log_risk, self.idx)
        return float(loss) if self.fs.ndim == 1 else loss

    def sorted_gradient_weights(self) -> np.ndarray:
        """Weights u, in sorted order and shaped like ``fs``, with grad l(M beta) = M' u."""
        idx, fs, log_risk = self.idx, self.fs, self.log_risk
        n = fs.shape[0]
        ev = idx.event_sorted if fs.ndim == 1 else idx.event_sorted[:, None]
        # 1 / Stilde_i at event positions, zero elsewhere; Stilde is the shifted
        # suffix sum, so shifted * cumulative(1/Stilde) stays bounded by 1 per term.
        inv_sums = np.zeros(fs.shape)
        exponents = self.max - log_risk
        # a running sum of at most n reciprocals, each below exp(_LOG_HUGE - log n),
        # stays finite; only a larger (or NaN) exponent needs the guard and the check
        guarded = exponents.size and not exponents.max() < _LOG_HUGE - math.log(n)
        with np.errstate(over="ignore", invalid="ignore") if guarded else contextlib.nullcontext():
            inv_sums[idx.event_positions] = np.exp(exponents)
            cum = inv_sums.cumsum(axis=0)[idx.group_end]
            u_sorted = (self.shifted * cum - ev) / n
        if guarded and not np.isfinite(u_sorted).all():
            # f spreads by more than the exponent range, so some 1/Stilde
            # overflowed; each term exp(fs_p - log S_i) is at most 1 in log space
            neg_log_sums = np.full(fs.shape, -np.inf)
            neg_log_sums[idx.event_positions] = -log_risk
            log_cum = np.logaddexp.accumulate(neg_log_sums, axis=0)[idx.group_end]
            u_sorted = (np.exp(fs + log_cum) - ev) / n
        return u_sorted

    def gradient_weights(self) -> np.ndarray:
        """Weights u (original record order) such that grad l(M beta) = M' u."""
        u = np.empty(self.fs.shape)
        u[self.idx.order] = self.sorted_gradient_weights()
        return u


def neg_log_partial_likelihood(fvalues, data: SurvivalDataset) -> float:
    """Exact negative log-partial likelihood of one relative-risk value per record.

    The values are gathered into the dataset's sorted order and scored by the
    core.  All-censored data give 0.0.
    """
    fvalues = as_record_values(fvalues, len(data), "relative-risk values")
    idx = data.risk_index()
    return LikelihoodPass(fvalues[idx.order], idx).loss()


def likelihood_gradient_weights(fvalues, data: SurvivalDataset) -> np.ndarray:
    """Weights u (original record order) such that grad l(M beta) = M' u.

    Columns of M are per-record values of basis functions; u collects the
    first Gateaux derivative of the likelihood with respect to each record's
    function value.
    """
    idx = data.risk_index()
    return LikelihoodPass(np.asarray(fvalues, dtype=float)[idx.order], idx).gradient_weights()


def build_representer_basis(gram, constant_norm_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """The representer basis and the Cholesky factor of its bordered Gram matrix.

    The (n+1) x (n+1) bordered matrix, with top-left ``constant_norm_sq``, a
    border of ones and the Gram matrix ``gram`` as the body, is the
    Hilbert-space Gram matrix of (1, k(., X_1), ..., k(., X_n)), so it is
    positive semi-definite.  Its leftmost linearly independent columns are
    found by a left-looking Cholesky factorisation that skips columns.  It
    always accepts the constant's column, whose diagonal is
    ``constant_norm_sq`` > 0; a point's column j is accepted when its
    Schur-complement diagonal given the accepted columns before it (the
    squared distance of its function from their span) exceeds
    ``SCHUR_DIAGONAL_REL_TOL`` times the largest entry of the bordered
    matrix, and skipped otherwise.  Blocks of columns take their Schur
    complement with one matrix product against the factor so far; within a
    block each accepted column updates only the block's own later columns,
    and the rows below the block take their entries in its accepted columns
    from one solve with the block's triangular factor.  The bordered matrix
    is never formed: the constant's column is factored first, on its own,
    and every block of points reads ``gram`` in place.
    Returns (basis, lower): the accepted training indices (the constant's
    column excluded), sorted ascending and 0-based, and the (m+1) x (m+1)
    lower-triangular factor, a view of the working array, with lower @
    lower.T the bordered matrix over the accepted columns, the constant's
    first.
    """
    k = np.asarray(gram, dtype=float)
    if constant_norm_sq <= 0:
        raise ValueError("constant_norm_sq must be positive")
    n = k.shape[0]
    tol = SCHUR_DIAGONAL_REL_TOL * float(max(k.max(), -k.min(), 1.0, constant_norm_sq))
    # row i holds bordered column i's factor row, column r the r-th accepted
    # column of the factor; rows above a column's own index are never read.
    # The constant's column (constant_norm_sq, 1, ..., 1) is always accepted
    factor = np.zeros((n + 1, n + 1))
    factor[0, 0], factor[1:, 0] = constant_norm_sq, 1.0
    factor[:, 0] /= np.sqrt(constant_norm_sq)
    accepted = [0]
    for block in range(0, n + 1, _BASIS_BLOCK):
        start, stop = max(block, 1), min(block + _BASIS_BLOCK, n + 1)
        r = len(accepted)
        schur = k[start - 1:, start - 1:stop - 1] - factor[start:, :r] @ factor[start:stop, :r].T
        width = stop - start
        own = schur[:width]  # the block's diagonal block, a view
        for c in range(width):
            diag = own[c, c]
            if not diag > tol:
                continue
            col = own[c:, c] / np.sqrt(diag)
            factor[start + c:stop, len(accepted)] = col
            accepted.append(start + c)
            own[c + 1:, c + 1:] -= col[1:, None] * col[None, 1:]
        taken = np.array(accepted[r:], dtype=int)
        if taken.size and stop <= n:
            # the rows below: their Schur entries in the accepted columns are
            # their factor rows times the block's lower-triangular factor'
            factor[stop:, r:len(accepted)] = np.linalg.solve(
                factor[taken, r:len(accepted)], schur[width:, taken - start].T).T
    # gather the accepted rows in place: row accepted[r] >= r is read before
    # any later step writes it
    for r, row in enumerate(accepted):
        factor[r] = factor[row]
    basis = np.array(accepted[1:], dtype=int) - 1
    return basis, factor[:len(accepted), :len(accepted)]


def _centred_penalty_factor(lower: np.ndarray, kb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R with R'R = khat over the basis, and the basis rows of the design whitened by it.

    ``lower`` is the (m+1) x (m+1) factor of ``build_representer_basis`` and
    ``kb`` holds kbar at the m basis points.  The centred sections are
    (1, k(., X_A)) T with T = [-kb'; I], so khat = M'M for M = lower' T.  M's
    first row is the spike m0' = lower[1:, 0]' - lower[0, 0] kb' and its other
    rows are U = lower[1:, 1:]', which is upper triangular, so R'R = U'U +
    m0 m0' is a rank-one update of U'U (Golub and Van Loan, Matrix
    Computations, section 6.5).  The spike is reduced against U one block of
    ``_BASIS_BLOCK`` rows at a time: a complete QR of the spike over U's
    diagonal block gives that block's rows of R, and one product with its Q
    carries the block's rows and the spike across the trailing columns.  With
    m <= ``_BASIS_BLOCK`` that is one QR of M itself.

    Since lower lower' is the bordered matrix, the design at the basis points
    is D_A = lower[1:] M, and with M = Q [R; 0] its whitened rows D_A R^-1
    are lower[1:] Q[:, :m]: each block's Q is applied to the matching columns
    of lower[1:] as it is found, so no inverse of R is formed.  ``lower`` is
    overwritten; the returned (R, W_A) has W_A a view of it.
    """
    m = kb.shape[0]
    upper = lower[1:, 1:].T
    # lower[1:]'s column 0 multiplies the spike row; it is rotated along with each block
    basis_rows = lower[1:]
    spike = lower[1:, 0] - lower[0, 0] * kb  # M's first row, over the columns left
    factor = np.zeros((m, m))
    for start in range(0, m, _BASIS_BLOCK):
        stop = min(start + _BASIS_BLOCK, m)
        rows = np.vstack((spike, upper[start:stop, start:]))
        q, diag_block = np.linalg.qr(rows[:, :stop - start], mode="complete")
        factor[start:stop, start:stop] = diag_block[:-1]
        trailing = q.T @ rows[:, stop - start:]
        factor[start:stop, stop:] = trailing[:-1]
        spike = trailing[-1]
        # U's rows start:stop were copied into rows above, so their columns
        # of lower[1:] are free to take the whitened design
        rotated = np.column_stack((basis_rows[:, 0], basis_rows[:, 1 + start:1 + stop])) @ q
        basis_rows[:, 1 + start:1 + stop] = rotated[:, :-1]
        basis_rows[:, 0] = rotated[:, -1]
    return factor, basis_rows[:, 1:]


def _diagonal_block_inverses(factor: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inverses of the upper-triangular ``factor``'s diagonal blocks of ``_BASIS_BLOCK``."""
    m = factor.shape[0]
    return tuple(np.linalg.inv(factor[s:s + _BASIS_BLOCK, s:s + _BASIS_BLOCK])
                 for s in range(0, m, _BASIS_BLOCK))


def _forward_substitute(factor: np.ndarray, inverses, rhs: np.ndarray) -> np.ndarray:
    """X with factor' X = rhs, by forward substitution over diagonal blocks.

    ``inverses`` are ``_diagonal_block_inverses(factor)``; ``rhs`` is a
    vector or has one right-hand side per column.
    """
    x = np.empty_like(rhs)
    for start in range(0, factor.shape[0], _BASIS_BLOCK):
        stop = start + _BASIS_BLOCK
        inv = inverses[start // _BASIS_BLOCK]
        x[start:stop] = inv.T @ (rhs[start:stop] - factor[:start, start:stop].T @ x[:start])
    return x


def _back_substitute(factor: np.ndarray, inverses, rhs: np.ndarray) -> np.ndarray:
    """X with factor X = rhs, by back substitution over diagonal blocks."""
    x = np.empty_like(rhs)
    for start in reversed(range(0, factor.shape[0], _BASIS_BLOCK)):
        stop = start + _BASIS_BLOCK
        inv = inverses[start // _BASIS_BLOCK]
        x[start:stop] = inv @ (rhs[start:stop] - factor[start:stop, stop:] @ x[stop:])
    return x


@dataclass
class PenalisedProblem:
    """The objective l(D theta) + gamma ||R theta||^2 on one training dataset.

    D (n x m) holds per-record values of m basis functions and R is an exact
    upper-triangular factor of their positive definite Gram form, so every
    fitting route is one choice of (D, R).  The penalty is R'R by definition:
    no m x m penalty matrix is formed or stored, and ``factor`` is R.  Nor is
    D: the one n x m array kept is its preconditioned image ``prec_design``,
    and D theta = prec_design @ (from_beta @ theta).  Everything stored is
    gamma-independent, so one problem serves a whole regularisation path.
    Immutable after construction.

    Fitting does not run in theta coordinates directly: the penalty and the
    likelihood curvature are both severely ill-conditioned for smooth kernels.
    ``precondition`` therefore prepares a two-stage linear change of
    variables.  First the penalty is whitened through R, so in w = R theta it
    is w'w; then the whitened design D R^-1 is rotated into the eigenbasis Q of
    its own second-moment matrix, whose eigenvalues ``curvature`` proxy the
    likelihood Hessian.  Per regularisation level the fit scales these
    coordinates by sqrt(2 gamma + curvature), which makes the effective
    Hessian nearly the identity for every gamma.  The change of variables is
    exact, so the minimised objective and the resulting fitted function are
    unchanged.  Its inverse is ``to_theta``.
    """

    dataset: SurvivalDataset
    prec_design: np.ndarray   # D R^-1 Q, n x m
    curvature: np.ndarray     # eigenvalues of the whitened design moment matrix
    from_beta: np.ndarray     # w = from_beta @ theta = Q' R theta
    factor: np.ndarray        # R
    block_inverses: tuple[np.ndarray, ...]  # of R's diagonal blocks, for to_theta

    @classmethod
    def precondition(cls, dataset: SurvivalDataset, whitened: np.ndarray, factor: np.ndarray,
                     **fields):
        """Build the problem from the design whitened by ``factor``, the R of the penalty R'R.

        ``whitened`` is D R^-1 for the design D, and R is upper triangular and
        nonsingular; ``fields`` go to a subclass.  ``whitened`` is rotated in
        place, one block of rows at a time, and becomes ``prec_design``, so no
        second n x m array is formed.
        """
        moment = whitened.T @ whitened
        moment /= len(dataset)
        curvature, rot = np.linalg.eigh(moment)
        del moment
        curvature = np.maximum(curvature, 0.0)
        for start in range(0, whitened.shape[0], _ROTATED_ROWS):
            rows = slice(start, start + _ROTATED_ROWS)
            whitened[rows] = whitened[rows] @ rot
        from_beta = rot.T @ factor
        inverses = _diagonal_block_inverses(factor)
        for arr in (whitened, curvature, from_beta, factor, *inverses):
            arr.flags.writeable = False
        return cls(dataset, whitened, curvature, from_beta, factor, inverses, **fields)

    def scale(self, gamma: float) -> np.ndarray:
        """Per-coordinate scaling sqrt(2 gamma + curvature) for one level."""
        return np.sqrt(2.0 * gamma + self.curvature)

    def to_theta(self, w: np.ndarray) -> np.ndarray:
        """The theta with from_beta @ theta = w, for a vector or each column of w.

        It solves R'R theta = from_beta' w (= R'Q w) by a forward and a back
        substitution over R's diagonal blocks.
        """
        rhs = self.from_beta.T @ w
        half = _forward_substitute(self.factor, self.block_inverses, rhs)
        return _back_substitute(self.factor, self.block_inverses, half)


@dataclass
class RepresenterContext(PenalisedProblem):
    """The representer route's problem: D = ktilde and R'R = khat over the basis.

    ``basis`` indexes the training points whose centred kernel sections span
    the fit, so theta is the coefficient vector beta of the module docstring.
    ``kernel`` is the kernel the context was built with.  The Gram matrix is
    freed before whitening, and the design D is never formed at the basis
    points: their whitened rows come from the selector's factor
    (``_centred_penalty_factor``).  Training points outside the basis (a
    polynomial kernel's, or duplicates) are whitened by a solve with R.
    """

    basis: np.ndarray
    kbar: np.ndarray
    kernel: KernelConfig

    @classmethod
    def build(cls, dataset: SurvivalDataset, kernel: KernelConfig) -> "RepresenterContext":
        gram = gram_matrix(kernel, dataset.covariates)
        basis, lower = build_representer_basis(gram, constant_norm_squared(kernel))
        kbar = gram.mean(axis=0)
        kb = kbar[basis]
        in_basis = np.zeros(len(dataset), dtype=bool)
        in_basis[basis] = True
        outside = np.flatnonzero(~in_basis)
        design_outside = gram[outside][:, basis] - kb
        del gram
        factor, at_basis = _centred_penalty_factor(lower, kb)
        del lower
        if outside.size:
            # D R^-1 for the rows outside the basis: R' X = D'
            whitened = np.empty((len(dataset), basis.shape[0]))
            whitened[basis] = at_basis
            whitened[outside] = _forward_substitute(
                factor, _diagonal_block_inverses(factor), design_outside.T).T
        else:
            whitened = at_basis
        del at_basis
        basis.flags.writeable = False
        kbar.flags.writeable = False
        return cls.precondition(dataset, whitened, factor, basis=basis, kbar=kbar, kernel=kernel)

    @property
    def basis_size(self) -> int:
        return self.basis.shape[0]


class PenalisedPoint:
    """One point w = from_beta @ theta of a problem, with the pass read at it.

    ``fitted`` is D theta = prec_design @ w, which must be finite, and
    ``likelihood`` the pass there.  Since from_beta = Q'R with Q orthogonal,
    ||w||^2 = ||R theta||^2, so the objective is l(prec_design @ w) +
    gamma w'w, and ``gradient`` is its gradient in w.
    """

    def __init__(self, problem: PenalisedProblem, w: np.ndarray):
        self.problem = problem
        self.w = w
        self.fitted = problem.prec_design @ w
        if not np.isfinite(self.fitted).all():
            raise ValueError("relative-risk values must be finite")
        idx = problem.dataset.risk_index()
        self.likelihood = LikelihoodPass(self.fitted[idx.order], idx)

    def gradient(self, gamma: float) -> np.ndarray:
        weights = self.likelihood.gradient_weights()
        return self.problem.prec_design.T @ weights + 2.0 * gamma * self.w

    def norm_squared(self) -> float:
        return float(self.w @ self.w)


def penalized_gradient(beta, ctx: PenalisedProblem, gamma: float,
                       point: PenalisedPoint | None = None) -> np.ndarray:
    """The gradient of l(D beta) + gamma ||R beta||^2 in beta.

    It is from_beta' times the gradient at the point w = from_beta @ beta,
    which a caller that already holds it passes as ``point``.
    """
    beta = np.asarray(beta, dtype=float)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite")
    if point is None:
        point = PenalisedPoint(ctx, ctx.from_beta @ beta)
    return ctx.from_beta.T @ point.gradient(gamma)


class LevelEvaluation:
    """One regularisation level of a problem, evaluated in preconditioned coordinates.

    A point v stands for the ``PenalisedPoint`` at w = v / scale, whose theta
    is ``to_theta(w)``, where ``scale`` is the level's ``scale(gamma)``,
    computed once.  The object remembers the last point it scored.  A line
    search asks for the gradient only at the point it accepts, which it has
    just scored, so ``preconditioned_gradient`` at a point bitwise equal to
    that one reuses its pass and adds only the weights and the transposed
    product.
    Any other point is scored afresh.
    """

    def __init__(self, problem: PenalisedProblem, gamma: float):
        self.problem = problem
        self.gamma = gamma
        self.scale = problem.scale(gamma)
        self._last = None  # (v's bytes, its PenalisedPoint) of the last point scored

    def score(self, v) -> PenalisedPoint:
        """The point at v, remembered as the last point scored."""
        v = np.asarray(v, dtype=float)
        point = PenalisedPoint(self.problem, v / self.scale)
        self._last = (v.tobytes(), point)
        return point

    def at(self, v) -> PenalisedPoint:
        """Like ``score``, but returning the last point when v is bitwise its v."""
        v = np.asarray(v, dtype=float)
        if self._last is not None and self._last[0] == v.tobytes():
            return self._last[1]
        return self.score(v)


def preconditioned_objective(v, level: LevelEvaluation) -> float:
    """Penalised objective at the level's preconditioned point v (same function values)."""
    point = level.score(v)
    return point.likelihood.loss() + level.gamma * point.norm_squared()


def preconditioned_gradient(v, level: LevelEvaluation) -> np.ndarray:
    """Gradient of ``preconditioned_objective`` at v."""
    return level.at(v).gradient(level.gamma) / level.scale
