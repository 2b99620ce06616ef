"""Cross-validated selection of the regularisation level and aggregation weights.

``fit_care_path`` is the one implementation of both selections, and
``fit_care`` returns its estimator and report.  With no externals it is plain
cross-validation of the regularisation level: the estimator is the kernel
fit at the selected level, with no aggregation weights.

The regularisation path is fitted in decreasing order, warm-starting each fit
at the previous solution; only the optimisation is repeated per level since
the representer context is shared.  Both selections read one array, the
validation predictions of every level: an (n_valid x levels) matrix, its
rows in the validation set's risk order, made from one cross matrix between
the validation points and the basis.  One call of the likelihood core scores
all its columns.  ``_centred_externals`` evaluates each external predictor
once per sample, checks it against ``EXTERNAL_SUP_BOUND`` on both (a
warning, not an error) and centres it once on the training sample; the
``CenteredExternal`` it returns keeps its centred values on both samples,
which the theta scan and the samples' predictions reuse.

The scan looks for the minimiser of the validation loss over a finite grid
of convex weights (a simplex lattice from ``theta_grid``) at each converged
level.  The centred externals are put in the risk order once per path, so a
batch of combinations is built from a column of the matrix in the core's
sorted (n, batch) layout and shares one exponential, suffix-sum and log
pass.  A grid of at most ``_ROW_BLOCK`` points is scored whole, in one such
pass.  A larger one need not be: at a fixed level the combination is affine
in theta and the Cox loss is convex in it, so the tangent plane at a scored
point is a lower bound on the loss everywhere (Kelley's cutting planes over
a finite set).  ``_scan_level`` scores a first pass of ``_FIRST_PASS``
points spread over the grid's order, with the gradient weights of the same
``LikelihoodPass``, raises every unscored point's bound to the planes, and
drops a point whose bound exceeds the level's best loss by more than
``_PRUNE_SLACK`` times (1 + |best|).  The lowest-bound survivors are scored
next, in batches that double from ``_FIRST_BATCH`` up to ``_ROW_BLOCK``,
until none survives.  A dropped point's loss lies strictly above the level's
minimum and every point within the slack of it is scored, so the selection
is the exhaustive scan's, ties included; each scored loss has the bits of
that column scored alone.  A batch whose planes drop nothing (all-censored validation
data tie every point) sends the survivors to full blocks without planes, so
the worst case is the exhaustive scan and one small pass.  No temporary
exceeds n x ``_ROW_BLOCK`` or |Theta| x M cells.  The grid is one read-only
(|Theta| x M) array, and the report keeps the scan as one (levels x |Theta|)
loss array next to it, +inf where a point was dropped.  Apart from the
scan's batches, ``CareEstimator.combine`` is the one place the combination
is summed.  Every evaluator predicts through ``predict_many`` alone, at
points as ``data.as_points`` takes them, and each external's values on a
sample pass ``data.as_record_values``.

The selection is one argmin over that loss array.  Its first minimiser in C
order breaks ties toward the smallest regularisation value and then the
lexicographically smallest weight vector, which fixes a total order for the
selection and makes reruns deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import DataFormatError, SurvivalDataset, as_points, as_record_values, write_table
from .estimators import KernelEstimator, fit_kernel_estimator
from .kernels import KernelConfig
from .optimizer import OptimOptions
from .partial_likelihood import (
    LikelihoodPass,
    RepresenterContext,
    _sorted_neg_log_partial_likelihood,
    neg_log_partial_likelihood,
)

THETA_GRID_LIMIT = 1_000_000
# Most combinations of the theta scan scored per pass of the likelihood core: a
# grid of at most this many points is scored whole, in one pass with no
# gradient, and a larger scan's batches grow to it.  Not a power of two: the
# core runs down columns of an (n, _ROW_BLOCK) block, and at 128 (or 64, 192,
# 256) its rows sit a power-of-two number of bytes apart, a stride at which the
# cumulative sum runs about 3x slower.
_ROW_BLOCK = 120
# Points in the first pass of a larger scan, spread over the grid's order, and
# in the batch after it.
_FIRST_PASS = 16
_FIRST_BATCH = 4
# A point is dropped when its lower bound exceeds the level's best loss by more
# than this times (1 + |best|): far above the rounding of a loss or a plane.
_PRUNE_SLACK = 1e-9
# Bound on the sup-norm of external predictors; exceeding it only triggers a
# warning since the theory assumes boundedness without a value.
EXTERNAL_SUP_BOUND = 100.0


class AllFitsFailed(RuntimeError):
    """No fit on the regularisation grid converged."""


@dataclass(frozen=True)
class GammaGrid:
    values: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(g) for g in self.values)
        if len(v) == 0:
            raise ValueError("gamma grid must be non-empty")
        if any(not math.isfinite(g) or g <= 0 for g in v):
            raise ValueError("gamma grid values must be finite and positive")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise ValueError("gamma grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def geometric(cls, low: float, high: float, count: int) -> "GammaGrid":
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            return cls((float(low),))
        return cls(tuple(np.geomspace(low, high, count)))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class ThetaGrid:
    """Finite set of convex weight vectors over the external predictors.

    ``points`` is a read-only (|points|, num_externals) float array, one
    vector per row; the grid keeps its own copy of what it is given.
    """

    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=float)
        except ValueError:  # ragged or non-numeric
            pts = None
        if pts is None or pts.ndim != 2 or len(pts) == 0:
            raise ValueError("theta grid must be a non-empty sequence of equal-length points")
        if not ((pts >= 0).all() and (pts.sum(axis=1) <= 1 + 1e-12).all()):
            raise ValueError("theta points must lie in the simplex")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def num_externals(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def theta_grid(num_externals: int, resolution: int) -> ThetaGrid:
    """All lattice points k/resolution in the simplex, vertices included.

    The points come in lexicographic order of k.  They are enumerated by
    stars and bars: num_externals bars among resolution + num_externals
    slots, where the stars before the first bar and between consecutive bars
    are the parts k_1, ..., k_M and the stars after the last bar the kernel's
    share.  Bar positions in lexicographic order give the parts in
    lexicographic order.
    """
    if num_externals < 1:
        raise ValueError("num_externals must be >= 1")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    size = math.comb(resolution + num_externals, num_externals)
    if size > THETA_GRID_LIMIT:
        raise ValueError(f"theta grid would have {size} points (limit {THETA_GRID_LIMIT})")

    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(resolution + num_externals), num_externals)),
        dtype=np.intp, count=size * num_externals,
    ).reshape(size, num_externals)
    parts = np.diff(bars, axis=1, prepend=-1) - 1
    return ThetaGrid(parts / resolution)


def validation_loss(predicted, valid: SurvivalDataset) -> float:
    """Negative log-partial likelihood of one prediction vector on the validation data."""
    return neg_log_partial_likelihood(predicted, valid)


@dataclass
class GammaEntry:
    gamma: float
    train_loss: float
    valid_loss: float
    converged: bool


@dataclass
class CareEntry:
    gamma: float
    theta: tuple[float, ...]
    valid_loss: float


class CareEntries(Sequence):
    """Read-only view of a report's scored theta points as ``CareEntry`` objects.

    Entries run level by level (ascending gamma), and within a level in the
    grid's order; a point the scan proved cannot win (+inf) has none.  Each
    is built when it is read.
    """

    def __init__(self, report: "CvReport"):
        self._report = report
        self._scored = np.flatnonzero(np.isfinite(report.care_losses))  # C-order positions

    def __len__(self) -> int:
        return self._scored.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, size = operator.index(i), len(self)
        if not -size <= i < size:
            raise IndexError("care entry index out of range")
        report = self._report
        level, p = divmod(int(self._scored[i]), len(report.care_thetas))
        return CareEntry(report.care_gammas[level], tuple(report.care_thetas[p].tolist()),
                         float(report.care_losses[level, p]))

    def __iter__(self):
        report = self._report
        thetas = list(map(tuple, report.care_thetas.tolist()))
        for gamma, losses in zip(report.care_gammas, report.care_losses.tolist()):
            for theta, loss in zip(thetas, losses):
                if math.isfinite(loss):
                    yield CareEntry(gamma, theta, loss)


@dataclass
class CvReport:
    """Per-level losses and the selection trace of a cross-validation run.

    The theta scan is stored as columns: ``care_losses[l, p]`` is the
    validation loss of the combination at ``care_gammas[l]``, the converged
    levels in ascending order, and ``care_thetas[p]``, a row of the theta
    grid's read-only array.  A point the scan proved cannot be its level's
    minimiser, because a tangent plane of the convex loss lies above the
    level's best loss there, was never scored and holds +inf; with at most
    ``_ROW_BLOCK`` points every one is scored.  So the argmin over the array
    is the exhaustive scan's selection, ties included.  Without externals
    all three are empty, ``gamma_check`` is ``gamma_hat`` and
    ``theta_check`` is empty.  ``care_entries`` views the scored points as
    one ``CareEntry`` per (level, point), and ``to_csv`` writes one row per
    such entry.
    """

    gamma_entries: list[GammaEntry] = field(default_factory=list)
    care_gammas: tuple[float, ...] = ()
    care_thetas: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    care_losses: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    gamma_hat: float | None = None
    gamma_check: float | None = None
    theta_check: tuple[float, ...] | None = None

    @property
    def care_entries(self) -> CareEntries:
        return CareEntries(self)

    def to_csv(self, path) -> None:
        num_theta = self.care_thetas.shape[1] if self.care_losses.size else 0
        if self.care_losses.size:
            # each grid point's cells and each level's cells are formatted
            # once, as write_table formats a float, and reused in every row
            by_gamma = {e.gamma: e for e in self.gamma_entries}
            thetas = [[repr(t) for t in theta] for theta in self.care_thetas.tolist()]
            levels = [(repr(float(g)), repr(float(by_gamma[g].train_loss)),
                       str(int(by_gamma[g].converged))) for g in self.care_gammas]
            rows = ([gamma, *theta, train, repr(loss), converged]
                    for (gamma, train, converged), losses in zip(levels, self.care_losses.tolist())
                    for theta, loss in zip(thetas, losses) if math.isfinite(loss))
        else:
            rows = ([g.gamma, g.train_loss, g.valid_loss, int(g.converged)]
                    for g in self.gamma_entries)
        write_table(path, ["gamma", *(f"theta_{m + 1}" for m in range(num_theta)),
                           "train_loss", "valid_loss", "converged"], rows)

    def summary(self) -> dict:
        out = {
            "gamma_hat": self.gamma_hat,
            "gamma_check": self.gamma_check,
            "theta_check": list(self.theta_check) if self.theta_check is not None else None,
            "num_gamma": len(self.gamma_entries),
            "num_converged": sum(e.converged for e in self.gamma_entries),
        }
        if self.gamma_hat is not None:
            out["valid_loss_at_gamma_hat"] = next(
                e.valid_loss for e in self.gamma_entries if e.gamma == self.gamma_hat)
        return out


def _fit_gamma_path(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
                    grid: GammaGrid, options: OptimOptions | None):
    """Fit every grid value in decreasing order with warm starts.

    Returns the fits by gamma and the validation predictions: an (n_valid x
    levels) array, one column per level in ascending gamma, its rows in the
    validation set's risk order.  Every fit shares the basis and kbar of one
    context, so one centred cross matrix serves the path, and each column is
    one product with a level's beta.
    """
    ctx = RepresenterContext.build(train, kernel)
    fits, warm = {}, None
    for gamma in reversed(grid.values):
        fits[gamma] = fit_kernel_estimator(train, kernel, gamma, options, warm=warm, ctx=ctx)
        warm = fits[gamma].beta
    sections = fits[gamma]._centred_sections(valid.covariates)
    preds = np.stack([sections @ fits[g].beta for g in grid.values], axis=1)
    return fits, preds[valid.risk_index().order]


@dataclass
class CareEstimator:
    """Convex combination of a kernel estimator and centred externals.

    Prediction is (1 - sum_m theta_m) * kernel + sum_m theta_m * external_m.
    """

    kernel_estimator: KernelEstimator
    externals: list[CenteredExternal]
    theta: tuple[float, ...]
    gamma: float

    def predict_many(self, xs) -> np.ndarray:
        return self.combine(self.kernel_estimator.predict_many(xs),
                            lambda ext: ext.predict_many(xs))

    def combine(self, kernel_values, external_values) -> np.ndarray:
        """The prediction at the points where the kernel estimator is ``kernel_values``.

        ``external_values(ext)`` gives a centred external's values there; it is
        called, in order, only for the externals with non-zero weight.
        """
        out = (1.0 - sum(self.theta)) * kernel_values
        for weight, ext in zip(self.theta, self.externals):
            if weight != 0.0:
                out = out + weight * external_values(ext)
        return out

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "theta": list(self.theta),
            "kernel_estimator": self.kernel_estimator.to_json(),
            "externals": [
                {"name": e.name, "training_mean": e.training_mean} for e in self.externals
            ],
        }


@dataclass
class ExternalSpec:
    """An external predictor: a vectorised callable and/or cached value tables."""

    name: str = ""
    fn: object | None = None
    train_values: np.ndarray | None = None
    valid_values: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CenteredExternal:
    """An external predictor minus its training-sample mean, with its centred,
    read-only values on the training and validation samples.  ``raw`` maps an
    (n, d) covariate array to n predictions; None for a table-backed external.
    """

    name: str
    training_mean: float
    raw: object | None
    train_values: np.ndarray
    valid_values: np.ndarray

    def predict_many(self, xs) -> np.ndarray:
        if self.raw is None:
            raise ValueError(
                f"external {self.name!r} is table-backed and cannot be evaluated at new points")
        values = np.asarray(self.raw(as_points(xs)), dtype=float)
        return values - self.training_mean


def _centred_externals(specs: Sequence[ExternalSpec], train: SurvivalDataset,
                       valid: SurvivalDataset) -> list[CenteredExternal]:
    """Each external evaluated once per sample, checked and centred on the training sample."""
    centred = []
    for spec in specs:
        if spec.fn is not None:
            tv, vv = spec.fn(train.covariates), spec.fn(valid.covariates)
        elif spec.train_values is None or spec.valid_values is None:
            raise ValueError(f"external {spec.name!r} needs a callable or value tables")
        else:
            tv, vv = spec.train_values, spec.valid_values
        tv = as_record_values(tv, len(train), f"training values of external {spec.name!r}")
        vv = as_record_values(vv, len(valid), f"validation values of external {spec.name!r}")
        if max(np.abs(tv).max(), np.abs(vv).max()) > EXTERNAL_SUP_BOUND:
            warnings.warn(
                f"external {spec.name!r} exceeds the sup-norm bound {EXTERNAL_SUP_BOUND}")
        mean = float(tv.mean())
        tv, vv = tv - mean, vv - mean
        tv.flags.writeable = vv.flags.writeable = False
        centred.append(CenteredExternal(spec.name, mean, spec.fn, tv, vv))
    return centred


def _scan_level(kernel_values: np.ndarray, externals_sorted: np.ndarray,
                theta_mat: np.ndarray, idx) -> np.ndarray:
    """The validation loss of each theta point at one level, +inf where it cannot win.

    ``kernel_values`` and ``externals_sorted`` hold the level's validation
    predictions and the centred externals in the risk index ``idx``'s sorted
    order.  The module docstring describes the pruning.
    """
    size = len(theta_mat)
    kernel_weight = 1.0 - theta_mat.sum(axis=1)

    def combos(pick):
        return kernel_values[:, None] * kernel_weight[pick] + externals_sorted @ theta_mat[pick].T

    if size <= _ROW_BLOCK:
        return _sorted_neg_log_partial_likelihood(combos(slice(None)), idx)
    losses = np.full(size, np.inf)
    bound = np.full(size, -np.inf)
    directions = externals_sorted - kernel_values[:, None]  # n x M, the derivative of f in theta
    budget = max(len(kernel_values) * _ROW_BLOCK, theta_mat.size)  # cells per temporary
    batch = np.arange(0, size, -(-size // _FIRST_PASS))  # every ceil(P / _FIRST_PASS)-th
    alive = np.ones(size, dtype=bool)
    alive[batch] = False
    alive = np.flatnonzero(alive)  # unscored points that may still win, in grid order
    width, targets = _FIRST_BATCH, None  # the first pass's planes bound every point
    while batch.size:
        pick = _two_wide(batch)
        scored = LikelihoodPass(combos(pick), idx)
        losses[pick] = values = scored.loss()
        slopes = directions.T @ scored.sorted_gradient_weights()  # M x b
        intercepts = values - np.einsum("bm,mb->b", theta_mat[pick], slopes)
        finite = np.isfinite(intercepts) & np.isfinite(slopes).all(axis=0)
        _raise_bounds(bound, targets, theta_mat, slopes[:, finite], intercepts[finite], budget)
        best = losses.min()
        keep = bound[alive] <= best + _PRUNE_SLACK * (1.0 + abs(best))
        if keep.all():  # the planes cut nothing: score the rest without them
            break
        alive = alive[keep]
        lowest = np.argsort(bound[alive], kind="stable")[:width]
        batch = alive[lowest]
        alive = targets = np.delete(alive, lowest)
        width = min(2 * width, _ROW_BLOCK)
    for start in range(0, alive.size, _ROW_BLOCK):
        pick = _two_wide(alive[start:start + _ROW_BLOCK])
        losses[pick] = _sorted_neg_log_partial_likelihood(combos(pick), idx)
    return losses


def _two_wide(pick: np.ndarray) -> np.ndarray:
    """``pick``, with a single point repeated: numpy multiplies one column by
    gemv, whose sums may round unlike the gemm of a block of columns."""
    return np.repeat(pick, 2) if pick.size == 1 else pick


def _raise_bounds(bound, pts, theta_mat, slopes, intercepts, budget):
    """Raise ``bound`` at the points ``pts`` (all when None) to the planes
    intercepts + theta @ slopes, at most ``budget`` cells per temporary."""
    if not intercepts.size:
        return
    rows = max(1, budget // intercepts.size)
    for start in range(0, len(theta_mat) if pts is None else pts.size, rows):
        chunk = slice(start, start + rows) if pts is None else pts[start:start + rows]
        planes = slopes.T @ theta_mat[chunk].T  # one row per plane
        planes += intercepts[:, None]
        bound[chunk] = np.maximum(bound[chunk], planes.max(axis=0))


def fit_care(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
             gammas: GammaGrid, externals: Sequence[ExternalSpec] = (),
             thetas: ThetaGrid | None = None, options: OptimOptions | None = None):
    """Fit the aggregated estimator with cross-validated (gamma, theta).

    Externals are centred on the training sample.  For each gamma the kernel
    estimator is fitted once; the theta scan then combines its validation
    predictions with the externals.  With no externals (the default) this is
    plain gamma cross-validation: the estimator is the kernel fit at
    ``gamma_hat``, the selected theta is empty and ``gamma_check`` is it.

    Returns (care_estimator, report).
    """
    care, report, _ = fit_care_path(train, valid, kernel, gammas, externals, thetas, options)
    return care, report


def fit_care_path(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
                  gammas: GammaGrid, externals: Sequence[ExternalSpec] = (),
                  thetas: ThetaGrid | None = None, options: OptimOptions | None = None):
    """Like fit_care, but also returns the per-gamma fitted estimator map.

    The theta grid and the dimensions are checked, and the externals
    evaluated, checked and centred, before any fit.  Non-converged fits are
    recorded but excluded from both selections; if all fits fail,
    AllFitsFailed is raised.
    """
    if externals:
        if thetas is None:
            raise ValueError("a theta grid is required when externals are given")
        if thetas.num_externals != len(externals):
            raise ValueError("theta grid width must match the number of externals")
    if train.dimension != valid.dimension:
        raise ValueError("training and validation dimensions differ")
    centred = _centred_externals(externals, train, valid)
    fits, preds = _fit_gamma_path(train, valid, kernel, gammas, options)
    if not np.isfinite(preds).all():
        raise DataFormatError("relative-risk values must be finite")
    idx = valid.risk_index()
    valid_losses = _sorted_neg_log_partial_likelihood(preds, idx).tolist()
    entries = [GammaEntry(g, fits[g].train_loss, loss, fits[g].converged)
               for g, loss in zip(gammas.values, valid_losses)]
    levels = [i for i, e in enumerate(entries) if e.converged]  # ascending gamma
    if not levels:
        raise AllFitsFailed("no fit on the gamma grid converged")
    # min keeps the first minimiser, so ties go to the smallest gamma
    gamma_hat = entries[min(levels, key=valid_losses.__getitem__)].gamma
    report = CvReport(gamma_entries=entries, gamma_hat=gamma_hat,
                      gamma_check=gamma_hat, theta_check=())
    if externals:
        # n x M, in the core's sorted order
        externals_sorted = np.stack([ext.valid_values for ext in centred]).T[idx.order]
        theta_mat = thetas.points                      # P x M
        care_losses = np.stack([_scan_level(preds[:, level], externals_sorted, theta_mat, idx)
                                for level in levels])
        # levels ascend and the points are in lexicographic order, so the first
        # minimiser in C order has the smallest gamma, then the smallest theta
        level, p = divmod(int(np.argmin(care_losses)), len(thetas))
        report.care_gammas = tuple(entries[i].gamma for i in levels)
        report.care_thetas, report.care_losses = theta_mat, care_losses
        report.gamma_check, report.theta_check = \
            report.care_gammas[level], tuple(theta_mat[p].tolist())

    care = CareEstimator(
        kernel_estimator=fits[report.gamma_check],
        externals=centred,
        theta=report.theta_check,
        gamma=report.gamma_check,
    )
    return care, report, fits
