"""Cross-validated selection of the regularisation level and aggregation weights.

The regularisation path is fitted in decreasing order, warm-starting each fit
at the previous solution; only the optimisation is repeated per level since
the representer context is shared.  The validation predictions of every level
come from one cross matrix between the validation points and the basis,
computed once per path.  Aggregation with external predictors, centred on
the training sample and checked against ``EXTERNAL_SUP_BOUND`` on both
samples (a warning, not an error), then scans a simplex lattice of convex
weights against those cached predictions.  The scan costs O(|Theta| * n)
flops per level, spent in ceil(|Theta| / _ROW_BLOCK) calls of the likelihood
core: the centred externals are put in the validation set's sorted order once
per path and each level's predictions once per level, so every block of
combinations is built directly in the core's sorted (n, block) layout and
shares one exponential, suffix-sum and log pass, where a per-vector loop
would repeat that work, and the call overhead, for every weight vector.  The
report keeps the scan as one (levels x |Theta|) loss array, not as one
object per (level, point).

Ties are broken toward the smallest regularisation value and then the
lexicographically smallest weight vector, which fixes a total order for the
selection and makes reruns deterministic.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalDataset
from .estimators import (
    CenteredExternal,
    KernelEstimator,
    fit_kernel_estimator,
)
from .kernels import KernelConfig
from .optimizer import OptimOptions
from .partial_likelihood import (
    _ROW_BLOCK,
    RepresenterContext,
    _sorted_neg_log_partial_likelihood,
    neg_log_partial_likelihood,
)

THETA_GRID_LIMIT = 1_000_000
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


@dataclass(frozen=True)
class ThetaGrid:
    """Finite set of convex weight vectors over the external predictors.

    ``points`` holds each vector as a tuple of floats; ``array`` holds the
    same values as a read-only (|points|, num_externals) float array.
    """

    points: tuple[tuple[float, ...], ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "points", tuple(map(tuple, pts.tolist())))
        object.__setattr__(self, "array", pts)

    @property
    def num_externals(self) -> int:
        return len(self.points[0])

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


def validation_loss(predicted, valid: SurvivalDataset) -> float | np.ndarray:
    """Negative log-partial likelihood of predictions on the validation data.

    ``predicted`` is one prediction vector, giving a float, or a (P, n) stack
    of them, giving the P losses.
    """
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
    """Read-only view of a report's theta scan as ``CareEntry`` objects.

    Entries run level by level (ascending gamma), and within a level in the
    grid's order; each is built when it is read.
    """

    def __init__(self, report: "CvReport"):
        self._report = report

    def __len__(self) -> int:
        return self._report.care_losses.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, size = operator.index(i), len(self)
        if not -size <= i < size:
            raise IndexError("care entry index out of range")
        report = self._report
        level, p = divmod(i % size, len(report.care_thetas))
        return CareEntry(report.care_gammas[level], report.care_thetas[p],
                         float(report.care_losses[level, p]))

    def __iter__(self):
        report = self._report
        for gamma, losses in zip(report.care_gammas, report.care_losses.tolist()):
            for theta, loss in zip(report.care_thetas, losses):
                yield CareEntry(gamma, theta, loss)


@dataclass
class CvReport:
    """Per-level losses and the selection trace of a cross-validation run.

    The theta scan is stored as columns: ``care_losses[l, p]`` is the
    validation loss of the combination at ``care_gammas[l]``, the converged
    levels in ascending order, and ``care_thetas[p]``, the grid's points.
    Without externals all three are empty.  ``care_entries`` views the scan
    as one ``CareEntry`` per (level, point).
    """

    gamma_entries: list[GammaEntry] = field(default_factory=list)
    care_gammas: tuple[float, ...] = ()
    care_thetas: tuple[tuple[float, ...], ...] = ()
    care_losses: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    gamma_hat: float | None = None
    gamma_check: float | None = None
    theta_check: tuple[float, ...] | None = None
    best_theta_per_gamma: dict[float, tuple[float, ...]] = field(default_factory=dict)

    @property
    def care_entries(self) -> CareEntries:
        return CareEntries(self)

    def to_csv(self, path) -> None:
        num_theta = len(self.care_thetas[0]) if self.care_losses.size else 0
        theta_cols = [f"theta_{m + 1}" for m in range(num_theta)]
        by_gamma = {e.gamma: e for e in self.gamma_entries}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", *theta_cols, "train_loss", "valid_loss", "converged"])
            if self.care_losses.size:
                theta_cells = [[repr(t) for t in theta] for theta in self.care_thetas]
                for gamma, losses in zip(self.care_gammas, self.care_losses.tolist()):
                    g = by_gamma[gamma]
                    writer.writerows([
                        repr(gamma), *cells, repr(g.train_loss), repr(loss), int(g.converged),
                    ] for cells, loss in zip(theta_cells, losses))
            else:
                for g in self.gamma_entries:
                    writer.writerow([
                        repr(g.gamma), repr(g.train_loss), repr(g.valid_loss), int(g.converged),
                    ])

    def summary(self) -> dict:
        out = {
            "gamma_hat": self.gamma_hat,
            "gamma_check": self.gamma_check,
            "theta_check": list(self.theta_check) if self.theta_check is not None else None,
            "num_gamma": len(self.gamma_entries),
            "num_converged": sum(e.converged for e in self.gamma_entries),
        }
        converged = [e for e in self.gamma_entries if e.converged]
        if converged and self.gamma_hat is not None:
            out["valid_loss_at_gamma_hat"] = min(
                e.valid_loss for e in converged if e.gamma == self.gamma_hat
            )
        return out


def _fit_gamma_path(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
                    grid: GammaGrid, options: OptimOptions | None):
    """Fit every grid value in decreasing order with warm starts.

    Returns (fits, report_entries, valid_predictions) keyed/ordered by
    gamma.  Every fit shares the basis and kbar of one context, so the
    centred cross matrix between the validation points and the basis is
    computed once and each level's validation predictions are one product
    with its beta.
    """
    if train.dimension != valid.dimension:
        raise ValueError("training and validation dimensions differ")
    ctx = RepresenterContext.build(train, kernel)
    fits: dict[float, KernelEstimator] = {}
    entries: dict[float, GammaEntry] = {}
    valid_preds: dict[float, np.ndarray] = {}
    valid_sections = None
    warm = None
    for gamma in reversed(grid.values):
        est = fit_kernel_estimator(train, kernel, gamma, options, warm=warm, ctx=ctx)
        warm = est.beta
        train_loss = neg_log_partial_likelihood(ctx.fitted_values(est.beta), train)
        if valid_sections is None:
            valid_sections = est._centred_sections(valid.covariates)
        preds = valid_sections @ est.beta
        fits[gamma] = est
        valid_preds[gamma] = preds
        entries[gamma] = GammaEntry(
            gamma=gamma,
            train_loss=train_loss,
            valid_loss=validation_loss(preds, valid),
            converged=est.converged,
        )
    ordered = [entries[g] for g in grid.values]
    return fits, ordered, valid_preds


def _select_gamma(entries: list[GammaEntry]) -> float:
    best_gamma, best_loss = None, math.inf
    for e in entries:  # ascending gamma; strict < keeps the smallest minimiser
        if e.converged and e.valid_loss < best_loss:
            best_gamma, best_loss = e.gamma, e.valid_loss
    if best_gamma is None:
        raise AllFitsFailed("no fit on the gamma grid converged")
    return best_gamma


def cross_validate_gamma(train: SurvivalDataset, valid: SurvivalDataset,
                         kernel: KernelConfig, grid: GammaGrid,
                         options: OptimOptions | None = None):
    """Select the regularisation level by validation likelihood.

    Returns (gamma_hat, report, fits) where fits maps each grid value to its
    fitted estimator.  Non-converged fits are recorded but excluded from the
    selection; if all fits fail, AllFitsFailed is raised.
    """
    fits, entries, _ = _fit_gamma_path(train, valid, kernel, grid, options)
    gamma_hat = _select_gamma(entries)
    report = CvReport(gamma_entries=entries, gamma_hat=gamma_hat)
    return gamma_hat, report, fits


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
        return self.combine(self.kernel_estimator.predict_many(xs), xs)

    def combine(self, kernel_values, xs) -> np.ndarray:
        """The prediction at xs from the kernel estimator's values there.

        A caller that already holds those values, as a study scoring a whole
        path at shared points does, need not evaluate the kernel again.
        """
        out = (1.0 - sum(self.theta)) * kernel_values
        for weight, ext in zip(self.theta, self.externals):
            if weight != 0.0:
                out = out + weight * ext.predict_many(xs)
        return out

    def predict(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.predict_many(x[None, :])[0])

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


def _external_values(spec: ExternalSpec, train: SurvivalDataset, valid: SurvivalDataset):
    if spec.fn is not None:
        tv = np.asarray(spec.fn(train.covariates), dtype=float)
        vv = np.asarray(spec.fn(valid.covariates), dtype=float)
    else:
        if spec.train_values is None or spec.valid_values is None:
            raise ValueError(f"external {spec.name!r} needs a callable or value tables")
        tv = np.asarray(spec.train_values, dtype=float)
        vv = np.asarray(spec.valid_values, dtype=float)
    if tv.shape != (len(train),):
        raise ValueError(f"external {spec.name!r}: expected {len(train)} training values")
    if vv.shape != (len(valid),):
        raise ValueError(f"external {spec.name!r}: expected {len(valid)} validation values")
    if not (np.all(np.isfinite(tv)) and np.all(np.isfinite(vv))):
        raise ValueError(f"external {spec.name!r} produced non-finite values")
    if max(np.abs(tv).max(), np.abs(vv).max()) > EXTERNAL_SUP_BOUND:
        warnings.warn(
            f"external {spec.name!r} exceeds the sup-norm bound {EXTERNAL_SUP_BOUND}")
    return tv, vv


def _centred_externals(externals: list[ExternalSpec], train: SurvivalDataset,
                       valid: SurvivalDataset):
    """The externals centred on the training sample, and their centred
    validation values as an (M, len(valid)) matrix."""
    centred: list[CenteredExternal] = []
    centred_valid = np.empty((len(externals), len(valid)))
    for m, spec in enumerate(externals):
        tv, vv = _external_values(spec, train, valid)
        mean = float(tv.mean())
        centred.append(CenteredExternal(training_mean=mean, raw=spec.fn, name=spec.name))
        centred_valid[m] = vv - mean
    return centred, centred_valid


def fit_care(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
             gammas: GammaGrid, externals: list[ExternalSpec], thetas: ThetaGrid | None,
             options: OptimOptions | None = None):
    """Fit the aggregated estimator with cross-validated (gamma, theta).

    Externals are centred on the training sample.  For each gamma the kernel
    estimator is fitted once; the theta scan then combines cached validation
    prediction vectors.  With no externals this degrades to plain gamma
    cross-validation and the selected theta is empty.

    Returns (care_estimator, report).
    """
    care, report, _ = fit_care_path(train, valid, kernel, gammas, externals, thetas, options)
    return care, report


def fit_care_path(train: SurvivalDataset, valid: SurvivalDataset, kernel: KernelConfig,
                  gammas: GammaGrid, externals: list[ExternalSpec], thetas: ThetaGrid | None,
                  options: OptimOptions | None = None):
    """Like fit_care, but also returns the per-gamma fitted estimator map."""
    fits, entries, valid_preds = _fit_gamma_path(train, valid, kernel, gammas, options)
    gamma_hat = _select_gamma(entries)

    if not externals:
        report = CvReport(
            gamma_entries=entries, gamma_hat=gamma_hat,
            gamma_check=gamma_hat, theta_check=(),
        )
        care = CareEstimator(
            kernel_estimator=fits[gamma_hat], externals=[], theta=(), gamma=gamma_hat,
        )
        return care, report, fits

    if thetas is None:
        raise ValueError("a theta grid is required when externals are given")
    if thetas.num_externals != len(externals):
        raise ValueError("theta grid width must match the number of externals")

    centred, centred_valid = _centred_externals(externals, train, valid)
    idx = valid.risk_index()
    externals_sorted = centred_valid.T[idx.order]  # n x M, in the core's sorted order
    theta_mat = thetas.array                       # P x M
    kernel_weight = 1.0 - theta_mat.sum(axis=1)    # P
    levels = [e.gamma for e in entries if e.converged]  # ascending gamma
    care_losses = np.empty((len(levels), len(thetas)))
    best_theta_per_gamma: dict[float, tuple[float, ...]] = {}
    best: tuple[float, tuple[float, ...]] | None = None
    best_loss = math.inf
    for gamma, losses in zip(levels, care_losses):
        preds_sorted = valid_preds[gamma][idx.order]
        for start in range(0, len(thetas), _ROW_BLOCK):  # bounded blocks of combinations
            cols = slice(start, start + _ROW_BLOCK)
            combos = preds_sorted[:, None] * kernel_weight[cols] + \
                externals_sorted @ theta_mat[cols].T
            losses[cols] = _sorted_neg_log_partial_likelihood(combos, idx)
        # the points are in lexicographic order, so the first minimiser is the
        # lexicographically smallest
        p = int(np.argmin(losses))
        local_best, local_loss = thetas.points[p], float(losses[p])
        best_theta_per_gamma[gamma] = local_best
        if local_loss < best_loss:
            best, best_loss = (gamma, local_best), local_loss

    gamma_check, theta_check = best
    report = CvReport(
        gamma_entries=entries,
        care_gammas=tuple(levels),
        care_thetas=thetas.points,
        care_losses=care_losses,
        gamma_hat=gamma_hat,
        gamma_check=gamma_check,
        theta_check=theta_check,
        best_theta_per_gamma=best_theta_per_gamma,
    )
    care = CareEstimator(
        kernel_estimator=fits[gamma_check],
        externals=centred,
        theta=theta_check,
        gamma=gamma_check,
    )
    return care, report, fits
