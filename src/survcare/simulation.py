"""Proportional-hazards data generators with a known relative-risk function.

Both generators use the constant baseline hazard 6 on the unit interval, so
the cumulative hazard is 6t and survival times follow

    T_S = -exp(-f0(X)) * log(V) / 6,   V uniform on [0, 1),

with censoring T_C drawn uniformly on [1/5, 2] and clamped at 1 (the clamp
puts an atom at 1), independent of X.  V = 0 (probability 2**-53 per record)
gives T_S = +inf, a record censored at T_C, so every observed time is
positive.  A dataset is one stream of numpy's Philox4x64-10 generator
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
keyed by the exact 64-bit seed.  ``true_f0`` and ``external_predictor`` take
points as ``data.as_points`` does, with the generator's d, and always return
an array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, as_points

BASELINE_RATE = 6.0
CENSOR_LOW = 0.2
CENSOR_HIGH = 2.0

_VARIANTS = ("univariate", "multivariate_d10")

# Records simulated per pass: the temporaries of one pass hold this many
# records' doubles, whatever n is.
_RECORD_BLOCK = 2**12


@dataclass(frozen=True)
class DgpConfig:
    variant: str = "univariate"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")

    @property
    def dimension(self) -> int:
        return 1 if self.variant == "univariate" else 10


def true_f0(config: DgpConfig, x) -> np.ndarray:
    """True log relative risk at the points ``x``; integrates to zero over the covariate law.

    Univariate: 2 sin(2x) - 2 sin^2(1).  Multivariate: the same shape summed
    over the first five coordinates.
    """
    pts = as_points(x, config.dimension)
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("covariates must lie in [0, 1]")
    if config.variant == "univariate":
        return 2.0 * np.sin(2.0 * pts[:, 0]) - 2.0 * math.sin(1.0) ** 2
    return (2.0 * np.sin(2.0 * pts[:, :5]) - 2.0 * math.sin(1.0) ** 2).sum(axis=1)


def external_predictor(config: DgpConfig, x) -> np.ndarray:
    """Fixed external risk model used alongside each generator, at the points ``x``.

    Univariate: a perturbed version of the true risk,
    2 sin(3x/2) - (8/3) sin^2(3/4).  Multivariate: the best linear fit to the
    per-coordinate risk shape on the first four coordinates,
    sum_j (sin 2 - cos 2 - 1)(6 x_j - 3).  Both have zero mean under the
    covariate law.
    """
    pts = as_points(x, config.dimension)
    if config.variant == "univariate":
        return 2.0 * np.sin(1.5 * pts[:, 0]) - (8.0 / 3.0) * math.sin(0.75) ** 2
    slope = math.sin(2.0) - math.cos(2.0) - 1.0
    return (slope * (6.0 * pts[:, :4] - 3.0)).sum(axis=1)


def covariate_sampler(config: DgpConfig):
    """Sampler of the covariate law, suitable for Monte-Carlo integration."""
    d = config.dimension

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=(n, d))

    return sample


@dataclass
class DgpTruth:
    """Oracle view of a simulated dataset: closed forms and raw draws.

    ``survival_times`` and ``censor_times`` are kept for diagnostics only;
    the estimators never see them.  A survival time may be +inf (V = 0).
    """

    config: DgpConfig
    covariates: np.ndarray
    survival_times: np.ndarray
    censor_times: np.ndarray

    def f0(self, x):
        return true_f0(self.config, x)

    def external(self, x):
        return external_predictor(self.config, x)

    def sampler(self):
        return covariate_sampler(self.config)


def _records(config: DgpConfig, unit: np.ndarray):
    """Covariates, survival times and censoring times of rows of d + 2 unit doubles."""
    d = config.dimension
    x = np.ascontiguousarray(unit[:, :d])
    with np.errstate(divide="ignore"):  # V == 0 gives T_S = +inf: censored at T_C
        ts = -np.exp(-true_f0(config, x)) * np.log(unit[:, d]) / BASELINE_RATE
    tc = np.minimum(CENSOR_LOW + (CENSOR_HIGH - CENSOR_LOW) * unit[:, d + 1], 1.0)
    return x, ts, tc


def simulate_dataset(config: DgpConfig, n: int, seed: int) -> tuple[SurvivalDataset, DgpTruth]:
    """Draw n censored records; deterministic given seed.

    One ``np.random.Generator(np.random.Philox(key=seed % 2**64))`` gives
    every unit double, row by row: record i reads row i, its d covariates,
    then V, then the censoring draw.  The rows are drawn ``_RECORD_BLOCK`` at
    a time, so the first k records of an n-record draw are the k-record draw.
    ``seed`` may be any integer, numpy's included; a float raises TypeError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = config.dimension
    rng = np.random.Generator(np.random.Philox(key=operator.index(seed) % 2**64))
    covs = np.empty((n, d))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    for start in range(0, n, _RECORD_BLOCK):
        rows = slice(start, min(start + _RECORD_BLOCK, n))
        covs[rows], t_surv[rows], t_cens[rows] = _records(
            config, rng.random((rows.stop - start, d + 2)))
    times = np.minimum(t_surv, t_cens)
    censored = t_cens < t_surv
    dataset = SurvivalDataset(covs, times, censored)
    truth = DgpTruth(config=config, covariates=covs, survival_times=t_surv, censor_times=t_cens)
    return dataset, truth
