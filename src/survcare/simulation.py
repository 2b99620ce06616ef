"""Proportional-hazards data generators with a known relative-risk function.

Both generators use the constant baseline hazard 6 on the unit interval, so
the cumulative hazard is 6t and survival times follow

    T_S = -exp(-f0(X)) * log(U) / 6,   U uniform on (0, 1],

with censoring T_C drawn uniformly on [1/5, 2] and clamped at 1 (the clamp
puts an atom at 1), independent of X.  Records are keyed by (seed, record
index, attempt) through a counter-based generator, so generation order and
parallelism never change the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset

BASELINE_RATE = 6.0
CENSOR_LOW = 0.2
CENSOR_HIGH = 2.0

_VARIANTS = ("univariate", "multivariate_d10")


@dataclass(frozen=True)
class DgpConfig:
    variant: str = "univariate"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")

    @property
    def dimension(self) -> int:
        return 1 if self.variant == "univariate" else 10


def true_f0(config: DgpConfig, x) -> np.ndarray | float:
    """True log relative risk; integrates to zero over the covariate law.

    Univariate: 2 sin(2x) - 2 sin^2(1).  Multivariate: the same shape summed
    over the first five coordinates.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x[None, :] if scalar else x
    if pts.shape[1] != config.dimension:
        raise ValueError(f"expected dimension {config.dimension}")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("covariates must lie in [0, 1]")
    if config.variant == "univariate":
        out = 2.0 * np.sin(2.0 * pts[:, 0]) - 2.0 * math.sin(1.0) ** 2
    else:
        out = (2.0 * np.sin(2.0 * pts[:, :5]) - 2.0 * math.sin(1.0) ** 2).sum(axis=1)
    return float(out[0]) if scalar else out


def external_predictor(config: DgpConfig, x) -> np.ndarray | float:
    """Fixed external risk model used alongside each generator.

    Univariate: a perturbed version of the true risk,
    2 sin(3x/2) - (8/3) sin^2(3/4).  Multivariate: the best linear fit to the
    per-coordinate risk shape on the first four coordinates,
    sum_j (sin 2 - cos 2 - 1)(6 x_j - 3).  Both have zero mean under the
    covariate law.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x[None, :] if scalar else x
    if pts.shape[1] != config.dimension:
        raise ValueError(f"expected dimension {config.dimension}")
    if config.variant == "univariate":
        out = 2.0 * np.sin(1.5 * pts[:, 0]) - (8.0 / 3.0) * math.sin(0.75) ** 2
    else:
        slope = math.sin(2.0) - math.cos(2.0) - 1.0
        out = (slope * (6.0 * pts[:, :4] - 3.0)).sum(axis=1)
    return float(out[0]) if scalar else out


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
    the estimators never see them.
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


def _record_rng(seed: int, index: int, attempt: int) -> np.random.Generator:
    bits = np.random.Philox(
        counter=[0, 0, attempt, 0],
        key=[seed % 2**64, index % 2**64],
    )
    return np.random.Generator(bits)


def simulate_dataset(config: DgpConfig, n: int, seed: int) -> tuple[SurvivalDataset, DgpTruth]:
    """Draw n censored records; deterministic and order-independent given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = config.dimension
    covs = np.empty((n, d))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    times = np.empty(n)
    censored = np.empty(n, dtype=bool)
    for i in range(n):
        for attempt in range(100):
            rng = _record_rng(seed, i, attempt)
            x = rng.uniform(0.0, 1.0, size=d)
            u = 1.0 - rng.random()           # uniform on (0, 1]
            tc = min(rng.uniform(CENSOR_LOW, CENSOR_HIGH), 1.0)
            ts = -math.exp(-true_f0(config, x)) * math.log(u) / BASELINE_RATE
            t = min(ts, tc)
            if t > 0.0:                      # u == 1.0 exactly never survives this guard
                break
        covs[i] = x
        t_surv[i] = ts
        t_cens[i] = tc
        times[i] = t
        censored[i] = tc < ts
    dataset = SurvivalDataset(covs, times, censored, time_scale=1.0)
    truth = DgpTruth(config=config, covariates=covs, survival_times=t_surv, censor_times=t_cens)
    return dataset, truth
