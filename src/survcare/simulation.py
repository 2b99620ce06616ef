"""Proportional-hazards data generators with a known relative-risk function.

Both generators use the constant baseline hazard 6 on the unit interval, so
the cumulative hazard is 6t and survival times follow

    T_S = -exp(-f0(X)) * log(U) / 6,   U uniform on (0, 1],

with censoring T_C drawn uniformly on [1/5, 2] and clamped at 1 (the clamp
puts an atom at 1), independent of X.  Records are keyed by (seed, record
index, attempt) through the counter-based Philox4x64-10 generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so generation
order and parallelism never change the data.  Each record's words are a pure
function of its key and counter, so ``simulate_dataset`` computes the streams
of ``_RECORD_BLOCK`` records at a time with numpy array arithmetic, bit for
bit the words and doubles that numpy's ``Philox`` and ``Generator`` give for
that record.  ``true_f0`` and ``external_predictor`` take points as
``data.as_points`` does, with the generator's d, and always return an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, as_points

BASELINE_RATE = 6.0
CENSOR_LOW = 0.2
CENSOR_HIGH = 2.0

_VARIANTS = ("univariate", "multivariate_d10")

# Records simulated per pass: the temporaries of one pass hold this many
# records' words and doubles, whatever n is.
_RECORD_BLOCK = 2**12
# Philox4x64-10's multipliers and key increments (Weyl constants)
_PHILOX_ROUNDS = 10
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LOW32 = 0xFFFFFFFF


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


def _mulhilo(multiplier: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit halves of multiplier * words, from 32-bit partial products."""
    m_lo, m_hi = np.uint64(multiplier & _LOW32), np.uint64(multiplier >> 32)
    w_lo, w_hi = words & np.uint64(_LOW32), words >> np.uint64(32)
    low_low = m_lo * w_lo
    low_high = m_lo * w_hi
    high_low = m_hi * w_lo
    mid = (low_low >> np.uint64(32)) + (low_high & np.uint64(_LOW32)) + \
        (high_low & np.uint64(_LOW32))
    high = m_hi * w_hi + (low_high >> np.uint64(32)) + (high_low >> np.uint64(32)) + \
        (mid >> np.uint64(32))
    return np.uint64(multiplier) * words, high


def _philox_words(key0: int, index: np.ndarray, attempt: int, count: int) -> np.ndarray:
    """The first ``count`` words of each record's stream, one row per record.

    Row r holds what ``np.random.Philox(counter=[0, 0, attempt, 0], key=[key0,
    index[r]]).random_raw(count)`` returns: that generator increments the
    counter before each block of four words, so block b is the Philox4x64-10
    bijection of the counter (b + 1, 0, attempt, 0).
    """
    blocks = -(-count // 4)
    shape = (blocks, index.size)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64)[:, None], shape)
    c1 = c3 = np.zeros(shape, dtype=np.uint64)
    c2 = np.full(shape, attempt, dtype=np.uint64)
    k1 = index.astype(np.uint64)
    for r in range(_PHILOX_ROUNDS):
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        k0 = np.uint64((key0 + r * _PHILOX_W0) % 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + np.uint64(_PHILOX_W1)
    words = np.stack((c0, c1, c2, c3), axis=-1).transpose(1, 0, 2)
    return words.reshape(index.size, 4 * blocks)[:, :count]


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random`` makes them."""
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


def _draw(config: DgpConfig, key0: int, index: np.ndarray, attempt: int):
    """Covariates, survival times and censoring times of one attempt of each record."""
    d = config.dimension
    unit = _unit_doubles(_philox_words(key0, index, attempt, d + 2))
    x = np.ascontiguousarray(unit[:, :d])            # uniform(0, 1, size=d)
    u = 1.0 - unit[:, d]                             # uniform on (0, 1]
    tc = np.minimum(CENSOR_LOW + (CENSOR_HIGH - CENSOR_LOW) * unit[:, d + 1], 1.0)
    f0 = true_f0(config, x)
    # math's exp and log, as each record's draw always used: numpy's round
    # differently in the last bit for about 4% of arguments
    ts = np.array([-math.exp(-f) * math.log(v) / BASELINE_RATE
                   for f, v in zip(f0.tolist(), u.tolist())])
    return x, ts, tc


def simulate_dataset(config: DgpConfig, n: int, seed: int) -> tuple[SurvivalDataset, DgpTruth]:
    """Draw n censored records; deterministic and order-independent given seed.

    Record i's first attempt reads the stream of ``np.random.Philox(counter=
    [0, 0, 0, 0], key=[seed % 2**64, i])`` through a ``Generator``: d
    covariates, then U, then the censoring draw.  A record whose observed
    time is not positive (U == 1.0 exactly) draws again with the counter's
    third word set to the attempt number, up to 100 attempts.  numpy turns
    that key list into words through ``np.asarray``, so a seed at or above
    2**63 enters as its float64 rounding; the key's first word is taken from
    numpy's own normalisation once per call.  The streams of
    ``_RECORD_BLOCK`` records at a time are computed together, bit for bit
    as numpy computes each one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    key0 = int(np.random.Philox(key=[seed % 2**64, 0]).state["state"]["key"][0])
    covs = np.empty((n, config.dimension))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    for start in range(0, n, _RECORD_BLOCK):
        pending = np.arange(start, min(start + _RECORD_BLOCK, n))
        for attempt in range(100):
            x, ts, tc = _draw(config, key0, pending, attempt)
            covs[pending], t_surv[pending], t_cens[pending] = x, ts, tc
            pending = pending[np.minimum(ts, tc) <= 0.0]
            if pending.size == 0:
                break
    times = np.minimum(t_surv, t_cens)
    censored = t_cens < t_surv
    dataset = SurvivalDataset(covs, times, censored, time_scale=1.0)
    truth = DgpTruth(config=config, covariates=covs, survival_times=t_surv, censor_times=t_cens)
    return dataset, truth
