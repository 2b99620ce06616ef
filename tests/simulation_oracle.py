"""Reference generators for ``simulate_dataset``.

``row_by_row_arrays`` is the current draw, one ``rng.random(d + 2)`` per
record from the dataset's single Philox Generator; ``simulate_dataset``
draws the same rows in blocks and must match it byte for byte.

``legacy_draw`` is the earlier generator: each record drawn from its own
Philox Generator keyed by (seed, record index, attempt), with a redraw while
the observed time is not positive.  Tests pinned to a draw on which a defect
once showed build that draw with it, so their data stay as they were.
"""

import math

import numpy as np

from survcare import SurvivalDataset
from survcare.simulation import BASELINE_RATE, CENSOR_HIGH, CENSOR_LOW, true_f0


def row_by_row_arrays(config, n: int, seed: int) -> dict[str, np.ndarray]:
    """The five arrays of a simulated dataset, one Generator call per record."""
    d = config.dimension
    rng = np.random.Generator(np.random.Philox(key=seed % 2**64))
    covs = np.empty((n, d))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    for i in range(n):
        row = rng.random(d + 2)
        covs[i] = row[:d]
        with np.errstate(divide="ignore"):
            t_surv[i] = (-np.exp(-true_f0(config, row[None, :d])) * np.log(row[d:d + 1])
                         / BASELINE_RATE)[0]
        t_cens[i] = min(CENSOR_LOW + (CENSOR_HIGH - CENSOR_LOW) * row[d + 1], 1.0)
    return {"covariates": covs, "times": np.minimum(t_surv, t_cens),
            "censored": t_cens < t_surv, "survival_times": t_surv, "censor_times": t_cens}


def _legacy_record_rng(seed: int, index: int, attempt: int) -> np.random.Generator:
    bits = np.random.Philox(
        counter=[0, 0, attempt, 0],
        key=[seed % 2**64, index % 2**64],
    )
    return np.random.Generator(bits)


def legacy_draw_arrays(config, n: int, seed: int) -> dict[str, np.ndarray]:
    """The five arrays of the earlier generator's draw, one Generator per record and attempt."""
    d = config.dimension
    covs = np.empty((n, d))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    times = np.empty(n)
    censored = np.empty(n, dtype=bool)
    for i in range(n):
        for attempt in range(100):
            rng = _legacy_record_rng(seed, i, attempt)
            x = rng.uniform(0.0, 1.0, size=d)
            u = 1.0 - rng.random()           # uniform on (0, 1]
            tc = min(rng.uniform(CENSOR_LOW, CENSOR_HIGH), 1.0)
            ts = -math.exp(-true_f0(config, x[None, :])[0]) * math.log(u) / BASELINE_RATE
            t = min(ts, tc)
            if t > 0.0:                      # u == 1.0 exactly never survives this guard
                break
        covs[i] = x
        t_surv[i] = ts
        t_cens[i] = tc
        times[i] = t
        censored[i] = tc < ts
    return {"covariates": covs, "times": times, "censored": censored,
            "survival_times": t_surv, "censor_times": t_cens}


def legacy_draw(config, n: int, seed: int) -> SurvivalDataset:
    """The dataset the earlier generator drew for (n, seed)."""
    arrays = legacy_draw_arrays(config, n, seed)
    return SurvivalDataset(arrays["covariates"], arrays["times"], arrays["censored"])
