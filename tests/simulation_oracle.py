"""Reference generator: each record drawn from its own numpy Philox Generator.

``simulate_dataset`` computes every record's Philox stream in bulk; this is
the record-by-record loop it must match byte for byte.
"""

import math

import numpy as np

from survcare.simulation import BASELINE_RATE, CENSOR_HIGH, CENSOR_LOW, true_f0


def record_rng(seed: int, index: int, attempt: int) -> np.random.Generator:
    bits = np.random.Philox(
        counter=[0, 0, attempt, 0],
        key=[seed % 2**64, index % 2**64],
    )
    return np.random.Generator(bits)


def simulate_arrays(config, n: int, seed: int) -> dict[str, np.ndarray]:
    """The five arrays of a simulated dataset, one Generator per record and attempt."""
    d = config.dimension
    covs = np.empty((n, d))
    t_surv = np.empty(n)
    t_cens = np.empty(n)
    times = np.empty(n)
    censored = np.empty(n, dtype=bool)
    for i in range(n):
        for attempt in range(100):
            rng = record_rng(seed, i, attempt)
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
