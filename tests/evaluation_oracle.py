"""Evaluation oracles: step-curve lookup, quadratic-time concordance and fresh survival draws.

``step_survival_at`` reads a ``StepSurvival`` curve at given times.
``concordance_index_reference`` counts comparable pairs straight from the
definition in ``survcare.evaluation``, the reference for the library's
Fenwick-tree concordance.  ``simulate_survival_times`` draws uncensored
survival times of the univariate or multivariate generator, vectorised, so a
Monte-Carlo survival curve can be set against the Breslow estimate.
"""

import numpy as np

from survcare.evaluation import NoComparablePairsError
from survcare.simulation import BASELINE_RATE, true_f0


def step_survival_at(curve, ts):
    """A right-continuous step curve's values at the times ``ts``: 1 before its first jump."""
    pos = np.searchsorted(curve.times, np.asarray(ts, dtype=float), side="right")
    return np.concatenate(([1.0], curve.values))[pos]


def concordance_index_reference(predictions, data) -> float:
    """Quadratic-time concordance, the oracle for the sorted implementation."""
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (len(data),):
        raise ValueError(f"expected {len(data)} predictions")
    times = data.times
    events = data.events
    num = 0
    den = 0
    for j in range(len(data)):
        if not events[j]:
            continue
        comparable = times > times[j]
        den += int(comparable.sum())
        num += int((comparable & (predictions < predictions[j])).sum())
    if den == 0:
        raise NoComparablePairsError("no comparable pairs for the concordance index")
    return num / den


def simulate_survival_times(config, n: int, seed: int) -> np.ndarray:
    """Vectorised fresh draws of uncensored survival times, for oracle curves."""
    rng = np.random.Generator(np.random.Philox(key=seed % 2**64))
    xs = rng.uniform(0.0, 1.0, size=(n, config.dimension))
    u = 1.0 - rng.random(n)
    return -np.exp(-true_f0(config, xs)) * np.log(u) / BASELINE_RATE
