"""Survival-curve estimation, concordance, and Monte-Carlo L2 error.

Concordance uses strict inequality on predictions, exactly

    sum_{i,j} 1{f(X_i) < f(X_j)} 1{T_i > T_j} (1 - I_j)
    -------------------------------------------------- ,
    sum_{i,j} 1{T_i > T_j} (1 - I_j)

so tied predictions earn zero credit.  Note that many other packages award
0.5 credit for prediction ties; a constant predictor scores 0 here, not 0.5.
``concordance_index`` counts the pairs in O(n log n) with a Fenwick tree
over prediction ranks, walking tie groups of times from the latest down.

The Breslow curve is the exponentiated negative Breslow cumulative hazard,
and ``l2_error_mc`` is the Monte-Carlo root mean squared gap between a fit
and the true risk function, the error the replication studies report.  It
scores one fit, or the columns of an (n, k) array of fits at one design,
each column bit for bit as it would score alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, SurvivalDataset, as_record_values, write_table


class NoComparablePairsError(ValueError):
    """The concordance denominator is zero: no usable (event, survivor) pairs."""


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous step survival curve: value 1 before the first jump."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size and (np.any(np.diff(t) <= 0) or t.min() <= 0):
            raise ValueError("jump times must be positive and strictly increasing")
        if v.size and (np.any(np.diff(v) >= 0) or v.min() <= 0 or v.max() > 1):
            raise ValueError("values must be strictly decreasing within (0, 1]")
        for arr in (t, v):
            arr.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def to_csv(self, path) -> None:
        write_table(path, ["t", "survival"], [(0.0, 1.0), *zip(self.times, self.values)])


def breslow_survival(data: SurvivalDataset) -> StepSurvival:
    """Exponentiated negative cumulative-hazard step estimate of P(T_S > t).

    At a tied event time every event contributes one increment 1/R(s) with the
    same risk-set count R(s) = #{j : T_j >= s}.
    """
    idx = data.risk_index()
    n = len(data)
    if not idx.event_positions.size:
        return StepSurvival(np.empty(0), np.empty(0))
    risk_counts = n - idx.event_start        # #{T_j >= T_i}, ties included
    event_times = idx.times_sorted[idx.event_positions]
    jumps, first = np.unique(event_times, return_index=True)
    increments = np.add.reduceat(1.0 / risk_counts, first)
    values = np.exp(-np.cumsum(increments))
    return StepSurvival(jumps, values)


class _Fenwick:
    def __init__(self, size: int):
        self.tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, i: int) -> None:
        i += 1
        while i < self.tree.shape[0]:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, count: int) -> int:
        """Total of the first ``count`` slots."""
        total = 0
        i = count
        while i > 0:
            total += int(self.tree[i])
            i -= i & (-i)
        return total


def concordance_index(predictions, data: SurvivalDataset) -> float:
    """Concordance index in O(n log n) via a Fenwick tree over prediction ranks."""
    predictions = as_record_values(predictions, len(data), "predictions")
    idx = data.risk_index()
    preds_sorted = predictions[idx.order]
    ranks = np.searchsorted(np.unique(preds_sorted), preds_sorted)
    tree = _Fenwick(int(ranks.max()) + 1)
    ev = idx.event_sorted
    n = len(data)
    num = 0
    den = 0
    pos = n - 1
    inserted = 0
    while pos >= 0:
        start = idx.group_start[pos]
        for p in range(start, pos + 1):      # query events against strictly later times
            if ev[p]:
                den += inserted
                num += tree.prefix(int(ranks[p]))
        for p in range(start, pos + 1):
            tree.add(int(ranks[p]))
            inserted += 1
        pos = start - 1
    if den == 0:
        raise NoComparablePairsError("no comparable pairs for the concordance index")
    return num / den


def l2_error_mc(predict, truth, sampler, n_mc: int, seed: int):
    """Root mean squared gap between fitted values and the truth over sampled covariates.

    ``sampler(n, rng)`` draws an (n, d) design, deterministic given the seed;
    ``truth`` gives n values there.  ``predict`` gives n values, scored as a
    float, or an (n, k) array of k fits, scored as k errors: each column is
    reduced as one contiguous row, bit for bit its error alone.  Any other
    shape from either callable is refused, never broadcast.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    xs = sampler(n_mc, np.random.Generator(np.random.Philox(key=seed % 2**64)))
    fitted = np.asarray(predict(xs), dtype=float)
    if fitted.ndim not in (1, 2) or fitted.shape[0] != n_mc:
        raise DataFormatError(f"expected {n_mc} fitted values or rows of them, "
                              f"got shape {fitted.shape}")
    diff = np.ascontiguousarray(fitted.T) - as_record_values(truth(xs), n_mc, "true values")
    if not np.all(np.isfinite(diff)):
        raise ValueError("functions produced non-finite values")
    errors = np.sqrt(np.mean(diff**2, axis=-1))
    return float(errors) if fitted.ndim == 1 else errors
