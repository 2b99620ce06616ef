"""Oracles for the simplex lattice of CARE weights and its scan.

The library enumerates the lattice by stars and bars.  The reference here is
the original enumeration: a recursion that fixes one coordinate at a time, in
increasing order, and gives the last coordinate every value the remaining
budget allows, which yields the points in lexicographic order.

The library scores only the weight vectors that can still be selected.
``exhaustive_care_losses`` is the exhaustive scan it replaced: every point at
every level, in blocks of ``_ROW_BLOCK`` consecutive points, each block one
call of the likelihood core.
"""

import numpy as np

from survcare.model_selection import _ROW_BLOCK
from survcare.partial_likelihood import _sorted_neg_log_partial_likelihood


def recursive_theta_points(num_externals: int, resolution: int) -> tuple[tuple[float, ...], ...]:
    """All (k_1, ..., k_M) / resolution with k_m >= 0 and sum k_m <= resolution."""
    points: list[tuple[float, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == num_externals - 1:
            for k in range(remaining + 1):
                points.append((*prefix, k))
            return
        for k in range(remaining + 1):
            extend((*prefix, k), remaining - k)

    extend((), resolution)
    return tuple(tuple(k / resolution for k in p) for p in points)


def exhaustive_care_losses(kernel_predictions, external_values, thetas, valid) -> np.ndarray:
    """The (levels x |thetas|) validation losses of every combination.

    ``kernel_predictions`` holds one level's validation predictions per
    entry, ``external_values`` the centred validation values of each
    external, both in record order, and ``thetas`` is a (P x M) array.
    """
    idx = valid.risk_index()
    externals_sorted = np.stack(external_values).T[idx.order]
    kernel_weight = 1.0 - thetas.sum(axis=1)
    losses = np.empty((len(kernel_predictions), len(thetas)))
    for level, kernel in enumerate(kernel_predictions):
        kernel_sorted = np.asarray(kernel)[idx.order]
        for start in range(0, len(thetas), _ROW_BLOCK):
            cols = slice(start, start + _ROW_BLOCK)
            combos = kernel_sorted[:, None] * kernel_weight[cols] + \
                externals_sorted @ thetas[cols].T
            losses[level, cols] = _sorted_neg_log_partial_likelihood(combos, idx)
    return losses
