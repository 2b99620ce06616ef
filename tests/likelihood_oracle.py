"""Partial-likelihood oracles, written from the definitions.

The library evaluates the likelihood and its gradient weights with one sort
by time, a suffix sum and log-space fallbacks.  The references here loop over
events and build each risk set {j : T_j >= T_i} by comparison, ties included,
in O(n^2).  Log-sums go through ``np.logaddexp.reduce``, so they stay finite
at any spread of f.  ``penalized_objective`` is the penalised objective in
theta coordinates, with the penalty ||R theta||^2 that defines the problem,
the function whose finite differences check the library's analytic
``penalized_gradient``.  Its design is ``ktilde_design``, the centred kernel
sections formed afresh from the kernel, so it does not read the design the
library stores in preconditioned coordinates.
"""

import math

import numpy as np

from survcare.kernels import gram_matrix
from survcare.partial_likelihood import neg_log_partial_likelihood


def naive_neg_log_partial_likelihood(f, data) -> float:
    """(1/n) sum over events i of log S(f, T_i) - f(X_i), with
    S(f, t) = (1/n) sum_j 1{T_j >= t} exp(f(X_j))."""
    times, events = data.times, data.events
    n = len(data)
    terms = []
    for i in np.flatnonzero(events):
        at_risk = times >= times[i]
        terms.append(np.logaddexp.reduce(f[at_risk]) - math.log(n) - f[i])
    return math.fsum(terms) / n


def naive_gradient_weights(f, data):
    """O(n^2) reference in log space: u_p is (1/n) times the sum over events i
    at risk with p of exp(f_p - log sum_{j at risk at T_i} exp(f_j)), minus
    (1/n) when p is an event."""
    times, events = data.times, data.events
    u = -events.astype(float)
    for i in np.flatnonzero(events):
        at_risk = times >= times[i]
        u[at_risk] += np.exp(f[at_risk] - np.logaddexp.reduce(f[at_risk]))
    return u / len(data)


def ktilde_design(ctx):
    """D = ktilde over a representer context's basis, from a fresh Gram matrix."""
    gram = gram_matrix(ctx.kernel, ctx.dataset.covariates)
    return gram[:, ctx.basis] - ctx.kbar[ctx.basis]


def fitted_values(ctx, beta):
    """The training values D beta of f_beta, through ``ktilde_design``."""
    return ktilde_design(ctx) @ np.asarray(beta, dtype=float)


def penalized_objective(beta, ctx, gamma: float) -> float:
    beta = np.asarray(beta, dtype=float)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    fvals = fitted_values(ctx, beta)
    w = ctx.from_beta @ beta  # Q' R theta, with Q orthogonal
    pen = gamma * float(w @ w)
    return neg_log_partial_likelihood(fvals, ctx.dataset) + pen
