"""Newton-refined reference fits, from the exact Hessian of the likelihood.

A level's fit minimises F(w) = l(P w) + gamma w'w over w = from_beta @ theta,
where P is the problem's ``prec_design``.  Its Hessian is P' H_f P + 2 gamma I,
with H_f the likelihood's Hessian in the fitted values f:

    H_f = (1/n) sum over events i of (diag(pi_i) - pi_i pi_i'),

where pi_i is the softmax of f over the risk set {j : T_j >= T_i}, ties
included.  F is strongly convex, so exact Newton steps from a fit converge
quadratically to the level's solution.  The risk-set softmaxes are formed
densely from the definition, not from the library's sorted passes, and the
solution is reported as fitted values P w, the quantity fits are compared
on.
"""

import numpy as np

NEWTON_STEPS = 4


def risk_set_softmax(f, data) -> np.ndarray:
    """The (events x n) matrix whose row i is pi_i, zero outside the risk set."""
    times = data.times
    at_risk = times[None, :] >= times[data.events][:, None]
    logits = np.where(at_risk, f[None, :], -np.inf)
    return np.exp(logits - np.logaddexp.reduce(logits, axis=1)[:, None])


def newton_reference(problem, gamma: float, theta, steps: int = NEWTON_STEPS) -> np.ndarray:
    """The fitted values after ``steps`` exact Newton steps from the fit ``theta``."""
    design, data = problem.prec_design, problem.dataset
    n, m = design.shape
    w = problem.from_beta @ np.asarray(theta, dtype=float)
    for _ in range(steps):
        pi = risk_set_softmax(design @ w, data)
        occupancy = pi.sum(axis=0)
        gradient = design.T @ ((occupancy - data.events) / n) + 2.0 * gamma * w
        curvature = (np.diag(occupancy) - pi.T @ pi) / n
        hessian = design.T @ curvature @ design + 2.0 * gamma * np.eye(m)
        w = w - np.linalg.solve(hessian, gradient)
    return design @ w
