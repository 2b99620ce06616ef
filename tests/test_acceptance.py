"""End-to-end acceptance checks, one per release criterion.

Each test prints a PASS/FAIL line with its measured quantity; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The two replication
studies are shared session fixtures, seeded so every run is reproducible.
"""

import csv
import time

import numpy as np
import pytest

import survcare as sc
from evaluation_oracle import concordance_index_reference, simulate_survival_times, step_survival_at
from feature_map_oracle import fit_feature_map_estimator
from kernel_oracle import kappa_matrix
from likelihood_oracle import penalized_objective
from survcare import cli
from survcare.partial_likelihood import RepresenterContext

MASTER_SEED = 20260810
# The replication studies run in-process.  Forked workers each inherit the
# parent's multi-threaded BLAS, so two of them oversubscribe the cores: on
# 2 vCPUs the CARE study took 210 s with two workers and 59 s in one
# process.  The output is byte-identical for any worker count (criterion 12),
# so this changes only the wall time.
WORKERS = 1

KERNEL_JSON = {"variant": "sobolev1", "shift": 1.0}
GRID_JSON = {"min": 1e-5, "max": 10.0, "count": 50, "geometric": True}


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def load_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def kernel_study(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("study6") / "kernel")
    config = {
        "dgp": "univariate",
        "kernel": KERNEL_JSON,
        "gamma_grid": GRID_JSON,
        "n_values": [50, 100, 200, 400],
        "replications": 20,
        "use_external": False,
        "mc_points": 500,
        "seed": MASTER_SEED,
    }
    start = time.perf_counter()
    code = cli.run_study(config, out, workers=WORKERS, quiet=True)
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


@pytest.fixture(scope="session")
def care_study(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("study78") / "care")
    config = {
        "dgp": "univariate",
        "kernel": KERNEL_JSON,
        "gamma_grid": GRID_JSON,
        "n_values": [50, 200, 800],
        "replications": 20,
        "use_external": True,
        "theta_resolution": 20,
        "mc_points": 500,
        "seed": MASTER_SEED,
    }
    code = cli.run_study(config, out, workers=WORKERS, quiet=True)
    assert code == 0
    return out


def _summary_means(prefix):
    means = {}
    for row in load_rows(f"{prefix}_summary.csv"):
        means[(int(row["n"]), row["estimator"])] = float(row["mean_l2_error"])
    return means


GRADIENT_FIXTURES = [
    sc.Sobolev1Kernel(shift=1.0),
    sc.Sobolev1Kernel(shift=0.3),
    sc.Sobolev2Kernel(shift=1.0),
    sc.Sobolev2Kernel(shift=0.5),
    sc.PolynomialKernel(degree=2, shift=1.0),
    sc.PolynomialKernel(degree=3, shift=0.5),
    sc.GaussianKernel(shift=1.0, lengthscales=(0.5,)),
    sc.GaussianKernel(shift=0.5, lengthscales=(1.0, 1.0)),
    sc.AdditiveKernel(summands=((0, sc.Sobolev1Kernel(shift=1.0)),)),
    sc.AdditiveKernel(summands=((0, sc.Sobolev1Kernel(shift=1.0)),
                                (1, sc.Sobolev2Kernel(shift=0.0)))),
]


def _fixture_dataset(kernel, seed):
    dim = 2 if (isinstance(kernel, sc.GaussianKernel) and kernel.dimension == 2) \
        or isinstance(kernel, sc.AdditiveKernel) and kernel.min_dimension == 2 else 1
    rng = np.random.default_rng(seed)
    covs = rng.uniform(0.0, 1.0, (20, dim))
    if isinstance(kernel, sc.PolynomialKernel):
        covs = rng.uniform(-1.0, 1.0, (20, 2))
    times = rng.uniform(0.05, 1.0, 20)
    censored = rng.random(20) < 0.3
    return sc.SurvivalDataset(covs, times, censored)


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(77)
    # the reference is Richardson's (4 D(h/2) - D(h)) / 3 of the central
    # difference D: its O(h^4) truncation stays far above rounding at h=1e-4,
    # where a plain central difference at h=1e-6 is rounding-limited
    h = 1e-4
    for seed, kernel in enumerate(GRADIENT_FIXTURES):
        data = _fixture_dataset(kernel, 1000 + seed)
        ctx = RepresenterContext.build(data, kernel)
        m = ctx.basis_size
        for gamma in (1e-3, 1e-1, 10.0):
            beta = rng.normal(0.0, 0.5, m)
            grad = sc.penalized_gradient(beta, ctx, gamma)

            def central(j, step):
                e = np.zeros(m)
                e[j] = step
                return (penalized_objective(beta + e, ctx, gamma)
                        - penalized_objective(beta - e, ctx, gamma)) / (2 * step)

            fd = np.array([(4.0 * central(j, h / 2) - central(j, h)) / 3.0 for j in range(m)])
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-6 and elapsed < 5.0,
           f"max relative gradient error {worst:.2e} (<= 1e-6), {elapsed:.1f}s (< 5s)")


def test_criterion_2_shift_invariance():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n, seed in ((40, 1), (120, 2), (200, 3)):
        data, _ = sc.simulate_dataset(sc.DgpConfig("univariate"), n, seed)
        for _ in range(34):
            f = rng.normal(0.0, 3.0, n)
            c = rng.normal(0.0, 4.0)
            gap = abs(sc.neg_log_partial_likelihood(f + c, data)
                      - sc.neg_log_partial_likelihood(f, data))
            worst = max(worst, gap)
    report(2, worst <= 1e-12, f"max |l(f+c) - l(f)| = {worst:.2e} (<= 1e-12)")


def test_criterion_3_representer_centering():
    worst = 0.0
    fits = 0
    grid = sc.GammaGrid.geometric(1e-4, 10.0, 10)
    datasets = [
        sc.simulate_dataset(sc.DgpConfig("univariate"), 60, 11)[0],
        sc.simulate_dataset(sc.DgpConfig("univariate"), 150, 12)[0],
        sc.simulate_dataset(sc.DgpConfig("multivariate_d10"), 60, 13)[0],
    ]
    kernels = [
        sc.Sobolev1Kernel(shift=1.0),
        sc.Sobolev1Kernel(shift=1.0),
        sc.AdditiveKernel(summands=tuple(
            (j, sc.Sobolev1Kernel(shift=1.0 if j == 0 else 0.0)) for j in range(10))),
    ]
    for data, kernel in zip(datasets, kernels):
        ctx = RepresenterContext.build(data, kernel)
        warm = None
        for gamma in reversed(grid.values):
            est = sc.fit_kernel_estimator(data, kernel, gamma, ctx=ctx, warm=warm)
            warm = est.beta
            worst = max(worst, abs(float(est.predict_many(data.covariates).mean())))
            fits += 1
    report(3, worst <= 1e-8,
           f"max |P_n(fitted)| over {fits} fits = {worst:.2e} (<= 1e-8)")


def test_criterion_4_path_equivalence():
    start = time.perf_counter()
    data, _ = sc.simulate_dataset(sc.DgpConfig("univariate"), 50, 44)
    kernel = sc.PolynomialKernel(degree=2, shift=1.0)
    worst = 0.0
    for gamma in (1e-2, 1.0, 10.0):
        rep = sc.fit_kernel_estimator(data, kernel, gamma)
        fm = fit_feature_map_estimator(data, kernel, gamma)
        gap = float(np.abs(rep.predict_many(data.covariates)
                           - fm.predict_many(data.covariates)).max())
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-5 and elapsed < 30.0,
           f"representer/feature sup gap {worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 30s)")


def test_criterion_5_closed_form_constants():
    rng = np.random.default_rng(222)

    def gaussian_points(size):
        return (6.0 * np.arange(size) + rng.uniform(-1.0, 1.0, size))[:, None]

    def unit_points_with_origin(size):
        pts = rng.uniform(0.0, 1.0, (size, 1))
        pts[0] = 0.0
        return pts

    cases = [
        ("gaussian(a=1)", sc.GaussianKernel(shift=1.0, lengthscales=(1.0,)), gaussian_points),
        ("polynomial(p=3,a=2)", sc.PolynomialKernel(degree=3, shift=2.0), unit_points_with_origin),
        ("sobolev1(a=1)", sc.Sobolev1Kernel(shift=1.0), unit_points_with_origin),
    ]
    worst = 0.0
    for name, kernel, sampler in cases:
        target = 1.0 / sc.constant_norm_squared(kernel)
        kappa_by_size = {}
        for size in (20, 80):
            kappa_by_size[size] = min(
                kappa_matrix(sc.gram_matrix(kernel, sampler(size)))
                for _ in range(5))
        # the infimum over point sets behaves as target + c/size; extrapolate
        # the size -> infinity limit from the two sampled sizes
        limit = (80 * kappa_by_size[80] - 20 * kappa_by_size[20]) / 60.0
        rel = abs(limit - target) / target
        worst = max(worst, rel)
    report(5, worst <= 1e-4,
           f"max relative gap between closed form and kappa limit {worst:.2e} (<= 1e-4)")


@pytest.mark.slow
def test_criterion_6_cv_error_decays_and_tracks_oracle(kernel_study):
    prefix, elapsed = kernel_study
    means = _summary_means(prefix)
    cv = [means[(n, "cv_kernel")] for n in (50, 100, 200, 400)]
    oracle = [means[(n, "oracle_kernel")] for n in (50, 100, 200, 400)]
    decreasing = all(a > b for a, b in zip(cv, cv[1:]))
    ratios = [c / o for c, o in zip(cv, oracle)]
    within = all(r <= 1.5 for r in ratios)
    report(6, decreasing and within and elapsed < 600.0,
           "cv means " + ", ".join(f"{v:.4f}" for v in cv)
           + " strictly decreasing; ratios to oracle "
           + ", ".join(f"{r:.2f}" for r in ratios)
           + f" (<= 1.5); study took {elapsed:.0f}s (< 600s)")


@pytest.mark.slow
def test_criterion_7_care_dominates_components(care_study):
    means = _summary_means(care_study)
    ok = True
    details = []
    for n in (50, 200):
        care = means[(n, "care")]
        best = min(means[(n, "cv_kernel")], means[(n, "external")])
        ok = ok and care <= best + 0.10
        details.append(f"n={n}: care {care:.4f} vs best component {best:.4f}")
    report(7, ok, "; ".join(details) + " (margin 0.10)")


@pytest.mark.slow
def test_criterion_8_external_weight_decays(care_study):
    weights = {}
    for row in load_rows(f"{care_study}_results.csv"):
        if row["estimator"] == "care":
            weights.setdefault(int(row["n"]), []).append(float(row["theta"]))
    med = {n: float(np.median(v)) for n, v in weights.items()}
    report(8, med[50] > med[800],
           f"median external weight n=50: {med[50]:.3f} > n=800: {med[800]:.3f}")


def test_criterion_9_breslow_tracks_monte_carlo_survival():
    dgp = sc.DgpConfig("univariate")
    data, _ = sc.simulate_dataset(dgp, 2000, 909)
    curve = sc.breslow_survival(data)
    draws = np.sort(simulate_survival_times(dgp, 10**5, 910))
    grid = np.concatenate(([0.0], curve.times))
    p_hat = step_survival_at(curve, grid)
    q_right = 1.0 - np.searchsorted(draws, grid, side="right") / draws.size
    nxt = np.concatenate((grid[1:], [1.0]))
    q_left = 1.0 - np.searchsorted(draws, nxt, side="left") / draws.size
    sup = float(max(np.abs(p_hat - q_right).max(), np.abs(p_hat - q_left).max()))
    report(9, sup <= 0.05, f"sup |Breslow - MC survival| = {sup:.4f} (<= 0.05)")


def test_criterion_10_concordance_sanity():
    dgp = sc.DgpConfig("univariate")
    data, truth = sc.simulate_dataset(dgp, 2000, 911)
    c_true = sc.concordance_index(truth.f0(data.covariates), data)
    c_zero = sc.concordance_index(np.zeros(len(data)), data)
    rng = np.random.default_rng(6)
    agree = True
    for trial in range(100):
        n = int(rng.integers(2, 40))
        times = rng.integers(1, 6, n) / 6.0
        events = rng.random(n) < 0.7
        if not events.any():
            events[0] = True
        fixture = sc.SurvivalDataset(rng.uniform(0, 1, (n, 1)), times, ~events)
        preds = rng.integers(-2, 3, n).astype(float)
        try:
            ref = concordance_index_reference(preds, fixture)
        except sc.NoComparablePairsError:
            continue
        agree = agree and sc.concordance_index(preds, fixture) == ref
    report(10, c_true - c_zero >= 0.1 and agree,
           f"concordance(f0) - concordance(0) = {c_true - c_zero:.3f} (>= 0.1); "
           f"fast == reference on random fixtures: {agree}")


def test_criterion_11_optimizer_behaviour():
    def rosen(x):
        return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    def rosen_grad(x):
        return np.array([
            -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ])

    result = sc.minimize_bfgs(rosen, rosen_grad, np.array([-1.2, 1.0]))
    dist = float(np.abs(result.minimizer - 1.0).max())
    data, _ = sc.simulate_dataset(sc.DgpConfig("univariate"), 80, 21)
    kernel = sc.Sobolev1Kernel(shift=1.0)
    ctx = RepresenterContext.build(data, kernel)
    monotone = True
    warm = None
    for gamma in (10.0, 0.1, 1e-3):
        est = sc.fit_kernel_estimator(data, kernel, gamma, ctx=ctx, warm=warm)
        warm = est.beta
        trace = np.asarray(est.objective_trace)
        monotone = monotone and bool(np.all(np.diff(trace) <= 0))
    report(11, result.converged and dist <= 1e-5 and monotone,
           f"Rosenbrock distance {dist:.1e} (<= 1e-5); penalized fit traces monotone: {monotone}")


@pytest.mark.slow
def test_criterion_12_study_determinism(tmp_path):
    config = {
        "dgp": "univariate",
        "kernel": KERNEL_JSON,
        "gamma_grid": {"min": 1e-4, "max": 10.0, "count": 8, "geometric": True},
        "n_values": [30, 50],
        "replications": 4,
        "use_external": True,
        "theta_resolution": 10,
        "mc_points": 200,
        "seed": MASTER_SEED,
    }
    out1 = str(tmp_path / "one")
    out2 = str(tmp_path / "two")
    assert cli.run_study(config, out1, workers=1, quiet=True) == 0
    assert cli.run_study(config, out2, workers=2, quiet=True) == 0
    with open(f"{out1}_results.csv", "rb") as fh:
        bytes1 = fh.read()
    with open(f"{out2}_results.csv", "rb") as fh:
        bytes2 = fh.read()
    identical = bytes1 == bytes2
    with open(f"{out1}_summary.csv", "rb") as fh:
        s1 = fh.read()
    with open(f"{out2}_summary.csv", "rb") as fh:
        s2 = fh.read()
    report(12, identical and s1 == s2,
           "result CSVs byte-identical across worker counts: "
           f"{identical and s1 == s2}")
