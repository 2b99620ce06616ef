"""The benchmark's workloads: inputs made from the seed, one timed op, its checks.

An op is one call into survcare's public API.  Inputs are generated during
set-up from the workload seed; the op receives only those inputs.  The checks
run after the op, outside its timing, and return an ``OpRecord``: the list of
failed checks plus the quality numbers the end-to-end metrics average.

Why each workload exists, and which layer it loads, is in RATIONALE.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
import survcare as sc
import survcare.cli
import tracing

# Fixed Monte-Carlo design for the L2 error of every CARE op.
MC_SEED = 20250630
MC_CHUNK = 250
# Absolute slack on "CARE loss <= component loss"; the CARE scan contains both
# components as grid points, so the comparison is exact up to re-evaluation.
INVARIANT_SLACK = 1e-12


def derive_seed(seed: int, *parts: int) -> int:
    ss = np.random.SeedSequence([seed % 2**63, *parts])
    return int(ss.generate_state(1, np.uint64)[0] % 2**63)


@dataclass
class OpRecord:
    failures: list[str] = field(default_factory=list)
    levels: int = 0
    converged_levels: int = 0
    l2_error: float = math.nan
    valid_loss_gain: float = math.nan


def check_care(train, valid, care, report, centred_valid) -> OpRecord:
    """Output checks shared by every op that fits CARE.

    ``centred_valid`` holds each external's validation values minus its
    training mean.
    """
    rec = OpRecord(levels=len(report.gamma_entries),
                   converged_levels=sum(e.converged for e in report.gamma_entries))
    if rec.converged_levels == 0:
        rec.failures.append("no gamma level converged")
    kernel_fit = care.kernel_estimator
    train_mean = float(np.mean(kernel_fit.predict_many(train.covariates)))
    if not abs(train_mean) <= 1e-8:
        rec.failures.append(f"selected kernel fit has training mean {train_mean:.3e}")
    preds = (1.0 - sum(care.theta)) * kernel_fit.predict_many(valid.covariates)
    for weight, values in zip(care.theta, centred_valid):
        preds = preds + weight * values
    if not np.all(np.isfinite(preds)):
        rec.failures.append("non-finite CARE predictions")
        return rec
    care_loss = sc.validation_loss(preds, valid)
    reported = min(e.valid_loss for e in report.care_entries) if report.care_entries \
        else min(e.valid_loss for e in report.gamma_entries if e.converged)
    if not abs(care_loss - reported) <= 1e-9 * (1.0 + abs(reported)):
        rec.failures.append(f"CARE loss {care_loss!r} differs from reported {reported!r}")
    kernel_only = next(e.valid_loss for e in report.gamma_entries
                       if e.gamma == report.gamma_hat)
    components = [("kernel-only at gamma_hat", kernel_only)]
    components += [(f"external {m} alone", sc.validation_loss(values, valid))
                   for m, values in enumerate(centred_valid)]
    for label, loss in components:
        if not care_loss <= loss + INVARIANT_SLACK * (1.0 + abs(loss)):
            rec.failures.append(f"CARE loss {care_loss!r} exceeds {label} loss {loss!r}")
    rec.valid_loss_gain = sc.validation_loss(np.zeros(len(valid)), valid) - care_loss
    return rec


def _chunked(predict):
    def run(xs):
        return np.concatenate([predict(xs[i:i + MC_CHUNK]) for i in range(0, len(xs), MC_CHUNK)])
    return run


@dataclass(frozen=True)
class CareInput:
    train: sc.SurvivalDataset
    valid: sc.SurvivalDataset
    truth: sc.DgpTruth
    externals: list
    seed: int

    def fresh(self) -> "CareInput":
        """Copies of the datasets, so no per-dataset cache survives between ops."""
        return replace(self, train=self.train.subset(np.arange(len(self.train))),
                       valid=self.valid.subset(np.arange(len(self.valid))))


@dataclass(frozen=True)
class CareWorkload:
    """One ``survcare.fit_care`` call per op on a fresh simulated draw."""

    name: str
    why: str
    variant: str
    n: int                  # training size; the validation half has the same size
    kernel: object
    levels: int             # geometric gamma grid on [1e-5, 10]
    resolution: int         # theta lattice resolution
    min_ops: int
    mc_points: int

    def smoke(self) -> "CareWorkload":
        return replace(self, n=30, levels=3, resolution=4, min_ops=2, mc_points=100)

    def _externals(self, truth, train, valid, seed):
        dgp = truth.config
        if self.variant == "univariate":
            return [sc.ExternalSpec(name="univariate_perturbed", fn=truth.external)]
        rng = np.random.Generator(np.random.Philox(key=seed))
        return [
            sc.ExternalSpec(name="multivariate_linear",
                            fn=lambda xs: sc.external_predictor(dgp, xs)),
            sc.ExternalSpec(name="half_f0", fn=lambda xs: 0.5 * sc.true_f0(dgp, xs)),
            sc.ExternalSpec(name="random_table", train_values=rng.normal(size=len(train)),
                            valid_values=rng.normal(size=len(valid))),
        ]

    def capturing(self):
        return contextlib.nullcontext()

    def inputs(self, seed: int, count: int, workdir: str) -> list[CareInput]:
        dgp = sc.DgpConfig(self.variant)
        out = []
        for i in range(count):
            op_seed = derive_seed(seed, i)
            data, truth = sc.simulate_dataset(dgp, 2 * self.n, derive_seed(op_seed, 0))
            train, valid = sc.split_train_validation(data, derive_seed(op_seed, 1))
            externals = self._externals(truth, train, valid, derive_seed(op_seed, 2))
            out.append(CareInput(train, valid, truth, externals, op_seed))
        return out

    def op(self, inp: CareInput):
        grid = sc.GammaGrid.geometric(1e-5, 10.0, self.levels)
        thetas = sc.theta_grid(len(inp.externals), self.resolution)
        return sc.fit_care(inp.train, inp.valid, self.kernel, grid, inp.externals, thetas)

    def check(self, inp: CareInput, outcome) -> OpRecord:
        care, report = outcome
        centred = []
        for spec, ext in zip(inp.externals, care.externals):
            values = spec.fn(inp.valid.covariates) if spec.fn is not None else spec.valid_values
            centred.append(np.asarray(values, dtype=float) - ext.training_mean)
        rec = check_care(inp.train, inp.valid, care, report, centred)
        tables_used = any(w != 0.0 and spec.fn is None for w, spec in zip(care.theta, inp.externals))
        if not rec.failures and not tables_used:
            # a table-backed external cannot be evaluated off the sample; its
            # ops leave l2_error out of the mean
            rec.l2_error = sc.l2_error_mc(_chunked(care.predict_many), inp.truth.f0,
                                          inp.truth.sampler(), self.mc_points, MC_SEED)
        return rec


@dataclass(frozen=True)
class StudyInput:
    seed: int
    prefix: str

    def fresh(self) -> "StudyInput":
        return self


@dataclass(frozen=True)
class StudyWorkload:
    """One in-process ``survcare.cli.run_study`` call per op, one replication."""

    name: str
    why: str
    config: dict
    min_ops: int
    # (train, valid, result) of every survcare.cli.fit_care_path call of the op
    captured: list = field(default_factory=list, compare=False)

    def smoke(self) -> "StudyWorkload":
        config = dict(self.config, n_values=[30], mc_points=100,
                      gamma_grid={"min": 1e-5, "max": 10.0, "count": 3})
        return replace(self, config=config, min_ops=2, captured=[])

    def capturing(self):
        """Keep each study's CARE result for the checks."""
        def make(fit_care_path):
            def capture(train, valid, *args, **kwargs):
                result = fit_care_path(train, valid, *args, **kwargs)
                self.captured.append((train, valid, result))
                return result
            return capture

        return tracing.patched(survcare.cli, "fit_care_path", make)

    def inputs(self, seed: int, count: int, workdir: str) -> list[StudyInput]:
        return [StudyInput(derive_seed(seed, i), f"{workdir}/study") for i in range(count)]

    def op(self, inp: StudyInput):
        self.captured.clear()  # a raising op leaves its fits behind
        config = dict(self.config, seed=inp.seed)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = survcare.cli.run_study(config, inp.prefix, workers=1, quiet=True)
        return code, sink.getvalue()

    def check(self, inp: StudyInput, outcome) -> OpRecord:
        code, messages = outcome
        captured = self.captured
        if code != 0 or len(captured) != 1:
            return OpRecord(failures=[f"study exit code {code}, {len(captured)} CARE fits: "
                                      f"{messages.strip()}"])
        train, valid, (care, report, _) = captured[0]
        centred = [ext.predict_many(valid.covariates) for ext in care.externals]
        rec = check_care(train, valid, care, report, centred)
        with open(f"{inp.prefix}_results.csv", newline="", encoding="utf-8") as fh:
            rows = {r["estimator"]: float(r["l2_error"]) for r in csv.DictReader(fh)}
        expected = set(survcare.cli.ESTIMATOR_ORDER)
        if set(rows) != expected or not all(map(math.isfinite, rows.values())):
            rec.failures.append(f"study rows {rows} are not the four finite estimators")
        else:
            rec.l2_error = rows["care"]
        return rec


WORKLOADS = {
    w.name: w for w in (
        CareWorkload(
            name="care_n800",
            why="one CARE fit at 800/800: the cubic basis selection and dense BFGS "
                "updates dominate, the theta scan is negligible",
            variant="univariate", n=800, kernel=sc.Sobolev1Kernel(shift=1.0),
            levels=10, resolution=20, min_ops=8, mc_points=2000,
        ),
        StudyWorkload(
            name="study_n200",
            why="one in-process study replication at n=200: fixed per-fit costs "
                "dominate (small BFGS, simulation, Monte-Carlo L2, CSV output)",
            config={
                "dgp": "univariate",
                "kernel": {"variant": "sobolev1", "shift": 1.0},
                "gamma_grid": {"min": 1e-5, "max": 10.0, "count": 50},
                "n_values": [200],
                "replications": 1,
                "use_external": True,
                "theta_resolution": 20,
                "mc_points": 500,
            },
            min_ops=50,
        ),
        CareWorkload(
            name="care_d10_theta",
            why="one CARE fit on d=10 data with three externals: 1,771 theta points "
                "per level make the likelihood a scorer of many fixed vectors",
            variant="multivariate_d10", n=400,
            kernel=sc.GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10),
            levels=10, resolution=20, min_ops=8, mc_points=2000,
        ),
    )
}
