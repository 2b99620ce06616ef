"""Batch command-line front end.

Subcommands: simulate, fit, cv, care, evaluate, study.  All configuration is
JSON validated against a schema (unknown keys rejected); all tables are CSV
with headers.  Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 when every fit on the grid failed, 5 when a study loses more than 10% of
its replications.  Every warning a command raises, the library's included,
prints on stderr as ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from operator import attrgetter

import jsonschema
import numpy as np

from .data import (
    DataFormatError,
    SurvivalDataset,
    load_csv,
    read_rows,
    split_train_validation,
    write_csv,
    write_json,
    write_table,
)
from .estimators import fit_kernel_estimator
from .evaluation import StepSurvival, _mc_design, breslow_survival, concordance_index, l2_error_mc
from .kernels import NotInSpaceError, constant_norm_squared, cross_matrix, kernel_from_json
from .model_selection import (
    AllFitsFailed,
    ExternalSpec,
    GammaGrid,
    fit_care_path,
    theta_grid,
)
from .optimizer import OptimOptions
from .simulation import DgpConfig, covariate_sampler, external_predictor, simulate_dataset, true_f0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ALL_FITS_FAILED = 4
EXIT_STUDY_DEGRADED = 5


class ConfigError(ValueError):
    pass


_KERNEL_SCHEMA = {"type": "object"}  # structure enforced by kernel_from_json
_OPTIMIZER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gradient_tolerance": {"type": "number", "exclusiveMinimum": 0},
        "max_iterations": {"type": "integer", "minimum": 1},
    },
}
_GAMMA_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [
        {"required": ["min", "max", "count"]},
        {"required": ["values"]},
    ],
    "properties": {
        "min": {"type": "number", "exclusiveMinimum": 0},
        "max": {"type": "number", "exclusiveMinimum": 0},
        "count": {"type": "integer", "minimum": 1},
        "geometric": {"type": "boolean"},
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
}
_EXTERNALS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "additionalProperties": False,
        "oneOf": [
            {"required": ["builtin"]},
            {"required": ["name", "train_table", "valid_table"]},
        ],
        "properties": {
            "builtin": {"type": "string"},
            "name": {"type": "string"},
            "train_table": {"type": "string"},
            "valid_table": {"type": "string"},
        },
    },
}

CONFIG_SCHEMAS = {
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dgp", "n"],
        "properties": {
            "dgp": {"enum": ["univariate", "multivariate_d10"]},
            "n": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
        },
    },
    "fit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kernel", "gamma"],
        "properties": {
            "kernel": _KERNEL_SCHEMA,
            "gamma": {"type": "number", "exclusiveMinimum": 0},
            "optimizer": _OPTIMIZER_SCHEMA,
        },
    },
    "cv": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kernel", "gamma_grid"],
        "properties": {
            "kernel": _KERNEL_SCHEMA,
            "gamma_grid": _GAMMA_GRID_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
        },
    },
    "care": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kernel", "gamma_grid"],
        "properties": {
            "kernel": _KERNEL_SCHEMA,
            "gamma_grid": _GAMMA_GRID_SCHEMA,
            "externals": _EXTERNALS_SCHEMA,
            "theta_resolution": {"type": "integer", "minimum": 1},
            "optimizer": _OPTIMIZER_SCHEMA,
        },
    },
    "study": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dgp", "kernel", "gamma_grid", "n_values", "replications"],
        "properties": {
            "dgp": {"enum": ["univariate", "multivariate_d10"]},
            "kernel": _KERNEL_SCHEMA,
            "gamma_grid": _GAMMA_GRID_SCHEMA,
            "n_values": {"type": "array", "items": {"type": "integer", "minimum": 2},
                         "minItems": 1, "uniqueItems": True},
            "replications": {"type": "integer", "minimum": 1},
            "use_external": {"type": "boolean"},
            "theta_resolution": {"type": "integer", "minimum": 1},
            "mc_points": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
            "optimizer": _OPTIMIZER_SCHEMA,
        },
    },
}

# jsonschema counts an integral float such as 40.0 as an "integer", but every
# integer setting is used as a Python int (a size, a count or a seed)
_ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)),
)

BUILTIN_EXTERNALS = {
    "univariate_perturbed": "univariate",
    "multivariate_linear": "multivariate_d10",
}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        jsonschema.validate(obj, CONFIG_SCHEMAS[command], cls=_ConfigValidator)
    except jsonschema.ValidationError as exc:
        field = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"{path}: invalid config at {field}: {exc.message}") from None
    return obj


def _gamma_grid(obj: dict) -> GammaGrid:
    # float() and numpy raise OverflowError on a JSON integer beyond the
    # double range, in a value, a bound or the count
    try:
        if "values" in obj:
            return GammaGrid(tuple(sorted(obj["values"])))
        low, high = float(obj["min"]), float(obj["max"])
        if obj.get("geometric", True):
            return GammaGrid.geometric(low, high, obj["count"])
        return GammaGrid(tuple(np.linspace(low, high, obj["count"])))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid gamma_grid config: {exc}") from None


def _kernel(obj: dict):
    try:
        return kernel_from_json(obj)
    except ValueError as exc:
        raise ConfigError(f"invalid kernel config: {exc}") from None


def _optimizer(obj: dict | None) -> OptimOptions:
    try:
        return OptimOptions(**obj) if obj else OptimOptions()
    except ValueError as exc:
        raise ConfigError(f"invalid optimizer config: {exc}") from None


def _read_prediction_table(path: str, expected: int, label: str) -> np.ndarray:
    """The 'prediction' column of the CSV at ``path``; ``label`` names the table."""
    def select(header):
        if header is None or "prediction" not in header:
            raise ConfigError(f"{path}: prediction table needs a 'prediction' column")
        return ["prediction"]

    values = [v for v, in read_rows(path, select)]
    if len(values) != expected:
        raise ConfigError(f"{label} {path} has {len(values)} rows, expected {expected}")
    return np.asarray(values)


def _externals_from_config(specs: list[dict], train: SurvivalDataset,
                           valid: SurvivalDataset) -> list[ExternalSpec]:
    out = []
    for spec in specs:
        if "builtin" in spec:
            name = spec["builtin"]
            if name not in BUILTIN_EXTERNALS:
                raise ConfigError(
                    f"unknown builtin external {name!r}; "
                    f"choose from {sorted(BUILTIN_EXTERNALS)}"
                )
            dgp = DgpConfig(BUILTIN_EXTERNALS[name])
            out.append(ExternalSpec(
                name=name, fn=lambda xs, dgp=dgp: external_predictor(dgp, xs)))
        else:
            label = f"external {spec['name']!r}: table"
            out.append(ExternalSpec(
                name=spec["name"],
                train_values=_read_prediction_table(spec["train_table"], len(train), label),
                valid_values=_read_prediction_table(spec["valid_table"], len(valid), label),
            ))
    return out


def _emit(quiet: bool, human: list[str], machine: dict) -> None:
    if quiet:
        print(json.dumps(machine, sort_keys=True))
    else:
        for line in human:
            print(line)


def _write_predictions(path, sections) -> None:
    """sections: iterable of (role, values)."""
    write_table(path, ["role", "row", "prediction"],
                ([role, i, v] for role, values in sections for i, v in enumerate(values)))


def cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    dgp = DgpConfig(config["dgp"])
    dataset, truth = simulate_dataset(dgp, config["n"], seed)
    data_path = f"{args.out}_data.csv"
    truth_path = f"{args.out}_truth.csv"
    write_csv(dataset, data_path)
    write_table(truth_path, [f"x{j + 1}" for j in range(dataset.dimension)] + ["f0"],
                np.column_stack([dataset.covariates, true_f0(dgp, dataset.covariates)]))
    _emit(args.quiet,
          [f"wrote {len(dataset)} records to {data_path}", f"wrote truth table to {truth_path}"],
          {"status": "ok", "records": len(dataset),
           "outputs": {"data": data_path, "truth": truth_path}})
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _load_config(args.config, "fit")
    train = load_csv(args.train)
    est = fit_kernel_estimator(train, _kernel(config["kernel"]), config["gamma"],
                               _optimizer(config.get("optimizer")))
    est_path = f"{args.out}_estimator.json"
    pred_path = f"{args.out}_predictions.csv"
    write_json(est_path, est.to_json())
    _write_predictions(pred_path, [("train", est.predict_many(train.covariates))])
    if est.fit_warning:
        print(f"warning: {est.fit_warning}", file=sys.stderr)
    _emit(args.quiet,
          [f"fitted estimator written to {est_path}"],
          {"status": "ok", "converged": est.converged,
           "outputs": {"estimator": est_path, "predictions": pred_path}})
    return EXIT_OK


def _fit_and_write(args, command: str):
    """Run the selection ``command``'s config asks for (plain cross-validation
    without externals) and write the report, the selection and the
    predictions; returns the selected estimator and the paths by role."""
    config = _load_config(args.config, command)
    train = load_csv(args.train)
    valid = load_csv(args.valid)
    externals = _externals_from_config(config.get("externals", []), train, valid)
    thetas = theta_grid(len(externals), config.get("theta_resolution", 20)) if externals else None
    care, report, _ = fit_care_path(
        train, valid, _kernel(config["kernel"]), _gamma_grid(config["gamma_grid"]),
        externals, thetas, _optimizer(config.get("optimizer")))
    outputs = {"cv": f"{args.out}_cv.csv", "selection": f"{args.out}_selection.json",
               "predictions": f"{args.out}_predictions.csv"}
    report.to_csv(outputs["cv"])
    write_json(outputs["selection"], report.summary())
    _write_predictions(outputs["predictions"], [
        (role, care.combine(care.kernel_estimator.predict_many(ds.covariates), values))
        for role, ds, values in (("train", train, attrgetter("train_values")),
                                 ("valid", valid, attrgetter("valid_values")))])
    return care, outputs


def cmd_cv(args) -> int:
    care, outputs = _fit_and_write(args, "cv")
    outputs["estimator"] = f"{args.out}_estimator.json"
    write_json(outputs["estimator"], care.kernel_estimator.to_json())
    _emit(args.quiet,
          [f"selected gamma {care.gamma:.6g}", f"report written to {outputs['cv']}"],
          {"status": "ok", "gamma_hat": care.gamma, "outputs": outputs})
    return EXIT_OK


def cmd_care(args) -> int:
    care, outputs = _fit_and_write(args, "care")
    outputs["care"] = f"{args.out}_care.json"
    write_json(outputs["care"], care.to_json())
    _emit(args.quiet,
          [f"selected gamma {care.gamma:.6g}, theta {list(care.theta)}",
           f"report written to {outputs['cv']}"],
          {"status": "ok", "gamma_check": care.gamma, "theta_check": list(care.theta),
           "outputs": outputs})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    data = load_csv(args.data)
    curve = breslow_survival(data)
    breslow_path = f"{args.out}_breslow.csv"
    # the curve's jump times are normalised; the table gives them in file units
    StepSurvival(curve.times * data.time_scale, curve.values).to_csv(breslow_path)
    outputs = {"breslow": breslow_path}
    metrics = {}
    if args.predictions:
        preds = _read_prediction_table(args.predictions, len(data), "prediction table")
        metrics["concordance"] = concordance_index(preds, data)
        metrics_path = f"{args.out}_metrics.json"
        write_json(metrics_path, metrics)
        outputs["metrics"] = metrics_path
    _emit(args.quiet,
          [f"Breslow curve written to {breslow_path}"]
          + ([f"concordance {metrics['concordance']:.4f}"] if metrics else []),
          {"status": "ok", "outputs": outputs, **metrics})
    return EXIT_OK


def _derive_seed(master: int, *parts: int) -> int:
    ss = np.random.SeedSequence([master % 2**63, *[p % 2**63 for p in parts]])
    return int(ss.generate_state(1, np.uint64)[0])


ESTIMATOR_ORDER = {"cv_kernel": 0, "oracle_kernel": 1, "care": 2, "external": 3}


def _study_replication(payload: dict) -> dict:
    """One (n, rep) replication; returns tidy rows or an error message."""
    n = payload["n"]
    rep = payload["rep"]
    try:
        dgp = payload["dgp"]
        kernel = payload["kernel"]
        grid = payload["grid"]
        options = payload["optimizer"]
        master = payload["seed"]
        mc_points = payload["mc_points"]

        data, truth = simulate_dataset(dgp, 2 * n, _derive_seed(master, n, rep, 0))
        train, valid = split_train_validation(data, _derive_seed(master, n, rep, 1))
        mc_seed = _derive_seed(master, n, rep, 2)

        thetas = payload["thetas"]
        externals = [ExternalSpec(name="dgp_external", fn=truth.external)] if thetas else []
        care, report, fits = fit_care_path(train, valid, kernel, grid, externals,
                                           thetas, options)

        # one Monte-Carlo design per replication: the points, f0 there and the
        # (points x basis) section matrix that every fit of the path shares,
        # so each level scores as sections @ beta
        xs = _mc_design(covariate_sampler(dgp), mc_points, mc_seed)
        f0_xs = truth.f0(xs)
        sections = fits[report.gamma_hat]._centred_sections(xs)

        def l2(values) -> float:  # l2_error_mc of values given at that design
            return l2_error_mc(lambda _: values, lambda _: f0_xs, lambda *_: xs,
                               mc_points, mc_seed)

        converged = [e.gamma for e in report.gamma_entries if e.converged]
        errors = {g: l2(sections @ fits[g].beta) for g in converged}
        gamma_star = min(converged, key=lambda g: (errors[g], g))

        rows = [
            {"n": n, "rep": rep, "estimator": "cv_kernel",
             "l2_error": errors[report.gamma_hat], "gamma": report.gamma_hat, "theta": ()},
            {"n": n, "rep": rep, "estimator": "oracle_kernel",
             "l2_error": errors[gamma_star], "gamma": gamma_star, "theta": ()},
        ]
        if externals:
            ext_values = care.externals[0].predict_many(xs)
            care_values = care.combine(sections @ care.kernel_estimator.beta, lambda _: ext_values)
            rows.append({"n": n, "rep": rep, "estimator": "care",
                         "l2_error": l2(care_values), "gamma": care.gamma, "theta": care.theta})
            rows.append({"n": n, "rep": rep, "estimator": "external",
                         "l2_error": l2(ext_values), "gamma": None, "theta": ()})
        return {"n": n, "rep": rep, "rows": rows, "error": None}
    except Exception as exc:  # replication failures are recorded, not fatal
        return {"n": n, "rep": rep, "rows": [], "error": f"{type(exc).__name__}: {exc}"}


def run_study(config: dict, out_prefix: str, workers: int = 1, quiet: bool = False) -> int:
    """Run the replication study and write tidy and aggregated CSVs.

    Deterministic for a fixed seed regardless of the worker count: every
    replication is seeded independently from (seed, n, rep) and rows are
    assembled in sorted order.  At most one worker process per replication is
    started; ``workers`` below 1 is a configuration error.  The generator,
    kernel, gamma grid, theta grid and optimizer options are built once, the
    kernel checked against the generator's dimension, and the sample sizes
    checked against numpy's array size limit, before any replication runs,
    so a bad config raises here instead of failing every replication.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    dgp = DgpConfig(config["dgp"])
    kernel = _kernel(config["kernel"])
    constant_norm_squared(kernel)
    # the kernel's own check that it fits the generator's dimension
    cross_matrix(kernel, np.zeros((1, dgp.dimension)), np.zeros((1, dgp.dimension)))
    grid = _gamma_grid(config["gamma_grid"])
    thetas = theta_grid(1, config.get("theta_resolution", 20)) \
        if config.get("use_external", False) else None
    options = _optimizer(config.get("optimizer"))
    mc_points = config.get("mc_points", 500)
    # numpy refuses an array of more than np.iinfo(np.intp).max bytes, so a
    # (2n, d) draw or (mc_points, d) design beyond it fails every replication
    max_rows = np.iinfo(np.intp).max // (dgp.dimension * np.dtype(float).itemsize)
    for name, rows in [*((f"n_values entry {n}", 2 * n) for n in config["n_values"]),
                       ("mc_points", mc_points)]:
        if rows > max_rows:
            raise ConfigError(f"invalid study config: {name} needs a ({rows}, "
                              f"{dgp.dimension}) array, beyond numpy's limit of "
                              f"{max_rows} rows")
    payloads = [
        {
            "dgp": dgp,
            "kernel": kernel,
            "grid": grid,
            "optimizer": options,
            "n": n,
            "rep": rep,
            "seed": config.get("seed", 0),
            "thetas": thetas,
            "mc_points": mc_points,
        }
        for n in config["n_values"]
        for rep in range(config["replications"])
    ]
    workers = min(workers, len(payloads))
    if workers > 1:
        # the pool starts all of its processes up front, so never more than
        # there are replications
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_study_replication, payloads))
    else:
        outcomes = [_study_replication(p) for p in payloads]

    failures = [o for o in outcomes if o["error"] is not None]
    for o in failures:
        print(f"replication (n={o['n']}, rep={o['rep']}) failed: {o['error']}",
              file=sys.stderr)
    rows = [r for o in outcomes for r in o["rows"]]
    rows.sort(key=lambda r: (r["n"], r["rep"], ESTIMATOR_ORDER[r["estimator"]]))

    results_path = f"{out_prefix}_results.csv"
    write_table(results_path, ["n", "rep", "estimator", "l2_error", "gamma", "theta"], (
        [r["n"], r["rep"], r["estimator"], r["l2_error"], r["gamma"],
         ";".join(repr(float(t)) for t in r["theta"])] for r in rows))

    summary_path = f"{out_prefix}_summary.csv"
    groups: dict[tuple[int, str], list[float]] = {}
    for r in rows:
        groups.setdefault((r["n"], r["estimator"]), []).append(r["l2_error"])
    summary = []
    for (n, est) in sorted(groups, key=lambda k: (k[0], ESTIMATOR_ORDER[k[1]])):
        vals = np.asarray(groups[(n, est)])
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        half = 2.0 * sd / float(np.sqrt(vals.size))
        summary.append([n, est, vals.size, mean, sd, mean - half, mean + half])
    write_table(summary_path, ["n", "estimator", "n_rep", "mean_l2_error", "sd_l2_error",
                               "ci_low", "ci_high"], summary)

    total = len(payloads)
    ok = total - len(failures)
    _emit(quiet,
          [f"{ok}/{total} replications succeeded",
           f"results written to {results_path}", f"summary written to {summary_path}"],
          {"status": "ok" if ok >= 0.9 * total else "degraded",
           "succeeded": ok, "total": total,
           "outputs": {"results": results_path, "summary": summary_path}})
    return EXIT_OK if ok >= 0.9 * total else EXIT_STUDY_DEGRADED


def cmd_study(args) -> int:
    config = _load_config(args.config, "study")
    if args.seed is not None:
        config["seed"] = args.seed
    return run_study(config, args.out, workers=args.workers, quiet=args.quiet)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survcare",
        description="Kernel relative-risk estimation with cross-validated aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--quiet", action="store_true",
                       help="print only machine-readable output on stdout")

    p = sub.add_parser("simulate", help="draw a dataset from a built-in generator")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", help="fit a kernel estimator at a fixed gamma")
    p.add_argument("train", help="training CSV")
    common(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("cv", help="cross-validate gamma on a train/validation pair")
    p.add_argument("train", help="training CSV")
    p.add_argument("valid", help="validation CSV")
    common(p)
    p.set_defaults(handler=cmd_cv)

    p = sub.add_parser("care", help="fit the aggregated estimator with externals")
    p.add_argument("train", help="training CSV")
    p.add_argument("valid", help="validation CSV")
    common(p)
    p.set_defaults(handler=cmd_care)

    p = sub.add_parser("evaluate", help="Breslow curve and concordance metrics")
    p.add_argument("data", help="data CSV")
    p.add_argument("--predictions", default=None, help="prediction table CSV")
    common(p, config_required=False)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("study", help="replication study over sample sizes")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=cmd_study)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except (ConfigError, DataFormatError, NotInSpaceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except AllFitsFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALL_FITS_FAILED
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
