import csv
import json
import os

import numpy as np
import pytest

from survcare import DgpConfig, KernelEstimator, external_predictor, load_csv
import survcare.cli
from survcare.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def sim_config(tmp_path):
    return write_json(tmp_path / "sim.json",
                      {"dgp": "univariate", "n": 60, "seed": 5})


@pytest.fixture()
def simulated(tmp_path, sim_config):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", sim_config, "--out", out, "--quiet"]) == 0
    return out


CV_CONFIG = {
    "kernel": {"variant": "sobolev1", "shift": 1.0},
    "gamma_grid": {"min": 1e-3, "max": 10.0, "count": 6, "geometric": True},
}


class TestSimulate:
    def test_writes_data_and_truth(self, tmp_path, simulated):
        data = load_csv(f"{simulated}_data.csv")
        assert len(data) == 60
        with open(f"{simulated}_truth.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert set(rows[0]) == {"x1", "f0"}

    def test_negative_n_exit_2_names_field(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"dgp": "univariate", "n": -3})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json",
                         {"dgp": "univariate", "n": 5, "bogus": 1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_path_exit_3(self, tmp_path, sim_config):
        out = str(tmp_path / "missing_dir" / "prefix")
        assert main(["simulate", "--config", sim_config, "--out", out]) == 3

    def test_seed_flag_overrides(self, tmp_path, sim_config):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", sim_config, "--out", out1, "--seed", "10", "--quiet"])
        main(["simulate", "--config", sim_config, "--out", out2, "--seed", "10", "--quiet"])
        assert open(f"{out1}_data.csv").read() == open(f"{out2}_data.csv").read()


class TestFit:
    def test_fit_writes_estimator_and_predictions(self, tmp_path, simulated):
        cfg = write_json(tmp_path / "fit.json",
                         {"kernel": {"variant": "sobolev1", "shift": 1.0}, "gamma": 0.1})
        out = str(tmp_path / "fit")
        code = main(["fit", f"{simulated}_data.csv", "--config", cfg,
                     "--out", out, "--quiet"])
        assert code == 0
        with open(f"{out}_estimator.json", encoding="utf-8") as fh:
            est = KernelEstimator.from_json(json.load(fh))
        data = load_csv(f"{simulated}_data.csv")
        preds = est.predict_many(data.covariates)
        with open(f"{out}_predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(data)
        np.testing.assert_allclose(
            [float(r["prediction"]) for r in rows], preds, rtol=1e-12)


class TestCv:
    def test_selection_in_grid(self, tmp_path, simulated, capsys):
        cfg = write_json(tmp_path / "cv.json", CV_CONFIG)
        out = str(tmp_path / "cv")
        code = main(["cv", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", cfg, "--out", out, "--quiet"])
        assert code == 0
        machine = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert machine["status"] == "ok"
        with open(f"{out}_selection.json", encoding="utf-8") as fh:
            sel = json.load(fh)
        lo, hi = 1e-3, 10.0
        assert lo <= sel["gamma_hat"] <= hi
        with open(f"{out}_cv.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"gamma", "train_loss", "valid_loss", "converged"}

    def test_empty_gamma_grid_exit_2(self, tmp_path, simulated):
        cfg = write_json(tmp_path / "cv.json",
                         {"kernel": {"variant": "sobolev1", "shift": 1.0},
                          "gamma_grid": {"values": []}})
        assert main(["cv", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("armijo_slope", 1e-4), ("backtrack_factor", 0.5), ("initial_step", 1.0)])
    def test_line_search_constant_in_config_exit_2(self, tmp_path, simulated, capsys,
                                                   key, value):
        # the line search's constants are not options: naming one is an error
        cfg = dict(CV_CONFIG, optimizer={key: value})
        path = write_json(tmp_path / "cv.json", cfg)
        assert main(["cv", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "optimizer" in err and key in err

    def test_all_fits_failed_exit_4(self, tmp_path, simulated):
        cfg = dict(CV_CONFIG)
        cfg["optimizer"] = {"gradient_tolerance": 1e-30, "max_iterations": 1}
        path = write_json(tmp_path / "cv.json", cfg)
        assert main(["cv", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "x")]) == 4

    def test_care_without_externals_writes_the_same_selection(self, tmp_path, simulated):
        # cv is CARE with no externals: one selection, written by one path
        cfg = write_json(tmp_path / "cv.json", CV_CONFIG)
        data = f"{simulated}_data.csv"
        cv, care = str(tmp_path / "cv"), str(tmp_path / "care")
        assert main(["cv", data, data, "--config", cfg, "--out", cv, "--quiet"]) == 0
        assert main(["care", data, data, "--config", cfg, "--out", care, "--quiet"]) == 0
        for suffix in ("_cv.csv", "_predictions.csv", "_selection.json"):
            with open(cv + suffix, "rb") as a, open(care + suffix, "rb") as b:
                assert a.read() == b.read()
        with open(f"{cv}_estimator.json", encoding="utf-8") as fh:
            estimator = json.load(fh)
        with open(f"{care}_care.json", encoding="utf-8") as fh:
            care_json = json.load(fh)
        assert care_json["kernel_estimator"] == estimator
        assert care_json["theta"] == [] and care_json["externals"] == []
        with open(f"{cv}_selection.json", encoding="utf-8") as fh:
            sel = json.load(fh)
        assert sel["gamma_check"] == sel["gamma_hat"] == care_json["gamma"]
        assert sel["theta_check"] == []


class TestCare:
    def test_builtin_external(self, tmp_path, simulated):
        cfg = dict(CV_CONFIG)
        cfg["externals"] = [{"builtin": "univariate_perturbed"}]
        cfg["theta_resolution"] = 10
        path = write_json(tmp_path / "care.json", cfg)
        out = str(tmp_path / "care")
        code = main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", out, "--quiet"])
        assert code == 0
        with open(f"{out}_selection.json", encoding="utf-8") as fh:
            sel = json.load(fh)
        assert 1e-3 <= sel["gamma_check"] <= 10.0
        assert len(sel["theta_check"]) == 1
        assert 0.0 <= sel["theta_check"][0] <= 1.0
        with open(f"{out}_care.json", encoding="utf-8") as fh:
            care = json.load(fh)
        assert care["externals"][0]["name"] == "univariate_perturbed"
        with open(f"{out}_predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["role"] for r in rows} == {"train", "valid"}

    def test_table_external(self, tmp_path, simulated):
        data = load_csv(f"{simulated}_data.csv")
        table = tmp_path / "ext.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["prediction"])
            for v in np.linspace(-1, 1, len(data)):
                writer.writerow([repr(float(v))])
        cfg = dict(CV_CONFIG)
        cfg["externals"] = [{"name": "tab", "train_table": str(table),
                             "valid_table": str(table)}]
        path = write_json(tmp_path / "care.json", cfg)
        code = main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "care"), "--quiet"])
        assert code == 0

    def test_python_warning_printed_as_cli_warning(self, tmp_path, simulated, capsys):
        table = tmp_path / "ext.csv"
        table.write_text("prediction\n" + "500.0\n" * len(load_csv(f"{simulated}_data.csv")))
        cfg = dict(CV_CONFIG)
        cfg["externals"] = [{"name": "big", "train_table": str(table),
                             "valid_table": str(table)}]
        path = write_json(tmp_path / "care.json", cfg)
        code = main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "care"), "--quiet"])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: external 'big' exceeds the sup-norm bound 100.0\n" in err
        assert "UserWarning" not in err
        assert "warnings.warn(" not in err

    @staticmethod
    def two_samples(tmp_path):
        """Training and validation draws on which the builtin external gets theta 0.3."""
        paths = []
        for role, seed in (("train", 1), ("valid", 2)):
            cfg = write_json(tmp_path / f"{role}_sim.json",
                             {"dgp": "univariate", "n": 200, "seed": seed})
            out = str(tmp_path / role)
            assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
            paths.append(f"{out}_data.csv")
        return paths

    @staticmethod
    def external_care(tmp_path, name, externals, *data):
        path = write_json(tmp_path / f"{name}.json", {
            "kernel": {"variant": "sobolev1", "shift": 1.0},
            "gamma_grid": {"min": 1e-3, "max": 1.0, "count": 6},
            "theta_resolution": 10, "externals": externals})
        out = str(tmp_path / name)
        assert main(["care", *data, "--config", path, "--out", out, "--quiet"]) == 0
        with open(f"{out}_selection.json", encoding="utf-8") as fh:
            assert json.load(fh)["theta_check"] == [0.3]
        return out

    def test_builtin_external_is_evaluated_once_per_sample(self, tmp_path, monkeypatch):
        calls = []

        def counting(dgp, xs):
            calls.append(len(xs))
            return external_predictor(dgp, xs)

        monkeypatch.setattr(survcare.cli, "external_predictor", counting)
        train, valid = self.two_samples(tmp_path)
        self.external_care(tmp_path, "care", [{"builtin": "univariate_perturbed"}],
                           train, valid)
        assert calls == [len(load_csv(train)), len(load_csv(valid))]

    def test_table_of_the_builtin_writes_the_builtin_bytes(self, tmp_path):
        train, valid = self.two_samples(tmp_path)
        tables = {}
        for role, data in (("train", train), ("valid", valid)):
            values = external_predictor(DgpConfig("univariate"), load_csv(data).covariates)
            tables[f"{role}_table"] = str(tmp_path / f"{role}_ext.csv")
            with open(tables[f"{role}_table"], "w", newline="") as fh:
                fh.write("prediction\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        builtin = self.external_care(tmp_path, "builtin", [{"builtin": "univariate_perturbed"}],
                                     train, valid)
        table = self.external_care(tmp_path, "table",
                                   [{"name": "univariate_perturbed", **tables}], train, valid)
        for suffix in ("_cv.csv", "_selection.json", "_predictions.csv", "_care.json"):
            with open(builtin + suffix, "rb") as a, open(table + suffix, "rb") as b:
                assert a.read() == b.read()

    def test_wrong_row_count_exit_2(self, tmp_path, simulated):
        table = tmp_path / "ext.csv"
        with open(table, "w", newline="") as fh:
            fh.write("prediction\n0.5\n0.5\n")
        cfg = dict(CV_CONFIG)
        cfg["externals"] = [{"name": "tab", "train_table": str(table),
                             "valid_table": str(table)}]
        path = write_json(tmp_path / "care.json", cfg)
        assert main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "y")]) == 2

    def test_unknown_builtin_exit_2(self, tmp_path, simulated):
        cfg = dict(CV_CONFIG)
        cfg["externals"] = [{"builtin": "nonexistent"}]
        path = write_json(tmp_path / "care.json", cfg)
        assert main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "z")]) == 2


MALFORMED_KERNELS = {
    "polynomial_without_degree": {"variant": "polynomial"},
    "fractional_degree": {"variant": "polynomial", "degree": 2.5},
    "summand_without_kernel": {"variant": "additive", "summands": [{"coord": 0}]},
    "summands_not_a_list": {"variant": "additive", "summands": "x"},
    "string_shift": {"variant": "sobolev1", "shift": "1.5"},
    "boolean_shift": {"variant": "sobolev1", "shift": True},
    # JSON integers beyond the double range
    "oversized_shift": {"variant": "sobolev1", "shift": 10**400},
    "oversized_lengthscale": {"variant": "gaussian", "shift": 1.0, "lengthscales": [10**400]},
    "oversized_sigma": {"variant": "gaussian", "shift": 1.0, "sigma": [[10**400]]},
    "oversized_degree": {"variant": "polynomial", "degree": 10**400, "shift": 1.0},
}

OVERSIZED_GAMMA_GRIDS = {
    "geometric_max": {"min": 1e-2, "max": 10**400, "count": 3},
    "linear_min": {"min": 10**400, "max": 1.0, "count": 3, "geometric": False},
    "value": {"values": [0.1, 10**400]},
    "count": {"min": 1e-2, "max": 1.0, "count": 10**400},
}

SMALL_GRID = {"min": 1e-2, "max": 1.0, "count": 3}


class TestKernelConfig:
    @staticmethod
    def command_line(command, kernel, data, tmp_path, grid=SMALL_GRID):
        """The arguments of one command whose config carries ``kernel`` and ``grid``."""
        configs = {
            "fit": {"kernel": kernel, "gamma": 0.1},
            "cv": {"kernel": kernel, "gamma_grid": grid},
            "care": {"kernel": kernel, "gamma_grid": grid,
                     "externals": [{"builtin": "univariate_perturbed"}]},
            "study": {"dgp": "univariate", "kernel": kernel, "gamma_grid": grid,
                      "n_values": [20], "replications": 1, "mc_points": 50},
        }
        inputs = {"fit": [data], "cv": [data, data], "care": [data, data], "study": []}
        cfg = write_json(tmp_path / f"{command}.json", configs[command])
        return [command, *inputs[command], "--config", cfg, "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("kernel", MALFORMED_KERNELS.values(), ids=MALFORMED_KERNELS)
    @pytest.mark.parametrize("command", ["fit", "cv", "care", "study"])
    def test_malformed_kernel_exit_2(self, tmp_path, simulated, capsys, command, kernel):
        args = self.command_line(command, kernel, f"{simulated}_data.csv", tmp_path)
        assert main(args) == 2
        assert "error: invalid kernel config: " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out_estimator.json")

    @pytest.mark.parametrize("grid", OVERSIZED_GAMMA_GRIDS.values(), ids=OVERSIZED_GAMMA_GRIDS)
    @pytest.mark.parametrize("command", ["cv", "care", "study"])
    def test_oversized_gamma_grid_exit_2(self, tmp_path, simulated, capsys, command, grid):
        kernel = {"variant": "sobolev1", "shift": 1.0}
        args = self.command_line(command, kernel, f"{simulated}_data.csv", tmp_path, grid)
        assert main(args) == 2
        assert "error: invalid gamma_grid config: " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out_cv.csv")
        assert not os.path.exists(tmp_path / "out_results.csv")

    @pytest.mark.parametrize("change, message", [
        ({"gamma": 10**400}, "error: gamma must be positive and finite"),
        ({"optimizer": {"gradient_tolerance": 10**400}},
         "error: invalid optimizer config: gradient_tolerance must be positive and finite"),
    ], ids=["gamma", "gradient_tolerance"])
    def test_oversized_fit_number_exit_2(self, tmp_path, simulated, capsys, change, message):
        config = {"kernel": {"variant": "sobolev1", "shift": 1.0}, "gamma": 0.1, **change}
        cfg = write_json(tmp_path / "fit.json", config)
        assert main(["fit", f"{simulated}_data.csv", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_oversized_seed_is_reduced_not_refused(self, tmp_path, command):
        if command == "simulate":
            config = {"dgp": "univariate", "n": 20, "seed": 10**400}
        else:
            config = {"dgp": "univariate", "kernel": {"variant": "sobolev1", "shift": 1.0},
                      "gamma_grid": SMALL_GRID, "n_values": [20], "replications": 1,
                      "mc_points": 50, "seed": 10**400}
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_integer_shift_is_written_as_a_float(self, tmp_path, simulated):
        kernel = {"variant": "sobolev1", "shift": 1}
        assert main(self.command_line("fit", kernel, f"{simulated}_data.csv", tmp_path)) == 0
        with open(tmp_path / "out_estimator.json", encoding="utf-8") as fh:
            assert '"shift": 1.0' in fh.read()


# every integer setting of every command, as a path into that command's config
INTEGER_CONFIGS = {
    "simulate": {"dgp": "univariate", "n": 20, "seed": 1},
    "fit": {"kernel": CV_CONFIG["kernel"], "gamma": 0.1, "optimizer": {"max_iterations": 50}},
    "cv": dict(CV_CONFIG, optimizer={"max_iterations": 50}),
    "care": dict(CV_CONFIG, externals=[{"builtin": "univariate_perturbed"}],
                 theta_resolution=5, optimizer={"max_iterations": 50}),
    "study": {"dgp": "univariate", "kernel": CV_CONFIG["kernel"], "gamma_grid": SMALL_GRID,
              "n_values": [20], "replications": 1, "use_external": True,
              "theta_resolution": 5, "mc_points": 50, "seed": 1,
              "optimizer": {"max_iterations": 50}},
}
INTEGER_FIELDS = [
    ("simulate", ("n",)), ("simulate", ("seed",)),
    ("fit", ("optimizer", "max_iterations")),
    ("cv", ("gamma_grid", "count")), ("cv", ("optimizer", "max_iterations")),
    ("care", ("gamma_grid", "count")), ("care", ("theta_resolution",)),
    ("care", ("optimizer", "max_iterations")),
    ("study", ("gamma_grid", "count")), ("study", ("n_values", 0)),
    ("study", ("replications",)), ("study", ("theta_resolution",)),
    ("study", ("mc_points",)), ("study", ("seed",)), ("study", ("optimizer", "max_iterations")),
]


@pytest.mark.parametrize("command, field", INTEGER_FIELDS,
                         ids=["-".join([c, *map(str, f)]) for c, f in INTEGER_FIELDS])
def test_integral_float_for_an_integer_exit_2(tmp_path, simulated, capsys, command, field):
    config = json.loads(json.dumps(INTEGER_CONFIGS[command]))
    valid_path = write_json(tmp_path / "valid.json", config)
    assert survcare.cli._load_config(valid_path, command) == config
    *parents, last = field
    holder = config
    for key in parents:
        holder = holder[key]
    holder[last] = float(holder[last])
    data = f"{simulated}_data.csv"
    inputs = {"fit": [data], "cv": [data, data], "care": [data, data]}
    args = [command, *inputs.get(command, []),
            "--config", write_json(tmp_path / "float.json", config),
            "--out", str(tmp_path / "out")]
    assert main(args) == 2
    where = "/".join(map(str, field))
    assert (f"invalid config at {where}: {holder[last]!r} is not of type 'integer'"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("out_*"))


class TestPredictionTables:
    @pytest.mark.parametrize("body, message", [
        ("row,prediction\n0,0.5\n1\n2,0.5\n", "blank cell in column 'prediction', row 1"),
        ("prediction\n0.5\n0.5\nabc\n", "non-numeric value 'abc' in column 'prediction', row 2"),
        ("prediction\n0.5\nnan\n0.5\n", "non-finite value 'nan' in column 'prediction', row 1"),
        ("prediction\n-inf\n0.5\n", "non-finite value '-inf' in column 'prediction', row 0"),
        ("prediction\n0.5\n1e999\n", "non-finite value '1e999' in column 'prediction', row 1"),
    ], ids=["short_row", "non_numeric", "nan", "minus_inf", "overflowing"])
    @pytest.mark.parametrize("command", ["evaluate", "care"])
    def test_bad_cell_exit_2_names_the_file_and_row(self, tmp_path, simulated, capsys,
                                                     command, body, message):
        table = tmp_path / "table.csv"
        table.write_text(body, encoding="utf-8")
        data = f"{simulated}_data.csv"
        if command == "evaluate":
            args = ["evaluate", data, "--predictions", str(table)]
        else:
            cfg = dict(CV_CONFIG, externals=[{"name": "tab", "train_table": str(table),
                                              "valid_table": str(table)}])
            args = ["care", data, data, "--config", write_json(tmp_path / "care.json", cfg)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert f"error: {table}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command, label", [
        ("evaluate", "prediction table"),
        ("care", "external 'tab': table"),
    ])
    def test_row_count_mismatch_exit_2_names_the_table(self, tmp_path, simulated, capsys,
                                                       command, label):
        table = tmp_path / "table.csv"
        table.write_text("prediction\n0.5\n0.5\n", encoding="utf-8")
        data = f"{simulated}_data.csv"
        if command == "evaluate":
            args = ["evaluate", data, "--predictions", str(table)]
        else:
            cfg = dict(CV_CONFIG, externals=[{"name": "tab", "train_table": str(table),
                                              "valid_table": str(table)}])
            args = ["care", data, data, "--config", write_json(tmp_path / "care.json", cfg)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {label} {table} has 2 rows, expected 60\n" in err


class TestEvaluate:
    def test_breslow_and_concordance(self, tmp_path, simulated):
        data = load_csv(f"{simulated}_data.csv")
        preds_path = tmp_path / "preds.csv"
        with open(preds_path, "w", newline="") as fh:
            fh.write("prediction\n" + "\n".join(
                repr(float(v)) for v in -data.times) + "\n")
        out = str(tmp_path / "eval")
        code = main(["evaluate", f"{simulated}_data.csv",
                     "--predictions", str(preds_path), "--out", out, "--quiet"])
        assert code == 0
        with open(f"{out}_metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert metrics["concordance"] == 1.0
        with open(f"{out}_breslow.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["survival"]) for r in rows]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_breslow_times_in_file_units(self, tmp_path):
        data = tmp_path / "days.csv"
        data.write_text("x1,time,event\n0.1,100,1\n0.2,300,1\n0.3,400,1\n0.4,500,0\n")
        out = str(tmp_path / "eval")
        assert main(["evaluate", str(data), "--out", out, "--quiet"]) == 0
        with open(f"{out}_breslow.csv", newline="") as fh:
            times = [float(r["t"]) for r in csv.DictReader(fh)]
        assert times == [0.0, 100.0, 300.0, 400.0]


class TestRepeatedColumn:
    """A header that names a column twice is refused with exit 2, never read."""

    def test_data_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,x,time,event\n0.1,0.9,1,1\n0.2,0.8,2,0\n")
        cfg = write_json(tmp_path / "fit.json", {"kernel": CV_CONFIG["kernel"], "gamma": 0.1})
        assert main(["fit", str(data), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {data}: repeated column 'x'\n" in capsys.readouterr().err

    def test_evaluate_predictions(self, tmp_path, simulated, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction,prediction\n" + "0.5,0.1\n" * 60)
        code = main(["evaluate", f"{simulated}_data.csv", "--predictions", str(preds),
                     "--out", str(tmp_path / "eval")])
        assert code == 2
        assert f"error: {preds}: repeated column 'prediction'\n" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "eval_metrics.json")

    def test_care_table_external(self, tmp_path, simulated, capsys):
        table = tmp_path / "ext.csv"
        table.write_text("prediction,prediction\n" + "0.5,0.1\n" * 60)
        cfg = dict(CV_CONFIG, externals=[{"name": "tab", "train_table": str(table),
                                          "valid_table": str(table)}])
        path = write_json(tmp_path / "care.json", cfg)
        code = main(["care", f"{simulated}_data.csv", f"{simulated}_data.csv",
                     "--config", path, "--out", str(tmp_path / "care")])
        assert code == 2
        assert f"error: {table}: repeated column 'prediction'\n" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "care_cv.csv")


class TestWideRow:
    """A row with more cells than its header is refused with exit 2, never cut to fit."""

    @pytest.mark.parametrize("command", ["fit", "cv", "care", "evaluate"])
    def test_data_file(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("x1,time,event\n0.1,5,1\n0.2,6,0,7\n0.3,7,1\n")
        configs = {"fit": {"kernel": CV_CONFIG["kernel"], "gamma": 0.1}, "cv": CV_CONFIG,
                   "care": dict(CV_CONFIG, externals=[{"builtin": "univariate_perturbed"}],
                                theta_resolution=5)}
        args = [command, str(data)] + ([str(data)] if command in ("cv", "care") else [])
        if command in configs:
            args += ["--config", write_json(tmp_path / "c.json", configs[command])]
        assert main(args + ["--out", str(tmp_path / "o")]) == 2
        assert f"error: {data}: row 1 has 4 cells, the header 3\n" in capsys.readouterr().err
        assert not [p for p in os.listdir(tmp_path) if p.startswith("o_")]

    @pytest.mark.parametrize("command", ["evaluate", "care"])
    def test_prediction_table(self, tmp_path, simulated, capsys, command):
        table = tmp_path / "preds.csv"
        table.write_text("prediction\n" + "0.5\n" * 59 + "0.5,\n")
        data = f"{simulated}_data.csv"
        if command == "evaluate":
            args = ["evaluate", data, "--predictions", str(table)]
        else:
            cfg = dict(CV_CONFIG, externals=[{"name": "tab", "train_table": str(table),
                                              "valid_table": str(table)}])
            args = ["care", data, data, "--config", write_json(tmp_path / "care.json", cfg)]
        assert main(args + ["--out", str(tmp_path / "o")]) == 2
        assert f"error: {table}: row 59 has 2 cells, the header 1\n" in capsys.readouterr().err


class TestNonFiniteCell:
    """A nan or infinite cell is refused with exit 2 where it is read, never taken as a number."""

    @pytest.mark.parametrize("command", ["fit", "cv", "care", "evaluate"])
    @pytest.mark.parametrize("row, column, cell", [
        ("0.2,nan,0", "time", "nan"),
        ("0.2,inf,0", "time", "inf"),
        ("nan,6,0", "x1", "nan"),
    ], ids=["nan_time", "inf_time", "nan_covariate"])
    def test_data_file(self, tmp_path, capsys, command, row, column, cell):
        data = tmp_path / "d.csv"
        data.write_text(f"x1,time,event\n0.1,5,1\n{row}\n0.3,7,1\n")
        configs = {"fit": {"kernel": CV_CONFIG["kernel"], "gamma": 0.1}, "cv": CV_CONFIG,
                   "care": dict(CV_CONFIG, externals=[{"builtin": "univariate_perturbed"}],
                                theta_resolution=5)}
        args = [command, str(data)] + ([str(data)] if command in ("cv", "care") else [])
        if command in configs:
            args += ["--config", write_json(tmp_path / "c.json", configs[command])]
        assert main(args + ["--out", str(tmp_path / "o")]) == 2
        assert (f"error: {data}: non-finite value {cell!r} in column {column!r}, row 1\n"
                in capsys.readouterr().err)
        assert not [p for p in os.listdir(tmp_path) if p.startswith("o_")]


class TestOutputsOverwrittenInPlace:
    """Every command rewrites existing outputs in place, leaving exactly the new bytes."""

    COMMANDS = ["simulate", "fit", "cv", "care", "evaluate", "study"]

    @staticmethod
    def command_line(command, simulated, tmp_path):
        data = f"{simulated}_data.csv"
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction\n" + "0.5\n" * 60, encoding="utf-8")
        configs = {
            "simulate": {"dgp": "univariate", "n": 20, "seed": 1},
            "fit": {"kernel": CV_CONFIG["kernel"], "gamma": 0.1},
            "cv": CV_CONFIG,
            "care": dict(CV_CONFIG, externals=[{"builtin": "univariate_perturbed"}],
                         theta_resolution=5),
            "study": {"dgp": "univariate", "kernel": CV_CONFIG["kernel"],
                      "gamma_grid": SMALL_GRID, "n_values": [20], "replications": 1,
                      "use_external": True, "theta_resolution": 5, "mc_points": 50},
        }
        inputs = {"fit": [data], "cv": [data, data], "care": [data, data],
                  "evaluate": [data, "--predictions", str(preds)]}
        args = [command, *inputs.get(command, [])]
        if command in configs:
            args += ["--config", write_json(tmp_path / f"{command}.json", configs[command])]
        return args

    @staticmethod
    def run(args, directory):
        """Run ``args`` with the prefix ``directory/o``; each written file's bytes by suffix."""
        directory.mkdir(exist_ok=True)
        assert main([*args, "--out", str(directory / "o"), "--quiet"]) == 0
        return {p.name[1:]: p.read_bytes() for p in directory.glob("o_*")}

    @pytest.mark.parametrize("link", [False, True], ids=["file", "symlink"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, simulated, command, link):
        args = self.command_line(command, simulated, tmp_path)
        expected = self.run(args, tmp_path / "fresh")
        assert len(expected) >= 2
        old, targets = tmp_path / "old", tmp_path / "targets"
        old.mkdir()
        targets.mkdir()
        inodes = {}
        for suffix, content in expected.items():
            stale = (targets if link else old) / f"o{suffix}"
            stale.write_bytes(b"9" * (len(content) + 4096))
            if link:
                (old / f"o{suffix}").symlink_to(stale)
            inodes[suffix] = stale.stat().st_ino
        assert self.run(args, old) == expected
        for suffix in expected:
            path = old / f"o{suffix}"
            assert path.is_symlink() == link
            assert path.stat().st_ino == inodes[suffix]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_outputs_are_opened_without_truncation(self, tmp_path, simulated, monkeypatch,
                                                   command):
        args = self.command_line(command, simulated, tmp_path)
        directory = tmp_path / "out"
        opened = {}
        os_open = os.open

        def spy(path, flags, *rest, **kwargs):
            if os.fspath(path).startswith(str(directory)):
                opened[os.fspath(path)] = flags
            return os_open(path, flags, *rest, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        written = self.run(args, directory)
        assert sorted(opened) == sorted(str(directory / f"o{s}") for s in written)
        for flags in opened.values():
            assert flags & os.O_WRONLY and flags & os.O_CREAT
            assert not flags & os.O_TRUNC


class TestStudy:
    def test_small_study_row_count(self, tmp_path):
        cfg = write_json(tmp_path / "study.json", {
            "dgp": "univariate",
            "kernel": {"variant": "sobolev1", "shift": 1.0},
            "gamma_grid": {"min": 1e-3, "max": 10.0, "count": 5, "geometric": True},
            "n_values": [20, 30],
            "replications": 3,
            "use_external": True,
            "theta_resolution": 5,
            "mc_points": 100,
            "seed": 1,
        })
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(f"{out}_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3 * 4  # n values x reps x estimators
        assert {r["estimator"] for r in rows} == {
            "cv_kernel", "oracle_kernel", "care", "external"}
        for row in rows:
            if row["estimator"] == "care":
                assert 0.0 <= float(row["theta"]) <= 1.0
        with open(f"{out}_summary.csv", newline="") as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 2 * 4
        for row in srows:
            lo, hi = float(row["ci_low"]), float(row["ci_high"])
            assert lo <= float(row["mean_l2_error"]) <= hi

    def test_one_replication_builds_one_section_matrix_at_its_mc_points(
            self, tmp_path, monkeypatch):
        # every fit of the path shares its basis, so the Monte-Carlo points
        # need one (points x basis) matrix, not one per level and estimator
        mc_points = 37
        built = []
        sections = KernelEstimator._centred_sections

        def counting(self, xs):
            built.append(len(xs))
            return sections(self, xs)

        monkeypatch.setattr(KernelEstimator, "_centred_sections", counting)
        cfg = write_json(tmp_path / "study.json", {
            "dgp": "univariate",
            "kernel": {"variant": "sobolev1", "shift": 1.0},
            "gamma_grid": {"min": 1e-3, "max": 10.0, "count": 5, "geometric": True},
            "n_values": [30],
            "replications": 1,
            "use_external": True,
            "theta_resolution": 5,
            "mc_points": mc_points,
            "seed": 1,
        })
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert built.count(mc_points) == 1

    def test_degraded_study_exit_5(self, tmp_path):
        cfg = write_json(tmp_path / "study.json", {
            "dgp": "univariate",
            "kernel": {"variant": "sobolev1", "shift": 1.0},
            "gamma_grid": {"min": 1e-2, "max": 1.0, "count": 3, "geometric": True},
            "n_values": [20],
            "replications": 2,
            "mc_points": 50,
            "seed": 3,
            "optimizer": {"gradient_tolerance": 1e-30, "max_iterations": 1},
        })
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet"]) == 5

    def test_kernel_only_study(self, tmp_path):
        cfg = self.small_study(tmp_path)
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(f"{out}_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["estimator"] for r in rows} == {"cv_kernel", "oracle_kernel"}

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """Record the pool sizes run_study asks for; map runs in-process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(survcare.cli, "ProcessPoolExecutor", InProcessPool)
        return sizes

    @staticmethod
    def small_study(tmp_path):
        """Two kernel-only replications at n=20."""
        return write_json(tmp_path / "study.json", {
            "dgp": "univariate",
            "kernel": {"variant": "sobolev1", "shift": 1.0},
            "gamma_grid": {"min": 1e-2, "max": 1.0, "count": 3, "geometric": True},
            "n_values": [20],
            "replications": 2,
            "mc_points": 50,
            "seed": 2,
        })

    def test_rerun_with_fewer_replications_leaves_only_new_rows(self, tmp_path):
        with open(self.small_study(tmp_path), encoding="utf-8") as fh:
            config = json.load(fh)
        reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
        assert survcare.cli.run_study(dict(config, replications=3), reused, quiet=True) == 0
        assert survcare.cli.run_study(dict(config, replications=1), reused, quiet=True) == 0
        assert survcare.cli.run_study(dict(config, replications=1), fresh, quiet=True) == 0
        for suffix in ("_results.csv", "_summary.csv"):
            with open(reused + suffix, "rb") as a, open(fresh + suffix, "rb") as b:
                assert a.read() == b.read()
        with open(reused + "_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["rep"], r["estimator"]) for r in rows] == [
            ("0", "cv_kernel"), ("0", "oracle_kernel")]

    def test_workers_capped_at_replications(self, tmp_path, pool_sizes):
        cfg = self.small_study(tmp_path)
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet",
                     "--workers", "5000"]) == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("change, message", [
        ({"kernel": {"variant": "gaussian", "shift": 1.0}}, "invalid kernel config"),
        ({"kernel": {"variant": "sobolev1", "shift": 0.0}}, "constant function is not"),
        ({"n_values": [20, 30, 20]}, "invalid config at n_values: [20, 30, 20] has non-unique"),
        ({"n_values": [20, 10**40]}, "invalid study config: n_values entry 10"),
        ({"mc_points": 10**41}, "invalid study config: mc_points"),
        ({"use_external": True, "theta_resolution": 2_000_000},
         "theta grid would have 2000001 points"),
        ({"dgp": "multivariate_d10"}, "expected dimension 1, got 10"),
        ({"kernel": {"variant": "gaussian", "shift": 1.0, "lengthscales": [1.0, 1.0]}},
         "expected dimension 2, got 1"),
    ], ids=["gaussian_without_lengthscales", "zero_shift", "repeated_n", "huge_n", "huge_mc",
            "huge_theta_grid", "sobolev1_on_d10", "two_lengthscales_on_univariate"])
    def test_bad_config_exit_2_before_any_replication(self, tmp_path, capsys, monkeypatch,
                                                      change, message):
        ran = []
        monkeypatch.setattr(survcare.cli, "_study_replication", ran.append)
        self.small_study(tmp_path)
        cfg = json.loads((tmp_path / "study.json").read_text(encoding="utf-8"))
        path = write_json(tmp_path / "bad.json", {**cfg, **change})
        out = str(tmp_path / "study")
        assert main(["study", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert ran == []
        assert not os.path.exists(f"{out}_results.csv")
        assert not os.path.exists(f"{out}_summary.csv")

    @pytest.mark.parametrize("dgp, d", [("univariate", 1), ("multivariate_d10", 10)])
    @pytest.mark.parametrize("field", ["n_values", "mc_points"])
    def test_refuses_exactly_the_sizes_numpy_cannot_index(self, tmp_path, monkeypatch,
                                                          dgp, d, field):
        def indexable(rows):  # a zero-stride view: numpy's check, with nothing allocated
            try:
                np.broadcast_to(np.zeros((1, d)), (rows, d))
            except ValueError:
                return False
            return True

        def not_run(payload):
            ran.append(payload)
            return {"n": payload["n"], "rep": payload["rep"], "rows": [], "error": "not run"}

        ran = []
        monkeypatch.setattr(survcare.cli, "_study_replication", not_run)
        with open(self.small_study(tmp_path), encoding="utf-8") as fh:
            # a kernel of the generator's dimension, so only the size is at fault
            config = dict(json.load(fh), dgp=dgp, kernel={
                "variant": "gaussian", "shift": 1.0, "lengthscales": [1.0] * d})
        out = str(tmp_path / "study")
        last = np.iinfo(np.intp).max // (8 * d)  # the most (rows, d) doubles numpy indexes
        assert indexable(last) and not indexable(last + 1)
        # a study draws 2n records
        largest, beyond = ([last // 2], [last // 2 + 1]) if field == "n_values" else (last, last + 1)
        assert survcare.cli.run_study({**config, field: largest}, out, quiet=True) == 5
        assert len(ran) == 2
        with pytest.raises(survcare.cli.ConfigError, match="invalid study config"):
            survcare.cli.run_study({**config, field: beyond}, out, quiet=True)
        assert len(ran) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, pool_sizes, capsys, workers):
        cfg = self.small_study(tmp_path)
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert pool_sizes == []
        assert not os.path.exists(f"{out}_results.csv")
