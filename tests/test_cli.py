import csv
import json
import os

import numpy as np
import pytest

from survcare import KernelEstimator, load_csv
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
        assert os.path.exists(f"{simulated}_data.csv.meta.json")

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

    def test_workers_capped_at_replications(self, tmp_path, pool_sizes):
        cfg = self.small_study(tmp_path)
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--quiet",
                     "--workers", "5000"]) == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("change", [
        {"kernel": {"variant": "gaussian", "shift": 1.0}},
        {"kernel": {"variant": "sobolev1", "shift": 0.0}},
        {"n_values": [20, 30, 20]},
    ], ids=["gaussian_without_lengthscales", "zero_shift", "repeated_n"])
    def test_bad_config_exit_2_before_any_replication(self, tmp_path, capsys, monkeypatch,
                                                      change):
        ran = []
        monkeypatch.setattr(survcare.cli, "_study_replication", ran.append)
        self.small_study(tmp_path)
        cfg = json.loads((tmp_path / "study.json").read_text(encoding="utf-8"))
        path = write_json(tmp_path / "bad.json", {**cfg, **change})
        out = str(tmp_path / "study")
        assert main(["study", "--config", path, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert ran == []
        assert not os.path.exists(f"{out}_results.csv")
        assert not os.path.exists(f"{out}_summary.csv")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, pool_sizes, capsys, workers):
        cfg = self.small_study(tmp_path)
        out = str(tmp_path / "study")
        assert main(["study", "--config", cfg, "--out", out, "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert pool_sizes == []
        assert not os.path.exists(f"{out}_results.csv")
