import json

import numpy as np
import pytest

from survcare import (
    BadEventFlagError,
    DataFormatError,
    MissingColumnError,
    NonNumericCellError,
    NonPositiveTimeError,
    SurvivalDataset,
    load_csv,
    split_train_validation,
    write_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_normalises_times_and_flags(self, tmp_path):
        path = _write(tmp_path / "d.csv",
                      "x1,time,event\n0.1,2,1\n0.2,4,0\n0.3,8,1\n")
        data = load_csv(path)
        np.testing.assert_allclose(data.times, [0.25, 0.5, 1.0])
        np.testing.assert_array_equal(data.censored, [False, True, False])
        assert data.time_scale == 8.0
        assert data.dimension == 1

    def test_zero_time_rejected(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,time,event\n0.1,0,1\n")
        with pytest.raises(NonPositiveTimeError):
            load_csv(path)

    def test_bad_event_flag(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,time,event\n0.1,1,2\n")
        with pytest.raises(BadEventFlagError):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,t,event\n0.1,1,1\n")
        with pytest.raises(MissingColumnError):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,time,event\nfoo,1,1\n")
        with pytest.raises(NonNumericCellError):
            load_csv(path)

    def test_blank_cell_rejected(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,x2,time,event\n0.1,,1,1\n")
        with pytest.raises(NonNumericCellError):
            load_csv(path)

    def test_explicit_covariate_columns(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,time,event\n1,2,1,1\n3,4,2,0\n")
        data = load_csv(path, covariate_columns=["b"])
        np.testing.assert_allclose(data.covariates, [[2.0], [4.0]])


class TestRoundTrip:
    def test_write_then_load(self, tmp_path, small_dataset):
        path = str(tmp_path / "out.csv")
        write_csv(small_dataset, path)
        again = load_csv(path)
        np.testing.assert_allclose(again.times, small_dataset.times, rtol=1e-12)
        np.testing.assert_array_equal(again.censored, small_dataset.censored)
        np.testing.assert_allclose(again.covariates, small_dataset.covariates, rtol=1e-12)
        with open(path + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["dimension"] == small_dataset.dimension
        assert meta["time_scale"] == pytest.approx(small_dataset.time_scale)

    def test_normalisation_idempotent(self, tmp_path):
        path = _write(tmp_path / "d.csv",
                      "x1,time,event\n0.1,0.25,1\n0.2,1.0,0\n")
        data = load_csv(path)
        assert data.time_scale == 1.0
        np.testing.assert_array_equal(data.times, [0.25, 1.0])


class TestDatasetInvariants:
    def test_needs_records(self):
        with pytest.raises(DataFormatError):
            SurvivalDataset(np.zeros((0, 1)), np.zeros(0), np.zeros(0, dtype=bool))

    def test_times_must_be_in_unit_interval(self):
        with pytest.raises(DataFormatError):
            SurvivalDataset([[0.1]], [1.5], [False])
        with pytest.raises(NonPositiveTimeError):
            SurvivalDataset([[0.1]], [0.0], [False])

    def test_event_order_sorted_with_stable_ties(self):
        data = SurvivalDataset([[0.0], [1.0], [2.0], [3.0]],
                               [0.5, 0.2, 0.5, 0.1],
                               [False, False, True, False])
        np.testing.assert_array_equal(data.event_order, [3, 1, 0, 2])
        assert np.all(np.diff(data.times[data.event_order]) >= 0)

    def test_arrays_immutable(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.times[0] = 0.5


class TestSplit:
    def test_partition_covers_all(self, small_dataset):
        train, valid = split_train_validation(small_dataset, 3)
        assert len(train) + len(valid) == len(small_dataset)
        combined = np.sort(np.concatenate([train.times * train.time_scale,
                                           valid.times * valid.time_scale]))
        np.testing.assert_allclose(
            combined, np.sort(small_dataset.times * small_dataset.time_scale))

    def test_deterministic(self, small_dataset):
        a1, b1 = split_train_validation(small_dataset, 5)
        a2, b2 = split_train_validation(small_dataset, 5)
        np.testing.assert_array_equal(a1.times, a2.times)
        np.testing.assert_array_equal(b1.covariates, b2.covariates)

    def test_odd_sizes(self):
        data = SurvivalDataset(np.arange(5)[:, None] / 10 + 0.1,
                               np.linspace(0.2, 1.0, 5),
                               np.zeros(5, dtype=bool))
        train, valid = split_train_validation(data, 0)
        assert (len(train), len(valid)) == (3, 2)

    def test_keeps_time_scale(self, tmp_path):
        path = _write(tmp_path / "d.csv", "x1,time,event\n0.1,2,1\n0.2,4,0\n0.3,8,1\n")
        data = load_csv(path)
        train, valid = split_train_validation(data, 1)
        assert train.time_scale == valid.time_scale == 8.0

    def test_too_small(self):
        data = SurvivalDataset([[0.1]], [0.5], [False])
        with pytest.raises(DataFormatError):
            split_train_validation(data, 0)
