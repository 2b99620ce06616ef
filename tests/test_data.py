import csv
import json
import os

import numpy as np
import pytest

from survcare import (
    BadEventFlagError,
    DataFormatError,
    MissingColumnError,
    NonNumericCellError,
    NonPositiveTimeError,
    StepSurvival,
    SurvivalDataset,
    load_csv,
    split_train_validation,
    write_csv,
)
from survcare.data import open_output, read_rows, write_json, write_table


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

    def test_normalisation_idempotent(self, tmp_path):
        path = _write(tmp_path / "d.csv",
                      "x1,time,event\n0.1,0.25,1\n0.2,1.0,0\n")
        data = load_csv(path)
        assert data.time_scale == 1.0
        np.testing.assert_array_equal(data.times, [0.25, 1.0])


class TestWriteTable:
    def test_cells_and_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        floats = [0.1 + 0.2, np.float64(1.0) / 3.0, np.float32(0.1), -1e-300]
        write_table(path, ["a", "b", "c", "d"], [floats, [7, "s t", np.int64(3), None]])
        assert path.read_bytes().endswith(b"\r\n7,s t,3,\r\n")
        with open(path, newline="", encoding="utf-8") as fh:
            header, cells, verbatim = csv.reader(fh)
        assert header == ["a", "b", "c", "d"]
        assert [float(c) for c in cells] == [float(v) for v in floats]
        assert verbatim == ["7", "s t", "3", ""]
        assert path.read_bytes().count(b"\r\n") == 3


class TestRepeatedColumn:
    @pytest.mark.parametrize("header", ["x,x,time,event", "x,time,time,event"])
    def test_load_csv_refuses_a_repeated_name(self, tmp_path, header):
        path = _write(tmp_path / "d.csv", header + "\n0.1,0.9,1,1\n")
        name = header.split(",")[1]
        with pytest.raises(DataFormatError, match=f"d.csv: repeated column '{name}'"):
            load_csv(path)


class TestWideRow:
    """A row with more cells than its header is refused, never cut to fit."""

    @pytest.mark.parametrize("row", ["0.2,6,0,7", "0.2,6,0,"], ids=["extra_cell", "trailing_comma"])
    def test_data_file(self, tmp_path, row):
        path = _write(tmp_path / "d.csv", "x1,time,event\n0.1,5,1\n" + row + "\n")
        with pytest.raises(DataFormatError, match="d.csv: row 1 has 4 cells, the header 3"):
            load_csv(path)

    def test_prediction_table(self, tmp_path):
        path = _write(tmp_path / "p.csv", "prediction\n0.5\n0.5,0.1\n")
        with pytest.raises(DataFormatError, match="p.csv: row 1 has 2 cells, the header 1"):
            list(read_rows(path, lambda header: ["prediction"]))


class TestOpenOutput:
    def test_shorter_rewrite_leaves_only_new_bytes_on_the_same_inode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"x" * 10_000)
        inode = path.stat().st_ino
        with open_output(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_ino == inode

    def test_newlines_are_written_untranslated(self, tmp_path):
        path = tmp_path / "out.csv"
        with open_output(path) as fh:
            fh.write("a\nb\r\n")
        assert path.read_bytes() == b"a\nb\r\n"

    def test_hard_links_stay_shared(self, tmp_path):
        first = tmp_path / "first.json"
        first.write_text("[" + "0, " * 1000 + "0]", encoding="utf-8")
        second = tmp_path / "second.json"
        os.link(first, second)
        write_json(first, [2])
        assert second.read_bytes() == first.read_bytes()
        assert json.loads(second.read_text(encoding="utf-8")) == [2]

    def test_non_regular_file_is_not_truncated(self):
        # truncate() on a character device raises OSError (EINVAL)
        write_json(os.devnull, {"a": 1})
        StepSurvival(np.array([0.5]), np.array([0.5])).to_csv(os.devnull)

    def test_opens_without_truncating(self, tmp_path, monkeypatch):
        flags = []
        os_open = os.open

        def spy(path, flag, *args):
            flags.append(flag)
            return os_open(path, flag, *args)

        monkeypatch.setattr(os, "open", spy)
        write_json(tmp_path / "out.json", {})
        assert len(flags) == 1
        assert flags[0] & os.O_CREAT and flags[0] & os.O_WRONLY
        assert not flags[0] & os.O_TRUNC


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

    @pytest.mark.parametrize("censored", [
        [False, True, False, False, True, False],
        [True] * 6,
    ], ids=["tied", "all_censored"])
    def test_event_arrays_match_the_event_mask(self, censored):
        data = SurvivalDataset(np.zeros((6, 1)), [0.5, 0.2, 0.5, 0.2, 1.0, 0.5], censored)
        idx = data.risk_index()
        np.testing.assert_array_equal(idx.event_positions, np.flatnonzero(idx.event_sorted))
        np.testing.assert_array_equal(idx.event_start, idx.group_start[idx.event_sorted])
        assert idx.event_positions.dtype.kind == idx.event_start.dtype.kind == "i"

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
