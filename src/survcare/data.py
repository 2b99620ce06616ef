"""Censored survival data: ingestion, validation, normalisation, splitting.

The CSV interface uses the epidemiology convention (event = 1 means the event
was observed).  Internally the ``censored`` flag is the complement: censored
is True when the censoring time preceded the survival time, so an observed
event corresponds to ``censored = False``.

Observed times are normalised to (0, 1] by dividing by the maximum time in
the file; ``time_scale`` records the divisor so files round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    pass


class MissingColumnError(DataFormatError):
    pass


class NonNumericCellError(DataFormatError):
    pass


class NonPositiveTimeError(DataFormatError):
    pass


class BadEventFlagError(DataFormatError):
    pass


@dataclass
class RiskSetIndex:
    """Sorted-time lookup structure shared by likelihood evaluations.

    ``order`` sorts records by time ascending with ties broken by original row
    index.  ``group_start[p]``/``group_end[p]`` bound the tie group of sorted
    position p, so the risk set of the subject at p is the suffix starting at
    ``group_start[p]``.
    """

    order: np.ndarray
    times_sorted: np.ndarray
    event_sorted: np.ndarray
    group_start: np.ndarray
    group_end: np.ndarray


class SurvivalDataset:
    """Immutable collection of (covariates, time in (0, 1], censored) records."""

    def __init__(self, covariates, times, censored, time_scale: float = 1.0):
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        times = np.asarray(times, dtype=float)
        censored = np.asarray(censored, dtype=bool)
        n = times.shape[0]
        if n == 0:
            raise DataFormatError("dataset needs at least one record")
        if covariates.shape[0] != n or censored.shape[0] != n:
            raise DataFormatError("covariates, times and flags must have equal length")
        if not np.all(np.isfinite(covariates)):
            raise DataFormatError("covariates must be finite")
        if not np.all(np.isfinite(times)) or times.min() <= 0.0:
            raise NonPositiveTimeError("times must lie in (0, 1]")
        if times.max() > 1.0:
            raise DataFormatError("times must be normalised to (0, 1]")
        if not (np.isfinite(time_scale) and time_scale > 0):
            raise DataFormatError("time_scale must be positive")
        for arr in (covariates, times, censored):
            arr.flags.writeable = False
        self.covariates = covariates
        self.times = times
        self.censored = censored
        self.time_scale = float(time_scale)
        self.event_order = np.argsort(times, kind="stable")
        self.event_order.flags.writeable = False
        self._risk_index: RiskSetIndex | None = None

    @classmethod
    def from_raw_times(cls, covariates, raw_times, censored) -> "SurvivalDataset":
        raw = np.asarray(raw_times, dtype=float)
        if raw.size == 0:
            raise DataFormatError("dataset needs at least one record")
        if not np.all(np.isfinite(raw)) or raw.min() <= 0.0:
            raise NonPositiveTimeError("times must be positive")
        scale = float(raw.max())
        return cls(covariates, raw / scale, censored, time_scale=scale)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def dimension(self) -> int:
        return self.covariates.shape[1]

    @property
    def events(self) -> np.ndarray:
        """Boolean mask of observed events (the complement of ``censored``)."""
        return ~self.censored

    def risk_index(self) -> RiskSetIndex:
        if self._risk_index is None:
            order = self.event_order
            ts = self.times[order]
            start = np.searchsorted(ts, ts, side="left")
            end = np.searchsorted(ts, ts, side="right") - 1
            self._risk_index = RiskSetIndex(
                order=order,
                times_sorted=ts,
                event_sorted=self.events[order],
                group_start=start,
                group_end=end,
            )
        return self._risk_index

    def subset(self, indices) -> "SurvivalDataset":
        indices = np.asarray(indices, dtype=int)
        return SurvivalDataset(
            self.covariates[indices],
            self.times[indices],
            self.censored[indices],
            time_scale=self.time_scale,
        )


def _parse_cell(value: str, row: int, column: str) -> float:
    value = value.strip() if value is not None else ""
    if value == "":
        raise NonNumericCellError(f"blank cell in column {column!r}, row {row}")
    try:
        return float(value)
    except ValueError:
        raise NonNumericCellError(
            f"non-numeric value {value!r} in column {column!r}, row {row}"
        ) from None


def load_csv(path, time_column: str = "time", event_column: str = "event",
             covariate_columns: list[str] | None = None) -> SurvivalDataset:
    """Load a survival dataset from CSV.

    The header must contain the time and event columns; covariate columns
    default to every other column, in header order.  Event 1 means the event
    was observed, 0 means censored.  Times are divided by the file maximum.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: missing header row")
        header = list(reader.fieldnames)
        for col in (time_column, event_column):
            if col not in header:
                raise MissingColumnError(f"{path}: missing column {col!r}")
        if covariate_columns is None:
            covariate_columns = [c for c in header if c not in (time_column, event_column)]
        else:
            for col in covariate_columns:
                if col not in header:
                    raise MissingColumnError(f"{path}: missing column {col!r}")
        if not covariate_columns:
            raise MissingColumnError(f"{path}: no covariate columns")
        covs, raw_times, censored = [], [], []
        for i, row in enumerate(reader):
            covs.append([_parse_cell(row[c], i, c) for c in covariate_columns])
            t = _parse_cell(row[time_column], i, time_column)
            if t <= 0:
                raise NonPositiveTimeError(f"{path}: non-positive time in row {i}")
            raw_times.append(t)
            ev = _parse_cell(row[event_column], i, event_column)
            if ev not in (0.0, 1.0):
                raise BadEventFlagError(f"{path}: event flag must be 0 or 1 in row {i}")
            censored.append(ev == 0.0)
    if not raw_times:
        raise DataFormatError(f"{path}: no data rows")
    return SurvivalDataset.from_raw_times(np.asarray(covs), np.asarray(raw_times), censored)


def write_csv(dataset: SurvivalDataset, path) -> None:
    """Write a dataset with de-normalised times plus a JSON metadata sidecar."""
    d = dataset.dimension
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["time", "event"])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.covariates[i]]
            row.append(repr(float(dataset.times[i] * dataset.time_scale)))
            row.append("0" if dataset.censored[i] else "1")
            writer.writerow(row)
    write_json(f"{path}.meta.json", {"time_scale": dataset.time_scale, "dimension": d})


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def split_train_validation(data: SurvivalDataset, seed: int) -> tuple[SurvivalDataset, SurvivalDataset]:
    """Deterministic shuffle then equal halves; training gets the extra record.

    Both halves keep the parent's time scale (no renormalisation).
    """
    n = len(data)
    if n < 2:
        raise DataFormatError("need at least 2 records to split")
    rng = np.random.Generator(np.random.Philox(key=seed % 2**64))
    perm = rng.permutation(n)
    n_train = (n + 1) // 2
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])
