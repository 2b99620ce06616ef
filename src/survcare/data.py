"""Censored survival data: ingestion, validation, normalisation, splitting.

The CSV interface uses the epidemiology convention (event = 1 means the event
was observed).  Internally the ``censored`` flag is the complement: censored
is True when the censoring time preceded the survival time, so an observed
event corresponds to ``censored = False``.

Observed times are normalised to (0, 1] by dividing by the maximum time in
the file; ``time_scale`` records the divisor so files round-trip exactly.

Two gates check every caller-supplied array in the package.  ``as_points``
makes covariates a float (n, d) array, a 1-D array being n points of a
one-coordinate model, and refuses more than two dimensions, no points, a
non-finite entry and a wrong d.  ``as_record_values`` makes one finite value
per record, an (n,) array.  Both raise ``DataFormatError``, so a given bad
array fails with one class and one message at every entry point.  A CSV
cell must hold a finite number: ``nan``, ``inf`` and ``1e999`` are refused
where they are read, naming the file, the column and the row.

Every file the package writes is opened by ``open_output``, which overwrites
it in place: it opens without truncating, writes from the start, and cuts a
regular file to the bytes written when it closes.  The file keeps its inode,
so a symlink is written through, hard links stay shared and a read-only file
is refused; a non-regular path such as ``/dev/null`` is written and never
truncated.  Nothing is fsynced.  Opening with truncation instead blocks in
the truncate for tens of milliseconds on filesystems that discard freed
blocks (ext4 mounted with ``discard``), against well under a millisecond for
the write itself.  Every CSV table is written by ``write_table`` and read
by ``read_rows``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
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


def as_points(points, dimension: int | None = None) -> np.ndarray:
    """``points`` as a float (n, d) array; a 1-D array is n points of a one-coordinate model.

    Every entry point that takes covariates converts them here.  More than
    two dimensions, no points, a non-finite entry and a d other than
    ``dimension`` (when given) are refused as ``DataFormatError``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DataFormatError(f"points must form a non-empty (n, d) array, got shape {pts.shape}")
    if dimension is not None and pts.shape[1] != dimension:
        raise DataFormatError(f"expected dimension {dimension}, got {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise DataFormatError("points must be finite")
    return pts


def as_record_values(values, n: int, what: str, dtype=float) -> np.ndarray:
    """``values`` as an (n,) array of ``dtype`` with every entry finite.

    Every entry point that takes one value per record converts it here; a
    refusal is a ``DataFormatError`` whose message names ``what``.
    """
    out = np.asarray(values, dtype=dtype)
    if out.shape != (n,):
        raise DataFormatError(f"expected {n} {what}, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise DataFormatError(f"{what} must be finite")
    return out


@dataclass
class RiskSetIndex:
    """Sorted-time lookup structure shared by likelihood evaluations.

    ``order`` sorts records by time ascending with ties broken by original row
    index.  ``group_start[p]``/``group_end[p]`` bound the tie group of sorted
    position p, so the risk set of the subject at p is the suffix starting at
    ``group_start[p]``.  ``event_positions`` lists the sorted positions of the
    events, ascending, and ``event_start`` the start of each one's risk set
    (``group_start[event_sorted]``), so likelihood passes gather them without
    a boolean mask.
    """

    order: np.ndarray
    times_sorted: np.ndarray
    event_sorted: np.ndarray
    group_start: np.ndarray
    group_end: np.ndarray
    event_positions: np.ndarray
    event_start: np.ndarray


class SurvivalDataset:
    """Immutable collection of (covariates, time in (0, 1], censored) records."""

    def __init__(self, covariates, times, censored, time_scale: float = 1.0):
        covariates = as_points(covariates)
        n = covariates.shape[0]
        times = as_record_values(times, n, "times")
        censored = as_record_values(censored, n, "censoring flags", dtype=bool)
        if times.min() <= 0.0:
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
        if not np.all(np.isfinite(raw) & (raw > 0.0)):
            raise NonPositiveTimeError("times must be finite and positive")
        scale = float(raw.max()) if raw.size else 1.0  # no records: the points gate refuses
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
            event_sorted = self.events[order]
            event_positions = np.flatnonzero(event_sorted)
            self._risk_index = RiskSetIndex(
                order=order,
                times_sorted=ts,
                event_sorted=event_sorted,
                group_start=start,
                group_end=end,
                event_positions=event_positions,
                event_start=start[event_positions],
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


def _parse_cell(value: str, path, row: int, column: str) -> float:
    """The finite number in one CSV cell."""
    value = value.strip()
    if value == "":
        raise NonNumericCellError(f"{path}: blank cell in column {column!r}, row {row}")
    try:
        number = float(value)
    except ValueError:
        raise NonNumericCellError(
            f"{path}: non-numeric value {value!r} in column {column!r}, row {row}"
        ) from None
    if not math.isfinite(number):  # float() reads nan, inf and 1e999
        raise NonNumericCellError(
            f"{path}: non-finite value {value!r} in column {column!r}, row {row}")
    return number


def read_rows(path, select):
    """Yield each non-blank row of the CSV at ``path`` as the floats in ``select(header)``.

    ``select`` names the columns to read and raises when one is missing; the
    header is None if the file has none.  A repeated column name is refused,
    and so is a row wider than the header (a trailing comma included).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        for j, name in enumerate(header or ()):
            if name in header[:j]:
                raise DataFormatError(f"{path}: repeated column {name!r}")
        columns = select(header)
        positions = [header.index(c) for c in columns]
        for i, row in enumerate(r for r in reader if r):
            if len(row) > len(header):
                raise DataFormatError(f"{path}: row {i} has {len(row)} cells, "
                                      f"the header {len(header)}")
            yield [_parse_cell(row[p] if p < len(row) else "", path, i, c)
                   for p, c in zip(positions, columns)]


def load_csv(path, time_column: str = "time", event_column: str = "event",
             covariate_columns: list[str] | None = None) -> SurvivalDataset:
    """Load a survival dataset from CSV.

    The header must contain the time and event columns; covariate columns
    default to every other column, in header order.  Event 1 means the event
    was observed, 0 means censored.  Times are divided by the file maximum.
    """
    def select(header):
        if header is None:
            raise DataFormatError(f"{path}: missing header row")
        covs = covariate_columns if covariate_columns is not None else [
            c for c in header if c not in (time_column, event_column)]
        for col in (time_column, event_column, *covs):
            if col not in header:
                raise MissingColumnError(f"{path}: missing column {col!r}")
        if not covs:
            raise MissingColumnError(f"{path}: no covariate columns")
        return [*covs, time_column, event_column]

    rows = []
    for i, row in enumerate(read_rows(path, select)):  # covariates, time, event
        if row[-2] <= 0:
            raise NonPositiveTimeError(f"{path}: non-positive time in row {i}")
        if row[-1] not in (0.0, 1.0):
            raise BadEventFlagError(f"{path}: event flag must be 0 or 1 in row {i}")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    rows = np.asarray(rows)
    return SurvivalDataset.from_raw_times(rows[:, :-2], rows[:, -2], rows[:, -1] == 0.0)


@contextlib.contextmanager
def open_output(path):
    """A UTF-8 text file at ``path``, overwritten in place (see the module docstring).

    Newlines are written untranslated.  On exit a regular file is truncated
    at the final position, so no byte of longer earlier content survives.
    """
    fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              newline="", encoding="utf-8")
    try:
        yield fh
    finally:
        try:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
        finally:
            fh.close()


def write_table(path, header, rows) -> None:
    """Write the header, then the rows, as a CSV table with csv's line endings.

    A float cell, numpy's included, is written as ``repr(float(v))``, which
    reads back to the same double; None as an empty cell, any other as ``str``.
    """
    floats = (float, np.floating)
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, floats) else v for v in row]
                         for row in rows)


def write_csv(dataset: SurvivalDataset, path) -> None:
    """Write a dataset with its times de-normalised to file units."""
    d = dataset.dimension
    write_table(path, [f"x{j + 1}" for j in range(d)] + ["time", "event"], (
        [*x, t, int(e)] for x, t, e in zip(dataset.covariates.tolist(),
                                           (dataset.times * dataset.time_scale).tolist(),
                                           dataset.events.tolist())))


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON indented by 2, with a trailing newline."""
    with open_output(path) as fh:
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
