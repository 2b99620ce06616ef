"""Every entry point that takes points or per-record values refuses a bad array alike.

Points go through ``data.as_points`` and per-record values through
``data.as_record_values``, so one bad array gets one error class and one
message wherever it enters.
"""

import numpy as np
import pytest

from survcare import (
    DataFormatError,
    DgpConfig,
    Sobolev1Kernel,
    ExternalSpec,
    SurvivalDataset,
    concordance_index,
    cross_matrix,
    external_predictor,
    fit_kernel_estimator,
    gram_matrix,
    neg_log_partial_likelihood,
    true_f0,
)
from survcare.model_selection import CareEstimator, CenteredExternal, _centred_externals

UNIVARIATE = DgpConfig("univariate")
KERNEL = Sobolev1Kernel(shift=1.0)
# a univariate fit with a non-empty basis, and one whose basis is empty
# (one point at the origin: its kernel row is proportional to the border)
DATA = SurvivalDataset([[0.2], [0.5], [0.8]], [0.3, 0.6, 0.9], [False, True, False])
FITTED = fit_kernel_estimator(DATA, KERNEL, 0.1)
EMPTY = fit_kernel_estimator(SurvivalDataset([[0.0]], [0.5], [False]),
                             Sobolev1Kernel(shift=2.0), 0.1)
EXTERNAL = CenteredExternal("perturbed", 0.25, lambda xs: external_predictor(UNIVARIATE, xs),
                            np.zeros(3), np.zeros(3))
CARE = CareEstimator(FITTED, [EXTERNAL], (0.5,), 0.1)
GOOD = np.array([[0.1], [0.4], [0.9]])

# every entry point takes points of the univariate model, d = 1
ENTRY_POINTS = {
    "cross_matrix_xs": lambda pts: cross_matrix(KERNEL, pts, GOOD),
    "cross_matrix_ys": lambda pts: cross_matrix(KERNEL, GOOD, pts),
    "gram_matrix": lambda pts: gram_matrix(KERNEL, pts),
    "kernel_estimator": FITTED.predict_many,
    "empty_basis_estimator": EMPTY.predict_many,
    "centred_external": EXTERNAL.predict_many,
    "care_estimator": CARE.predict_many,
    "true_f0": lambda pts: true_f0(UNIVARIATE, pts),
    "external_predictor": lambda pts: external_predictor(UNIVARIATE, pts),
    "dataset": lambda pts: SurvivalDataset(pts, np.full(len(pts), 0.5), np.zeros(len(pts), bool)),
}

FINITE = "points must be finite"
BAD_POINTS = {
    "nan": (np.array([[0.3], [np.nan]]), FINITE),
    "inf": (np.array([[np.inf], [0.3]]), FINITE),
    "minus_inf": (np.array([-np.inf, 0.3]), FINITE),
    "empty": (np.zeros((0, 1)), "points must form a non-empty (n, d) array, got shape (0, 1)"),
    "three_d": (np.full((2, 1, 1), 0.3),
                "points must form a non-empty (n, d) array, got shape (2, 1, 1)"),
    "wrong_d": (np.full((2, 2), 0.3), "expected dimension 1, got 2"),
}


# a dataset takes covariates of any dimension, so no d is wrong for it
@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(ENTRY_POINTS) for bad in sorted(BAD_POINTS)
    if (entry, bad) != ("dataset", "wrong_d")])
def test_every_points_entry_refuses_a_bad_array_alike(entry, bad):
    points, message = BAD_POINTS[bad]
    with pytest.raises(DataFormatError) as info:
        ENTRY_POINTS[entry](points)
    assert type(info.value) is DataFormatError
    assert str(info.value) == message


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_one_dimensional_array_is_points_of_a_one_coordinate_model(entry):
    flat = ENTRY_POINTS[entry](np.array([0.1, 0.4, 0.9]))
    column = ENTRY_POINTS[entry](np.array([[0.1], [0.4], [0.9]]))
    if entry == "dataset":
        flat, column = flat.covariates, column.covariates
    assert flat.tobytes() == column.tobytes()


@pytest.mark.parametrize("times, censored, message", [
    (np.full((3, 1), 0.5), np.zeros(3, bool), "expected 3 times, got shape (3, 1)"),
    (np.full(2, 0.5), np.zeros(3, bool), "expected 3 times, got shape (2,)"),
    (np.array([0.5, np.nan, 0.5]), np.zeros(3, bool), "times must be finite"),
    (np.full(3, 0.5), np.zeros((3, 2), bool), "expected 3 censoring flags, got shape (3, 2)"),
    (np.full(3, 0.5), np.zeros(4, bool), "expected 3 censoring flags, got shape (4,)"),
], ids=["times_column", "short_times", "nan_time", "flag_pairs", "long_flags"])
def test_dataset_refuses_mis_shaped_per_record_arrays(times, censored, message):
    with pytest.raises(DataFormatError) as info:
        SurvivalDataset(GOOD, times, censored)
    assert type(info.value) is DataFormatError
    assert str(info.value) == message


def _external(side):
    def centre(values):
        tables = {"train_values": np.zeros(3), "valid_values": np.zeros(3), side: values}
        return _centred_externals([ExternalSpec("ext", **tables)], DATA, DATA)
    return centre


# each entry point takes one value per record of DATA, and names what it takes
RECORD_ENTRY_POINTS = {
    "likelihood": (lambda v: neg_log_partial_likelihood(v, DATA), "relative-risk values"),
    "concordance": (lambda v: concordance_index(v, DATA), "predictions"),
    "external_training": (_external("train_values"), "training values of external 'ext'"),
    "external_validation": (_external("valid_values"), "validation values of external 'ext'"),
}
BAD_RECORDS = {
    "nan": ([0.1, np.nan, 0.2], "{} must be finite"),
    "inf": ([0.1, 0.2, np.inf], "{} must be finite"),
    "column": (np.zeros((3, 1)), "expected 3 {}, got shape (3, 1)"),
    "short": (np.zeros(2), "expected 3 {}, got shape (2,)"),
    "scalar": (0.5, "expected 3 {}, got shape ()"),
}


@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
@pytest.mark.parametrize("entry", sorted(RECORD_ENTRY_POINTS))
def test_every_per_record_entry_refuses_a_bad_array_alike(entry, bad):
    call, what = RECORD_ENTRY_POINTS[entry]
    values, message = BAD_RECORDS[bad]
    with pytest.raises(DataFormatError) as info:
        call(values)
    assert type(info.value) is DataFormatError
    assert str(info.value) == message.format(what)
