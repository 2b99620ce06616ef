import csv
import math

import numpy as np
import pytest

from conftest import all_censored_dataset
from evaluation_oracle import concordance_index_reference, step_survival_at
from survcare import (
    NoComparablePairsError,
    StepSurvival,
    SurvivalDataset,
    breslow_survival,
    concordance_index,
    l2_error_mc,
)


def make_dataset(times, events, seed=0):
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=float)
    return SurvivalDataset(rng.uniform(0, 1, (len(times), 1)), times,
                           ~np.asarray(events, dtype=bool))


class TestBreslow:
    def test_one_before_first_event(self):
        data = make_dataset([0.4, 0.8], [True, True])
        curve = breslow_survival(data)
        assert step_survival_at(curve, 0.1) == 1.0
        assert step_survival_at(curve, 0.39999) == 1.0

    def test_two_event_hand_enumeration(self):
        data = make_dataset([0.4, 0.8], [True, True])
        curve = breslow_survival(data)
        assert step_survival_at(curve, 0.4) == pytest.approx(math.exp(-0.5))
        assert step_survival_at(curve, 0.9) == pytest.approx(math.exp(-1.5))

    def test_all_censored_constant_one(self):
        curve = breslow_survival(all_censored_dataset())
        assert curve.times.size == 0
        assert step_survival_at(curve, 0.99) == 1.0

    def test_tied_events_share_risk_count(self):
        data = make_dataset([0.5, 0.5, 1.0], [True, True, True])
        curve = breslow_survival(data)
        # both events at 0.5 use risk count 3
        assert step_survival_at(curve, 0.5) == pytest.approx(math.exp(-2.0 / 3.0))
        assert step_survival_at(curve, 1.0) == pytest.approx(math.exp(-2.0 / 3.0 - 1.0))

    def test_censored_records_only_shrink_risk_sets(self):
        data = make_dataset([0.3, 0.5, 0.9], [True, False, True])
        curve = breslow_survival(data)
        assert step_survival_at(curve, 0.3) == pytest.approx(math.exp(-1.0 / 3.0))
        assert step_survival_at(curve, 0.95) == pytest.approx(math.exp(-1.0 / 3.0 - 1.0))

    def test_monotone_and_in_range(self, uni_dgp):
        from survcare import simulate_dataset

        data, _ = simulate_dataset(uni_dgp, 300, 5)
        curve = breslow_survival(data)
        assert np.all(np.diff(curve.values) < 0)
        assert curve.values.min() > 0.0 and curve.values.max() <= 1.0

    def test_csv_output(self, tmp_path):
        curve = breslow_survival(make_dataset([0.4, 0.8], [True, True]))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows][0] == "0.0"
        assert float(rows[-1]["survival"]) == pytest.approx(math.exp(-1.5))


class TestStepSurvival:
    def test_right_continuity_and_lookup(self):
        curve = StepSurvival(np.array([0.25, 0.5]), np.array([0.8, 0.4]))
        np.testing.assert_allclose(
            step_survival_at(curve, [0.0, 0.25, 0.3, 0.5, 1.0]),
            [1.0, 0.8, 0.8, 0.4, 0.4])

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StepSurvival(np.array([0.5, 0.25]), np.array([0.8, 0.4]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([0.25, 0.5]), np.array([0.4, 0.8]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([0.25]), np.array([1.5]))


class TestConcordance:
    def test_constant_predictions_score_zero(self):
        data = make_dataset([0.2, 0.5, 0.9], [True, True, True])
        assert concordance_index(np.ones(3), data) == 0.0

    def test_negated_times_fully_concordant(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0.05, 1.0, 30)
        data = make_dataset(times, np.ones(30, dtype=bool))
        assert concordance_index(-times, data) == 1.0

    def test_three_record_example(self):
        # events at 0.2 and 0.9, censored at 0.5; brute force gives 2/2
        data = make_dataset([0.2, 0.5, 0.9], [True, False, True])
        preds = np.array([3.0, 1.0, 2.0])
        assert concordance_index_reference(preds, data) == 1.0
        assert concordance_index(preds, data) == 1.0

    def test_no_comparable_pairs(self):
        with pytest.raises(NoComparablePairsError):
            concordance_index(np.zeros(5), all_censored_dataset(5))
        # a single record has no pairs either
        with pytest.raises(NoComparablePairsError):
            concordance_index(np.zeros(1), make_dataset([0.5], [True]))

    def test_fast_equals_reference_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 40))
            # coarse grids force ties in both times and predictions
            times = rng.integers(1, 6, n) / 6.0
            events = rng.random(n) < 0.7
            if not events.any():
                events[0] = True
            data = make_dataset(times, events, seed=trial)
            preds = rng.integers(-2, 3, n).astype(float)
            try:
                ref = concordance_index_reference(preds, data)
            except NoComparablePairsError:
                with pytest.raises(NoComparablePairsError):
                    concordance_index(preds, data)
                continue
            assert concordance_index(preds, data) == ref

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.05, 1.0, 50)
        events = rng.random(50) < 0.6
        events[0] = True
        data = make_dataset(times, events)
        preds = rng.normal(size=50)
        base = concordance_index(preds, data)
        assert concordance_index(np.exp(preds) * 2 + 5, data) == base

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = 25
            data = make_dataset(rng.uniform(0.05, 1, n),
                                rng.random(n) < 0.8, seed=100 + trial)
            c = concordance_index(rng.normal(size=n), data)
            assert 0.0 <= c <= 1.0


class TestL2ErrorMc:
    @staticmethod
    def sampler(n, rng):
        return rng.uniform(0.0, 1.0, (n, 1))

    def test_identical_functions(self):
        f = lambda xs: np.sin(xs[:, 0])
        assert l2_error_mc(f, f, self.sampler, 100, 0) == 0.0

    def test_constant_offset(self):
        f = lambda xs: np.sin(xs[:, 0])
        g = lambda xs: np.sin(xs[:, 0]) + 0.37
        assert l2_error_mc(f, g, self.sampler, 1000, 1) == pytest.approx(0.37)

    def test_uniform_second_moment(self):
        # E[x^2] over U[0,1] is 1/3
        value = l2_error_mc(lambda xs: xs[:, 0], lambda xs: np.zeros(xs.shape[0]),
                            self.sampler, 10**6, 7)
        assert value == pytest.approx(math.sqrt(1.0 / 3.0), abs=0.002)

    def test_deterministic_given_seed(self):
        f = lambda xs: xs[:, 0] ** 2
        g = lambda xs: np.zeros(xs.shape[0])
        assert l2_error_mc(f, g, self.sampler, 500, 3) == l2_error_mc(f, g, self.sampler, 500, 3)

    def test_columns_score_bit_for_bit_as_alone(self):
        truth = lambda xs: np.sin(3.0 * xs[:, 0])
        fits = [lambda xs, k=k: np.cos(k * xs[:, 0]) / (k + 1) for k in range(5)]
        errors = l2_error_mc(lambda xs: np.column_stack([f(xs) for f in fits]), truth,
                             self.sampler, 1237, 9)
        alone = [l2_error_mc(f, truth, self.sampler, 1237, 9) for f in fits]
        assert isinstance(alone[0], float) and errors.shape == (5,)
        assert errors.tobytes() == np.array(alone).tobytes()

    def test_non_finite_rejected(self):
        f = lambda xs: np.full(xs.shape[0], np.inf)
        g = lambda xs: np.zeros(xs.shape[0])
        with pytest.raises(ValueError):
            l2_error_mc(f, g, self.sampler, 10, 0)
