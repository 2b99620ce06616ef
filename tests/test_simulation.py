import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import survcare.simulation
from evaluation_oracle import simulate_survival_times
from simulation_oracle import row_by_row_arrays
from survcare import (
    DgpConfig,
    covariate_sampler,
    external_predictor,
    simulate_dataset,
    true_f0,
)
from survcare.simulation import _RECORD_BLOCK

MULTI = DgpConfig("multivariate_d10")


def empirical_ks_vs_exponential(sample):
    """Kolmogorov-Smirnov distance to the unit exponential distribution."""
    s = np.sort(np.asarray(sample))
    n = s.size
    cdf = 1.0 - np.exp(-s)
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(cdf - np.arange(0, n) / n).max()
    return max(upper, lower)


class TestTrueRisk:
    def test_univariate_at_zero(self, uni_dgp):
        assert true_f0(uni_dgp, [0.0]) == pytest.approx(-2.0 * math.sin(1.0) ** 2)

    def test_multivariate_at_zero(self):
        assert true_f0(MULTI, np.zeros((1, 10))) == pytest.approx(-10.0 * math.sin(1.0) ** 2)

    def test_univariate_mean_zero(self, uni_dgp):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (10**6, 1))
        assert abs(true_f0(uni_dgp, xs).mean()) <= 3e-3

    def test_domain_checked(self, uni_dgp):
        with pytest.raises(ValueError):
            true_f0(uni_dgp, [1.2])
        with pytest.raises(ValueError):
            true_f0(MULTI, np.zeros(3))


class TestExternalPredictor:
    def test_univariate_at_zero(self, uni_dgp):
        expected = -(8.0 / 3.0) * math.sin(0.75) ** 2
        assert external_predictor(uni_dgp, [0.0]) == pytest.approx(expected)

    def test_multivariate_midpoint_zero(self):
        x = np.full((1, 10), 0.37)
        x[:, :4] = 0.5
        assert external_predictor(MULTI, x) == pytest.approx(0.0, abs=1e-14)

    def test_univariate_mean_zero(self, uni_dgp):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, (10**6, 1))
        assert abs(external_predictor(uni_dgp, xs).mean()) <= 3e-3

    def test_multivariate_mean_zero(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, (10**5, 10))
        assert abs(external_predictor(MULTI, xs).mean()) <= 1e-2


class TestSimulateDataset:
    def test_deterministic_bit_for_bit(self, uni_dgp):
        d1, t1 = simulate_dataset(uni_dgp, 50, 99)
        d2, t2 = simulate_dataset(uni_dgp, 50, 99)
        assert np.array_equal(d1.covariates, d2.covariates)
        assert np.array_equal(d1.times, d2.times)
        assert np.array_equal(d1.censored, d2.censored)
        assert np.array_equal(t1.survival_times, t2.survival_times)

    def test_different_seeds_differ(self, uni_dgp):
        d1, _ = simulate_dataset(uni_dgp, 50, 1)
        d2, _ = simulate_dataset(uni_dgp, 50, 2)
        assert not np.array_equal(d1.times, d2.times)

    def test_observed_times_in_unit_interval(self, uni_dgp):
        data, _ = simulate_dataset(uni_dgp, 2000, 5)
        assert data.times.min() > 0.0
        assert data.times.max() <= 1.0

    def test_consistency_with_truth_arrays(self, uni_dgp):
        data, truth = simulate_dataset(uni_dgp, 300, 8)
        expected_t = np.minimum(truth.survival_times, truth.censor_times)
        np.testing.assert_allclose(data.times, expected_t)
        np.testing.assert_array_equal(
            data.censored, truth.censor_times < truth.survival_times)
        assert truth.censor_times.max() <= 1.0
        assert truth.censor_times.min() >= 0.2

    def test_censoring_fraction_matches_oracle_band(self, uni_dgp):
        # Monte-Carlo oracle run once: observed fraction 0.0592 at 10^5 draws;
        # the fixture is that value +- 5 binomial standard errors at n = 10^4
        data, _ = simulate_dataset(uni_dgp, 10**4, 31)
        frac = data.censored.mean()
        se = math.sqrt(0.0592 * (1 - 0.0592) / 10**4)
        assert 0.0592 - 5 * se <= frac <= 0.0592 + 5 * se

    def test_multivariate_dimension(self):
        data, truth = simulate_dataset(MULTI, 40, 3)
        assert data.dimension == 10
        assert truth.f0(data.covariates).shape == (40,)

    def test_proportional_hazards_ks_property(self, uni_dgp):
        # conditional on f0(X) in a narrow band, 6 T_S e^{f0} is roughly
        # Exp(1); the band sits at the mode of f0 so it fills quickly
        data, truth = simulate_dataset(uni_dgp, 6 * 10**4, 13)
        f0 = truth.f0(truth.covariates)
        center = float(true_f0(uni_dgp, [math.pi / 4])[0]) - 0.02
        band = np.abs(f0 - center) <= 0.02
        sample = 6.0 * truth.survival_times[band][:10**4] * math.exp(center)
        assert sample.size >= 10**4
        assert empirical_ks_vs_exponential(sample) <= 0.05

    def test_sampler_shape_and_law(self, uni_dgp):
        rng = np.random.default_rng(0)
        xs = covariate_sampler(MULTI)(500, rng)
        assert xs.shape == (500, 10)
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_survival_time_helper_matches_model(self, uni_dgp):
        # P(T_S > t | X) = exp(-6 t e^{f0(X)}): compare the marginal survival
        # at t = 0.1 with its Monte-Carlo estimate from the closed form
        ts = simulate_survival_times(uni_dgp, 10**5, 4)
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1, (10**5, 1))
        target = np.exp(-6.0 * 0.1 * np.exp(true_f0(uni_dgp, xs))).mean()
        assert (ts > 0.1).mean() == pytest.approx(target, abs=0.01)

    def test_n_must_be_positive(self, uni_dgp):
        with pytest.raises(ValueError):
            simulate_dataset(uni_dgp, 0, 1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            DgpConfig("trivariate")


def simulated_arrays(config, n, seed):
    data, truth = simulate_dataset(config, n, seed)
    return {"covariates": data.covariates, "times": data.times, "censored": data.censored,
            "survival_times": truth.survival_times, "censor_times": truth.censor_times}


class TestDrawContract:
    """One Philox stream keyed by the exact seed, drawn in blocks of records."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from(["univariate", "multivariate_d10"]),
           n=st.integers(1, 2 * _RECORD_BLOCK + 3),
           seed=st.integers(0, 2**64 - 1))
    @example(variant="univariate", n=_RECORD_BLOCK, seed=2**63 + 5)
    @example(variant="multivariate_d10", n=_RECORD_BLOCK + 1, seed=2**63)
    @example(variant="univariate", n=2 * _RECORD_BLOCK + 3, seed=2**64 - 1)
    @example(variant="multivariate_d10", n=40, seed=2**64 - 1)
    def test_blocks_match_the_row_by_row_reference_byte_for_byte(self, variant, n, seed):
        config = DgpConfig(variant)
        got = simulated_arrays(config, n, seed)
        for name, expected in row_by_row_arrays(config, n, seed).items():
            assert (got[name].dtype, got[name].shape) == (expected.dtype, expected.shape), name
            assert got[name].tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("variant", ["univariate", "multivariate_d10"])
    def test_a_draw_is_a_prefix_of_a_longer_one(self, variant):
        config = DgpConfig(variant)
        longer = simulated_arrays(config, 2 * _RECORD_BLOCK + 5, 17)
        for k in (1, _RECORD_BLOCK - 1, _RECORD_BLOCK, _RECORD_BLOCK + 1, 2 * _RECORD_BLOCK + 4):
            shorter = simulated_arrays(config, k, 17)
            for name, arr in shorter.items():
                assert arr.tobytes() == longer[name][:k].tobytes(), (k, name)

    @pytest.mark.parametrize("a, b", [(2**63 + 5, 2**63 + 6), (2**64 - 1, 0)])
    def test_large_seeds_are_keyed_exactly(self, a, b):
        # numpy's float64 key rounding once made each of these pairs one draw;
        # a RuntimeWarning fails the test under the suite's filter
        for variant in ("univariate", "multivariate_d10"):
            config = DgpConfig(variant)
            first, second = simulated_arrays(config, 30, a), simulated_arrays(config, 30, b)
            assert not np.array_equal(first["covariates"], second["covariates"])
            assert not np.array_equal(first["times"], second["times"])

    @pytest.mark.parametrize("seed", [np.int32(5), np.int64(5), np.uint32(5), np.uint64(5),
                                      np.uint64(2**64 - 1), np.int64(-7)])
    def test_a_numpy_integer_seed_keys_like_the_equal_python_int(self, seed):
        # seed % 2**64 once ran in int64 and overflowed for every numpy seed
        config = DgpConfig("univariate")
        got = simulated_arrays(config, 20, seed)
        for name, expected in simulated_arrays(config, 20, int(seed)).items():
            assert got[name].tobytes() == expected.tobytes(), name

    def test_a_negative_seed_keys_modulo_2_64(self):
        config = DgpConfig("univariate")
        got = simulated_arrays(config, 20, -1)
        for name, expected in row_by_row_arrays(config, 20, 2**64 - 1).items():
            assert got[name].tobytes() == expected.tobytes(), name

    def test_a_float_seed_is_refused(self):
        # numpy's Philox would take 1.5 as a key without a word
        with pytest.raises(TypeError):
            simulate_dataset(DgpConfig("univariate"), 5, 1.5)

    @pytest.mark.parametrize("variant", ["univariate", "multivariate_d10"])
    def test_a_zero_survival_draw_is_an_infinite_time_censored_at_the_censoring_draw(
            self, variant):
        config = DgpConfig(variant)
        d = config.dimension
        unit = np.full((2, d + 2), 0.5)
        unit[0, d] = 0.0
        x, ts, tc = survcare.simulation._records(config, unit)
        assert ts[0] == np.inf and 0.0 < ts[1] < np.inf
        assert tc[0] == tc[1] == pytest.approx(1.0)
        assert np.array_equal(x, unit[:, :d])
        times, censored = np.minimum(ts, tc), tc < ts
        assert times[0] == tc[0] > 0.0 and censored[0]

    @pytest.mark.parametrize("variant", ["univariate", "multivariate_d10"])
    def test_memory_beyond_the_outputs_does_not_grow_with_n(self, variant):
        # the temporaries hold _RECORD_BLOCK records, so four blocks of
        # records need about as much beyond their outputs as one
        config = DgpConfig(variant)
        simulate_dataset(config, 2, 0)
        extra = []
        for blocks in (1, 4):
            gc.collect()
            tracemalloc.start()
            try:
                out = simulate_dataset(config, blocks * _RECORD_BLOCK, 5)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del out
            extra.append(peak - retained)
        assert extra[1] <= 1.5 * extra[0]
