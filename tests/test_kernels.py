import json
import math
import tracemalloc

import numpy as np
import pytest

from feature_map_oracle import feature_map, feature_matrix
from kernel_oracle import eval_kernel, gaussian_cross_matrix, kappa_matrix
from survcare import (
    AdditiveKernel,
    GaussianKernel,
    NotInSpaceError,
    PolynomialKernel,
    Sobolev1Kernel,
    Sobolev2Kernel,
    constant_norm_squared,
    cross_matrix,
    gram_matrix,
    kernel_from_json,
    kernel_to_json,
)

ALL_VARIANTS = [
    GaussianKernel(shift=1.0, lengthscales=(1.0, 0.7)),
    PolynomialKernel(degree=2, shift=1.0),
    Sobolev1Kernel(shift=1.0),
    Sobolev2Kernel(shift=0.5),
    AdditiveKernel(summands=((0, Sobolev1Kernel(shift=1.0)), (1, Sobolev2Kernel(shift=0.0)))),
]


def _points_for(config, n, rng):
    if isinstance(config, GaussianKernel):
        return rng.normal(0.0, 2.0, (n, config.dimension))
    if isinstance(config, PolynomialKernel):
        return rng.uniform(-1.0, 1.0, (n, 2))
    if isinstance(config, (Sobolev1Kernel, Sobolev2Kernel)):
        return rng.uniform(0.0, 1.0, (n, 1))
    return rng.uniform(0.0, 1.0, (n, config.min_dimension))


def kappa_limit_oracle(a, deltas=(1e-6, 1e-8, 1e-10)):
    """Independent oracle: 1 / (1' (A + delta I)^{-1} 1) as delta decreases."""
    a = np.asarray(a, dtype=float)
    ones = np.ones(a.shape[0])
    return [1.0 / float(ones @ np.linalg.solve(a + d * np.eye(a.shape[0]), ones)) for d in deltas]


class TestEvalKernel:
    def test_sobolev1_example(self):
        assert eval_kernel(Sobolev1Kernel(shift=1.0), [0.3], [0.5]) == pytest.approx(1.3)

    def test_polynomial_example(self):
        assert eval_kernel(PolynomialKernel(degree=2, shift=1.0), [1, 2], [2, 1]) == 25.0

    def test_gaussian_diagonal_example(self):
        k = GaussianKernel(shift=0.0, sigma=((1.0, 0.0), (0.0, 1.0)))
        assert eval_kernel(k, [0.7, -0.2], [0.7, -0.2]) == 1.0

    def test_sobolev2_closed_form_matches_quadrature(self):
        # double-check the closed form against the defining integral
        rng = np.random.default_rng(0)
        k = Sobolev2Kernel(shift=0.25)
        for _ in range(20):
            x, y = rng.uniform(0, 1, 2)
            m = min(x, y)
            z = np.linspace(0.0, m, 20001)
            quad = np.trapezoid((x - z) * (y - z), z) if hasattr(np, "trapezoid") else np.trapz((x - z) * (y - z), z)
            assert eval_kernel(k, [x], [y]) == pytest.approx(0.25 + quad, abs=1e-8)

    def test_additive_sums_coordinates(self):
        k = AdditiveKernel(summands=((0, Sobolev1Kernel(shift=1.0)), (2, Sobolev1Kernel(shift=0.0))))
        x, y = [0.2, 0.9, 0.6], [0.4, 0.1, 0.3]
        assert eval_kernel(k, x, y) == pytest.approx((1.0 + 0.2) + 0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(Sobolev1Kernel(shift=1.0), [0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            eval_kernel(GaussianKernel(shift=0.0, lengthscales=(1.0,)), [0.1, 0.2], [0.1, 0.2])

    def test_sobolev_domain_check(self):
        with pytest.raises(ValueError):
            eval_kernel(Sobolev1Kernel(shift=1.0), [1.2], [0.5])
        with pytest.raises(ValueError):
            eval_kernel(Sobolev2Kernel(shift=1.0), [0.2], [-0.1])

    @pytest.mark.parametrize("config", ALL_VARIANTS)
    def test_symmetry_exact(self, config):
        rng = np.random.default_rng(11)
        pts = _points_for(config, 30, rng)
        for i in range(0, 30, 3):
            for j in range(1, 30, 4):
                assert eval_kernel(config, pts[i], pts[j]) == eval_kernel(config, pts[j], pts[i])

    @pytest.mark.parametrize("config", ALL_VARIANTS)
    def test_shift_decomposition(self, config):
        rng = np.random.default_rng(12)
        pts = _points_for(config, 10, rng)
        if isinstance(config, AdditiveKernel):
            zero = AdditiveKernel(summands=tuple(
                (c, type(k)(shift=0.0)) for c, k in config.summands))
            total_shift = sum(k.shift for _, k in config.summands)
        elif isinstance(config, GaussianKernel):
            zero = GaussianKernel(shift=0.0, lengthscales=config.lengthscales, sigma=config.sigma)
            total_shift = config.shift
        elif isinstance(config, PolynomialKernel):
            pytest.skip("polynomial shift enters the base, not additively")
        else:
            zero = type(config)(shift=0.0)
            total_shift = config.shift
        for i in range(10):
            for j in range(10):
                with_shift = eval_kernel(config, pts[i], pts[j])
                without = eval_kernel(zero, pts[i], pts[j])
                assert with_shift == pytest.approx(without + total_shift, rel=1e-14)


class TestGramMatrix:
    def test_sobolev1_minimum_entries(self):
        g = gram_matrix(Sobolev1Kernel(shift=0.0), [[0.0], [1.0]])
        np.testing.assert_allclose(g, [[0.0, 0.0], [0.0, 1.0]])

    def test_single_point(self):
        g = gram_matrix(GaussianKernel(shift=2.0, lengthscales=(1.0,)), [[0.4]])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(3.0)

    def test_polynomial_example(self):
        g = gram_matrix(PolynomialKernel(degree=1, shift=1.0), [[1.0], [2.0]])
        np.testing.assert_allclose(g, [[2.0, 3.0], [3.0, 5.0]])

    @pytest.mark.parametrize("config, dim", [(c, None) for c in ALL_VARIANTS] + [
        (GaussianKernel(shift=0.5, sigma=tuple(map(tuple, np.eye(10) + 0.1))), None),
        (PolynomialKernel(degree=3, shift=1.0), 10),
    ])
    @pytest.mark.parametrize("n", [7, 200, 801])
    def test_bitwise_symmetric_and_read_only(self, config, dim, n):
        # nothing symmetrises the Gram after the kernel evaluates it; n=801
        # spans several Gaussian row blocks and basis-selection blocks
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1.0, 1.0, (n, dim)) if dim else _points_for(config, n, rng)
        k = gram_matrix(config, pts)
        assert np.array_equal(k, k.T)
        assert not k.flags.writeable

    @pytest.mark.parametrize("config", ALL_VARIANTS)
    def test_positive_semidefinite(self, config):
        from survcare.kernels import subtractable_shift

        rng = np.random.default_rng(99)
        shift = subtractable_shift(config)
        for _ in range(100):
            pts = _points_for(config, int(rng.integers(2, 21)), rng)
            k = gram_matrix(config, pts)
            assert k.diagonal().min() >= shift - 1e-12
            evals = np.linalg.eigvalsh(k)
            op_norm = max(abs(evals[0]), abs(evals[-1]))
            assert evals.min() >= -1e-8 * op_norm


class TestGaussianRowBlocks:
    D10_SIGMA = np.eye(10) + 0.1 * np.ones((10, 10))

    @pytest.mark.parametrize("config", [
        GaussianKernel(shift=0.5, lengthscales=tuple(np.linspace(0.3, 2.0, 10))),
        GaussianKernel(shift=0.5, sigma=tuple(map(tuple, D10_SIGMA))),
    ], ids=["lengthscales", "sigma"])
    @pytest.mark.parametrize("rows", [1, 7, 301])
    def test_blocks_match_the_one_shot_formula(self, config, rows):
        # 257 columns at d=10 fill no block exactly, and no row count here
        # is a whole number of blocks
        rng = np.random.default_rng(rows)
        xs, ys = rng.normal(size=(rows, 10)), rng.normal(size=(257, 10))
        out = cross_matrix(config, xs, ys)
        assert out.tobytes() == gaussian_cross_matrix(config, xs, ys).tobytes()

    def test_peak_memory_is_bounded_by_the_output(self):
        config = GaussianKernel(shift=0.5, lengthscales=(0.5,) * 10)
        xs = np.random.default_rng(0).uniform(size=(600, 10))
        tracemalloc.start()
        try:
            out = cross_matrix(config, xs, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestKappa:
    def test_identity(self):
        assert kappa_matrix(np.eye(2)) == pytest.approx(0.5)

    def test_ones_matrix_matches_limit_oracle(self):
        a = np.ones((2, 2))
        limits = kappa_limit_oracle(a)
        assert limits[-1] == pytest.approx(1.0, abs=1e-9)
        assert kappa_matrix(a) == pytest.approx(1.0, rel=1e-12)

    def test_null_space_overlap_gives_zero(self):
        assert kappa_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_matches_limit_oracle_on_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=(8, 8))
            a = b @ b.T
            assert kappa_matrix(a) == pytest.approx(kappa_limit_oracle(a)[-1], rel=1e-6)


class TestConstantNorm:
    def test_gaussian(self):
        assert constant_norm_squared(GaussianKernel(shift=1.0, lengthscales=(1.0,))) == 1.0

    def test_polynomial(self):
        assert constant_norm_squared(PolynomialKernel(degree=3, shift=2.0)) == pytest.approx(0.125)

    def test_sobolev_not_in_space(self):
        with pytest.raises(NotInSpaceError):
            constant_norm_squared(Sobolev1Kernel(shift=0.0))

    def test_sobolev2(self):
        assert constant_norm_squared(Sobolev2Kernel(shift=4.0)) == pytest.approx(0.25)

    def test_additive_single_shift_cross_checked_by_kappa(self):
        # ten 1-d summands, one carrying the whole shift; kappa over random
        # Gram matrices must stay above 1/cns and close in on it from above
        summands = tuple(
            (j, Sobolev1Kernel(shift=1.0 if j == 0 else 0.0)) for j in range(10)
        )
        config = AdditiveKernel(summands=summands)
        assert constant_norm_squared(config) == pytest.approx(1.0)
        rng = np.random.default_rng(17)
        kappas = []
        for _ in range(50):
            pts = rng.uniform(0.0, 1.0, (30, 10))
            pts[0] = pts[0] * 1e-4  # near-origin point sharpens the infimum
            kappas.append(kappa_matrix(gram_matrix(config, pts)))
        inf_kappa = min(kappas)
        assert inf_kappa >= 1.0 - 1e-9
        assert inf_kappa == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("config", [
        GaussianKernel(shift=1.0, lengthscales=(1.0,)),
        PolynomialKernel(degree=2, shift=1.0),
        Sobolev1Kernel(shift=1.0),
        Sobolev2Kernel(shift=0.5),
    ])
    def test_kappa_consistency_across_sizes(self, config):
        # kappa over random Gram matrices stays above 1/cns and approaches it
        rng = np.random.default_rng(23)
        target = 1.0 / constant_norm_squared(config)
        gaps = []
        for size in (5, 20, 80):
            best = math.inf
            for _ in range(5):
                if isinstance(config, GaussianKernel):
                    pts = (6.0 * np.arange(size) + rng.uniform(-1, 1, size))[:, None]
                else:
                    pts = rng.uniform(0.0, 1.0, (size, 1))
                    pts[0] = 0.0
                best = min(best, kappa_matrix(gram_matrix(config, pts)))
            assert best >= target - 1e-6
            gaps.append(best - target)
        assert gaps[2] <= gaps[0] + 1e-9


class TestFeatureMap:
    def test_degree_one_example(self):
        np.testing.assert_allclose(
            feature_map(PolynomialKernel(degree=1, shift=1.0), [3.0]), [3.0, 1.0])

    def test_degree_two_self_product(self):
        phi = feature_map(PolynomialKernel(degree=2, shift=1.0), [2.0])
        assert phi @ phi == pytest.approx(25.0)

    def test_constant_coordinate_is_last(self):
        config = PolynomialKernel(degree=3, shift=2.0)
        phi = feature_map(config, [0.0, 0.0])
        assert phi[-1] == pytest.approx(2.0 ** 1.5)
        np.testing.assert_allclose(phi[:-1], 0.0)

    def test_identity_against_eval_kernel(self):
        rng = np.random.default_rng(31)
        config = PolynomialKernel(degree=2, shift=1.0)
        for _ in range(25):
            x, y = rng.normal(size=(2, 2))
            lhs = feature_map(config, x) @ feature_map(config, y)
            assert lhs == pytest.approx(eval_kernel(config, x, y), rel=1e-12)

    @pytest.mark.parametrize("degree,dim", [(1, 1), (2, 2), (3, 2), (2, 5)])
    def test_identity_property(self, degree, dim):
        rng = np.random.default_rng(degree * 10 + dim)
        config = PolynomialKernel(degree=degree, shift=0.7)
        xs = rng.normal(size=(6, dim))
        phi = feature_matrix(config, xs)
        assert phi.shape[1] == math.comb(dim + degree, degree)
        np.testing.assert_allclose(
            phi @ phi.T, cross_matrix(config, xs, xs), rtol=1e-10, atol=1e-12)

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            feature_map(PolynomialKernel(degree=2, shift=0.0), [1.0])


class TestConfigValidation:
    def test_negative_shift(self):
        with pytest.raises(ValueError):
            Sobolev1Kernel(shift=-0.1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0, shift=1.0)

    def test_gaussian_needs_exactly_one_scale(self):
        with pytest.raises(ValueError):
            GaussianKernel(shift=0.0)
        with pytest.raises(ValueError):
            GaussianKernel(shift=0.0, lengthscales=(1.0,), sigma=((1.0,),))

    def test_gaussian_sigma_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            GaussianKernel(shift=0.0, sigma=((1.0, 2.0), (2.0, 1.0)))

    def test_additive_duplicate_coordinates(self):
        with pytest.raises(ValueError):
            AdditiveKernel(summands=((0, Sobolev1Kernel(shift=1.0)),
                                     (0, Sobolev1Kernel(shift=0.0))))

    def test_additive_empty(self):
        with pytest.raises(ValueError):
            AdditiveKernel(summands=())


SIGMA_GAUSSIAN = GaussianKernel(shift=0.5, sigma=((2.0, 0.5), (0.5, 1.0)))

# The wire format of every variant, key order included.
WIRE_FORMAT = [
    '{"variant": "gaussian", "shift": 1.0, "lengthscales": [1.0, 0.7]}',
    '{"variant": "polynomial", "degree": 2, "shift": 1.0}',
    '{"variant": "sobolev1", "shift": 1.0}',
    '{"variant": "sobolev2", "shift": 0.5}',
    '{"variant": "additive", "summands": [{"coord": 0, "kernel": {"variant": "sobolev1", '
    '"shift": 1.0}}, {"coord": 1, "kernel": {"variant": "sobolev2", "shift": 0.0}}]}',
    '{"variant": "gaussian", "shift": 0.5, "sigma": [[2.0, 0.5], [0.5, 1.0]]}',
]


class TestJson:
    @pytest.mark.parametrize("config", ALL_VARIANTS + [SIGMA_GAUSSIAN])
    def test_round_trip(self, config):
        assert kernel_from_json(kernel_to_json(config)) == config

    @pytest.mark.parametrize("config, text", zip(ALL_VARIANTS + [SIGMA_GAUSSIAN], WIRE_FORMAT),
                             ids=["gaussian", "polynomial", "sobolev1", "sobolev2", "additive",
                                  "gaussian_sigma"])
    def test_wire_format_is_pinned(self, config, text):
        assert json.dumps(kernel_to_json(config)) == text

    def test_wire_format_examples(self):
        assert kernel_from_json({"variant": "sobolev1", "shift": 1.0}) == Sobolev1Kernel(shift=1.0)
        assert kernel_from_json(
            {"variant": "polynomial", "degree": 2, "shift": 1.0}
        ) == PolynomialKernel(degree=2, shift=1.0)
        parsed = kernel_from_json(
            {"variant": "additive",
             "summands": [{"coord": 0, "kernel": {"variant": "sobolev1", "shift": 1.0}}]})
        assert parsed == AdditiveKernel(summands=((0, Sobolev1Kernel(shift=1.0)),))
        parsed = kernel_from_json(
            {"variant": "gaussian", "lengthscales": [1.0, 2.0], "shift": 0.5})
        assert parsed == GaussianKernel(shift=0.5, lengthscales=(1.0, 2.0))

    @pytest.mark.parametrize("shift", ["1.5", True, False, None])
    def test_shift_must_be_a_number(self, shift):
        with pytest.raises(ValueError, match="shift must be"):
            kernel_from_json({"variant": "sobolev1", "shift": shift})
        with pytest.raises(ValueError, match="shift must be"):
            Sobolev1Kernel(shift=shift)

    def test_integer_shift_becomes_a_float(self):
        shift = kernel_to_json(kernel_from_json({"variant": "sobolev1", "shift": 1}))["shift"]
        assert type(shift) is float and shift == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_json({"variant": "sobolev1", "shift": 1.0, "junk": 2})
        with pytest.raises(ValueError):
            kernel_from_json({"variant": "mystery"})
